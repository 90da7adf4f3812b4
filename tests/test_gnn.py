"""Message-passing layer tests.

The oracle here is the dense formulation: build the full normalised
adjacency as an explicit matrix and compare against the sparse
aggregation the layers actually use.
"""

import numpy as np
import pytest

from neural_atoms.autodiff import ShapeError, Tensor
from neural_atoms.gnn import GcnLayerParams, MlpParams, gcn_forward, gin_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs
from helpers import grad_check, mul, permute_graph, rescale_weights, sum_all


def random_graph(rng, n, dim, edge_prob=0.4, label=0):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    return MolecularGraph(n, edges, rng.normal(size=(n, dim)) + 0.5, graph_label=label)


def dense_gcn_oracle(graph, h, w):
    """relu(D^-1/2 (A + I) D^-1/2 @ H @ W) with everything dense."""
    n = graph.num_nodes
    a = np.eye(n)
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    norm = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
    return np.maximum(norm @ h @ w, 0.0)


def dense_gin_sum_oracle(graph, h):
    n = graph.num_nodes
    a = np.eye(n)
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    return a @ h


class TestGcn:
    def test_two_node_path_with_identity_weight(self):
        # both degrees are 2 with the self-loop, so each output is (2+4)/2 = 3
        g = MolecularGraph(2, [(0, 1)], np.array([[2.0], [4.0]]), graph_label=0)
        params = GcnLayerParams(weight=Tensor(np.eye(1), requires_grad=True))
        out = gcn_forward(Tensor(g.node_features), batch_graphs([g]), params)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)

    def test_isolated_node_keeps_own_feature(self):
        g = MolecularGraph(1, [], np.array([[5.0, 7.0]]), graph_label=0)
        params = GcnLayerParams(weight=Tensor(np.eye(2)))
        out = gcn_forward(Tensor(g.node_features), batch_graphs([g]), params)
        np.testing.assert_allclose(out.data, [[5.0, 7.0]], atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 12)), 5)
            w = rng.normal(size=(5, 4))
            got = gcn_forward(Tensor(g.node_features), batch_graphs([g]),
                              GcnLayerParams(weight=Tensor(w))).data
            np.testing.assert_allclose(got, dense_gcn_oracle(g, g.node_features, w),
                                       atol=1e-12)

    def test_single_layer_is_local(self):
        """Changing a far node's features leaves a non-neighbour bit-identical."""
        edges = [(i, i + 1) for i in range(5)]
        feats = np.random.default_rng(4).normal(size=(6, 3))
        batch = batch_graphs([MolecularGraph(6, edges, feats, graph_label=0)])
        params = GcnLayerParams(weight=Tensor(np.random.default_rng(5).normal(size=(3, 3))))
        base = gcn_forward(Tensor(feats), batch, params).data
        bumped = feats.copy()
        bumped[5] += 10.0
        moved = gcn_forward(Tensor(bumped), batch, params).data
        assert np.array_equal(base[0], moved[0])
        assert not np.array_equal(base[4], moved[4])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n, 4)
            w = rng.normal(size=(4, 6))
            perm = rng.permutation(n)
            pg = permute_graph(g, perm)
            params = GcnLayerParams(Tensor(w))
            base = gcn_forward(Tensor(g.node_features), batch_graphs([g]), params).data
            permuted = gcn_forward(Tensor(pg.node_features), batch_graphs([pg]), params).data
            np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 7, 4)
        params = rescale_weights(GcnLayerParams.init(4, 5, rng), 0.5)
        x = Tensor(g.node_features, requires_grad=True)
        batch = batch_graphs([g])

        def f():
            out = gcn_forward(x, batch, params)
            return sum_all(mul(out, out))

        assert grad_check(f, [x, params.weight], eps=1e-5) < 1e-6

    def test_row_count_mismatch_is_rejected(self):
        g = MolecularGraph(3, [(0, 1)], np.zeros((3, 2)), graph_label=0)
        with pytest.raises(ShapeError, match="slot_matmul: 3-row matrix"):
            gcn_forward(Tensor(np.zeros((4, 2))), batch_graphs([g]),
                        GcnLayerParams(Tensor(np.eye(2))))


class TestGin:
    def test_isolated_node_through_identity_mlp(self):
        g = MolecularGraph(1, [], np.array([[1.0, 2.0]]), graph_label=0)
        params = MlpParams(w1=Tensor(np.eye(2)), b1=Tensor(np.zeros(2)),
                                w2=Tensor(np.eye(2)), b2=Tensor(np.zeros(2)))
        out = gin_forward(Tensor(g.node_features), batch_graphs([g]), params)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-15)

    def test_two_node_sum_before_mlp(self):
        # closed-neighbourhood sums are [1 + 2] = [3] for both nodes
        g = MolecularGraph(2, [(0, 1)], np.array([[1.0], [2.0]]), graph_label=0)
        params = MlpParams(w1=Tensor(np.eye(1)), b1=Tensor(np.zeros(1)),
                                w2=Tensor(np.eye(1)), b2=Tensor(np.zeros(1)))
        out = gin_forward(Tensor(g.node_features), batch_graphs([g]), params)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)

    def test_aggregation_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)), 3)
            # identity MLP on positive sums exposes the raw aggregation
            feats = np.abs(g.node_features) + 0.1
            params = MlpParams(w1=Tensor(np.eye(3)), b1=Tensor(np.zeros(3)),
                                    w2=Tensor(np.eye(3)), b2=Tensor(np.zeros(3)))
            got = gin_forward(Tensor(feats), batch_graphs([g]), params).data
            np.testing.assert_allclose(got, dense_gin_sum_oracle(g, feats), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n, 4)
            params = rescale_weights(MlpParams.init(4, 6, 5, rng), 0.4)
            perm = rng.permutation(n)
            pg = permute_graph(g, perm)
            base = gin_forward(Tensor(g.node_features), batch_graphs([g]), params).data
            permuted = gin_forward(Tensor(pg.node_features), batch_graphs([pg]), params).data
            np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        g = random_graph(rng, 6, 3)
        params = rescale_weights(MlpParams.init(3, 4, 3, rng), 0.5)
        x = Tensor(g.node_features, requires_grad=True)
        batch = batch_graphs([g])

        def f():
            out = gin_forward(x, batch, params)
            return sum_all(mul(out, out))

        leaves = [x, params.w1, params.b1, params.w2, params.b2]
        assert grad_check(f, leaves, eps=1e-5) < 1e-6


def test_gin_row_count_mismatch_is_rejected():
    g = MolecularGraph(3, [(0, 1)], np.zeros((3, 2)), graph_label=0)
    params = MlpParams(w1=Tensor(np.eye(2)), b1=Tensor(np.zeros(2)),
                            w2=Tensor(np.eye(2)), b2=Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match=r"slot_matmul: 3-row matrix vs x \(2, 2\)"):
        gin_forward(Tensor(np.zeros((2, 2))), batch_graphs([g]), params)
