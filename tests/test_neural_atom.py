"""Neural-atom block tests.

``numpy_block_oracle`` re-derives the whole block (attention, norms,
allocation transport) with raw numpy so the library's graph of tape ops is
checked against an independent straight-line computation.
``per_head_block`` is the block run head by head and graph by graph: the
projection on projected node rows, the order the reassociated projection
avoids; the exchange as one dense attention per head and graph; the
backprojection through the transposed allocation.  It is built from tape
ops, so gradients are compared as well.
"""

import math

import numpy as np
import pytest

from neural_atoms import attention as attention_module
from neural_atoms.autodiff import (LAYER_NORM_EPS, GradTape, Tensor, backward, gather_rows,
                                   layer_norm, segment_attention, segment_pool,
                                   softmax_cross_entropy)
from neural_atoms.gnn import GcnLayerParams, gcn_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs, generate_lri_task
from neural_atoms import neural_atom as neural_atom_module
from neural_atoms.model import GraphPropertyModel, TrainConfig
from neural_atoms.neural_atom import (
    NeuralAtomLayerParams,
    enhance_segments,
    project_to_neural_atoms,
)
from helpers import (add, concat_cols, concat_rows, grad_check, head_weights, looped_projection,
                     matmul, mul, neural_atom_block, param_leaves, permute_graph,
                     rescale_weights, rows, scale, sum_all, transpose)
from test_autodiff import composed_affine, softmax_rows
from test_model import ragged_graphs


def path_graph(rng, n, dim):
    edges = [(i, i + 1) for i in range(n - 1)]
    return MolecularGraph(n, edges, rng.normal(size=(n, dim)), graph_label=0)


def np_attention(q, k, v, params):
    outs, weights = [], []
    for wq, wk, wv in head_weights(params):
        logits = (q @ wq.data) @ (k @ wk.data).T / math.sqrt(q.shape[1])
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        weights.append(w)
        outs.append(w @ (v @ wv.data))
    return np.concatenate(outs, axis=1) @ params.wo.data, weights


def np_layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYER_NORM_EPS) * gain + bias


def numpy_block_oracle(h_gnn, params):
    """The three steps, written straight-line in numpy."""
    mixed, head_w = np_attention(params.queries.data, h_gnn, h_gnn, params.project)
    atoms = np_layer_norm(params.queries.data + mixed,
                          params.project_norm.gain.data, params.project_norm.bias.data)
    mixed2, _ = np_attention(atoms, atoms, atoms, params.exchange)
    exchanged = np_layer_norm(atoms + mixed2,
                              params.exchange_norm.gain.data, params.exchange_norm.bias.data)
    allocation = (sum(head_w) / len(head_w)).T
    return h_gnn + allocation @ exchanged, atoms, exchanged, allocation


class TestSteps:
    def test_block_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, dim, k, heads = int(rng.integers(2, 12)), 6, int(rng.integers(1, 5)), 2
            h = rng.normal(size=(n, dim))
            params = NeuralAtomLayerParams.init(k, dim, heads, rng)
            enhanced, trace = neural_atom_block(
                Tensor(h), batch_graphs([path_graph(rng, n, dim)]), lambda t, b: t, params)
            want, atoms, exchanged, alloc = numpy_block_oracle(h, params)
            np.testing.assert_allclose(enhanced.data, want, atol=1e-12)
            np.testing.assert_allclose(trace.atom_states, atoms, atol=1e-12)
            np.testing.assert_allclose(trace.exchanged_states, exchanged, atol=1e-12)
            np.testing.assert_allclose(trace.node_allocation, alloc, atol=1e-12)

    def test_projection_allocations_are_row_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            params = NeuralAtomLayerParams.init(4, 5, 3, rng)
            _, weights = project_to_neural_atoms(Tensor(rng.normal(size=(n, 5)) * 3), params,
                                                 [0, n])
            assert weights.shape == (3 * 4, n)
            np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_projection_is_invariant_to_node_order(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(9, 6))
        params = NeuralAtomLayerParams.init(3, 6, 2, rng)
        atoms, _ = project_to_neural_atoms(Tensor(h), params, [0, 9])
        perm = rng.permutation(9)
        atoms_p, _ = project_to_neural_atoms(Tensor(h[perm]), params, [0, 9])
        np.testing.assert_allclose(atoms_p.data, atoms.data, atol=1e-10)

    def test_zero_value_and_output_paths_reduce_to_gnn(self):
        """With value/output projections and the exchange norm zeroed, the
        atom pathway contributes exactly nothing."""
        rng = np.random.default_rng(11)
        dim = 5
        g = path_graph(rng, 7, dim)
        params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        for attn in (params.project, params.exchange):
            for _, _, wv in head_weights(attn):
                wv.data[:] = 0.0
            attn.wo.data[:] = 0.0
        # zeroed value paths still leave norm(norm(queries)) in the atom
        # states, so the exchange norm's affine map is zeroed as well
        params.exchange_norm.gain.data[:] = 0.0
        params.exchange_norm.bias.data[:] = 0.0
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
        layer = lambda t, gr: gcn_forward(t, gr, gcn)
        batch = batch_graphs([g])
        enhanced, _ = neural_atom_block(Tensor(g.node_features), batch, layer, params)
        plain = gcn_forward(Tensor(g.node_features), batch, gcn)
        np.testing.assert_array_equal(enhanced.data, plain.data)


class TestBlock:
    def test_permutation_equivariance_and_atom_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, dim = int(rng.integers(2, 15)), 6
            g = path_graph(rng, n, dim)
            params = NeuralAtomLayerParams.init(3, dim, 2, rng)
            gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
            layer = lambda t, gr: gcn_forward(t, gr, gcn)
            base, trace = neural_atom_block(Tensor(g.node_features), batch_graphs([g]), layer,
                                            params)
            perm = rng.permutation(n)
            pg = permute_graph(g, perm)
            moved, trace_p = neural_atom_block(Tensor(pg.node_features), batch_graphs([pg]),
                                               layer, params)
            np.testing.assert_allclose(moved.data[perm], base.data, atol=1e-10)
            np.testing.assert_allclose(trace_p.atom_states, trace.atom_states, atol=1e-10)

    def test_single_block_couples_path_endpoints(self):
        """One block carries gradient across the whole path; one plain GCN
        layer provably cannot."""
        rng = np.random.default_rng(21)
        dim = 4
        g = path_graph(rng, 6, dim)
        params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.5)
        probe = Tensor(rng.normal(size=(1, dim)))
        batch = batch_graphs([g])

        x = Tensor(g.node_features, requires_grad=True)
        enhanced, _ = neural_atom_block(x, batch, lambda t, gr: gcn_forward(t, gr, gcn), params)
        backward(sum_all(mul(rows(enhanced, 5, 6), probe)))
        assert np.abs(x.grad[0]).max() > 1e-8

        y = Tensor(g.node_features, requires_grad=True)
        plain = gcn_forward(y, batch, gcn)
        backward(sum_all(mul(rows(plain, 5, 6), probe)))
        assert np.abs(y.grad[0]).max() == 0.0

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(2)
        dim = 5
        g = path_graph(rng, 6, dim)
        params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.5)
        x = Tensor(g.node_features)
        enhanced, _ = neural_atom_block(x, batch_graphs([g]),
                                        lambda t, gr: gcn_forward(t, gr, gcn), params)
        probe = Tensor(rng.normal(size=enhanced.shape))
        leaves = param_leaves(params) + [gcn.weight]
        backward(sum_all(mul(enhanced, probe)), params=leaves)
        for leaf in leaves:
            assert np.abs(leaf.grad).max() > 0.0

    def test_block_grad_check(self):
        rng = np.random.default_rng(6)
        dim = 4
        g = path_graph(rng, 5, dim)
        params = NeuralAtomLayerParams.init(2, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.5)
        x = Tensor(g.node_features)
        probe = Tensor(rng.normal(size=(5, dim)))
        batch = batch_graphs([g])

        def f():
            enhanced, _ = neural_atom_block(x, batch, lambda t, gr: gcn_forward(t, gr, gcn),
                                            params)
            return sum_all(mul(enhanced, probe))

        leaves = param_leaves(params) + [gcn.weight]
        assert grad_check(f, leaves, eps=1e-5) < 1e-5

    def test_trace_is_deterministic(self):
        rng = np.random.default_rng(9)
        dim = 5
        g = path_graph(rng, 8, dim)
        params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
        layer = lambda t, gr: gcn_forward(t, gr, gcn)
        _, first = neural_atom_block(Tensor(g.node_features), batch_graphs([g]), layer, params)
        _, second = neural_atom_block(Tensor(g.node_features), batch_graphs([g]), layer, params)
        assert np.array_equal(first.atom_states, second.atom_states)
        assert np.array_equal(first.exchanged_states, second.exchanged_states)
        assert np.array_equal(first.node_allocation, second.node_allocation)
        for a, b in zip(first.allocation_per_head, second.allocation_per_head):
            assert np.array_equal(a, b)


def ragged_batch(rng, dim):
    """Graphs of 1 to 8 nodes, some with fewer nodes than K = 4 atoms and
    some edgeless, in random order with at least one of each kind."""
    sizes = [1, 2, 7, 5] + [int(n) for n in rng.integers(1, 9, size=4)]
    graphs = []
    for i, n in enumerate(rng.permutation(sizes)):
        edgeless = i % 3 == 0
        edges = [] if edgeless else [(j, j + 1) for j in range(n - 1)]
        graphs.append(MolecularGraph(int(n), edges, rng.normal(size=(n, dim)), graph_label=0))
    return batch_graphs(graphs)


class TestBatchedBlock:
    """One block over a ragged batch against the same block graph by graph."""

    def test_batch_matches_numpy_oracle_graph_by_graph(self):
        rng = np.random.default_rng(30)
        dim = 6
        for _ in range(5):
            batch = ragged_batch(rng, dim)
            params = NeuralAtomLayerParams.init(4, dim, 2, rng)
            gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
            h = gcn_forward(Tensor(batch.node_features), batch, gcn)
            enhanced, traces = enhance_segments(h, batch.offsets, params)
            assert len(traces) == len(batch.graphs)
            for g, (graph, trace) in enumerate(zip(batch.graphs, traces)):
                lo, hi = batch.offsets[g], batch.offsets[g + 1]
                h_g = gcn_forward(Tensor(graph.node_features), batch_graphs([graph]), gcn).data
                want, atoms, exchanged, alloc = numpy_block_oracle(h_g, params)
                np.testing.assert_allclose(enhanced.data[lo:hi], want, rtol=0, atol=1e-10)
                np.testing.assert_allclose(trace.atom_states, atoms, rtol=0, atol=1e-10)
                np.testing.assert_allclose(trace.exchanged_states, exchanged, rtol=0, atol=1e-10)
                np.testing.assert_allclose(trace.node_allocation, alloc, rtol=0, atol=1e-10)
                for w in trace.allocation_per_head:
                    assert w.shape == (4, graph.num_nodes)
                    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_batch_gradients_match_per_graph_blocks(self):
        rng = np.random.default_rng(31)
        dim = 5
        batch = ragged_batch(rng, dim)
        params = NeuralAtomLayerParams.init(4, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
        probe = rng.normal(size=(batch.total_nodes, dim))
        leaves = param_leaves(params) + [gcn.weight]

        h = gcn_forward(Tensor(batch.node_features), batch, gcn)
        enhanced, _ = enhance_segments(h, batch.offsets, params)
        backward(sum_all(mul(enhanced, Tensor(probe))), params=leaves)
        batched = [leaf.grad.copy() for leaf in leaves]

        summed = [np.zeros_like(leaf.data) for leaf in leaves]
        for g, graph in enumerate(batch.graphs):
            lo, hi = batch.offsets[g], batch.offsets[g + 1]
            out, _ = neural_atom_block(Tensor(graph.node_features), batch_graphs([graph]),
                                       lambda t, gr: gcn_forward(t, gr, gcn), params)
            backward(sum_all(mul(out, Tensor(probe[lo:hi]))), params=leaves)
            for acc, leaf in zip(summed, leaves):
                acc += leaf.grad
        for got, want in zip(batched, summed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_equal_size_batch_matches_graph_by_graph(self):
        # all segments of one length: the ops' padded view is a plain reshape
        rng = np.random.default_rng(33)
        dim = 6
        batch = batch_graphs([path_graph(rng, 20, dim) for _ in range(8)])
        params = NeuralAtomLayerParams.init(4, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.4)
        probe = rng.normal(size=(batch.total_nodes, dim))
        leaves = param_leaves(params) + [gcn.weight]

        h = gcn_forward(Tensor(batch.node_features), batch, gcn)
        enhanced, traces = enhance_segments(h, batch.offsets, params)
        backward(sum_all(mul(enhanced, Tensor(probe))), params=leaves)
        batched = [leaf.grad.copy() for leaf in leaves]

        summed = [np.zeros_like(leaf.data) for leaf in leaves]
        for g, (graph, trace) in enumerate(zip(batch.graphs, traces)):
            lo, hi = batch.offsets[g], batch.offsets[g + 1]
            alone = batch_graphs([graph])
            h_g = gcn_forward(Tensor(graph.node_features), alone, gcn).data
            want, atoms, exchanged, alloc = numpy_block_oracle(h_g, params)
            np.testing.assert_allclose(enhanced.data[lo:hi], want, rtol=0, atol=1e-10)
            np.testing.assert_allclose(trace.atom_states, atoms, rtol=0, atol=1e-10)
            np.testing.assert_allclose(trace.exchanged_states, exchanged, rtol=0, atol=1e-10)
            np.testing.assert_allclose(trace.node_allocation, alloc, rtol=0, atol=1e-10)
            out, _ = neural_atom_block(Tensor(graph.node_features), alone,
                                       lambda t, gr: gcn_forward(t, gr, gcn), params)
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-10)
            backward(sum_all(mul(out, Tensor(probe[lo:hi]))), params=leaves)
            for acc, leaf in zip(summed, leaves):
                acc += leaf.grad
        for got, want in zip(batched, summed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_batch_block_grad_check(self):
        rng = np.random.default_rng(32)
        dim = 3
        graphs = [MolecularGraph(1, [], rng.normal(size=(1, dim))),
                  MolecularGraph(3, [], rng.normal(size=(3, dim))),
                  path_graph(rng, 4, dim)]
        batch = batch_graphs(graphs)
        params = NeuralAtomLayerParams.init(4, dim, 2, rng)
        gcn = rescale_weights(GcnLayerParams.init(dim, dim, rng), 0.5)
        x = Tensor(batch.node_features, requires_grad=True)
        probe = Tensor(rng.normal(size=(batch.total_nodes, dim)))

        def f():
            h = gcn_forward(x, batch, gcn)
            enhanced, _ = enhance_segments(h, batch.offsets, params)
            return sum_all(mul(enhanced, probe))

        assert grad_check(f, param_leaves(params) + [gcn.weight, x], eps=1e-5) < 1e-5


class TestBatchTrace:
    """One trace per block call, holding the batch's results; ``trace[b]`` is
    graph b's part of them."""

    def test_length_and_bounds(self):
        rng = np.random.default_rng(34)
        batch = ragged_batch(rng, 5)
        params = NeuralAtomLayerParams.init(4, 5, 2, rng)
        _, trace = enhance_segments(Tensor(batch.node_features), batch.offsets, params)
        assert len(trace) == len(batch.graphs) == len(list(trace))
        for b in (-1, len(batch.graphs)):
            with pytest.raises(IndexError):
                trace[b]

    @pytest.mark.parametrize("layout", ["ragged", "paths"])
    def test_writes_through_a_trace_raise_and_leave_the_gradient(self, layout):
        # on graphs of one size the allocations view the softmax the backward reads
        rng = np.random.default_rng(36)
        batch = (ragged_batch(rng, 5) if layout == "ragged"
                 else batch_graphs([path_graph(rng, 5, 5) for _ in range(4)]))
        params = NeuralAtomLayerParams.init(4, 5, 2, rng)
        h = Tensor(batch.node_features, requires_grad=True)
        enhanced, trace = enhance_segments(h, batch.offsets, params)
        # trace[b] makes offsets of its own; the batch's are a view of the caller's array
        names = ("atom_states", "exchanged_states", "allocations")
        parts = (trace, trace[0], trace[len(trace) - 1])
        writes = [(trace, "offsets")] + [(part, name) for part in parts for name in names]
        for part, name in writes:
            with pytest.raises(ValueError, match="read-only"):
                getattr(part, name)[...] *= 0.5
        assert batch.offsets.flags.writeable
        leaves = param_leaves(params) + [h]
        backward(sum_all(enhanced), leaves)
        got = [t.grad.copy() for t in leaves]
        backward(sum_all(enhance_segments(h, batch.offsets, params)[0]), leaves)
        for grad, t in zip(got, leaves):
            assert np.array_equal(grad, t.grad)

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_graph_traces_are_views_equal_to_the_block_alone(self, heads):
        rng = np.random.default_rng(35 + heads)
        dim = 5
        batch = ragged_batch(rng, dim)
        params = NeuralAtomLayerParams.init(4, dim, heads, rng)
        _, trace = enhance_segments(Tensor(batch.node_features), batch.offsets, params)
        assert trace.allocations.shape == (heads * 4, batch.total_nodes)
        for b, graph in enumerate(batch.graphs):
            part = trace[b]
            assert part.offsets.tolist() == [0, graph.num_nodes] and len(part) == 1
            for name in ("atom_states", "exchanged_states", "allocations"):
                assert np.shares_memory(getattr(part, name), getattr(trace, name)), name
            _, alone = enhance_segments(Tensor(graph.node_features), [0, graph.num_nodes],
                                        params)
            for name in ("atom_states", "exchanged_states", "allocations"):
                np.testing.assert_allclose(getattr(part, name), getattr(alone, name),
                                           rtol=0, atol=1e-10, err_msg=name)
            assert part.node_allocation.shape == (graph.num_nodes, 4)
            assert len(part.allocation_per_head) == heads


def per_head_projection(h_nodes, params, offsets):
    """The projection with every head multiplying the N node rows by its own
    key and value weights before it attends and pools."""
    attn = params.project
    outputs, weights = [], []
    for wq, wk, wv in head_weights(attn):
        w = segment_attention(matmul(params.queries, wq), matmul(h_nodes, wk), offsets)
        outputs.append(segment_pool(w, matmul(h_nodes, wv), offsets))
        weights.append(w)
    tiled = np.tile(np.arange(params.num_atoms), len(offsets) - 1)
    queries = gather_rows(params.queries, tiled[:, None])
    atoms = layer_norm(add(queries, matmul(concat_cols(outputs), attn.wo)),
                       params.project_norm.gain, params.project_norm.bias)
    return atoms, weights


def per_head_exchange(atoms, params):
    """Each head projects the atom rows by its own W_q, W_k and W_v, then
    every graph's K atoms attend densely among themselves."""
    attn, k = params.exchange, params.num_atoms
    inv_scale = 1.0 / math.sqrt(attn.qkv.shape[0])
    outputs = []
    for wq, wk, wv in head_weights(attn):
        q, key, v = matmul(atoms, wq), matmul(atoms, wk), matmul(atoms, wv)
        blocks = []
        for lo in range(0, atoms.shape[0], k):
            logits = matmul(rows(q, lo, lo + k), transpose(rows(key, lo, lo + k)))
            blocks.append(matmul(softmax_rows(scale(logits, inv_scale)), rows(v, lo, lo + k)))
        outputs.append(concat_rows(blocks))
    mixed = matmul(concat_cols(outputs), attn.wo)
    return layer_norm(add(atoms, mixed), params.exchange_norm.gain, params.exchange_norm.bias)


def per_graph_backprojection(h_nodes, exchanged, weights, offsets):
    """The head-mean allocation transposed to (N, K), one product per graph."""
    total = weights[0]
    for w in weights[1:]:
        total = add(total, w)
    allocation = transpose(scale(total, 1.0 / len(weights)))
    k = weights[0].shape[0]
    spread = [matmul(rows(allocation, lo, hi), rows(exchanged, b * k, (b + 1) * k))
              for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))]
    return add(h_nodes, concat_rows(spread))


def per_head_block(h_nodes, params, offsets):
    atoms, weights = per_head_projection(h_nodes, params, offsets)
    exchanged = per_head_exchange(atoms, params)
    enhanced = per_graph_backprojection(h_nodes, exchanged, weights, offsets)
    return enhanced, atoms, exchanged, weights


def oracle_batch(layout, rng, dim):
    """(batch, K): ragged with a 1-node and an edgeless graph (two such
    batches), eight 20-node paths, or three graphs with fewer nodes in total
    than K atoms."""
    if layout == "ragged":
        return ragged_batch(rng, dim), 4
    if layout == "ragged_graphs":
        return batch_graphs(ragged_graphs(dim)), 4
    if layout == "paths":
        return batch_graphs([path_graph(rng, 20, dim) for _ in range(8)]), 4
    graphs = [MolecularGraph(n, [], rng.normal(size=(n, dim)), graph_label=0) for n in (2, 1, 3)]
    return batch_graphs(graphs), 8


class TestReassociatedProjection:
    """The block against ``per_head_block``: same outputs, traces and gradients."""

    @pytest.mark.parametrize("layout", ["ragged", "ragged_graphs", "paths", "k_exceeds_n"])
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_matches_per_head_projection(self, heads, layout):
        rng = np.random.default_rng(60 + heads)
        dim = 6
        batch, k = oracle_batch(layout, rng, dim)
        offsets = batch.offsets
        params = NeuralAtomLayerParams.init(k, dim, heads, rng)
        h = Tensor(rng.normal(size=(batch.total_nodes, dim)), requires_grad=True)
        probe = Tensor(rng.normal(size=h.shape))
        leaves = param_leaves(params) + [h]

        _, weights = project_to_neural_atoms(h, params, offsets)
        assert weights.shape == (heads * k, batch.total_nodes) and weights.requires_grad

        enhanced, traces = enhance_segments(h, offsets, params)
        backward(sum_all(mul(enhanced, probe)), params=leaves)
        got = [leaf.grad.copy() for leaf in leaves]
        want, atoms, exchanged, weights = per_head_block(h, params, offsets)
        backward(sum_all(mul(want, probe)), params=leaves)

        np.testing.assert_allclose(enhanced.data, want.data, rtol=0, atol=1e-10)
        for b, trace in enumerate(traces):
            lo, hi = offsets[b], offsets[b + 1]
            np.testing.assert_allclose(trace.atom_states, atoms.data[b * k:(b + 1) * k],
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(trace.exchanged_states, exchanged.data[b * k:(b + 1) * k],
                                       rtol=0, atol=1e-10)
            heads_b = [w.data[:, lo:hi] for w in weights]
            for got_w, want_w in zip(trace.allocation_per_head, heads_b, strict=True):
                np.testing.assert_allclose(got_w, want_w, rtol=0, atol=1e-10)
            np.testing.assert_allclose(trace.node_allocation, (sum(heads_b) / heads).T,
                                       rtol=0, atol=1e-10)
        for grad, leaf in zip(got, leaves):
            np.testing.assert_allclose(grad, leaf.grad, rtol=0, atol=1e-10)

    def test_block_grad_check_at_three_heads(self):
        rng = np.random.default_rng(64)
        dim = 3
        batch = batch_graphs([MolecularGraph(1, [], rng.normal(size=(1, dim))),
                              MolecularGraph(3, [], rng.normal(size=(3, dim))),
                              path_graph(rng, 4, dim)])
        params = NeuralAtomLayerParams.init(4, dim, 3, rng)
        h = Tensor(rng.normal(size=(batch.total_nodes, dim)), requires_grad=True)
        probe = Tensor(rng.normal(size=h.shape))

        def f():
            enhanced, _ = enhance_segments(h, batch.offsets, params)
            return sum_all(mul(enhanced, probe))

        assert grad_check(f, param_leaves(params) + [h], eps=1e-5) < 1e-5

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_no_matmul_multiplies_the_node_rows(self, heads):
        # N = 160 differs from d, K, B * K and H * d, so only node rows have N rows
        rng = np.random.default_rng(65)
        dim = 6
        batch = batch_graphs([path_graph(rng, 20, dim) for _ in range(8)])
        params = NeuralAtomLayerParams.init(4, dim, heads, rng)
        h = Tensor(rng.normal(size=(batch.total_nodes, dim)), requires_grad=True)

        def node_row_products(out, name):
            entries = GradTape.trace(sum_all(out)).entries
            products = [e for e in entries if e.name == name]
            assert products
            return [e for e in products if any(t.shape[0] == batch.total_nodes for t in e.inputs)]

        enhanced, _ = enhance_segments(h, batch.offsets, params)
        assert node_row_products(enhanced, "affine") == []
        # the head-by-head order multiplies them twice per head
        per_head = per_head_block(h, params, batch.offsets)[0]
        assert len(node_row_products(per_head, "matmul")) == 2 * heads

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_tape_entries_per_lri_batch(self, heads):
        """The whole training tape of one 64-graph batch of 20-node paths, the
        same at every head count."""
        graphs = generate_lri_task(64, 20, 4, seed=1)
        cfg = TrainConfig(dataset="unused", out="unused", augment="neural-atoms",
                          layers=3, hidden=32, heads=heads)
        model = GraphPropertyModel(cfg, graphs[0].feature_dim, 2, 20.0)
        assert model.k_counts == [4, 4, 4]
        logits = model.forward(batch_graphs(graphs)).graph_outputs
        loss = softmax_cross_entropy(logits, np.array([g.graph_label for g in graphs]))
        assert len(GradTape.trace(loss).entries) <= 44


class TestHeadProductsAsSegments:
    """The model against itself with ``looped_projection``: the heads' weight
    products as one ``segment_pool`` each give the same logits, traces and
    gradients, bar the last bits of the atom queries' gradient."""

    @pytest.mark.parametrize("layout", ["paths", "ragged"])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_matches_looped_projection(self, heads, layout, monkeypatch):
        # 64 equal 20-node paths, or chains, a 1-node and an edgeless graph
        graphs = generate_lri_task(64, 20, 4, seed=1) if layout == "paths" else ragged_graphs(5)
        cfg = TrainConfig(dataset="unused", out="unused", augment="neural-atoms",
                          layers=3, hidden=32, heads=heads)
        batch = batch_graphs(graphs)
        labels = np.array([g.graph_label for g in graphs])

        def run():
            model = GraphPropertyModel(cfg, graphs[0].feature_dim, 2, 20.0)
            out = model.forward(batch, collect_traces=True)
            backward(softmax_cross_entropy(out.graph_outputs, labels), model.tensors())
            return out, {name: t.grad.copy() for name, t in model.parameters()}

        folded, folded_grads = run()
        monkeypatch.setattr(neural_atom_module, "project_to_neural_atoms", looped_projection)
        looped, looped_grads = run()

        assert np.array_equal(folded.graph_outputs.data, looped.graph_outputs.data)
        for got_layer, want_layer in zip(folded.traces, looped.traces, strict=True):
            for got, want in zip(got_layer, want_layer, strict=True):
                assert np.array_equal(got.atom_states, want.atom_states)
                assert np.array_equal(got.node_allocation, want.node_allocation)
                for got_w, want_w in zip(got.allocation_per_head, want.allocation_per_head,
                                         strict=True):
                    assert np.array_equal(got_w, want_w)
        assert folded_grads.keys() == looped_grads.keys()
        for name, want in looped_grads.items():
            got = folded_grads[name]
            if name.endswith(".atoms.queries"):
                # one (K, d)(d, H * d) product sums the heads' query gradients inside BLAS
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name
            else:
                assert np.array_equal(got, want), name


class TestResidualsInsideAffine:
    """The projection's tiled queries and the exchange's residual as the bias of
    one ``affine`` each, against ``gather_rows``, ``matmul`` and ``add``
    recorded apart: the same logits, traces and gradients, bit for bit."""

    def test_matches_composed_path_on_a_ragged_batch(self, monkeypatch):
        graphs = ragged_graphs(5)
        cfg = TrainConfig(dataset="unused", out="unused", augment="neural-atoms",
                          layers=3, hidden=32, heads=3)
        batch = batch_graphs(graphs)
        labels = np.array([g.graph_label for g in graphs])

        def run():
            model = GraphPropertyModel(cfg, graphs[0].feature_dim, 2, 20.0)
            out = model.forward(batch, collect_traces=True)
            loss = softmax_cross_entropy(out.graph_outputs, labels)
            backward(loss, model.tensors())
            names = [e.name for e in GradTape.trace(loss).entries]
            return out, {name: t.grad.copy() for name, t in model.parameters()}, names

        fused, fused_grads, fused_names = run()
        for module in (attention_module, neural_atom_module):
            monkeypatch.setattr(module, "affine", composed_affine)
        composed, composed_grads, composed_names = run()

        assert "gather_rows" not in fused_names and composed_names.count("gather_rows") == 3
        assert len(composed_names) - len(fused_names) == 3 * 3
        assert np.array_equal(fused.graph_outputs.data, composed.graph_outputs.data)
        for got_layer, want_layer in zip(fused.traces, composed.traces, strict=True):
            for got, want in zip(got_layer, want_layer, strict=True):
                assert np.array_equal(got.atom_states, want.atom_states)
                assert np.array_equal(got.exchanged_states, want.exchanged_states)
                assert np.array_equal(got.node_allocation, want.node_allocation)
        assert fused_grads.keys() == composed_grads.keys()
        for name, want in composed_grads.items():
            assert np.array_equal(fused_grads[name], want), name
