"""Helpers shared by the test files: reference forms the package itself never calls."""

from collections.abc import Callable

import numpy as np

from neural_atoms.autodiff import Tensor
from neural_atoms.graphs import GraphError, MolecularGraph
from neural_atoms.neural_atom import NeuralAtomLayerParams, NeuralAtomTrace, enhance_segments


def neural_atom_block(h_prev: Tensor, graph: MolecularGraph,
                      gnn_layer: Callable[[Tensor, MolecularGraph], Tensor],
                      params: NeuralAtomLayerParams) -> tuple[Tensor, NeuralAtomTrace]:
    """One full block on one graph: message passing, then the three neural-atom steps.

    The graph is a batch of one segment, so this is the batched block of the
    model run on a single graph.
    """
    h = gnn_layer(h_prev, graph)
    enhanced, traces = enhance_segments(h, np.array([0, h.shape[0]]), params)
    return enhanced, traces[0]


def permute_graph(graph: MolecularGraph, perm) -> MolecularGraph:
    """Relabel nodes so old node ``i`` becomes new node ``perm[i]``."""
    p = [int(i) for i in perm]
    if sorted(p) != list(range(graph.num_nodes)):
        raise GraphError(f"perm is not a bijection over {graph.num_nodes} nodes")
    feats = np.empty_like(graph.node_features)
    feats[p] = graph.node_features
    edges = [(p[u], p[v]) for u, v in graph.edges]
    pairs = None
    if graph.pair_labels is not None:
        pairs = [(p[u], p[v], hit) for u, v, hit in graph.pair_labels]
    label = graph.graph_label
    if isinstance(label, np.ndarray):
        label = label.copy()
    return MolecularGraph(graph.num_nodes, edges, feats, label, pairs)
