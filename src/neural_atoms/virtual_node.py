"""Virtual-node layer: global states that pool and re-broadcast each layer.

The comparison baseline for the neural-atom block.  Each graph gets V extra
nodes that receive the mean of the graph's node states, update through a
small shared MLP, and are added back to every node identically.  Because the
broadcast is the same for every node it cannot express node-specific
long-range routing, which is the behaviour the neural-atom tests contrast
against.

The round runs on a whole batch at once in the segment layout of
:mod:`neural_atoms.autodiff`: the node rows of B graphs are consecutive
segments delimited by ``offsets``, and graph b's V states are rows
b*V:(b+1)*V of a (B * V, d) stack.  A state only ever sees its own graph.
Segment ops alone carry the round: ``segment_mean`` adds the graph's node
mean onto each state, ``segment_broadcast`` adds the mean of the graph's
other states when V > 1, and ``segment_expand`` adds the sum of a graph's
updated states onto each of its nodes.
The update MLP is the GIN layer's :func:`neural_atoms.gnn.mlp`, mapping d to d.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, segment_broadcast, segment_expand, segment_mean
from .gnn import MlpParams, mlp


def multi_virtual_node_layer(h: Tensor, vstates: Tensor, params: MlpParams,
                             offsets: np.ndarray) -> tuple[Tensor, Tensor]:
    """One round of V fully connected virtual nodes per graph, sharing one update MLP.

    Each state sees its graph's node mean plus the mean of its graph's other
    states, and every updated state is added onto each node of its graph.
    ``h`` is (N, d), split into graphs by ``offsets``, and ``vstates``
    (B * V, d).  Returns the enhanced node states and the updated
    (B * V, d) states.
    """
    incoming = segment_mean(h, offsets, vstates)
    num_graphs = len(offsets) - 1
    count = vstates.shape[0] // num_graphs
    if count > 1:
        # each group of V states is a segment; a state takes 1/(V - 1) of each other one
        others = np.tile((1.0 - np.eye(count)) / (count - 1), num_graphs)   # (V, B * V)
        incoming = segment_broadcast(Tensor(others), vstates,
                                     np.arange(0, vstates.shape[0] + 1, count), incoming)
    new_states = mlp(incoming, params)
    return segment_expand(new_states, offsets, h), new_states
