"""The neural-atom block: project, exchange, backproject.

A block takes the node states produced by one message-passing layer and
routes them through a small set of learnable "neural atoms":

1. cross-attention from the atom queries onto the nodes groups every node
   softly into atoms (an information bottleneck of K slots),
2. self-attention among the atoms exchanges information globally in one hop,
3. the head-averaged (K, N) allocation matrix carries the exchanged atom
   states back onto the nodes, as the adjoint of the pooling in step 1, and
   the nodes are enhanced additively.

Because step 3 reuses the attention weights from step 1, any two nodes can
trade information through a shared atom regardless of their graph distance,
while the per-layer cost stays linear in the node count for fixed K.

The block runs on a whole batch at once in the segment layout of
:mod:`neural_atoms.autodiff`: the node rows of B graphs are stacked as
consecutive segments delimited by ``offsets``, and graph b's K atom states
are rows b*K:(b+1)*K of a (B * K, d) stack.  Atoms only ever see the nodes
of their own graph; a single graph is a batch of one segment.  The
projection's weights multiply the K queries and the B * K pooled rows, never
the N node rows, so only the segment ops grow with N.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .attention import MultiHeadParams, multi_head_attention
from .autodiff import (Tensor, add, concat_rows, gather_rows, layer_norm, matmul, parameter,
                       rows, scale, segment_attention, segment_broadcast, segment_pool,
                       transpose)
from .files import replacing

LAYER_NORM_EPS = 1e-5
QUERY_INIT_STD = 0.02


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def init(cls, dim: int) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(dim), requires_grad=True),
                   bias=Tensor(np.zeros(dim), requires_grad=True))

    def tensors(self) -> list[Tensor]:
        return [self.gain, self.bias]


@dataclass
class NeuralAtomLayerParams:
    """Everything one block owns: atom queries, two attentions, two norms."""

    queries: Tensor
    project_attention: MultiHeadParams
    exchange_attention: MultiHeadParams
    project_norm: LayerNormParams
    exchange_norm: LayerNormParams

    @property
    def num_atoms(self) -> int:
        return self.queries.shape[0]

    @classmethod
    def init(cls, num_atoms: int, dim: int, heads: int,
             rng: np.random.Generator) -> "NeuralAtomLayerParams":
        if num_atoms < 1:
            raise ValueError("a block needs at least one neural atom")
        return cls(
            queries=parameter(rng, (num_atoms, dim), QUERY_INIT_STD),
            project_attention=MultiHeadParams.init(heads, dim, dim, dim, rng),
            exchange_attention=MultiHeadParams.init(heads, dim, dim, dim, rng),
            project_norm=LayerNormParams.init(dim),
            exchange_norm=LayerNormParams.init(dim),
        )

    def tensors(self) -> list[Tensor]:
        return [self.queries,
                *self.project_attention.tensors(), *self.exchange_attention.tensors(),
                *self.project_norm.tensors(), *self.exchange_norm.tensors()]


@dataclass
class NeuralAtomTrace:
    """Detached intermediates of one block application, for inspection/export."""

    atom_states: np.ndarray            # K x d, after projection
    exchanged_states: np.ndarray       # K x d, after atom self-attention
    allocation_per_head: list[np.ndarray]  # each K x N, rows sum to 1
    node_allocation: np.ndarray        # N x K, head mean transposed


def _offsets_or_whole(h_nodes: Tensor, offsets: np.ndarray | None) -> np.ndarray:
    """``offsets`` as given, or a single segment covering every row."""
    return np.array([0, h_nodes.shape[0]]) if offsets is None else np.asarray(offsets)


def project_to_neural_atoms(h_nodes: Tensor, params: NeuralAtomLayerParams,
                            offsets: np.ndarray | None = None
                            ) -> tuple[Tensor, list[Tensor]]:
    """Attend from the atom queries onto the nodes; returns atom states and
    the per-head allocation matrices.

    With ``offsets`` the nodes form one segment per graph: the atom states
    come back as a (B * K, d) stack and each head's (K, N) allocation is
    row-stochastic within every graph's column block.  The atoms see the
    nodes only through attention, so the result is invariant under any
    relabeling of the nodes.

    No weight multiplies the N node rows.  Head m's logits
    (q W_q,m)(h W_k,m)^T are (q W_q,m W_k,m^T) h^T, and its output
    (A_m h W_v,m) W_o,m, with W_o,m its rows of W_o, is (A_m h)(W_v,m W_o,m):
    the K effective queries of all heads attend to the raw nodes in one
    call, one pooling serves all heads, and the B * K pooled rows meet the
    stacked W_v,m W_o,m.  Products are associative, so this is exact up to
    rounding.
    """
    offsets = _offsets_or_whole(h_nodes, offsets)
    attn, k, d = params.project_attention, params.num_atoms, params.queries.shape[1]
    # (H * K, d) effective queries; (B * K, H * d) pooled nodes; (H * d, d) mix
    queries = concat_rows([matmul(matmul(params.queries, wq), transpose(wk))
                           for wq, wk in zip(attn.query_weights, attn.key_weights)])
    weights = segment_attention(queries, h_nodes, offsets, d ** -0.5)
    pooled = segment_pool(weights, h_nodes, offsets, heads=attn.heads)
    mix = concat_rows([matmul(wv, rows(attn.output_weight, m * d, (m + 1) * d))
                       for m, wv in enumerate(attn.value_weights)])
    stacked = gather_rows(params.queries, np.tile(np.arange(k), len(offsets) - 1))
    atoms = layer_norm(add(stacked, matmul(pooled, mix)),
                       params.project_norm.gain, params.project_norm.bias, LAYER_NORM_EPS)
    return atoms, [rows(weights, m * k, (m + 1) * k) for m in range(attn.heads)]


def exchange_neural_atoms(h_atoms: Tensor, params: NeuralAtomLayerParams) -> Tensor:
    """Self-attention among the atoms: every atom reads every other atom of
    its own graph in one hop."""
    attended = multi_head_attention(h_atoms, params.exchange_attention, params.num_atoms)
    return layer_norm(add(h_atoms, attended),
                      params.exchange_norm.gain, params.exchange_norm.bias, LAYER_NORM_EPS)


def aggregate_allocations(per_head_weights: list[Tensor]) -> Tensor:
    """Head-mean of the K x N allocation maps."""
    total = per_head_weights[0]
    for w in per_head_weights[1:]:
        total = add(total, w)
    return scale(total, 1.0 / len(per_head_weights))


def backproject_and_enhance(h_nodes: Tensor, exchanged: Tensor,
                            per_head_weights: list[Tensor],
                            offsets: np.ndarray | None = None) -> Tensor:
    """Carry exchanged atom states back to the nodes and add them on.

    The transport map is the head-averaged allocation from the projection
    step, so gradients flow through the attention weights themselves as
    well as through the atom states.  Each node draws only on its own
    graph's atoms.
    """
    allocation = aggregate_allocations(per_head_weights)
    offsets = _offsets_or_whole(h_nodes, offsets)
    return add(h_nodes, segment_broadcast(allocation, exchanged, offsets))


def enhance_segments(h_gnn: Tensor, offsets: np.ndarray, params: NeuralAtomLayerParams,
                     want_trace: bool = True
                     ) -> tuple[Tensor, list[NeuralAtomTrace] | None]:
    """The three neural-atom steps on a batch of message-passed node states.

    Returns the enhanced nodes and, unless ``want_trace`` is False (the
    hot path skips the detached copies), one trace per graph.
    """
    offsets = np.asarray(offsets)
    atoms, head_weights = project_to_neural_atoms(h_gnn, params, offsets)
    exchanged = exchange_neural_atoms(atoms, params)
    enhanced = backproject_and_enhance(h_gnn, exchanged, head_weights, offsets)
    if not want_trace:
        return enhanced, None

    k = params.num_atoms
    traces = []
    for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        heads = [w.data[:, lo:hi].copy() for w in head_weights]
        traces.append(NeuralAtomTrace(
            atom_states=atoms.data[b * k:(b + 1) * k].copy(),
            exchanged_states=exchanged.data[b * k:(b + 1) * k].copy(),
            allocation_per_head=heads,
            node_allocation=(sum(heads) / len(heads)).T.copy(),
        ))
    return enhanced, traces


def write_allocation_csv(node_allocation: np.ndarray, path) -> None:
    """One row per node, one column per neural atom, float values as repr.

    The file takes the place of ``path`` only once every row is written.
    """
    n_atoms = node_allocation.shape[1]
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + [f"atom_{j}" for j in range(n_atoms)])
        for i, row in enumerate(node_allocation):
            writer.writerow([i] + [repr(float(v)) for v in row])
