"""The neural-atom block: project, exchange, backproject.

A block takes the node states produced by one message-passing layer and
routes them through a small set of learnable "neural atoms":

1. cross-attention from the atom queries onto the nodes groups every node
   softly into atoms (an information bottleneck of K slots); the heads'
   weight products run as one ``segment_pool`` each over head blocks, W_k^T
   as a transposed view of its weights, so no step loops over the heads,
2. self-attention among the atoms exchanges information globally in one hop,
   and the atoms keep their own states through a residual,
3. the mean of the heads' (K, N) allocation matrices carries the exchanged
   atom states back onto the nodes, as the adjoint of the pooling in step 1,
   and the nodes are enhanced additively; ``segment_broadcast`` takes the
   head mean itself and adds the nodes in, so neither the per-head matrices
   nor the enhancement become tape ops.

Because step 3 reuses the attention weights from step 1, any two nodes can
trade information through a shared atom regardless of their graph distance,
while the per-layer cost stays linear in the node count for fixed K.

The block runs on a whole batch at once in the segment layout of
:mod:`neural_atoms.autodiff`: the node rows of B graphs are stacked as
consecutive segments delimited by ``offsets``, and graph b's K atom states
are rows b*K:(b+1)*K of a (B * K, d) stack.  Atoms only ever see the nodes
of their own graph; a single graph is a batch of one segment.  The
projection's weights multiply the K queries and the B * K pooled rows, never
the N node rows, so only the segment ops grow with N.  The residuals of steps
1 and 2 are the bias of the ``affine`` that mixes the heads: the (K, d)
queries repeat down the B graphs' rows and the exchange adds its input, so
neither is a tape op of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import MultiHeadParams, multi_head_attention
from .autodiff import (Tensor, affine, layer_norm, parameter, segment_attention,
                       segment_broadcast, segment_pool, view)

QUERY_INIT_STD = 0.02


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def init(cls, dim: int) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(dim), requires_grad=True),
                   bias=Tensor(np.zeros(dim), requires_grad=True))


@dataclass
class NeuralAtomLayerParams:
    """Everything one block owns: atom queries, two attentions, two norms."""

    queries: Tensor
    project: MultiHeadParams
    exchange: MultiHeadParams
    project_norm: LayerNormParams
    exchange_norm: LayerNormParams

    @property
    def num_atoms(self) -> int:
        return self.queries.shape[0]

    @classmethod
    def init(cls, num_atoms: int, dim: int, heads: int,
             rng: np.random.Generator) -> "NeuralAtomLayerParams":
        return cls(
            queries=parameter(rng, (num_atoms, dim), QUERY_INIT_STD),
            project=MultiHeadParams.init(heads, dim, rng),
            exchange=MultiHeadParams.init(heads, dim, rng),
            project_norm=LayerNormParams.init(dim),
            exchange_norm=LayerNormParams.init(dim),
        )


@dataclass
class NeuralAtomTrace:
    """One block's detached results on a batch of B graphs, as read-only views, not copies.

    ``len(trace)`` is B; ``trace[b]`` is graph b's trace, of views, with offsets [0, n_b]."""

    offsets: np.ndarray            # B + 1 segment bounds over the N nodes
    atom_states: np.ndarray        # B * K x d, after projection
    exchanged_states: np.ndarray   # B * K x d, after atom self-attention
    allocations: np.ndarray        # H * K x N, head m in rows m*K:(m+1)*K

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, b: int) -> "NeuralAtomTrace":
        if not 0 <= b < len(self):
            raise IndexError(f"graph {b} outside 0..{len(self) - 1}")
        k, lo, hi = self.atom_states.shape[0] // len(self), self.offsets[b], self.offsets[b + 1]
        atoms = np.s_[b * k:(b + 1) * k]
        return NeuralAtomTrace(np.array([0, hi - lo]), self.atom_states[atoms],
                               self.exchanged_states[atoms], self.allocations[:, lo:hi])

    @property
    def allocation_per_head(self) -> list[np.ndarray]:
        """Each head's K x N allocation; its rows sum to 1 within each graph."""
        k = self.atom_states.shape[0] // len(self)
        return [self.allocations[m:m + k] for m in range(0, self.allocations.shape[0], k)]

    @property
    def node_allocation(self) -> np.ndarray:
        """The N x K head mean, transposed."""
        per_head = self.allocation_per_head
        return (sum(per_head) / len(per_head)).T


def project_to_neural_atoms(h_nodes: Tensor, params: NeuralAtomLayerParams,
                            offsets: np.ndarray) -> tuple[Tensor, Tensor]:
    """Attend from the atom queries onto the nodes; returns atom states and
    the (H * K, N) allocations, head m's (K, N) matrix in rows m*K:(m+1)*K.

    The nodes form one segment per graph of ``offsets``: the atom states
    come back as a (B * K, d) stack and each head's allocation is
    row-stochastic within every graph's column block.  The atoms see the
    nodes only through attention, so the result is invariant under any
    relabeling of the nodes.

    No weight multiplies the N node rows.  Head m's logits
    (q W_q,m)(h W_k,m)^T are (q W_q,m W_k,m^T) h^T, and its output
    (A_m h W_v,m) W_o,m, with W_o,m its rows of W_o, is (A_m h)(W_v,m W_o,m):
    the K effective queries of all heads attend to the raw nodes in one
    call, one pooling serves all heads, and the B * K pooled rows meet the
    stacked W_v,m W_o,m in one ``affine`` whose (K, d) bias adds graph b's
    queries to rows b*K:(b+1)*K as the residual.  Products are associative,
    so this is exact up to rounding.

    Both per-head products are one ``segment_pool`` each, with the heads'
    d-wide blocks as its segments: segment m of (q W_q) times W_k^T is
    q W_q,m W_k,m^T, and segment m of W_v times W_o is W_v,m W_o,m.  W_k^T
    is a transposed view of ``qkv``, so it records nothing, and the tape
    holds the same three entries for these products at any head count.
    """
    attn, d = params.project, params.queries.shape[1]
    width = attn.heads * d
    w_q, w_k_t, w_v = (view(attn.qkv, np.s_[:, r * width:(r + 1) * width], transposed=r == 1)
                       for r in range(3))
    head_offsets = np.arange(0, width + 1, d)    # head m's d columns or rows are segment m
    # (H * K, d) effective queries; (B * K, H * d) pooled nodes; (H * d, d) mix
    queries = segment_pool(affine(params.queries, w_q), w_k_t, head_offsets)
    weights = segment_attention(queries, h_nodes, offsets)
    pooled = segment_pool(weights, h_nodes, offsets, heads=attn.heads)
    mix = segment_pool(w_v, attn.wo, head_offsets)
    atoms = layer_norm(affine(pooled, mix, params.queries),
                       params.project_norm.gain, params.project_norm.bias)
    return atoms, weights


def exchange_neural_atoms(h_atoms: Tensor, params: NeuralAtomLayerParams) -> Tensor:
    """Self-attention among the atoms: every atom reads every other atom of
    its own graph in one hop, and keeps its own state through the residual
    that the attention adds."""
    attended = multi_head_attention(h_atoms, params.exchange, params.num_atoms)
    return layer_norm(attended, params.exchange_norm.gain, params.exchange_norm.bias)


def backproject_and_enhance(h_nodes: Tensor, exchanged: Tensor, weights: Tensor, heads: int,
                            offsets: np.ndarray) -> Tensor:
    """Carry exchanged atom states back to the nodes and add them on.

    The transport map is the head mean of the projection's allocations, so
    gradients flow through the attention weights as well as the atom states.
    Each node draws only on its own graph's atoms.
    """
    return segment_broadcast(weights, exchanged, offsets, h_nodes, heads=heads)


def enhance_segments(h_gnn: Tensor, offsets: np.ndarray, params: NeuralAtomLayerParams
                     ) -> tuple[Tensor, NeuralAtomTrace]:
    """The three neural-atom steps on a batch of message-passed node states.

    Returns the enhanced nodes and the batch's trace, whose read-only views
    of the tape's arrays refuse a write that would change the batch's gradients.
    """
    offsets = np.asarray(offsets)
    atoms, weights = project_to_neural_atoms(h_gnn, params, offsets)
    exchanged = exchange_neural_atoms(atoms, params)
    enhanced = backproject_and_enhance(h_gnn, exchanged, weights,
                                       params.project.heads, offsets)
    views = [a.view() for a in (offsets, atoms.data, exchanged.data, weights.data)]
    for v in views:
        v.setflags(write=False)
    return enhanced, NeuralAtomTrace(*views)
