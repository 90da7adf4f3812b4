"""Message-passing layers: degree-normalised convolution and isomorphism-style sum.

Both layers aggregate over the closed neighbourhood (neighbours plus the node
itself, via an implicit self-loop) with :func:`slot_matmul` by S(A + I)S:
S = D^-1/2 for the convolution and the identity for the sum.  The batch
builds the matrix once, in the form :meth:`GraphBatch.closed_neighborhood`
picks by ``BLOCK_CROSSOVER``, and every layer and backward pass reuses it;
since it is symmetric the backward pass is the same aggregation.  For a
batch of small graphs, such as molecules of tens of atoms, the matrix is a
:class:`BlockMatrix` of dense per-graph blocks and the aggregation is one
batched matmul; for large sparse graphs it is a :class:`SlotMatrix`, which
keeps only the edges' row and column indices, and the whole adjacency never
materialises densely.  Each weight product, with its bias and ReLU, is one
:func:`affine` tape op, which adds the bias and applies the ReLU in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, parameter, slot_matmul
from .graphs import GraphBatch


@dataclass
class GcnLayerParams:
    """One weight matrix; the layer has no bias term."""

    weight: Tensor

    @classmethod
    def init(cls, dim_in: int, dim_out: int, rng: np.random.Generator):
        # fan-in scaling keeps activation variance flat across layers
        return cls(weight=parameter(rng, (dim_in, dim_out), dim_in ** -0.5))


@dataclass
class MlpParams:
    """Two affine maps with a ReLU between them: the GIN layer's map after
    the sum, and the virtual-node update."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, dim_in: int, dim_hidden: int, dim_out: int, rng: np.random.Generator):
        return cls(
            w1=parameter(rng, (dim_in, dim_hidden), dim_in ** -0.5),
            b1=Tensor(np.zeros(dim_hidden), requires_grad=True),
            w2=parameter(rng, (dim_hidden, dim_out), dim_hidden ** -0.5),
            b2=Tensor(np.zeros(dim_out), requires_grad=True),
        )


def gcn_forward(h: Tensor, batch: GraphBatch, params: GcnLayerParams) -> Tensor:
    """ReLU of the symmetrically degree-normalised neighbourhood sum times W.

    Each message from u to v is scaled by 1/sqrt(d_u * d_v) where d counts
    the self-loop, so an isolated node keeps exactly its own transformed
    feature.
    """
    agg = slot_matmul(batch.closed_neighborhood(normalised=True), h)
    return affine(agg, params.weight, relu=True)


def mlp(x: Tensor, params: MlpParams) -> Tensor:
    """relu(x W1 + b1) W2 + b2, as two :func:`affine` tape ops."""
    hidden = affine(x, params.w1, params.b1, relu=True)
    return affine(hidden, params.w2, params.b2)


def gin_forward(h: Tensor, batch: GraphBatch, params: MlpParams) -> Tensor:
    """Unweighted neighbourhood-plus-self sum pushed through a two-layer MLP."""
    return mlp(slot_matmul(batch.closed_neighborhood(normalised=False), h), params)
