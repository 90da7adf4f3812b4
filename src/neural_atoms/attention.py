"""Multi-head scaled dot-product self-attention within blocks of rows.

The neural-atom exchange stacks the K atom states of B graphs as B blocks of
K rows, and every atom attends to the atoms of its own block only.  All
heads run at once: one ``affine`` by ``qkv`` projects the rows onto the
queries, keys and values of every head, one ``block_attention`` attends
within every block and head, and one ``affine`` mixes the heads and adds the
input back as a residual.  The neural-atom projection reassociates its
products instead and does not come through here: it views the (d, H * d)
W_q and W_v blocks of ``qkv`` whole, and W_k's transposed, and forms every
head's product of two weights with one ``segment_pool`` over head blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, block_attention, parameter


@dataclass
class MultiHeadParams:
    """Every head's query/key/value projections plus the shared output map.

    ``qkv`` puts the (d, d) W_q of heads 0 to H-1, then their W_k and W_v,
    side by side; rows m*d:(m+1)*d of the (H * d, out_dim) ``wo`` mix head m.
    """

    qkv: Tensor
    wo: Tensor

    @property
    def heads(self) -> int:
        return self.qkv.shape[1] // (3 * self.qkv.shape[0])

    @classmethod
    def init(cls, heads: int, dim: int, rng: np.random.Generator) -> "MultiHeadParams":
        # fan-in scaling; tiny projections leave the attention logits so
        # flat that nothing downstream gets a usable gradient
        blocks = [rng.normal(0.0, dim ** -0.5, size=(dim, dim)) for _ in range(3 * heads)]
        return cls(qkv=Tensor(np.concatenate(blocks, axis=1), requires_grad=True),
                   wo=parameter(rng, (heads * dim, dim), (heads * dim) ** -0.5))


def multi_head_attention(x: Tensor, params: MultiHeadParams, block: int) -> Tensor:
    """X plus scaled dot-product self-attention within each block of ``block`` rows.

    Head m computes softmax(X W_q,m (X W_k,m)^T / sqrt(d)) X W_v,m over the
    rows of one block; the heads are concatenated, mixed by the output
    weight and added to X.  One ``affine`` by ``qkv`` projects every row onto
    the queries, keys and values of all heads, one ``block_attention`` runs
    every head of every block, and one ``affine`` with X as its same-shape
    bias mixes the heads and adds the residual.
    """
    mixed = block_attention(affine(x, params.qkv), block, params.heads)
    return affine(mixed, params.wo, x)
