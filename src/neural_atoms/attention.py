"""Multi-head scaled dot-product self-attention within blocks of rows.

The neural-atom exchange stacks the K atom states of B graphs as B blocks of
K rows, and every atom attends to the atoms of its own block only.  All
heads run at once: one matmul projects the rows onto the queries, keys and
values of every head, one ``block_attention`` attends within every block
and head, and one matmul mixes the heads.  The neural-atom projection
reassociates its products instead and does not come through here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, block_attention, concat_cols, matmul, parameter


@dataclass
class MultiHeadParams:
    """Per-head query/key/value projections plus the shared output map.

    Every head projects queries and keys to ``key_dim`` columns and values
    to ``value_dim``; the concatenated head outputs are mixed down by
    ``output_weight`` of shape (heads * value_dim, out_dim).
    """

    query_weights: list[Tensor]
    key_weights: list[Tensor]
    value_weights: list[Tensor]
    output_weight: Tensor

    @property
    def heads(self) -> int:
        return len(self.query_weights)

    @classmethod
    def init(cls, heads: int, key_dim: int, value_dim: int, out_dim: int,
             rng: np.random.Generator, std: float | None = None) -> "MultiHeadParams":
        if heads < 1:
            raise ValueError("need at least one attention head")
        # fan-in scaling; tiny projections leave the attention logits so
        # flat that nothing downstream gets a usable gradient
        qk_std = key_dim ** -0.5 if std is None else std
        v_std = value_dim ** -0.5 if std is None else std
        out_std = (heads * value_dim) ** -0.5 if std is None else std
        return cls(
            query_weights=[parameter(rng, (key_dim, key_dim), qk_std) for _ in range(heads)],
            key_weights=[parameter(rng, (key_dim, key_dim), qk_std) for _ in range(heads)],
            value_weights=[parameter(rng, (value_dim, value_dim), v_std) for _ in range(heads)],
            output_weight=parameter(rng, (heads * value_dim, out_dim), out_std),
        )

    def tensors(self) -> list[Tensor]:
        return [*self.query_weights, *self.key_weights, *self.value_weights, self.output_weight]


def multi_head_attention(x: Tensor, params: MultiHeadParams, block: int) -> Tensor:
    """Scaled dot-product self-attention within each block of ``block`` rows.

    Head m computes softmax(X W_q,m (X W_k,m)^T / sqrt(key_dim)) X W_v,m
    over the rows of one block; the heads are concatenated and mixed by the
    output weight.  One matmul by the concatenated W_q, W_k and W_v of all
    heads projects every row once, and one ``block_attention`` runs every
    head of every block.
    """
    key_dim = params.query_weights[0].shape[0]
    if x.data.ndim != 2 or x.shape[1] != key_dim:
        raise ShapeError(f"attention input must be (n, {key_dim}), got {x.shape}")
    qkv = matmul(x, concat_cols([*params.query_weights, *params.key_weights,
                                 *params.value_weights]))
    mixed = block_attention(qkv, block, params.heads, 1.0 / math.sqrt(key_dim))
    return matmul(mixed, params.output_weight)
