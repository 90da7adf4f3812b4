"""Multi-head scaled dot-product attention.

Unlike a generic transformer layer, this implementation hands back the
per-head attention weight matrices alongside the mixed output: downstream
code reuses those row-stochastic matrices as soft assignment maps, and the
gradient must keep flowing through them.

What one head does with its projected queries, keys and values is a
pluggable ``attend`` function: dense attention by default, or the block
attention the neural-atom exchange runs over a whole batch.  The neural-atom
projection reassociates its products instead and does not come through here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    attention_scores,
    concat_cols,
    matmul,
    parameter,
)


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


@dataclass
class AttentionOutput:
    """Mixed output and one weight matrix per head.

    A head's weights are None when its ``attend`` function does not
    materialise them.
    """

    output: Tensor
    per_head_weights: list[Tensor | None]


# (projected queries, keys, values, 1/sqrt(key_dim)) -> (head output, weights)
Attend = Callable[[Tensor, Tensor, Tensor, float], tuple[Tensor, Tensor | None]]


def dense_attend(q: Tensor, k: Tensor, v: Tensor, inv_scale: float
                 ) -> tuple[Tensor, Tensor]:
    """Every query row attends over every key row."""
    weights = attention_scores(q, k, inv_scale)
    return matmul(weights, v), weights


def multi_head_attention(query: Tensor, keys: Tensor, values: Tensor,
                         params: MultiHeadParams,
                         attend: Attend = dense_attend) -> AttentionOutput:
    """Scaled dot-product attention, one weight matrix per head.

    Head m computes softmax(Q W_q (K W_k)^T / sqrt(key_dim)) and applies it
    to V W_v; the heads are concatenated and mixed by the output weight.
    Keys and values must agree on their row count (one row per attended
    item), queries may have any row count.  ``attend`` decides which
    queries see which keys; each head's projections are computed once for
    all rows before it is called.
    """
    if keys.shape[0] != values.shape[0]:
        raise ShapeError(
            f"keys and values disagree on row count: {keys.shape} vs {values.shape}")
    key_dim = params.query_weights[0].shape[0]
    if query.shape[1] != key_dim or keys.shape[1] != key_dim:
        raise ShapeError(
            f"query/key width must be {key_dim}, got {query.shape} and {keys.shape}")
    inv_sqrt_dim = 1.0 / math.sqrt(key_dim)

    head_outputs = []
    head_weights = []
    for wq, wk, wv in zip(params.query_weights, params.key_weights, params.value_weights):
        q = matmul(query, wq)
        k = matmul(keys, wk)
        v = matmul(values, wv)
        out, weights = attend(q, k, v, inv_sqrt_dim)
        head_weights.append(weights)
        head_outputs.append(out)

    mixed = matmul(concat_cols(head_outputs), params.output_weight)
    return AttentionOutput(output=mixed, per_head_weights=head_weights)
