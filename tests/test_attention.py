"""Multi-head self-attention tests.

The oracle recomputes every head of every block with plain numpy calls,
including the 1/sqrt(d) logit scaling, one projection per head and the
residual, so any drift in the packed library implementation shows up as a
value difference rather than a property violation.
"""

import math

import numpy as np
import pytest

from neural_atoms.attention import MultiHeadParams, multi_head_attention
from neural_atoms.autodiff import ShapeError, Tensor
from helpers import grad_check, head_weights, mul, param_leaves, sum_all


def per_head_oracle(x, params, block):
    """x plus dense attention head by head, block by block, then concat and W_o."""
    out = np.empty_like(x)
    for lo in range(0, x.shape[0], block):
        rows = x[lo:lo + block]
        heads = []
        for wq, wk, wv in head_weights(params):
            logits = (rows @ wq.data) @ (rows @ wk.data).T / math.sqrt(x.shape[1])
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            heads.append(weights @ (rows @ wv.data))
        out[lo:lo + block] = rows + np.concatenate(heads, axis=1) @ params.wo.data
    return out


def make_params(rng, heads, dim, std=0.5):
    # W_q of every head, then W_k, then W_v, as column blocks of one leaf
    blocks = [rng.normal(size=(dim, dim)) * std for _ in range(3 * heads)]
    return MultiHeadParams(
        qkv=Tensor(np.concatenate(blocks, axis=1), requires_grad=True),
        wo=Tensor(rng.normal(size=(heads * dim, dim)) * std, requires_grad=True),
    )


class TestForward:
    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 4, 12])
    def test_matches_per_head_dense_attention(self, block, heads):
        rng = np.random.default_rng(heads)
        x = rng.normal(size=(12, 5))
        params = make_params(rng, heads, 5)
        got = multi_head_attention(Tensor(x), params, block).data
        np.testing.assert_allclose(got, per_head_oracle(x, params, block), rtol=0, atol=1e-12)

    def test_permuting_rows_within_a_block_permutes_the_output(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 6))
        params = make_params(rng, 2, 6)
        base = multi_head_attention(Tensor(x), params, 4).data
        perm = np.concatenate([lo + rng.permutation(4) for lo in range(0, 12, 4)])
        shuffled = multi_head_attention(Tensor(x[perm]), params, 4).data
        np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-12)

    def test_zero_output_weight_returns_the_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 4))
        params = make_params(rng, 2, 4)
        params.wo.data[...] = 0.0
        np.testing.assert_array_equal(multi_head_attention(Tensor(x), params, 3).data, x)

    def test_width_must_match_the_weights(self):
        params = make_params(np.random.default_rng(2), 1, 4)
        for shape in ((6, 5), (6, 3), (6,)):
            with pytest.raises(ShapeError, match="affine( needs rank-2|: inner dimensions)"):
                multi_head_attention(Tensor(np.zeros(shape)), params, 3)
        # the residual needs the output as wide as the input
        params.wo = Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError, match="bias"):
            multi_head_attention(Tensor(np.zeros((6, 4))), params, 3)


class TestGradients:
    @pytest.mark.parametrize("heads", [1, 3])
    def test_grad_check(self, heads):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        params = make_params(rng, heads, 4)
        probe = Tensor(rng.normal(size=(6, 4)))

        def f():
            return sum_all(mul(multi_head_attention(x, params, 3), probe))

        assert grad_check(f, [x, *param_leaves(params)], eps=1e-5) < 1e-6
