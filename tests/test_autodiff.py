"""Tests for the autodiff engine.

Independent oracles live at the top of the file: a triple-loop matmul, a
per-row exp-normalise softmax, and a two-pass layer norm, all written
without touching the library code they check.  Gradients are checked
against central differences via ``grad_check`` and, for a couple of ops,
against hand-derived closed forms.
"""

import math
import warnings

import numpy as np
import pytest

from neural_atoms import autodiff as ad
from neural_atoms.gnn import GcnLayerParams, MlpParams, gcn_forward, gin_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs, generate_lri_task
from test_gnn import dense_gcn_oracle, dense_gin_sum_oracle, random_graph
from test_virtual_node import mean_rows
from neural_atoms.autodiff import (
    BlockMatrix,
    ContractError,
    GradTape,
    ShapeError,
    SlotMatrix,
    Tensor,
    add,
    affine,
    backward,
    bce_with_logits,
    block_attention,
    gather_rows,
    layer_norm,
    mse_loss,
    no_grad,
    pack,
    segment_attention,
    segment_broadcast,
    segment_mean,
    segment_pool,
    slot_matmul,
    softmax_cross_entropy,
    symmetric_matrix,
    transpose,
    view,
)
import helpers
from helpers import (add_row, concat_cols, concat_rows, contact_like_graph, grad_check, matmul,
                     mul, relu, rescale_weights, rows, scale, sum_all)


def indexed_weighted_sum(x, out_index, in_index, weights, num_out_rows):
    """out[out_index[k]] += weights[k] * x[in_index[k]] for every k, as a tape op.

    The scatter-add aggregation the message-passing layers used before
    ``slot_matmul``; it is the oracle the slot product is checked against.
    Its backward is the same aggregation through the transposed indices.
    """
    oi = np.asarray(out_index, dtype=np.intp)
    ii = np.asarray(in_index, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros((num_out_rows, x.shape[1]))
    np.add.at(out, oi, w[:, None] * x.data[ii])

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, ii, w[:, None] * g[oi])
        return (gx,)

    return ad._result(out, "indexed_weighted_sum", (x,), back)


def softmax_rows(a):
    """Row-wise softmax with the max subtracted before exponentiation, as a tape op.

    A differentiable op for the composite gradient checks, written apart
    from the softmaxes fused into the attention ops.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a rank-2 tensor, got {a.shape}")
    # the shift may overflow to -inf for pathologically spread rows; exp
    # then gives the correct limit 0, so the overflow flag is noise
    with np.errstate(over="ignore"):
        shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return ad._result(y, "softmax_rows", (a,), back)


def matmul_oracle(a, b):
    """Triple-loop matrix product, no numpy linear algebra."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def softmax_oracle(row):
    """Exp-normalise one row with plain math.exp."""
    m = max(row)
    e = [math.exp(v - m) for v in row]
    z = sum(e)
    return [v / z for v in e]


def layer_norm_oracle(row, gain, bias, eps):
    """Two-pass mean/variance normalisation of a single row."""
    d = len(row)
    mu = sum(row) / d
    var = sum((v - mu) ** 2 for v in row) / d
    inv = 1.0 / math.sqrt(var + eps)
    return [(v - mu) * inv * g + b for v, g, b in zip(row, gain, bias)]


class TestForwardValues:
    def test_matmul_matches_frozen_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        # matmul_oracle([[1,2],[3,4]], [[5,6],[7,8]]) == [[19, 22], [43, 50]]
        np.testing.assert_array_equal(affine(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k, m = rng.integers(1, 6, size=3)
            a = rng.normal(size=(n, k))
            b = rng.normal(size=(k, m))
            got = affine(Tensor(a), Tensor(b)).data
            want = matmul_oracle(a.tolist(), b.tolist())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_add_takes_only_same_shape_operands(self):
        # a row bias goes through affine, which has the one broadcasting rule
        for shape in ((3,), (1, 3), (2, 3)):
            with pytest.raises(ShapeError, match="add: incompatible"):
                add(Tensor(np.zeros((4, 3))), Tensor(np.zeros(shape)))

    def test_softmax_rows_match_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 5)) * 3.0
        got = softmax_rows(Tensor(x)).data
        for i in range(8):
            np.testing.assert_allclose(got[i], softmax_oracle(x[i].tolist()), atol=1e-14)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.normal(size=(rng.integers(1, 10), rng.integers(1, 10))) * 10.0
            y = softmax_rows(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_softmax_is_stable_for_huge_logits(self):
        x = Tensor([[1e308, 0.0, -1e308], [700.0, 710.0, 690.0]])
        y = softmax_rows(x).data
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_layer_norm_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 9))
        gain = rng.normal(size=9)
        bias = rng.normal(size=9)
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-5).data
        for i in range(6):
            want = layer_norm_oracle(x[i].tolist(), gain.tolist(), bias.tolist(), 1e-5)
            np.testing.assert_allclose(got[i], want, atol=1e-12)

    def test_layer_norm_standardises_rows(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 16)) * 5.0 + 3.0
        ones = Tensor(np.ones(16))
        zeros = Tensor(np.zeros(16))
        y = layer_norm(Tensor(x), ones, zeros, eps=1e-10).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-8)

    def test_layer_norm_constant_row_stays_finite(self):
        y = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        assert np.isfinite(y).all()

    def test_ops_are_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 7))
        w = rng.normal(size=(7, 7))
        first = matmul(softmax_rows(Tensor(x)), Tensor(w)).data
        second = matmul(softmax_rows(Tensor(x)), Tensor(w)).data
        assert np.array_equal(first, second)


class TestBackward:
    def test_matmul_gradient_closed_form(self):
        # loss = sum(A @ B): dA = ones @ B^T, dB = A^T @ ones
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        backward(sum_all(affine(a, b)))
        ones = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, ones @ b.data.T, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ ones, atol=1e-14)

    def test_reused_tensor_accumulates_gradient(self):
        # loss = sum(x * x) has gradient 2x; x enters the tape twice
        x = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-14)

    def test_constant_loss_gives_zero_gradients(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(Tensor(5.0), params=[w])
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))

    def test_unused_parameter_gets_zero_gradient(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(sum_all(used), params=[used, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(used.grad, np.ones((2, 2)))

    def test_backward_rejects_non_scalar_loss(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(relu(x))

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
        backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_tape_is_topological_and_visits_each_op_once(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = mul(x, x)
        z = add(y, y)  # diamond: y feeds z twice via the same entry
        loss = sum_all(z)
        tape = GradTape.trace(loss)
        ids = [e.op_id for e in tape.entries]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        produced = set()
        for entry in tape.entries:
            for t in entry.inputs:
                if t.entry is not None:
                    assert t.entry.op_id in produced
            produced.add(entry.op_id)
        backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.data, atol=1e-14)


class TestLeafViews:
    def test_views_of_one_owner_sum_their_gradients_into_it(self):
        rng = np.random.default_rng(48)
        owner = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))
        probe = Tensor(rng.normal(size=(5, 3)))

        def f():
            # columns 2:4 lie in both views, and column 5 in neither
            left, right = view(owner, np.s_[:, 0:3]), view(owner, np.s_[:, 2:5])
            return add(sum_all(mul(matmul(x, left), probe)),
                       sum_all(mul(matmul(x, right), matmul(x, right))))

        assert grad_check(f, [owner]) < 1e-7
        np.testing.assert_array_equal(owner.grad[:, 5], 0.0)
        assert np.abs(owner.grad[:, 2]).min() > 0.0

    def test_add_hands_each_leaf_its_own_gradient_array(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(sum_all(add(a, b)))
        backward(sum_all(mul(a, a)))                 # a later contribution to a alone
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))

    def test_pack_makes_every_leaf_a_view_of_one_flat_leaf(self):
        rng = np.random.default_rng(49)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((2, 3), (4,), (1, 1))]
        values = [t.data.copy() for t in leaves]
        flat = pack(leaves)
        np.testing.assert_array_equal(flat.data, np.concatenate([v.ravel() for v in values]))
        for t, v in zip(leaves, values):
            np.testing.assert_array_equal(t.data, v)
            assert np.shares_memory(t.data, flat.data) and np.shares_memory(t.grad, flat.grad)
        backward(sum_all(mul(leaves[0], leaves[0])), [flat])
        np.testing.assert_array_equal(flat.grad, np.concatenate([2.0 * values[0].ravel(),
                                                                 np.zeros(5)]))
        flat.data += 1.0
        np.testing.assert_array_equal(leaves[2].data, values[2] + 1.0)


class TestNoGrad:
    def test_nothing_is_recorded_inside(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            loss = sum_all(relu(matmul(w, w)))
        assert loss.entry is None and not loss.requires_grad
        assert loss.item() == 8.0
        backward(loss, params=[w])
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))

    def test_recording_resumes_after_nesting_and_errors(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert sum_all(w).entry is None
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(w, Tensor(np.ones((3, 1))))
        loss = sum_all(mul(w, w))
        assert loss.entry is not None
        backward(loss)
        np.testing.assert_array_equal(w.grad, 2.0 * w.data)


class TestGradCheck:
    """Central differences against analytic gradients, per op and composite."""

    def test_eps_outside_range_is_rejected(self):
        w = Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda: sum_all(w), [w], eps=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_expression(self, seed):
        rng = np.random.default_rng(seed)
        w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gain = Tensor(np.ones(3), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 4)) + 0.3)

        def f():
            h = relu(matmul(x, w1))
            h = layer_norm(matmul(h, w2), gain, bias, eps=1e-5)
            return sum_all(mul(softmax_rows(h), h))

        assert grad_check(f, [w1, w2, gain, bias], eps=1e-5) < 1e-6

    def test_structural_ops(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)

        def f():
            top = rows(x, 0, 3)
            picked = gather_rows(x, np.array([5, 1, 1]))
            wide = concat_cols([top, picked])
            tall = concat_rows([wide, wide])
            return sum_all(mul(tall, tall))

        assert grad_check(f, [x], eps=1e-5) < 1e-8

    def test_two_column_gather_grad_check(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        index = np.array([[4, 1], [1, 1], [0, 4], [4, 2]])
        probe = Tensor(rng.normal(size=(4, 6)))
        f = lambda: sum_all(mul(gather_rows(x, index), probe))
        assert grad_check(f, [x], eps=1e-5) < 1e-8

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_column_gather_is_concat_cols_of_one_column_gathers_bitwise(self, columns):
        # rows 0 and 3 recur within every column and across the columns
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        index = rng.choice([0, 0, 0, 3, 3, 5, 1], size=(40, columns))
        probe = Tensor(rng.normal(size=(40, columns * 4)))
        results = []
        for gather in (gather_rows, helpers.side_by_side_gathers):
            out = gather(x, index)
            backward(sum_all(mul(out, probe)), [x])
            results.append((out.data, x.grad.copy()))
        (got, got_grad), (want, want_grad) = results
        assert got.shape == (40, columns * 4)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_grad, want_grad)

    def test_gather_refuses_a_3d_or_out_of_range_index(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError, match="2-D index"):
            gather_rows(x, np.zeros((2, 2, 2), dtype=int))
        for index in ([[0, 4]], [[-1, 0]], [4]):
            with pytest.raises(ShapeError, match="out of range"):
                gather_rows(x, np.array(index))
        assert gather_rows(x, np.zeros((0, 2), dtype=int)).shape == (0, 4)

    def test_indexed_weighted_sum(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out_idx = np.array([0, 0, 1, 2, 4, 4])
        in_idx = np.array([1, 2, 0, 3, 4, 0])
        w = rng.normal(size=6)

        def f():
            y = indexed_weighted_sum(x, out_idx, in_idx, w, num_out_rows=5)
            return sum_all(mul(y, y))

        assert grad_check(f, [x], eps=1e-5) < 1e-8

    def test_reductions_and_transpose(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def f():
            pooled = mean_rows(transpose(x))
            return sum_all(mul(pooled, pooled))

        assert grad_check(f, [x], eps=1e-5) < 1e-8

    def test_losses(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=7)
        assert grad_check(lambda: softmax_cross_entropy(logits, labels), [logits]) < 1e-7

        scores = Tensor(rng.normal(size=(9, 1)), requires_grad=True)
        hits = rng.integers(0, 2, size=(9, 1)).astype(float)
        assert grad_check(lambda: bce_with_logits(scores, hits), [scores]) < 1e-7

        pred = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        target = rng.normal(size=(5, 2))
        assert grad_check(lambda: mse_loss(pred, target), [pred]) < 1e-7

    def test_scale_and_bias_add(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def f():
            return sum_all(mul(scale(add_row(x, b), 1.7), add_row(x, b)))

        assert grad_check(f, [x, b], eps=1e-5) < 1e-8


class TestLossValues:
    def test_cross_entropy_frozen_value(self):
        # Two rows, logits [0, 0] -> -log(0.5); [ln 3, 0] with label 0 -> -log(0.75)
        logits = Tensor([[0.0, 0.0], [math.log(3.0), 0.0]])
        want = (-math.log(0.5) - math.log(0.75)) / 2.0
        got = softmax_cross_entropy(logits, np.array([0, 0])).item()
        assert abs(got - want) < 1e-12

    def test_bce_frozen_value(self):
        # logit 0 against either target is -log(0.5)
        loss = bce_with_logits(Tensor([[0.0], [0.0]]), np.array([[1.0], [0.0]])).item()
        assert abs(loss - math.log(2.0)) < 1e-12

    @pytest.mark.parametrize("big", [1e308, 800.0])
    def test_bce_at_huge_logits_warns_of_nothing(self, big):
        # sigmoid's exact limits, 1 and 0, without an overflow in exp(-z); the two
        # wrong rows at +-800 cost 800 each over 4 rows
        logits = Tensor([[big], [-big], [800.0], [-800.0]], requires_grad=True)
        targets = np.array([[1.0], [0.0], [0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = bce_with_logits(logits, targets)
            backward(loss, [logits])
        assert loss.item() == 400.0
        assert np.array_equal(logits.grad, np.array([[0.0], [0.0], [0.25], [-0.25]]))

    def test_mse_frozen_value(self):
        loss = mse_loss(Tensor([[1.0, 2.0]]), np.array([[0.0, 0.0]])).item()
        assert abs(loss - 2.5) < 1e-15


# Row layouts: one segment; ragged, with 1-row segments and segments
# shorter than K = 3; equal lengths, where the ops' padded view is a
# reshape; skewed, one long segment between two 1-row ones.
SEGMENT_LAYOUTS = [np.array([0, 5]), np.array([0, 1, 4, 5, 7]), np.array([0, 2, 3, 8]),
                   np.array([0, 3, 6, 9]), np.array([0, 1, 13, 14])]


def softmax_block_oracle(logits):
    """Row softmax of one dense block, with plain numpy calls."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestSegmentOps:
    """Each segment op against the same arithmetic run segment by segment."""

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_attention_is_per_segment_softmax(self, offsets):
        rng = np.random.default_rng(40)
        q, k = rng.normal(size=(3, 4)), rng.normal(size=(offsets[-1], 4))
        got = segment_attention(Tensor(q), Tensor(k), offsets, 0.7).data
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            want = softmax_block_oracle(0.7 * q @ k[lo:hi].T)
            np.testing.assert_allclose(got[:, lo:hi], want, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got[:, lo:hi].sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS[1:])
    def test_segment_attention_survives_a_segment_of_huge_logits(self, offsets):
        rng = np.random.default_rng(48)
        q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        keys = rng.normal(size=(offsets[-1], 4))
        short = int(np.argmin(np.diff(offsets)))
        keys[offsets[short]:offsets[short + 1]] *= 1e3
        k = Tensor(keys, requires_grad=True)
        got = segment_attention(q, k, offsets, 0.7)
        assert np.isfinite(got.data).all()
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            np.testing.assert_allclose(got.data[:, lo:hi].sum(axis=1), 1.0, rtol=0, atol=1e-14)
        probe = Tensor(rng.normal(size=got.shape))
        backward(sum_all(mul(got, probe)), [q, k])
        assert not np.isnan(q.grad).any() and not np.isnan(k.grad).any()

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_pool_and_broadcast_are_per_segment_products(self, offsets):
        rng = np.random.default_rng(41)
        n, k = offsets[-1], 3
        w, v = rng.normal(size=(k, n)), rng.normal(size=(n, 2))
        alloc, states = rng.normal(size=(k, n)), rng.normal(size=((len(offsets) - 1) * k, 2))
        onto = rng.normal(size=(n, 2))
        pooled = segment_pool(Tensor(w), Tensor(v), offsets).data
        spread = segment_broadcast(Tensor(alloc), Tensor(states), offsets, Tensor(onto)).data
        for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            block = slice(b * k, (b + 1) * k)
            np.testing.assert_allclose(pooled[block], w[:, lo:hi] @ v[lo:hi], atol=1e-14)
            np.testing.assert_allclose(spread[lo:hi],
                                       onto[lo:hi] + alloc[:, lo:hi].T @ states[block],
                                       atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_broadcast_heads_grad_check(self, offsets, heads):
        rng = np.random.default_rng(46)
        n, k = offsets[-1], 2
        w = Tensor(rng.normal(size=(heads * k, n)), requires_grad=True)
        states = Tensor(rng.normal(size=((len(offsets) - 1) * k, 3)), requires_grad=True)
        probe = Tensor(rng.normal(size=(n, 3)))
        onto = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        f = lambda: sum_all(mul(segment_broadcast(w, states, offsets, onto, heads=heads), probe))
        assert grad_check(f, [w, states, onto]) < 1e-7

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_broadcast_head_mean_is_the_rows_add_scale_chain_bitwise(self, offsets,
                                                                            heads):
        """The head mean taken inside the op, against the per-head ``rows``, ``add``
        and ``scale`` ops that took it before: same bits forward and backward, also
        in the attention that made the weights and in a second use of them."""
        rng = np.random.default_rng(47)
        n, k, d = offsets[-1], 3, 4
        queries = Tensor(rng.normal(size=(heads * k, d)), requires_grad=True)
        nodes = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        states = Tensor(rng.normal(size=((len(offsets) - 1) * k, d)), requires_grad=True)
        probe = Tensor(rng.normal(size=(n, d)))
        pool_probe = Tensor(rng.normal(size=((len(offsets) - 1) * k, heads * d)))

        def chain(w):
            total = rows(w, 0, k)
            for m in range(1, heads):
                total = add(total, rows(w, m * k, (m + 1) * k))
            return segment_broadcast(scale(total, 1.0 / heads), states, offsets, nodes)

        results = []
        for mix in (lambda w: segment_broadcast(w, states, offsets, nodes, heads=heads), chain):
            w = segment_attention(queries, nodes, offsets, 0.5)
            pooled = segment_pool(w, nodes, offsets, heads=heads)
            out = mix(w)
            leaves = [queries, nodes, states]
            backward(add(sum_all(mul(out, probe)), sum_all(mul(pooled, pool_probe))), leaves)
            results.append([out.data] + [t.grad.copy() for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_segment_broadcast_heads_must_split_the_weight_rows(self):
        states = Tensor(np.ones((4, 2)))
        for rows_, heads in ((5, 2), (4, 0)):
            with pytest.raises(ShapeError, match="heads"):
                segment_broadcast(Tensor(np.ones((rows_, 4))), states, [0, 2, 4],
                                  Tensor(np.ones((4, 2))), heads=heads)

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 12])
    def test_block_attention_is_per_head_per_block_attention(self, block, heads):
        rng = np.random.default_rng(42)
        d = 4
        qkv = rng.normal(size=(12, 3 * heads * d))
        got = block_attention(Tensor(qkv), block, heads, 0.5).data
        assert got.shape == (12, heads * d)
        for lo in range(0, 12, block):
            rows_ = slice(lo, lo + block)
            for m in range(heads):
                q, k, v = (qkv[rows_, (j * heads + m) * d:(j * heads + m + 1) * d]
                           for j in range(3))
                want = softmax_block_oracle(0.5 * q @ k.T) @ v
                np.testing.assert_allclose(got[rows_, m * d:(m + 1) * d], want,
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_attention_grad_check(self, offsets):
        rng = np.random.default_rng(43)
        q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(offsets[-1], 4)), requires_grad=True)
        probe = Tensor(rng.normal(size=(3, offsets[-1])))
        f = lambda: sum_all(mul(segment_attention(q, k, offsets, 0.61), probe))
        assert grad_check(f, [q, k]) < 1e-7

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_pool_grad_check(self, offsets):
        rng = np.random.default_rng(44)
        n, k = offsets[-1], 3
        w = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        v = Tensor(rng.normal(size=(n, 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=((len(offsets) - 1) * k, 2)))
        f = lambda: sum_all(mul(segment_pool(w, v, offsets), probe))
        assert grad_check(f, [w, v]) < 1e-7

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_pool_heads_are_per_head_per_segment_products(self, offsets, heads):
        rng = np.random.default_rng(49)
        n, k, d = offsets[-1], 2, 3
        w, v = rng.normal(size=(heads * k, n)), rng.normal(size=(n, d))
        got = segment_pool(Tensor(w), Tensor(v), offsets, heads=heads).data
        assert got.shape == ((len(offsets) - 1) * k, heads * d)
        for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            for m in range(heads):
                want = w[m * k:(m + 1) * k, lo:hi] @ v[lo:hi]
                np.testing.assert_allclose(got[b * k:(b + 1) * k, m * d:(m + 1) * d], want,
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_pool_heads_grad_check(self, offsets, heads):
        rng = np.random.default_rng(50)
        n, k = offsets[-1], 2
        w = Tensor(rng.normal(size=(heads * k, n)), requires_grad=True)
        v = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        probe = Tensor(rng.normal(size=((len(offsets) - 1) * k, heads * 3)))
        f = lambda: sum_all(mul(segment_pool(w, v, offsets, heads=heads), probe))
        assert grad_check(f, [w, v]) < 1e-7

    def test_segment_pool_heads_must_split_the_weight_rows(self):
        v = Tensor(np.ones((4, 2)))
        for rows_, heads in ((5, 2), (4, 0)):
            with pytest.raises(ShapeError, match="heads"):
                segment_pool(Tensor(np.ones((rows_, 4))), v, [0, 2, 4], heads=heads)

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_broadcast_grad_check(self, offsets):
        rng = np.random.default_rng(45)
        n, k = offsets[-1], 3
        alloc = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        states = Tensor(rng.normal(size=((len(offsets) - 1) * k, 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=(n, 2)))
        onto = Tensor(rng.normal(size=(n, 2)), requires_grad=True)
        f = lambda: sum_all(mul(segment_broadcast(alloc, states, offsets, onto), probe))
        assert grad_check(f, [alloc, states, onto]) < 1e-7

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 12])
    def test_block_attention_grad_check(self, block, heads):
        rng = np.random.default_rng(46)
        qkv = Tensor(rng.normal(size=(12, 3 * heads * 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=(12, heads * 2)))
        f = lambda: sum_all(mul(block_attention(qkv, block, heads, 0.5), probe))
        assert grad_check(f, [qkv]) < 1e-7

    def test_block_attention_rejects_widths_that_do_not_split_into_heads(self):
        for width, heads in ((10, 1), (12, 5), (12, 0)):
            with pytest.raises(ShapeError, match="column blocks"):
                block_attention(Tensor(np.ones((6, width))), 3, heads, 1.0)

    @pytest.mark.parametrize("offsets", SEGMENT_LAYOUTS)
    def test_segment_mean_is_per_segment_mean(self, offsets):
        rng = np.random.default_rng(47)
        v = rng.normal(size=(offsets[-1], 3))
        got = segment_mean(Tensor(v), offsets).data
        want = [v[lo:hi].mean(axis=0) for lo, hi in zip(offsets[:-1], offsets[1:])]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        with pytest.raises(ShapeError, match="offsets"):
            segment_mean(Tensor(v), [0, offsets[-1] + 1])

    def test_bad_layouts_are_rejected(self):
        x = Tensor(np.ones((4, 2)))
        for offsets in ([0, 4, 4], [1, 4], [0, 3], [0]):
            with pytest.raises(ShapeError, match="offsets"):
                segment_attention(Tensor(np.ones((2, 2))), x, offsets, 1.0)
        with pytest.raises(ShapeError, match="segments"):
            segment_broadcast(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 2))), [0, 2, 4],
                              Tensor(np.ones((4, 2))))
        for onto in (np.ones((4, 3)), np.ones((3, 2)), np.ones(8)):
            with pytest.raises(ShapeError, match="onto"):
                segment_broadcast(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 2))), [0, 2, 4],
                                  Tensor(onto))
        with pytest.raises(ShapeError, match="blocks"):
            block_attention(Tensor(np.ones((4, 3))), 3, 1, 1.0)


def scatter_add_entries(n, edges, edge_weights, diagonal):
    """(out, in, weight) entries of diag(diagonal) plus weighted edges as directed messages."""
    out_idx, in_idx, w = list(range(n)), list(range(n)), list(diagonal)
    for (u, v), weight in zip(edges, edge_weights):
        out_idx += [v, u]
        in_idx += [u, v]
        w += [weight, weight]
    return np.array(out_idx), np.array(in_idx), np.array(w)


def scatter_add_layer(h, graph, params):
    """A GCN or GIN layer on the scatter-add aggregation the layers used before."""
    deg = np.zeros(graph.num_nodes)
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    gcn = isinstance(params, GcnLayerParams)
    weights = ([inv_sqrt[u] * inv_sqrt[v] for u, v in graph.edges] if gcn
               else [1.0] * len(graph.edges))
    diagonal = inv_sqrt * inv_sqrt if gcn else np.ones(graph.num_nodes)
    dst, src, w = scatter_add_entries(graph.num_nodes, graph.edges, weights, diagonal)
    agg = indexed_weighted_sum(h, dst, src, w, num_out_rows=graph.num_nodes)
    if gcn:
        return relu(matmul(agg, params.weight))
    hidden = relu(add_row(matmul(agg, params.w1), params.b1))
    return add_row(matmul(hidden, params.w2), params.b2)


def ragged_graphs(seed, dim=4):
    """A 1-node graph, an edgeless graph, a star whose hub has degree 9, random graphs."""
    rng = np.random.default_rng(seed)
    graphs = [MolecularGraph(1, [], rng.normal(size=(1, dim)), graph_label=0),
              MolecularGraph(3, [], rng.normal(size=(3, dim)), graph_label=0),
              MolecularGraph(10, [(0, i) for i in range(1, 10)] + [(3, 4)],
                             rng.normal(size=(10, dim)), graph_label=0)]
    graphs += [random_graph(rng, int(rng.integers(2, 12)), dim) for _ in range(5)]
    return graphs


def union_graph(batch):
    """The batch's disjoint union as one unlabelled graph, for the oracles that
    read a graph's ``num_nodes`` and ``edges``."""
    return MolecularGraph(batch.total_nodes, batch.merged_graph().tolist(), batch.node_features)


def layer_params(backbone, rng, dim=4):
    if backbone == "gcn":
        return rescale_weights(GcnLayerParams.init(dim, 5, rng), 0.5)
    return rescale_weights(MlpParams.init(dim, 6, 5, rng), 0.5)


def layer_forward(backbone, h, batch, params):
    return (gcn_forward if backbone == "gcn" else gin_forward)(h, batch, params)


def dense_closed_matrix(n, edges, scale):
    """S(A + I)S as a dense (n, n) array, built entry by entry; S = I for no scale."""
    dense = np.eye(n)
    for u, v in edges:
        dense[u, v] += 1.0
        dense[v, u] += 1.0
    s = np.ones(n) if scale is None else np.asarray(scale)
    return s[:, None] * dense * s[None, :]


def matches_dense_oracle_both_ways(matrix, dense, rng):
    """The product and its backward against ``dense @ x`` and ``dense.T @ g``."""
    x = Tensor(rng.normal(size=(dense.shape[0], 3)), requires_grad=True)
    probe = rng.normal(size=(dense.shape[0], 3))
    out = slot_matmul(matrix, x)
    np.testing.assert_allclose(out.data, dense @ x.data, rtol=0, atol=1e-10)
    backward(sum_all(mul(out, Tensor(probe))), [x])
    np.testing.assert_allclose(x.grad, dense.T @ probe, rtol=0, atol=1e-10)


def random_scale(rng, n, scaled):
    """A random positive scale of ``n`` rows, or None for S = I."""
    return rng.uniform(0.2, 2.0, size=n) if scaled else None


class TestSlotMatmul:
    """The slot product against the dense S(A + I)S oracle, the weighted
    slots it replaced and the dense layers."""

    def random_matrix(self, rng, scaled, n=10):
        # a hub of degree 8, an edge repeated in both orientations, isolated row 9
        edges = [(0, i) for i in range(1, 8)] + [(2, 8), (3, 4), (4, 3), (8, 0)]
        scale = random_scale(rng, n, scaled)
        return SlotMatrix(np.array(edges), [0, n], scale), dense_closed_matrix(n, edges, scale)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_dense_oracle_both_ways(self, scaled):
        rng = np.random.default_rng(60)
        matrix, dense = self.random_matrix(rng, scaled)
        matches_dense_oracle_both_ways(matrix, dense, rng)
        assert len(matrix.slots) == 8

    @pytest.mark.parametrize("scaled", [False, True])
    def test_grad_check(self, scaled):
        rng = np.random.default_rng(61)
        matrix, _ = self.random_matrix(rng, scaled)
        x = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
        assert grad_check(lambda: sum_all(mul(slot_matmul(matrix, x),
                                                 slot_matmul(matrix, x))), [x]) < 1e-8

    def test_edgeless_matrix_is_diagonal_and_bad_input_is_rejected(self):
        matrix = SlotMatrix(np.zeros((0, 2)), [0, 2], np.array([2.0, 3.0]))
        assert matrix.slots == []
        got = slot_matmul(matrix, Tensor(np.ones((2, 1)))).data
        np.testing.assert_array_equal(got, [[4.0], [9.0]])
        got = slot_matmul(SlotMatrix(np.zeros((0, 2)), [0, 2], None), Tensor(np.ones((2, 1))))
        np.testing.assert_array_equal(got.data, [[1.0], [1.0]])
        with pytest.raises(ShapeError, match="slot_matmul"):
            slot_matmul(matrix, Tensor(np.ones((3, 1))))
        with pytest.raises(ShapeError, match="out of range"):
            SlotMatrix(np.array([[0, 2]]), [0, 2], None)
        with pytest.raises(ShapeError, match="fit together"):
            SlotMatrix(np.array([[0, 1]]), [0, 2], np.ones(3))
        with pytest.raises(ShapeError, match="offsets"):
            SlotMatrix(np.array([[0, 1]]), [1, 2], None)

    def test_contact_batch_matches_the_weighted_slots(self):
        rng = np.random.default_rng(67)
        graphs = [contact_like_graph(rng, int(n)) for n in rng.integers(40, 161, 64)]
        batch = batch_graphs(graphs)
        assert isinstance(batch.closed_neighborhood(normalised=False), SlotMatrix)
        edges, n = batch.merged_graph(), batch.total_nodes
        u, v = edges.T
        x = rng.normal(size=(n, 32))
        plain = helpers.WeightedSlotMatrix(np.ones(n), edges, np.ones(len(edges)))
        got = batch.closed_neighborhood(normalised=False).apply(x)
        assert got.tobytes() == plain.apply(x).tobytes()
        s = 1.0 / np.sqrt(np.bincount(edges.ravel(), minlength=n) + 1.0)
        weighted = helpers.WeightedSlotMatrix(s * s, edges, s[u] * s[v])
        np.testing.assert_allclose(SlotMatrix(edges, batch.offsets, s).apply(x),
                                   weighted.apply(x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("backbone", ["gcn", "gin"])
    def test_layers_match_scatter_add_path_and_dense_oracles(self, backbone):
        rng = np.random.default_rng(62)
        batch = batch_graphs(ragged_graphs(63))
        merged = union_graph(batch)
        params = layer_params(backbone, rng)
        leaves = [getattr(params, name) for name in vars(params)]
        probe = rng.normal(size=(batch.total_nodes, 5))
        results = []
        for layer in (lambda h: layer_forward(backbone, h, batch, params),
                      lambda h: scatter_add_layer(h, merged, params)):
            x = Tensor(batch.node_features, requires_grad=True)
            out = layer(x)
            backward(sum_all(mul(out, Tensor(probe))), [x] + leaves)
            results.append([out.data, x.grad] + [t.grad.copy() for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        feats = merged.node_features
        if backbone == "gcn":
            want = dense_gcn_oracle(merged, feats, params.weight.data)
            np.testing.assert_allclose(results[0][0], want, rtol=0, atol=1e-10)
        else:
            agg = slot_matmul(batch.closed_neighborhood(normalised=False), Tensor(feats))
            np.testing.assert_allclose(agg.data, dense_gin_sum_oracle(merged, feats),
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("backbone", ["gcn", "gin"])
    def test_batched_rows_equal_each_graph_alone_and_repeat_bytewise(self, backbone):
        graphs = ragged_graphs(64)
        params = layer_params(backbone, np.random.default_rng(65))
        batch = batch_graphs(graphs)
        h = Tensor(batch.node_features)
        first = layer_forward(backbone, h, batch, params).data
        again = layer_forward(backbone, h, batch_graphs(graphs), params).data
        assert first.tobytes() == again.tobytes()
        for g, lo, hi in zip(graphs, batch.offsets[:-1], batch.offsets[1:]):
            alone = layer_forward(backbone, Tensor(g.node_features), batch_graphs([g]),
                                  params).data
            np.testing.assert_allclose(first[lo:hi], alone, rtol=0, atol=1e-10)


def with_repeated_edge(graphs, dim=4):
    """``graphs`` plus a 4-node path whose first edge is stored twice, once reversed."""
    rng = np.random.default_rng(66)
    return graphs + [MolecularGraph(4, [(0, 1), (1, 2), (1, 0), (2, 3)],
                                    rng.normal(size=(4, dim)), graph_label=0)]


@pytest.fixture
def form(request, monkeypatch):
    """Make ``symmetric_matrix`` pick the named form for every graph."""
    monkeypatch.setattr(ad, "BLOCK_CROSSOVER", math.inf if request.param == "blocks" else 0)
    return {"blocks": BlockMatrix, "slots": SlotMatrix}[request.param]


class TestBlockMatrix:
    """The dense-block form against the slot form and the dense S(A + I)S oracle."""

    def random_entries(self, rng, scaled):
        # segments of 1, 3 (edgeless), 6 and 4 rows; an edge repeated in both orientations
        offsets = [0, 1, 4, 10, 14]
        edges = [(4, 5), (4, 6), (4, 7), (4, 8), (8, 9), (5, 6), (6, 5), (10, 11), (11, 13)]
        return edges, offsets, random_scale(rng, 14, scaled)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_slot_form_and_dense_oracle_both_ways(self, scaled):
        rng = np.random.default_rng(80)
        edges, offsets, scale = self.random_entries(rng, scaled)
        dense = dense_closed_matrix(14, edges, scale)
        matches_dense_oracle_both_ways(BlockMatrix(edges, offsets, scale), dense, rng)
        matches_dense_oracle_both_ways(SlotMatrix(edges, offsets, scale), dense, rng)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_blocks_are_the_dense_segments(self, scaled):
        rng = np.random.default_rng(81)
        edges, offsets, scale = self.random_entries(rng, scaled)
        dense = dense_closed_matrix(14, edges, scale)
        blocks = BlockMatrix(edges, offsets, scale).blocks
        assert blocks.shape == (4, 6, 6)
        for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            np.testing.assert_array_equal(blocks[b, :hi - lo, :hi - lo], dense[lo:hi, lo:hi])
            assert not blocks[b, hi - lo:].any() and not blocks[b, :, hi - lo:].any()

    @pytest.mark.parametrize("scaled", [False, True])
    def test_grad_check(self, scaled):
        rng = np.random.default_rng(82)
        matrix = BlockMatrix(*self.random_entries(rng, scaled))
        x = Tensor(rng.normal(size=(14, 3)), requires_grad=True)
        assert grad_check(lambda: sum_all(mul(slot_matmul(matrix, x),
                                                 slot_matmul(matrix, x))), [x]) < 1e-8

    def test_bad_input_is_rejected(self):
        with pytest.raises(ShapeError, match="out of range"):
            BlockMatrix(np.array([[0, 2]]), [0, 2], None)
        with pytest.raises(ShapeError, match="fit together"):
            BlockMatrix(np.array([[0, 1]]), [0, 2], np.ones(3))
        with pytest.raises(ShapeError, match="two segments"):
            BlockMatrix(np.array([[0, 1], [1, 2]]), [0, 2, 3], None)
        for offsets in ([0, 3, 3, 3], [1, 3], [], [[0, 3]]):
            for form in (BlockMatrix, SlotMatrix, symmetric_matrix):
                with pytest.raises(ShapeError, match="offsets"):
                    form(np.zeros((0, 2)), offsets, None)
        for form in (BlockMatrix, symmetric_matrix):
            # the offsets give 2 rows; a scale of 3 does not fit them
            with pytest.raises(ShapeError, match="fit together"):
                form(np.zeros((0, 2)), [0, 2], np.ones(3))
        matrix = BlockMatrix(np.zeros((0, 2)), [0, 1, 3], None)
        with pytest.raises(ShapeError, match="slot_matmul"):
            slot_matmul(matrix, Tensor(np.ones((2, 1))))

    def test_rule_picks_blocks_for_small_paths_and_slots_for_contact_like_graphs(self):
        paths = generate_lri_task(64, 20, 4, seed=0)
        assert isinstance(batch_graphs(paths).closed_neighborhood(normalised=True), BlockMatrix)
        rng = np.random.default_rng(83)
        contacts = [contact_like_graph(rng, int(n)) for n in rng.integers(40, 161, 64)]
        assert isinstance(batch_graphs(contacts).closed_neighborhood(normalised=False),
                          SlotMatrix)
        # a batch of one graph is one segment under the same rule
        assert isinstance(batch_graphs(paths[:1]).closed_neighborhood(normalised=False),
                          BlockMatrix)
        assert isinstance(batch_graphs([contact_like_graph(rng, 160)])
                          .closed_neighborhood(normalised=False), SlotMatrix)

    @pytest.mark.parametrize("backbone", ["gcn", "gin"])
    def test_layers_match_slot_form_and_scatter_add_path(self, backbone, monkeypatch):
        rng = np.random.default_rng(84)
        graphs = with_repeated_edge(ragged_graphs(85))
        params = layer_params(backbone, rng)
        leaves = [getattr(params, name) for name in vars(params)]
        probe = rng.normal(size=(sum(g.num_nodes for g in graphs), 5))
        results = []
        for form, crossover in ((BlockMatrix, math.inf), (SlotMatrix, 0), (None, 0)):
            monkeypatch.setattr(ad, "BLOCK_CROSSOVER", crossover)
            batch = batch_graphs(graphs)
            x = Tensor(batch.node_features, requires_grad=True)
            if form is None:
                out = scatter_add_layer(x, union_graph(batch), params)
            else:
                assert isinstance(batch.closed_neighborhood(backbone == "gcn"), form)
                out = layer_forward(backbone, x, batch, params)
            backward(sum_all(mul(out, Tensor(probe))), [x] + leaves)
            results.append([out.data, x.grad] + [t.grad.copy() for t in leaves])
        for other in results[1:]:
            for got, want in zip(results[0], other):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("form", ["blocks", "slots"], indirect=True)
    @pytest.mark.parametrize("backbone", ["gcn", "gin"])
    def test_two_builds_of_a_batch_give_the_same_bytes(self, backbone, form):
        graphs = with_repeated_edge(ragged_graphs(88))
        params = layer_params(backbone, np.random.default_rng(89))
        outputs = []
        for _ in range(2):
            batch = batch_graphs(graphs)
            assert isinstance(batch.closed_neighborhood(backbone == "gcn"), form)
            x = Tensor(batch.node_features, requires_grad=True)
            out = layer_forward(backbone, x, batch, params)
            backward(sum_all(out), [x])
            outputs.append(out.data.tobytes() + x.grad.tobytes())
        assert outputs[0] == outputs[1]


def composed_affine(x, w, b=None, relu=False):
    """Oracle for ``affine``: the tape ops it fuses.  A one-row bias goes
    through ``add_row``, a same-shape one through ``add``, and one of K rows
    is tiled down the n rows by ``gather_rows`` first, as the atom projection
    once did."""
    out = matmul(x, w)
    if b is not None:
        if b.data.ndim == 1 or b.shape[0] == 1:
            out = add_row(out, b)
        elif b.shape == out.shape:
            out = add(out, b)
        else:
            k = b.shape[0]
            out = add(gather_rows(b, np.tile(np.arange(k), out.shape[0] // k)), out)
    return helpers.relu(out) if relu else out


class TestAffine:
    """The fused x·W + b and ReLU against central differences and the composed ops."""

    # K = 2 rows repeat down the 6 output rows; 6 rows are a residual
    @pytest.mark.parametrize("bias_shape", [None, (3,), (1, 3), (2, 3), (6, 3)],
                             ids=["no-bias", "row", "1-row", "2-rows", "residual"])
    @pytest.mark.parametrize("with_relu", [False, True])
    @pytest.mark.parametrize("x_needs_grad", [False, True])
    def test_grad_check(self, bias_shape, with_relu, x_needs_grad):
        rng = np.random.default_rng(70)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=x_needs_grad)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = None if bias_shape is None else Tensor(rng.normal(size=bias_shape), requires_grad=True)
        probe = Tensor(rng.normal(size=(6, 3)))
        leaves = [t for t in (x, w, b) if t is not None and t.requires_grad]

        def f():
            return sum_all(mul(affine(x, w, b, relu=with_relu), probe))

        assert grad_check(f, leaves, eps=1e-6) < 1e-8
        out = affine(x, w, b, relu=with_relu)
        assert (out.data > 0).any() and (not with_relu or (out.data == 0).any())
        np.testing.assert_array_equal(out.data, composed_affine(x, w, b, relu=with_relu).data)
        grads = out.entry.backward(probe.data)
        assert len(grads) == (2 if b is None else 3)
        assert b is None or grads[2].shape == b.shape
        assert (grads[0] is None) == (not x_needs_grad)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("with_relu", [False, True])
    def test_matches_composed_ops_on_a_ragged_batch(self, with_bias, with_relu):
        rng = np.random.default_rng(71)
        batch = batch_graphs(ragged_graphs(72))
        probe = Tensor(rng.normal(size=(batch.total_nodes, 5)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True) if with_bias else None
        leaves = [t for t in (w, b) if t is not None]
        results = []
        for op in (lambda x: affine(x, w, b, relu=with_relu),
                   lambda x: composed_affine(x, w, b, relu=with_relu)):
            h = Tensor(batch.node_features, requires_grad=True)
            agg = slot_matmul(batch.closed_neighborhood(normalised=False), h)
            out = op(agg)
            backward(sum_all(mul(out, probe)), [h] + leaves)
            results.append([out.data, h.grad] + [t.grad.copy() for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_records_one_entry_and_nothing_under_no_grad(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        out = affine(Tensor(np.ones((3, 2))), w, b, relu=True)
        assert [e.name for e in GradTape.trace(sum_all(out)).entries] == ["affine", "sum_all"]
        with no_grad():
            assert affine(Tensor(np.ones((3, 2))), w, b, relu=True).entry is None

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([[1.0], [0.0], [-1.0]], requires_grad=True)
        w = Tensor([[1.0]], requires_grad=True)
        backward(sum_all(affine(x, w, relu=True)))
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0], [0.0]])

    def test_bad_shapes_are_rejected(self):
        x, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 4)))
        with pytest.raises(ShapeError, match="inner"):
            affine(x, Tensor(np.ones((3, 4))))
        with pytest.raises(ShapeError, match="rank-2"):
            affine(Tensor(np.ones(2)), w)
        # wrong width, a row count that does not divide 3, 3-D, and 0 rows
        for bias in (np.ones(3), np.ones((3, 3)), np.ones((2, 4)), np.ones((1, 1, 4)),
                     np.ones((0, 4))):
            with pytest.raises(ShapeError, match="bias"):
                affine(x, w, Tensor(bias))
