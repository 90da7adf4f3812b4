"""Tests for the virtual-node baseline layer."""

from dataclasses import fields

import numpy as np
import pytest

from neural_atoms.autodiff import ShapeError, Tensor, _result, backward
from neural_atoms.gnn import MlpParams
from neural_atoms.virtual_node import multi_virtual_node_layer
from helpers import (add, add_row, concat_rows, grad_check, matmul, mul, neg, relu, rows, scale,
                     sum_all)


def mean_rows(a):
    """Column means of an (n, d) matrix as a (1, d) tape op.

    The one-graph pooling the oracles below are written with; the library
    pools every graph of a batch at once with ``segment_mean``.
    """
    n = a.shape[0]
    return _result(a.data.mean(axis=0, keepdims=True), "mean_rows", (a,),
                   lambda g: (np.repeat(g / n, n, axis=0),))


def update_mlp(state, params):
    hidden = relu(add_row(matmul(state, params.w1), params.b1))
    return add_row(matmul(hidden, params.w2), params.b2)


def virtual_node_layer(h, vstate, params):
    """Single-state oracle: pool the nodes into the state, update it, add it back."""
    if vstate.shape[0] != 1 or vstate.shape[1] != h.shape[1]:
        raise ShapeError(
            f"virtual-node state must be (1, {h.shape[1]}), got {vstate.shape}")
    new_state = update_mlp(add(vstate, mean_rows(h)), params)
    return add_row(h, new_state), new_state


def looped_virtual_node_layer(h, vstates, params):
    """Oracle for one graph: the state-by-state loop the batched round replaced."""
    count = vstates.shape[0]
    pooled = mean_rows(h)
    state_sum = scale(mean_rows(vstates), float(count))
    new_states = []
    for i in range(count):
        own = rows(vstates, i, i + 1)
        incoming = add(own, pooled)
        if count > 1:
            others = scale(add(state_sum, neg(own)), 1.0 / (count - 1))
            incoming = add(incoming, others)
        new_states.append(update_mlp(incoming, params))
    out = h
    for state in new_states:
        out = add_row(out, state)
    return out, concat_rows(new_states)


def looped_batch_round(h, vstates, params, offsets):
    """Oracle for a batch: the graph-by-graph loop the batched round replaced."""
    count = vstates.shape[0] // (len(offsets) - 1)
    outs, states = [], []
    for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        out, new = looped_virtual_node_layer(
            rows(h, lo, hi), rows(vstates, g * count, (g + 1) * count), params)
        outs.append(out)
        states.append(new)
    return concat_rows(outs), concat_rows(states)


def make_params(rng, dim):
    return MlpParams.init(dim, dim, dim, rng)


def leaves_of(params):
    return [getattr(params, f.name) for f in fields(params)]


def zero_params(dim):
    return MlpParams(
        w1=Tensor(np.zeros((dim, dim)), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(np.zeros((dim, dim)), requires_grad=True),
        b2=Tensor(np.zeros(dim), requires_grad=True),
    )


def identity_params(dim):
    eye = np.eye(dim)
    return MlpParams(
        w1=Tensor(eye.copy(), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(eye.copy(), requires_grad=True),
        b2=Tensor(np.zeros(dim), requires_grad=True),
    )


def test_zero_update_leaves_nodes_unchanged():
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(5, 4)))
    vstate = Tensor(np.zeros((1, 4)))
    out, new_state = virtual_node_layer(h, vstate, zero_params(4))
    assert np.array_equal(out.data, h.data)
    assert np.array_equal(new_state.data, np.zeros((1, 4)))


def test_equal_rows_identity_update_doubles_them():
    # positive rows keep the ReLU transparent, so the MLP acts as identity
    row = np.array([0.5, 1.0, 2.0])
    h = Tensor(np.tile(row, (4, 1)))
    vstate = Tensor(np.zeros((1, 3)))
    out, new_state = virtual_node_layer(h, vstate, identity_params(3))
    assert np.allclose(new_state.data, row[None, :])
    assert np.allclose(out.data, 2.0 * np.tile(row, (4, 1)))


def test_state_is_permutation_invariant_and_nodes_equivariant():
    rng = np.random.default_rng(3)
    h_data = rng.normal(size=(7, 6))
    vstate_data = rng.normal(size=(1, 6))
    params = make_params(rng, 6)
    perm = rng.permutation(7)

    out, state = virtual_node_layer(Tensor(h_data), Tensor(vstate_data), params)
    out_p, state_p = virtual_node_layer(Tensor(h_data[perm]),
                                        Tensor(vstate_data), params)
    assert np.abs(state.data - state_p.data).max() < 1e-10
    assert np.abs(out.data[perm] - out_p.data).max() < 1e-10


def test_broadcast_preserves_row_variance():
    # every node receives the same update, so spread between rows is untouched
    rng = np.random.default_rng(5)
    h_data = rng.normal(size=(6, 4))
    params = make_params(rng, 4)
    out, _ = virtual_node_layer(Tensor(h_data), Tensor(rng.normal(size=(1, 4))),
                                params)
    assert np.allclose(np.var(out.data, axis=0), np.var(h_data, axis=0))


def test_single_state_multi_layer_matches_plain_layer():
    rng = np.random.default_rng(8)
    h_data = rng.normal(size=(5, 4))
    state_data = rng.normal(size=(1, 4))
    params = make_params(rng, 4)
    out_a, state_a = virtual_node_layer(Tensor(h_data), Tensor(state_data), params)
    out_b, states_b = multi_virtual_node_layer(Tensor(h_data), Tensor(state_data),
                                               params, [0, 5])
    assert np.array_equal(out_a.data, out_b.data)
    assert np.array_equal(state_a.data, states_b.data)


def test_multiple_states_exchange_information():
    rng = np.random.default_rng(9)
    h = Tensor(rng.normal(size=(4, 3)))
    params = make_params(rng, 3)
    base = np.zeros((2, 3))
    out_zero, _ = multi_virtual_node_layer(h, Tensor(base), params, [0, 4])
    poked = base.copy()
    poked[1, :] = 5.0
    out_poked, states = multi_virtual_node_layer(h, Tensor(poked), params, [0, 4])
    # state 0 saw state 1 through the fully connected update
    _, states_zero = multi_virtual_node_layer(h, Tensor(base), params, [0, 4])
    assert np.abs(states.data[0] - states_zero.data[0]).max() > 1e-6
    assert not np.array_equal(out_zero.data, out_poked.data)


def test_shape_errors():
    rng = np.random.default_rng(1)
    params = make_params(rng, 4)
    h = Tensor(rng.normal(size=(5, 4)))
    with pytest.raises(ShapeError):
        virtual_node_layer(h, Tensor(np.zeros((1, 3))), params)
    with pytest.raises(ShapeError):
        virtual_node_layer(h, Tensor(np.zeros((2, 4))), params)
    # each bad operand meets the check of the first engine op it reaches, which is
    # segment_mean for every bad state stack and offsets list
    for states, offsets, message in (((2, 3), [0, 5], "values .* vs onto"),
                                     ((3, 4), [0, 2, 5], "3 onto rows do not split"),
                                     ((0, 4), [0, 2, 5], "0 onto rows do not split"),
                                     ((5, 4), [0, 2, 5], "5 onto rows do not split"),
                                     ((1, 4), [], "offsets")):
        with pytest.raises(ShapeError, match=f"segment_mean: {message}"):
            multi_virtual_node_layer(h, Tensor(np.zeros(states)), params, offsets)
    with pytest.raises(ShapeError, match="affine: inner dimensions differ"):
        multi_virtual_node_layer(h, Tensor(np.zeros((1, 4))), make_params(rng, 3), [0, 5])


def test_gradients_flow_to_update_mlp():
    rng = np.random.default_rng(12)
    h = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    vstates = Tensor(rng.normal(size=(3, 4)))
    params = make_params(rng, 4)

    def loss():
        out, states = multi_virtual_node_layer(h, vstates, params, [0, 5])
        return add(sum_all(out), sum_all(states))

    worst = grad_check(loss, leaves_of(params) + [h])
    assert worst < 1e-6, f"worst relative gradient error {worst}"


def weighted_loss(out, states, weights):
    """Scalar that weighs every node entry differently, plus the states."""
    return add(sum_all(mul(out, Tensor(weights))), sum_all(states))


def ragged_offsets():
    """Five graphs of 4, 1, 6, 1 and 3 nodes: two of them single nodes."""
    return np.array([0, 4, 5, 11, 12, 15])


@pytest.mark.parametrize("count", [1, 3])
class TestBatchedRound:
    """The batched round against the graph-by-graph loop it replaced."""

    def test_outputs_match_looped_round(self, count):
        rng = np.random.default_rng(20 + count)
        offsets = ragged_offsets()
        params = make_params(rng, 4)
        h = Tensor(rng.normal(size=(offsets[-1], 4)))
        vstates = Tensor(rng.normal(size=(5 * count, 4)))
        out, states = multi_virtual_node_layer(h, vstates, params, offsets)
        ref_out, ref_states = looped_batch_round(h, vstates, params, offsets)
        assert out.shape == ref_out.shape and states.shape == (5 * count, 4)
        assert np.abs(out.data - ref_out.data).max() < 1e-10
        assert np.abs(states.data - ref_states.data).max() < 1e-10

    def test_gradients_match_looped_round(self, count):
        rng = np.random.default_rng(30 + count)
        offsets = ragged_offsets()
        params = make_params(rng, 4)
        h = Tensor(rng.normal(size=(offsets[-1], 4)), requires_grad=True)
        vstates = Tensor(rng.normal(size=(5 * count, 4)), requires_grad=True)
        weights = rng.normal(size=(offsets[-1], 4))
        leaves = leaves_of(params) + [h, vstates]

        def grads(layer):
            backward(weighted_loss(*layer(h, vstates, params, offsets), weights), leaves)
            return [t.grad.copy() for t in leaves]

        for got, ref in zip(grads(multi_virtual_node_layer), grads(looped_batch_round)):
            assert np.abs(got - ref).max() < 1e-10

    def test_grad_check_over_segments(self, count):
        rng = np.random.default_rng(40 + count)
        offsets = np.array([0, 3, 4, 6])
        params = make_params(rng, 3)
        h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        vstates = Tensor(rng.normal(size=(3 * count, 3)), requires_grad=True)
        weights = rng.normal(size=(6, 3))

        def loss():
            return weighted_loss(*multi_virtual_node_layer(h, vstates, params, offsets),
                                 weights)

        worst = grad_check(loss, leaves_of(params) + [h, vstates])
        assert worst < 1e-6, f"worst relative gradient error {worst}"

    def test_graphs_do_not_see_each_other(self, count):
        rng = np.random.default_rng(50 + count)
        offsets = ragged_offsets()
        params = make_params(rng, 4)
        h_data = rng.normal(size=(offsets[-1], 4))
        vstates = Tensor(rng.normal(size=(5 * count, 4)))
        out, states = multi_virtual_node_layer(Tensor(h_data), vstates, params, offsets)
        h_data[offsets[2]:offsets[3]] += 10.0          # change graph 2 only
        out_p, states_p = multi_virtual_node_layer(Tensor(h_data), vstates, params, offsets)
        changed = np.abs(out_p.data - out.data).max(axis=1) > 0
        assert changed.tolist() == [offsets[2] <= n < offsets[3] for n in range(offsets[-1])]
        assert np.array_equal(np.delete(states_p.data, np.s_[2 * count:3 * count], axis=0),
                              np.delete(states.data, np.s_[2 * count:3 * count], axis=0))
