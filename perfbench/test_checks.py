"""Tests of the benchmark's own checks, oracles, generators and span arithmetic.

Run with ``python3 -m pytest -q perfbench``; they take a few seconds.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from checks import (CheckFailed, check_allocations, check_batched_matches_alone, check_gradient,
                    check_identical, check_metrics_match, check_parameters_moved,
                    classification_metrics, contact_metrics, reciprocal_ranks)
from tracing import Tracer
from workloads import LRI_COLORS, LRI_PATH_LEN, contact_graph, lri_graphs


def softplus(x):
    return math.log1p(math.exp(x))


# ---------------------------------------------------------------- oracles


def test_classification_oracle_matches_hand_values():
    got = classification_metrics(np.array([[0.0, 0.0], [2.0, 0.0]]), [1, 0])
    # row 0: log(e^0 + e^0) - 0; row 1: log(e^2 + e^0) - 2; the tie argmaxes to class 0
    assert got["loss"] == pytest.approx((math.log(2.0) + softplus(-2.0)) / 2, abs=1e-15)
    assert got["accuracy"] == 0.5


def test_reciprocal_ranks_give_ties_to_the_positive():
    scores = [np.array([3.0, 1.0, 2.0]), np.array([0.5, 0.5, 1.0])]
    flags = [np.array([1, 0, 0]), np.array([1, 0, 0])]
    assert reciprocal_ranks(scores, flags) == [1.0, 0.5]


def test_contact_oracle_matches_hand_values():
    scores = [np.array([3.0, 1.0, 2.0]), np.array([0.5, 0.5, 1.0])]
    flags = [np.array([1, 0, 0]), np.array([1, 0, 0])]
    got = contact_metrics(scores, flags)
    losses = [softplus(-3.0), softplus(1.0), softplus(2.0),
              softplus(-0.5), softplus(0.5), softplus(1.0)]
    assert got["loss"] == pytest.approx(sum(losses) / 6, abs=1e-15)
    assert got["mrr"] == 0.75


# ------------------------------------------------------- corrupted outputs


def test_shuffled_pair_scores_are_rejected():
    scores = [np.array([3.0, 1.0, 2.0]), np.array([0.2, -1.0, 0.7])]
    flags = [np.array([1, 0, 0]), np.array([0, 1, 0])]
    reported = contact_metrics(scores, flags)
    shuffled = [scores[0][[1, 0, 2]], scores[1]]
    check_batched_matches_alone(scores, [s.copy() for s in scores])
    with pytest.raises(CheckFailed):
        check_batched_matches_alone(shuffled, scores)
    check_metrics_match(reported, contact_metrics(scores, flags))
    with pytest.raises(CheckFailed):
        check_metrics_match(reported, contact_metrics(shuffled, flags))


def test_logit_row_from_another_graph_is_rejected():
    logits = [np.array([0.3, -0.2]), np.array([1.5, 0.1]), np.array([-0.4, 0.9])]
    swapped = [logits[0], logits[2], logits[2]]
    with pytest.raises(CheckFailed):
        check_batched_matches_alone(swapped, logits)
    labels = [0, 0, 1]
    with pytest.raises(CheckFailed):
        check_metrics_match(classification_metrics(np.stack(logits), labels),
                            classification_metrics(np.stack(swapped), labels))


def _trace(rng, atoms=3, nodes=5, heads=2):
    per_head = []
    for _ in range(heads):
        w = rng.random((atoms, nodes))
        per_head.append(w / w.sum(axis=1, keepdims=True))
    return SimpleNamespace(allocation_per_head=per_head,
                           node_allocation=(sum(per_head) / heads).T)


def test_allocation_column_that_does_not_sum_to_one_is_rejected():
    rng = np.random.default_rng(0)
    traces = [[_trace(rng), _trace(rng, nodes=1)], [_trace(rng), _trace(rng, nodes=7)]]
    check_allocations(traces)
    traces[1][1].node_allocation[:, 2] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        check_allocations(traces)
    traces = [[_trace(rng)]]
    traces[0][0].allocation_per_head[1][0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        check_allocations(traces)


def test_metric_mismatches_are_rejected():
    with pytest.raises(CheckFailed):
        check_metrics_match({"loss": 0.1, "accuracy": 1.0}, {"loss": 0.1, "mrr": 1.0})
    with pytest.raises(CheckFailed):
        check_metrics_match({"loss": 0.1}, {"loss": float("nan")})
    with pytest.raises(CheckFailed):
        check_identical({"loss": 0.1}, {"loss": 0.1 + 2e-17}, "round trip")


def _logistic_problem():
    """A smooth loss of two parameter arrays, with its exact gradient."""
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((20, 3)), rng.integers(2, size=20)
    params = [rng.standard_normal((3, 2)), rng.standard_normal(2)]

    def loss_at():
        return classification_metrics(x @ params[0] + params[1], y)["loss"]

    logits = x @ params[0] + params[1]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(20), y] -= 1.0
    grads = [x.T @ probs / 20, probs.sum(axis=0) / 20]
    direction = [rng.standard_normal(p.shape) for p in params]
    return loss_at, params, grads, direction


def test_exact_gradient_passes_and_parameters_are_restored():
    loss_at, params, grads, direction = _logistic_problem()
    before = [p.copy() for p in params]
    check_gradient(loss_at, params, grads, direction)
    assert all(np.array_equal(a, b) for a, b in zip(before, params))


@pytest.mark.parametrize("corrupt", [
    lambda g: [np.zeros_like(x) for x in g],
    lambda g: [x * 1.001 for x in g],
    lambda g: [g[0], g[1] + 1e-4],
])
def test_corrupted_gradient_is_rejected(corrupt):
    loss_at, params, grads, direction = _logistic_problem()
    with pytest.raises(CheckFailed):
        check_gradient(loss_at, params, corrupt(grads), direction)


def test_gradient_next_to_a_relu_kink_passes_at_a_shorter_step():
    # relu(w0) has its kink 4.2e-6 behind w along the direction, inside the
    # first step but outside the shorter ones.
    params = [np.array([3e-6, 0.7])]

    def loss_at():
        w = params[0]
        return max(w[0], 0.0) + 0.5 * w[1] ** 2

    direction = [np.array([1.0, 1.0])]
    check_gradient(loss_at, params, [np.array([1.0, 0.7])], direction)
    with pytest.raises(CheckFailed):
        check_gradient(loss_at, params, [np.array([1.0, 0.7 * 1.001])], direction)
    with pytest.raises(CheckFailed):
        check_gradient(loss_at, params, [np.array([0.0, 0.7])], direction)


def test_untrained_parameter_is_rejected():
    initial = [np.ones(3), np.zeros(2)]
    grads = [np.full(3, 0.1), np.zeros(2)]
    check_parameters_moved(initial, [np.ones(3) * 0.9, np.zeros(2)], grads)
    with pytest.raises(CheckFailed):
        check_parameters_moved(initial, [np.ones(3), np.zeros(2)], grads)


# -------------------------------------------------------------- generators


def test_lri_graphs_are_seeded_and_labelled_by_their_endpoints():
    first = lri_graphs(40, np.random.default_rng([3, 0]))
    assert first == lri_graphs(40, np.random.default_rng([3, 0]))
    assert sum(r["graph_label"] for r in first) == 20
    for r in first:
        feats = np.array(r["node_feats"])
        assert r["num_nodes"] == LRI_PATH_LEN and feats.shape == (LRI_PATH_LEN, LRI_COLORS + 1)
        assert feats[1:-1, :LRI_COLORS].sum() == 0
        same = feats[0, :LRI_COLORS].argmax() == feats[-1, :LRI_COLORS].argmax()
        assert r["graph_label"] == int(same)


def _hops(record, u, v):
    adjacency = {i: set() for i in range(record["num_nodes"])}
    for a, b in record["edges"]:
        adjacency[a].add(b)
        adjacency[b].add(a)
    frontier, seen, hops = {u}, {u}, 0
    while v not in frontier:
        frontier = {w for x in frontier for w in adjacency[x]} - seen
        seen |= frontier
        hops += 1
    return hops


def test_contact_graphs_have_the_stated_make_up():
    rng = np.random.default_rng([5, 0])
    records = [contact_graph(rng) for _ in range(10)]
    again = np.random.default_rng([5, 0])
    assert [contact_graph(again) for _ in range(10)] == records
    for r in records:
        n = r["num_nodes"]
        assert 40 <= n <= 160
        assert len(r["edges"]) >= n - 1
        assert len({tuple(sorted(e)) for e in r["edges"]}) == len(r["edges"])
        flags = [hit for _, _, hit in r["pair_labels"]]
        assert sorted(flags) == [0] * 8 + [1] * 4
        for u, v, hit in r["pair_labels"]:
            hops = _hops(r, u, v)
            assert 2 <= hops <= 3 if hit else hops >= 6


# ---------------------------------------------------------------- tracing


def test_self_time_is_span_time_minus_direct_children():
    tracer = Tracer()
    tracer.spans = [["model.forward", "train", 0.0, 10.0, -1],
                    ["gnn.forward", "train", 1.0, 4.0, 0],
                    ["gnn.forward", "train", 5.0, 6.0, 0],
                    ["graphs.merged_graph", "train", 2.0, 3.0, 1]]
    total, own, calls = tracer.totals()
    assert own["train", "model.forward"] == 6.0
    assert total["train", "gnn.forward"] == 4.0
    assert own["train", "gnn.forward"] == 3.0
    assert calls["train", "gnn.forward"] == 2
