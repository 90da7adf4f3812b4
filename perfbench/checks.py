"""Correctness checks the benchmark applies to the program's outputs.

Every check compares against a computation made here with plain numpy, or
against a property the method must have; none compares against a saved
copy of earlier output.  A check raises :class:`CheckFailed` naming what
went wrong.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

TOLERANCE = 1e-10
# Lengths of the finite-difference step in parameter space, tried in turn
GRADIENT_STEPS = (1e-5, 1e-6, 1e-7)
GRADIENT_TOLERANCE = 1e-6  # gap between the two directional derivatives over |gradient|


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def classification_metrics(logits: np.ndarray, labels: Sequence[int]) -> dict[str, float]:
    """Mean softmax cross-entropy and argmax accuracy of (G, C) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    losses = log_norm - shifted[np.arange(len(labels)), labels]
    correct = int((logits.argmax(axis=1) == labels).sum())
    return {"loss": float(losses.mean()), "accuracy": correct / len(labels)}


def reciprocal_ranks(scores: Sequence[np.ndarray], flags: Sequence[np.ndarray]) -> list[float]:
    """1/rank of each positive pair among its own graph's negatives.

    A positive ranks 1 plus the number of negatives scoring strictly
    higher, so a tie goes to the positive.
    """
    out = []
    for graph_scores, graph_flags in zip(scores, flags):
        graph_scores = np.asarray(graph_scores, dtype=np.float64)
        graph_flags = np.asarray(graph_flags)
        negatives = graph_scores[graph_flags == 0]
        for value in graph_scores[graph_flags == 1]:
            out.append(1.0 / (1 + int((negatives > value).sum())))
    return out


def contact_metrics(scores: Sequence[np.ndarray], flags: Sequence[np.ndarray]) -> dict[str, float]:
    """Mean binary cross-entropy over every labelled pair, and the MRR."""
    s = np.concatenate([np.asarray(x, dtype=np.float64) for x in scores])
    y = np.concatenate([np.asarray(f, dtype=np.float64) for f in flags])
    losses = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    return {"loss": float(losses.mean()), "mrr": float(np.mean(reciprocal_ranks(scores, flags)))}


def check_metrics_match(reported: dict[str, float], recomputed: dict[str, float]) -> None:
    """``evaluate``'s metrics equal the ones recomputed from raw outputs."""
    if set(reported) != set(recomputed):
        raise CheckFailed(f"metric names {sorted(reported)} != {sorted(recomputed)}")
    for name, value in recomputed.items():
        if not abs(reported[name] - value) <= TOLERANCE:
            raise CheckFailed(f"{name}: evaluate reports {reported[name]!r}, "
                              f"recomputed {value!r}")


def check_batched_matches_alone(batched: Sequence[np.ndarray], alone: Sequence[np.ndarray]) -> None:
    """Each graph's outputs inside a batch equal its outputs scored alone.

    Graphs in a batch never exchange information, so batching must not
    change any graph's outputs.
    """
    if len(batched) != len(alone):
        raise CheckFailed(f"{len(batched)} batched graphs against {len(alone)} alone")
    for g, (a, b) in enumerate(zip(batched, alone)):
        if np.shape(a) != np.shape(b):
            raise CheckFailed(f"graph {g}: batched shape {np.shape(a)} != alone {np.shape(b)}")
        gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
        if not gap <= TOLERANCE:
            raise CheckFailed(f"graph {g}: batched outputs differ from alone by {gap:.3g}")


def check_allocations(traces) -> None:
    """Every atom's allocation over its graph's nodes sums to 1.

    ``traces`` holds, per layer, one trace per graph with the per-head
    (K, N) allocations and their (N, K) head mean.
    """
    for layer, layer_traces in enumerate(traces):
        for g, trace in enumerate(layer_traces):
            for m, alloc in enumerate(trace.allocation_per_head):
                gap = float(np.max(np.abs(np.asarray(alloc).sum(axis=1) - 1.0)))
                if not gap <= TOLERANCE:
                    raise CheckFailed(f"layer {layer} graph {g} head {m}: an atom's "
                                      f"allocation sum is {gap:.3g} away from 1")
            gap = float(np.max(np.abs(np.asarray(trace.node_allocation).sum(axis=0) - 1.0)))
            if not gap <= TOLERANCE:
                raise CheckFailed(f"layer {layer} graph {g}: a node-allocation column "
                                  f"sum is {gap:.3g} away from 1")


def check_identical(first: dict, second: dict, what: str) -> None:
    if first != second:
        raise CheckFailed(f"{what}: {first} != {second}")


def check_gradient(loss_at: Callable[[], float], params: Sequence[np.ndarray],
                   grads: Sequence[np.ndarray], direction: Sequence[np.ndarray]) -> None:
    """``grads`` is the gradient of ``loss_at`` along ``direction``.

    Compares sum(grad * v) with the central difference
    (L(p + h v) - L(p - h v)) / 2h, for v the unit-length ``direction``
    over all parameters.  The gap is taken relative to the gradient's norm,
    the largest directional derivative, so a direction nearly orthogonal to
    the gradient does not inflate it.

    The loss is only piecewise smooth: a ReLU input that changes sign
    between p - h v and p + h v puts a kink in the segment, and the central
    difference across it is off by a share of the jump in slope, however
    right the gradient is.  So each of ``GRADIENT_STEPS`` is tried in turn,
    and the check passes at the first whose gap is within tolerance.  A
    wrong gradient is off by the same amount at every step, so it fails at
    all of them.  ``params`` are moved in place and restored.
    """
    norm = float(np.sqrt(sum(float((d * d).sum()) for d in direction)))
    unit = [d / norm for d in direction]
    predicted = sum(float((g * v).sum()) for g, v in zip(grads, unit))
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    saved = [p.copy() for p in params]

    def loss_shifted(shift: float) -> float:
        for p, s, v in zip(params, saved, unit):
            p[...] = s + shift * v
        return loss_at()

    gaps = []
    try:
        for step in GRADIENT_STEPS:
            measured = (loss_shifted(step) - loss_shifted(-step)) / (2 * step)
            gaps.append(abs(measured - predicted) / max(grad_norm, abs(measured), 1e-300))
            if gaps[-1] <= GRADIENT_TOLERANCE:
                return
    finally:
        for p, s in zip(params, saved):
            p[...] = s
    raise CheckFailed(f"the gradient gives a directional derivative of {predicted!r}; "
                      f"the relative gaps to central differences with steps "
                      f"{GRADIENT_STEPS} are {', '.join(f'{g:.3g}' for g in gaps)}")


def check_parameters_moved(initial: Sequence[np.ndarray], trained: Sequence[np.ndarray],
                           grads: Sequence[np.ndarray]) -> None:
    """Training changed every parameter the loss has a gradient for."""
    for i, (before, after, grad) in enumerate(zip(initial, trained, grads)):
        if np.any(grad != 0) and np.array_equal(before, after):
            raise CheckFailed(f"parameter {i} has a gradient but training left it unchanged")
