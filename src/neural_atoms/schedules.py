"""Per-layer neural-atom budgets.

Three strategies decide how many atoms each of the stacked blocks gets,
all anchored to the average node count of the training set:

* ``fixed``        every layer gets floor(proportion * avg_nodes),
* ``decremental``  the first layer gets the fixed budget and each later
                   layer gets floor(proportion * previous_count),
* ``incremental``  the decremental sequence reversed, so budgets grow
                   with depth.

Every count is clamped to at least one atom after flooring.
"""

from __future__ import annotations

import math

from .validate import choice, integer

STRATEGIES = ("fixed", "decremental", "incremental")


class ScheduleError(ValueError):
    """Invalid strategy name or out-of-range schedule inputs."""


def compute_k_schedule(strategy: str, proportion: float, avg_nodes: float,
                       n_layers: int) -> list[int]:
    """Atom counts for each of ``n_layers`` blocks; every count is >= 1."""
    choice(strategy, "strategy", STRATEGIES, ScheduleError)
    if not (0.0 < proportion <= 1.0):
        raise ScheduleError(f"proportion must lie in (0, 1], got {proportion}")
    if avg_nodes < 1.0:
        raise ScheduleError(f"avg_nodes must be at least 1, got {avg_nodes}")
    n_layers = integer(n_layers, "n_layers", ScheduleError, minimum=1)

    anchor = max(1, math.floor(proportion * avg_nodes))
    if strategy == "fixed":
        counts = [anchor] * n_layers
    else:
        counts = [anchor]
        for _ in range(n_layers - 1):
            counts.append(max(1, math.floor(proportion * counts[-1])))
        if strategy == "incremental":
            counts.reverse()
    return counts
