"""K-schedule tests, including hypothesis sweeps over the input space.

The schedule trusts its inputs: ``TrainConfig`` refuses a bad strategy,
proportion or layer count, and ``GraphPropertyModel`` an ``avg_nodes`` below 1.
"""

import math

from hypothesis import given, strategies as st

from neural_atoms.model import STRATEGIES, compute_k_schedule


class TestFrozenValues:
    def test_fixed_reference_point(self):
        # floor(0.15 * 150.94) = floor(22.641) = 22, five layers
        got = compute_k_schedule("fixed", 0.15, 150.94, 5)
        assert got == [22, 22, 22, 22, 22]

    def test_decremental_halving(self):
        # floor chain from 40 at one half: 20, 10, 5
        got = compute_k_schedule("decremental", 0.5, 40, 3)
        assert got == [20, 10, 5]

    def test_incremental_is_reversed_decremental(self):
        dec = compute_k_schedule("decremental", 0.5, 40, 3)
        inc = compute_k_schedule("incremental", 0.5, 40, 3)
        assert inc == list(reversed(dec))

    def test_small_proportion_clamps_to_one(self):
        got = compute_k_schedule("decremental", 0.01, 10, 4)
        assert got == [1, 1, 1, 1]


@given(
    strategy=st.sampled_from(STRATEGIES),
    proportion=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    avg_nodes=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    n_layers=st.integers(min_value=1, max_value=12),
)
def test_schedule_properties(strategy, proportion, avg_nodes, n_layers):
    got = compute_k_schedule(strategy, proportion, avg_nodes, n_layers)
    assert isinstance(got, list)
    assert len(got) == n_layers
    assert all(isinstance(k, int) and k >= 1 for k in got)
    assert max(got) <= max(1, math.floor(proportion * avg_nodes))
    if strategy == "decremental":
        assert all(a >= b for a, b in zip(got, got[1:]))
    if strategy == "incremental":
        assert all(a <= b for a, b in zip(got, got[1:]))
    if strategy == "fixed":
        assert len(set(got)) == 1
