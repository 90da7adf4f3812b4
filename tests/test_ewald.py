"""Tests for the Ewald sum matrix and the plain direct-sum reference."""

import json
import math

import numpy as np
import pytest
from scipy.special import erfc

from neural_atoms.ewald import (
    EwaldError,
    EwaldSystem,
    direct_sum_oracle,
    direct_total_energy,
    ewald_sum_matrix,
    interaction_energy,
    lattice_energy,
    load_system,
    write_interaction_heatmap,
)


def damped_madelung_oracle(damping: float) -> float:
    """Rock-salt Madelung constant by Gaussian-damped direct summation.

    Sums (-1)^(x+y+z) exp(-s r^2) / r over integer sites inside a ball of
    radius sqrt(18/s), which keeps the neglected tail below the damping
    error.  The result converges to the per-ion Madelung sum linearly in s,
    so one Richardson step (2 M(s/2) - M(s)) removes the leading error.
    """
    radius = math.sqrt(18.0 / damping)
    n = int(math.ceil(radius))
    ax = np.arange(-n, n + 1)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    r_sq = (x * x + y * y + z * z).astype(np.float64)
    mask = (r_sq > 0) & (r_sq <= radius * radius)
    r = np.sqrt(r_sq[mask])
    sign = np.where((x + y + z)[mask] % 2 == 0, 1.0, -1.0)
    return float((sign * np.exp(-damping * r * r) / r).sum())


def balanced_dipole_free_system(seed: int, splitting: float, real_cutoff: int = 12,
                                recip_cutoff: int = 10) -> EwaldSystem:
    """Four unit charges, net charge zero, cell dipole zero, none wrapped.

    Built as two +/- pairs sharing the same separation vector so the dipole
    cancels inside the cell.  Dipole-free cells are the ones whose
    cube-truncated direct sums actually approach the Ewald energy.
    """
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(0.05, 0.65, 3)
    r2 = rng.uniform(0.35, 0.65, 3)
    w = rng.uniform(0.05, 0.3, 3)
    return EwaldSystem(
        atomic_numbers=np.array([1, 1, -1, -1]),
        positions=np.array([r1, r2, r1 + w, r2 - w]),
        cell_edge=1.0,
        splitting=splitting,
        real_cutoff=real_cutoff,
        recip_cutoff=recip_cutoff,
    )


def rock_salt_system() -> EwaldSystem:
    """Conventional rock-salt cell, edge 2, nearest-neighbour distance 1."""
    plus = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    minus = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    return EwaldSystem(
        atomic_numbers=np.array([1] * 4 + [-1] * 4),
        positions=np.array(plus + minus, dtype=np.float64),
        cell_edge=2.0,
        splitting=1.1,
        real_cutoff=8,
        recip_cutoff=8,
    )


def test_single_image_pair_entry_is_inverse_distance():
    system = EwaldSystem(
        atomic_numbers=np.array([1, 1]),
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        cell_edge=4.0,
        splitting=0.4,
        real_cutoff=1,
        recip_cutoff=1,
    )
    entries = direct_sum_oracle(system, shells=0)
    assert entries[0, 1] == 1.0
    assert entries[1, 0] == 1.0
    assert entries[0, 0] == 0.0 and entries[1, 1] == 0.0


def test_entries_do_not_depend_on_splitting_parameter():
    low = ewald_sum_matrix(balanced_dipole_free_system(7, splitting=0.3))
    high = ewald_sum_matrix(balanced_dipole_free_system(7, splitting=0.5))
    worst = np.abs(low.total - high.total).max()
    assert worst < 1e-4, f"entries moved by {worst} when splitting changed"
    assert abs(interaction_energy(low) - interaction_energy(high)) < 1e-4


def test_decomposition_sums_to_total_and_is_symmetric():
    matrix = ewald_sum_matrix(balanced_dipole_free_system(3, splitting=0.4))
    assert np.array_equal(matrix.total,
                          matrix.short_range + matrix.long_range + matrix.self_interaction)
    for part in (matrix.total, matrix.short_range, matrix.long_range,
                 matrix.self_interaction):
        assert np.array_equal(part, part.T)
    assert np.all(np.diag(matrix.short_range) == 0.0)
    assert np.all(np.diag(matrix.long_range) == 0.0)


def test_diagonal_follows_half_power_convention():
    system = EwaldSystem(
        atomic_numbers=np.array([3, -2, 5]),
        positions=np.array([[0.1, 0.2, 0.3], [0.6, 0.1, 0.4], [0.3, 0.8, 0.9]]),
        cell_edge=1.0,
        splitting=0.4,
        real_cutoff=6,
        recip_cutoff=6,
    )
    matrix = ewald_sum_matrix(system)
    expected = 0.5 * np.abs([3.0, 2.0, 5.0]) ** 2.4
    assert np.allclose(np.diag(matrix.total), expected, rtol=0, atol=0)


def test_doubling_one_charge_doubles_its_cross_terms():
    base = balanced_dipole_free_system(11, splitting=0.4)
    doubled = EwaldSystem(
        atomic_numbers=np.array([2, 1, -1, -1]),
        positions=base.positions.copy(),
        cell_edge=base.cell_edge,
        splitting=base.splitting,
        real_cutoff=base.real_cutoff,
        recip_cutoff=base.recip_cutoff,
    )
    m1 = ewald_sum_matrix(base)
    m2 = ewald_sum_matrix(doubled)
    for j in range(1, 4):
        assert m2.short_range[0, j] == pytest.approx(2.0 * m1.short_range[0, j], rel=1e-12)
        assert m2.long_range[0, j] == pytest.approx(2.0 * m1.long_range[0, j], rel=1e-12)


def test_rigid_translation_leaves_matrix_unchanged():
    base = balanced_dipole_free_system(5, splitting=0.4)
    shifted = EwaldSystem(
        atomic_numbers=base.atomic_numbers.copy(),
        positions=base.positions + np.array([0.37, 0.81, 0.59]),
        cell_edge=base.cell_edge,
        splitting=base.splitting,
        real_cutoff=base.real_cutoff,
        recip_cutoff=base.recip_cutoff,
    )
    m_base = ewald_sum_matrix(base)
    m_shift = ewald_sum_matrix(shifted)
    assert np.abs(m_base.total - m_shift.total).max() < 1e-10


def test_direct_totals_approach_lattice_energy_monotonically():
    system = balanced_dipole_free_system(7, splitting=0.4)
    target = lattice_energy(system)
    gaps = [abs(direct_total_energy(system, shells) - target)
            for shells in (1, 2, 4, 8)]
    for before, after in zip(gaps, gaps[1:]):
        assert after < before, f"direct-sum gaps not shrinking: {gaps}"
    assert gaps[-1] < 1e-3


def test_rock_salt_madelung_matches_independent_damped_sum():
    system = rock_salt_system()
    per_ion = 2.0 * lattice_energy(system) / system.num_atoms
    coarse = damped_madelung_oracle(0.04)
    fine = damped_madelung_oracle(0.02)
    extrapolated = 2.0 * fine - coarse
    assert abs(per_ion - extrapolated) < 1e-3
    # and against the published constant, for good measure
    assert per_ion == pytest.approx(-1.7475645946, abs=1e-8)


def test_reciprocal_truncation_error_is_within_shell_bound():
    base = EwaldSystem(
        atomic_numbers=np.array([2, -1, -1]),
        positions=np.array([[0.5, 0.7, 1.1], [3.2, 2.4, 4.9], [1.9, 4.4, 2.6]]),
        cell_edge=6.0,
        splitting=1.0,
        real_cutoff=8,
        recip_cutoff=6,
    )
    wide = EwaldSystem(
        atomic_numbers=base.atomic_numbers.copy(),
        positions=base.positions.copy(),
        cell_edge=base.cell_edge,
        splitting=base.splitting,
        real_cutoff=base.real_cutoff,
        recip_cutoff=12,
    )
    change = np.abs(ewald_sum_matrix(wide).long_range
                    - ewald_sum_matrix(base).long_range)
    # shell k holds 24k^2 + 2 vectors, each contributing at most
    # (4 pi / V) exp(-g_k^2 / 4a^2) / g_k^2 with g_k = 2 pi k / edge
    bound = 0.0
    for k in range(7, 13):
        g_min = 2.0 * math.pi * k / base.cell_edge
        weight = (4.0 * math.pi / base.volume) * math.exp(
            -g_min * g_min / (4.0 * base.splitting ** 2)) / (g_min * g_min)
        bound += (24 * k * k + 2) * weight
    z = base.atomic_numbers.astype(np.float64)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert change[i, j] <= abs(z[i] * z[j]) * bound


def test_wrapping_maps_positions_into_cell():
    system = EwaldSystem(
        atomic_numbers=np.array([1, -1]),
        positions=np.array([[1.25, -0.5, 3.75], [0.2, 0.3, 0.4]]),
        cell_edge=1.0,
        splitting=0.4,
        real_cutoff=2,
        recip_cutoff=2,
    )
    assert np.allclose(system.positions[0], [0.25, 0.5, 0.75])


def test_system_validation_errors():
    good = dict(positions=np.array([[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]]),
                cell_edge=1.0, splitting=0.4, real_cutoff=2, recip_cutoff=2)
    with pytest.raises(EwaldError, match="nonzero integers"):
        EwaldSystem(atomic_numbers=np.array([1, 0]), **good)
    with pytest.raises(EwaldError, match="nonzero integers"):
        EwaldSystem(atomic_numbers=np.array([1.0, -1.0]), **good)
    with pytest.raises(EwaldError, match="coincide"):
        EwaldSystem(atomic_numbers=np.array([1, -1]),
                    positions=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                    cell_edge=1.0, splitting=0.4, real_cutoff=2, recip_cutoff=2)
    with pytest.raises(EwaldError, match="positive"):
        EwaldSystem(atomic_numbers=np.array([1, -1]), splitting=-0.4,
                    positions=good["positions"], cell_edge=1.0,
                    real_cutoff=2, recip_cutoff=2)
    with pytest.raises(EwaldError, match="at least 1"):
        EwaldSystem(atomic_numbers=np.array([1, -1]), splitting=0.4,
                    positions=good["positions"], cell_edge=1.0,
                    real_cutoff=0, recip_cutoff=2)
    with pytest.raises(EwaldError, match="shape"):
        EwaldSystem(atomic_numbers=np.array([1, -1]),
                    positions=np.zeros((2, 2)), cell_edge=1.0,
                    splitting=0.4, real_cutoff=2, recip_cutoff=2)


def test_system_json_round_trip(tmp_path):
    path = tmp_path / "system.json"
    record = {
        "Z": [1, 1, -1, -1],
        "positions": [[0.1, 0.1, 0.1], [0.4, 0.5, 0.6],
                      [0.2, 0.3, 0.1], [0.3, 0.3, 0.6]],
        "cell_edge": 1.0,
        "a": 0.4,
        "real_cutoff": 6,
        "recip_cutoff": 6,
    }
    path.write_text(json.dumps(record), encoding="utf-8")
    system = load_system(path)
    assert system.num_atoms == 4
    assert system.splitting == 0.4
    assert np.array_equal(system.atomic_numbers, [1, 1, -1, -1])

    record["extra"] = 1
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(EwaldError, match="unknown system keys"):
        load_system(path)

    del record["extra"], record["a"]
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(EwaldError, match="missing system keys"):
        load_system(path)


# (key, a value that must not be coerced, words the error must hold)
UNCOERCED_VALUES = [
    ("Z", [1.5, -1.2], "'Z' must hold integers"),
    ("Z", [True, -1], "'Z' must hold numbers"),
    ("Z", 1, "'Z' must be a list"),
    ("real_cutoff", 2.7, "'real_cutoff' must hold integers"),
    ("recip_cutoff", True, "'recip_cutoff' must hold numbers"),
    ("recip_cutoff", "4", "'recip_cutoff' must hold numbers"),
    ("cell_edge", [1.0], "'cell_edge' must hold numbers"),
    ("a", "0.4", "'a' must hold numbers"),
    ("positions", [[0.1, 0.1, "0.1"], [0.6, 0.6, 0.6]], "'positions' must hold numbers"),
    ("positions", [[0.1, 0.1, False], [0.6, 0.6, 0.6]], "'positions' must hold numbers"),
    ("positions", [[0.1, 0.1], [0.6, 0.6, 0.6]], "'positions' must be a list of"),
    ("positions", [0.1, 0.1, 0.1], "'positions' must be a list of"),
]


def system_record(**changes):
    record = {"Z": [1, -1], "positions": [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]],
              "cell_edge": 1.0, "a": 0.4, "real_cutoff": 4, "recip_cutoff": 4}
    record.update(changes)
    return record


@pytest.mark.parametrize("key, value, message", UNCOERCED_VALUES,
                         ids=[f"{key}={value!r}" for key, value, _ in UNCOERCED_VALUES])
def test_load_system_does_not_coerce_values(tmp_path, key, value, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_record(**{key: value})), encoding="utf-8")
    with pytest.raises(EwaldError, match=message):
        load_system(path)


def test_load_system_accepts_integral_floats(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_record(Z=[1.0, -1.0], real_cutoff=4.0, recip_cutoff=4,
                                             positions=[[0, 0, 0], [1, 1, 1]], cell_edge=2)),
                    encoding="utf-8")
    system = load_system(path)
    assert system.atomic_numbers.dtype == np.int64
    assert system.atomic_numbers.tolist() == [1, -1]
    assert (system.real_cutoff, system.recip_cutoff) == (4, 4)
    assert type(system.real_cutoff) is int and system.cell_edge == 2.0


def test_heatmap_thresholds_small_magnitudes(tmp_path):
    matrix = ewald_sum_matrix(balanced_dipole_free_system(9, splitting=0.4))
    cutoff = float(np.median(np.abs(matrix.total)))
    path = tmp_path / "heat.csv"
    write_interaction_heatmap(matrix, cutoff, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "atom,0,1,2,3"
    values = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    expected = np.abs(matrix.total)
    expected[expected < cutoff] = 0.0
    assert np.array_equal(values, expected)
    assert (values == 0.0).any() and (values > 0.0).any()


def looped_ewald_oracle(system: EwaldSystem) -> tuple[dict, float]:
    """The four matrices and the lattice energy, one atom pair at a time.

    Builds its own lattice and reciprocal shells and sums every pair's
    images in a Python double loop: the straight-line form of the Ewald
    split that the vectorised routine in the package must reproduce.
    """
    def shells(cutoff: int, drop_zero: bool) -> np.ndarray:
        ax = np.arange(-cutoff, cutoff + 1)
        grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        return (grid[(grid != 0).any(axis=1)] if drop_zero else grid).astype(np.float64)

    n, a, edge, volume = system.num_atoms, system.splitting, system.cell_edge, system.volume
    z = system.atomic_numbers.astype(np.float64)
    lattice = shells(system.real_cutoff, drop_zero=False) * edge
    images = shells(system.real_cutoff, drop_zero=True) * edge
    recip = shells(system.recip_cutoff, drop_zero=True) * (2.0 * math.pi / edge)
    g2 = (recip * recip).sum(axis=1)
    recip_factor = (4.0 * math.pi / volume) * np.exp(-g2 / (4.0 * a * a)) / g2
    dist = np.linalg.norm(images, axis=1)
    kappa = float((erfc(a * dist) / dist).sum()) + float(recip_factor.sum())

    short, long_, self_ = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        self_[i, i] = 0.5 * abs(z[i]) ** 2.4
        for j in range(i + 1, n):
            d = system.positions[i] - system.positions[j]
            r = np.linalg.norm(d + lattice, axis=1)
            short[i, j] = short[j, i] = z[i] * z[j] * float((erfc(a * r) / r).sum())
            long_[i, j] = long_[j, i] = z[i] * z[j] * float((recip_factor * np.cos(recip @ d)).sum())
            z_sq = z[i] * z[i] + z[j] * z[j]
            self_[i, j] = self_[j, i] = (-z_sq * a / math.sqrt(math.pi)
                                         - (z[i] + z[j]) ** 2 * math.pi / (2.0 * a * a * volume)
                                         + 0.5 * z_sq * kappa)
    energy = (0.5 * float((short + long_).sum())
              + float((z * z).sum()) * (0.5 * kappa - a / math.sqrt(math.pi))
              - math.pi / (2.0 * a * a * volume) * float(z.sum()) ** 2)
    matrices = {"total": short + long_ + self_, "short_range": short,
                "long_range": long_, "self_interaction": self_}
    return matrices, energy


def random_mixed_system(seed: int) -> EwaldSystem:
    """2-14 charges mixing real elements and signed surrogates, cutoffs 1-5."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    charges = rng.choice([-3, -2, -1, 1, 2, 3, 6, 8, 11, 17], size=n)
    edge = float(rng.uniform(0.5, 4.0))
    return EwaldSystem(atomic_numbers=charges,
                       positions=rng.uniform(-edge, 2.0 * edge, size=(n, 3)),
                       cell_edge=edge, splitting=float(rng.uniform(0.5, 4.0)) / edge,
                       real_cutoff=int(rng.integers(1, 6)), recip_cutoff=int(rng.integers(1, 6)))


@pytest.mark.parametrize("seed", range(16))
def test_matrices_and_lattice_energy_match_looped_oracle(seed):
    system = random_mixed_system(seed)
    expected, energy = looped_ewald_oracle(system)
    got = ewald_sum_matrix(system)
    for name, want in expected.items():
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(getattr(got, name), want, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)
    assert lattice_energy(system) == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_coincident_atoms_are_named_in_any_order():
    positions = np.array([[0.5, 0.125, 0.125], [0.25, 0.375, 0.5], [0.125, 0.25, 0.375],
                          [1.25, 1.375, -0.5]])
    with pytest.raises(EwaldError, match="atoms 1 and 3 coincide"):
        EwaldSystem(atomic_numbers=np.array([1, -1, 1, -1]), positions=positions,
                    cell_edge=1.0, splitting=0.4, real_cutoff=2, recip_cutoff=2)


@pytest.mark.parametrize("changes, message", [
    (dict(atomic_numbers=np.array([], dtype=np.int64), positions=np.zeros((0, 3))), "non-empty"),
    (dict(cell_edge=0.0), "cell_edge must be positive"),
    (dict(cell_edge=-1.5), "cell_edge must be positive"),
], ids=["empty Z", "zero cell_edge", "negative cell_edge"])
def test_system_rejects_empty_z_and_non_positive_cell_edge(changes, message):
    system = dict(atomic_numbers=np.array([1, -1]),
                  positions=np.array([[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]]),
                  cell_edge=1.0, splitting=0.4, real_cutoff=2, recip_cutoff=2)
    system.update(changes)
    with pytest.raises(EwaldError, match=message):
        EwaldSystem(**system)


def test_system_file_must_hold_an_object(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([system_record()]), encoding="utf-8")
    with pytest.raises(EwaldError, match="JSON object"):
        load_system(path)


@pytest.mark.parametrize("threshold", [-0.1, float("nan")])
def test_heatmap_rejects_negative_or_nan_threshold(tmp_path, threshold):
    matrix = ewald_sum_matrix(balanced_dipole_free_system(9, splitting=0.4))
    path = tmp_path / "heat.csv"
    with pytest.raises(EwaldError, match="threshold must be non-negative"):
        write_interaction_heatmap(matrix, threshold, path)
    assert not path.exists()


def test_coordinate_wrapped_onto_the_cell_edge_is_the_site_at_zero():
    with pytest.raises(EwaldError, match="atoms 0 and 1 coincide"):
        EwaldSystem(atomic_numbers=np.array([1, -1]),
                    positions=np.array([[-1e-17, 0.5, 0.5], [0.0, 0.5, 0.5]]),
                    cell_edge=1.0, splitting=2.0, real_cutoff=2, recip_cutoff=2)
    system = EwaldSystem(atomic_numbers=np.array([1, -1]),
                         positions=np.array([[-1e-17, 0.5, 0.5], [0.5, 0.5, 0.5]]),
                         cell_edge=1.0, splitting=2.0, real_cutoff=2, recip_cutoff=2)
    assert system.positions[0].tolist() == [0.0, 0.5, 0.5]
