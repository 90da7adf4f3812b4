"""Ewald sum matrix: analytic pairwise interaction strengths in a periodic box.

Each off-diagonal entry is the electrostatic energy of the sub-crystal
containing just atoms i and j (with a neutralising background), split into

* ``short_range``   the erfc-damped real-space image sum,
* ``long_range``    the Gaussian-filtered reciprocal-space sum,
* ``self_interaction``  the distance-independent constants: the Gaussian
  self/background correction plus each atom's interaction with its own
  periodic images.

Splitting an entry this way makes it independent of the splitting parameter
``a`` once the cutoffs are converged: ``a`` only moves weight between the
three parts.  Diagonal entries follow the familiar half-Z^2.4 convention
from Coulomb-matrix descriptors and live in ``self_interaction``.

Charges are in units of the elementary charge and energies come out in
Gaussian units (e^2 per length unit).  Cells are cubic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .files import replacing

SQRT_PI = math.sqrt(math.pi)

_SYSTEM_KEYS = {"Z", "positions", "cell_edge", "a", "real_cutoff", "recip_cutoff"}


class EwaldError(ValueError):
    """Invalid system description or degenerate geometry."""


def _integer_shells(cutoff: int, drop_zero: bool) -> np.ndarray:
    """All integer triples with max-norm <= cutoff, optionally without 0."""
    ax = np.arange(-cutoff, cutoff + 1)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    if drop_zero:
        grid = grid[(grid != 0).any(axis=1)]
    return grid.astype(np.float64)


@dataclass
class EwaldSystem:
    """A cubic periodic cell of point charges plus summation controls.

    ``atomic_numbers`` are nonzero integers: positive for real elements,
    and signed surrogate charges (for example +1/-1) are accepted so that
    charge-balanced verification systems can be expressed.
    """

    atomic_numbers: np.ndarray
    positions: np.ndarray
    cell_edge: float
    splitting: float
    real_cutoff: int
    recip_cutoff: int

    def __post_init__(self):
        z = np.asarray(self.atomic_numbers)
        if z.ndim != 1 or z.size < 1:
            raise EwaldError("Z must be a non-empty 1-D integer array")
        if not np.issubdtype(z.dtype, np.integer) or (z == 0).any():
            raise EwaldError("atomic numbers must be nonzero integers")
        self.atomic_numbers = z.astype(np.int64)
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (z.size, 3) or not np.isfinite(pos).all():
            raise EwaldError(f"positions must be finite with shape ({z.size}, 3)")
        if not (self.cell_edge > 0.0 and math.isfinite(self.cell_edge)):
            raise EwaldError(f"cell_edge must be positive, got {self.cell_edge}")
        if not (self.splitting > 0.0 and math.isfinite(self.splitting)):
            raise EwaldError(f"splitting parameter must be positive, got {self.splitting}")
        if self.real_cutoff < 1 or self.recip_cutoff < 1:
            raise EwaldError("cutoffs must be at least 1 shell")
        self.positions = pos - np.floor(pos / self.cell_edge) * self.cell_edge
        for i in range(z.size):
            for j in range(i + 1, z.size):
                if np.array_equal(self.positions[i], self.positions[j]):
                    raise EwaldError(f"atoms {i} and {j} coincide after wrapping")

    @property
    def num_atoms(self) -> int:
        return self.atomic_numbers.size

    @property
    def volume(self) -> float:
        return self.cell_edge ** 3


def _number(value, key: str, integral: bool = False):
    """``value`` of system key ``key`` as a float, or an int when ``integral``.

    A bool, a string or a list is an error, as is a non-integral number
    where an integer belongs; an integral float such as 2.0 is an integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EwaldError(f"system key {key!r} must hold numbers, got {value!r}")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise EwaldError(f"system key {key!r} must hold integers, got {value!r}")
    return int(value)


def _number_list(value, key: str, integral: bool = False) -> list:
    if not isinstance(value, list):
        raise EwaldError(f"system key {key!r} must be a list, got {value!r}")
    return [_number(v, key, integral) for v in value]


def load_system(path) -> EwaldSystem:
    """Read a system description from JSON; unknown keys are rejected.

    Values are not coerced: ``Z`` is a list of integers, ``positions`` a
    list of [x, y, z] rows, ``cell_edge`` and ``a`` numbers and the two
    cutoffs integers.
    """
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise EwaldError("system file must hold a JSON object")
    unknown = set(record) - _SYSTEM_KEYS
    if unknown:
        raise EwaldError(f"unknown system keys {sorted(unknown)}")
    missing = _SYSTEM_KEYS - set(record)
    if missing:
        raise EwaldError(f"missing system keys {sorted(missing)}")
    rows = record["positions"]
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != 3 for r in rows):
        raise EwaldError("system key 'positions' must be a list of [x, y, z] rows")
    return EwaldSystem(
        atomic_numbers=np.array(_number_list(record["Z"], "Z", integral=True), dtype=np.int64),
        positions=np.array([_number_list(r, "positions") for r in rows]).reshape(-1, 3),
        cell_edge=_number(record["cell_edge"], "cell_edge"),
        splitting=_number(record["a"], "a"),
        real_cutoff=_number(record["real_cutoff"], "real_cutoff", integral=True),
        recip_cutoff=_number(record["recip_cutoff"], "recip_cutoff", integral=True),
    )


@dataclass
class EwaldMatrix:
    """Total interaction matrix and its three-way decomposition.

    ``total`` is built as the elementwise sum of the parts, all four
    matrices are symmetric, and the decomposition diagonals are zero except
    for the half-Z^2.4 convention held by ``self_interaction``.
    """

    total: np.ndarray
    short_range: np.ndarray
    long_range: np.ndarray
    self_interaction: np.ndarray


def _image_constants(system: EwaldSystem) -> tuple[float, float]:
    """(kappa_real, kappa_recip): one atom's unit-charge lattice-image sums."""
    a = system.splitting
    edge = system.cell_edge
    shells = _integer_shells(system.real_cutoff, drop_zero=True) * edge
    dist = np.linalg.norm(shells, axis=1)
    kappa_real = float((erfc(a * dist) / dist).sum())

    g = _integer_shells(system.recip_cutoff, drop_zero=True) * (2.0 * math.pi / edge)
    g2 = (g * g).sum(axis=1)
    kappa_recip = float(((4.0 * math.pi / system.volume)
                         * np.exp(-g2 / (4.0 * a * a)) / g2).sum())
    return kappa_real, kappa_recip


def ewald_sum_matrix(system: EwaldSystem) -> EwaldMatrix:
    """Compute the interaction matrix with its short/long/self decomposition."""
    n = system.num_atoms
    z = system.atomic_numbers.astype(np.float64)
    a = system.splitting
    volume = system.volume

    lattice = _integer_shells(system.real_cutoff, drop_zero=False) * system.cell_edge
    recip = _integer_shells(system.recip_cutoff, drop_zero=True) * (2.0 * math.pi / system.cell_edge)
    g2 = (recip * recip).sum(axis=1)
    recip_factor = (4.0 * math.pi / volume) * np.exp(-g2 / (4.0 * a * a)) / g2
    kappa_real, kappa_recip = _image_constants(system)

    short = np.zeros((n, n))
    long_ = np.zeros((n, n))
    self_ = np.zeros((n, n))
    for i in range(n):
        self_[i, i] = 0.5 * abs(z[i]) ** 2.4
        for j in range(i + 1, n):
            d = system.positions[i] - system.positions[j]
            r = np.linalg.norm(d + lattice, axis=1)
            zz = z[i] * z[j]
            short[i, j] = zz * float((erfc(a * r) / r).sum())
            long_[i, j] = zz * float((recip_factor * np.cos(recip @ d)).sum())
            z_sq = z[i] * z[i] + z[j] * z[j]
            self_[i, j] = (-z_sq * a / SQRT_PI
                           - (z[i] + z[j]) ** 2 * math.pi / (2.0 * a * a * volume)
                           + 0.5 * z_sq * (kappa_real + kappa_recip))
            short[j, i] = short[i, j]
            long_[j, i] = long_[i, j]
            self_[j, i] = self_[i, j]

    return EwaldMatrix(total=short + long_ + self_, short_range=short,
                       long_range=long_, self_interaction=self_)


def interaction_energy(matrix: EwaldMatrix) -> float:
    """Half the off-diagonal sum: the total pairwise interaction strength."""
    off = matrix.total - np.diag(np.diag(matrix.total))
    return 0.5 * float(off.sum())


def lattice_energy(system: EwaldSystem) -> float:
    """The physical electrostatic energy per cell of the full periodic system.

    This is the textbook Ewald total: all cross pair terms plus each atom's
    interaction with its own images, the Gaussian self correction, and the
    uniform-background correction for a net-charged cell.
    """
    matrix = ewald_sum_matrix(system)
    z = system.atomic_numbers.astype(np.float64)
    a = system.splitting
    kappa_real, kappa_recip = _image_constants(system)
    cross = 0.5 * float((matrix.short_range + matrix.long_range).sum())
    per_atom = float((z * z).sum()) * (0.5 * (kappa_real + kappa_recip) - a / SQRT_PI)
    background = -math.pi / (2.0 * a * a * system.volume) * float(z.sum()) ** 2
    return cross + per_atom + background


def direct_sum_oracle(system: EwaldSystem, shells: int) -> np.ndarray:
    """Plain 1/r image sums with no range splitting, truncated at ``shells``.

    Entry (i, j) sums Z_i Z_j / |r_i - r_j + L| over all lattice vectors L
    with integer coordinates of max-norm at most ``shells``; the L = 0 term
    is skipped on the diagonal.  Individual entries diverge as shells grow;
    only charge-balanced totals converge, which is what the trend tests use.
    """
    if shells < 0:
        raise EwaldError("shells must be non-negative")
    n = system.num_atoms
    z = system.atomic_numbers.astype(np.float64)
    lattice = _integer_shells(shells, drop_zero=False) * system.cell_edge if shells > 0 \
        else np.zeros((1, 3))
    nonzero = (lattice != 0.0).any(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = system.positions[i] - system.positions[j]
            r = np.linalg.norm(d + lattice, axis=1)
            if i == j:
                r = r[nonzero]
            out[i, j] = out[j, i] = z[i] * z[j] * float((1.0 / r).sum()) if r.size else 0.0
    return out


def direct_total_energy(system: EwaldSystem, shells: int) -> float:
    """Half the full matrix sum of the direct oracle (self images counted once)."""
    return 0.5 * float(direct_sum_oracle(system, shells).sum())


def write_interaction_heatmap(matrix: EwaldMatrix, threshold: float, path) -> None:
    """CSV of |total| entries with values below ``threshold`` zeroed.

    The file takes the place of ``path`` only once every row is written.
    """
    if threshold < 0.0:
        raise EwaldError("threshold must be non-negative")
    magnitudes = np.abs(matrix.total)
    magnitudes[magnitudes < threshold] = 0.0
    n = magnitudes.shape[0]
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atom"] + [str(j) for j in range(n)])
        for i in range(n):
            writer.writerow([i] + [repr(float(v)) for v in magnitudes[i]])
