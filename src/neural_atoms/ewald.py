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

import math
from dataclasses import dataclass

import numpy as np

from .files import read_object, write_table
from .validate import integer, number

SQRT_PI = math.sqrt(math.pi)
erfc = np.vectorize(math.erfc, otypes=[np.float64])
# 20 shells are 41^3 = 68,921 lattice vectors, 1.7 MB of distances per atom in a row.
# For 0.3 <= a * cell_edge <= 10 the first omitted real and reciprocal terms are then
# below 1e-16 of the leading ones, and criterion 6 converges at 12: more shells buy
# only memory, and a cutoff of 400 would ask for 4 GB.
_MAX_SHELLS = 20
# With cell_edge and a * cell_edge within these bounds, every term of the sums is a
# finite float for 64-bit Z and up to _MAX_SHELLS; outside, the volume overflows or a
# Gaussian exponent or the background term divides by zero.
_SCALES = (1e-50, 1e50)

# in the order of EwaldSystem's fields, where Z and a are atomic_numbers and splitting
_SYSTEM_KEYS = ("Z", "positions", "cell_edge", "a", "real_cutoff", "recip_cutoff")


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

    ``atomic_numbers`` are nonzero 64-bit integers: positive for elements,
    and signed surrogate charges (for example +1/-1) are accepted so that
    charge-balanced verification systems can be expressed.  Every entry of
    both arrays, as given, passes the rule of :mod:`neural_atoms.validate`,
    so an integral float such as 1.0 is an atomic number whether it comes
    in a list or in a float array.
    """

    atomic_numbers: np.ndarray
    positions: np.ndarray
    cell_edge: float
    splitting: float
    real_cutoff: int
    recip_cutoff: int

    def __post_init__(self):
        z, pos = (np.asarray(v, dtype=object) for v in (self.atomic_numbers, self.positions))
        if z.ndim != 1 or z.size < 1:
            raise EwaldError("system key 'Z' must be a non-empty list of integers")
        if pos.shape != (z.size, 3):
            raise EwaldError(f"system key 'positions' must be ({z.size}, 3) rows, not {pos.shape}")
        z = [integer(v, "system key 'Z'", EwaldError) for v in z]
        pos = np.array([number(v, "system key 'positions'", EwaldError) for v in pos.flat])
        if 0 in z or max(map(abs, z)) > np.iinfo(np.int64).max:  # else int64 overflows
            raise EwaldError("system key 'Z' must hold nonzero integers of at most 64 bits")
        self.atomic_numbers, pos = np.array(z, dtype=np.int64), pos.reshape(-1, 3)
        self.cell_edge = number(self.cell_edge, "system key 'cell_edge'", EwaldError)
        low, high = _SCALES
        if not low <= self.cell_edge <= high:
            raise EwaldError(f"cell_edge must be positive and between {low:g} and {high:g}, "
                             f"got {self.cell_edge}")
        self.splitting = number(self.splitting, "splitting parameter 'a'", EwaldError)
        if not low <= self.splitting * self.cell_edge <= high:
            raise EwaldError(f"splitting parameter 'a' must be positive with a * cell_edge "
                             f"between {low:g} and {high:g}, got {self.splitting}")
        for key in ("real_cutoff", "recip_cutoff"):
            shells = integer(getattr(self, key), f"system key '{key}'", EwaldError)
            if not 1 <= shells <= _MAX_SHELLS:
                raise EwaldError(f"system key '{key}' must be at least 1 shell and at most "
                                 f"{_MAX_SHELLS}, got {shells}")
            setattr(self, key, shells)
        wrapped = pos - np.floor(pos / self.cell_edge) * self.cell_edge
        # rounding can leave a coordinate a hair outside [0, edge): that is the site at 0
        self.positions = np.where((wrapped >= 0.0) & (wrapped < self.cell_edge), wrapped, 0.0)
        # At least 1e-100 * cell_edge apart, within _SCALES, every r^2 of the real-space sum
        # is a normal float and every erfc(a r) / r finite; closer, r^2 underflows and the
        # pair's nearest term passes for a skipped r = 0.  hypot does not square r.
        nearest = []
        for i in range(self.num_atoms - 1):
            d = self.positions[i + 1:] - self.positions[i]
            r = np.hypot(np.hypot(d[:, 0], d[:, 1]), d[:, 2])
            nearest.append((r.min(), i, i + 1 + int(r.argmin())))
        r, i, j = min(nearest, default=(np.inf, 0, 0))
        if r == 0.0:
            raise EwaldError(f"atoms {i} and {j} coincide after wrapping")
        if r < 1e-100 * self.cell_edge:
            raise EwaldError(f"atoms {i} and {j} are {r:.3g} apart, closer than "
                             f"1e-100 * cell_edge")

    @property
    def num_atoms(self) -> int:
        return self.atomic_numbers.size

    @property
    def volume(self) -> float:
        return self.cell_edge ** 3


def load_system(path) -> EwaldSystem:
    """Read a system description from JSON; unknown keys are rejected.

    Values are not coerced: ``Z`` is a list of integers, ``positions`` a
    list of [x, y, z] rows, ``cell_edge`` and ``a`` numbers and the two
    cutoffs integers.
    """
    record = read_object(path, "system file", EwaldError)
    unknown = set(record) - set(_SYSTEM_KEYS)
    if unknown:
        raise EwaldError(f"unknown system keys {sorted(unknown)}")
    missing = set(_SYSTEM_KEYS) - set(record)
    if missing:
        raise EwaldError(f"missing system keys {sorted(missing)}")
    return EwaldSystem(*(record[key] for key in _SYSTEM_KEYS))


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


def _image_sums(system: EwaldSystem) -> tuple[np.ndarray, np.ndarray]:
    """(real, recip): unit-charge image sums of every atom pair, as symmetric (n, n) arrays.

    For the separation d = r_i - r_j, ``real`` sums erfc(a r) / r over
    r = |d + L| for the lattice vectors L within the real cutoff, skipping a
    term with r = 0, and ``recip`` sums (4 pi / V) exp(-G^2 / 4a^2) / G^2
    cos(G . d) over the nonzero reciprocal vectors G within the reciprocal
    cutoff.  The diagonal, where d = 0, holds each atom's sums over its own
    periodic images.  Row i is summed for all j >= i at once, so memory
    stays O(n L) for L lattice vectors.
    """
    n, a, edge = system.num_atoms, system.splitting, system.cell_edge
    lattice = _integer_shells(system.real_cutoff, drop_zero=False) * edge
    g = _integer_shells(system.recip_cutoff, drop_zero=True) * (2.0 * math.pi / edge)
    g2 = (g * g).sum(axis=1)
    g_factor = (4.0 * math.pi / system.volume) * np.exp(-g2 / (4.0 * a * a)) / g2
    real, recip = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        d = system.positions[i] - system.positions[i:]                  # (n - i, 3)
        r = np.linalg.norm(d[:, None, :] + lattice, axis=2)             # (n - i, L)
        real[i, i:] = real[i:, i] = np.divide(erfc(a * r), r, out=np.zeros_like(r),
                                              where=r > 0.0).sum(axis=1)
        recip[i, i:] = recip[i:, i] = np.cos(d @ g.T) @ g_factor
    return real, recip


def ewald_sum_matrix(system: EwaldSystem) -> EwaldMatrix:
    """Compute the interaction matrix with its short/long/self decomposition."""
    z = system.atomic_numbers.astype(np.float64)
    a = system.splitting
    real, recip = _image_sums(system)
    zz = np.outer(z, z)
    np.fill_diagonal(zz, 0.0)
    short, long_ = zz * real, zz * recip
    z_sq = (z * z)[:, None] + (z * z)[None, :]
    self_ = (-z_sq * a / SQRT_PI
             - (z[:, None] + z[None, :]) ** 2 * math.pi / (2.0 * a * a * system.volume)
             + 0.5 * z_sq * (real[0, 0] + recip[0, 0]))      # an atom's own images
    np.fill_diagonal(self_, 0.5 * np.abs(z) ** 2.4)
    return EwaldMatrix(total=short + long_ + self_, short_range=short,
                       long_range=long_, self_interaction=self_)


def write_interaction_heatmap(matrix: EwaldMatrix, threshold: float, path) -> None:
    """CSV of |total| entries with values below ``threshold`` zeroed.

    The file takes the place of ``path`` only once every row is written.
    """
    if not threshold >= 0.0:
        raise EwaldError("threshold must be non-negative")
    magnitudes = np.abs(matrix.total)
    magnitudes[magnitudes < threshold] = 0.0
    write_table(path, ["atom"] + list(range(magnitudes.shape[0])),
                ([i] + row for i, row in enumerate(magnitudes.tolist())))
