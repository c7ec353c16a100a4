"""Magnetic-resonance observables: resonance fields, intensities, spectra.

Allowed transitions connect adjacent doublets (m changes by +-1); the
drive couples through Sx x 1 only, so intensities are |<i| Sx x 1 |j>|^2
with maximum 1/4. Levels, matrix elements and slopes all come from the
closed-form `level_table`.

Resonance fields solve |E_i(B) - E_j(B)| = f directly. In y = f0/A each
level is E = s (A/2) r - eps with r^2 = p^2 y^2 + 2 m p y + (I + 1/2)^2
and p = 1 + delta (r is the signed 2 Delta / A of a stretched state), so
E_i - E_j = +-f reads s_i r_i - s_j r_j = L(y), L linear in y. Squaring
twice gives (r_i^2 - r_j^2 - L^2)^2 = 4 L^2 r_j^2, of degree at most 4
in y because r_i^2 - r_j^2 is linear. Its real roots in range that also
solve the unsquared equation are polished by one Newton step.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .doublet import check_labels, label_structure, level_table
from .spin import SpinSystem

INTENSITY_FLOOR = 1e-4      # default cut on |<Sx>|^2 (scale: max is 1/4)
ROOT_TOL_MHZ = 1e-6         # a polynomial root must solve E_i - E_j = +-f this well


@dataclasses.dataclass(frozen=True)
class Transition:
    """One resonance: labels ordered by energy at the resonance field."""

    label_upper: int
    label_lower: int
    field_b: float              # tesla
    frequency: float            # MHz
    sx_element: float           # |<upper| Sx x 1 |lower>|
    intensity: float            # sx_element squared
    dfdb_mhz_per_mt: float

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("transition frequency must be positive")
        if not 0 < self.intensity <= 0.25 + 1e-12:
            raise ValueError("intensity must lie in (0, 1/4]")


@dataclasses.dataclass(frozen=True)
class SpectrumCurve:
    """Synthesized spectrum on a field grid (tesla); mode names the shape."""

    field_grid: np.ndarray
    signal: np.ndarray
    mode: str

    def __post_init__(self):
        self.field_grid.setflags(write=False)
        self.signal.setflags(write=False)


def _pair_at(sys: SpinSystem, label_i: int, label_j: int, b_field: float):
    """(E_i - E_j, its field slope in MHz/T, |<i| Sx x 1 |j>|) at one field."""
    check_labels(sys, label_i, label_j)
    return level_table(sys, b_field).pair(label_i, label_j, 0)


def transition_frequency(sys: SpinSystem, label_i: int, label_j: int, b_field: float) -> float:
    """|E_i - E_j| in MHz at one field."""
    return abs(float(_pair_at(sys, label_i, label_j, b_field)[0]))


def sx_matrix_element(sys: SpinSystem, label_i: int, label_j: int, b_field: float) -> float:
    """|<i| Sx x 1 |j>| at one field; exactly 0 unless |m_i - m_j| = 1."""
    return float(_pair_at(sys, label_i, label_j, b_field)[2])


def rabi_frequency(sys: SpinSystem, label_i: int, label_j: int, b_field: float, f1_mhz: float) -> float:
    """Nutation frequency 2 * f1 * |<Sx>| in MHz.

    f1 = g mu_B B1 / (2 h) is the drive amplitude in frequency units; a
    bare electron spin 1/2 (matrix element 1/2) nutates at exactly f1.
    """
    return 2.0 * f1_mhz * sx_matrix_element(sys, label_i, label_j, b_field)


def df_db(sys: SpinSystem, label_i: int, label_j: int, b_field: float) -> float:
    """Field sensitivity d|E_i - E_j|/dB in MHz/mT (analytic)."""
    gap, slope, _ = _pair_at(sys, label_i, label_j, b_field)
    return float(math.copysign(1.0, gap) * slope * 1e-3)


def _adjacent_pairs(sys: SpinSystem) -> np.ndarray:
    """(P, 2) label pairs i < j, row-major, whose doublets differ by one m.

    O(D): with the labels sorted by m, each label's partners at m + 1 are
    one run of that order, found by two binary searches.
    """
    m, _ = label_structure(sys)
    order = np.argsort(m, kind="stable")
    first, last = (np.searchsorted(m[order], m + 1.0, side=side) for side in ("left", "right"))
    count = last - first
    lower = np.repeat(np.arange(len(m)), count)
    # each pair's place in the sorted order: its run's first plus its rank in the run
    upper = order[np.arange(len(lower)) + np.repeat(first - np.cumsum(count) + count, count)]
    code = np.sort(np.minimum(lower, upper) * len(m) + np.maximum(lower, upper))
    return np.stack((code // len(m), code % len(m)), axis=1) + 1


def _convolve_rows(u, v) -> list:
    """np.convolve(u, v) of two 3-term coefficient rows, elementwise over
    arrays of rows.

    Each sum runs in ascending index of u, the order np.convolve takes, so
    the coefficients match its row-by-row result bit for bit, except in
    the last bit where its BLAS dot fuses a multiply-add of two terms of
    like size.
    """
    out = []
    for n in range(5):
        terms = [u[k] * v[n - k] for k in range(max(0, n - 2), min(n, 2) + 1)]
        out.append(sum(terms[1:], terms[0]))
    return out


def _resonance_roots(sys: SpinSystem, pairs: np.ndarray, frequency: float,
                     b_range: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(pair index, field) of every root of |E_i - E_j| = frequency in b_range.

    One quartic row per (pair, +-frequency), pair-major and + first, all
    built at once; the companion matrices of each degree present share
    one eigvals call. Roots come out ascending within a row, as
    `numpy.polynomial.polynomial.polyroots` gives them.
    """
    if frequency <= 0:
        raise ValueError("target frequency must be positive")
    lo, hi = b_range
    if not 0 <= lo < hi:
        raise ValueError(f"invalid field range {b_range}")
    m, _ = label_structure(sys)
    a, nz = sys.hyperfine_mhz, sys.nuclear_zeeman_delta
    p, top = 1.0 + nz, sys.nuclear_spin + 0.5
    tesla_per_y = a / sys.zeeman_mhz(1.0)
    m_i, m_j = m[pairs.T - 1]
    dm = np.repeat(m_i - m_j, 2)
    targets = np.tile([frequency, -frequency], len(pairs))
    rj2 = (top * top, 2.0 * np.repeat(m_j, 2) * p, p * p)
    ell = (2.0 * targets / a, 2.0 * dm * nz, 0.0)      # L(y), linear
    ell2 = _convolve_rows(ell, ell)
    lhs = (0.0 - ell2[0], 2.0 * p * dm - ell2[1], 0.0 - ell2[2])
    quartic = np.empty((len(targets), 5))
    for n, (square, cross) in enumerate(zip(_convolve_rows(lhs, lhs), _convolve_rows(ell2, rj2))):
        quartic[:, n] = square - 4.0 * cross
    # the degree is per row: a term counts only if over the field range,
    # |c_n| y_max^n, it passes 2^-52 of the row's largest term (compared as
    # log2, so that neither y_max^n nor an exact zero needs a guard)
    log_y_max = max(0.0, math.log2(hi) - math.log2(tesla_per_y))
    size = np.log2(np.abs(quartic), out=np.full(quartic.shape, -np.inf), where=quartic != 0.0)
    size += log_y_max * np.arange(5)
    counts = size > np.max(size, axis=1, keepdims=True) - 52.0
    degree = np.max(np.where(counts, np.arange(5), 0), axis=1)
    roots = np.full((len(targets), 4), np.nan, dtype=complex)
    for d in np.unique(degree[degree > 0]):
        of_degree = np.flatnonzero(degree == d)
        c = quartic[of_degree, :d + 1]
        # the unrotated companion matrix of polynomial.polycompanion; at
        # degree 1 its one eigenvalue is -c0/c1 (+0.0 where c0 is 0)
        companion = np.zeros((len(of_degree), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
        roots[of_degree, :d] = np.sort(np.linalg.eigvals(companion), axis=1)
    # one of each conjugate pair: a tangency within rounding shows up as a
    # pair with a tiny imaginary part; the NaN padding fails every test
    b = roots.real * tesla_per_y
    keep = ((roots.imag >= 0) & (roots.imag <= 1e-6 * (1.0 + np.abs(roots.real)))
            & (b >= lo) & (b <= hi))
    row, col = np.nonzero(keep)
    index, targets, fields = row // 2, targets[row], b[row, col]
    i, j = pairs[index].T
    rows = np.arange(len(index))

    def residual(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gap, slope, _ = level_table(sys, b).pair(i, j, rows)
        return gap - targets, slope

    miss, slope = residual(fields)
    held = np.abs(miss) <= ROOT_TOL_MHZ
    step = np.divide(miss, slope, out=np.zeros_like(miss), where=slope != 0.0)
    stepped = np.clip(fields - step, lo, hi)
    # a tangency has no usable slope: keep the step only where it helps
    fields = np.where(np.abs(residual(stepped)[0]) < np.abs(miss), stepped, fields)
    return index[held], fields[held]


def resonance_fields(
    sys: SpinSystem,
    label_i: int,
    label_j: int,
    frequency: float,
    b_range: tuple[float, float],
) -> list[float]:
    """All fields in b_range (tesla) where |E_i - E_j| equals frequency.

    An empty list means the transition never reaches the requested
    frequency in range.
    """
    check_labels(sys, label_i, label_j)
    _, fields = _resonance_roots(sys, np.array([[label_i, label_j]]), frequency, b_range)
    return sorted(float(b) for b in fields)


def find_all_resonances(
    sys: SpinSystem,
    frequency: float,
    b_range: tuple[float, float],
    intensity_floor: float = INTENSITY_FLOOR,
) -> list[Transition]:
    """Every resonance of every allowed pair at one excitation frequency.

    Solves every adjacent-doublet label pair over b_range, keeps roots
    whose intensity exceeds intensity_floor, and returns transitions
    sorted by field.
    """
    pairs = _adjacent_pairs(sys)
    index, fields = _resonance_roots(sys, pairs, frequency, b_range)
    i, j = pairs[index].T
    gap, slope, sx = level_table(sys, fields).pair(i, j, np.arange(len(index)))
    # the upper label is the higher level at the resonance field
    upper, lower = np.where(gap < 0, j, i), np.where(gap < 0, i, j)
    slope = np.where(gap < 0, -slope, slope)
    keep = np.flatnonzero(sx * sx > intensity_floor)
    keep = keep[np.argsort(fields[keep], kind="stable")]
    columns = (column[keep].tolist() for column in (upper, lower, fields, sx, slope))
    return [Transition(label_upper=u, label_lower=w, field_b=b, frequency=frequency, sx_element=x,
                       intensity=x * x, dfdb_mhz_per_mt=s * 1e-3) for u, w, b, x, s in zip(*columns)]


def synthesize_spectrum(
    transitions: list[Transition],
    fwhm_mt: float,
    mode: str,
    field_grid: np.ndarray,
) -> SpectrumCurve:
    """Sum of Gaussian lines, area proportional to intensity.

    mode "absorption" stacks unit-area Gaussians scaled by intensity;
    mode "derivative" stacks their field derivatives (the usual
    continuous-wave lineshape). field_grid is in tesla, fwhm in mT.
    """
    if mode not in ("absorption", "derivative"):
        raise ValueError(f"unknown spectrum mode {mode!r}")
    if fwhm_mt <= 0:
        raise ValueError("fwhm must be positive")
    grid = np.asarray(field_grid, dtype=float)
    sigma = fwhm_mt * 1e-3 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    signal = np.zeros_like(grid)
    for tr in transitions:
        x = (grid - tr.field_b) / sigma
        peak = tr.intensity * np.exp(-0.5 * x * x) / (sigma * math.sqrt(2.0 * math.pi))
        if mode == "derivative":
            peak *= -x / sigma
        signal += peak
    return SpectrumCurve(field_grid=grid, signal=signal, mode=mode)


_MAP_DTYPE = np.dtype(
    [
        ("field_b", float),
        ("freq_mhz", float),
        ("intensity", float),
        ("label_upper", int),
        ("label_lower", int),
    ]
)


def frequency_field_map(
    sys: SpinSystem,
    field_grid: np.ndarray,
    intensity_floor: float = INTENSITY_FLOOR,
) -> np.ndarray:
    """Transition frequency and intensity of every allowed pair vs field.

    Returns a structured array over all adjacent-doublet pairs and grid
    fields, keeping rows with intensity above the floor. Degenerate pairs
    (frequency numerically zero, e.g. within a zero-field multiplet) are
    not transitions and are dropped.
    """
    i, j = _adjacent_pairs(sys).T
    table = level_table(sys, field_grid)
    gap, _, sx = table.pair(i, j)
    intensity = sx ** 2
    keep = (np.abs(gap) > 1e-9) & (intensity > intensity_floor)
    out = np.empty(int(keep.sum()), dtype=_MAP_DTYPE)
    out["field_b"] = np.broadcast_to(table.fields[:, None], gap.shape)[keep]
    out["freq_mhz"] = np.abs(gap)[keep]
    out["intensity"] = intensity[keep]
    out["label_upper"] = np.where(gap < 0, j, i)[keep]
    out["label_lower"] = np.where(gap < 0, i, j)[keep]
    out.setflags(write=False)
    return out
