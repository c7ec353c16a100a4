"""Brute-force bath references that the production path is tested against.

Builds draw their sites from the integer lattice one x-plane at a time,
as quarter-grid coordinates (`occupancy.occupied_sites`), and find their
pairs with a stencil on that grid (`occupancy._lattice_pairs`). The
functions here do the same work the plain way, in nm, on an explicit
array of every site of the cube: `generate_lattice` lists the sites,
`occupy` applies the per-site coin flips to them, and `enumerate_pairs`
finds the pairs of any point set. A build's sites times a0/4 are
`occupy`'s positions bit for bit. `reference_j` and `reference_b` are
the couplings' plain arithmetic: np.cos at every point and numpy's
reductions over the coordinate axis. `_pair_hamiltonians` is the pair's
4x4 Hamiltonian, from which the echo oracles are built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from donorspin.bath import KohnLuttingerModel, LatticeSpec
from donorspin.bath.couplings import DIPOLAR_MHZ_NM3
from donorspin.bath.occupancy import PAIR_D2_TOL_NM2, _chooser, _pack_keys
from donorspin.constants import SI29_ABUNDANCE, SI_LATTICE_NM

# basis order |uu>, |ud>, |du>, |dd>; z-projections of the two spins
_IKZ = np.array([0.5, 0.5, -0.5, -0.5])
_ILZ = np.array([0.5, -0.5, 0.5, -0.5])
# 8-atom basis of the conventional diamond-cubic cell, in units of a0
_BASIS = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.00, 0.50, 0.50],
        [0.50, 0.00, 0.50],
        [0.50, 0.50, 0.00],
        [0.25, 0.25, 0.25],
        [0.25, 0.75, 0.75],
        [0.75, 0.25, 0.75],
        [0.75, 0.75, 0.25],
    ]
)


def generate_lattice(spec: LatticeSpec) -> np.ndarray:
    """All lattice sites of the cube, donor-relative, in nm.

    Returns an (N, 3) array with N = 8 * floor(side/a0)^3; the donor site
    itself is included and sits exactly at the origin. Site order is
    deterministic (cell-major, basis-minor).
    """
    n = spec.cells_per_axis
    cells = np.indices((n, n, n)).reshape(3, -1).T  # (n^3, 3) integer cell origins
    sites = (cells[:, None, :] + _BASIS[None, :, :]).reshape(-1, 3)

    center = np.full(3, n / 2.0)
    d2 = np.sum((sites - center) ** 2, axis=1)
    nearest = np.flatnonzero(d2 <= d2.min() + 1e-12)
    order = np.lexsort((sites[nearest, 2], sites[nearest, 1], sites[nearest, 0]))
    donor = sites[nearest[order[0]]]

    return (sites - donor) * spec.a0_nm


def quarter_sites(positions: np.ndarray, a0_nm: float) -> np.ndarray:
    """(N, 3) int64 quarter-grid coordinates of donor-relative positions (nm)."""
    return np.rint(positions * (4.0 / a0_nm)).astype(np.int64)


def _site_keys(positions: np.ndarray, a0_nm: float) -> np.ndarray:
    """Canonical uint64 index per site from donor-relative positions (nm)."""
    return _pack_keys(quarter_sites(positions, a0_nm))


class Occupied(NamedTuple):
    """The occupied sites of one placement, read-only, donor-relative in nm."""

    seed: int
    positions: np.ndarray   # (N, 3) nm


def occupy(
    sites: np.ndarray,
    abundance: float = SI29_ABUNDANCE,
    seed: int = 0,
    a0_nm: float = SI_LATTICE_NM,
) -> Occupied:
    """Independent per-site occupation with the given probability.

    The donor site (the origin) is never occupied. Bit-exact across
    platforms: decisions use integer hashing only.
    """
    sites = np.asarray(sites, dtype=float)
    chosen = _chooser(abundance, seed)(_site_keys(sites, a0_nm))
    positions = sites[chosen]
    positions.setflags(write=False)
    return Occupied(seed=seed, positions=positions)


def enumerate_pairs(positions: np.ndarray, r_max_nm: float) -> np.ndarray:
    """All index pairs with separation <= r_max, sorted, as a (P, 2) array.

    The generic search, for any point set. Bath builds find their pairs
    on the lattice their sites come from (`occupancy._lattice_pairs`);
    this search is the reference that one is tested against.

    Membership is d2 <= r_max^2 + PAIR_D2_TOL_NM2 on the squared distance,
    so shell-radius cutoffs (exact lattice distances) are inclusive, and
    filtering the pairs of a larger cutoff by the same rule gives exactly
    the pairs of a smaller one. Rows are (i, j) with i < j in lexicographic
    order, dtype np.intp; any finite positions are allowed, coincident ones
    too.

    Sorted sweep: with the points stably sorted by x, pass k tests each
    point against the point k places after it, but only where dx^2 alone
    is within the cutoff. The sweep is exact. Rounding is monotone, so the
    computed x gaps never shrink from one pass to the next, and fl(dx^2)
    <= d2, so no pair meets the rule unless its dx^2 does. It therefore
    stops at the first pass with no candidate; a pass with candidates but
    no hit does not end it, as a later pass can still hit.
    """
    if not r_max_nm > 0:
        raise ValueError("pair cutoff must be positive")
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    d2_max = r_max_nm * r_max_nm + PAIR_D2_TOL_NM2
    order = np.argsort(pos[:, 0], kind="stable")
    x, y, z = pos[order].T
    codes = [np.empty(0, dtype=np.intp)]
    for k in range(1, n):
        dx = x[k:] - x[:-k]
        near = np.flatnonzero(dx * dx <= d2_max)
        if len(near) == 0:
            break
        dx, dy, dz = dx[near], y[near + k] - y[near], z[near + k] - z[near]
        hit = near[dx * dx + dy * dy + dz * dz <= d2_max]
        i, j = order[hit], order[hit + k]
        codes.append(np.minimum(i, j) * n + np.maximum(i, j))
    code = np.sort(np.concatenate(codes))
    return np.stack((code // n, code % n), axis=1)


def reference_j(
    positions: np.ndarray, model: KohnLuttingerModel = KohnLuttingerModel()
) -> np.ndarray:
    """Contact coupling J in MHz at donor-relative positions (nm), as
    `superhyperfine_j`, with the valley cosine taken at every point."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    r2 = np.sum(pos * pos, axis=1)
    if np.any(r2 == 0.0):
        raise ValueError("superhyperfine coupling is not defined at the donor site")
    na, nb, norm = model._envelope()
    psi = np.zeros(len(pos))
    for axis in range(3):
        longitudinal = pos[:, axis]
        rho2 = r2 - longitudinal * longitudinal
        arg = np.sqrt(rho2 / (na * na) + (longitudinal * longitudinal) / (nb * nb))
        envelope = norm * np.exp(-arg)
        psi += 2.0 * envelope * np.cos(model.k0_per_nm * longitudinal)
    psi /= math.sqrt(6.0)
    return model.contact_si * (psi * psi) * 1e27 * 1e-6


def reference_b(
    pos_k: np.ndarray, pos_l: np.ndarray, b_direction: np.ndarray
) -> float | np.ndarray:
    """Secular dipolar coefficient b in MHz, as `dipolar_b`, with the pair
    length from np.linalg.norm."""
    pk = np.atleast_2d(np.asarray(pos_k, dtype=float))
    pl = np.atleast_2d(np.asarray(pos_l, dtype=float))
    direction = np.asarray(b_direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    delta = pl - pk
    r = np.linalg.norm(delta, axis=1)
    if np.any(r == 0.0):
        raise ValueError("coincident bath sites")
    cos_theta = (delta @ direction) / r
    out = -DIPOLAR_MHZ_NM3 * (1.0 - 3.0 * cos_theta * cos_theta) / r**3
    return float(out[0]) if np.ndim(pos_k) == 1 and np.ndim(pos_l) == 1 else out


def _pair_hamiltonians(
    j_k: np.ndarray, j_l: np.ndarray, b: np.ndarray, s: float, f_z: float
) -> np.ndarray:
    """(P, 4, 4) conditioned Hamiltonians for donor level with <Sz> = s.

    The kernel does not use it: it is the reference Hamiltonian from
    which the tests build their brute-force echo oracles.
    """
    hk = f_z + s * j_k
    hl = f_z + s * j_l
    n = len(hk)
    h = np.zeros((n, 4, 4))
    diag = hk[:, None] * _IKZ[None, :] + hl[:, None] * _ILZ[None, :]
    diag = diag + b[:, None] * (_IKZ * _ILZ)[None, :]
    h[:, np.arange(4), np.arange(4)] = diag
    h[:, 1, 2] = h[:, 2, 1] = -0.25 * b
    return h
