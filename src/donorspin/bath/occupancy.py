"""Random site occupancy with a counter-based, order-independent generator.

Each site's coin flip is a pure function of (seed, canonical site index),
where the canonical index packs the site's donor-relative coordinates on
the quarter-cell integer grid. Occupancy therefore does not depend on
enumeration order or worker count, and a site keeps its decision when the
cube is enlarged, which gives common random numbers across lattice sizes
in convergence studies (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11). That holds site for site between cubes whose cell
counts share parity. An odd count puts the donor on the other fcc
sublattice of the diamond lattice, so across parity only the sites on the
donor's own sublattice recur; the other sublattice's donor-relative
positions of the two cubes are disjoint.

`occupied_positions` draws the decisions straight from the integer
lattice, one x-plane of cells at a time, and keeps only the occupied
sites. `in_cube` selects a smaller cube of the same parity from a larger
cube's sites. `_lattice_pairs` finds a placement's pairs on the same
integer layout, by a diamond-site stencil.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from ..constants import SI29_ABUNDANCE
from .lattice import LatticeSpec

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_COORD_OFFSET = np.int64(1 << 20)  # shifts quarter-grid coordinates positive
# the largest cube whose sites, at most 2n quarter steps from the donor
# along any axis, all stay below _COORD_OFFSET
MAX_CELLS_PER_AXIS = int(_COORD_OFFSET - 1) // 2
# 8-atom basis of the conventional diamond-cubic cell, in quarters of a0
_BASIS_QUARTERS = np.array(
    [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0], [1, 1, 1], [1, 3, 3], [3, 1, 3], [3, 3, 1]],
    dtype=np.int64,
)
# basis index of a site from its quarter coordinates mod 4, packed 16x + 4y + z;
# -1 where no diamond site sits
_BASIS_INDEX = np.full(64, -1, dtype=np.intp)
_BASIS_INDEX[_BASIS_QUARTERS @ np.array([16, 4, 1])] = np.arange(len(_BASIS_QUARTERS))
# sites a pair search's rank map may hold whatever the spin count (16 MB)
_RANK_MAP_SITES = 1 << 22


@dataclasses.dataclass(frozen=True)
class BathConfiguration:
    """One random placement of bath spins, coupled: donor-relative
    positions in nm, their contact couplings J, and the pairs with their
    dipolar b."""

    positions: np.ndarray       # (N, 3) nm
    couplings_j: np.ndarray     # (N,) MHz
    pair_indices: np.ndarray    # (P, 2) indices into positions
    pair_b: np.ndarray          # (P,) MHz

    def __post_init__(self):
        for arr in (self.positions, self.couplings_j, self.pair_indices, self.pair_b):
            arr.setflags(write=False)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on uint64; returns x."""
    x += _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _pack_keys(q: np.ndarray) -> np.ndarray:
    """Canonical uint64 index per site from (N, 3) quarter-grid coordinates."""
    if np.any(np.abs(q) >= _COORD_OFFSET):
        raise ValueError("lattice too large for the coordinate key")
    shifted = (q + _COORD_OFFSET).astype(np.uint64)
    return shifted[:, 0] | (shifted[:, 1] << np.uint64(21)) | (shifted[:, 2] << np.uint64(42))


_DONOR_KEY = _pack_keys(np.zeros((1, 3), dtype=np.int64))[0]


def _quarters(positions: np.ndarray, a0_nm: float) -> np.ndarray:
    """(N, 3) integer quarter-grid coordinates of donor-relative positions (nm)."""
    return np.rint(positions * (4.0 / a0_nm)).astype(np.int64)


def _donor_offset(cells: int) -> int:
    """Quarter steps from the cube's low corner to its donor along each axis.

    The donor is the site nearest the centre (2n quarter steps in), ties to
    the lexicographically first: the centre itself for even n, 2n - 1 on
    every axis for odd n. Either way no site of the cube is more than 2n
    quarter steps from it along any axis.
    """
    return 2 * cells - cells % 2


def in_cube(positions: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """(N,) whether each donor-relative position (nm) lies in spec's cube,
    quarter coordinates [-D, 4n - 1 - D] on each axis for n cells.

    Cubes of n and m cells of one parity have donor offsets 2 (n - m)
    apart, a whole number of cells, so the smaller cube's sites are
    exactly the larger cube's sites in its span.
    """
    low = -_donor_offset(spec.cells_per_axis)
    q = _quarters(np.asarray(positions, dtype=float), spec.a0_nm)
    return np.all((q >= low) & (q < low + 4 * spec.cells_per_axis), axis=1)


def _chooser(abundance: float, seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """The occupation decision of keyed sites for one (abundance, seed).

    Checks the abundance and mixes the seed once; the returned function
    maps uint64 keys to each site's decision and never chooses the donor.
    """
    if not 0.0 <= abundance <= 1.0:
        raise ValueError("abundance must lie in [0, 1]")
    seed_mixed = _mix64(np.array([seed % (1 << 64)], dtype=np.uint64))[0]
    # uniform = (stream >> 11) 2^-53 < abundance, decided on the integers:
    # n < x holds for an integer n exactly when n < ceil(x)
    threshold = np.uint64(math.ceil(abundance * 2.0**53))

    def chosen(keys: np.ndarray) -> np.ndarray:
        stream = _mix64(keys ^ seed_mixed)
        stream >>= np.uint64(11)
        return (stream < threshold) & (keys != _DONOR_KEY)

    return chosen


def occupied_positions(
    spec: LatticeSpec, abundance: float = SI29_ABUNDANCE, seed: int = 0
) -> np.ndarray:
    """Donor-relative positions (nm) of the occupied sites of the cube.

    Sites come in cell-major, basis-minor order, and the full site array
    is never built: the cube is walked one x-plane of cells at a time on
    integer quarter-grid coordinates. A plane's keys are the first plane's
    plus 4 per cell step in x, since x fills the low bits of the key and
    never carries.
    """
    chosen = _chooser(abundance, seed)
    n = spec.cells_per_axis
    donor = _donor_offset(n)
    if n > MAX_CELLS_PER_AXIS:
        raise ValueError("lattice too large for the coordinate key")
    plane = np.indices((1, n, n)).reshape(3, -1).T
    q0 = (4 * plane[:, None, :] + _BASIS_QUARTERS[None, :, :]).reshape(-1, 3) - donor
    keys0 = _pack_keys(q0)
    chunks = []
    for i in range(n):
        q = np.compress(chosen(keys0 + np.uint64(4 * i)), q0, axis=0)
        q[:, 0] += 4 * i
        chunks.append(q)
    return np.concatenate(chunks) * (spec.a0_nm / 4.0)


PAIR_D2_TOL_NM2 = 1e-9  # squared-distance slack when classifying shells


def _within(k: np.ndarray, a0_nm: float, r_max_nm: float) -> np.ndarray:
    """Whether lattice offsets of squared length k (quarter steps squared)
    lie within r_max: k (a0/4)^2 <= r_max^2 + PAIR_D2_TOL_NM2.

    The one membership rule of lattice pairs, for the stencil of a build
    and for the pair masks of a smaller cutoff alike.
    """
    return k * (a0_nm / 4.0) ** 2 <= r_max_nm * r_max_nm + PAIR_D2_TOL_NM2


def _lattice_pairs(positions: np.ndarray, spec: LatticeSpec, r_max_nm: float) -> np.ndarray:
    """All index pairs of spec's cube sites within r_max: rows (i, j) with
    i < j in lexicographic order, dtype np.intp.

    positions are donor-relative sites of the cube (nm), any subset in
    `occupied_positions` order. Each site gets an index on the cube padded by
    m = ceil(r/a0) + 1 cells per face, w = n + 2m cells per axis:
    ((cx w + cy) w + cz) 8 + basis, which in that order strictly ascends.
    A diamond site's partners within r_max sit at fixed index steps that
    depend on its basis site only; the stencil keeps the forward ones
    (step > 0), so each pair is found once, from its lower site. The
    sites' ranks are scattered into an int32 map of the padded sites (-1
    where a site is empty), and each basis site's steps are one gather.

    A forward step moves 0 to m x-planes of cells, so the sites are taken
    a slab of x-planes at a time, with a map of the slab and the m planes
    after it. The map holds up to _RANK_MAP_SITES sites, or 64 per spin if
    that is more: one slab at natural abundance (about 30 padded sites per
    spin), and for a sparse bath a map that does not grow with the cube.
    """
    if not r_max_nm > 0:
        raise ValueError("pair cutoff must be positive")
    n = len(positions)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    cells, a0 = spec.cells_per_axis, spec.a0_nm
    pad = math.ceil(r_max_nm / a0) + 1
    width = cells + 2 * pad
    padded = _quarters(positions, a0) + (_donor_offset(cells) + 4 * pad)
    cell = padded >> 2
    basis = _BASIS_INDEX[(padded & 3) @ np.array([16, 4, 1])]
    if np.any(basis < 0) or np.any((cell < pad) | (cell >= pad + cells)):
        raise ValueError("positions must be sites of the cube")
    strides = np.array([width * width, width, 1])
    site = (cell @ strides) * 8 + basis
    if np.any(site[1:] <= site[:-1]):
        raise ValueError("positions must be distinct sites in occupancy's order")

    # stencil: basis site b to basis site t of the cell `shift` cells away
    shift = np.indices((2 * pad + 1,) * 3).reshape(3, -1).T - pad
    dq = (4 * shift[:, None, None, :] + _BASIS_QUARTERS[None, None, :, :]
          - _BASIS_QUARTERS[None, :, None, :])
    step = (shift @ strides)[:, None, None] * 8 + (np.arange(8) - np.arange(8)[:, None])
    forward = _within(np.sum(dq * dq, axis=3), a0, r_max_nm) & (step > 0)

    plane = 8 * width * width
    slab = min(cells, max(1, max(_RANK_MAP_SITES, 64 * n) // plane - pad))
    rank = np.empty((slab + pad) * plane, dtype=np.int32)
    lower, upper = [], []
    for first in range(pad, pad + cells, slab):
        base = first * plane
        begin, middle, end = np.searchsorted(site, base + plane * np.array([0, slab, slab + pad]))
        rank.fill(-1)
        rank[site[begin:end] - base] = np.arange(begin, end)
        for b in range(len(_BASIS_QUARTERS)):
            own = begin + np.flatnonzero(basis[begin:middle] == b)
            # one row per step, each a sweep over the sites in index order
            partner = rank[step[:, b][forward[:, b], None] + (site[own] - base)].ravel()
            hit = np.flatnonzero(partner >= 0)
            lower.append(own[hit % len(own)])
            upper.append(partner[hit])
    code = np.sort(np.concatenate(lower) * n + np.concatenate(upper))
    return np.stack((code // n, code % n), axis=1)
