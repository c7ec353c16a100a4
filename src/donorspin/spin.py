"""Coupled electron-nuclear spin system: the donor, its eigenstructure, and
the dense reference operators.

The working Hamiltonian (units of ordinary frequency, MHz) is

    H = f0*Sz - f0*delta*Iz + A*(S.I),    f0 = g*mu_B*B/h,

for an electron spin S = 1/2 coupled to a nuclear spin I through an
isotropic hyperfine constant A. The nuclear Zeeman term is expressed
through the ratio delta of nuclear to electronic Zeeman frequencies.

Total spin projection m = m_s + m_I is conserved, so the Hamiltonian is
block diagonal in m: 2x2 blocks for |m| <= I - 1/2 (the doublets) and
1x1 blocks for m = +/-(I + 1/2) (the unmixed stretched states).
`diagonalize` reads each block's eigenpairs in closed form from
`doublet.level_table`, which keeps eigenvectors inside their exact m
sector even at crossings and at B = 0. The per-state observables are
closed-form columns of the same table: <Sz> = +/- cos(theta_m)/2 and the
concurrence |sin theta_m|. `spin_operators` and `build_hamiltonian`
give the dense product-space matrices; they are the reference the
closed forms are tested against, not a path the library computes on.

States carry adiabatic labels 1..D fixed by the high-field ordering:
lower branch (-) of doublet m gets label (I + 1/2) - m, upper branch (+)
gets 3*(I + 1/2) + m. For Si:Bi (I = 9/2, D = 20) this is the usual
numbering where state 10 is |m_s=-1/2, m_I=-9/2> and state 20 is
|m_s=+1/2, m_I=+9/2>.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .constants import (
    BI_G_FACTOR,
    BI_HYPERFINE_MHZ,
    BI_NUCLEAR_SPIN,
    BI_NUCLEAR_ZEEMAN_DELTA,
    CONSTANTS,
)
from .doublet import check_labels, label_structure, level_table


def _check_spin(j: float) -> float:
    if j < 0 or abs(2 * j - round(2 * j)) > 1e-9:
        raise ValueError(f"spin must be a non-negative half-integer, got {j}")
    return round(2 * j) / 2


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Jx, Jy, Jz) for spin j in the descending-m basis.

    Basis order is m = j, j-1, ..., -j. Matrices are complex, shape
    (2j+1, 2j+1), and satisfy [Jx, Jy] = i Jz.
    """
    j = _check_spin(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)); with descending order the
    # raising operator sits on the superdiagonal.
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = ladder
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return jx, jy, jz


@dataclasses.dataclass(frozen=True)
class SpinSystem:
    """A donor: electron spin 1/2 coupled to one nuclear spin.

    The electron spin is 1/2 by construction, not a field. hyperfine_mhz
    is A, g_factor the electron g value, and nuclear_zeeman_delta the
    ratio of nuclear to electronic Zeeman frequencies (positive for Bi-209).
    """

    nuclear_spin: float
    hyperfine_mhz: float
    g_factor: float
    nuclear_zeeman_delta: float

    def __post_init__(self):
        if _check_spin(self.nuclear_spin) < 0.5:
            raise ValueError("nuclear spin must be at least 1/2")
        if self.hyperfine_mhz <= 0:
            raise ValueError("hyperfine coupling must be positive")

    @property
    def dimension(self) -> int:
        return 2 * (int(round(2 * self.nuclear_spin)) + 1)

    def zeeman_mhz(self, b_field: float) -> float:
        """Electron Zeeman frequency f0 = g*mu_B*B/h in MHz (B in tesla)."""
        return self.g_factor * CONSTANTS.bohr_magneton * b_field / CONSTANTS.planck_h / 1e6

    def doublet_ms(self) -> np.ndarray:
        """All conserved projections m = m_s + m_I, descending."""
        top = self.nuclear_spin + 0.5
        return top - np.arange(int(round(2 * top)) + 1)

    def label_of(self, m: float, branch: int) -> int:
        """Adiabatic label of (m, branch) in `doublet.label_structure`;
        branch is +1 or -1."""
        ms, branches = label_structure(self)
        found = np.flatnonzero((ms == m) & (branches == branch))
        if len(found) == 0:
            raise ValueError(f"no state with m={m}, branch={branch}")
        return int(found[0]) + 1


def si_bi() -> SpinSystem:
    """The Si:Bi donor (I = 9/2, A = 1475.4 MHz)."""
    return SpinSystem(
        nuclear_spin=BI_NUCLEAR_SPIN,
        hyperfine_mhz=BI_HYPERFINE_MHZ,
        g_factor=BI_G_FACTOR,
        nuclear_zeeman_delta=BI_NUCLEAR_ZEEMAN_DELTA,
    )


@dataclasses.dataclass(frozen=True)
class SpinOperators:
    """Product-space operators for one donor, all shape (D, D), complex."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray
    s_dot_i: np.ndarray


def spin_operators(sys: SpinSystem) -> SpinOperators:
    """Operators in the product basis |m_s> x |m_I>, both descending."""
    sx1, sy1, sz1 = spin_matrices(0.5)
    ix1, iy1, iz1 = spin_matrices(sys.nuclear_spin)
    es, en = np.eye(len(sz1)), np.eye(len(iz1))
    return SpinOperators(
        sx=np.kron(sx1, en),
        sy=np.kron(sy1, en),
        sz=np.kron(sz1, en),
        ix=np.kron(es, ix1),
        iy=np.kron(es, iy1),
        iz=np.kron(es, iz1),
        s_dot_i=np.kron(sx1, ix1) + np.kron(sy1, iy1) + np.kron(sz1, iz1),
    )


def build_hamiltonian(sys: SpinSystem, b_field: float) -> np.ndarray:
    """Dense Hamiltonian (MHz) at b_field (tesla), shape (D, D): the test oracle."""
    ops = spin_operators(sys)
    f0 = sys.zeeman_mhz(b_field)
    h = f0 * ops.sz - f0 * sys.nuclear_zeeman_delta * ops.iz + sys.hyperfine_mhz * ops.s_dot_i
    return h


@dataclasses.dataclass(frozen=True)
class DonorEigensystem:
    """Eigenstructure at one field, stored in adiabatic-label order.

    energies[k], states[:, k], sz[k] and concurrence[k] belong to label k+1.
    """

    system: SpinSystem
    field_b: float
    energies: np.ndarray        # (D,) MHz
    states: np.ndarray          # (D, D) complex, column per label
    sz: np.ndarray              # (D,) <Sz>
    concurrence: np.ndarray     # (D,) electron-nuclear concurrence

    def __post_init__(self):
        for a in (self.energies, self.states, self.sz, self.concurrence):
            a.setflags(write=False)

    def energy(self, label: int) -> float:
        check_labels(self.system, label)
        return float(self.energies[label - 1])

    def state(self, label: int) -> np.ndarray:
        check_labels(self.system, label)
        return self.states[:, label - 1]


def diagonalize(sys: SpinSystem, b_field: float) -> DonorEigensystem:
    """Eigendecomposition at one field, labelled adiabatically.

    Uses the closed-form doublets, so labels stay consistent through
    level crossings; within a doublet the upper-energy state is the +
    branch. Columns are orthonormal, real-valued and exact in their m sector.
    """
    table = level_table(sys, b_field)
    return DonorEigensystem(
        system=sys,
        field_b=b_field,
        energies=table.energies[0],
        states=table.states()[0].astype(complex),
        sz=table.sz[0],
        concurrence=table.concurrence[0],
    )


def expectation_sz(eigensystem: DonorEigensystem, label: int) -> float:
    """<Sz> of the labelled state: +/- cos(theta_m)/2 on a doublet branch,
    +/- 1/2 on the stretched states."""
    check_labels(eigensystem.system, label)
    return float(eigensystem.sz[label - 1])


def concurrence(eigensystem: DonorEigensystem, label: int) -> float:
    """Electron-nuclear entanglement of the labelled state.

    C = |sin theta_m| on a doublet branch and exactly 0 for the stretched
    states, equal to sqrt(2 (1 - Tr rho_e^2)) for the reduced electron
    density matrix rho_e of the pure eigenstate.
    """
    check_labels(eigensystem.system, label)
    return float(eigensystem.concurrence[label - 1])
