"""Closed-form two-level reduction of the coupled spin Hamiltonian.

Each conserved projection m with |m| <= I - 1/2 spans a doublet
{|+1/2, m-1/2>, |-1/2, m+1/2>} on which the Hamiltonian acts as

    h_m = Delta_m sigma_z + Omega_m sigma_x - eps_m * 1

with (all in MHz)

    Delta_m = [m A + f0 (1 + delta)] / 2
    Omega_m = (A / 2) sqrt((I + 1/2)^2 - m^2)
    eps_m   = A / 4 + m delta f0.

Eigenvalues are E+- = +-beta_m - eps_m, beta_m = sqrt(Delta^2 + Omega^2),
and the mixing angle theta_m = atan2(Omega_m, Delta_m) in (0, pi) fixes
the eigenvectors

    |+, m> = cos(theta/2) |+1/2, m-1/2> + sin(theta/2) |-1/2, m+1/2>
    |-, m> = cos(theta/2) |-1/2, m+1/2> - sin(theta/2) |+1/2, m-1/2>.

The stretched states m = +-(I + 1/2) are field-independent product
states with E = +-f0/2 -+ I f0 delta + I A / 2. They are the same
formulas with Omega = 0, theta = 0 and beta taken as the signed Delta.

`level_table` evaluates all of this on an array of fields at once; it is
the level engine behind `spin.diagonalize`, the spectra and the bath.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .constants import CONSTANTS

if TYPE_CHECKING:
    from .spin import SpinSystem


@dataclasses.dataclass(frozen=True)
class DoubletParams:
    """Analytic parameters of one doublet at one field (all MHz but theta)."""

    m: float
    delta_detuning: float   # Delta_m
    omega: float            # Omega_m, > 0 for every doublet
    eps: float              # common shift eps_m
    beta: float             # sqrt(Delta^2 + Omega^2)
    theta: float            # mixing angle, in (0, pi)


def check_labels(sys: SpinSystem, *labels: int) -> None:
    """Raise ValueError unless every label is an integer in 1..D."""
    for label in labels:
        if not (isinstance(label, numbers.Integral) and 1 <= label <= sys.dimension):
            raise ValueError(f"label must be an integer in 1..{sys.dimension}, got {label}")


def label_structure(sys: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """(m, branch) of labels 1..D: the one statement of the adiabatic
    labels, which `SpinSystem.label_of` looks up."""
    top = sys.nuclear_spin + 0.5
    labels = np.arange(1, sys.dimension + 1)
    lower = labels <= 2 * top
    return np.where(lower, top - labels, labels - 3 * top), np.where(lower, -1, 1)


@dataclasses.dataclass(frozen=True)
class LevelTable:
    """Closed-form levels on an array of fields.

    Per-m arrays run over `sys.doublet_ms()` (m descending). Per-label
    arrays hold label k in column k - 1: the energy, its field slope, the
    state's amplitudes on |+1/2, m-1/2> (up) and |-1/2, m+1/2> (down), and
    the two observables those amplitudes fix. A state up|+1/2, x> +
    down|-1/2, y> has <Sz> = (up^2 - down^2)/2 = +-cos(theta_m)/2 and
    electron-nuclear concurrence 2|up down| = |sin theta_m|.
    """

    system: SpinSystem
    fields: np.ndarray      # (F,) tesla
    delta: np.ndarray       # (F, K) Delta_m, MHz
    omega: np.ndarray       # (K,) Omega_m, 0 on the stretched rows
    eps: np.ndarray         # (F, K) eps_m
    beta: np.ndarray        # (F, K) beta_m, the signed Delta on the stretched rows
    theta: np.ndarray       # (F, K) theta_m, 0 on the stretched rows
    energies: np.ndarray    # (F, D) MHz
    slopes: np.ndarray      # (F, D) dE/dB, MHz per tesla
    up: np.ndarray          # (F, D)
    down: np.ndarray        # (F, D)
    sz: np.ndarray          # (F, D) <Sz>
    concurrence: np.ndarray # (F, D) in [0, 1], exactly 0 on the stretched states

    def pair(self, label_i, label_j, rows=slice(None)):
        """(E_i - E_j, d(E_i - E_j)/dB in MHz/T, |<i| Sx x 1 |j>|).

        By default the labels (scalars or arrays that broadcast) index the
        axes after the field axis; with `rows` an index array, row rows[k]
        is read at labels i[k], j[k]. Sx x 1 links only |-1/2, m+1/2> of
        doublet m to |+1/2, m+1/2> of doublet m + 1, with element 1/2, so
        the element is exactly 0 unless |m_i - m_j| = 1.
        """
        m, _ = label_structure(self.system)
        i, j = np.broadcast_arrays(np.asarray(label_i) - 1, np.asarray(label_j) - 1)
        above = m[i] > m[j]
        hi, lo = np.where(above, i, j), np.where(above, j, i)
        element = 0.5 * np.abs(self.up[rows, hi] * self.down[rows, lo])
        return (self.energies[rows, i] - self.energies[rows, j],
                self.slopes[rows, i] - self.slopes[rows, j],
                np.where(np.abs(m[i] - m[j]) == 1, element, 0.0))

    def sx_element(self, label_i, label_j) -> np.ndarray:
        """|<i| Sx x 1 |j>| per field, labels as in `pair`."""
        return self.pair(label_i, label_j)[2]

    def states(self) -> np.ndarray:
        """(F, D, D) real eigenvectors in the product basis, column per label."""
        dim = self.system.dimension
        m, _ = label_structure(self.system)
        # product index of |+1/2, m-1/2>; |-1/2, m+1/2> sits D/2 - 1 later.
        # A stretched state has amplitude 0 on the slot outside its m.
        up_index = np.rint(self.system.nuclear_spin + 0.5 - m).astype(int)
        out = np.zeros((len(self.fields), dim, dim))
        out[:, up_index, np.arange(dim)] = self.up
        out[:, up_index + dim // 2 - 1, np.arange(dim)] = self.down
        return out


def level_table(sys: SpinSystem, b_fields) -> LevelTable:
    """Energies, mixing angles, slopes and states at every field (tesla)."""
    fields = np.atleast_1d(np.asarray(b_fields, dtype=float))
    a, nz = sys.hyperfine_mhz, sys.nuclear_zeeman_delta
    top = sys.nuclear_spin + 0.5
    ms = sys.doublet_ms()
    f0 = sys.zeeman_mhz(fields)[:, None]
    delta = 0.5 * (ms * a + f0 * (1.0 + nz))
    omega = 0.5 * a * np.sqrt(top * top - ms * ms)
    eps = 0.25 * a + ms * nz * f0
    doublet = omega > 0
    beta = np.where(doublet, np.hypot(delta, omega), delta)
    theta = np.where(doublet, np.arctan2(omega, delta), 0.0)

    m, branch = label_structure(sys)
    k = np.rint(top - m).astype(int)
    cos_half, sin_half = np.cos(0.5 * theta[:, k]), np.sin(0.5 * theta[:, k])
    upper = branch > 0
    # dbeta/dDelta = cos(theta), which is 1 on the stretched rows
    slopes = sys.zeeman_mhz(1.0) * (branch * np.cos(theta[:, k]) * 0.5 * (1.0 + nz) - m * nz)
    up, down = np.where(upper, cos_half, -sin_half), np.where(upper, sin_half, cos_half)
    return LevelTable(
        system=sys, fields=fields, delta=delta, omega=omega, eps=eps, beta=beta, theta=theta,
        energies=branch * beta[:, k] - eps[:, k], slopes=slopes, up=up, down=down,
        sz=0.5 * (up * up - down * down), concurrence=2.0 * np.abs(up * down),
    )


def _check_doublet_m(sys: SpinSystem, m: float) -> None:
    """Raise ValueError unless m is one of the 2x2 doublets."""
    if m not in sys.doublet_ms()[1:-1]:
        raise ValueError(f"m={m} is not a doublet of I={sys.nuclear_spin}")


def doublet_params(sys: SpinSystem, m: float, b_field: float) -> DoubletParams:
    """Doublet parameters for projection m at field b_field (tesla)."""
    _check_doublet_m(sys, m)
    table, k = level_table(sys, b_field), int(round(sys.nuclear_spin + 0.5 - m))
    return DoubletParams(
        m=m, delta_detuning=float(table.delta[0, k]), omega=float(table.omega[k]),
        eps=float(table.eps[0, k]), beta=float(table.beta[0, k]), theta=float(table.theta[0, k]),
    )


def doublet_energies(sys: SpinSystem, m: float, b_field: float) -> tuple[float, float]:
    """(E-, E+) of the m doublet in MHz."""
    _check_doublet_m(sys, m)
    energies = level_table(sys, b_field).energies[0]
    return float(energies[sys.label_of(m, -1) - 1]), float(energies[sys.label_of(m, +1) - 1])


def doublet_state(sys: SpinSystem, m: float, b_field: float, branch: int) -> np.ndarray:
    """Analytic eigenvector of (m, branch) embedded in the product basis."""
    _check_doublet_m(sys, m)
    return level_table(sys, b_field).states()[0, :, sys.label_of(m, branch) - 1]


def unmixed_energies(sys: SpinSystem, b_field: float) -> tuple[float, float]:
    """(E of m = -(I+1/2), E of m = +(I+1/2)) stretched states, MHz."""
    top = sys.nuclear_spin + 0.5
    energies = level_table(sys, b_field).energies[0]
    return float(energies[sys.label_of(-top, -1) - 1]), float(energies[sys.label_of(top, +1) - 1])


def bell_field(sys: SpinSystem, m: float) -> float:
    """Field (tesla) where the m doublet is maximally entangled.

    Delta_m = 0 requires m A + f0 (1 + delta) = 0, which has a positive
    solution only for negative doublet m:

        B = -m A h / (g mu_B (1 + delta)).

    At this field theta_m = pi/2, both branches are even/odd Bell-like
    superpositions, <Sz> vanishes and the concurrence is 1.
    """
    _check_doublet_m(sys, m)
    if m >= 0:
        raise ValueError("maximal mixing needs m < 0 (Delta_m = 0 unreachable)")
    f0 = -m * sys.hyperfine_mhz / (1.0 + sys.nuclear_zeeman_delta)
    return f0 * 1e6 * CONSTANTS.planck_h / (sys.g_factor * CONSTANTS.bohr_magneton)
