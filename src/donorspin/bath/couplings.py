"""Donor-bath and bath-bath couplings on the silicon lattice.

The donor electron couples to a ²⁹Si nucleus through the contact density
of its six-valley effective-mass wavefunction at the site; bath nuclei
couple pairwise through the secular like-spin dipolar interaction.
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar

import numpy as np

from ..constants import CONSTANTS, BI_G_FACTOR, SI_LATTICE_NM

_GAMMA_SI29_HZ = CONSTANTS.gyromagnetic_si29 * 1e6
# (mu0/4pi) gamma^2 h / r^3 in MHz for r in nm: nm -> m is 1e-27 on r^3, Hz -> MHz 1e-6
DIPOLAR_MHZ_NM3 = 1e-7 * _GAMMA_SI29_HZ * _GAMMA_SI29_HZ * CONSTANTS.planck_h / 1e-27 / 1e6


@dataclasses.dataclass(frozen=True)
class KohnLuttingerModel:
    """Six-valley donor wavefunction with anisotropic hydrogenic envelopes.

    The envelope radii are the effective-mass Bohr radii (a transverse,
    b longitudinal) shrunk by n = sqrt(E0/Ei) for a donor with ionization
    energy Ei; eta is the central-cell charge-density enhancement. The
    envelope is fixed; a0 comes from the lattice and g from the donor.
    """

    ionization_mev: ClassVar[float] = 69.0
    rydberg_mev: ClassVar[float] = 31.3
    radius_a_nm: ClassVar[float] = 2.509
    radius_b_nm: ClassVar[float] = 1.443
    eta: ClassVar[float] = 186.0
    k0_factor: ClassVar[float] = 0.85
    a0_nm: float = SI_LATTICE_NM
    g_factor: float = BI_G_FACTOR

    @property
    def n_scale(self) -> float:
        return math.sqrt(self.rydberg_mev / self.ionization_mev)

    @property
    def k0_per_nm(self) -> float:
        return self.k0_factor * 2.0 * math.pi / self.a0_nm

    @property
    def contact_si(self) -> float:
        """J per |psi|^2 in SI units: (4 mu0 / 3) g mu_B gamma_si eta."""
        return ((4.0 * CONSTANTS.vacuum_permeability / 3.0) * self.g_factor
                * CONSTANTS.bohr_magneton * (CONSTANTS.gyromagnetic_si29 * 1e6) * self.eta)

    def _envelope(self) -> tuple[float, float, float]:
        """(na, nb, norm): the shrunken radii in nm and the normalization
        1 / sqrt(pi na^2 nb) in nm^-3/2."""
        na = self.n_scale * self.radius_a_nm
        nb = self.n_scale * self.radius_b_nm
        return na, nb, 1.0 / math.sqrt(math.pi * na * na * nb)

    def _valley_cosine(self, x: np.ndarray) -> np.ndarray:
        """cos(k0 x) at (N,) coordinates x (nm).

        Lattice coordinates are whole multiples of s = a0/4, so when every x
        is exactly q s and the planes q span are no more than the points,
        the cosine is taken once per plane and gathered. The arguments to
        np.cos are the same floats as per point, and so are the values.
        """
        k0, s = self.k0_per_nm, self.a0_nm / 4.0
        if len(x):
            q = np.rint(x / s)
            lo = q.min()
            span = q.max() - lo + 1
            if np.array_equal(q * s, x) and span <= len(x):
                table = np.cos(k0 * ((lo + np.arange(span)) * s))
                return table[(q - lo).astype(np.intp)]
        return np.cos(k0 * x)

    def _psi_squared(self, pos: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """|psi|^2 in nm^-3 at (N, 3) donor-relative positions (nm) whose
        squared radii r2 are known."""
        na, nb, norm = self._envelope()
        psi = np.zeros(len(pos))
        # valleys +-x, +-y, +-z; the two valleys of an axis contribute
        # identically (even envelope, even cosine)
        for axis in range(3):
            longitudinal = pos[:, axis]
            x2 = longitudinal * longitudinal
            arg = np.sqrt((r2 - x2) / (na * na) + x2 / (nb * nb))
            envelope = norm * np.exp(-arg)
            psi += 2.0 * envelope * self._valley_cosine(longitudinal)
        psi /= math.sqrt(6.0)
        return psi * psi


def superhyperfine_j(
    positions: np.ndarray, model: KohnLuttingerModel = KohnLuttingerModel()
) -> np.ndarray:
    """Contact coupling J in MHz at donor-relative positions (nm).

    J = (4 mu0 / 3) * (g mu_B) * gamma_si * eta * |psi|^2 with gamma_si in
    Hz/T and |psi|^2 in m^-3; gamma_si < 0 makes J negative everywhere the
    valley interference does not flip its sign.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    x, y, z = pos.T
    # by columns: the additions of a length-3 np.sum, in its order
    r2 = x * x + y * y + z * z
    if np.any(r2 == 0.0):
        raise ValueError("superhyperfine coupling is not defined at the donor site")
    # nm^-3 -> m^-3 is 1e27, Hz -> MHz is 1e-6
    return model.contact_si * model._psi_squared(pos, r2) * 1e27 * 1e-6


def dipolar_b(
    pos_k: np.ndarray, pos_l: np.ndarray, b_direction: np.ndarray
) -> float | np.ndarray:
    """Secular like-spin dipolar coefficient b in MHz.

    b = -(mu0/4pi) * (gamma_si h)^2 * (1 - 3 cos^2 theta) / (h r^3), with
    theta the angle between the pair axis and the field direction. Enters
    the pair Hamiltonian as b * [Ikz Ilz - (Ik+Il- + Ik-Il+)/4].
    """
    pk = np.atleast_2d(np.asarray(pos_k, dtype=float))
    pl = np.atleast_2d(np.asarray(pos_l, dtype=float))
    direction = np.asarray(b_direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    delta = pl - pk
    dx, dy, dz = delta.T
    # by columns: the additions of np.linalg.norm's length-3 sum, in its order
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(r == 0.0):
        raise ValueError("coincident bath sites")
    cos_theta = (delta @ direction) / r
    out = -DIPOLAR_MHZ_NM3 * (1.0 - 3.0 * cos_theta * cos_theta) / r**3
    return float(out[0]) if np.ndim(pos_k) == 1 and np.ndim(pos_l) == 1 else out
