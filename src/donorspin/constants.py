"""Physical constants (CODATA 2018), donor defaults, the echo fit's data need
and the default intensity floor of a line.

All frequencies in this package are ordinary frequencies (MHz), magnetic
fields are tesla, times are stated per signature (ms for echo curves,
us for nutation traces). Energies are quoted as E/h in MHz throughout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json


@dataclasses.dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 values used everywhere; never shadowed by literals."""

    planck_h: float = 6.62607015e-34          # J s (exact)
    bohr_magneton: float = 9.2740100783e-24   # J/T
    boltzmann_kb: float = 1.380649e-23        # J/K (exact)
    vacuum_permeability: float = 1.25663706212e-6  # T^2 m^3 / J
    gyromagnetic_si29: float = -8.4655        # MHz/T, signed

    def hash(self) -> str:
        """Stable digest of the constant set, recorded in run manifests."""
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


CONSTANTS = PhysicalConstants()

# Si:Bi donor parameters
BI_HYPERFINE_MHZ = 1475.4        # isotropic hyperfine coupling A
BI_G_FACTOR = 2.0003
BI_NUCLEAR_ZEEMAN_DELTA = 2.488e-4  # ratio of nuclear to electronic Zeeman
BI_NUCLEAR_SPIN = 4.5

SI29_ABUNDANCE = 0.0467          # natural 29Si fraction
SI_LATTICE_NM = 0.543            # conventional cubic cell edge a0

# an echo fit has 4 parameters and needs spare points; the config checks
# cce.t_steps against it without loading the fit routines
ECHO_MIN_POINTS = 6

# default cut on a line's intensity |<Sx>|^2 (scale: max is 1/4); the
# config's default, read without loading the spectra
INTENSITY_FLOOR = 1e-4
