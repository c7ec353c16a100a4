"""Donor spin qubits in silicon: spectra, entanglement, bath decoherence.

The package models an electron spin 1/2 bound to a high-spin donor
nucleus (the default donor is Si:Bi, I = 9/2), covering

* exact and closed-form eigenstructure of the coupled Hamiltonian,
* magnetic-resonance observables (resonance fields, intensities, Rabi
  frequencies, synthesized spectra),
* Hahn-echo decoherence from the 29Si nuclear bath at pair level,
* the least-squares models used to reduce decay and relaxation data.

Conventions: energies are E/h in MHz, fields in tesla, echo times in ms.
"""

from ._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".constants": ("CONSTANTS", "PhysicalConstants"),
    ".doublet": ("DoubletParams", "bell_field", "doublet_energies", "doublet_params",
                 "doublet_state", "unmixed_energies"),
    ".spin": ("DonorEigensystem", "SpinOperators", "SpinSystem", "build_hamiltonian",
              "concurrence", "diagonalize", "expectation_sz", "si_bi", "spin_matrices",
              "spin_operators"),
})

__version__ = "0.1.0"
__all__.append("__version__")
