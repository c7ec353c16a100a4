"""Nuclear spin bath: lattice, occupancy, couplings, pair echoes, ensembles."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".couplings": ("KohnLuttingerModel", "dipolar_b", "superhyperfine_j"),
    ".echo": ("EchoCurve", "cce2_echo", "pair_echo"),
    ".ensemble": ("CceParams", "ConvergenceResult", "build_configuration",
                  "convergence_study", "ensemble_echo"),
    ".lattice": ("PAIR_SHELLS", "SECOND_NN_FACTOR", "THIRD_NN_FACTOR", "LatticeSpec"),
    ".occupancy": ("BathConfiguration", "occupied_sites"),
})
