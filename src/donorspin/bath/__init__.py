"""Nuclear spin bath: lattice, occupancy, couplings, pair echoes, ensembles."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".couplings": ("KohnLuttingerModel", "dipolar_b", "superhyperfine_j"),
    ".echo": ("EchoCurve", "cce2_echo", "pair_echo"),
    ".ensemble": ("CceParams", "ConvergenceResult", "build_configuration",
                  "convergence_study", "ensemble_echo"),
    ".lattice": ("PAIR_SHELLS", "SECOND_NN_FACTOR", "THIRD_NN_FACTOR", "LatticeSpec"),
    ".occupancy": ("BathConfiguration", "occupied_sites"),
})

__all__ = [
    "BathConfiguration",
    "CceParams",
    "ConvergenceResult",
    "EchoCurve",
    "KohnLuttingerModel",
    "LatticeSpec",
    "PAIR_SHELLS",
    "SECOND_NN_FACTOR",
    "THIRD_NN_FACTOR",
    "build_configuration",
    "cce2_echo",
    "convergence_study",
    "dipolar_b",
    "ensemble_echo",
    "occupied_sites",
    "pair_echo",
    "superhyperfine_j",
]
