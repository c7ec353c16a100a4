"""Nuclear spin bath: lattice, occupancy, couplings, pair echoes, ensembles."""

from .couplings import KohnLuttingerModel, dipolar_b, superhyperfine_j
from .echo import EchoCurve, cce2_echo, pair_echo
from .ensemble import (
    PAIR_SHELLS,
    SECOND_NN_FACTOR,
    THIRD_NN_FACTOR,
    CceParams,
    ConvergenceResult,
    build_configuration,
    convergence_study,
    ensemble_echo,
)
from .lattice import LatticeSpec
from .occupancy import BathConfiguration, occupied_sites

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
