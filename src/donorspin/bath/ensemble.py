"""Ensemble averaging of CCE-2 echoes over random bath placements."""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..constants import SI29_ABUNDANCE
from ..spin import SpinSystem, diagonalize, expectation_sz, si_bi
from .couplings import KohnLuttingerModel, dipolar_b, enumerate_pairs, superhyperfine_j
from .echo import EchoCurve, cce2_echo
from .lattice import LatticeSpec, generate_lattice
from .occupancy import BathConfiguration, occupy

# exact neighbor-shell radii of the diamond lattice, in units of a0
SECOND_NN_FACTOR = math.sqrt(2.0) / 2.0
THIRD_NN_FACTOR = math.sqrt(11.0) / 4.0


@dataclasses.dataclass(frozen=True)
class CceParams:
    """Everything that determines one ensemble echo, including the seed."""

    transition: tuple[int, int]                 # (label_upper, label_lower)
    field_b: float                              # tesla
    lattice: LatticeSpec
    time_grid_ms: tuple[float, ...]
    n_configs: int = 1
    seed: int = 0
    r_max_nm: float | None = None               # default: 3rd-NN distance
    b_direction: tuple[float, float, float] = (1.0, -1.0, 0.0)
    abundance: float = SI29_ABUNDANCE
    model: KohnLuttingerModel = KohnLuttingerModel()
    system: SpinSystem = si_bi()

    def __post_init__(self):
        if self.n_configs < 1:
            raise ValueError("n_configs must be at least 1")
        if self.field_b <= 0:
            raise ValueError("field must be positive")
        t = np.asarray(self.time_grid_ms, dtype=float)
        if len(t) < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("time grid must start at 0 and ascend")
        if self.r_max_nm is not None and self.r_max_nm <= 0:
            raise ValueError("pair cutoff must be positive")

    @property
    def pair_cutoff_nm(self) -> float:
        if self.r_max_nm is not None:
            return self.r_max_nm
        return THIRD_NN_FACTOR * self.lattice.a0_nm


def build_configuration(params: CceParams, config_index: int) -> BathConfiguration:
    """Fully coupled bath placement number config_index (seeded seed + index)."""
    sites = generate_lattice(params.lattice)
    config = occupy(
        sites, params.abundance, params.seed + config_index, params.lattice.a0_nm
    )
    if len(config.positions) == 0:
        return config
    couplings = superhyperfine_j(config.positions, params.model)
    pairs = enumerate_pairs(config.positions, params.pair_cutoff_nm)
    if len(pairs) == 0:
        b = np.empty(0)
    else:
        b = np.asarray(
            dipolar_b(
                config.positions[pairs[:, 0]],
                config.positions[pairs[:, 1]],
                np.asarray(params.b_direction, dtype=float),
            )
        )
    return dataclasses.replace(
        config, couplings_j=couplings, pair_indices=pairs, pair_b=b
    )


def _donor_levels(params: CceParams) -> tuple[float, float]:
    """(s_a, s_b): <Sz> of the upper and lower level of the transition."""
    es = diagonalize(params.system, params.field_b)
    upper, lower = params.transition
    s_a = expectation_sz(es, upper)
    s_b = expectation_sz(es, lower)
    return s_a, s_b


def _config_amplitude(args: tuple[CceParams, int, float, float]) -> np.ndarray:
    params, index, s_a, s_b = args
    config = build_configuration(params, index)
    times = np.asarray(params.time_grid_ms, dtype=float)
    if config.couplings_j is None:
        return np.ones_like(times)
    return cce2_echo(config, s_a, s_b, times).amplitude


def ensemble_echo(params: CceParams, workers: int = 1) -> EchoCurve:
    """Mean echo over n_configs placements, with the standard deviation
    of the mean per time point.

    Configuration i is seeded seed + i; the reduction is a plain mean over
    the stacked curves in configuration order, so results are independent
    of the worker count.
    """
    s_a, s_b = _donor_levels(params)
    tasks = [(params, i, s_a, s_b) for i in range(params.n_configs)]
    if workers > 1 and params.n_configs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            curves = list(pool.map(_config_amplitude, tasks))
    else:
        curves = [_config_amplitude(task) for task in tasks]
    stack = np.stack(curves)
    mean = np.mean(stack, axis=0)
    if params.n_configs > 1:
        std_of_mean = np.std(stack, axis=0, ddof=1) / math.sqrt(params.n_configs)
    else:
        std_of_mean = np.zeros_like(mean)
    times = np.asarray(params.time_grid_ms, dtype=float)
    return EchoCurve(times_ms=times, amplitude=mean, std_of_mean=std_of_mean)


@dataclasses.dataclass(frozen=True)
class ConvergenceResult:
    """Ensemble curves per (side, r_max) and successive sup-norm distances."""

    curves: dict[tuple[float, float], EchoCurve]
    distances: dict[float, tuple[float, ...]]   # r_max -> one entry per side step


def convergence_study(
    params: CceParams,
    side_list_nm: list[float],
    r_max_list_nm: list[float],
    workers: int = 1,
) -> ConvergenceResult:
    """Ensemble echo for every (side, r_max) plus convergence distances.

    For each r_max the distances tuple holds sup-norm differences between
    ensemble curves of successive sides in the given order.
    """
    if not side_list_nm or not r_max_list_nm:
        raise ValueError("side and cutoff lists must be non-empty")
    curves: dict[tuple[float, float], EchoCurve] = {}
    distances: dict[float, tuple[float, ...]] = {}
    for r_max in r_max_list_nm:
        steps = []
        previous = None
        for side in side_list_nm:
            run = dataclasses.replace(
                params,
                lattice=dataclasses.replace(params.lattice, side_nm=side),
                r_max_nm=r_max,
            )
            curve = ensemble_echo(run, workers=workers)
            curves[(side, r_max)] = curve
            if previous is not None:
                steps.append(float(np.max(np.abs(curve.amplitude - previous))))
            previous = curve.amplitude
        distances[r_max] = tuple(steps)
    return ConvergenceResult(curves=curves, distances=distances)
