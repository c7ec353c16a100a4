"""Ensemble averaging of CCE-2 echoes over random bath placements."""

from __future__ import annotations

import dataclasses
import math
import signal
import threading
from typing import ClassVar

import numpy as np

from ..constants import SI29_ABUNDANCE
from ..doublet import check_labels, level_table
from ..spin import SpinSystem, si_bi
from .couplings import KohnLuttingerModel, dipolar_b, superhyperfine_j
from .echo import EchoCurve, _pair_products
from .lattice import THIRD_NN_FACTOR, LatticeSpec
from .occupancy import BathConfiguration, _lattice_pairs, _within, in_cube, occupied_sites


@dataclasses.dataclass(frozen=True)
class CceParams:
    """Everything that determines one ensemble echo, including the seed;
    the coupling model reads a0 from the lattice and g from the donor."""

    transition: tuple[int, int]                 # (label_upper, label_lower)
    field_b: float                              # tesla
    lattice: LatticeSpec
    time_grid_ms: tuple[float, ...]
    n_configs: int = 1
    seed: int = 0
    r_max_nm: float | None = None               # default: 3rd-NN distance
    abundance: float = SI29_ABUNDANCE
    system: SpinSystem = si_bi()
    b_direction: ClassVar[tuple[float, float, float]] = (1.0, -1.0, 0.0)

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

    @property
    def model(self) -> KohnLuttingerModel:
        """The contact-coupling model at the lattice's a0 and the donor's g."""
        return KohnLuttingerModel(a0_nm=self.lattice.a0_nm, g_factor=self.system.g_factor)


def build_configuration(params: CceParams, config_index: int) -> BathConfiguration:
    """Bath placement number config_index (seeded seed + index), fully coupled:
    its occupied sites, their J, the pairs within params.pair_cutoff_nm and
    their dipolar b. The pairs come from the lattice the sites were drawn
    from (`_lattice_pairs`); the sites' positions in nm, formed after the
    search, feed only J and b."""
    sites = occupied_sites(params.lattice, params.abundance, params.seed + config_index)
    pairs = _lattice_pairs(sites, params.lattice, params.pair_cutoff_nm)
    pos = sites * (params.lattice.a0_nm / 4.0)
    direction = np.asarray(params.b_direction, dtype=float)
    return BathConfiguration(
        sites=sites,
        couplings_j=superhyperfine_j(pos, params.model),
        pair_indices=pairs,
        pair_b=np.asarray(dipolar_b(pos[pairs[:, 0]], pos[pairs[:, 1]], direction)),
    )


def _donor_levels(params: CceParams) -> tuple[float, float]:
    """(s_a, s_b): <Sz> of the upper and lower level of the transition."""
    upper, lower = params.transition
    check_labels(params.system, upper, lower)
    sz = level_table(params.system, params.field_b).sz[0]
    return float(sz[upper - 1]), float(sz[lower - 1])


def _config_curves(
    args: tuple[CceParams, int, tuple[LatticeSpec, ...], tuple[float, ...], float, float],
) -> dict[tuple[int, float], np.ndarray]:
    """Echo amplitude of one placement for each (cells_per_axis, cutoff)
    of one cell-parity class's cubes, largest first, and the cutoffs.

    The placement is built and its pair echoes evaluated once, at the
    largest cube and the largest cutoff. A smaller cube's sites are the
    placement's sites within its box, in the same cell-major order, with
    the same J and b (`in_cube`). The largest cutoff's pairs are all the
    pairs; a smaller cutoff's are those whose quarter-grid offset passes
    `_within` at it, the rule of a build at that cutoff. So each curve,
    the product over the pairs with both sites in the cube and within the
    cutoff, is exactly the echo of a build at that cube and cutoff. The
    kernel forms every product in its one pass over the times.
    """
    params, index, cubes, cutoffs, s_a, s_b = args
    top = max(cutoffs)
    config = build_configuration(dataclasses.replace(params, lattice=cubes[0], r_max_nm=top), index)
    sites, pairs = config.sites, config.pair_indices
    within = {top: np.ones(len(pairs), dtype=bool)}
    if len(cutoffs) > 1:
        offset = sites[pairs[:, 1]] - sites[pairs[:, 0]]
        q2 = np.sum(offset * offset, axis=1)
        within.update((r, _within(q2, params.lattice.a0_nm, r)) for r in cutoffs if r < top)
    masks = {}
    for k, cube in enumerate(cubes):
        # pairs with both sites in the cube; the largest holds every site
        inside = in_cube(sites, cube)[pairs].all(axis=1) if k else True
        for r in cutoffs:
            masks[(cube.cells_per_axis, r)] = within[r] & inside
    rows = _pair_products(config, s_a, s_b, params.time_grid_ms, np.array(list(masks.values())))
    return dict(zip(masks, rows))


def _pool_map(tasks: list, pool_size: int) -> list:
    """[_config_curves(task) for task in tasks] on pool_size worker processes.

    While the pool runs, a handler that only records SIGTERM stands in, in
    the main thread, for the caller's disposition, usually the default
    action (the CLI sets no handler): another thread (the BLAS pool's) may
    take the signal, and Python then runs the handler in the main thread.
    From their initializer on, the workers take it with its default action,
    as the pool's terminate() expects. A recorded SIGTERM, like a failed
    task, cancels the queued tasks and lets the running ones finish; the
    disposition is then restored and the signal raised again, so under the
    default action the process dies by it only once its workers are down.
    The pool's modules load here, and only for a pooled run.
    """
    previous = signal.getsignal(signal.SIGTERM)
    stand_in = (threading.current_thread() is threading.main_thread()
                and previous not in (signal.SIG_IGN, None))
    received = []
    if stand_in:
        signal.signal(signal.SIGTERM, lambda signum, frame: received.append(signum))
    try:
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        pool = ProcessPoolExecutor(max_workers=pool_size, initializer=signal.signal,
                                   initargs=(signal.SIGTERM, signal.SIG_DFL))
        try:
            futures = [pool.submit(_config_curves, task) for task in tasks]
            pending = futures
            while pending and not received:
                done, pending = wait(pending, timeout=0.05, return_when=FIRST_EXCEPTION)
                if any(future.exception() is not None for future in done):
                    break
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        if stand_in:
            signal.signal(signal.SIGTERM, previous)
        # raised again, a recorded SIGTERM wins over a pool the signal broke
        if received:
            signal.raise_signal(signal.SIGTERM)
    return [future.result() for future in futures]


def _mean_curve(curves: list[np.ndarray], times: np.ndarray) -> EchoCurve:
    """Mean over configurations in order, with the standard deviation of the mean."""
    stack = np.stack(curves)
    mean = np.mean(stack, axis=0)
    if len(curves) > 1:
        std_of_mean = np.std(stack, axis=0, ddof=1) / math.sqrt(len(curves))
    else:
        std_of_mean = np.zeros_like(mean)
    return EchoCurve(times_ms=times, amplitude=mean, std_of_mean=std_of_mean)


def ensemble_echo(params: CceParams, workers: int = 1) -> EchoCurve:
    """Mean echo over n_configs placements, with the standard deviation
    of the mean per time point.

    Configuration i is seeded seed + i; the reduction is a plain mean over
    the stacked curves in configuration order, so results are independent
    of the worker count.
    """
    side, cutoff = params.lattice.side_nm, params.pair_cutoff_nm
    return convergence_study(params, [side], [cutoff], workers).curves[(side, cutoff)]


@dataclasses.dataclass(frozen=True)
class ConvergenceResult:
    """Ensemble curves per (side, r_max) and successive sup-norm distances."""

    curves: dict[tuple[float, float], EchoCurve]
    distances: dict[float, tuple[float, ...]]   # r_max -> one entry per side step
    workers_used: int = 1                       # processes the run started; 1 if serial


def convergence_study(
    params: CceParams,
    side_list_nm: list[float],
    r_max_list_nm: list[float],
    workers: int = 1,
) -> ConvergenceResult:
    """Ensemble echo for every (side, r_max) plus convergence distances.

    Sides whose cubes hold cell counts of one parity nest exactly, as do
    the cutoffs, so every (cell-parity class, configuration) is one task,
    run through one process pool of at most `workers` processes. Each task
    builds its placement once and returns a curve for every cube of its
    class and every cutoff (`_config_curves`). Tasks run class-major, the
    class with the largest cube first, and configuration-minor, so each
    key's curves arrive in configuration order and its curve is their
    mean; it does not depend on the worker count. When a task fails or a
    signal ends the run, the running tasks finish and no queued task
    starts. A caller's SIGTERM handler runs once the pool is down; if it
    returns rather than raises, the study raises the cancelled tasks'
    `concurrent.futures.CancelledError`. For each r_max the distances
    tuple holds sup-norm differences between ensemble curves of successive
    sides in the given order.
    """
    if not side_list_nm or not r_max_list_nm:
        raise ValueError("side and cutoff lists must be non-empty")
    sides = list(dict.fromkeys(side_list_nm))
    cutoffs = tuple(dict.fromkeys(r_max_list_nm))
    s_a, s_b = _donor_levels(params)
    cubes = {side: dataclasses.replace(params.lattice, side_nm=side) for side in sides}
    # one cube per cell count, largest first
    by_count = {cube.cells_per_axis: cube for cube in cubes.values()}
    largest_first = [by_count[n] for n in sorted(by_count, reverse=True)]
    tasks = [
        (params, index, tuple(c for c in largest_first if c.cells_per_axis % 2 == parity),
         cutoffs, s_a, s_b)
        for parity in dict.fromkeys(c.cells_per_axis % 2 for c in largest_first)
        for index in range(params.n_configs)
    ]
    pool_size = max(1, min(workers, len(tasks)))
    if pool_size > 1:
        per_task = _pool_map(tasks, pool_size)
    else:
        per_task = [_config_curves(task) for task in tasks]

    by_key: dict[tuple[int, float], list[np.ndarray]] = {}
    for task_curves in per_task:
        for key, curve in task_curves.items():
            by_key.setdefault(key, []).append(curve)
    times = np.asarray(params.time_grid_ms, dtype=float)
    curves = {
        (side, r_max): _mean_curve(by_key[(cubes[side].cells_per_axis, r_max)], times)
        for side in sides
        for r_max in cutoffs
    }
    distances = {
        r_max: tuple(
            float(np.max(np.abs(curves[(b, r_max)].amplitude - curves[(a, r_max)].amplitude)))
            for a, b in zip(side_list_nm, side_list_nm[1:])
        )
        for r_max in cutoffs
    }
    return ConvergenceResult(curves=curves, distances=distances, workers_used=pool_size)
