"""Ensemble averaging, seeding, and convergence bookkeeping."""

import dataclasses
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bath_reference import enumerate_pairs, generate_lattice, occupy

from donorspin import diagonalize, expectation_sz, si_bi
from donorspin.bath import (
    BathConfiguration,
    CceParams,
    KohnLuttingerModel,
    LatticeSpec,
    build_configuration,
    cce2_echo,
    convergence_study,
    dipolar_b,
    ensemble_echo,
    superhyperfine_j,
)
from donorspin.bath import echo, ensemble
from donorspin.bath.ensemble import SECOND_NN_FACTOR, THIRD_NN_FACTOR

TIMES = tuple(np.linspace(0.0, 1.0, 21))


def _params(**overrides):
    base = dict(
        transition=(11, 10),
        field_b=0.3446,
        lattice=LatticeSpec(side_nm=7.0),
        time_grid_ms=TIMES,
        n_configs=4,
        seed=77,
    )
    base.update(overrides)
    return CceParams(**base)


def test_single_config_mean_and_zero_std():
    params = _params(n_configs=1)
    curve = ensemble_echo(params)
    config = build_configuration(params, 0)
    es = diagonalize(params.system, params.field_b)
    single = cce2_echo(
        config,
        expectation_sz(es, 11),
        expectation_sz(es, 10),
        np.asarray(TIMES),
    )
    assert np.array_equal(curve.amplitude, single.amplitude)
    assert np.all(curve.std_of_mean == 0.0)


def test_configs_are_seeded_sequentially():
    params = _params()
    sites = generate_lattice(params.lattice)
    direct = occupy(sites, params.abundance, params.seed + 2, params.lattice.a0_nm)
    built = build_configuration(params, 2)
    assert np.array_equal(direct.positions, built.positions)


def test_determinism_and_worker_independence():
    params = _params()
    a = ensemble_echo(params, workers=1)
    b = ensemble_echo(params, workers=1)
    c = ensemble_echo(params, workers=2)
    assert np.array_equal(a.amplitude, b.amplitude)
    assert np.array_equal(a.amplitude, c.amplitude)
    assert np.array_equal(a.std_of_mean, c.std_of_mean)


def test_ensemble_curve_shape():
    curve = ensemble_echo(_params())
    assert curve.amplitude[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(curve.amplitude <= 1.0 + 1e-9)
    assert np.all(curve.amplitude >= 0.0)
    assert np.all(curve.std_of_mean >= 0.0)
    # even a small 7 nm cube of natural silicon visibly decoheres this
    # transition within a millisecond
    assert curve.amplitude[-1] < 0.8


def test_built_configuration_is_consistent():
    params = _params()
    config = build_configuration(params, 0)
    assert config.couplings_j.shape == (len(config.positions),)
    assert config.pair_b.shape == (len(config.pair_indices),)
    d = np.linalg.norm(
        config.positions[config.pair_indices[:, 0]]
        - config.positions[config.pair_indices[:, 1]],
        axis=1,
    )
    assert np.all(d**2 <= params.pair_cutoff_nm**2 + 1e-9)


def test_convergence_study_bookkeeping():
    params = _params(n_configs=2)
    sides = [2.2, 3.3]
    r2 = np.sqrt(2.0) / 2.0 * 0.543
    result = convergence_study(params, sides, [r2], workers=1)
    assert set(result.curves) == {(2.2, r2), (3.3, r2)}
    assert len(result.distances[r2]) == 1
    again = convergence_study(params, sides, [r2], workers=1)
    for key, curve in result.curves.items():
        assert np.array_equal(curve.amplitude, again.curves[key].amplitude)
    assert result.distances == again.distances
    with pytest.raises(ValueError):
        convergence_study(params, [], [r2])


@pytest.mark.parametrize("transition", [(0, 10), (21, 10), (11, 0), (11, 21)])
def test_convergence_study_rejects_labels_outside_the_donor(transition):
    with pytest.raises(ValueError, match="label must be an integer in 1..20"):
        convergence_study(_params(transition=transition), [2.2], [0.4], workers=1)


def test_empty_bath_is_fully_coupled_and_does_not_decay():
    params = _params(abundance=0.0, n_configs=2)
    config = build_configuration(params, 0)
    assert config.positions.shape == (0, 3)
    assert len(config.couplings_j) == len(config.pair_indices) == len(config.pair_b) == 0
    assert np.all(ensemble_echo(params).amplitude == 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(n_configs=0)
    with pytest.raises(ValueError):
        _params(field_b=-1.0)
    with pytest.raises(ValueError):
        _params(time_grid_ms=(0.5, 1.0))
    with pytest.raises(ValueError):
        _params(r_max_nm=-0.4)
    # default cutoff is the 3rd-neighbor distance
    assert _params().pair_cutoff_nm == pytest.approx(0.543 * np.sqrt(11.0) / 4.0)


def test_coupling_model_is_the_lattice_a0_and_the_donor_g():
    system = dataclasses.replace(si_bi(), g_factor=1.9985)
    params = _params(lattice=LatticeSpec(side_nm=7.0, a0_nm=0.5), system=system)
    assert params.model == KohnLuttingerModel(a0_nm=0.5, g_factor=1.9985)
    assert _params().model == KohnLuttingerModel()
    # neither the model nor the field direction is a second, settable copy
    assert {"model", "b_direction"}.isdisjoint(f.name for f in dataclasses.fields(CceParams))
    assert params.b_direction == (1.0, -1.0, 0.0)


def test_stretched_level_has_exact_sz():
    es = diagonalize(si_bi(), 0.3446)
    assert expectation_sz(es, 10) == pytest.approx(-0.5, abs=1e-12)


def _oracle_curve(params, side, r_max, s_a, s_b):
    """Mean, in config order, of cce2_echo over configs built from the full lattice."""
    spec = dataclasses.replace(params.lattice, side_nm=side)
    sites = generate_lattice(spec)
    curves = []
    for i in range(params.n_configs):
        pos = occupy(sites, params.abundance, params.seed + i, spec.a0_nm).positions
        pairs = enumerate_pairs(pos, r_max)
        b = dipolar_b(pos[pairs[:, 0]], pos[pairs[:, 1]], np.asarray(params.b_direction))
        config = BathConfiguration(
            positions=pos, couplings_j=superhyperfine_j(pos, params.model),
            pair_indices=pairs, pair_b=b,
        )
        curves.append(cce2_echo(config, s_a, s_b, np.asarray(TIMES)).amplitude)
    return np.mean(np.stack(curves), axis=0)


@pytest.mark.parametrize("workers", [1, 3])
def test_convergence_study_matches_full_lattice_oracle(workers):
    params = _params(n_configs=3)
    # 7 nm holds 12 cells (even), 14 nm holds 25 (odd)
    sides = [7.0, 14.0]
    assert [dataclasses.replace(params.lattice, side_nm=s).cells_per_axis for s in sides] == [12, 25]
    cutoffs = [SECOND_NN_FACTOR * 0.543, THIRD_NN_FACTOR * 0.543]
    study = convergence_study(params, sides, cutoffs, workers=workers)
    assert study.workers_used == min(workers, len(sides) * params.n_configs)
    es = diagonalize(params.system, params.field_b)
    s_a, s_b = expectation_sz(es, 11), expectation_sz(es, 10)
    for side in sides:
        for r_max in cutoffs:
            want = _oracle_curve(params, side, r_max, s_a, s_b)
            assert np.array_equal(study.curves[(side, r_max)].amplitude, want)


def test_pool_is_sized_to_the_work():
    assert convergence_study(_params(n_configs=2), [3.0], [0.4], workers=4).workers_used == 2
    assert convergence_study(_params(n_configs=2), [3.0], [0.4], workers=1).workers_used == 1
    assert convergence_study(_params(n_configs=1), [3.0], [0.4], workers=4).workers_used == 1


SHELL_FACTORS = {2: SECOND_NN_FACTOR, 3: THIRD_NN_FACTOR}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    cells=st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True),
    abundance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
    shells=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2, unique=True),
    n_configs=st.integers(1, 3),
)
@example(cells=[2, 3], abundance=0.0, seed=5, shells=[2, 3], n_configs=2)
# the 2nd shell holds no pairs in either config, the 3rd holds two
@example(cells=[2], abundance=0.03, seed=16, shells=[3, 2], n_configs=2)
def test_shell_masks_match_builds_at_each_shell(cells, abundance, seed, shells, n_configs):
    a0 = 0.543
    params = _params(abundance=abundance, seed=seed, n_configs=n_configs)
    sides = [k * a0 for k in cells]
    cutoffs = [SHELL_FACTORS[shell] * a0 for shell in shells]
    study = convergence_study(params, sides, cutoffs, workers=1)
    es = diagonalize(params.system, params.field_b)
    s_a, s_b = expectation_sz(es, 11), expectation_sz(es, 10)
    for side in sides:
        for r_max in cutoffs:
            alone = dataclasses.replace(
                params, r_max_nm=r_max, lattice=dataclasses.replace(params.lattice, side_nm=side))
            builds = [build_configuration(alone, i) for i in range(n_configs)]
            want = np.mean(np.stack(
                [cce2_echo(b, s_a, s_b, np.asarray(TIMES)).amplitude for b in builds]), axis=0)
            got = study.curves[(side, r_max)].amplitude
            assert np.array_equal(got, want)
            if all(len(b.pair_indices) == 0 for b in builds):
                assert np.all(got == 1.0)


def test_one_build_and_one_pair_echo_pass_per_task(monkeypatch):
    counts = {"build": 0, "dipolar": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ensemble, "build_configuration",
                        counted("build", ensemble.build_configuration))
    monkeypatch.setattr(ensemble, "dipolar_b", counted("dipolar", ensemble.dipolar_b))
    monkeypatch.setattr(echo, "_pair_amplitudes", counted("kernel", echo._pair_amplitudes))
    params = _params(n_configs=2)
    cutoffs = [SECOND_NN_FACTOR * 0.543, THIRD_NN_FACTOR * 0.543]
    # 4 and 6 cells share one build; 4 and 5 cells are two parity classes
    for sides, classes in (([2.2, 3.3], 1), ([2.2, 2.8], 2)):
        counts.update(dict.fromkeys(counts, 0))
        convergence_study(params, sides, cutoffs, workers=1)
        tasks = classes * params.n_configs
        assert counts == {"build": tasks, "dipolar": tasks, "kernel": tasks}


def test_nested_sides_match_builds_at_each_side(monkeypatch):
    # unsorted, both parities, and two sides of one cell count
    sides = [2.8, 2.2, 3.3, 1.7, 2.3]
    a0 = 0.543
    assert [LatticeSpec(side).cells_per_axis for side in sides] == [5, 4, 6, 3, 4]
    params = _params(n_configs=2, seed=11)
    cutoffs = [THIRD_NN_FACTOR * a0, SECOND_NN_FACTOR * a0]
    builds = []
    monkeypatch.setattr(ensemble, "build_configuration",
                        lambda *args: builds.append(args) or build_configuration(*args))
    study = convergence_study(params, sides, cutoffs, workers=1)
    # one build per (cell-parity class, configuration), at each class's largest cube
    assert len(builds) == 2 * params.n_configs
    assert sorted({b[0].lattice.cells_per_axis for b in builds}) == [5, 6]
    es = diagonalize(params.system, params.field_b)
    s_a, s_b = expectation_sz(es, 11), expectation_sz(es, 10)
    for side in sides:
        for r_max in cutoffs:
            alone = dataclasses.replace(
                params, r_max_nm=r_max, lattice=dataclasses.replace(params.lattice, side_nm=side))
            want = np.mean(np.stack([
                cce2_echo(build_configuration(alone, i), s_a, s_b, np.asarray(TIMES)).amplitude
                for i in range(params.n_configs)]), axis=0)
            assert np.array_equal(study.curves[(side, r_max)].amplitude, want)
    assert study.curves[(2.8, cutoffs[0])].amplitude[-1] < 1.0
    pooled = convergence_study(params, sides, cutoffs, workers=3)
    assert pooled.workers_used == 3
    for key, curve in study.curves.items():
        assert np.array_equal(pooled.curves[key].amplitude, curve.amplitude)
        assert np.array_equal(pooled.curves[key].std_of_mean, curve.std_of_mean)
    assert pooled.distances == study.distances


def test_builds_and_studies_equal_the_reference_search_and_oracle_curves():
    params = _params(n_configs=2, seed=5)
    sides = [2.8, 2.2, 3.3]
    cutoffs = [THIRD_NN_FACTOR * 0.543, SECOND_NN_FACTOR * 0.543]
    es = diagonalize(params.system, params.field_b)
    s_a, s_b = expectation_sz(es, 11), expectation_sz(es, 10)
    want = {(side, r_max): _oracle_curve(params, side, r_max, s_a, s_b)
            for side in sides for r_max in cutoffs}
    built = build_configuration(params, 1)
    pairs = enumerate_pairs(built.positions, params.pair_cutoff_nm)
    assert np.array_equal(build_configuration(params, 1).pair_indices, pairs)
    for workers in (1, 2):
        study = convergence_study(params, sides, cutoffs, workers=workers)
        for key, curve in want.items():
            assert np.array_equal(study.curves[key].amplitude, curve)


class _Stop(Exception):
    pass


def _sleeping_task(task):
    time.sleep(0.1)
    return {}


def test_sigterm_reaches_the_callers_handler_once_the_pool_is_down(monkeypatch):
    # 200 tasks of 0.1 s on 2 workers take 10 s; the signal comes at 0.3 s,
    # through a thread that does not block it, and the caller's handler runs
    # only after the pool has stopped, with its handler and mask restored
    monkeypatch.setattr(ensemble, "_config_curves", _sleeping_task)

    def stop(signum, frame):
        files = []
        while frame is not None:
            files.append(frame.f_code.co_filename)
            frame = frame.f_back
        raise _Stop(files)

    previous = signal.signal(signal.SIGTERM, stop)
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
    try:
        started = time.monotonic()
        timer.start()
        with pytest.raises(_Stop) as stopped:
            convergence_study(_params(n_configs=200), [3.0], [0.4], workers=2)
        assert time.monotonic() - started < 5.0
        # no frame of the executor or of its locks was on the stack
        files = stopped.value.args[0]
        assert not any("concurrent" in f or f.endswith("threading.py") for f in files), files
        assert signal.getsignal(signal.SIGTERM) is stop
        assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    finally:
        timer.cancel()
        signal.signal(signal.SIGTERM, previous)
