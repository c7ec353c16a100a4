"""Tests for the least-squares solver, models, and fit routines."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donorspin import si_bi
from donorspin.fitting import (
    FWHM_TO_SIGMA,
    echo_decay,
    exp_recovery,
    fit_echo_decay,
    fit_exp_recovery,
    fit_gaussian_lines,
    fit_t1_temperature,
    gaussian_area,
    gaussian_derivative_sum,
    gaussian_sum,
    levenberg_fit,
    rabi_peak,
    subtract_linear_baseline,
    t1_rate,
    t2_effectively_infinite,
)
from donorspin.fitting import leastsq
from donorspin.fitting.leastsq import _numeric_jacobian
from donorspin.spectra import find_all_resonances, synthesize_spectrum

TIMES = np.linspace(0.0, 2.0, 80)


def test_echo_decay_round_trip():
    data = echo_decay(TIMES, 0.97, 5.0, 0.3, 2.3)
    result = fit_echo_decay(TIMES, data)
    assert result.converged
    for key, want in [("amp", 0.97), ("T2_ms", 5.0), ("TS_ms", 0.3), ("n", 2.3)]:
        assert result.params[key] == pytest.approx(want, rel=1e-2)
    assert result.residual_norm < 1e-8
    for key in ("amp", "T2_ms", "TS_ms", "n"):
        assert key in result.std_errors


def test_echo_decay_pure_exponential():
    data = np.exp(-TIMES / 5.0)
    result = fit_echo_decay(TIMES, data)
    assert result.converged
    assert result.params["T2_ms"] == pytest.approx(5.0, rel=1e-2)
    assert not t2_effectively_infinite(result)
    # stretched channel is suppressed: no error bars on its parameters
    assert "TS_ms" not in result.std_errors
    assert "n" not in result.std_errors


def test_echo_decay_stretched_only():
    data = np.exp(-((TIMES / 0.3) ** 2.27))
    result = fit_echo_decay(TIMES, data)
    assert result.converged
    assert t2_effectively_infinite(result)
    assert result.params["TS_ms"] == pytest.approx(0.3, rel=1e-2)
    assert result.params["n"] == pytest.approx(2.27, rel=1e-2)
    assert "T2_ms" not in result.std_errors


def test_echo_decay_scale_equivariance():
    data = echo_decay(TIMES, 0.97, 5.0, 0.3, 2.3)
    base = fit_echo_decay(TIMES, data)
    scaled = fit_echo_decay(TIMES, 2.5 * data)
    for key in ("T2_ms", "TS_ms", "n"):
        assert scaled.params[key] == pytest.approx(base.params[key], rel=1e-6)
    assert scaled.params["amp"] == pytest.approx(2.5 * base.params["amp"], rel=1e-6)


def test_echo_decay_fixed_amplitude():
    data = echo_decay(TIMES, 1.0, 5.0, 0.3, 2.3)
    result = fit_echo_decay(TIMES, data, free_amplitude=False)
    assert result.converged
    assert result.params["amp"] == 1.0
    assert "amp" not in result.std_errors
    assert result.params["TS_ms"] == pytest.approx(0.3, rel=1e-2)
    assert result.params["n"] == pytest.approx(2.3, rel=1e-2)


def test_echo_decay_validation():
    with pytest.raises(ValueError):
        fit_echo_decay(TIMES[:4], np.ones(4))
    bad = np.ones(len(TIMES))
    bad[3] = -0.1
    with pytest.raises(ValueError):
        fit_echo_decay(TIMES, bad)


def test_echo_decay_accepts_a_fully_decayed_echo():
    # an ensemble echo can underflow to exactly 0; that is data, not a usage error
    amplitude = np.zeros(len(TIMES))
    amplitude[0] = 1.0
    result = fit_echo_decay(TIMES, amplitude)
    assert result.params["amp"] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="one must be positive"):
        fit_echo_decay(TIMES, np.zeros(len(TIMES)))


@pytest.mark.parametrize("level", [1.0, 0.37])
def test_echo_decay_of_a_flat_echo_is_unconverged(level):
    # a constant echo fixes no decay time, whatever the solver settles on
    result = fit_echo_decay(TIMES, np.full(len(TIMES), level))
    assert not result.converged
    assert result.std_errors == {}


def test_echo_decay_cost_history_monotone():
    data = echo_decay(TIMES, 0.97, 5.0, 0.3, 2.3)
    result = fit_echo_decay(TIMES, data)
    history = result.cost_history
    assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))


def test_t1_rate_value():
    # 2.7e-6 * 42^7 + 4e6 * exp(-113/42), evaluated independently
    want = 2.7e-6 * 230539333248.0 + 4e6 * math.exp(-113.0 / 42.0)
    assert want == pytest.approx(893850.6910093914, rel=1e-12)
    assert t1_rate(42.0, 2.7e-6, 4e6, 113.0) == pytest.approx(want, rel=1e-12)


def test_t1_round_trip_free_delta():
    temps = np.linspace(10.0, 60.0, 14)
    rates = t1_rate(temps, 2.7e-6, 4e6, 113.0)
    result = fit_t1_temperature(temps, rates)
    assert result.converged
    assert result.params["P"] == pytest.approx(2.7e-6, rel=1e-2)
    assert result.params["E"] == pytest.approx(4e6, rel=1e-2)
    assert result.params["Delta_K"] == pytest.approx(113.0, rel=1e-2)
    assert "P" in result.std_errors


def test_t1_round_trip_fixed_delta():
    temps = np.linspace(10.0, 60.0, 14)
    rates = t1_rate(temps, 1.26e-5, 3e12, 500.0)
    result = fit_t1_temperature(temps, rates, delta_fixed_k=500.0)
    assert result.converged
    assert result.params["P"] == pytest.approx(1.26e-5, rel=1e-3)
    assert result.params["E"] == pytest.approx(3e12, rel=1e-3)
    assert result.params["Delta_K"] == 500.0
    assert "Delta_K" not in result.std_errors


def _t1_noisy_rates(temps):
    """P = 1.26e-5, E = 3e12, Delta = 500 K with 1 % multiplicative noise."""
    noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(len(temps))
    return t1_rate(temps, 1.26e-5, 3e12, 500.0) * noise


def test_t1_fixed_delta_errors_are_the_exact_linear_covariance():
    # with Delta held the model is linear in (P, E): the covariance is
    # sigma^2 (A^T A)^-1 over the columns T^7 and exp(-Delta/T), taken here
    # in exact rationals. E's column is ~1e-16 of P's in norm.
    temps = np.linspace(10.0, 60.0, 14)
    rates = _t1_noisy_rates(temps)
    result = fit_t1_temperature(temps, rates, delta_fixed_k=500.0)
    assert result.converged
    assert set(result.std_errors) == {"P", "E"}
    columns = [[Fraction(float(v)) for v in col] for col in (temps**7, np.exp(-500.0 / temps))]
    p, e = Fraction(result.params["P"]), Fraction(result.params["E"])
    residual = [p * a + e * b - Fraction(float(y)) for a, b, y in zip(*columns, rates)]
    sigma_sq = sum(r * r for r in residual) / (len(temps) - 2)
    (aa, ab), (_, bb) = [[sum(u * v for u, v in zip(c, d)) for d in columns] for c in columns]
    det = aa * bb - ab * ab
    exact = {"P": sigma_sq * bb / det, "E": sigma_sq * aa / det}
    for name, variance in exact.items():
        assert result.std_errors[name] == pytest.approx(math.sqrt(variance), rel=1e-8)


def test_t1_fixed_delta_errors_scale_with_the_rates():
    temps = np.linspace(10.0, 60.0, 14)
    rates = _t1_noisy_rates(temps)
    base = fit_t1_temperature(temps, rates, delta_fixed_k=500.0)
    scaled = fit_t1_temperature(temps, 1e-3 * rates, delta_fixed_k=500.0)
    assert set(scaled.std_errors) == set(base.std_errors) == {"P", "E"}
    for name, error in base.std_errors.items():
        assert scaled.std_errors[name] == pytest.approx(1e-3 * error, rel=1e-8)


def test_t1_no_orbach_component():
    temps = np.linspace(10.0, 60.0, 14)
    rates = t1_rate(temps, 2.7e-6, 0.0, 113.0)
    result = fit_t1_temperature(temps, rates)
    assert result.converged
    assert result.params["P"] == pytest.approx(2.7e-6, rel=1e-2)
    # Orbach channel absent: its barrier carries no information
    assert "Delta_K" not in result.std_errors
    orbach_peak = result.params["E"] * math.exp(-result.params["Delta_K"] / temps.max())
    assert orbach_peak < 1e-6 * rates.max()


def test_t1_validation():
    with pytest.raises(ValueError):
        fit_t1_temperature(np.array([10.0, 20.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_t1_temperature(np.array([-1.0, 10.0, 20.0, 30.0]), np.ones(4))


def test_exp_recovery_round_trip():
    t = np.linspace(0.0, 60.0, 40)
    data = exp_recovery(t, 0.9, 9.0, 0.05)
    result = fit_exp_recovery(t, data)
    assert result.converged
    assert result.params["M0"] == pytest.approx(0.9, rel=1e-3)
    assert result.params["T1_ms"] == pytest.approx(9.0, rel=1e-3)
    assert result.params["offset"] == pytest.approx(0.05, abs=1e-6)


def test_exp_recovery_saturated():
    t = np.linspace(0.0, 60.0, 40)
    result = fit_exp_recovery(t, np.full_like(t, 0.3))
    assert not result.converged
    assert result.std_errors == {}
    assert math.isnan(result.params["T1_ms"])


def test_numeric_jacobian_matches_analytic():
    t = np.linspace(0.0, 60.0, 40)
    data = exp_recovery(t, 0.9, 9.0, 0.05)

    def residual(x):
        return exp_recovery(t, x[0], x[1], x[2]) - data

    x = np.array([0.8, 11.0, 0.02])
    jac = _numeric_jacobian(residual, x, np.full(3, -np.inf), np.full(3, np.inf))
    decay = np.exp(-t / x[1])
    analytic = np.column_stack(
        [1.0 - 2.0 * decay, -2.0 * x[0] * decay * t / x[1] ** 2, np.ones_like(t)]
    )
    assert np.allclose(jac, analytic, rtol=1e-6, atol=1e-8)


def test_each_jacobian_costs_two_residual_calls_per_parameter(monkeypatch):
    t = np.linspace(0.0, 60.0, 40)
    data = exp_recovery(t, 0.9, 9.0, 0.05)
    calls = 0

    def residual(x):
        nonlocal calls
        calls += 1
        return exp_recovery(t, x[0], x[1], x[2]) - data

    per_jacobian = []

    def counted(*args):
        before = calls
        jac = _numeric_jacobian(*args)
        per_jacobian.append(calls - before)
        return jac

    monkeypatch.setattr(leastsq, "_numeric_jacobian", counted)
    free = np.full(3, np.inf)
    solution = levenberg_fit(residual, np.array([0.8, 11.0, 0.02]), -free, free)
    assert per_jacobian == [6] * (solution.n_iterations + 1)


def test_std_error_calibration():
    t = np.linspace(0.0, 60.0, 40)
    truth = {"M0": 0.9, "T1_ms": 9.0, "offset": 0.05}
    clean = exp_recovery(t, 0.9, 9.0, 0.05)
    rng = np.random.default_rng(7)
    hits = 0
    trials = 200
    for _ in range(trials):
        result = fit_exp_recovery(t, clean + rng.normal(0.0, 0.01, len(t)))
        if not result.converged:
            continue
        ok = all(
            abs(result.params[key] - truth[key]) <= 3.0 * result.std_errors[key]
            for key in truth
        )
        hits += ok
    assert hits >= 0.95 * trials


def test_gaussian_area_formula():
    # peak amplitude a, fwhm w: area = a * w * sqrt(2 pi) / (2 sqrt(2 ln 2))
    assert gaussian_area(1.0, 0.7) == pytest.approx(
        0.7 * math.sqrt(2.0 * math.pi) / (2.0 * math.sqrt(2.0 * math.log(2.0))),
        rel=1e-12,
    )
    sigma = 0.7 * FWHM_TO_SIGMA
    x = np.linspace(-10.0, 10.0, 20001)
    numeric = np.trapezoid(np.exp(-0.5 * (x / sigma) ** 2), x)
    assert gaussian_area(1.0, 0.7) == pytest.approx(numeric, rel=1e-9)


def test_gaussian_round_trip_absorption():
    grid = np.linspace(0.340, 0.352, 1200)
    signal = gaussian_sum(grid * 1e3, [344.0, 348.5], [0.7, 0.65], [1.0, 0.83])
    result = fit_gaussian_lines(grid, signal, n_lines=2, mode="absorption")
    assert result.converged
    assert result.params["center_1_mt"] == pytest.approx(344.0, abs=1e-4)
    assert result.params["center_2_mt"] == pytest.approx(348.5, abs=1e-4)
    assert result.params["fwhm_1_mt"] == pytest.approx(0.7, rel=1e-3)
    assert result.params["fwhm_2_mt"] == pytest.approx(0.65, rel=1e-3)
    assert result.params["amp_1"] == pytest.approx(1.0, rel=1e-3)
    assert result.params["area_1"] == pytest.approx(gaussian_area(1.0, 0.7), rel=1e-3)
    assert result.params["area_2"] == pytest.approx(gaussian_area(0.83, 0.65), rel=1e-3)


def test_gaussian_round_trip_derivative():
    grid = np.linspace(0.340, 0.352, 1200)
    signal = gaussian_derivative_sum(grid * 1e3, [344.0, 348.5], [0.7, 0.7], [1.0, 0.83])
    result = fit_gaussian_lines(grid, signal, n_lines=2, mode="derivative")
    assert result.converged
    assert result.params["center_1_mt"] == pytest.approx(344.0, abs=1e-4)
    assert result.params["center_2_mt"] == pytest.approx(348.5, abs=1e-4)
    assert result.params["amp_2"] == pytest.approx(0.83, rel=1e-3)


@pytest.mark.parametrize("mode", ["absorption", "derivative"])
def test_gaussian_lines_wider_than_the_initial_width(mode):
    # 4 and 5 mT lines against the 0.7 mT initial width: the second start
    # must not land on the first line's shoulder
    grid = np.arange(0.110, 0.180, 5e-5)
    model = gaussian_sum if mode == "absorption" else gaussian_derivative_sum
    signal = model(grid * 1e3, [130.0, 160.0], [4.0, 5.0], [1.0, 0.6])
    noise = np.random.default_rng(5).standard_normal(len(grid))
    result = fit_gaussian_lines(grid, signal + 0.01 * np.max(np.abs(signal)) * noise, 2, mode)
    assert result.converged
    assert result.params["center_1_mt"] == pytest.approx(130.0, abs=0.5)
    assert result.params["center_2_mt"] == pytest.approx(160.0, abs=0.5)


def test_gaussian_overlapping_lines_not_identifiable():
    grid = np.linspace(0.340, 0.352, 1200)
    signal = gaussian_sum(grid * 1e3, [346.0, 346.02], [0.7, 0.7], [1.0, 0.8])
    result = fit_gaussian_lines(grid, signal, n_lines=2, mode="absorption")
    assert not result.converged


def test_gaussian_separated_line_locality():
    grid = np.linspace(0.340, 0.352, 1200)
    signal = gaussian_sum(grid * 1e3, [344.0, 348.5], [0.7, 0.7], [1.0, 0.83])
    pair = fit_gaussian_lines(grid, signal, n_lines=2, mode="absorption")
    window = grid < 0.3462
    single = fit_gaussian_lines(grid[window], signal[window], n_lines=1, mode="absorption")
    assert single.params["center_1_mt"] == pytest.approx(pair.params["center_1_mt"], abs=1e-6)
    assert single.params["fwhm_1_mt"] == pytest.approx(pair.params["fwhm_1_mt"], rel=1e-6)
    assert single.params["amp_1"] == pytest.approx(pair.params["amp_1"], rel=1e-6)


def test_gaussian_fit_of_synthesized_spectrum():
    system = si_bi()
    transitions = find_all_resonances(system, 4044.0, (0.0, 0.6), intensity_floor=1e-4)
    assert len(transitions) == 2
    grid = np.arange(0.120, 0.371, 5e-5)
    spectrum = synthesize_spectrum(transitions, 0.7, "absorption", grid)
    result = fit_gaussian_lines(grid, spectrum.signal, n_lines=2, mode="absorption")
    assert result.converged
    assert result.params["fwhm_1_mt"] == pytest.approx(0.70, abs=0.01)
    assert result.params["fwhm_2_mt"] == pytest.approx(0.70, abs=0.01)
    ratio = result.params["area_2"] / result.params["area_1"]
    assert ratio == pytest.approx(1.2, abs=0.05)
    by_field = sorted(transitions, key=lambda tr: tr.field_b)
    assert ratio == pytest.approx(by_field[1].intensity / by_field[0].intensity, rel=0.02)


def test_gaussian_validation():
    grid = np.linspace(0.340, 0.352, 100)
    with pytest.raises(ValueError):
        fit_gaussian_lines(grid, np.zeros(100), n_lines=0)
    with pytest.raises(ValueError):
        fit_gaussian_lines(grid, np.zeros(100), n_lines=1, mode="dispersion")


@pytest.mark.parametrize("n_points, n_lines", [(1, 1), (3, 1), (6, 2)])
def test_gaussian_needs_more_points_than_parameters(n_points, n_lines):
    grid = np.linspace(0.345, 0.347, n_points)
    with pytest.raises(ValueError, match=f"at least {3 * n_lines + 1} points"):
        fit_gaussian_lines(grid, gaussian_sum(grid * 1e3, [346.0], [0.7], [1.0]), n_lines)


@pytest.mark.parametrize("mode", ["absorption", "derivative"])
def test_gaussian_descending_sweep_fits_as_ascending(mode):
    # a noisy 346 mT line on 81 points, swept high to low
    grid = np.linspace(0.344, 0.348, 81)
    shape = gaussian_sum if mode == "absorption" else gaussian_derivative_sum
    signal = shape(grid * 1e3, [346.0], [0.7], [1.0])
    signal = signal + 0.02 * np.max(np.abs(signal)) * np.random.default_rng(3).standard_normal(81)
    ascending = fit_gaussian_lines(grid, signal, 1, mode=mode)
    assert ascending.converged
    assert ascending.params["center_1_mt"] == pytest.approx(346.0, abs=0.01)
    assert fit_gaussian_lines(grid[::-1], signal[::-1], 1, mode=mode) == ascending


def test_baseline_pure_line_is_zeroed():
    x = np.linspace(0.0, 10.0, 300)
    y = 0.7 * x + 2.0
    out = subtract_linear_baseline(x, y, [(0.0, 10.0)])
    assert np.max(np.abs(out)) < 1e-12 * np.max(np.abs(y))


def test_baseline_constant_is_zeroed():
    x = np.linspace(0.0, 10.0, 300)
    out = subtract_linear_baseline(x, np.full_like(x, 4.2), [(0.0, 3.0)])
    assert np.max(np.abs(out)) < 1e-12


def test_baseline_preserves_line_shape():
    x = np.linspace(0.0, 10.0, 300)
    bump = np.exp(-((x - 5.0) ** 2) / 0.08)
    y = 0.7 * x + 2.0 + bump
    out = subtract_linear_baseline(x, y, [(0.0, 2.0), (8.0, 10.0)])
    assert np.allclose(out, bump, atol=1e-6)


def test_baseline_validation():
    x = np.linspace(0.0, 10.0, 300)
    with pytest.raises(ValueError):
        subtract_linear_baseline(x, x, [])
    with pytest.raises(ValueError):
        subtract_linear_baseline(x, x, [(20.0, 30.0)])


def test_rabi_peak_frequency():
    t = np.arange(0.0, 1.0, 1.0 / 256.0)
    signal = 0.5 + 0.5 * np.cos(2.0 * np.pi * 15.625 * t)
    assert rabi_peak(t, signal) == pytest.approx(15.625, abs=0.05)


def test_rabi_peak_ratio():
    t = np.arange(0.0, 1.0, 1.0 / 256.0)
    f_low = rabi_peak(t, np.cos(2.0 * np.pi * 15.625 * t))
    f_high = rabi_peak(t, np.cos(2.0 * np.pi * 15.625 * 1.1 * t))
    assert f_high / f_low == pytest.approx(1.1, abs=0.02)


def test_rabi_peak_dc_invariance():
    t = np.arange(0.0, 1.0, 1.0 / 256.0)
    signal = 0.5 + 0.5 * np.cos(2.0 * np.pi * 15.625 * t)
    assert rabi_peak(t, signal + 3.0) == rabi_peak(t, signal)


def test_rabi_peak_validation():
    t = np.arange(0.0, 1.0, 1.0 / 256.0)
    with pytest.raises(ValueError):
        rabi_peak(t[:8], np.cos(t[:8]))
    with pytest.raises(ValueError):
        rabi_peak(t, np.full_like(t, 0.5))
    nonuniform = t.copy()
    nonuniform[10] += 1e-3
    with pytest.raises(ValueError):
        rabi_peak(nonuniform, np.cos(2.0 * np.pi * 15.625 * nonuniform))


def test_linear_optimum_on_bound_is_exact():
    # the unconstrained optimum has x0 = -1, so the bounded one sits on x0 = 0
    t = np.linspace(0.0, 1.0, 40)
    a = np.column_stack([t, t + 0.01 * t**2, np.ones_like(t)])
    b = a @ np.array([-1.0, 2.0, 0.5])
    solution = levenberg_fit(
        lambda x: a @ x - b,
        np.array([1.0, 1.0, 0.0]),
        np.array([0.0, -10.0, -10.0]),
        np.array([10.0, 10.0, 10.0]),
    )
    want = np.linalg.lstsq(a[:, 1:], b, rcond=None)[0]
    assert solution.converged
    assert solution.x[0] == 0.0
    assert np.max(np.abs(solution.x[1:] - want)) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    center=st.floats(50.0, 600.0),
    fwhm=st.floats(0.3, 2.0),
    amp=st.floats(1e-3, 1e6),
    offset=st.floats(0.0, 0.05, exclude_max=True),
    mode=st.sampled_from(["absorption", "derivative"]),
)
def test_single_gaussian_line_recovers_center(center, fwhm, amp, offset, mode):
    # a clean line in a +-2 mT window sampled at 0.05 mT, off the grid by offset
    grid_mt = center - offset + 0.05 * np.arange(-40, 41)
    shape = gaussian_sum if mode == "absorption" else gaussian_derivative_sum
    signal = shape(grid_mt, [center], [fwhm], [amp])
    result = fit_gaussian_lines(grid_mt * 1e-3, signal, n_lines=1, mode=mode)
    assert result.converged
    assert result.params["center_1_mt"] == pytest.approx(center, abs=1e-3)


# mean echo of 4 configurations of a 27.8 nm box (shell 3, 11-10 at 0.3446 T,
# run.seed 647279673); its best stretched fit has the T2 rate on its bound at 0
SEED_21_ECHO = np.array([
    1.0, 0.9980226400639768, 0.9888797591162999, 0.9723945793808021, 0.9477223511546912,
    0.9131741258655584, 0.8690727328779193, 0.8161479917252469, 0.7566675173234738,
    0.6916746700718369, 0.6227667757377451, 0.5517222714040817, 0.4804074394712307,
    0.4113962922048885, 0.34674973741521076, 0.2875171466744503, 0.23448786633158836,
    0.1881230915794294, 0.1485015874508893, 0.11544226415674386, 0.08838067200853116,
    0.06661374536261241, 0.049410973013989334, 0.036025772715091366, 0.025801141375708034,
    0.018152631292583134, 0.01254116135359085, 0.008515430247364997, 0.005675422035315898,
    0.0037041587140411187, 0.002366126414666306, 0.001478582106961154, 0.0009049406090676505,
    0.0005424231318055308, 0.0003184349703897049, 0.00018289573453372608,
    0.00010287048311190882, 5.667865705578211e-05, 3.060455640397463e-05,
    1.6197613175214967e-05, 8.410036674035549e-06, 4.289518527996814e-06, 2.149666654129011e-06,
    1.0579180279263361e-06, 5.111615527873157e-07, 2.4275353404098155e-07,
    1.1344682780413166e-07, 5.2246216234252765e-08, 2.3738538959343087e-08,
    1.0619199784562048e-08, 4.677053008831629e-09,
])


def test_echo_decay_converges_with_rate_on_bound():
    result = fit_echo_decay(np.linspace(0.0, 1.0, 51), SEED_21_ECHO)
    assert result.converged
    assert t2_effectively_infinite(result)
    assert result.params["TS_ms"] == pytest.approx(0.274, rel=1e-2)
