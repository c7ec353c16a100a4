"""Fit routines for echo decay, relaxation, lineshapes, and Rabi tones."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .leastsq import FitResult, build_result, condition_number, levenberg_fit
from .models import (
    echo_decay,
    exp_recovery,
    gaussian_area,
    gaussian_derivative_sum,
    gaussian_sum,
    t1_rate,
)

ECHO_START_EXPONENTS = (1.5, 2.0, 2.5, 3.0, 3.5)
T2_EFFECTIVELY_INFINITE_MS = 1e6  # 1e3 s; fits beyond this are unbounded
ECHO_MIN_POINTS = 6                # an echo fit has 4 parameters and needs spare points
FWHM_INIT_MT = 0.7                 # starting width of every fitted Gaussian line


def t2_effectively_infinite(result: FitResult) -> bool:
    """Whether the fitted exponential time exceeds the reporting cap."""
    return result.params["T2_ms"] > T2_EFFECTIVELY_INFINITE_MS


def _decay_time_guess(t: np.ndarray, amp: np.ndarray) -> float:
    """Time where the curve first drops below 1/e of its initial value."""
    below = np.flatnonzero(amp < amp[0] / math.e)
    if len(below) == 0:
        return 2.0 * t[-1]
    return max(float(t[below[0]]), float(t[1]))


def fit_echo_decay(
    times_ms: np.ndarray, amplitude: np.ndarray, free_amplitude: bool = True
) -> FitResult:
    """Fit amp * exp(-t/T2 - (t/TS)^n) to an echo decay.

    Multi-start over the stretch exponent (the cost surface is multimodal
    in n), plus one exponential-dominated start so the nested pure-exp
    limit is found exactly. T2 is fitted as a rate so an absent
    exponential channel sits at rate 0 instead of an unreachable large
    time; params report T2_ms = 1/rate (inf when the rate fits to 0).
    An echo whose every amplitude equals its first fixes no decay time, so
    its fit reports converged = False whatever the solver reached.
    """
    t = np.asarray(times_ms, dtype=float)
    amp = np.asarray(amplitude, dtype=float)
    if len(t) < ECHO_MIN_POINTS:
        raise ValueError(f"need at least {ECHO_MIN_POINTS} points")
    # an echo that decays to exactly 0 (underflow) is data; one that is 0
    # throughout fixes no decay time
    if np.any(amp < 0) or not np.any(amp > 0):
        raise ValueError("echo amplitudes must not be negative, and one must be positive")

    ts_guess = _decay_time_guess(t, amp)
    amp_guess = float(amp[0])
    # n > 1 strictly, so a pure exponential is carried by the rate channel
    # alone and the stretched channel parks at its (unidentifiable) bound
    lo = np.array([0.0 if free_amplitude else 1.0, 0.0, 1e-6, 1.05])
    hi = np.array([1e6 if free_amplitude else 1.0, 1e3, 1e9, 6.0])

    def residual(x):
        with np.errstate(over="ignore"):
            model = x[0] * np.exp(-x[1] * t - (t / x[2]) ** x[3])
        return model - amp

    starts = [np.array([amp_guess, 0.0, ts_guess, n0]) for n0 in ECHO_START_EXPONENTS]
    starts.append(np.array([amp_guess, 1.0 / ts_guess, 1e6 * ts_guess, 2.0]))
    solutions = [levenberg_fit(residual, x0, lo, hi) for x0 in starts]
    # best residual wins; the flag only breaks exact ties
    best = min(solutions, key=lambda s: (s.cost_history[-1], not s.converged))
    if np.all(amp == amp[0]):
        best = dataclasses.replace(best, converged=False)
    amp_fit, rate, ts_fit, n_fit = (float(v) for v in best.x)
    t2_fit = 1.0 / rate if rate > 0 else math.inf
    result = build_result(best, ["amp", "rate_per_ms", "TS_ms", "n"],
                          echo_decay(t, amp_fit, t2_fit, ts_fit, n_fit))
    params, errors = dict(result.params), dict(result.std_errors)
    del params["rate_per_ms"]
    rate_error = errors.pop("rate_per_ms", None)
    params["T2_ms"] = t2_fit
    if rate_error is not None and t2_fit <= T2_EFFECTIVELY_INFINITE_MS:
        errors["T2_ms"] = rate_error / rate**2
    return dataclasses.replace(result, params=params, std_errors=errors)


def _t1_linear_prescreen(temps, rates, delta_grid):
    """Best (P, E, Delta) over a Delta grid, with (P, E) solved linearly.

    Columns are normalized before the solve; raw T^7 and exp(-Delta/T)
    columns differ by enough orders of magnitude to trip rank cutoffs.
    """
    raman = temps**7
    best = None
    for delta in delta_grid:
        basis = np.column_stack([raman, np.exp(-delta / temps)])
        scale = np.linalg.norm(basis, axis=0)
        coef, *_ = np.linalg.lstsq(basis / scale, rates, rcond=None)
        coef = np.maximum(coef / scale, 0.0)
        cost = float(np.sum((basis @ coef - rates) ** 2))
        if best is None or cost < best[0]:
            best = (cost, float(coef[0]), float(coef[1]), float(delta))
    return best[1], best[2], best[3]


def fit_t1_temperature(
    temps_k: np.ndarray, rates_per_s: np.ndarray, delta_fixed_k: float | None = None
) -> FitResult:
    """Fit 1/T1 = P T^7 + E exp(-Delta/T); Delta optionally held fixed."""
    temps = np.asarray(temps_k, dtype=float)
    rates = np.asarray(rates_per_s, dtype=float)
    if len(temps) < 4:
        raise ValueError("need at least 4 points")
    if np.any(temps <= 0):
        raise ValueError("temperatures must be positive")

    if delta_fixed_k is None:
        coarse = np.geomspace(10.0, 5000.0, 60)
        _, _, delta_coarse = _t1_linear_prescreen(temps, rates, coarse)
        delta_grid = np.linspace(0.8 * delta_coarse, 1.25 * delta_coarse, 41)
        delta_lo, delta_hi = 1.0, 1e4
    else:
        # a held barrier is a zero-width box: exact, and without a standard error
        delta_grid = np.array([delta_fixed_k])
        delta_lo = delta_hi = delta_fixed_k
    x0 = np.array(_t1_linear_prescreen(temps, rates, delta_grid))
    lo = np.array([0.0, 0.0, delta_lo])
    hi = np.array([1e30, 1e30, delta_hi])

    def residual(x):
        return t1_rate(temps, x[0], x[1], x[2]) - rates

    solution = levenberg_fit(residual, x0, lo, hi)
    return build_result(solution, ["P", "E", "Delta_K"], t1_rate(temps, *solution.x))


def fit_exp_recovery(times_ms: np.ndarray, magnetization: np.ndarray) -> FitResult:
    """Fit inversion recovery M0 (1 - 2 exp(-t/T1)) + offset."""
    t = np.asarray(times_ms, dtype=float)
    m = np.asarray(magnetization, dtype=float)
    if len(t) < 4:
        raise ValueError("need at least 4 points")
    spread = float(np.ptp(m))
    if spread == 0.0:
        # saturated input: T1 carries no information
        offset = float(m[0])
        return FitResult(
            params={"M0": 0.0, "T1_ms": math.nan, "offset": offset},
            std_errors={},
            residual_norm=0.0,
            converged=False,
            n_iterations=0,
            cost_history=(0.0,),
            fitted=exp_recovery(t, 0.0, math.nan, offset),
        )

    m0_guess = (float(m[-1]) - float(m[0])) / 2.0
    offset_guess = float(m[-1]) - m0_guess
    midpoint = offset_guess  # model crosses offset at t = T1 ln 2
    crossing = np.flatnonzero(np.sign(m - midpoint) != np.sign(m[0] - midpoint))
    t1_guess = float(t[crossing[0]]) / math.log(2.0) if len(crossing) else float(t[-1]) / 2.0
    t1_guess = max(t1_guess, float(t[1]))

    names = ["M0", "T1_ms", "offset"]
    lo = np.array([-1e12, 1e-9, -1e12])
    hi = np.array([1e12, 1e12, 1e12])

    def residual(x):
        return exp_recovery(t, x[0], x[1], x[2]) - m

    solution = levenberg_fit(residual, np.array([m0_guess, t1_guess, offset_guess]), lo, hi)
    return build_result(solution, names, exp_recovery(t, *solution.x))


def _initial_lines(x_mt, signal, n_lines):
    """Peak-pick initial centers and amplitudes, masking found peaks.

    Each pick masks +-1.5 FWHM_INIT_MT around itself and, for a line wider than
    that, its whole lobe down to half its height, so the next pick cannot
    land on the first line's shoulder.
    """
    work = signal.copy()
    centers, amps = [], []
    for _ in range(n_lines):
        k = int(np.argmax(np.abs(work)))
        centers.append(float(x_mt[k]))
        amps.append(float(work[k]))
        below = np.flatnonzero(np.abs(work) < 0.5 * abs(work[k]))
        left = below[below < k].max(initial=-1)
        right = below[below > k].min(initial=len(work))
        work[left + 1:right] = 0.0
        work[np.abs(x_mt - x_mt[k]) < 1.5 * FWHM_INIT_MT] = 0.0
    order = np.argsort(centers)
    return [centers[i] for i in order], [amps[i] for i in order]


def fit_gaussian_lines(
    field_grid_t: np.ndarray,
    signal: np.ndarray,
    n_lines: int,
    mode: str = "absorption",
) -> FitResult:
    """Fit a sum of Gaussian lines (or their derivatives) to a spectrum.

    Samples are sorted by field first, so a high-to-low sweep fits the
    same as its ascending copy; the fit needs more samples than its 3 per
    line parameters. Initial centers come from the integrated curve in
    derivative mode. Lines are numbered by centre; per line the params
    carry center_i_mt, fwhm_i_mt, amp_i and the analytic area_i. Heavily
    overlapping lines that leave the normal matrix ill-conditioned report
    converged = False; conditioning is judged on unit-norm Jacobian
    columns, so the units of centres, widths and amplitudes do not enter
    it.
    """
    if n_lines < 1:
        raise ValueError("need at least one line")
    if mode not in ("absorption", "derivative"):
        raise ValueError(f"unknown mode {mode!r}")
    field_mt = np.asarray(field_grid_t, dtype=float) * 1e3
    y = np.asarray(signal, dtype=float)
    if len(field_mt) <= 3 * n_lines:
        raise ValueError(f"need at least {3 * n_lines + 1} points for {n_lines} line(s)")
    by_field = np.argsort(field_mt, kind="stable")
    x_mt, y = field_mt[by_field], y[by_field]

    if mode == "derivative":
        proxy = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x_mt))))
    else:
        proxy = y
    centers, amps = _initial_lines(x_mt, proxy, n_lines)

    model_fn = gaussian_sum if mode == "absorption" else gaussian_derivative_sum

    def residual(x):
        return model_fn(x_mt, x[0::3], np.abs(x[1::3]), x[2::3]) - y

    x0 = np.empty(3 * n_lines)
    lo = np.empty(3 * n_lines)
    hi = np.empty(3 * n_lines)
    for i in range(n_lines):
        x0[3 * i : 3 * i + 3] = (centers[i], FWHM_INIT_MT, amps[i])
        lo[3 * i : 3 * i + 3] = (x_mt[0], 1e-4, -1e12)
        hi[3 * i : 3 * i + 3] = (x_mt[-1], x_mt[-1] - x_mt[0], 1e12)

    solution = levenberg_fit(residual, x0, lo, hi)
    # lines numbered by centre: reorder the triples of x and of the Jacobian
    order = (3 * np.argsort(solution.x[0::3])[:, None] + np.arange(3)).ravel()
    x = solution.x[order]
    x[1::3] = np.abs(x[1::3])
    solution = dataclasses.replace(
        solution,
        x=x,
        jacobian=solution.jacobian[:, order],
        converged=solution.converged and condition_number(solution) <= 1e12,
    )
    names = []
    for i in range(1, n_lines + 1):
        names += [f"center_{i}_mt", f"fwhm_{i}_mt", f"amp_{i}"]
    result = build_result(solution, names, model_fn(field_mt, x[0::3], x[1::3], x[2::3]))
    p = result.params
    areas = {
        f"area_{i}": gaussian_area(p[f"amp_{i}"], p[f"fwhm_{i}_mt"]) for i in range(1, n_lines + 1)
    }
    return dataclasses.replace(result, params=dict(p, **areas))


def subtract_linear_baseline(
    x: np.ndarray, y: np.ndarray, windows: list[tuple[float, float]]
) -> np.ndarray:
    """Remove the least-squares line fitted over the baseline windows."""
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    if not windows:
        raise ValueError("baseline windows must be non-empty")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.zeros(len(x), dtype=bool)
    for lo, hi in windows:
        mask |= (x >= lo) & (x <= hi)
    if np.sum(mask) < 2:
        raise ValueError("baseline windows select fewer than 2 points")
    slope, intercept = np.polyfit(x[mask], y[mask], 1)
    return y - (slope * x + intercept)


def rabi_peak(times_us: np.ndarray, signal: np.ndarray) -> float:
    """Dominant oscillation frequency (MHz) of a uniformly sampled signal.

    Magnitude spectrum with mean removal and 4x zero padding; the peak
    bin is refined by 3-point parabolic interpolation.
    """
    t = np.asarray(times_us, dtype=float)
    y = np.asarray(signal, dtype=float)
    if len(t) < 16:
        raise ValueError("need at least 16 samples")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise ValueError("sampling must be uniform")
    centered = y - np.mean(y)
    if np.max(np.abs(centered)) == 0.0:
        raise ValueError("flat signal has no peak")
    n_fft = 4 * len(y)
    spectrum = np.abs(np.fft.rfft(centered, n=n_fft))
    k = int(np.argmax(spectrum[1:])) + 1
    if 1 <= k < len(spectrum) - 1:
        alpha, beta, gamma = spectrum[k - 1 : k + 2]
        denom = alpha - 2 * beta + gamma
        shift = 0.5 * (alpha - gamma) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    return (k + shift) / (n_fft * float(dt[0]))
