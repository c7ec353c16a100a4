"""Acceptance suite: one verdict line per criterion on the real stdout.

Each test prints exactly one line, "ACCEPTANCE NN PASS/FAIL detail",
with capture suspended so the verdicts always reach the terminal, then
asserts. Criteria cover resonance positions, intensity ratios, mixing
angles, concurrences, resonance counting, analytic/numeric energy
equivalence, desk-scale CCE-2 decay and convergence, echo kernel
invariants, fit round-trips, and CLI determinism.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from bath_reference import _pair_hamiltonians

from donorspin import (
    build_hamiltonian,
    concurrence,
    diagonalize,
    doublet_energies,
    doublet_params,
    si_bi,
    unmixed_energies,
)
from donorspin.bath import (
    SECOND_NN_FACTOR,
    CceParams,
    LatticeSpec,
    convergence_study,
    ensemble_echo,
    pair_echo,
)
from donorspin.cli.main import main as cli_main
from donorspin.constants import SI_LATTICE_NM
from donorspin.fitting import (
    fit_echo_decay,
    fit_exp_recovery,
    fit_gaussian_lines,
    fit_t1_temperature,
    gaussian_area,
    models,
)
from donorspin.spectra import find_all_resonances, synthesize_spectrum

SYS = si_bi()
DESK_TIMES_MS = tuple(float(t) for t in np.linspace(0.0, 1.0, 51))


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num:02d} {verdict}  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _lines_4044() -> list:
    lines = find_all_resonances(SYS, 4044.0, (0.0, 0.6), intensity_floor=1e-4)
    return sorted(lines, key=lambda tr: tr.field_b)


def _desk_params(transition: tuple[int, int]) -> CceParams:
    return CceParams(
        transition=transition,
        field_b=0.3446,
        lattice=LatticeSpec(side_nm=14.0),
        time_grid_ms=DESK_TIMES_MS,
        n_configs=20,
        seed=2024,
    )


def test_criterion_01_resonance_positions(report):
    t0 = time.monotonic()
    lines = _lines_4044()
    elapsed = time.monotonic() - t0
    if len(lines) != 2:
        report(1, False, f"expected 2 resonances at 4044 MHz, got {len(lines)}")
        return
    mt = [tr.field_b * 1e3 for tr in lines]
    ok = (
        abs(mt[0] - 145.6) <= 0.5
        and abs(mt[1] - 345.0) <= 0.5
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"4044 MHz lines at {mt[0]:.2f} / {mt[1]:.2f} mT "
        f"(expect 145.6 / 345.0 within 0.5), {elapsed:.2f} s",
    )


def test_criterion_02_intensity_ratios(report):
    t0 = time.monotonic()
    lines = _lines_4044()
    low, high = lines
    labels_ok = (low.label_upper, low.label_lower) == (10, 9) and (
        high.label_upper,
        high.label_lower,
    ) == (11, 10)
    sx_ratio = high.sx_element / low.sx_element
    grid = np.arange(0.120, 0.371, 5e-5)
    spectrum = synthesize_spectrum(lines, 0.7, "absorption", grid)
    fit = fit_gaussian_lines(grid, spectrum.signal, n_lines=2, mode="absorption")
    area_ratio = fit.params["area_2"] / fit.params["area_1"]
    elapsed = time.monotonic() - t0
    ok = (
        labels_ok
        and fit.converged
        and abs(sx_ratio - 1.10) <= 0.03
        and abs(area_ratio - 1.2) <= 0.05
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"Sx ratio 11-10 over 10-9 = {sx_ratio:.4f} (expect 1.10 within 0.03), "
        f"area ratio = {area_ratio:.4f} (expect 1.2 within 0.05), {elapsed:.2f} s",
    )


def test_criterion_03_mixing_angles(report):
    # the quoted angles refer to the two 4.044 GHz resonance fields,
    # rounded in prose to 0.15 and 0.35 T
    b_low, b_high = (tr.field_b for tr in _lines_4044())
    theta_low = doublet_params(SYS, -4.0, b_low).theta / math.pi
    theta_high = doublet_params(SYS, -4.0, b_high).theta / math.pi
    ok = abs(theta_low - 0.62) <= 0.005 and abs(theta_high - 0.28) <= 0.005
    report(
        3,
        ok,
        f"theta(m=-4) = {theta_low:.4f} pi at {b_low:.4f} T and "
        f"{theta_high:.4f} pi at {b_high:.4f} T (expect 0.62 / 0.28 within 0.005)",
    )


def test_criterion_04_concurrences(report):
    b_low, b_high = (tr.field_b for tr in _lines_4044())
    c9 = concurrence(diagonalize(SYS, b_low), 9)
    c11 = concurrence(diagonalize(SYS, b_high), 11)
    rng = np.random.default_rng(42)
    worst_product = 0.0
    for b in rng.uniform(1e-3, 1.0, 50):
        es = diagonalize(SYS, float(b))
        worst_product = max(worst_product, concurrence(es, 10), concurrence(es, 20))
    ok = (
        abs(c9 - 0.92) <= 0.01
        and abs(c11 - 0.76) <= 0.01
        and worst_product <= 1e-9
    )
    report(
        4,
        ok,
        f"C(9) = {c9:.4f} at {b_low * 1e3:.1f} mT, C(11) = {c11:.4f} at "
        f"{b_high * 1e3:.1f} mT (expect 0.92 / 0.76 within 0.01); "
        f"product states 10, 20 stay below {worst_product:.1e}",
    )


def test_criterion_05_resonance_counting(report):
    lines = find_all_resonances(SYS, 9700.0, (0.0, 0.6), intensity_floor=0.01)
    count = len(lines)
    energies = diagonalize(SYS, 0.0).energies
    hi, lo = float(energies.max()), float(energies.min())
    n_hi = int(np.sum(np.abs(energies - hi) < 1e-6))
    n_lo = int(np.sum(np.abs(energies - lo) < 1e-6))
    gap = hi - lo
    ok = (
        count == 10
        and abs(gap - 7377.0) <= 0.1
        and (n_hi, n_lo) == (11, 9)
        and n_hi + n_lo == len(energies)
    )
    report(
        5,
        ok,
        f"{count} resonances at 9.7 GHz (expect 10); zero-field gap "
        f"{gap:.4f} MHz (expect 7377.0 within 0.1) with degeneracies "
        f"{n_hi}/{n_lo} (expect 11/9)",
    )


def test_criterion_06_analytic_numeric_equivalence(report):
    worst = 0.0
    for b in np.linspace(1e-3, 1.0, 200):
        analytic = []
        for m in range(-4, 5):
            analytic.extend(doublet_energies(SYS, float(m), float(b)))
        analytic.extend(unmixed_energies(SYS, float(b)))
        analytic = np.sort(np.array(analytic))
        numeric = np.linalg.eigvalsh(build_hamiltonian(SYS, float(b)))
        rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))
        worst = max(worst, float(rel))
    ok = worst <= 1e-9
    report(
        6,
        ok,
        f"doublet-model vs dense energies: worst relative deviation "
        f"{worst:.2e} over 200 fields in [1 mT, 1 T] (expect <= 1e-9)",
    )


def test_criterion_07_cce_desk_scale(report):
    t0 = time.monotonic()
    fits = {}
    for transition in ((11, 10), (10, 9)):
        curve = ensemble_echo(_desk_params(transition), workers=4)
        fits[transition] = fit_echo_decay(curve.times_ms, curve.amplitude)
    elapsed = time.monotonic() - t0
    n = fits[(11, 10)].params["n"]
    ts_main = fits[(11, 10)].params["TS_ms"]
    ts_low = fits[(10, 9)].params["TS_ms"]
    ok = (
        1.97 <= n <= 2.57
        and 0.15 <= ts_main <= 0.55
        and ts_low > ts_main
        and elapsed <= 600.0
    )
    report(
        7,
        ok,
        f"11-10 fit: n = {n:.3f} (expect in [1.97, 2.57]), "
        f"T_S = {ts_main:.4f} ms (expect in [0.15, 0.55]); "
        f"ordering T_S(10-9) = {ts_low:.4f} > T_S(11-10) holds: "
        f"{ts_low > ts_main}; {elapsed:.1f} s",
    )


def test_criterion_08_cce_convergence(report):
    t0 = time.monotonic()
    base = _desk_params((11, 10))
    cutoffs = [SECOND_NN_FACTOR * SI_LATTICE_NM, base.pair_cutoff_nm]
    study = convergence_study(base, [7.0, 10.0, 14.0, 18.0], cutoffs, workers=4)
    elapsed = time.monotonic() - t0
    monotone = all(
        all(later < earlier for earlier, later in zip(dists, dists[1:]))
        for dists in study.distances.values()
    )
    second = study.curves[(18.0, cutoffs[0])]
    third = study.curves[(18.0, cutoffs[1])]
    gap = np.abs(second.amplitude - third.amplitude)
    band = 2.0 * (second.std_of_mean + third.std_of_mean)
    # slack absorbs float round-off when a point sits exactly on the band
    within_band = bool(np.all(gap <= band + 1e-9))
    ok = monotone and within_band and elapsed <= 1800.0
    dists_fmt = {
        f"{r_max:.3f}": tuple(round(d, 4) for d in dists)
        for r_max, dists in study.distances.items()
    }
    report(
        8,
        ok,
        f"successive-side sup distances {dists_fmt} strictly decreasing: "
        f"{monotone}; 2nd vs 3rd NN at 18 nm inside 2 sigma bands: "
        f"{within_band}; {elapsed:.1f} s",
    )


def _sequence_oracle(j_k, j_l, b, s_a, s_b, t_ms, f_z):
    """Full 2x4 evolution with an explicit instantaneous pi swap."""
    h_a = _pair_hamiltonians(np.array([j_k]), np.array([j_l]), np.array([b]), s_a, f_z)[0]
    h_b = _pair_hamiltonians(np.array([j_k]), np.array([j_l]), np.array([b]), s_b, f_z)[0]
    h = np.zeros((8, 8), dtype=complex)
    h[:4, :4] = h_a
    h[4:, 4:] = h_b
    u = expm(-2j * np.pi * h * (t_ms * 500.0))
    swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(4))
    u_total = u @ swap @ u
    rho0 = np.kron(0.5 * np.ones((2, 2)), np.eye(4) / 4.0)
    rho_f = u_total @ rho0 @ u_total.conj().T
    return np.trace(rho_f[:4, 4:]) / 0.5


def test_criterion_09_echo_invariants(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    times = np.array([0.0, 0.05, 0.2, 0.7, 1.5])

    def draw():
        j_k, j_l = rng.normal(0.0, 0.5, 2)
        b = rng.normal(0.0, 5e-4)
        s_a, s_b = rng.uniform(-0.5, 0.5, 2)
        f_z = rng.uniform(-5.0, 5.0)
        return j_k, j_l, b, s_a, s_b, f_z

    worst_t0 = 0.0
    worst_refocus = 0.0
    worst_equal_j = 0.0
    worst_fz = 0.0
    for _ in range(20):
        j_k, j_l, b, s_a, s_b, f_z = draw()
        amp = pair_echo(j_k, j_l, b, s_a, s_b, times, f_z)
        worst_t0 = max(worst_t0, abs(amp[0] - 1.0))
        flat = pair_echo(j_k, j_l, 0.0, s_a, s_b, times, f_z)
        worst_refocus = max(worst_refocus, float(np.max(np.abs(flat - 1.0))))
        same = pair_echo(j_k, j_k, b, s_a, s_b, times, f_z)
        worst_equal_j = max(worst_equal_j, float(np.max(np.abs(same - 1.0))))
        base = pair_echo(j_k, j_l, b, s_a, s_b, times, 0.0)
        worst_fz = max(worst_fz, float(np.max(np.abs(amp - base))))

    worst_oracle = 0.0
    for _ in range(50):
        j_k, j_l, b, s_a, s_b, f_z = draw()
        for t_ms in (0.3, 1.1):
            got = pair_echo(j_k, j_l, b, s_a, s_b, np.array([0.0, t_ms]), f_z)[1]
            want = _sequence_oracle(j_k, j_l, b, s_a, s_b, t_ms, f_z)
            worst_oracle = max(worst_oracle, abs(got - want))
    elapsed = time.monotonic() - t0
    ok = (
        worst_t0 <= 1e-12
        and worst_refocus <= 1e-12
        and worst_equal_j <= 1e-10
        and worst_fz <= 1e-10
        and worst_oracle <= 1e-10
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"L(0) off by {worst_t0:.1e}; b=0 off by {worst_refocus:.1e}; "
        f"Jk=Jl off by {worst_equal_j:.1e}; f_Z dependence {worst_fz:.1e}; "
        f"oracle gap {worst_oracle:.1e} over 50 pairs (all expect <= 1e-10); "
        f"{elapsed:.1f} s",
    )


def test_criterion_10_fit_round_trips(report):
    failures = []

    def check(name, got, want, rel):
        err = abs(got - want) / abs(want)
        if err > rel:
            failures.append(f"{name}: {got!r} vs {want!r}")
        return err

    worst = 0.0
    t = np.linspace(0.0, 2.0, 80)
    echo = fit_echo_decay(t, models.echo_decay(t, 0.95, 5.0, 0.3, 2.3))
    for key, want in (("amp", 0.95), ("T2_ms", 5.0), ("TS_ms", 0.3), ("n", 2.3)):
        worst = max(worst, check(f"echo {key}", echo.params[key], want, 1e-2))

    temps = np.linspace(10.0, 60.0, 14)
    t1 = fit_t1_temperature(temps, models.t1_rate(temps, 2.7e-6, 4e6, 113.0))
    for key, want in (("P", 2.7e-6), ("E", 4e6), ("Delta_K", 113.0)):
        worst = max(worst, check(f"t1 {key}", t1.params[key], want, 1e-2))

    tr = np.linspace(0.0, 60.0, 40)
    rec = fit_exp_recovery(tr, models.exp_recovery(tr, 0.9, 9.0, 0.05))
    for key, want in (("M0", 0.9), ("T1_ms", 9.0), ("offset", 0.05)):
        worst = max(worst, check(f"recovery {key}", rec.params[key], want, 1e-2))

    grid = np.linspace(0.340, 0.352, 1200)
    absorb = fit_gaussian_lines(
        grid,
        models.gaussian_sum(grid * 1e3, [344.0, 348.5], [0.7, 0.65], [1.0, 0.83]),
        n_lines=2,
        mode="absorption",
    )
    deriv = fit_gaussian_lines(
        grid,
        models.gaussian_derivative_sum(grid * 1e3, [344.0, 348.5], [0.7, 0.7], [1.0, 0.83]),
        n_lines=2,
        mode="derivative",
    )
    for result, fwhm_2 in ((absorb, 0.65), (deriv, 0.7)):
        mode = "absorption" if result is absorb else "derivative"
        for key, want in (
            ("center_1_mt", 344.0),
            ("center_2_mt", 348.5),
            ("fwhm_1_mt", 0.7),
            ("fwhm_2_mt", fwhm_2),
            ("amp_1", 1.0),
            ("amp_2", 0.83),
        ):
            worst = max(worst, check(f"{mode} {key}", result.params[key], want, 1e-2))

    hand_rate = 893850.6910093914
    rate_err = check("hand-computed rate at 42 K", float(models.t1_rate(42.0, 2.7e-6, 4e6, 113.0)), hand_rate, 1e-3)

    fixed = fit_t1_temperature(
        temps, models.t1_rate(temps, 1.26e-5, 3e12, 500.0), delta_fixed_k=500.0
    )
    for key, want in (("P", 1.26e-5), ("E", 3e12)):
        worst = max(worst, check(f"fixed-delta {key}", fixed.params[key], want, 1e-2))
    delta_pinned = fixed.params["Delta_K"] == 500.0

    converged = all(r.converged for r in (echo, t1, rec, absorb, deriv, fixed))
    ok = not failures and converged and delta_pinned
    report(
        10,
        ok,
        f"five model round-trips worst error {worst:.2e} (expect <= 1e-2); "
        f"42 K rate off by {rate_err:.2e} (expect <= 1e-3); fixed-delta "
        f"round-trip pinned at 500 K: {delta_pinned}"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_11_determinism(tmp_path, report):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nseed = 77\n"
        "[cce]\nside_nm = 7.0\nn_configs = 4\nt_steps = 9\nt_max_ms = 0.8\nfit = false\n"
    )

    def run(tag: str, workers: int) -> bytes:
        out = tmp_path / tag
        code = cli_main(
            ["cce", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        return (out / "echo.csv").read_bytes()

    first = run("a", 1)
    repeat = run("b", 1)
    parallel = run("c", 4)
    ok = first == repeat and first == parallel
    report(
        11,
        ok,
        f"echo.csv byte-identical across reruns: {first == repeat}; "
        f"across workers 1 vs 4: {first == parallel}",
    )
