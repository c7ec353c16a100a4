"""Closed-form doublet analytics against the numeric eigensolver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dense_oracle import AS_LIKE, FZ, FZ_SHIFT_MHZ, by_label

from donorspin import (
    bell_field,
    build_hamiltonian,
    concurrence,
    diagonalize,
    doublet_energies,
    doublet_params,
    doublet_state,
    expectation_sz,
    si_bi,
    unmixed_energies,
)
from donorspin.doublet import label_structure, level_table
from donorspin.spectra import transition_frequency


def test_mixing_angles_at_the_4ghz_resonance_fields():
    sys = si_bi()
    # the published angles belong to the two 4.044 GHz resonance fields
    assert abs(doublet_params(sys, -4, 0.1456).theta / math.pi - 0.62) < 0.005
    assert abs(doublet_params(sys, -4, 0.3450).theta / math.pi - 0.28) < 0.005
    # at the rounded field labels the first angle still holds
    assert abs(doublet_params(sys, -4, 0.15).theta / math.pi - 0.62) < 0.005


def test_mixing_angle_regression_values():
    # frozen from this implementation, cross-checked against arccos of
    # 2<Sz> from the numeric eigensolver
    sys = si_bi()
    assert abs(doublet_params(sys, -4, 0.15).theta / math.pi - 0.6167915584568536) < 1e-12
    assert abs(doublet_params(sys, -4, 0.35).theta / math.pi - 0.2701028567816546) < 1e-12


def test_omega_is_field_independent():
    sys = si_bi()
    expected = 0.5 * sys.hyperfine_mhz * 3.0  # sqrt(25 - 16) = 3
    for b in (0.01, 0.15, 0.35, 2.0):
        assert abs(doublet_params(sys, -4, b).omega - expected) < 1e-9
    assert abs(expected - 2213.1) < 1e-9


def test_beta_consistency():
    sys = si_bi()
    for m in range(-4, 5):
        p = doublet_params(sys, m, 0.2345)
        assert abs(p.beta - math.hypot(p.delta_detuning, p.omega)) < 1e-12
        assert 0 < p.theta < math.pi


def test_zero_field_doublet_energies():
    sys = si_bi()
    a = sys.hyperfine_mhz
    for m in range(-4, 5):
        lo, hi = doublet_energies(sys, m, 0.0)
        assert abs(hi - 2.25 * a) < 1e-9
        assert abs(lo + 2.75 * a) < 1e-9


def test_analytic_matches_numeric_energies():
    # dense oracle: eigvalsh of the Fz-shifted full Hamiltonian, labelled by m block
    sys = si_bi()
    for b in np.linspace(1e-3, 1.0, 200):
        shifted = build_hamiltonian(sys, float(b)) + FZ_SHIFT_MHZ * np.diag(FZ)
        energies = by_label(np.linalg.eigvalsh(shifted))
        scale = np.max(np.abs(energies))
        for m in range(-4, 5):
            lo, hi = doublet_energies(sys, m, float(b))
            assert abs(lo - energies[sys.label_of(m, -1) - 1]) < 1e-9 * scale
            assert abs(hi - energies[sys.label_of(m, +1) - 1]) < 1e-9 * scale
        un_lo, un_hi = unmixed_energies(sys, float(b))
        assert abs(un_lo - energies[10 - 1]) < 1e-9 * scale
        assert abs(un_hi - energies[20 - 1]) < 1e-9 * scale


def test_eps_sign_matches_block_mean():
    # the common shift of each 2x2 block is -eps_m: the two numeric block
    # energies average to -eps_m exactly
    sys = si_bi()
    for b in (0.05, 0.1456, 0.3450, 0.8):
        es = diagonalize(sys, b)
        for m in range(-4, 5):
            p = doublet_params(sys, m, b)
            mean = 0.5 * (es.energy(sys.label_of(m, +1)) + es.energy(sys.label_of(m, -1)))
            assert abs(mean + p.eps) < 1e-9 * max(1.0, abs(p.eps))


def test_analytic_eigenvectors_match_numeric():
    sys = si_bi()
    rng = np.random.default_rng(3)
    for b in rng.uniform(0.01, 1.0, 10):
        es = diagonalize(sys, float(b))
        for m in range(-4, 5):
            for branch in (+1, -1):
                vec = doublet_state(sys, m, float(b), branch)
                num = es.state(sys.label_of(m, branch))
                assert abs(np.vdot(vec, num)) > 1 - 1e-9


def test_theta_monotone_and_asymptotics():
    sys = si_bi()
    grid = np.linspace(1e-4, 1.0, 400)
    for m in (-1, -4):
        thetas = np.array([doublet_params(sys, m, float(b)).theta for b in grid])
        assert np.all(np.diff(thetas) < 0)
    assert doublet_params(sys, -4, 50.0).theta < 0.01
    # negative m starts above pi/2, positive m below
    assert doublet_params(sys, -4, 1e-5).theta > math.pi / 2
    assert doublet_params(sys, 4, 1e-5).theta < math.pi / 2


def test_bell_field_values():
    sys = si_bi()
    b1 = bell_field(sys, -1)
    assert abs(b1 * 1e3 - 52.7) < 0.1
    # the crossing field scales exactly linearly in |m|
    assert abs(bell_field(sys, -4) / b1 - 4.0) < 1e-3 * 4.0


def test_bell_field_against_bisection_oracle():
    # independent root-find of Delta_m(B) = 0 on the analytic detuning
    sys = si_bi()
    for m in (-1, -2, -3, -4):
        lo, hi = 1e-6, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if doublet_params(sys, m, mid).delta_detuning < 0:
                lo = mid
            else:
                hi = mid
        assert abs(bell_field(sys, m) - 0.5 * (lo + hi)) < 1e-9


def test_bell_field_state_properties():
    sys = si_bi()
    for m in (-1, -4):
        b = bell_field(sys, m)
        p = doublet_params(sys, m, b)
        assert abs(p.theta - math.pi / 2) < 1e-9
        es = diagonalize(sys, b)
        for branch in (+1, -1):
            label = sys.label_of(m, branch)
            assert concurrence(es, label) > 1 - 1e-6
            assert abs(expectation_sz(es, label)) < 1e-9


NUCLEAR_SPINS = [0.5, 1.0, 1.5, 4.0, 4.5]


def _donor(nuclear_spin):
    return dataclasses.replace(si_bi(), nuclear_spin=nuclear_spin)


@pytest.mark.parametrize("nuclear_spin", NUCLEAR_SPINS)
def test_label_of_inverts_label_structure(nuclear_spin):
    sys = _donor(nuclear_spin)
    ms, branches = label_structure(sys)
    for label, (m, branch) in enumerate(zip(ms, branches), start=1):
        assert sys.label_of(m, branch) == label
        assert sys.label_of(float(m), int(branch)) == label
    for m in (ms.max() + 1.0, ms.min() - 1.0, 0.25):
        for branch in (+1, -1):
            with pytest.raises(ValueError):
                sys.label_of(m, branch)
    with pytest.raises(ValueError):
        sys.label_of(ms[0], 0)


@pytest.mark.parametrize("nuclear_spin", NUCLEAR_SPINS)
def test_doublet_views_reject_every_m_off_the_doublet_ladder(nuclear_spin):
    sys = _donor(nuclear_spin)
    doublets = sys.doublet_ms()[1:-1]
    top = nuclear_spin + 0.5
    # half-steps off the ladder (0.5 for I = 9/2, 0 for I = 1), the
    # stretched states and beyond
    candidates = np.arange(-top - 1.0, top + 1.25, 0.5)
    for m in (float(m) for m in candidates if m not in doublets):
        for view in (lambda: doublet_params(sys, m, 0.3), lambda: doublet_energies(sys, m, 0.3),
                     lambda: doublet_state(sys, m, 0.3, +1), lambda: doublet_state(sys, m, 0.3, -1),
                     lambda: bell_field(sys, m)):
            with pytest.raises(ValueError, match="not a doublet"):
                view()
    for m in doublets:
        doublet_params(sys, m, 0.3)
        doublet_energies(sys, m, 0.3)


def test_non_integer_label_is_a_value_error():
    sys = si_bi()
    es = diagonalize(sys, 0.3)
    for call in (lambda: es.energy(2.5), lambda: es.state(2.5),
                 lambda: expectation_sz(es, 2.5), lambda: concurrence(es, 2.5),
                 lambda: transition_frequency(sys, 2.5, 3, 0.3),
                 lambda: transition_frequency(sys, 3, 2.0, 0.3)):
        with pytest.raises(ValueError, match="label must be an integer"):
            call()


def test_bell_field_domain():
    sys = si_bi()
    for m in (0, 1, 4):
        with pytest.raises(ValueError):
            bell_field(sys, m)
    with pytest.raises(ValueError):
        doublet_params(sys, 5, 0.1)
    with pytest.raises(ValueError):
        doublet_params(sys, -5, 0.1)


@pytest.mark.parametrize("system", [si_bi(), AS_LIKE], ids=["Si:Bi", "I=3/2"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fields=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40))
def test_slopes_obey_hellmann_feynman(system, fields):
    # dE/dB = <dH/dB> = f1 (<Sz> - delta <Iz>), and <Iz> = m - <Sz>
    grid = [0.0, 2.0, *(bell_field(system, m) for m in system.doublet_ms()
                        if -system.nuclear_spin < m < 0), *fields]
    table = level_table(system, grid)
    m, _ = label_structure(system)
    f1, delta = system.zeeman_mhz(1.0), system.nuclear_zeeman_delta
    expected = f1 * (table.sz * (1.0 + delta) - m * delta)
    # slopes cross zero; there the bound is relative to their scale f1
    np.testing.assert_allclose(table.slopes, expected, rtol=1e-12, atol=1e-12 * f1)
