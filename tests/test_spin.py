"""Spin operators, Hamiltonian and eigenstructure."""

import numpy as np
import pytest

from donorspin import (
    build_hamiltonian,
    concurrence,
    diagonalize,
    expectation_sz,
    si_bi,
    spin_matrices,
    spin_operators,
)
from donorspin.spin import SpinSystem


def test_spin_half_is_pauli_over_two():
    jx, jy, jz = spin_matrices(0.5)
    assert np.allclose(jx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(jy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(jz, [[0.5, 0], [0, -0.5]])


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 4.5])
def test_commutation_relations(j):
    jx, jy, jz = spin_matrices(j)
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12


def test_casimir_and_jz_trace():
    jx, jy, jz = spin_matrices(4.5)
    j2 = jx @ jx + jy @ jy + jz @ jz
    assert np.allclose(j2, 4.5 * 5.5 * np.eye(10), atol=1e-12)
    # oracle by enumeration: sum of m^2 over m = -9/2 .. 9/2
    expected = sum((k + 0.5) ** 2 for k in range(5)) * 2
    assert expected == 82.5
    assert abs(np.trace(jz @ jz).real - expected) < 1e-12


@pytest.mark.parametrize("bad", [-0.5, 0.3, 1.2])
def test_invalid_spin_rejected(bad):
    with pytest.raises(ValueError):
        spin_matrices(bad)


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(0.0, 1475.4, 2.0, 1e-4)
    with pytest.raises(ValueError):
        SpinSystem(4.5, -1.0, 2.0, 1e-4)


def test_product_operators_commute_across_subsystems():
    ops = spin_operators(si_bi())
    for s_op in (ops.sx, ops.sy, ops.sz):
        for i_op in (ops.ix, ops.iy, ops.iz):
            assert np.max(np.abs(s_op @ i_op - i_op @ s_op)) < 1e-12
    sdoti = ops.sx @ ops.ix + ops.sy @ ops.iy + ops.sz @ ops.iz
    assert np.max(np.abs(sdoti - ops.s_dot_i)) < 1e-12


def test_hamiltonian_is_hermitian_and_conserves_m():
    sys = si_bi()
    ops = spin_operators(sys)
    fz = ops.sz + ops.iz
    for b in (0.0, 0.1456, 0.3450, 2.0):
        h = build_hamiltonian(sys, b)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h @ fz - fz @ h)) < 1e-10


def test_zero_field_multiplets():
    sys = si_bi()
    h = build_hamiltonian(sys, 0.0)
    vals = np.linalg.eigvalsh(h)
    a = sys.hyperfine_mhz
    # S.I block values: F = I + 1/2 gives I A / 2, F = I - 1/2 gives -(I+1) A / 2
    low, high = -(4.5 + 1) / 2 * a, 4.5 / 2 * a
    assert np.sum(np.abs(vals - high) < 1e-6) == 11
    assert np.sum(np.abs(vals - low) < 1e-6) == 9
    assert abs((high - low) - 5 * a) < 1e-9
    assert abs(5 * a - 7377.0) < 1e-9


def test_decoupled_limit_is_pure_zeeman():
    # with A -> 0 the exact eigenvalues are f0 (m_s - delta m_I)
    sys = SpinSystem(4.5, 1e-12, 2.0003, 2.488e-4)
    b = 0.35
    f0 = sys.zeeman_mhz(b)
    es = diagonalize(sys, b)
    expected = sorted(
        f0 * (ms - sys.nuclear_zeeman_delta * mi)
        for ms in (0.5, -0.5)
        for mi in np.arange(-4.5, 5.0)
    )
    assert np.allclose(np.sort(es.energies), expected, atol=1e-6)


def test_eigensystem_contract():
    sys = si_bi()
    rng = np.random.default_rng(7)
    for b in rng.uniform(0.0, 2.0, 8):
        es = diagonalize(sys, float(b))
        h = build_hamiltonian(sys, float(b))
        scale = max(np.max(np.abs(h)), 1.0)
        residual = h @ es.states - es.states * es.energies
        assert np.max(np.abs(residual)) < 1e-9 * scale
        gram = es.states.conj().T @ es.states
        assert np.max(np.abs(gram - np.eye(20))) < 1e-10
        # trace of H is zero, so labelled energies must sum to zero
        assert abs(np.sum(es.energies)) < 1e-9 * np.max(np.abs(es.energies))


def test_adiabatic_labels_follow_high_field_order():
    sys = si_bi()
    es = diagonalize(sys, 6.0)
    # state 10 is |-1/2, -9/2>, state 20 is |+1/2, +9/2>; in the product
    # basis (m_s desc, m_I desc) these are indices 19 and 0
    assert abs(abs(es.state(10)[19]) - 1.0) < 1e-12
    assert abs(abs(es.state(20)[0]) - 1.0) < 1e-12
    # at high field labels 1..10 run down the m_s = -1/2 multiplet
    order = np.argsort(es.energies[:10])
    assert list(order) == list(range(10))
    # state 11 approaches |+1/2, -9/2> (product index 9)
    assert abs(es.state(11)[9]) ** 2 > 0.999


def test_state_10_is_pure_product_state_everywhere():
    sys = si_bi()
    for b in (0.01, 0.1456, 0.3450, 1.0):
        es = diagonalize(sys, b)
        assert abs(abs(es.state(10)[19]) - 1.0) < 1e-12
        assert concurrence(es, 10) == 0.0
        assert concurrence(es, 20) == 0.0
        assert abs(expectation_sz(es, 10) + 0.5) < 1e-12


def test_label_continuity_across_fields():
    sys = si_bi()
    grid = np.arange(0.001, 0.6, 0.0001)[:200]
    prev = diagonalize(sys, float(grid[0]))
    for b in grid[1:]:
        cur = diagonalize(sys, float(b))
        overlaps = np.abs(np.sum(prev.states.conj() * cur.states, axis=0))
        assert np.min(overlaps) > 0.999
        prev = cur


def test_transition_energies_at_resonance_fields():
    sys = si_bi()
    es = diagonalize(sys, 0.3450)
    assert abs((es.energy(11) - es.energy(10)) - 4044.0) < 12.0
    es = diagonalize(sys, 0.1456)
    assert abs((es.energy(10) - es.energy(9)) - 4044.0) < 12.0


def test_expectation_sz_of_mixed_state():
    sys = si_bi()
    val = expectation_sz(diagonalize(sys, 0.15), 9)
    assert abs(val - 0.184) < 0.01
    # asymptotically states recover pure electron character
    assert expectation_sz(diagonalize(sys, 6.0), 11) > 0.499


def test_concurrence_matches_known_mixing():
    sys = si_bi()
    assert abs(concurrence(diagonalize(sys, 0.1456), 9) - 0.92) < 0.01
    assert abs(concurrence(diagonalize(sys, 0.3450), 11) - 0.76) < 0.01


def test_concurrence_stretched_states_random_fields():
    sys = si_bi()
    rng = np.random.default_rng(11)
    for b in rng.uniform(1e-4, 6.0, 50):
        es = diagonalize(sys, float(b))
        assert concurrence(es, 10) <= 1e-9
        assert concurrence(es, 20) <= 1e-9


def test_label_of_validation():
    sys = si_bi()
    assert sys.label_of(-5, -1) == 10
    assert sys.label_of(5, +1) == 20
    assert sys.label_of(-4, +1) == 11
    assert sys.label_of(4, -1) == 1
    with pytest.raises(ValueError):
        sys.label_of(5, -1)
    with pytest.raises(ValueError):
        sys.label_of(-5, +1)
    with pytest.raises(ValueError):
        sys.label_of(6, +1)
