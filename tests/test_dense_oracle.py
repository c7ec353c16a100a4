"""The closed-form level engine and resonance solve against dense eigh.

The oracle diagonalizes the full Hamiltonian from `build_hamiltonian`
with `np.linalg.eigh`. Adding a large multiple of the conserved
Fz = Sz + Iz leaves the eigenvectors unchanged and sorts the spectrum
into m blocks, lowest m first, so the k-th eigenvalue always belongs to
the same adiabatic label; nothing of the engine's own labelling is used.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donorspin import (
    bell_field,
    build_hamiltonian,
    concurrence,
    diagonalize,
    expectation_sz,
    si_bi,
    spin_operators,
)
from donorspin.doublet import level_table
from donorspin.spectra import df_db, resonance_fields, sx_matrix_element
from donorspin.spin import SpinSystem

SYS = si_bi()
OPS = spin_operators(SYS)
FZ = np.real(np.diag(OPS.sz + OPS.iz))
FZ_SHIFT_MHZ = 2e5          # above the level spread below 2 T (about 6e4 MHz)
TOP = SYS.nuclear_spin + 0.5
M_ORDER = np.sort(FZ)       # m of each eigenvalue of the shifted matrix, ascending
# within a doublet's block the - branch comes first; the stretched
# states are alone in theirs
LABEL_ORDER = np.array([
    SYS.label_of(m, +1 if m == TOP or (k > 0 and M_ORDER[k - 1] == m) else -1)
    for k, m in enumerate(M_ORDER)
])


H_ZERO = build_hamiltonian(SYS, 0.0) + FZ_SHIFT_MHZ * np.diag(FZ)
H_PER_TESLA = build_hamiltonian(SYS, 1.0) - build_hamiltonian(SYS, 0.0)
assert not np.any(H_ZERO.imag) and not np.any(H_PER_TESLA.imag)
H_ZERO, H_PER_TESLA = H_ZERO.real, H_PER_TESLA.real


def shifted_hamiltonians(fields) -> np.ndarray:
    """The shifted dense Hamiltonian at every field; H is real and linear in B."""
    return H_ZERO + np.asarray(fields, dtype=float).reshape(-1, 1, 1) * H_PER_TESLA


def by_label(shifted_values: np.ndarray) -> np.ndarray:
    """Energies by label from the ascending eigenvalues of the shifted matrices."""
    energies = np.empty_like(shifted_values)
    energies[..., LABEL_ORDER - 1] = shifted_values - FZ_SHIFT_MHZ * M_ORDER
    return energies


def dense_levels(fields) -> tuple[np.ndarray, np.ndarray]:
    """(energies, states) by label from eigh of the shifted dense matrices."""
    vals, vecs = np.linalg.eigh(shifted_hamiltonians(fields))
    states = np.empty_like(vecs)
    states[:, :, LABEL_ORDER - 1] = vecs
    return by_label(vals), states


def test_oracle_label_order_is_the_adiabatic_one():
    # every eigenvector of the shifted matrix sits in the m block its
    # position says, so the position-to-label map needs no vector data
    _, states = dense_levels([0.0, 0.3, 2.0])
    m = np.einsum("fik,i,fik->fk", states.conj(), FZ, states).real
    expected = [TOP - k if k <= 2 * TOP else k - 3 * TOP for k in range(1, SYS.dimension + 1)]
    assert np.allclose(m, expected, atol=1e-9)


def test_level_engine_matches_dense_eigh():
    rng = np.random.default_rng(17)
    fields = np.concatenate((
        [0.0],
        [bell_field(SYS, m) for m in (-1, -2, -3, -4)],
        rng.uniform(0.0, 2.0, 12),
    ))
    energies, states = dense_levels(fields)
    table = level_table(SYS, fields)
    labels = np.arange(1, SYS.dimension + 1)
    sx_engine = table.sx_element(labels[:, None], labels[None, :])
    h_step = 1e-5
    e_hi, _ = dense_levels(fields + h_step)
    e_lo, _ = dense_levels(fields - h_step)
    for row, b in enumerate(fields):
        scale = np.max(np.abs(energies[row]))
        assert np.max(np.abs(table.energies[row] - energies[row])) < 1e-9 * scale
        es = diagonalize(SYS, float(b))
        assert np.max(np.abs(es.energies - energies[row])) < 1e-9 * scale
        overlaps = np.abs(np.sum(es.states.conj() * states[row], axis=0))
        assert np.min(overlaps) > 1 - 1e-9
        sx_dense = np.abs(states[row].conj().T @ OPS.sx @ states[row])
        assert np.max(np.abs(sx_engine[row] - sx_dense)) < 1e-9
        for i in labels:
            for j in labels:
                gap = energies[row, i - 1] - energies[row, j - 1]
                if abs(sx_dense[i - 1, j - 1]) < 1e-12 or abs(gap) < 1.0:
                    continue
                assert abs(sx_matrix_element(SYS, i, j, float(b)) - sx_dense[i - 1, j - 1]) < 1e-9
                numeric = (abs(e_hi[row, i - 1] - e_hi[row, j - 1])
                           - abs(e_lo[row, i - 1] - e_lo[row, j - 1])) / (2 * h_step * 1e3)
                assert abs(df_db(SYS, i, j, float(b)) - numeric) < 1e-5


SCAN_STEP_T = 0.05e-3


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    frequency=st.floats(500.0, 12000.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda ends: abs(ends[0] - ends[1]) > 1e-3),
)
def test_resonance_roots_exact_and_complete_for_every_pair(frequency, ends):
    # extends test_root_completeness_on_dense_grid to every label pair
    lo, hi = sorted(ends)
    grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / SCAN_STEP_T)) + 1)
    dense = by_label(np.linalg.eigvalsh(shifted_hamiltonians(grid)))
    upper, lower = np.triu_indices(SYS.dimension, k=1)
    g = np.abs(dense[:, upper] - dense[:, lower]) - frequency
    crossings = np.signbit(g[:-1]) != np.signbit(g[1:])
    for pair, (i, j) in enumerate(zip(upper + 1, lower + 1)):
        roots = resonance_fields(SYS, int(i), int(j), frequency, (lo, hi))
        if roots:
            at_roots = by_label(np.linalg.eigvalsh(shifted_hamiltonians(roots)))
            miss = np.abs(at_roots[:, i - 1] - at_roots[:, j - 1]) - frequency
            assert np.max(np.abs(miss)) < 1e-6
        # every sign change of the scan brackets a root, to within 1e-3 mT
        for k in np.flatnonzero(crossings[:, pair]):
            assert any(grid[k] - 1e-6 <= r <= grid[k + 1] + 1e-6 for r in roots)


# an I = 3/2 donor with the hyperfine constant and nuclear Zeeman ratio of Si:As
AS_LIKE = SpinSystem(nuclear_spin=1.5, hyperfine_mhz=198.35,
                     g_factor=1.99837, nuclear_zeeman_delta=2.607e-4)


def dense_observables(system: SpinSystem, b_field: float) -> tuple[np.ndarray, np.ndarray]:
    """(<Sz>, concurrence) by label from the eigenvectors of one dense eigh.

    The shift per unit of Fz, four times the largest absolute row sum of H,
    is at least twice the spread of the spectrum, so the ascending
    eigenvalues come in m blocks, lowest m first, with the - branch first
    within a doublet.
    The concurrence of a pure state is twice the product of its two
    Schmidt coefficients, the singular values of its 2 x (2I + 1) amplitudes.
    """
    ops = spin_operators(system)
    fz = np.real(np.diag(ops.sz + ops.iz))
    h = build_hamiltonian(system, b_field)
    shift = 4.0 * np.max(np.sum(np.abs(h), axis=1))
    _, vecs = np.linalg.eigh(h + shift * np.diag(fz))
    m_order = np.sort(fz)
    top = system.nuclear_spin + 0.5
    labels = [system.label_of(m, +1 if m == top or (k > 0 and m_order[k - 1] == m) else -1)
              for k, m in enumerate(m_order)]
    sz, schmidt = np.empty(system.dimension), np.empty((system.dimension, 2))
    sz[np.array(labels) - 1] = np.einsum("ik,ij,jk->k", vecs.conj(), ops.sz, vecs).real
    schmidt[np.array(labels) - 1] = np.linalg.svd(
        vecs.T.reshape(system.dimension, 2, -1), compute_uv=False)
    return sz, 2.0 * schmidt[:, 0] * schmidt[:, 1]


def _assert_closed_forms_match_dense(system: SpinSystem, b_field: float) -> None:
    sz, c = dense_observables(system, b_field)
    es = diagonalize(system, b_field)
    for label in range(1, system.dimension + 1):
        assert abs(expectation_sz(es, label) - sz[label - 1]) < 1e-9
        assert abs(concurrence(es, label) - c[label - 1]) < 1e-9


@pytest.mark.parametrize("system", [SYS, AS_LIKE], ids=["Si:Bi", "I=3/2"])
def test_sz_and_concurrence_match_dense_at_zero_and_bell_fields(system):
    negative_doublets = [m for m in system.doublet_ms() if -system.nuclear_spin < m < 0]
    for b in [0.0, *(bell_field(system, m) for m in negative_doublets)]:
        _assert_closed_forms_match_dense(system, float(b))


@pytest.mark.parametrize("system", [SYS, AS_LIKE], ids=["Si:Bi", "I=3/2"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(b_field=st.floats(0.0, 50.0))
def test_sz_and_concurrence_match_dense_at_random_fields(system, b_field):
    _assert_closed_forms_match_dense(system, b_field)
