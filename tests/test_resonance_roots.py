"""The batched resonance solve against a per-pair numpy.polynomial reference."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import donorspin
from donorspin import SpinSystem, si_bi
from donorspin.constants import BI_G_FACTOR, BI_NUCLEAR_ZEEMAN_DELTA
from donorspin.doublet import label_structure, level_table
from donorspin.spectra import (
    ROOT_TOL_MHZ,
    _adjacent_pairs,
    _resonance_roots,
    find_all_resonances,
)


def reference_roots(sys, pairs, frequency, b_range):
    """(pair index, field) row by row: one npoly quartic per (pair, +-f),
    npoly.polyroots, then the same filters and one Newton polish."""
    lo, hi = b_range
    m, _ = label_structure(sys)
    a, nz = sys.hyperfine_mhz, sys.nuclear_zeeman_delta
    p, top = 1.0 + nz, sys.nuclear_spin + 0.5
    tesla_per_y = a / sys.zeeman_mhz(1.0)
    found = []
    for k, (label_i, label_j) in enumerate(pairs):
        dm = m[label_i - 1] - m[label_j - 1]
        rj2 = [top * top, 2.0 * m[label_j - 1] * p, p * p]
        for target in (frequency, -frequency):
            ell2 = npoly.polypow([2.0 * target / a, 2.0 * dm * nz], 2)
            lhs = npoly.polysub([0.0, 2.0 * p * dm], ell2)
            y = npoly.polyroots(npoly.polysub(npoly.polypow(lhs, 2), 4.0 * npoly.polymul(ell2, rj2)))
            b = y[(y.imag >= 0) & (y.imag <= 1e-6 * (1.0 + np.abs(y.real)))].real * tesla_per_y
            found += [(k, target, root) for root in b[(b >= lo) & (b <= hi)]]
    index, targets, fields = np.array(found, dtype=float).reshape(-1, 3).T
    index = index.astype(int)
    i, j = (np.array(pairs, dtype=int).reshape(-1, 2)[index] - 1).T
    rows = np.arange(len(index))

    def residual(b):
        table = level_table(sys, b)
        return (table.energies[rows, i] - table.energies[rows, j] - targets,
                table.slopes[rows, i] - table.slopes[rows, j])

    miss, slope = residual(fields)
    held = np.abs(miss) <= ROOT_TOL_MHZ
    step = np.divide(miss, slope, out=np.zeros_like(miss), where=slope != 0.0)
    stepped = np.clip(fields - step, lo, hi)
    fields = np.where(np.abs(residual(stepped)[0]) < np.abs(miss), stepped, fields)
    return index[held], fields[held]


def _assert_same_roots(system, frequency, b_range):
    pairs = _adjacent_pairs(system)
    index, fields = _resonance_roots(system, pairs, frequency, b_range)
    want_index, want_fields = reference_roots(system, pairs, frequency, b_range)
    assert np.array_equal(index, want_index)
    np.testing.assert_allclose(fields, want_fields, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nuclear_spin=st.sampled_from([0.5, 1.0, 1.5, 4.5]),
    nuclear_zeeman_delta=st.sampled_from([0.0, -1.6e-4, BI_NUCLEAR_ZEEMAN_DELTA]),
    hyperfine_mhz=st.sampled_from([117.53, 198.35, 1475.4]),
    frequency=st.floats(100.0, 12000.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda ends: abs(ends[0] - ends[1]) > 1e-3),
)
def test_batched_roots_match_the_per_pair_reference(
        nuclear_spin, nuclear_zeeman_delta, hyperfine_mhz, frequency, ends):
    system = SpinSystem(nuclear_spin=nuclear_spin, hyperfine_mhz=hyperfine_mhz,
                        g_factor=BI_G_FACTOR, nuclear_zeeman_delta=nuclear_zeeman_delta)
    _assert_same_roots(system, frequency, tuple(sorted(ends)))


def test_batched_roots_where_the_degree_drops():
    # nuclear_zeeman_delta = 0 leaves quadratics; at f = A/2 with
    # delta = 0 the y^2 term cancels too, and with I = 1/2, delta = -1/2
    # the y^4 term cancels
    for nuclear_spin, delta in ((4.5, 0.0), (0.5, 0.0), (0.5, -0.5), (1.5, 0.0)):
        system = SpinSystem(nuclear_spin=nuclear_spin, hyperfine_mhz=1475.4,
                            g_factor=BI_G_FACTOR, nuclear_zeeman_delta=delta)
        for frequency in (737.7, 1475.4, 4044.0, 9700.0):
            _assert_same_roots(system, frequency, (0.0, 2.0))


@pytest.mark.parametrize("frequency, b_max, count", [(4044.0, 0.6, 2), (9700.0, 1.0, 18)])
@pytest.mark.parametrize("delta", [1e-20, 1e-30, 1e-50, 1e-150, 1e-155, 5e-324, -1e-160])
def test_a_negligible_nuclear_zeeman_term_keeps_every_line(frequency, b_max, count, delta):
    # the quartics' leading terms, about 16 delta^2, are negligible over the
    # field range: the lines are delta = 0's, found without a warning
    exact = dataclasses.replace(si_bi(), nuclear_zeeman_delta=0.0)
    want = find_all_resonances(exact, frequency, (0.0, b_max))
    assert len(want) == count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_all_resonances(dataclasses.replace(exact, nuclear_zeeman_delta=delta),
                                  frequency, (0.0, b_max))
    assert [(t.label_upper, t.label_lower) for t in got] == [
        (t.label_upper, t.label_lower) for t in want]
    np.testing.assert_allclose([t.field_b for t in got], [t.field_b for t in want],
                               rtol=0.0, atol=1e-9)


def test_resonance_search_does_not_load_numpy_ma():
    # np.unique imports numpy.ma on first use, 14-26 ms in a fresh process
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from donorspin import si_bi\n"
        "from donorspin.spectra import find_all_resonances\n"
        "assert len(find_all_resonances(si_bi(), 4044.0, (0.0, 0.6))) == 2\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
