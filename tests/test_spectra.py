"""Resonance search, intensities, synthesized spectra, frequency-field map."""

import dataclasses

import numpy as np
import pytest

from donorspin import diagonalize, si_bi
from donorspin.doublet import label_structure
from donorspin.spectra import (
    SpectrumCurve,
    Transition,
    _adjacent_pairs,
    df_db,
    find_all_resonances,
    frequency_field_map,
    rabi_frequency,
    resonance_fields,
    sx_matrix_element,
    synthesize_spectrum,
    transition_frequency,
)

SYS = si_bi()


@pytest.mark.parametrize("nuclear_spin", [0.5, 1.0, 1.5, 4.5, 7.0, 10.5, 99.5])
def test_adjacent_pairs_match_the_d_by_d_listing(nuclear_spin):
    system = dataclasses.replace(SYS, nuclear_spin=nuclear_spin, nuclear_zeeman_delta=0.0)
    m, _ = label_structure(system)
    want = np.argwhere(np.triu(np.abs(m[:, None] - m[None, :]) == 1.0)) + 1
    got = _adjacent_pairs(system)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert len(got) == 2 * system.dimension - 4


def test_transition_frequency_at_resonance_fields():
    assert abs(transition_frequency(SYS, 11, 10, 0.3450) - 4044.0) < 12.0
    assert abs(transition_frequency(SYS, 10, 9, 0.1456) - 4044.0) < 12.0
    # zero-field gap between the multiplets is 5A; labels 10 and 9 sit on
    # opposite sides of it, labels 10 and 20 are degenerate there
    assert abs(transition_frequency(SYS, 10, 9, 0.0) - 7377.0) < 1e-6
    assert transition_frequency(SYS, 20, 10, 0.0) < 1e-6


def test_resonance_fields_of_the_4ghz_lines():
    roots = resonance_fields(SYS, 10, 9, 4044.0, (0.0, 0.6))
    assert len(roots) == 1
    assert abs(roots[0] * 1e3 - 145.6) < 0.5
    roots = resonance_fields(SYS, 11, 10, 4044.0, (0.0, 0.6))
    assert len(roots) == 1
    assert abs(roots[0] * 1e3 - 345.0) < 0.5


def test_resonance_fields_unreachable_target():
    # f(8,11) has an interior minimum near 5218 MHz; below it no roots
    assert resonance_fields(SYS, 8, 11, 5100.0, (0.12, 0.3)) == []


def test_resonance_fields_near_tangent_pair():
    # refine the interior minimum of f(8,11), then ask for a frequency
    # just above it: the two roots sit inside one 0.5 mT scan cell and
    # are only caught by the turning-point probe
    lo, hi = 0.18, 0.20
    for _ in range(60):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if transition_frequency(SYS, 8, 11, m1) > transition_frequency(SYS, 8, 11, m2):
            lo = m1
        else:
            hi = m2
    b_min = 0.5 * (lo + hi)
    f_min = transition_frequency(SYS, 8, 11, b_min)
    roots = resonance_fields(SYS, 8, 11, f_min + 5e-4, (0.0, 0.6))
    assert len(roots) == 2
    assert roots[0] < b_min < roots[1]
    assert (roots[1] - roots[0]) * 1e3 < 0.25
    assert abs(0.5 * (roots[0] + roots[1]) - b_min) * 1e3 < 0.02
    # the turning point itself has vanishing field sensitivity
    assert abs(df_db(SYS, 8, 11, b_min)) <= 0.01


def test_root_completeness_on_dense_grid():
    # no sign change of f - 4044 on a 0.05 mT grid away from found roots
    roots = resonance_fields(SYS, 11, 10, 4044.0, (0.0, 0.6))
    dense = np.arange(0.0, 0.6, 0.05e-3)
    vals = np.array([transition_frequency(SYS, 11, 10, float(b)) - 4044.0 for b in dense])
    crossings = dense[np.where(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]]
    for c in crossings:
        assert any(abs(c - r) < 1e-3 for r in roots)
    assert len(crossings) == len(roots)


def test_find_all_resonances_4ghz():
    found = find_all_resonances(SYS, 4044.0, (0.0, 0.6))
    assert len(found) == 2
    first, second = found
    assert (first.label_upper, first.label_lower) == (10, 9)
    assert (second.label_upper, second.label_lower) == (11, 10)
    assert abs(first.field_b * 1e3 - 145.6) < 0.5
    assert abs(second.field_b * 1e3 - 345.0) < 0.5
    ratio = second.sx_element / first.sx_element
    assert abs(ratio - 1.10) < 0.03
    assert abs(second.intensity / first.intensity - 1.2) < 0.05


def test_find_all_resonances_floor_filters_everything():
    assert find_all_resonances(SYS, 4044.0, (0.0, 0.6), intensity_floor=0.5) == []


def test_find_all_resonances_xband_count():
    # the historically observed X-band set: ten lines; a 0.01 floor cuts
    # the weakly allowed set (max intensity 0.0074 at this frequency)
    found = find_all_resonances(SYS, 9700.0, (0.0, 1.0), intensity_floor=0.01)
    assert len(found) == 10
    pairs = {(t.label_upper, t.label_lower) for t in found}
    assert pairs == {(11 + k, 10 - k) for k in range(10)}


def test_transition_invariants():
    for tr in find_all_resonances(SYS, 4044.0, (0.0, 0.6)):
        assert tr.frequency > 0
        assert 0 < tr.intensity <= 0.25 + 1e-12
        assert abs(tr.intensity - tr.sx_element**2) < 1e-15
        es = diagonalize(SYS, tr.field_b)
        assert es.energy(tr.label_upper) > es.energy(tr.label_lower)
    with pytest.raises(ValueError):
        Transition(11, 10, 0.3, -1.0, 0.1, 0.01, 1.0)
    with pytest.raises(ValueError):
        Transition(11, 10, 0.3, 4044.0, 1.0, 1.0, 1.0)


def test_matrix_element_symmetry_and_selection_rule():
    rng = np.random.default_rng(5)
    for b in rng.uniform(0.01, 1.0, 5):
        assert abs(
            sx_matrix_element(SYS, 11, 10, float(b)) - sx_matrix_element(SYS, 10, 11, float(b))
        ) < 1e-12
    # |m| differs by 2: element vanishes identically
    assert sx_matrix_element(SYS, 12, 10, 0.3) == 0.0
    assert sx_matrix_element(SYS, 9, 11, 0.3) == 0.0  # same m, opposite branch


def test_matrix_elements_high_field_limits():
    assert abs(sx_matrix_element(SYS, 11, 10, 6.0) - 0.5) < 0.001
    assert sx_matrix_element(SYS, 10, 9, 6.0) < 0.01


def test_resonance_regression_values():
    # frozen from this implementation (bisection tolerance 1e-6 T)
    found = find_all_resonances(SYS, 4044.0, (0.0, 0.6))
    assert abs(found[0].field_b - 0.14562841796875) < 2e-6
    assert abs(found[1].field_b - 0.34502392578125) < 2e-6
    assert abs(found[0].dfdb_mhz_per_mt - (-19.3284)) < 0.01
    assert abs(found[1].dfdb_mhz_per_mt - 23.0604) < 0.01
    # "similar gradient" at the two fields: magnitudes within 35%
    assert abs(abs(found[0].dfdb_mhz_per_mt) / found[1].dfdb_mhz_per_mt - 1.0) < 0.35


def test_df_db_high_field_is_electron_zeeman_slope():
    assert abs(df_db(SYS, 11, 10, 6.0) - 28.0) < 0.1


def test_rabi_frequency_scaling():
    # drive amplitude that makes the strong line nutate at 15.625 MHz,
    # matching a 32 ns pi pulse
    b = 0.3450239
    f1 = 15.625 / (2.0 * sx_matrix_element(SYS, 11, 10, b))
    assert abs(rabi_frequency(SYS, 11, 10, b, f1) - 15.625) < 1e-9
    assert abs(1.0 / (2 * rabi_frequency(SYS, 11, 10, b, f1)) * 1e3 - 32.0) < 1e-6
    # forbidden pair nutates at zero frequency
    assert rabi_frequency(SYS, 12, 10, 0.3, f1) == 0.0


def test_rabi_ratio_between_the_two_lines():
    f1 = 10.0
    fa = rabi_frequency(SYS, 10, 9, 0.14562841796875, f1)
    fb = rabi_frequency(SYS, 11, 10, 0.34502392578125, f1)
    assert abs(fb / fa - 1.10) < 0.03


def test_synthesize_spectrum_modes_and_linearity():
    found = find_all_resonances(SYS, 4044.0, (0.0, 0.6))
    grid = np.linspace(0.10, 0.40, 6001)
    absorption = synthesize_spectrum(found, 0.7, "absorption", grid)
    derivative = synthesize_spectrum(found, 0.7, "derivative", grid)
    # derivative integrates back to absorption (up to the integration
    # constant, zero on a grid that starts far from any line)
    integrated = np.concatenate(
        ([0.0], np.cumsum(0.5 * (derivative.signal[1:] + derivative.signal[:-1]) * np.diff(grid)))
    )
    scale = np.max(np.abs(absorption.signal))
    assert np.max(np.abs(integrated - absorption.signal)) < 1e-2 * scale
    # the derivative mode is the exact field derivative: on a fine window
    # around one line it matches a central difference of the absorption
    window = np.linspace(0.335, 0.355, 4001)
    abs_fine = synthesize_spectrum(found, 0.7, "absorption", window).signal
    der_fine = synthesize_spectrum(found, 0.7, "derivative", window).signal
    h = window[1] - window[0]
    numeric = (abs_fine[2:] - abs_fine[:-2]) / (2 * h)
    der_scale = np.max(np.abs(der_fine))
    assert np.max(np.abs(numeric - der_fine[1:-1])) < 2e-4 * der_scale
    # stacking is linear: one line at a time sums to the full curve
    parts = sum(
        synthesize_spectrum([tr], 0.7, "absorption", grid).signal for tr in found
    )
    assert np.max(np.abs(parts - absorption.signal)) < 1e-12 * scale


def test_synthesize_spectrum_area_ratio():
    found = find_all_resonances(SYS, 4044.0, (0.0, 0.6))
    grid = np.linspace(0.10, 0.40, 12001)
    curve = synthesize_spectrum(found, 0.7, "absorption", grid)
    split = np.searchsorted(grid, 0.25)
    area_low = np.trapezoid(curve.signal[:split], grid[:split])
    area_high = np.trapezoid(curve.signal[split:], grid[split:])
    assert abs(area_high / area_low - 1.2) < 0.05


def test_synthesize_spectrum_empty_and_validation():
    grid = np.linspace(0.1, 0.4, 101)
    curve = synthesize_spectrum([], 0.7, "absorption", grid)
    assert np.all(curve.signal == 0.0)
    with pytest.raises(ValueError):
        synthesize_spectrum([], 0.7, "dispersion", grid)
    with pytest.raises(ValueError):
        synthesize_spectrum([], -0.1, "absorption", grid)


def test_frequency_field_map_zero_field():
    rows = frequency_field_map(SYS, np.array([0.0]))
    assert len(rows) > 0
    assert np.allclose(rows["freq_mhz"], 7377.0, atol=1e-6)


def test_frequency_field_map_curve_counts():
    # every adjacent-doublet pair (there are 36 of them for I = 9/2) can
    # carry weight; per-field curve count stays within that bound
    rows = frequency_field_map(SYS, np.linspace(0.01, 0.6, 30))
    fields, counts = np.unique(rows["field_b"], return_counts=True)
    assert len(fields) == 30
    assert np.all(counts >= 1)
    assert np.all(counts <= 36)


def test_frequency_field_map_xband_branches():
    # in the X-band window the observable set is the ten EPR branches
    rows = frequency_field_map(SYS, np.linspace(0.0, 0.65, 131), intensity_floor=0.05)
    hi = rows[rows["freq_mhz"] > 9000.0]
    pairs = {(int(u), int(l)) for u, l in zip(hi["label_upper"], hi["label_lower"])}
    assert pairs == {(11 + k, 10 - k) for k in range(10)}


def test_spectrum_curve_is_frozen():
    grid = np.linspace(0.1, 0.4, 11)
    curve = synthesize_spectrum([], 0.7, "absorption", grid)
    assert isinstance(curve, SpectrumCurve)
    with pytest.raises(ValueError):
        curve.signal[0] = 1.0


def test_synthesize_spectrum_leaves_the_callers_grid_writable():
    grid = np.linspace(0.1, 0.4, 11)
    lines = find_all_resonances(SYS, 4044.0, (0.0, 0.6))
    curve = synthesize_spectrum(lines, 0.7, "derivative", grid)
    assert grid.flags.writeable
    grid[0] = 0.0
    assert curve.field_grid[0] == 0.1
