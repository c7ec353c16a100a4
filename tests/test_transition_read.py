"""`LevelTable.pair`, the one read of a transition, and the resonance list
built from it against a per-row reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donorspin import SpinSystem, si_bi
from donorspin.constants import BI_G_FACTOR, BI_NUCLEAR_ZEEMAN_DELTA
from donorspin.doublet import label_structure, level_table
from donorspin.spectra import (
    Transition,
    _adjacent_pairs,
    _resonance_roots,
    find_all_resonances,
)

SYS = si_bi()
LABELS = np.arange(1, SYS.dimension + 1)


def reference_resonances(sys, frequency, b_range, intensity_floor):
    """One root at a time: orient the labels by energy, read |<Sx>| and
    the slope at that row, keep it above the floor, sort by field."""
    pairs = _adjacent_pairs(sys)
    index, fields = _resonance_roots(sys, pairs, frequency, b_range)
    table = level_table(sys, fields)
    found = []
    for row, k in enumerate(index):
        upper, lower = (int(label) for label in pairs[k])
        if table.energies[row, upper - 1] < table.energies[row, lower - 1]:
            upper, lower = lower, upper
        sx = float(table.pair(upper, lower)[2][row])
        slope = table.slopes[row, upper - 1] - table.slopes[row, lower - 1]
        if sx * sx > intensity_floor:
            found.append(Transition(
                label_upper=upper, label_lower=lower, field_b=float(fields[row]),
                frequency=frequency, sx_element=sx, intensity=sx * sx,
                dfdb_mhz_per_mt=float(slope * 1e-3)))
    found.sort(key=lambda t: t.field_b)
    return found


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@example(nuclear_spin=4.5, nuclear_zeeman_delta=BI_NUCLEAR_ZEEMAN_DELTA, hyperfine_mhz=1475.4,
         frequency=4044.0, ends=(0.0, 0.6), intensity_floor=1e-4)
@example(nuclear_spin=4.5, nuclear_zeeman_delta=BI_NUCLEAR_ZEEMAN_DELTA, hyperfine_mhz=1475.4,
         frequency=9700.0, ends=(0.0, 0.6), intensity_floor=1e-4)
@given(
    nuclear_spin=st.sampled_from([0.5, 1.0, 1.5, 4.5]),
    nuclear_zeeman_delta=st.sampled_from([0.0, -1.6e-4, BI_NUCLEAR_ZEEMAN_DELTA]),
    hyperfine_mhz=st.sampled_from([117.53, 198.35, 1475.4]),
    frequency=st.floats(100.0, 12000.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda ends: abs(ends[0] - ends[1]) > 1e-3),
    intensity_floor=st.sampled_from([0.0, 1e-4, 0.05]),
)
def test_find_all_resonances_equals_the_per_row_reference(
        nuclear_spin, nuclear_zeeman_delta, hyperfine_mhz, frequency, ends, intensity_floor):
    system = SpinSystem(nuclear_spin=nuclear_spin, hyperfine_mhz=hyperfine_mhz,
                        g_factor=BI_G_FACTOR, nuclear_zeeman_delta=nuclear_zeeman_delta)
    b_range = tuple(sorted(ends))
    got = find_all_resonances(system, frequency, b_range, intensity_floor)
    want = reference_resonances(system, frequency, b_range, intensity_floor)
    assert got == want
    # repr also tells -0.0 from 0.0 and numpy scalars from Python ones
    assert [repr(t) for t in got] == [repr(t) for t in want]


def _table():
    rng = np.random.default_rng(5)
    return level_table(SYS, np.concatenate(([0.0, 0.3446], rng.uniform(0.0, 1.5, 9))))


def test_pair_outer_scalar_by_array():
    table = _table()
    gap, slope, sx = table.pair(11, LABELS)
    assert gap.shape == slope.shape == sx.shape == (len(table.fields), SYS.dimension)
    assert np.array_equal(gap, table.energies[:, [10]] - table.energies)
    assert np.array_equal(slope, table.slopes[:, [10]] - table.slopes)
    # the drive couples only labels one m apart
    m, _ = label_structure(SYS)
    assert np.array_equal(sx[1] != 0.0, np.abs(m[10] - m) == 1)


def test_pair_outer_label_grid():
    table = _table()
    gap, slope, sx = table.pair(LABELS[:, None], LABELS[None, :])
    shape = (len(table.fields), SYS.dimension, SYS.dimension)
    assert gap.shape == slope.shape == sx.shape == shape
    assert np.array_equal(gap, table.energies[:, :, None] - table.energies[:, None, :])
    assert np.array_equal(slope, table.slopes[:, :, None] - table.slopes[:, None, :])
    assert np.array_equal(sx, np.swapaxes(sx, 1, 2))
    assert np.array_equal(gap, -np.swapaxes(gap, 1, 2))


def test_pair_paired_rows_and_one_row():
    table = _table()
    rng = np.random.default_rng(9)
    rows = rng.integers(0, len(table.fields), 40)
    i, j = rng.integers(1, SYS.dimension + 1, (2, 40))
    outer = table.pair(LABELS[:, None], LABELS[None, :])
    for paired, grid in zip(table.pair(i, j, rows), outer):
        assert paired.shape == (40,)
        assert np.array_equal(paired, grid[rows, i - 1, j - 1])
    gap, slope, sx = table.pair(11, 10, 1)
    assert np.ndim(gap) == np.ndim(slope) == np.ndim(sx) == 0
    assert (gap, slope, sx) == (outer[0][1, 10, 9], outer[1][1, 10, 9], outer[2][1, 10, 9])
