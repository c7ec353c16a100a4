"""Counter-based random occupancy."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bath_reference import _site_keys, enumerate_pairs, generate_lattice, occupy, quarter_sites

from donorspin.bath import CceParams, LatticeSpec, build_configuration, occupied_sites
from donorspin.bath import occupancy
from donorspin.bath.occupancy import (
    _DONOR_KEY,
    _chooser,
    _lattice_pairs,
    in_cube,
)

A0 = 0.543


def _quarters(positions):
    return set(map(tuple, np.rint(positions * 4.0 / A0).astype(int)))


def _position_set(config):
    return _quarters(config.positions)


def test_abundance_extremes():
    sites = generate_lattice(LatticeSpec(side_nm=3.0))
    assert len(occupy(sites, 0.0, seed=1).positions) == 0
    # abundance 1 takes every site except the donor
    assert len(occupy(sites, 1.0, seed=1).positions) == len(sites) - 1


def test_occupied_count_binomial():
    sites = generate_lattice(LatticeSpec(side_nm=14.0))
    n = len(sites)
    p = 0.0467
    count = len(occupy(sites, p, seed=7).positions)
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(count - n * p) < 3 * sigma


def test_determinism_and_seed_sensitivity():
    sites = generate_lattice(LatticeSpec(side_nm=5.0))
    a = occupy(sites, 0.0467, seed=11)
    b = occupy(sites, 0.0467, seed=11)
    c = occupy(sites, 0.0467, seed=12)
    assert np.array_equal(a.positions, b.positions)
    assert _position_set(a) != _position_set(c)


def test_order_independence():
    sites = generate_lattice(LatticeSpec(side_nm=5.0))
    shuffled = sites[np.random.default_rng(0).permutation(len(sites))]
    assert _position_set(occupy(sites, 0.0467, seed=3)) == _position_set(
        occupy(shuffled, 0.0467, seed=3)
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    side_nm=st.sampled_from([1.2, 2.0, 3.0]),
    seed=st.integers(0, 2**64),
    abundance=st.floats(0.0, 1.0),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_occupancy_unchanged_under_random_permutation(side_nm, seed, abundance, order_seed):
    sites = generate_lattice(LatticeSpec(side_nm=side_nm))
    order = np.random.default_rng(order_seed).permutation(len(sites))
    direct = occupy(sites, abundance, seed=seed)
    shuffled = occupy(sites[order], abundance, seed=seed)
    assert len(shuffled.positions) == len(direct.positions)
    assert _position_set(shuffled) == _position_set(direct)


def test_common_random_numbers_across_sizes():
    # decisions are keyed by donor-relative position, so enlarging the
    # cube keeps every existing site's decision (same lattice parity)
    small = generate_lattice(LatticeSpec(side_nm=3 * A0))
    large = generate_lattice(LatticeSpec(side_nm=5 * A0))
    occ_small = _position_set(occupy(small, 0.1, seed=5))
    occ_large = _position_set(occupy(large, 0.1, seed=5))
    small_set = set(map(tuple, np.rint(small * 4.0 / A0).astype(int)))
    assert occ_large & small_set == occ_small


def _occupied_set(side_nm, seed):
    return set(map(tuple, occupied_sites(LatticeSpec(side_nm=side_nm), seed=seed).tolist()))


def _site_set(side_nm):
    return _quarters(generate_lattice(LatticeSpec(side_nm=side_nm)))


def _donor_sublattice(quarters):
    """The sites an fcc vector from the donor: every quarter coordinate even."""
    return {q for q in quarters if all(c % 2 == 0 for c in q)}


# the default converge sides have 12, 18, 25 and 33 cells per axis
@pytest.mark.parametrize("large, small", [(18.0, 14.0), (10.0, 7.0)])
def test_cubes_of_one_cell_parity_nest_exactly(large, small):
    assert LatticeSpec(large).cells_per_axis % 2 == LatticeSpec(small).cells_per_axis % 2
    occ_small = _occupied_set(small, seed=77)
    assert _occupied_set(large, seed=77) & _site_set(small) == occ_small
    # both sublattices recur
    assert occ_small != _donor_sublattice(occ_small)


@pytest.mark.parametrize("large, small", [(4, 2), (5, 3), (18, 12)])
def test_smaller_cube_of_one_parity_is_the_larger_cube_in_its_box(large, small):
    small_spec, large_spec = LatticeSpec(small * A0), LatticeSpec(large * A0)
    assert (small_spec.cells_per_axis, large_spec.cells_per_axis) == (small, large)
    sites = generate_lattice(small_spec)
    low, high = sites.min(axis=0), sites.max(axis=0)
    for seed in (3, 77):
        occ_large = occupied_sites(large_spec, 0.3, seed)
        pos = occ_large * (A0 / 4.0)
        box = np.all((pos >= low) & (pos <= high), axis=1)
        # the same sites in the same order
        assert np.array_equal(occupied_sites(small_spec, 0.3, seed), occ_large[box])
        assert np.array_equal(in_cube(occ_large, small_spec), box)
    assert np.all(in_cube(quarter_sites(generate_lattice(large_spec), A0), large_spec))


@pytest.mark.parametrize("large, small", [(14.0, 10.0), (18.0, 10.0), (14.0, 7.0)])
def test_across_cell_parity_only_the_donor_sublattice_recurs(large, small):
    # an odd cell count puts the donor on the other fcc sublattice, so the
    # other sublattice's donor-relative sites of the two cubes are disjoint
    assert LatticeSpec(large).cells_per_axis % 2 != LatticeSpec(small).cells_per_axis % 2
    occ_small = _occupied_set(small, seed=77)
    recurring = _occupied_set(large, seed=77) & _site_set(small)
    assert recurring == _donor_sublattice(occ_small)
    assert recurring != occ_small

def test_invalid_abundance():
    sites = generate_lattice(LatticeSpec(side_nm=3.0))
    with pytest.raises(ValueError):
        occupy(sites, 1.5, seed=0)
    with pytest.raises(ValueError):
        occupy(sites, -0.1, seed=0)


def test_positions_are_read_only():
    params = CceParams(transition=(11, 10), field_b=0.3446, lattice=LatticeSpec(side_nm=3.0),
                       time_grid_ms=(0.0, 0.1), abundance=0.5)
    config = build_configuration(params, 0)
    arrays = (config.sites, config.couplings_j, config.pair_indices, config.pair_b)
    assert all(len(arr) for arr in arrays)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    cells=st.integers(2, 40),
    a0_nm=st.sampled_from([A0, 0.5, 0.61]),
    seed=st.integers(0, 2**64 - 1),
    abundance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
@example(cells=39, a0_nm=0.5, seed=2**64 - 1, abundance=0.0467)
@example(cells=40, a0_nm=0.61, seed=0, abundance=1.0)
def test_streamed_occupancy_equals_occupy_of_the_full_lattice(cells, a0_nm, seed, abundance):
    spec = LatticeSpec(side_nm=(cells + 0.5) * a0_nm, a0_nm=a0_nm)
    assert spec.cells_per_axis == cells
    direct = occupy(generate_lattice(spec), abundance, seed, a0_nm).positions
    sites = occupied_sites(spec, abundance, seed)
    assert sites.dtype == np.int64
    # a site sits at q (a0/4) nm: the reference's floats, bit for bit
    streamed = sites * (a0_nm / 4.0)
    assert streamed.shape == direct.shape
    assert streamed.tobytes() == direct.tobytes()


def test_streamed_occupancy_checks_its_inputs():
    with pytest.raises(ValueError, match="abundance"):
        occupied_sites(LatticeSpec(side_nm=3.0), 1.5, seed=0)
    # 2^19 cells per axis: rejected before any plane is built
    with pytest.raises(ValueError, match="too large"):
        occupied_sites(LatticeSpec(side_nm=A0 * (2**19 + 0.5)), 0.05, seed=0)


def _splitmix64(x):
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def _hashes(keys, seed):
    """Each site's 64-bit hash, on Python integers."""
    seed_mixed = _splitmix64(seed % (1 << 64))
    return [_splitmix64(seed_mixed ^ int(k)) for k in keys]


def _float_rule(keys, abundance, seed):
    """The decision as a float compare, (h >> 11) 2^-53 < abundance; the
    donor's key is left to the caller."""
    return np.array([(h >> 11) * 2.0**-53 < abundance for h in _hashes(keys, seed)])


def test_integer_decision_equals_the_float_compare():
    keys = _site_keys(generate_lattice(LatticeSpec(side_nm=2.0)), A0)
    not_donor = keys != _DONOR_KEY
    seed = 2024
    # a site's own uniform is an abundance whose 2^53 multiple is an integer:
    # that site sits on the strict boundary and stays empty. In [1/4, 1/2)
    # the float spacing is 2^-54, so the neighbouring abundances are not
    uniforms = np.sort([(h >> 11) * 2.0**-53 for h in _hashes(keys, seed)])
    edge = float(uniforms[2 * len(uniforms) // 5])
    assert 0.25 <= edge < 0.5 and (edge * 2.0**53).is_integer()
    assert not (np.nextafter(edge, 1.0) * 2.0**53).is_integer()
    for abundance in (0.0, 1.0, 0.5, 0.0467, edge, np.nextafter(edge, 1.0),
                      np.nextafter(edge, 0.0), 2.0**-53, 1.0 - 2.0**-53):
        want = _float_rule(keys, abundance, seed) & not_donor
        assert np.array_equal(_chooser(abundance, seed)(keys), want), abundance
    assert np.sum(_chooser(0.0, seed)(keys)) == 0
    assert np.array_equal(_chooser(1.0, seed)(keys), not_donor)
    assert np.sum(_chooser(np.nextafter(edge, 1.0), seed)(keys)) == (
        np.sum(_chooser(edge, seed)(keys)) + 1)


def _shell_radii(a0_nm):
    """The 2nd- and 3rd-neighbour radii, exact lattice distances."""
    return [a0_nm * math.sqrt(2.0) / 2.0, a0_nm * math.sqrt(11.0) / 4.0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    cells=st.integers(2, 7),
    a0_nm=st.sampled_from([A0, 0.5]),
    abundance=st.sampled_from([0.0, 0.0467, 1.0]),
    seed=st.integers(0, 2**64 - 1),
    shuffle=st.none() | st.integers(0, 2**32 - 1),
    map_sites=st.sampled_from([occupancy._RANK_MAP_SITES, 0]),
)
@example(cells=4, a0_nm=A0, abundance=1.0, seed=0, shuffle=None, map_sites=0)
@example(cells=5, a0_nm=0.5, abundance=1.0, seed=0, shuffle=None, map_sites=0)
@example(cells=7, a0_nm=A0, abundance=0.0467, seed=2024, shuffle=None, map_sites=0)
@example(cells=6, a0_nm=0.5, abundance=0.0467, seed=1, shuffle=3, map_sites=1 << 22)
def test_lattice_pairs_equal_enumerate_pairs(cells, a0_nm, abundance, seed, shuffle, map_sites):
    # both cell parities; the shell radii are inclusive cutoffs, and 1.1 nm
    # pads the cube by more than one cell. With no floor under the rank map,
    # a sparse cube's sites are taken a slab of x-planes at a time
    spec = LatticeSpec(side_nm=(cells + 0.5) * a0_nm, a0_nm=a0_nm)
    assert spec.cells_per_axis == cells
    sites = occupied_sites(spec, abundance, seed)
    if shuffle is not None:
        # any subset, in occupancy's order
        rng = np.random.default_rng(shuffle)
        sites = sites[np.sort(rng.permutation(len(sites))[: len(sites) // 2])]
    for r_max in [*_shell_radii(a0_nm), 0.3, 0.7, 1.1]:
        want = enumerate_pairs(sites * (a0_nm / 4.0), r_max)
        with mock.patch.object(occupancy, "_RANK_MAP_SITES", map_sites):
            got = _lattice_pairs(sites, spec, r_max)
        assert got.dtype == np.intp
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_lattice_pairs_refuse_sites_out_of_occupancy_order():
    # a full 3-cell cube: shuffled, or with one site repeated next to itself
    spec = LatticeSpec(side_nm=3 * A0)
    sites = occupied_sites(spec, 1.0, seed=0)
    r_max = _shell_radii(A0)[1]
    shuffled = sites[np.random.default_rng(5).permutation(len(sites))]
    repeated = np.insert(sites, 100, sites[100], axis=0)
    for misordered in (shuffled, repeated):
        with pytest.raises(ValueError, match="occupancy's order"):
            _lattice_pairs(misordered, spec, r_max)


def test_rank_map_of_a_sparse_bath_does_not_grow_with_the_cube():
    # 110 cells: one map of the padded cube would take 8 * 116^3 * 4 B = 50 MB
    spec = LatticeSpec(side_nm=60.0)
    sites = occupied_sites(spec, 0.001, seed=3)
    r_max = _shell_radii(A0)[1]
    tracemalloc.start()
    try:
        got = _lattice_pairs(sites, spec, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * occupancy._RANK_MAP_SITES + 8e6
    assert np.array_equal(got, enumerate_pairs(sites * (A0 / 4.0), r_max))


def test_lattice_pairs_take_sites_of_their_cube_only():
    spec = LatticeSpec(side_nm=3 * A0)
    positions = generate_lattice(spec)
    sites = quarter_sites(positions, A0)
    r_max = _shell_radii(A0)[1]
    assert len(_lattice_pairs(sites, spec, r_max)) == len(enumerate_pairs(positions, r_max))
    with pytest.raises(ValueError, match="sites of the cube"):
        _lattice_pairs(sites + [1, 0, 0], spec, r_max)   # off the diamond lattice
    with pytest.raises(ValueError, match="sites of the cube"):
        _lattice_pairs(sites + 12, spec, r_max)   # outside the cube, 3 cells on
    with pytest.raises(ValueError, match="positive"):
        _lattice_pairs(sites, spec, 0.0)
    assert _lattice_pairs(sites[:1], spec, r_max).shape == (0, 2)
