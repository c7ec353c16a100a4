"""Diamond-cubic lattice generation."""

import numpy as np
import pytest

from bath_reference import generate_lattice

from donorspin.bath import LatticeSpec

A0 = 0.543


def test_two_cell_cube_has_64_sites():
    sites = generate_lattice(LatticeSpec(side_nm=2 * A0))
    assert len(sites) == 64


def test_site_count_rule():
    # whole cells only: floor(side/a0)^3 cells, 8 sites each
    assert LatticeSpec(side_nm=27.8).cells_per_axis == 51
    spec = LatticeSpec(side_nm=3.0)
    assert spec.cells_per_axis == 5
    assert len(generate_lattice(spec)) == 8 * 5**3


def test_nearest_neighbor_distance():
    sites = generate_lattice(LatticeSpec(side_nm=3 * A0))
    rest = sites[np.any(sites != 0.0, axis=1)]
    nn = np.min(np.linalg.norm(rest, axis=1))
    assert abs(nn - A0 * np.sqrt(3.0) / 4.0) < 1e-12
    # brute force over all pairs of one conventional cell
    cell = sites[np.all((sites >= -1e-9) & (sites < A0 - 1e-9), axis=1)]
    d = np.linalg.norm(cell[:, None, :] - cell[None, :, :], axis=2)
    assert abs(np.min(d[d > 0]) - A0 * np.sqrt(3.0) / 4.0) < 1e-12


def test_donor_at_origin_and_centering():
    for side in (2 * A0, 3 * A0, 14.0):
        sites = generate_lattice(LatticeSpec(side_nm=side))
        assert np.any(np.all(sites == 0.0, axis=1))
        # donor sits near the cube centre: no site is much farther than
        # half the cube diagonal
        assert np.max(np.linalg.norm(sites, axis=1)) < np.sqrt(3.0) * (side / 2 + A0)


def test_sites_on_quarter_grid():
    sites = generate_lattice(LatticeSpec(side_nm=3.0))
    q = sites * 4.0 / A0
    assert np.max(np.abs(q - np.rint(q))) < 1e-9


def test_determinism():
    a = generate_lattice(LatticeSpec(side_nm=5.0))
    b = generate_lattice(LatticeSpec(side_nm=5.0))
    assert np.array_equal(a, b)


def test_invalid_specs():
    with pytest.raises(ValueError):
        LatticeSpec(side_nm=1.5 * A0)
    with pytest.raises(ValueError):
        LatticeSpec(side_nm=5.0, a0_nm=0.0)
