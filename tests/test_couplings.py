"""Superhyperfine and dipolar couplings."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bath_reference import enumerate_pairs, generate_lattice, reference_b, reference_j

from donorspin.bath import (
    CceParams,
    KohnLuttingerModel,
    LatticeSpec,
    build_configuration,
    dipolar_b,
    superhyperfine_j,
)
from donorspin.constants import SI29_ABUNDANCE

A0 = 0.543
MODEL = KohnLuttingerModel()
SECOND_NN = A0 * math.sqrt(2.0) / 2.0
THIRD_NN = A0 * math.sqrt(11.0) / 4.0
SITES = generate_lattice(LatticeSpec(side_nm=3 * A0))


def test_the_model_has_two_inputs_and_a_fixed_envelope():
    assert [f.name for f in dataclasses.fields(KohnLuttingerModel)] == ["a0_nm", "g_factor"]
    with pytest.raises(TypeError):
        KohnLuttingerModel(eta=1.0)


def _j_reference(pos, model):
    """Independent scalar re-implementation of the contact coupling."""
    x, y, z = pos
    na = math.sqrt(model.rydberg_mev / model.ionization_mev) * model.radius_a_nm
    nb = math.sqrt(model.rydberg_mev / model.ionization_mev) * model.radius_b_nm
    k0 = model.k0_factor * 2 * math.pi / model.a0_nm
    psi = 0.0
    for axis_val, perp_sq in ((x, y * y + z * z), (y, x * x + z * z), (z, x * x + y * y)):
        env = math.exp(-math.sqrt(perp_sq / na**2 + axis_val**2 / nb**2))
        env /= math.sqrt(math.pi * na * na * nb)
        psi += 2.0 * env * math.cos(k0 * axis_val)
    psi /= math.sqrt(6.0)
    mu0 = 1.25663706212e-6
    mu_b = 9.2740100783e-24
    gamma_hz = -8.4655e6
    j_hz = (4 * mu0 / 3) * model.g_factor * mu_b * gamma_hz * model.eta * (psi * psi * 1e27)
    return j_hz * 1e-6


def test_superhyperfine_regression_and_dual_implementation():
    j = superhyperfine_j(np.array([[A0, 0.0, 0.0]]), MODEL)[0]
    assert abs(j - (-11.94415053828541)) < 1e-10
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, (20, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.1]
    got = superhyperfine_j(pts, MODEL)
    want = np.array([_j_reference(p, MODEL) for p in pts])
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_superhyperfine_envelope_decay():
    # sample along [111] at the cosine period so valley oscillations do
    # not mask the envelope; beyond 3 n a the magnitude strictly decays
    period = math.sqrt(3.0) * A0 / MODEL.k0_factor
    start = 3.0 * MODEL.n_scale * MODEL.radius_a_nm
    k_first = int(np.ceil(start / period))
    radii = period * np.arange(k_first, k_first + 8)
    pts = radii[:, None] * (np.ones(3) / math.sqrt(3.0))[None, :]
    mags = np.abs(superhyperfine_j(pts, MODEL))
    assert np.all(np.diff(mags) < 0)
    # and the coupling vanishes far away
    assert np.abs(superhyperfine_j(np.array([[40.0, 0, 0]]), MODEL))[0] < 1e-12


def test_superhyperfine_rejects_donor_site():
    with pytest.raises(ValueError):
        superhyperfine_j(np.zeros((1, 3)), MODEL)


def test_dipolar_regression_value():
    nn = A0 * math.sqrt(3.0) / 4.0
    b = dipolar_b(np.zeros(3), np.array([0.0, 0.0, nn]), np.array([1.0, 0.0, 0.0]))
    assert abs(b - (-3.653085699610586e-4)) < 1e-15
    # independent arithmetic: -(mu0/4pi) gamma^2 h / r^3, theta = pi/2
    want = -1e-7 * (8.4655e6) ** 2 * 6.62607015e-34 / (nn * 1e-9) ** 3 / 1e6
    assert abs(b - want) < 1e-18


def test_dipolar_angular_factor():
    pk = np.zeros(3)
    pl = np.array([0.0, 0.0, 0.4])
    parallel = dipolar_b(pk, pl, np.array([0.0, 0.0, 1.0]))
    perpendicular = dipolar_b(pk, pl, np.array([1.0, 0.0, 0.0]))
    assert abs(parallel / perpendicular - (-2.0)) < 1e-12
    magic = dipolar_b(pk, pl, np.array([math.sqrt(2.0), 0.0, 1.0]))  # cos = 1/sqrt(3)
    assert abs(magic) < 1e-15 * abs(perpendicular)


def test_dipolar_scale_and_errors():
    pk = np.zeros(3)
    assert abs(dipolar_b(pk, np.array([0.0, 0.0, 0.8]), np.array([0, 0, 1.0]))) == pytest.approx(
        abs(dipolar_b(pk, np.array([0.0, 0.0, 0.4]), np.array([0, 0, 1.0]))) / 8.0
    )
    with pytest.raises(ValueError):
        dipolar_b(pk, pk, np.array([0, 0, 1.0]))


def test_enumerate_pairs_against_brute_force():
    sites = generate_lattice(LatticeSpec(side_nm=3 * A0))
    picked = sites[::7]
    for r_max in (A0 * math.sqrt(2) / 2, A0 * math.sqrt(11) / 4):
        pairs = enumerate_pairs(picked, r_max)
        d = np.linalg.norm(picked[:, None, :] - picked[None, :, :], axis=2)
        want = {
            (i, j)
            for i in range(len(picked))
            for j in range(i + 1, len(picked))
            if d[i, j] ** 2 <= r_max**2 + 1e-9
        }
        assert set(map(tuple, pairs)) == want
        # deterministic order: sorted by first then second index
        assert np.array_equal(pairs, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def test_enumerate_pairs_shell_inclusive():
    # sites exactly one 2nd-NN distance apart stay paired at that cutoff
    r2 = A0 * math.sqrt(2.0) / 2.0
    pts = np.array([[0.0, 0.0, 0.0], [0.0, A0 / 2, A0 / 2]])
    assert len(enumerate_pairs(pts, r2)) == 1
    assert len(enumerate_pairs(pts, A0 * math.sqrt(3.0) / 4.0)) == 0
    assert len(enumerate_pairs(pts[:1], r2)) == 0
    with pytest.raises(ValueError):
        enumerate_pairs(pts, 0.0)


def _pairs_oracle(pos, r_max):
    """Every i < j with d2 <= r^2 + tol, by brute force, in row-major order."""
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    i, j = np.nonzero(np.triu(d2 <= r_max * r_max + 1e-9, k=1))
    return np.stack((i, j), axis=1)


@st.composite
def _clouds(draw):
    """0-400 points in a box with flat, thin or anisotropic extents, some
    on a coarse grid (exact distances recur) and some coincident."""
    n = draw(st.integers(0, 400))
    extent = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.4, 2.0, 15.0]),
                                    min_size=3, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(0.0, 1.0, (n, 3)) * extent + draw(st.floats(-50.0, 50.0))
    if draw(st.booleans()):
        pos = np.round(pos, 1)
    if n > 1 and draw(st.booleans()):
        copies = rng.integers(0, n, n // 4)
        pos[copies] = pos[rng.integers(0, n, len(copies))]
    return pos


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pos=_clouds(), r_max=st.floats(-3.0, 2.5).map(lambda e: 10.0**e))
@example(pos=SITES, r_max=SECOND_NN)
@example(pos=SITES, r_max=THIRD_NN)
@example(pos=SITES + 7.31, r_max=THIRD_NN)
@example(pos=SITES[::3], r_max=THIRD_NN)
@example(pos=np.array([[0.0, 0.0, 0.0], [0.9999985, 0.0, 0.0], [1.9999985, 0.0, 0.0]]),
         r_max=1.0)  # a pair at the cutoff straddling two cell faces
@example(pos=np.array([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3]]), r_max=1e-3)  # 1e18 cells of r
@example(pos=np.column_stack((np.full(40, 2.5), np.linspace(0.0, 3.0, 40),
                              np.linspace(1.0, 0.0, 40))),
         r_max=0.5)  # every point at one x: every pass of the sweep is a candidate
@example(pos=np.array([[0.0, 0.0, 0.0], [0.1, 5.0, 0.0], [0.2, 0.0, 0.0]]),
         r_max=0.3)  # a pass with candidates and no hit, then a pass that hits
@example(pos=np.array([[0.0, 0.0, 0.0], [0.75, 0.0, 0.0], [1.5, 0.0, 0.0]]),
         r_max=0.75)  # separations along x alone, exactly at the cutoff
@example(pos=np.array([[1.0, 0.9, 0.2], [1.0, 0.1, 0.8], [1.0, 0.5, 0.5], [0.0, 0.3, 0.1],
                       [1.0, 0.2, 0.9]]),
         r_max=0.5)  # x ties with y and z out of order
def test_enumerate_pairs_matches_brute_force_oracle(pos, r_max):
    pairs = enumerate_pairs(pos, r_max)
    assert pairs.dtype == np.intp
    assert pairs.shape == (len(pairs), 2)
    assert np.array_equal(pairs, _pairs_oracle(pos, r_max))


def test_enumerate_pairs_rejects_non_finite_positions():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError):
        enumerate_pairs(pts, 0.5)
    with pytest.raises(ValueError):
        enumerate_pairs(pts[:2], float("nan"))


# the silicon lattice constant and two others, none a power of two in quarters
A0S = (0.5, A0, 0.61)


@st.composite
def _coupling_points(draw):
    """(a0, positions): a cube's sites of a0's lattice without the donor,
    those and one point off the lattice, two sites about 1e4 planes apart
    (more planes than points), random points off the lattice, or none."""
    a0 = draw(st.sampled_from(A0S))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("cube", "cube and one off", "far apart", "random", "empty")))
    if kind == "empty":
        return a0, np.empty((0, 3))
    if kind == "random":
        return a0, rng.uniform(-5.0, 5.0, (draw(st.integers(1, 300)), 3))
    if kind == "far apart":
        quarter = a0 / 4.0
        return a0, np.array([[1.0, 1.0, 0.0], [9999.0, 3.0, 2.0]]) * quarter
    sites = generate_lattice(LatticeSpec(side_nm=draw(st.integers(2, 6)) * a0, a0_nm=a0))
    sites = sites[np.any(sites != 0.0, axis=1)]
    if kind == "cube and one off":
        sites = np.insert(sites, rng.integers(len(sites) + 1), rng.uniform(0.1, 1.0, 3), axis=0)
    return a0, sites


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=_coupling_points())
def test_couplings_are_the_plain_arithmetic_bit_for_bit(points):
    a0, pos = points
    model = KohnLuttingerModel(a0_nm=a0)
    assert np.array_equal(superhyperfine_j(pos, model), reference_j(pos, model))
    direction = np.array([1.0, -1.0, 0.0])
    assert np.array_equal(dipolar_b(pos[:-1], pos[1:], direction),
                          reference_b(pos[:-1], pos[1:], direction))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cells=st.integers(2, 12), a0=st.sampled_from(A0S),
       abundance=st.sampled_from((SI29_ABUNDANCE, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(cells=12, a0=0.61, abundance=1.0, seed=0)
@example(cells=11, a0=0.5, abundance=1.0, seed=1)
def test_build_couplings_are_the_plain_arithmetic_bit_for_bit(cells, a0, abundance, seed):
    params = CceParams(transition=(11, 10), field_b=0.3446,
                       lattice=LatticeSpec(side_nm=cells * a0, a0_nm=a0),
                       time_grid_ms=(0.0, 1.0), seed=seed, abundance=abundance)
    config = build_configuration(params, 0)
    pos, pairs = config.sites * (a0 / 4.0), config.pair_indices
    assert np.array_equal(config.couplings_j, reference_j(pos, params.model))
    assert np.array_equal(config.pair_b, reference_b(pos[pairs[:, 0]], pos[pairs[:, 1]],
                                                     params.b_direction))
