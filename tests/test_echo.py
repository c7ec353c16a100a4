"""Pair echo kernel and CCE-2 product."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bath_reference import _pair_hamiltonians

from donorspin.bath import BathConfiguration, cce2_echo, echo, pair_echo
from donorspin.bath.echo import EchoCurve

TIMES = np.array([0.0, 0.05, 0.2, 0.7, 1.5])


def _random_pair(rng):
    j_k, j_l = rng.normal(0.0, 0.5, 2)
    b = rng.normal(0.0, 5e-4)
    s_a, s_b = rng.uniform(-0.5, 0.5, 2)
    f_z = rng.uniform(-5.0, 5.0)
    return j_k, j_l, b, s_a, s_b, f_z


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


def test_pair_echo_at_zero_time():
    assert pair_echo(0.3, 0.1, 4e-4, 0.29, -0.21, TIMES)[0] == pytest.approx(1.0, abs=1e-14)


def test_pair_echo_refocuses_without_flipflop():
    amp = pair_echo(0.3, 0.1, 0.0, 0.29, -0.21, TIMES)
    assert np.max(np.abs(amp - 1.0)) < 1e-12


def test_pair_echo_equal_couplings_null():
    amp = pair_echo(0.27, 0.27, 4e-4, 0.29, -0.21, TIMES)
    assert np.max(np.abs(amp - 1.0)) < 1e-10


def test_pair_echo_zeeman_invariance():
    a = pair_echo(0.3, 0.1, 4e-4, 0.29, -0.21, TIMES, f_z_mhz=0.0)
    b = pair_echo(0.3, 0.1, 4e-4, 0.29, -0.21, TIMES, f_z_mhz=10.0)
    assert np.max(np.abs(a - b)) < 1e-10


def test_pair_echo_swap_symmetry_and_modulus():
    rng = np.random.default_rng(11)
    for _ in range(10):
        j_k, j_l, b, s_a, s_b, f_z = _random_pair(rng)
        a = pair_echo(j_k, j_l, b, s_a, s_b, TIMES, f_z)
        c = pair_echo(j_l, j_k, b, s_a, s_b, TIMES, f_z)
        assert np.max(np.abs(a - c)) < 1e-12
        assert np.all(np.abs(a) <= 1.0 + 1e-12)


def test_pair_echo_matches_sequence_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        j_k, j_l, b, s_a, s_b, f_z = _random_pair(rng)
        t = rng.uniform(0.0, 2.0)
        got = pair_echo(j_k, j_l, b, s_a, s_b, np.array([0.0, t]), f_z)[1]
        want = _sequence_oracle(j_k, j_l, b, s_a, s_b, t, f_z)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10


@st.composite
def _pair_draws(draw):
    """(j_k, j_l, b, s_a, s_b, f_z, t_ms); b = 0, J_k = J_l and s_a = s_b
    are drawn on purpose as well as at random."""
    j_k = draw(st.floats(-1.5, 1.5))
    j_l = draw(st.one_of(st.just(j_k), st.floats(-1.5, 1.5)))
    b = draw(st.one_of(st.just(0.0), st.floats(-2e-3, 2e-3)))
    s_a = draw(st.floats(-0.5, 0.5))
    s_b = draw(st.one_of(st.just(s_a), st.floats(-0.5, 0.5)))
    f_z = draw(st.floats(-5.0, 5.0))
    t_ms = draw(st.floats(0.0, 2.0))
    return j_k, j_l, b, s_a, s_b, f_z, t_ms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(draw=_pair_draws())
def test_pair_echo_property_real_bounded_and_exact(draw):
    j_k, j_l, b, s_a, s_b, f_z, t_ms = draw
    amp = pair_echo(j_k, j_l, b, s_a, s_b, np.array([0.0, t_ms]), f_z)
    assert np.isrealobj(amp) and np.all(np.isfinite(amp))
    assert np.all((amp >= 0.0) & (amp <= 1.0))
    assert amp[0] == 1.0
    assert abs(amp[1] - _sequence_oracle(j_k, j_l, b, s_a, s_b, t_ms, f_z)) < 1e-10


def test_pair_echo_full_loss_is_not_negative():
    # b = dJ with s_a = -s_b = 1/2 makes n_a perpendicular to n_b, and at
    # 2 w tau = odd/2 both sines are 1: the exact echo is 0, and unclamped
    # round-off lands a few ulp below it
    for delta_j in (0.3, 0.5, 0.7, 1.0, 1.3):
        w = np.hypot(0.25 * delta_j, 0.25 * delta_j)
        times = np.array([0.0, *((2 * k + 1) / (4 * w) / 500.0 for k in range(5))])
        amp = pair_echo(delta_j, 0.0, delta_j, 0.5, -0.5, times)
        assert np.all(amp[1:] >= 0.0) and np.max(amp[1:]) < 1e-14


def test_single_spin_cluster_factor_is_one():
    # conditioned one-spin Hamiltonians are diagonal, so the echo factor
    # u_a+ u_b+ u_a u_b has unit trace average; checked directly on 2x2
    rng = np.random.default_rng(4)
    for _ in range(10):
        j = rng.normal(0.0, 1.0)
        s_a, s_b = rng.uniform(-0.5, 0.5, 2)
        f_z = rng.uniform(-5.0, 5.0)
        tau = rng.uniform(0.0, 500.0)
        u_a = np.exp(-2j * np.pi * (f_z + s_a * j) * np.array([0.5, -0.5]) * tau)
        u_b = np.exp(-2j * np.pi * (f_z + s_b * j) * np.array([0.5, -0.5]) * tau)
        factor = 0.5 * np.sum(u_a.conj() * u_b.conj() * u_a * u_b)
        assert abs(factor - 1.0) < 1e-12


def _toy_config(pair_count):
    rng = np.random.default_rng(9)
    return BathConfiguration(
        sites=np.zeros((2 * pair_count, 3), dtype=np.int64),
        couplings_j=rng.normal(0.0, 0.5, 2 * pair_count),
        pair_indices=np.arange(2 * pair_count, dtype=np.intp).reshape(-1, 2),
        pair_b=rng.normal(0.0, 5e-4, pair_count),
    )


def test_cce2_product_structure():
    single = _toy_config(1)
    double = dataclasses.replace(
        single,
        sites=np.vstack([single.sites, single.sites]),
        couplings_j=np.concatenate([single.couplings_j, single.couplings_j]),
        pair_indices=np.vstack([single.pair_indices, single.pair_indices + 2]),
        pair_b=np.concatenate([single.pair_b, single.pair_b]),
    )
    one = cce2_echo(single, 0.29, -0.21, TIMES)
    two = cce2_echo(double, 0.29, -0.21, TIMES)
    direct = np.abs(
        pair_echo(
            single.couplings_j[0], single.couplings_j[1], single.pair_b[0], 0.29, -0.21, TIMES
        )
    )
    assert np.max(np.abs(one.amplitude - direct)) < 1e-12
    assert np.max(np.abs(two.amplitude - one.amplitude**2)) < 1e-12


def test_cce2_empty_and_unbuilt_configs():
    # a configuration is always coupled: it cannot be made from sites alone
    with pytest.raises(TypeError):
        BathConfiguration(sites=np.empty((0, 3), dtype=np.int64))
    built = BathConfiguration(
        sites=np.empty((0, 3), dtype=np.int64),
        couplings_j=np.empty(0),
        pair_indices=np.empty((0, 2), dtype=np.intp),
        pair_b=np.empty(0),
    )
    curve = cce2_echo(built, 0.29, -0.21, TIMES)
    assert np.all(curve.amplitude == 1.0)


def test_cce2_echo_leaves_the_callers_times_writable():
    times = TIMES.copy()
    curve = cce2_echo(_toy_config(2), 0.29, -0.21, times)
    assert times.flags.writeable
    times[1] = 0.1
    assert curve.times_ms[1] == TIMES[1]


def test_echo_curve_validation():
    with pytest.raises(ValueError):
        EchoCurve(times_ms=np.array([0.1, 0.2]), amplitude=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        EchoCurve(times_ms=np.array([0.0, 0.2]), amplitude=np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        EchoCurve(times_ms=np.array([0.0, 0.2]), amplitude=np.array([1.0, 1.5]))
    curve = EchoCurve(times_ms=np.array([0.0, 0.2]), amplitude=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        curve.amplitude[1] = 0.9


def _realistic_pairs(count, seed):
    """(j_k, j_l, b) in MHz at the scale of a natural-abundance Si bath."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.5, count), rng.normal(0.0, 0.5, count), rng.normal(0.0, 5e-4, count)


def _per_point(monkeypatch, *args):
    """The kernel with the uniform-grid rotation switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(echo, "_uniform_step_us", lambda tau_us: None)
        return echo._pair_amplitudes(*args)


def test_rotation_matches_per_point_sin_past_the_reseed_stride(monkeypatch):
    j_k, j_l, b = _realistic_pairs(4000, seed=5)
    times = np.arange(1001) * (2.0 / 1000)
    assert len(times) > 10 * echo._RESEED_STRIDE
    assert echo._uniform_step_us(500.0 * times) is not None
    masks = np.ones((1, len(b)), dtype=bool)
    rotated = echo._pair_amplitudes(j_k, j_l, b, 0.29, -0.21, times, masks)
    direct = _per_point(monkeypatch, j_k, j_l, b, 0.29, -0.21, times, masks)
    assert np.min(direct) < 0.5
    np.testing.assert_allclose(rotated, direct, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("t_max_ms, t_steps", [(1.0, 51), (1.0, 201), (2.5, 130), (0.3, 7)])
def test_linspace_grids_take_the_rotation_and_match_per_point(monkeypatch, t_max_ms, t_steps):
    # np.linspace steps differ bitwise (7 distinct steps at 51 points on
    # [0, 1]); the uniform test must accept them anyway
    times = np.linspace(0.0, t_max_ms, t_steps)
    assert echo._uniform_step_us(500.0 * times) is not None
    j_k, j_l, b = _realistic_pairs(300, seed=t_steps)
    masks = np.array([np.ones(len(b), dtype=bool), np.arange(len(b)) % 3 == 0])
    rotated = echo._pair_amplitudes(j_k, j_l, b, 0.29, -0.21, times, masks)
    direct = _per_point(monkeypatch, j_k, j_l, b, 0.29, -0.21, times, masks)
    np.testing.assert_allclose(rotated, direct, rtol=1e-13, atol=0.0)


def test_non_uniform_grids_take_the_per_point_path():
    assert echo._uniform_step_us(500.0 * TIMES) is None
    assert echo._uniform_step_us(np.array([0.0])) is None
    assert echo._uniform_step_us(500.0 * np.linspace(0.1, 1.0, 10)) is None


def _below_cut(j_k, j_l, b, s_a, s_b, tau_max_us):
    """Whether the pair's loss can never reach 2^-54 (the kernel's drop rule)."""
    c = (0.125 * b * (j_k - j_l) * (s_a - s_b)) ** 2
    if c == 0.0:
        return True
    w2_a = (0.25 * b) ** 2 + (0.5 * s_a * (j_k - j_l)) ** 2
    w2_b = (0.25 * b) ** 2 + (0.5 * s_b * (j_k - j_l)) ** 2
    return min(c / (w2_a * w2_b), c * (2.0 * np.pi * tau_max_us) ** 4) < 2.0**-54


def _pair_set(seed):
    """A random pair set straddling the drop rule: |b| spans 1e-12 to 1e-2 MHz,
    and b = 0, J_k = J_l and s_a = s_b are drawn on purpose."""
    rng = np.random.default_rng(seed)
    count = rng.integers(0, 21)
    j_k = rng.uniform(-1.5, 1.5, count)
    j_l = np.where(rng.random(count) < 0.15, j_k, rng.uniform(-1.5, 1.5, count))
    b = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-12.0, -2.0, count)
    b[rng.random(count) < 0.15] = 0.0
    s_a, s_b = rng.uniform(-0.5, 0.5, 2)
    if rng.random() < 0.2:
        s_b = s_a
    times = TIMES if rng.random() < 0.3 else np.linspace(
        0.0, rng.uniform(0.01, 2.0), rng.integers(2, 141))
    return j_k, j_l, b, s_a, s_b, times


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_set_product_equals_the_product_of_pair_echoes(seed):
    j_k, j_l, b, s_a, s_b, times = _pair_set(seed)
    masks = np.ones((1, len(b)), dtype=bool)
    product = echo._pair_amplitudes(j_k, j_l, b, s_a, s_b, times, masks)[0]
    pairs = [pair_echo(*pair, s_a, s_b, times) for pair in zip(j_k, j_l, b)]
    np.testing.assert_allclose(product, np.prod(pairs, axis=0), rtol=1e-13, atol=0.0)
    # the sinc form of the same closed form, with no pair dropped
    tau_us = 500.0 * times
    delta_j = j_k - j_l
    c = (0.125 * b * delta_j * (s_a - s_b)) ** 2
    w_a = np.hypot(0.25 * b, 0.5 * s_a * delta_j)
    w_b = np.hypot(0.25 * b, 0.5 * s_b * delta_j)
    loss = c * (2 * np.pi * tau_us[:, None]) ** 4 * (
        np.sinc(2 * w_a * tau_us[:, None]) * np.sinc(2 * w_b * tau_us[:, None])) ** 2
    undropped = 1.0 - np.minimum(loss, 1.0)
    np.testing.assert_allclose(product, np.prod(undropped, axis=1), rtol=1e-13, atol=1e-15)
    below = np.array([_below_cut(*pair, s_a, s_b, tau_us[-1]) for pair in zip(j_k, j_l, b)],
                     dtype=bool)
    assert np.all(undropped[:, below] == 1.0)
    if np.all(below):
        assert np.all(product == 1.0)
