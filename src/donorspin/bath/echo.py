"""Hahn-echo decay from pair clusters of bath spins, in closed form.

A pair of bath spins evolves under a 4x4 Hamiltonian conditioned on the
donor level (a or b); its echo L = 1/4 Tr[Ua+ Ub+ Ua Ub] at tau = t/2
averages the four bath product states. |uu> and |dd> are diagonal and
refocus exactly; {|ud>, |du>} is a pseudo-spin in the field
h_s = (-b/4, 0, s (J_k - J_l)/2), free of the bath Zeeman frequency, so

    L = 1 - |n_a x n_b|^2 sin^2(2 pi w_a tau) sin^2(2 pi w_b tau),

real and in [0, 1], with w_s = |h_s| and n_s = h_s / w_s (Witzel & Das
Sarma, PRB 74, 035322 (2006); Yao, Liu & Sham, PRB 74, 195301 (2006)).
The total CCE-2 echo is the product over pairs. Single-spin clusters
contribute exactly 1 (their conditioned Hamiltonians are diagonal, and
the echo refocuses static phases), so they are omitted as an identity,
not as an approximation.

The kernel takes K = |n_a x n_b|^2 = C / (w_a^2 w_b^2) once per pair and
skips the pairs whose factor is exactly 1.0 at every time (C == 0, or a
loss bound below 2^-54). On a uniform time grid it advances (sin, cos)
of both angles by one rotation per step, re-seeded from np.sin / np.cos
every 64 steps; other grids take np.sin per point. It returns one
product per pair mask, never a (T, P) array of factors.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .occupancy import BathConfiguration

# a pair whose loss stays below 2^-54 has 1 - loss == 1.0 exactly
_EXACT_ONE_LOSS = 2.0**-54
# steps between exact re-seeds of the kernel's (sin, cos) rotation
_RESEED_STRIDE = 64


@dataclasses.dataclass(frozen=True)
class EchoCurve:
    """Echo amplitude on a time grid; std_of_mean present for ensembles."""

    times_ms: np.ndarray
    amplitude: np.ndarray
    std_of_mean: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times_ms, dtype=float)
        amp = np.asarray(self.amplitude, dtype=float)
        if t.ndim != 1 or t.shape != amp.shape:
            raise ValueError("times and amplitude must be matching 1-d arrays")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("time grid must start at 0 and ascend")
        if abs(amp[0] - 1.0) > 1e-9:
            raise ValueError("echo amplitude at t = 0 must be 1")
        if np.any(amp > 1.0 + 1e-9):
            raise ValueError("echo amplitude must not exceed 1")
        for arr in (self.times_ms, self.amplitude, self.std_of_mean):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


def _uniform_step_us(tau_us: np.ndarray) -> float | None:
    """The step h of a grid tau_i = i h, or None for any other grid.

    np.linspace grids have unequal bitwise steps, so the test is each point
    against i * tau_max / (T - 1), to within a few ulps of tau_max.
    """
    if len(tau_us) < 2:
        return None
    step = tau_us[-1] / (len(tau_us) - 1)
    drift = np.abs(tau_us - step * np.arange(len(tau_us)))
    return step if np.all(drift <= 4.0 * np.spacing(tau_us[-1])) else None


def _phase(angle: np.ndarray) -> np.ndarray:
    """cos(angle) + i sin(angle), from np.cos and np.sin."""
    phase = np.empty(angle.shape, dtype=complex)
    phase.real, phase.imag = np.cos(angle), np.sin(angle)
    return phase


def _pair_amplitudes(j_k, j_l, b, s_a: float, s_b: float, times_ms, masks) -> np.ndarray:
    """(M, T) products of the pair echoes over each of the M (P,) pair masks.

    Pair echo L = 1 - K sin^2(2 pi w_a tau) sin^2(2 pi w_b tau) with
    K = C / (w_a^2 w_b^2) = |n_a x n_b|^2, C = (b dJ (s_a - s_b) / 8)^2;
    H is in MHz, tau = t/2 in us. Pairs whose L is exactly 1.0 at every
    time are dropped first: C == 0 (b = 0, dJ = 0 or s_a = s_b; any w = 0
    implies C == 0), or min(K, C (2 pi tau_max)^4) < 2^-54, as sin^2 x <= x^2
    keeps the loss below 2^-54 and 1 - loss rounds to 1. On a uniform grid
    (sin, cos) of both angles advance by one fixed rotation per step, a
    complex product, and restart from np.sin / np.cos every _RESEED_STRIDE
    steps, as the rotation gains about an ulp per step; any other grid
    takes np.sin at each point. At t = 0 the phase is exactly 1 + 0i, as
    np.cos and np.sin give it. No (T, P) array is formed.
    """
    tau_us = 500.0 * np.asarray(times_ms, dtype=float)
    masks = np.asarray(masks, dtype=bool)
    delta_j = j_k - j_l
    c = (0.125 * b * delta_j * (s_a - s_b)) ** 2
    keep = (c != 0.0) & np.any(masks, axis=0)
    c, b, delta_j = c[keep], b[keep], delta_j[keep]
    w2 = (0.25 * b) ** 2 + (0.5 * np.array([[s_a], [s_b]]) * delta_j) ** 2    # (2, P)
    k = c / (w2[0] * w2[1])
    tau_max = np.max(np.abs(tau_us), initial=0.0)
    moving = np.minimum(k, c * (2.0 * np.pi * tau_max) ** 4) >= _EXACT_ONE_LOSS
    keep[keep] = moving
    k, w2 = k[moving], w2[:, moving]
    # each mask as the indices of its pairs; an all-True mask reduces unmasked
    gathers = [None if mask.all() else np.flatnonzero(mask) for mask in masks[:, keep]]

    omega = 2.0 * np.pi * np.sqrt(w2)
    step = _uniform_step_us(tau_us)
    if step is not None:
        rotation = _phase(omega * step)
    out = np.empty((len(gathers), len(tau_us)))
    loss = np.empty(len(k))
    for i, tau in enumerate(tau_us):
        # phase = cos + i sin of both angles; a complex product rotates it
        if step is not None and i % _RESEED_STRIDE:
            phase *= rotation
        elif tau == 0.0:
            phase = np.ones(omega.shape, dtype=complex)
        else:
            phase = _phase(omega * tau)
        np.multiply(phase.imag[0], phase.imag[1], out=loss)
        loss *= loss
        loss *= k
        # the loss is at most 1; round-off may pass it by an ulp
        np.minimum(loss, 1.0, out=loss)
        factor = np.subtract(1.0, loss, out=loss)
        out[:, i] = [np.prod(factor if idx is None else factor.take(idx)) for idx in gathers]
    return out


def pair_echo(
    j_k_mhz: float,
    j_l_mhz: float,
    b_mhz: float,
    s_a: float,
    s_b: float,
    times_ms: np.ndarray,
    f_z_mhz: float = 0.0,
) -> np.ndarray:
    """Real echo in [0, 1] of a single pair on the time grid (ms).

    The bath Zeeman frequency f_z_mhz is accepted but drops out exactly.
    """
    return _pair_amplitudes(
        np.array([j_k_mhz]), np.array([j_l_mhz]), np.array([b_mhz]), s_a, s_b, times_ms,
        np.ones((1, 1), dtype=bool),
    )[0]


def _pair_products(
    config: BathConfiguration, s_a: float, s_b: float, times_ms: np.ndarray, masks=None
) -> np.ndarray:
    """(M, T) products of the configuration's pair echoes over each (P,) pair
    mask, by default the one mask of all pairs; J is gathered by pair."""
    j = config.couplings_j[config.pair_indices]
    if masks is None:
        masks = np.ones((1, len(j)), dtype=bool)
    return _pair_amplitudes(j[:, 0], j[:, 1], config.pair_b, s_a, s_b, times_ms, masks)


def cce2_echo(
    config: BathConfiguration,
    s_a: float,
    s_b: float,
    times_ms: np.ndarray,
) -> EchoCurve:
    """Total echo, the product of the pair echoes, for one bath configuration.

    s_a, s_b are the <Sz> values of the two donor levels of the probed
    transition; the bath Zeeman frequency drops out exactly, as in
    pair_echo. With no pairs the echo is exactly 1.
    """
    # a copy: the curve freezes its times, and must not freeze the caller's
    times = np.array(times_ms, dtype=float)
    return EchoCurve(times_ms=times, amplitude=_pair_products(config, s_a, s_b, times)[0])
