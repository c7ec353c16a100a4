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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .occupancy import BathConfiguration

# basis order |uu>, |ud>, |du>, |dd>; z-projections of the two spins
_IKZ = np.array([0.5, 0.5, -0.5, -0.5])
_ILZ = np.array([0.5, -0.5, 0.5, -0.5])


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


def _pair_hamiltonians(
    j_k: np.ndarray, j_l: np.ndarray, b: np.ndarray, s: float, f_z: float
) -> np.ndarray:
    """(P, 4, 4) conditioned Hamiltonians for donor level with <Sz> = s.

    The kernel does not use it: it is the reference Hamiltonian from
    which the tests build their brute-force echo oracles.
    """
    hk = f_z + s * j_k
    hl = f_z + s * j_l
    n = len(hk)
    h = np.zeros((n, 4, 4))
    diag = hk[:, None] * _IKZ[None, :] + hl[:, None] * _ILZ[None, :]
    diag = diag + b[:, None] * (_IKZ * _ILZ)[None, :]
    h[:, np.arange(4), np.arange(4)] = diag
    h[:, 1, 2] = h[:, 2, 1] = -0.25 * b
    return h


def _pair_amplitudes(j_k, j_l, b, s_a: float, s_b: float, times_ms) -> np.ndarray:
    """(T, P) real pair echoes L = 1 - C (2 pi tau)^4 sinc^2(2 w_a tau) sinc^2(2 w_b tau).

    C = |h_a x h_b|^2 = (b dJ (s_a - s_b) / 8)^2; H is in MHz, tau = t/2 in
    us. np.sinc(x) = sin(pi x) / (pi x) never divides by w, so w = 0 is safe.
    """
    delta_j = j_k - j_l
    c = (0.125 * b * delta_j * (s_a - s_b)) ** 2
    w_a = np.hypot(0.25 * b, 0.5 * s_a * delta_j)
    w_b = np.hypot(0.25 * b, 0.5 * s_b * delta_j)
    out = np.empty((len(times_ms), len(j_k)))
    for idx, t_ms in enumerate(times_ms):
        tau_us = float(t_ms) * 500.0
        loss = c * (2.0 * np.pi * tau_us) ** 4 * (
            np.sinc(2.0 * w_a * tau_us) * np.sinc(2.0 * w_b * tau_us)
        ) ** 2
        # the loss is |n_a x n_b|^2 sin^2 sin^2 <= 1; round-off may pass 1 by an ulp
        out[idx] = 1.0 - np.minimum(loss, 1.0)
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
    times = np.asarray(times_ms, dtype=float)
    return _pair_amplitudes(
        np.array([j_k_mhz]), np.array([j_l_mhz]), np.array([b_mhz]), s_a, s_b, times
    )[:, 0]


def _pair_factors(
    config: BathConfiguration, s_a: float, s_b: float, times_ms: np.ndarray
) -> np.ndarray:
    """(T, P) echoes of the configuration's pairs, J gathered by pair."""
    if config.couplings_j is None or config.pair_indices is None or config.pair_b is None:
        raise ValueError("configuration lacks couplings; build it with build_configuration")
    j = config.couplings_j[config.pair_indices]
    return _pair_amplitudes(j[:, 0], j[:, 1], config.pair_b, s_a, s_b, times_ms)


def cce2_echo(
    config: BathConfiguration,
    s_a: float,
    s_b: float,
    times_ms: np.ndarray,
    f_z_mhz: float = 0.0,
) -> EchoCurve:
    """Total echo, the product of the pair echoes, for one bath configuration.

    s_a, s_b are the <Sz> values of the two donor levels of the probed
    transition; f_z_mhz drops out exactly, as in pair_echo. The
    configuration must carry couplings and pairs; with no pairs the echo
    is exactly 1.
    """
    times = np.asarray(times_ms, dtype=float)
    amplitude = np.prod(_pair_factors(config, s_a, s_b, times), axis=1)
    return EchoCurve(times_ms=times, amplitude=amplitude)
