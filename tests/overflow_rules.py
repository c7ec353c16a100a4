"""The overflow rules the config once checked, kept as the proof of its ranges.

Before each float key had a physical range (`Interval` in
`donorspin.cli.config.SCHEMA`), nine cross-key rules re-derived other
modules' arithmetic to stop an overflow or underflow at extreme values:
the electron Zeeman frequency per tesla, the levels at each field key,
the resonance quartics' coefficients, the spectrum's lines, the bath's
distances and the echo kernel's terms and time grid. They live here
unchanged, with `max_abs_j_mhz`, the bound on the contact coupling J they
call. `test_config.py` shows that each holds over the whole box of the
ranges, so every config the ranges admit was admitted by these rules.
"""

from __future__ import annotations

import math
import sys

from donorspin.bath import KohnLuttingerModel
from donorspin.bath.couplings import DIPOLAR_MHZ_NM3
from donorspin.cli.config import spin_system
from donorspin.spectra import line_sigma_t


def max_abs_j_mhz(model: KohnLuttingerModel) -> float:
    """A bound on |J| at every site, by arithmetic: each of the six
    valley envelopes is at most norm (at the donor), so |psi| is at most
    6 norm / sqrt(6) and |psi|^2 at most 6 norm^2."""
    norm = model._envelope()[2]
    return abs(model.contact_si) * (6.0 * norm * norm) * 1e27 * 1e-6


def _zeeman_per_tesla_fits(config) -> bool:
    """Whether the electron Zeeman frequency per tesla f1 is nonzero, and
    f1, the level slopes it scales and A / f1 (the resonance search's
    tesla per unit of f0 / A) are finite.

    A slope is f1 times at most (1 + |delta|) / 2 + (I + 1/2) |delta|.
    """
    donor = config["donor"]
    f1 = spin_system(config).zeeman_mhz(1.0)
    nz = abs(donor["nuclear_zeeman_delta"])
    slope = f1 * (0.5 * (1.0 + nz) + (donor["nuclear_spin"] + 0.5) * nz)
    return f1 > 0.0 and math.isfinite(slope) and math.isfinite(donor["hyperfine_mhz"] / f1)


def _lines_finite(config) -> bool:
    """Whether the resonances spectrum stays finite, by arithmetic on the
    line width sigma (`spectra.line_sigma_t`).

    Every line and grid point lies in the field span s, so x = (B - B0) /
    sigma has |x| <= s / sigma, and x^2 and x / sigma must be finite. A
    line of intensity at most 1/4 is at most 1 / sigma (absorption) or
    1 / sigma^2 (derivative), and the spectrum sums at most 4 roots of 2
    signs of the donor's 2 D - 4 label pairs one m apart.
    """
    section = config["resonances"]
    sigma = line_sigma_t(section["fwhm_mt"])
    if not sigma > 0.0:
        return False
    x = (section["b_max_t"] - section["b_min_t"]) / sigma
    lines = 8 * (2 * spin_system(config).dimension - 4)
    return (math.isfinite(x * x) and math.isfinite(x / sigma)
            and math.isfinite(lines * ((1.0 + 1.0 / sigma) / sigma)))


def _quarter_b_max(config) -> float:
    """|b| / 4 of the nearest-neighbour pair, the largest of any pair: with
    r = sqrt(3) a0 / 4 and |1 - 3 cos^2 theta| <= 2, DIPOLAR_MHZ_NM3 /
    (2 r^3); inf where r^3 underflows to 0."""
    r_nn = math.sqrt(3.0) / 4.0 * config["cce"]["a0_nm"]
    r3 = r_nn * r_nn * r_nn
    return 0.5 * DIPOLAR_MHZ_NM3 / r3 if r3 > 0.0 else math.inf


def _bath_distances_fit(config) -> bool:
    """Whether cce.a0_nm keeps the distances and dipolar couplings of the
    largest cube (of cce.side_nm and converge.sides_nm) finite and nonzero.

    By arithmetic, without a lattice: the nearest-neighbour r^3 is nonzero
    and the largest b (`_quarter_b_max`) has a finite (b/4)^4. A side s has
    squared extent 3 s^2, which bounds every site's r^2 from the donor; its
    3/2 power, every pair's r^3.
    """
    side = max(config["cce"]["side_nm"], *config["converge"]["sides_nm"])
    extent2 = 3.0 * side * side
    quarter_b = _quarter_b_max(config)
    return (math.isfinite(extent2 * math.sqrt(extent2))
            and math.isfinite(quarter_b * quarter_b * quarter_b * quarter_b))


def _echo_bounds(config) -> tuple[float, float]:
    """Bounds on the echo kernel's w_a^2 w_b^2 and its C over every pair,
    by arithmetic.

    |b| / 4 is at most `_quarter_b_max` and |J| at most
    `max_abs_j_mhz`, so with |s| <= 1/2 each
    w^2 = (b/4)^2 + (s dJ/2)^2 is at most (b/4)^2 + (J/2)^2, and
    C = (b dJ (s_a - s_b) / 8)^2 is at most (b J / 4)^2.
    """
    quarter_b = _quarter_b_max(config)
    j = max_abs_j_mhz(KohnLuttingerModel(a0_nm=config["cce"]["a0_nm"],
                                         g_factor=config["donor"]["g_factor"]))
    w2 = quarter_b * quarter_b + 0.25 * j * j
    return w2 * w2, (quarter_b * j) * (quarter_b * j)


def _echo_times_fit(config) -> bool:
    """Whether the echo kernel's loss bound C (2 pi tau_max)^4 stays finite,
    tau_max = 500 cce.t_max_ms in microseconds (tau = t/2)."""
    x = 2.0 * math.pi * (500.0 * config["cce"]["t_max_ms"])
    x2 = x * x
    return math.isfinite(_echo_bounds(config)[1] * (x2 * x2))


def _time_grid_ascends(config) -> bool:
    """Whether the cce time grid, np.linspace(0, t_max_ms, t_steps), strictly
    ascends, without building it: a step t_max / (t_steps - 1) of at least
    the smallest normal float keeps i * step ascending for every i, and
    (t_steps - 2) steps below t_max. A subnormal step may not."""
    cce = config["cce"]
    return cce["t_max_ms"] / (cce["t_steps"] - 1) >= sys.float_info.min


def _levels_finite(config, field_t: float) -> bool:
    """Whether the field in mT and every level of the donor at field_t
    (tesla), with any gap between two, are finite.

    By arithmetic on the Zeeman frequency f0, without a level table:
    |Delta_m| + |Omega_m| + |eps_m| bounds each level, and with |m| <= I + 1/2
    that is at most (|f0| (1 + |delta|) + A) (I + 3/2); a gap is at most twice it.
    """
    donor = config["donor"]
    f0 = spin_system(config).zeeman_mhz(field_t)
    scale = (f0 * (1.0 + abs(donor["nuclear_zeeman_delta"])) + donor["hyperfine_mhz"]) * (
        donor["nuclear_spin"] + 1.5)
    return math.isfinite(field_t * 1e3) and math.isfinite(2.0 * scale)


def _quartic_finite(config) -> bool:
    """Whether every coefficient of the resonance quartics is finite.

    By arithmetic on the terms `spectra._resonance_roots` builds them
    from: with |L| <= u = 2 f / A + 2 |delta| for the linear L(y) and
    s = 1 + |delta| + u + I + 1/2, each coefficient is at most 72 s^4.
    """
    donor = config["donor"]
    nz = abs(donor["nuclear_zeeman_delta"])
    u = 2.0 * config["resonances"]["frequency_mhz"] / donor["hyperfine_mhz"] + 2.0 * nz
    s = 1.0 + nz + u + donor["nuclear_spin"] + 0.5
    return math.isfinite(72.0 * s * s * s * s)
