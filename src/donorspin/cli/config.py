"""Sectioned key-value run configuration with a strict schema.

Every key has a typed default and a bound below; print-config renders
them all, so a config file only needs the keys it overrides. Unknown
sections or keys are usage errors carrying the offending key path.
`validate` checks the whole effective config once: every float is
finite, every value keeps its key's bound (a list key applies it to each
entry and may not be empty), then the cross-key `RULES` hold.
"""

from __future__ import annotations

import configparser
import math
import sys
from typing import Any

from ..bath import PAIR_SHELLS, KohnLuttingerModel, LatticeSpec
from ..bath.couplings import DIPOLAR_MHZ_NM3
from ..constants import (
    BI_G_FACTOR,
    BI_HYPERFINE_MHZ,
    BI_NUCLEAR_SPIN,
    BI_NUCLEAR_ZEEMAN_DELTA,
    SI29_ABUNDANCE,
    SI_LATTICE_NM,
)
from ..fitting.routines import ECHO_MIN_POINTS
from ..spectra import INTENSITY_FLOOR, line_sigma_t, sx_matrix_element
from ..spin import SpinSystem


class ConfigError(Exception):
    """Malformed configuration; the message names the key path."""


# bound name -> (test on one value, what the test asks for)
CHECKS = {
    "> 0": (lambda v: v > 0, "must be positive"),
    ">= 0": (lambda v: v >= 0, "must not be negative"),
    ">= 1": (lambda v: v >= 1, "must be at least 1"),
    ">= 2": (lambda v: v >= 2, "must be at least 2"),
    "in [0, 1]": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "half-integer >= 1/2": (lambda v: v >= 0.5 and (2 * v).is_integer(),
                            "must be a half-integer of at least 1/2"),
}

# section -> key -> (type tag, default, bound); a bound names a check in
# CHECKS, is the tuple of allowed values, or is None (any finite value)
SCHEMA: dict[str, dict[str, tuple[str, Any, Any]]] = {
    "donor": {
        "hyperfine_mhz": ("float", BI_HYPERFINE_MHZ, "> 0"),
        "g_factor": ("float", BI_G_FACTOR, "> 0"),
        "nuclear_zeeman_delta": ("float", BI_NUCLEAR_ZEEMAN_DELTA, None),
        "nuclear_spin": ("float", BI_NUCLEAR_SPIN, "half-integer >= 1/2"),
    },
    "run": {
        "seed": ("int", 2024, None),
        "workers": ("int", 1, ">= 1"),
        "out_dir": ("str", ".", None),
    },
    "levels": {
        "b_min_t": ("float", 0.0, ">= 0"),
        "b_max_t": ("float", 0.6, ">= 0"),
        "b_steps": ("int", 241, ">= 1"),
    },
    "resonances": {
        "frequency_mhz": ("float", 4044.0, "> 0"),
        "b_min_t": ("float", 0.0, ">= 0"),
        "b_max_t": ("float", 0.6, ">= 0"),
        "intensity_floor": ("float", INTENSITY_FLOOR, ">= 0"),
        "fwhm_mt": ("float", 0.7, "> 0"),
        "grid_step_mt": ("float", 0.05, "> 0"),
    },
    "freqmap": {
        "b_min_t": ("float", 0.0, ">= 0"),
        "b_max_t": ("float", 0.6, ">= 0"),
        "b_steps": ("int", 121, ">= 1"),
        "intensity_floor": ("float", INTENSITY_FLOOR, ">= 0"),
    },
    "rabi": {
        "label_upper": ("int", 11, ">= 1"),
        "label_lower": ("int", 10, ">= 1"),
        "field_t": ("float", 0.3446, ">= 0"),
        "f1_mhz": ("float", 15.625, "> 0"),
        "input_csv": ("optstr", None, None),
    },
    "cce": {
        "label_upper": ("int", 11, ">= 1"),
        "label_lower": ("int", 10, ">= 1"),
        "field_t": ("float", 0.3446, "> 0"),
        "side_nm": ("float", 14.0, "> 0"),
        "n_configs": ("int", 20, ">= 1"),
        "shell": ("int", 3, tuple(PAIR_SHELLS)),
        "t_max_ms": ("float", 1.0, "> 0"),
        "t_steps": ("int", 51, ">= 2"),
        "abundance": ("float", SI29_ABUNDANCE, "in [0, 1]"),
        "a0_nm": ("float", SI_LATTICE_NM, "> 0"),
        "fit": ("bool", True, None),
    },
    "converge": {
        "sides_nm": ("floatlist", (7.0, 10.0, 14.0, 18.0), "> 0"),
        "shells": ("intlist", tuple(PAIR_SHELLS), tuple(PAIR_SHELLS)),
    },
    "fit": {
        "model": ("str", "echo_decay",
                  ("echo_decay", "t1_raman_orbach", "exp_recovery", "gaussian_lines")),
        "input_csv": ("optstr", None, None),
        "fix_delta_k": ("optfloat", None, "> 0"),
        "n_lines": ("int", 2, ">= 1"),
        "mode": ("str", "absorption", ("absorption", "derivative")),
        "free_amplitude": ("bool", True, None),
    },
}


def spin_system(config) -> SpinSystem:
    """The donor of config's [donor] section, whose keys are SpinSystem fields."""
    return SpinSystem(**config["donor"])


# largest array of any command, about 80 MB as float64: the resonances
# spectrum grid, the levels and freqmap tables, the cce curves of one
# (side, shell) key, one per configuration, and a bath cube's first x-plane
# of sites and its expected spins
MAX_SPECTRUM_POINTS = 10**7


def _cube_fits(side_nm: float, config) -> bool:
    """Whether the cube holds 2 cells of cce.a0_nm per axis, and its
    occupancy stays within MAX_SPECTRUM_POINTS for n cells per axis: the
    first x-plane of 8 n^2 sites, and 8 n^3 cce.abundance expected spins.

    These bound the cube well inside the occupancy's site key
    (`occupancy.MAX_CELLS_PER_AXIS`).
    """
    cce = config["cce"]
    try:
        n = LatticeSpec(side_nm=side_nm, a0_nm=cce["a0_nm"]).cells_per_axis
    except (ValueError, OverflowError):  # an infinite cell count overflows int()
        return False
    return 8 * n * n <= MAX_SPECTRUM_POINTS and 8 * n**3 * cce["abundance"] <= MAX_SPECTRUM_POINTS


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
    `KohnLuttingerModel.max_abs_j_mhz`, so with |s| <= 1/2 each
    w^2 = (b/4)^2 + (s dJ/2)^2 is at most (b/4)^2 + (J/2)^2, and
    C = (b dJ (s_a - s_b) / 8)^2 is at most (b J / 4)^2.
    """
    quarter_b = _quarter_b_max(config)
    j = KohnLuttingerModel(a0_nm=config["cce"]["a0_nm"],
                           g_factor=config["donor"]["g_factor"]).max_abs_j_mhz()
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


def spectrum_points(section) -> float:
    """Point count of the resonances spectrum grid, b_min_t to b_max_t in
    steps of grid_step_mt; a float, so that no count overflows."""
    step_t = section["grid_step_mt"] * 1e-3
    if step_t == 0.0:  # a step under 1e-321 mT underflows
        return math.inf
    return round((section["b_max_t"] - section["b_min_t"]) / step_t, 0) + 1.0


def converge_echo_name(side_nm: float, shell: int) -> str:
    """The cce-converge echo CSV of one box side and pair shell."""
    return f"echo_side{side_nm:g}_shell{shell}.csv"


def _distinct(names) -> bool:
    names = list(names)
    return len(set(names)) == len(names)


def _labels_of_donor(config, section: str) -> bool:
    labels = config[section]["label_upper"], config[section]["label_lower"]
    return max(labels) <= spin_system(config).dimension


def _rabi_coupled(config) -> bool:
    rabi = config["rabi"]
    return _labels_of_donor(config, "rabi") and sx_matrix_element(
        spin_system(config), rabi["label_upper"], rabi["label_lower"], rabi["field_t"]) != 0.0


# (error naming the keys, formatted with the config and the donor's
# dimension; test on the config), checked once every key keeps its bound
RULES = (
    # the stretched states sit at +-f0/2 -+ I f0 delta + I A/2: past this bound
    # the two electron manifolds interleave at high field, and labels
    # 1..D/2 stop being the m_s = -1/2 manifold
    ("donor.nuclear_zeeman_delta: |{donor[nuclear_zeeman_delta]!r}| must be below "
     "1 / (2 donor.nuclear_spin)",
     lambda c: abs(c["donor"]["nuclear_zeeman_delta"]) < 1 / (2 * c["donor"]["nuclear_spin"])),
    ("donor.g_factor: {donor[g_factor]!r} must give a nonzero, finite electron Zeeman "
     "frequency per tesla f1, with finite level slopes and a finite donor.hyperfine_mhz / f1",
     _zeeman_per_tesla_fits),
    ("levels.b_max_t: must be at least levels.b_min_t",
     lambda c: c["levels"]["b_max_t"] >= c["levels"]["b_min_t"]),
    ("freqmap.b_max_t: must be at least freqmap.b_min_t",
     lambda c: c["freqmap"]["b_max_t"] >= c["freqmap"]["b_min_t"]),
    *((f"{section}.{key}: at {{{section}[{key}]!r}} T the field in mT and the levels of the "
       "donor (donor.g_factor, donor.hyperfine_mhz) must be finite",
       lambda c, section=section, key=key: _levels_finite(c, c[section][key]))
      for section, key in (("levels", "b_max_t"), ("freqmap", "b_max_t"), ("rabi", "field_t"),
                           ("cce", "field_t"))),
    ("resonances.frequency_mhz: {resonances[frequency_mhz]!r} MHz against "
     "donor.hyperfine_mhz = {donor[hyperfine_mhz]!r} must keep the resonance polynomials' "
     "coefficients finite",
     _quartic_finite),
    ("resonances.b_max_t: must be above resonances.b_min_t",
     lambda c: c["resonances"]["b_max_t"] > c["resonances"]["b_min_t"]),
    (f"resonances.grid_step_mt, resonances.b_min_t, resonances.b_max_t: a step of "
     f"{{resonances[grid_step_mt]!r}} mT from {{resonances[b_min_t]!r}} to "
     f"{{resonances[b_max_t]!r}} T must give at most {MAX_SPECTRUM_POINTS:,} spectrum points",
     lambda c: spectrum_points(c["resonances"]) <= MAX_SPECTRUM_POINTS),
    ("resonances.fwhm_mt: lines of {resonances[fwhm_mt]!r} mT over the field span "
     "resonances.b_min_t to resonances.b_max_t must keep the spectrum finite",
     _lines_finite),
    (f"levels.b_steps: {{levels[b_steps]}} fields of {{dimension}} levels must give at most "
     f"{MAX_SPECTRUM_POINTS:,} table entries",
     lambda c: c["levels"]["b_steps"] * spin_system(c).dimension <= MAX_SPECTRUM_POINTS),
    # a donor of D levels has 2 D - 4 label pairs one m apart (four per step
    # between its 2I doublets, two from each stretched state), counted here
    # without listing them as spectra._adjacent_pairs does
    (f"freqmap.b_steps: {{freqmap[b_steps]}} fields of the donor's label pairs must give at "
     f"most {MAX_SPECTRUM_POINTS:,} table entries",
     lambda c: c["freqmap"]["b_steps"] * (2 * spin_system(c).dimension - 4) <= MAX_SPECTRUM_POINTS),
    (f"cce.n_configs, cce.t_steps: {{cce[n_configs]}} configurations of {{cce[t_steps]}} time "
     f"points must give at most {MAX_SPECTRUM_POINTS:,} curve points per echo",
     lambda c: c["cce"]["n_configs"] * c["cce"]["t_steps"] <= MAX_SPECTRUM_POINTS),
    (f"cce.side_nm: {{cce[side_nm]!r}} nm must hold at least 2 cells of cce.a0_nm per axis; "
     f"with n of them, 8 n^2 sites per x-plane and 8 n^3 cce.abundance expected spins must "
     f"each stay at most {MAX_SPECTRUM_POINTS:,}",
     lambda c: _cube_fits(c["cce"]["side_nm"], c)),
    (f"converge.sides_nm: every side must hold at least 2 cells of cce.a0_nm per axis; with "
     f"n of them, 8 n^2 sites per x-plane and 8 n^3 cce.abundance expected spins must each "
     f"stay at most {MAX_SPECTRUM_POINTS:,}",
     lambda c: all(_cube_fits(side, c) for side in c["converge"]["sides_nm"])),
    ("cce.a0_nm: at {cce[a0_nm]!r} nm, with the largest side of cce.side_nm and "
     "converge.sides_nm, the bath's distances and dipolar couplings must stay finite "
     "and nonzero",
     _bath_distances_fit),
    ("donor.g_factor: {donor[g_factor]!r}, with cce.a0_nm = {cce[a0_nm]!r} nm, must keep the "
     "echo kernel's terms finite for the largest contact J and dipolar b",
     lambda c: all(map(math.isfinite, _echo_bounds(c)))),
    ("cce.t_max_ms: {cce[t_max_ms]!r} ms must keep the echo kernel's loss bound "
     "C (2 pi tau_max)^4 finite",
     _echo_times_fit),
    ("cce.t_max_ms, cce.t_steps: {cce[t_max_ms]!r} ms in {cce[t_steps]} points must give a "
     f"time step of at least {sys.float_info.min!r} ms, so that the time grid strictly ascends",
     _time_grid_ascends),
    # two entries that name one echo CSV would overwrite each other's output
    ("converge.sides_nm: the sides {converge[sides_nm]!r} must each write their own echo "
     "CSV, but two give the same file name",
     lambda c: _distinct(converge_echo_name(side, c["converge"]["shells"][0])
                         for side in c["converge"]["sides_nm"])),
    ("converge.shells: the shells {converge[shells]!r} must each write their own echo CSV, "
     "but two give the same file name",
     lambda c: _distinct(converge_echo_name(c["converge"]["sides_nm"][0], shell)
                         for shell in c["converge"]["shells"])),
    ("rabi.label_upper, rabi.label_lower: {rabi[label_upper]} and {rabi[label_lower]} must "
     "be labels 1..{dimension} one m apart for the drive to couple them at rabi.field_t",
     _rabi_coupled),
    ("cce.label_upper, cce.label_lower: {cce[label_upper]} and {cce[label_lower]} must "
     "be distinct labels 1..{dimension}",
     lambda c: _labels_of_donor(c, "cce") and c["cce"]["label_upper"] != c["cce"]["label_lower"]),
    (f"cce.t_steps, cce.fit: the echo fit needs at least {ECHO_MIN_POINTS} time points, got "
     "{cce[t_steps]}; raise cce.t_steps or set cce.fit = false",
     lambda c: not c["cce"]["fit"] or c["cce"]["t_steps"] >= ECHO_MIN_POINTS),
)


def _problem(bound: Any, value: Any) -> str | None:
    """Why one value breaks bound, or None."""
    if value is None:  # an unset optional key
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if isinstance(bound, tuple):
        return None if value in bound else f"must be one of {', '.join(map(str, bound))}"
    if bound is None or CHECKS[bound][0](value):
        return None
    return CHECKS[bound][1]


def validate(config: dict[str, dict[str, Any]]) -> None:
    """Raise ConfigError at the first key out of its bound, else at the
    first broken cross-key rule."""
    for section, keys in SCHEMA.items():
        for key, (tag, _, bound) in keys.items():
            items = config[section][key] if tag.endswith("list") else [config[section][key]]
            if not items:
                raise ConfigError(f"{section}.{key}: must not be empty")
            for item in items:
                problem = _problem(bound, item)
                if problem is not None:
                    raise ConfigError(f"{section}.{key}: {problem}, got {item!r}")
    for message, holds in RULES:
        if not holds(config):
            raise ConfigError(message.format(dimension=spin_system(config).dimension, **config))


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False, "on": True, "off": False}

# type tag -> parser of the stripped raw text
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "bool": lambda raw: _BOOL_WORDS[raw.lower()],
    "optstr": lambda raw: raw or None,
    "optfloat": lambda raw: float(raw) if raw else None,
    "floatlist": lambda raw: tuple(float(tok) for tok in raw.replace(",", " ").split()),
    "intlist": lambda raw: tuple(int(tok) for tok in raw.replace(",", " ").split()),
}


def _parse_value(tag: str, raw: str, path: str) -> Any:
    raw = raw.strip()
    try:
        return _PARSERS[tag](raw)
    except (ValueError, KeyError):
        raise ConfigError(f"{path}: cannot parse {raw!r} as {tag}") from None


def _render_value(tag: str, value: Any) -> str:
    if value is None:
        return ""
    if tag == "bool":
        return "true" if value else "false"
    items = value if tag.endswith("list") else [value]
    return " ".join(repr(float(v)) if "float" in tag else str(v) for v in items)


def default_config() -> dict[str, dict[str, Any]]:
    return {sec: {key: spec[1] for key, spec in keys.items()} for sec, keys in SCHEMA.items()}


def load_config(path: str | None) -> dict[str, dict[str, Any]]:
    """Defaults overlaid with the file at path; unknown keys rejected."""
    config = default_config()
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key: {section}.{key}")
            config[section][key] = _parse_value(SCHEMA[section][key][0], raw, f"{section}.{key}")
    return config


def render_config(config: dict[str, dict[str, Any]]) -> str:
    """Config as sectioned key-value text; load_config inverts it."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (tag, _, _) in keys.items():
            lines.append(f"{key} = {_render_value(tag, config[section][key])}")
        lines.append("")
    return "\n".join(lines)
