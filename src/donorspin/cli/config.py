"""Sectioned key-value run configuration with a strict schema.

Every key has a typed default and a bound below; print-config renders
them all, so a config file only needs the keys it overrides. Unknown
sections or keys are usage errors carrying the offending key path.
`validate` checks the whole effective config once: every float is
finite, every value keeps its key's bound (a list key applies it to each
entry and may not be empty), then the cross-key `RULES` hold.

A numeric key's bound is an `Interval`. The float keys that reach the
Zeeman, level, resonance, line-shape and bath arithmetic are held to a
physical range, wide around Si:Bi, inside which all of that arithmetic
stays finite.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Any

from ..bath import PAIR_SHELLS, LatticeSpec
from ..constants import (
    BI_G_FACTOR,
    BI_HYPERFINE_MHZ,
    BI_NUCLEAR_SPIN,
    BI_NUCLEAR_ZEEMAN_DELTA,
    SI29_ABUNDANCE,
    SI_LATTICE_NM,
)
from ..fitting.routines import ECHO_MIN_POINTS
from ..spectra import INTENSITY_FLOOR, sx_matrix_element
from ..spin import SpinSystem


class ConfigError(Exception):
    """Malformed configuration; the message names the key path."""


@dataclasses.dataclass(frozen=True)
class Interval:
    """The numbers lo to hi, both included unless lo_open excludes lo; a
    half-integer interval holds only multiples of 1/2."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    half_integer: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo < value if self.lo_open else self.lo <= value) and value <= self.hi
                and (not self.half_integer or (2 * value).is_integer()))

    def __str__(self) -> str:
        text = (f"{'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}"
                f"{']' if self.hi < math.inf else ')'}")
        return f"a half-integer in {text}" if self.half_integer else text


POSITIVE = Interval(0.0, lo_open=True)
NOT_NEGATIVE = Interval(0.0)
AT_LEAST_1 = Interval(1)
FIELD_T = Interval(0.0, 100.0)

# section -> key -> (type tag, default, bound); a bound is an Interval,
# the tuple of allowed values, or None (any finite value)
SCHEMA: dict[str, dict[str, tuple[str, Any, Any]]] = {
    "donor": {
        "hyperfine_mhz": ("float", BI_HYPERFINE_MHZ, Interval(1e-3, 1e6)),
        "g_factor": ("float", BI_G_FACTOR, Interval(0.1, 10.0)),
        "nuclear_zeeman_delta": ("float", BI_NUCLEAR_ZEEMAN_DELTA, None),
        "nuclear_spin": ("float", BI_NUCLEAR_SPIN, Interval(0.5, half_integer=True)),
    },
    "run": {
        "seed": ("int", 2024, None),
        "workers": ("int", 1, AT_LEAST_1),
        "out_dir": ("str", ".", None),
    },
    "levels": {
        "b_min_t": ("float", 0.0, FIELD_T),
        "b_max_t": ("float", 0.6, FIELD_T),
        "b_steps": ("int", 241, AT_LEAST_1),
    },
    "resonances": {
        "frequency_mhz": ("float", 4044.0, Interval(0.0, 1e6, lo_open=True)),
        "b_min_t": ("float", 0.0, FIELD_T),
        "b_max_t": ("float", 0.6, FIELD_T),
        "intensity_floor": ("float", INTENSITY_FLOOR, NOT_NEGATIVE),
        "fwhm_mt": ("float", 0.7, Interval(1e-6, 1e6)),
        "grid_step_mt": ("float", 0.05, POSITIVE),
    },
    "freqmap": {
        "b_min_t": ("float", 0.0, FIELD_T),
        "b_max_t": ("float", 0.6, FIELD_T),
        "b_steps": ("int", 121, AT_LEAST_1),
        "intensity_floor": ("float", INTENSITY_FLOOR, NOT_NEGATIVE),
    },
    "rabi": {
        "label_upper": ("int", 11, AT_LEAST_1),
        "label_lower": ("int", 10, AT_LEAST_1),
        "field_t": ("float", 0.3446, FIELD_T),
        "f1_mhz": ("float", 15.625, POSITIVE),
        "input_csv": ("optstr", None, None),
    },
    "cce": {
        "label_upper": ("int", 11, AT_LEAST_1),
        "label_lower": ("int", 10, AT_LEAST_1),
        "field_t": ("float", 0.3446, Interval(0.0, 100.0, lo_open=True)),
        "side_nm": ("float", 14.0, POSITIVE),
        "n_configs": ("int", 20, AT_LEAST_1),
        "shell": ("int", 3, tuple(PAIR_SHELLS)),
        "t_max_ms": ("float", 1.0, Interval(1e-6, 1e6)),
        "t_steps": ("int", 51, Interval(2)),
        "abundance": ("float", SI29_ABUNDANCE, Interval(0.0, 1.0)),
        "a0_nm": ("float", SI_LATTICE_NM, Interval(1e-3, 1e3)),
        "fit": ("bool", True, None),
    },
    "converge": {
        "sides_nm": ("floatlist", (7.0, 10.0, 14.0, 18.0), POSITIVE),
        "shells": ("intlist", tuple(PAIR_SHELLS), tuple(PAIR_SHELLS)),
    },
    "fit": {
        "model": ("str", "echo_decay",
                  ("echo_decay", "t1_raman_orbach", "exp_recovery", "gaussian_lines")),
        "input_csv": ("optstr", None, None),
        "fix_delta_k": ("optfloat", None, POSITIVE),
        "n_lines": ("int", 2, AT_LEAST_1),
        "mode": ("str", "absorption", ("absorption", "derivative")),
        "free_amplitude": ("bool", True, None),
    },
}


def spin_system(config) -> SpinSystem:
    """The donor of config's [donor] section, whose keys are SpinSystem fields."""
    return SpinSystem(**config["donor"])


# largest array of any command, about 80 MB as float64: the resonances
# spectrum grid, the levels and freqmap tables, the cce curves of one
# (side, shell) key, one per configuration, a bath cube's first x-plane
# of sites and its expected spins, and the Jacobian of a lines fit
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
    ("levels.b_max_t: must be at least levels.b_min_t",
     lambda c: c["levels"]["b_max_t"] >= c["levels"]["b_min_t"]),
    ("freqmap.b_max_t: must be at least freqmap.b_min_t",
     lambda c: c["freqmap"]["b_max_t"] >= c["freqmap"]["b_min_t"]),
    ("resonances.b_max_t: must be above resonances.b_min_t",
     lambda c: c["resonances"]["b_max_t"] > c["resonances"]["b_min_t"]),
    (f"resonances.grid_step_mt, resonances.b_min_t, resonances.b_max_t: a step of "
     f"{{resonances[grid_step_mt]!r}} mT from {{resonances[b_min_t]!r}} to "
     f"{{resonances[b_max_t]!r}} T must give at most {MAX_SPECTRUM_POINTS:,} spectrum points",
     lambda c: spectrum_points(c["resonances"]) <= MAX_SPECTRUM_POINTS),
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
    # a fit of n lines needs more than 3 n samples, so its Jacobian has at
    # least 3 n (3 n + 1) entries
    (f"fit.n_lines: {{fit[n_lines]}} lines need at least 3 fit.n_lines + 1 samples, and the "
     f"Jacobian of that many samples by 3 fit.n_lines parameters must stay at most "
     f"{MAX_SPECTRUM_POINTS:,} entries",
     lambda c: c["fit"]["model"] != "gaussian_lines"
     or 3 * c["fit"]["n_lines"] * (3 * c["fit"]["n_lines"] + 1) <= MAX_SPECTRUM_POINTS),
)


def _problem(bound: Any, value: Any) -> str | None:
    """Why one value breaks bound, or None."""
    if value is None:  # an unset optional key
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if isinstance(bound, tuple):
        return None if value in bound else f"must be one of {', '.join(map(str, bound))}"
    if bound is None or value in bound:
        return None
    return f"must be {bound}" if bound.half_integer else f"must lie in {bound}"


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
