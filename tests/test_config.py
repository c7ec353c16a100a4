"""The config's physical ranges against the overflow rules they replace.

Each retired rule (`overflow_rules.py`) is finite, or holds, at every
corner of the box the ranges span, and at configs drawn inside it. The
box also takes the bounds the kept rules set on the unranged keys: I up
to the levels table's cap, |delta| below 1 / (2 I), cce.t_steps up to
the echo curves' cap, and every box side from 2 cells to the widest
cube. So every config `validate` admits was admitted by these rules.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import overflow_rules as rules

from donorspin.cli import SCHEMA, default_config
from donorspin.cli.config import MAX_SPECTRUM_POINTS

# the largest I whose 2 (2 I + 1) levels fit one field of the levels table
MAX_NUCLEAR_SPIN = (MAX_SPECTRUM_POINTS // 2 - 1) / 2
# the most cells per axis of any cube: 8 n^2 sites per x-plane
MAX_CELLS = math.isqrt(MAX_SPECTRUM_POINTS // 8)
FIELD_KEYS = [("levels", "b_max_t"), ("freqmap", "b_max_t"), ("rabi", "field_t"),
              ("cce", "field_t")]


def _ends(section, key) -> tuple[float, float]:
    """The least and greatest value of a key's range."""
    bound = SCHEMA[section][key][2]
    return math.nextafter(bound.lo, math.inf) if bound.lo_open else bound.lo, bound.hi


def _config(donor, resonances, cce, field_t, sides_nm) -> dict:
    config = default_config()
    config["donor"].update(donor)
    config["resonances"].update(resonances)
    config["cce"].update(cce)
    for section, key in FIELD_KEYS:
        config[section][key] = max(field_t, _ends(section, key)[0])
    config["cce"]["side_nm"] = sides_nm[0]
    config["converge"]["sides_nm"] = tuple(sides_nm)
    return config


def _broken_rules(config) -> list[str]:
    """The retired rules that config breaks; each must hold or be finite."""
    holds = {
        "_zeeman_per_tesla_fits": rules._zeeman_per_tesla_fits(config),
        "_lines_finite": rules._lines_finite(config),
        "_quarter_b_max": math.isfinite(rules._quarter_b_max(config)),
        "_bath_distances_fit": rules._bath_distances_fit(config),
        "_echo_bounds": all(map(math.isfinite, rules._echo_bounds(config))),
        "_echo_times_fit": rules._echo_times_fit(config),
        "_time_grid_ascends": rules._time_grid_ascends(config),
        "_levels_finite": all(rules._levels_finite(config, config[section][key])
                              for section, key in FIELD_KEYS),
        "_quartic_finite": rules._quartic_finite(config),
    }
    return [name for name, ok in holds.items() if not ok]


def test_every_retired_rule_holds_at_every_corner_of_the_ranges():
    # each rule is monotone in each key over the box (a sum, product or
    # quotient of the keys' magnitudes), so its extremes lie at the corners
    hyperfine, g = (_ends("donor", key) for key in ("hyperfine_mhz", "g_factor"))
    frequency, b_min, b_max, fwhm = (
        _ends("resonances", key) for key in ("frequency_mhz", "b_min_t", "b_max_t", "fwhm_mt"))
    t_max, a0 = (_ends("cce", key) for key in ("t_max_ms", "a0_nm"))
    failures = []
    for (nuclear_spin, delta_sign, hyperfine_mhz, g_factor, frequency_mhz, b_min_t, b_max_t,
         fwhm_mt, t_max_ms, t_steps, a0_nm, cells, field_t) in itertools.product(
            (0.5, MAX_NUCLEAR_SPIN), (-1, 0, 1), hyperfine, g, frequency, b_min, b_max, fwhm,
            t_max, (2, MAX_SPECTRUM_POINTS), a0, (2, MAX_CELLS + 1), _ends("levels", "b_max_t")):
        config = _config(
            {"nuclear_spin": nuclear_spin, "nuclear_zeeman_delta": delta_sign / (2 * nuclear_spin),
             "hyperfine_mhz": hyperfine_mhz, "g_factor": g_factor},
            {"frequency_mhz": frequency_mhz, "b_min_t": b_min_t, "b_max_t": b_max_t,
             "fwhm_mt": fwhm_mt},
            {"t_max_ms": t_max_ms, "t_steps": t_steps, "a0_nm": a0_nm},
            field_t, [cells * a0_nm])
        broken = _broken_rules(config)
        if broken:
            failures.append((config, broken))
    assert not failures, failures[:3]


def _in_range(section, key):
    lo, hi = _ends(section, key)
    return st.floats(lo, hi)


@st.composite
def _box_configs(draw):
    nuclear_spin = draw(st.integers(1, int(2 * MAX_NUCLEAR_SPIN))) / 2
    delta = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)) / (2 * nuclear_spin)
    a0_nm = draw(_in_range("cce", "a0_nm"))
    donor = {"nuclear_spin": nuclear_spin, "nuclear_zeeman_delta": delta,
             **{key: draw(_in_range("donor", key)) for key in ("hyperfine_mhz", "g_factor")}}
    resonances = {key: draw(_in_range("resonances", key))
                  for key in ("frequency_mhz", "b_min_t", "b_max_t", "fwhm_mt")}
    cce = {"t_max_ms": draw(_in_range("cce", "t_max_ms")), "a0_nm": a0_nm,
           "t_steps": draw(st.integers(2, MAX_SPECTRUM_POINTS))}
    sides_nm = draw(st.lists(st.floats(2 * a0_nm, (MAX_CELLS + 1) * a0_nm), min_size=1,
                             max_size=4))
    return _config(donor, resonances, cce, draw(_in_range("levels", "b_max_t")), sides_nm)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=_box_configs())
def test_every_retired_rule_holds_inside_the_ranges(config):
    assert _broken_rules(config) == []
