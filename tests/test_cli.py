"""End-to-end tests of the command-line surface."""

import contextlib
import csv
import dataclasses
import errno
import importlib
import io
import itertools
import json
import math
import os
import re
import shutil
import signal
import string
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overflow_rules import _bath_distances_fit

import donorspin
from donorspin import bell_field, concurrence, diagonalize, si_bi
from donorspin.bath import (
    CceParams,
    KohnLuttingerModel,
    LatticeSpec,
    build_configuration,
    ensemble_echo,
    superhyperfine_j,
)
from donorspin.bath.ensemble import THIRD_NN_FACTOR
from donorspin.bath.occupancy import MAX_CELLS_PER_AXIS
from donorspin.cli import SCHEMA, ConfigError, default_config, load_config, render_config
from donorspin.cli.config import (
    MAX_SPECTRUM_POINTS,
    Interval,
    _problem,
    spectrum_points,
    spin_system,
    validate,
)
from donorspin.cli.main import _COMMANDS, _CSV_BLOCK_CELLS, _write, main
from donorspin.cli.manifest import file_sha256
from donorspin.spectra import _adjacent_pairs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*argv: str) -> int:
    return main(list(argv))


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_print_config_round_trip(tmp_path, capsys):
    assert run_cli("print-config") == 0
    text = capsys.readouterr().out
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    assert load_config(str(path)) == default_config()


def test_render_config_lists_every_default():
    text = render_config(default_config())
    for section in ("donor", "run", "levels", "resonances", "cce", "converge", "fit"):
        assert f"[{section}]" in text


def test_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[cce]\nsides_nm = 7\n")
    assert run_cli("cce", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "cce.sides_nm" in capsys.readouterr().err


def test_unknown_section_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[bath]\nside_nm = 7\n")
    assert run_cli("cce", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "bath" in capsys.readouterr().err


def test_list_values_accept_commas_and_spaces(tmp_path):
    cfg = write_config(tmp_path, "[converge]\nsides_nm = 7.0, 10.0\nshells = 2 3\n")
    loaded = load_config(cfg)
    assert loaded["converge"]["sides_nm"] == (7.0, 10.0)
    assert loaded["converge"]["shells"] == (2, 3)


def test_malformed_value_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[levels]\nb_steps = banana\n")
    assert run_cli("levels", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "levels.b_steps" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    assert run_cli("levels", "--config", str(tmp_path / "nope.ini")) == 2


def test_levels_csv_schema_and_concurrences(tmp_path):
    bell = bell_field(si_bi(), -4.0)
    cfg = write_config(
        tmp_path, f"[levels]\nb_min_t = {bell!r}\nb_max_t = {bell!r}\nb_steps = 1\n"
    )
    assert run_cli("levels", "--config", cfg, "--out", str(tmp_path)) == 0
    lines = (tmp_path / "levels.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["B_mT"] + [f"E{i}" for i in range(1, 21)] + [f"C{i}" for i in range(1, 21)]
    row = [float(v) for v in lines[1].split(",")]
    concurrences = row[21:]
    assert abs(concurrences[9]) < 1e-9 and abs(concurrences[19]) < 1e-9
    assert sum(c >= 0.999 for c in concurrences) == 2
    manifest = json.loads((tmp_path / "levels_manifest.json").read_text())
    assert manifest["outputs"]["levels.csv"] == file_sha256(str(tmp_path / "levels.csv"))
    assert manifest["config"]["levels"]["b_steps"] == 1


def test_library_concurrence_is_the_levels_csv_column(tmp_path):
    assert run_cli("levels", "--out", str(tmp_path)) == 0
    with open(tmp_path / "levels.csv") as fh:
        rows = list(csv.DictReader(fh))
    section = default_config()["levels"]
    grid = np.linspace(section["b_min_t"], section["b_max_t"], section["b_steps"])
    assert len(rows) == len(grid)
    sys_bi = si_bi()
    for b, row in zip(grid.tolist(), rows):
        es = diagonalize(sys_bi, b)
        for label in range(1, sys_bi.dimension + 1):
            assert concurrence(es, label) == float(row[f"C{label}"])


def test_resonances_default_run(tmp_path):
    assert run_cli("resonances", "--out", str(tmp_path)) == 0
    entries = json.loads((tmp_path / "resonances.json").read_text())
    assert len(entries) == 2
    fields_mt = sorted(entry["field_b"] * 1e3 for entry in entries)
    assert fields_mt[0] == pytest.approx(145.6, abs=0.5)
    assert fields_mt[1] == pytest.approx(345.0, abs=0.5)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "field_t,signal"
    assert len(lines) - 1 == 12001


def test_resonances_high_floor_empty_but_valid(tmp_path):
    cfg = write_config(tmp_path, "[resonances]\nintensity_floor = 0.5\ngrid_step_mt = 0.5\n")
    assert run_cli("resonances", "--config", cfg, "--out", str(tmp_path)) == 0
    assert json.loads((tmp_path / "resonances.json").read_text()) == []
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "field_t,signal"
    signals = [float(line.split(",")[1]) for line in lines[1:]]
    assert signals and all(s == 0.0 for s in signals)


@pytest.mark.parametrize("text", [
    "grid_step_mt = 1e-9",
    pytest.param("b_max_t = 100\ngrid_step_mt = 0.005", id="100 T span"),
    "grid_step_mt = 5e-324",
])
def test_spectrum_grid_past_its_limit_is_usage_error(tmp_path, capsys, text):
    # the first would allocate 4 TiB, the second twice the cap over the
    # widest field span; the last step underflows to 0 T
    cfg = write_config(tmp_path, f"[resonances]\n{text}\n")
    out = tmp_path / "out"
    assert run_cli("resonances", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    for key in ("resonances.grid_step_mt", "resonances.b_min_t", "resonances.b_max_t"):
        assert key in err
    assert f"{MAX_SPECTRUM_POINTS:,}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_spectrum_grid_at_its_limit_is_allowed():
    config = default_config()
    config["resonances"].update(b_min_t=0.0, b_max_t=0.5, grid_step_mt=0.5e-4)
    assert spectrum_points(config["resonances"]) == MAX_SPECTRUM_POINTS + 1
    with pytest.raises(ConfigError, match="resonances.grid_step_mt"):
        validate(config)
    config["resonances"]["b_max_t"] = 0.49999995
    assert spectrum_points(config["resonances"]) == MAX_SPECTRUM_POINTS
    validate(config)


# (section, keys set at the largest in-bound work size, key past it, its
# rejected value) for the levels table of the 20-level Bi donor and the
# echo curves held per key
AT_THE_WORK_CAP = [
    ("levels", {"b_steps": MAX_SPECTRUM_POINTS // 20}, "b_steps", MAX_SPECTRUM_POINTS // 20 + 1),
    ("cce", {"n_configs": MAX_SPECTRUM_POINTS // 50, "t_steps": 50}, "n_configs",
     MAX_SPECTRUM_POINTS // 50 + 1),
    ("cce", {"n_configs": 20, "t_steps": MAX_SPECTRUM_POINTS // 20}, "t_steps",
     MAX_SPECTRUM_POINTS // 20 + 1),
]


@pytest.mark.parametrize("section, at_cap, key, past", AT_THE_WORK_CAP)
def test_work_size_at_its_cap_is_allowed_and_past_it_rejected(section, at_cap, key, past):
    # validate only: the work these sizes draw is never started
    config = default_config()
    config[section].update(at_cap)
    validate(config)
    config[section][key] = past
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        validate(config)


@pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 4.5, 10.5])
def test_freqmap_cap_counts_the_label_pairs_one_m_apart(nuclear_spin):
    config = default_config()
    config["donor"].update(nuclear_spin=nuclear_spin, nuclear_zeeman_delta=0.0)
    for section in ("rabi", "cce"):  # labels every donor has
        config[section].update(label_upper=2, label_lower=1)
    at_cap = MAX_SPECTRUM_POINTS // len(_adjacent_pairs(spin_system(config)))
    config["freqmap"]["b_steps"] = at_cap
    validate(config)
    config["freqmap"]["b_steps"] = at_cap + 1
    with pytest.raises(ConfigError, match="freqmap.b_steps"):
        validate(config)


# in-bound sizes that ran out of memory before they were capped: tables of
# 7.28 TiB and 4.10 GiB, echo curves of 745 GiB, a task list of 10^9 configurations
@pytest.mark.parametrize("command, section, key, value", [
    ("levels", "levels", "b_steps", 10**12),
    ("levels", "levels", "b_steps", 5 * 10**7),
    ("freqmap", "freqmap", "b_steps", 10**12),
    ("cce", "cce", "t_steps", 10**11),
    ("cce", "cce", "n_configs", 10**9),
    ("cce-converge", "cce", "n_configs", 10**9),
])
def test_work_size_past_its_cap_is_usage_error(tmp_path, capsys, monkeypatch, command, section,
                                               key, value):
    def refuse(config):
        raise AssertionError(f"{command} started work of {section}.{key} = {value}")

    monkeypatch.setitem(_COMMANDS, command, refuse)
    cfg = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert f"{MAX_SPECTRUM_POINTS:,}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_freqmap_zero_field_degeneracy(tmp_path):
    cfg = write_config(tmp_path, "[freqmap]\nb_min_t = 0.0\nb_max_t = 0.0\nb_steps = 1\n")
    assert run_cli("freqmap", "--config", cfg, "--out", str(tmp_path)) == 0
    lines = (tmp_path / "freqmap.csv").read_text().splitlines()
    assert lines[0] == "field_t,freq_mhz,intensity,label_upper,label_lower"
    freqs = [float(line.split(",")[1]) for line in lines[1:]]
    assert freqs and all(f == pytest.approx(7377.0, abs=1e-6) for f in freqs)


def test_zero_row_csv_is_its_header_alone(tmp_path):
    # no transition reaches an intensity of 0.3 (the maximum is 1/4)
    cfg = write_config(tmp_path, "[freqmap]\nintensity_floor = 0.3\n")
    assert run_cli("freqmap", "--config", cfg, "--out", str(tmp_path)) == 0
    text = (tmp_path / "freqmap.csv").read_text()
    assert text == "field_t,freq_mhz,intensity,label_upper,label_lower\n"


# three columns: a block holds _CSV_BLOCK_CELLS // 3 rows
@pytest.mark.parametrize("n_rows", [0, 1, _CSV_BLOCK_CELLS // 3, 2 * (_CSV_BLOCK_CELLS // 3) + 3])
def test_csv_blocks_write_the_row_by_row_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = (rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows),
               rng.integers(-5, 30, n_rows), np.linspace(0.0, 1.0, n_rows))
    path = str(tmp_path / "table.csv")
    _write(path, (["x", "label", "t"], columns))
    rows = zip(*(column.tolist() for column in columns))
    want = "x,label,t\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with open(path, newline="") as fh:
        assert fh.read() == want


def test_reused_parser_keeps_no_flag_between_calls(tmp_path):
    from donorspin.fitting import t1_rate

    temps = np.linspace(10.0, 60.0, 14)
    _write_columns(tmp_path / "t1.csv", ["temp_k", "rate_per_s"], temps,
                   t1_rate(temps, 1.26e-5, 3e12, 500.0))
    cfg = write_config(tmp_path, f"[fit]\nmodel = t1_raman_orbach\n"
                                 f"input_csv = {tmp_path / 't1.csv'}\nfix_delta_k = 450.0\n")
    held = {}
    for name, flags in (("flag", ["--fix-delta", "500"]), ("config", [])):
        out = tmp_path / name
        run_cli("fit", "--config", cfg, "--out", str(out), *flags)
        manifest = json.loads((out / "fit_manifest.json").read_text())
        held[name] = manifest["config"]["fit"]["fix_delta_k"]
        assert json.loads((out / "fit.json").read_text())["params"]["Delta_K"] == held[name]
    assert held == {"flag": 500.0, "config": 450.0}

def test_rabi_model_and_measured(tmp_path):
    t_us = np.arange(0.0, 1.0, 1.0 / 256.0)
    signal = 0.5 + 0.5 * np.cos(2.0 * np.pi * 15.625 * t_us)
    data_path = tmp_path / "rabi_data.csv"
    with open(data_path, "w") as fh:
        fh.write("time_us,signal\n")
        for a, b in zip(t_us, signal):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    cfg = write_config(tmp_path, f"[rabi]\ninput_csv = {data_path}\n")
    assert run_cli("rabi", "--config", cfg, "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "rabi.json").read_text())
    assert payload["rabi_mhz"] == pytest.approx(
        2.0 * payload["sx_element"] * payload["f1_mhz"], rel=1e-12
    )
    assert payload["pi_time_ns"] == pytest.approx(1e3 / (2 * payload["rabi_mhz"]), rel=1e-12)
    assert payload["measured_mhz"] == pytest.approx(15.625, abs=0.05)


CCE_SMALL = "[cce]\nside_nm = 7.0\nn_configs = 4\nt_steps = 9\nt_max_ms = 0.8\nfit = false\n"


def test_cce_determinism_across_runs(tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = write_config(tmp_path, CCE_SMALL)
        assert run_cli("cce", "--config", cfg, "--out", str(out), "--seed", "11") == 0
    assert (tmp_path / "a" / "echo.csv").read_bytes() == (tmp_path / "b" / "echo.csv").read_bytes()
    checksums = [
        json.loads((tmp_path / sub / "cce_manifest.json").read_text())["outputs"]
        for sub in ("a", "b")
    ]
    assert checksums[0] == checksums[1]


def test_cce_workers_byte_identical(tmp_path):
    for sub, workers in (("w1", "1"), ("w4", "4")):
        cfg = write_config(tmp_path, CCE_SMALL)
        assert run_cli(
            "cce", "--config", cfg, "--out", str(tmp_path / sub),
            "--seed", "11", "--workers", workers,
        ) == 0
    assert (tmp_path / "w1" / "echo.csv").read_bytes() == (tmp_path / "w4" / "echo.csv").read_bytes()


def test_cce_seed_changes_output(tmp_path):
    for sub, seed in (("s1", "11"), ("s2", "12")):
        cfg = write_config(tmp_path, CCE_SMALL)
        assert run_cli("cce", "--config", cfg, "--out", str(tmp_path / sub), "--seed", seed) == 0
    assert (tmp_path / "s1" / "echo.csv").read_bytes() != (tmp_path / "s2" / "echo.csv").read_bytes()


def test_cce_uses_the_configured_donor(tmp_path):
    for sub, donor in (("bi", ""), ("a", "[donor]\nhyperfine_mhz = 117.52\n")):
        cfg = write_config(tmp_path, CCE_SMALL + donor)
        assert run_cli("cce", "--config", cfg, "--out", str(tmp_path / sub), "--seed", "11") == 0
    assert (tmp_path / "bi" / "echo.csv").read_bytes() != (tmp_path / "a" / "echo.csv").read_bytes()


def _echo_amplitudes(path) -> list[float]:
    with open(path) as fh:
        return [float(row["amplitude"]) for row in csv.DictReader(fh)]


def test_cce_couplings_use_the_configured_lattice_and_g(tmp_path):
    # J depends on a0 through the valley wavevector and on g through its
    # prefactor; CceParams takes both from its lattice and its donor
    a0_nm, g_factor = 0.5, 1.9985
    cfg = write_config(tmp_path, CCE_SMALL + f"a0_nm = {a0_nm}\n[donor]\ng_factor = {g_factor}\n")
    assert run_cli("cce", "--config", cfg, "--out", str(tmp_path), "--seed", "11") == 0
    params = CceParams(
        transition=(11, 10),
        field_b=0.3446,
        lattice=LatticeSpec(side_nm=7.0, a0_nm=a0_nm),
        time_grid_ms=tuple(np.linspace(0.0, 0.8, 9).tolist()),
        n_configs=4,
        seed=11,
        r_max_nm=THIRD_NN_FACTOR * a0_nm,
        system=dataclasses.replace(si_bi(), g_factor=g_factor),
    )
    written = _echo_amplitudes(tmp_path / "echo.csv")
    assert written == ensemble_echo(params).amplitude.tolist()
    config = build_configuration(params, 0)
    pos = config.sites * (a0_nm / 4.0)
    want = superhyperfine_j(pos, KohnLuttingerModel(a0_nm=a0_nm, g_factor=g_factor))
    assert np.array_equal(config.couplings_j, want)
    for stale in (KohnLuttingerModel(a0_nm=a0_nm), KohnLuttingerModel(g_factor=g_factor)):
        assert not np.array_equal(config.couplings_j, superhyperfine_j(pos, stale))


@pytest.mark.parametrize("t_steps", ["2", "5"])
def test_cce_fit_on_too_few_time_points_is_usage_error(tmp_path, capsys, t_steps):
    cfg = write_config(tmp_path, f"[cce]\nt_steps = {t_steps}\nfit = true\n")
    out = tmp_path / "out"
    assert run_cli("cce", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "cce.t_steps" in err and "cce.fit" in err
    assert not out.exists()


def test_cce_chained_fit_in_manifest(tmp_path):
    cfg = write_config(tmp_path, "[cce]\nside_nm = 10.0\nn_configs = 4\nt_steps = 21\n")
    code = run_cli("cce", "--config", cfg, "--out", str(tmp_path), "--seed", "2024")
    manifest = json.loads((tmp_path / "cce_manifest.json").read_text())
    assert set(manifest["fit"]["params"]) == {"amp", "T2_ms", "TS_ms", "n"}
    assert code in (0, 1)
    assert manifest["fit"]["converged"] == (code == 0)


def test_cce_fully_decayed_echo_gets_the_fit_verdict(tmp_path):
    # a dense bath decays the echo to exactly 0.0 (underflow) after t = 0
    cfg = write_config(
        tmp_path,
        "[cce]\nside_nm = 8.0\nn_configs = 2\nt_steps = 11\nt_max_ms = 100\nabundance = 1.0\n",
    )
    out = tmp_path / "out"
    code = run_cli("cce", "--config", cfg, "--out", str(out))
    assert code in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == ["cce_manifest.json", "echo.csv"]
    assert _echo_amplitudes(out / "echo.csv")[1:] == [0.0] * 10
    manifest = json.loads((out / "cce_manifest.json").read_text())
    assert manifest["fit"]["converged"] == (code == 0)


def test_cce_flat_echo_fit_is_unconverged(tmp_path):
    # no bath spins: every amplitude is 1, which fixes no TS or n
    cfg = write_config(
        tmp_path,
        "[cce]\nside_nm = 5.0\nn_configs = 2\nt_steps = 11\nabundance = 0.0\nfit = true\n",
    )
    out = tmp_path / "out"
    assert run_cli("cce", "--config", cfg, "--out", str(out)) == 1
    assert sorted(p.name for p in out.iterdir()) == ["cce_manifest.json", "echo.csv"]
    assert _echo_amplitudes(out / "echo.csv") == [1.0] * 11
    manifest = json.loads((out / "cce_manifest.json").read_text())
    assert manifest["fit"]["converged"] is False
    assert manifest["fit"]["std_errors"] == {}


def test_cce_failing_fit_leaves_no_output(tmp_path, capsys, monkeypatch):
    def broken_fit(*args, **kwargs):
        raise ValueError("fit failed")

    monkeypatch.setattr("donorspin.fitting.routines.fit_echo_decay", broken_fit)
    cfg = write_config(tmp_path, CCE_SMALL.replace("fit = false", "fit = true"))
    out = tmp_path / "out"
    assert run_cli("cce", "--config", cfg, "--out", str(out)) == 2
    assert "fit failed" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["levels", "cce"])
@pytest.mark.parametrize("inside", [False, True], ids=["file", "below-file"])
def test_unusable_out_dir_is_usage_error_before_any_compute(
        tmp_path, capsys, monkeypatch, command, inside):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output directory was checked")

    monkeypatch.setattr("donorspin.cli.main.level_table", no_compute)
    monkeypatch.setattr("donorspin.bath.ensemble.convergence_study", no_compute)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    out = blocker / "sub" if inside else blocker
    assert run_cli(command, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run.out_dir") and "Traceback" not in err
    assert blocker.read_text() == "keep\n"


# every command that writes output, with a small config for each
OUTPUT_RUNS = {
    "levels": "[levels]\nb_steps = 5\n",
    "resonances": "",
    "freqmap": "[freqmap]\nb_steps = 5\n",
    "rabi": "",
    "cce": CCE_SMALL.replace("fit = false", "fit = true"),
    "cce-converge":
        "[cce]\nn_configs = 2\nt_steps = 6\n[converge]\nsides_nm = 5.5 7.0\nshells = 2 3\n",
    "fit": "[fit]\nmodel = echo_decay\ninput_csv = "
           + os.path.join(FIXTURES, "echo_decay_fixture.csv") + "\n",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_RUNS))
def test_manifest_lists_exactly_the_written_files(tmp_path, command):
    cfg = write_config(tmp_path, OUTPUT_RUNS[command])
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) in (0, 1)
    manifest_name = f"{command}_manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    written = {p.name for p in out.iterdir()} - {manifest_name}
    assert written and set(manifest["outputs"]) == written
    for name, digest in manifest["outputs"].items():
        assert digest == file_sha256(str(out / name))


@pytest.mark.parametrize("command", sorted(OUTPUT_RUNS))
def test_manifest_records_the_environment(tmp_path, command):
    cfg = write_config(tmp_path, OUTPUT_RUNS[command])
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) in (0, 1)
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert manifest["environment"] == {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


@pytest.mark.parametrize(
    "key, text",
    [
        # both sides print as "3" in their echo CSV names
        ("converge.sides_nm", "sides_nm = 3.0000001 3.0000002"),
        ("converge.sides_nm", "sides_nm = 3.0 7.0 3.0"),
        ("converge.shells", "shells = 3 2 3"),
    ],
)
def test_two_entries_with_one_echo_name_are_usage_error(tmp_path, capsys, key, text):
    cfg = write_config(tmp_path, f"[cce]\nn_configs = 1\nt_steps = 6\n[converge]\n{text}\n")
    out = tmp_path / "out"
    assert run_cli("cce-converge", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:") and "Traceback" not in err
    assert not out.exists()


def test_cce_converge_outputs_and_distances(tmp_path):
    cfg = write_config(
        tmp_path,
        "[cce]\nn_configs = 2\nt_steps = 6\n[converge]\nsides_nm = 5.5 7.0\nshells = 2 3\n",
    )
    assert run_cli("cce-converge", "--config", cfg, "--out", str(tmp_path), "--seed", "3") == 0
    manifest = json.loads((tmp_path / "cce-converge_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [
        "echo_side5.5_shell2.csv",
        "echo_side5.5_shell3.csv",
        "echo_side7_shell2.csv",
        "echo_side7_shell3.csv",
    ]
    assert set(manifest["distances"]) == {"2", "3"}
    assert all(len(v) == 1 for v in manifest["distances"].values())


def test_fit_bundled_fixture_round_trip(tmp_path):
    fixture = os.path.join(FIXTURES, "echo_decay_fixture.csv")
    truth_line = open(fixture).readline()
    truth = dict(
        (key, float(value))
        for key, value in re.findall(r"(\w+)=([0-9.eE+-]+)", truth_line)
    )
    cfg = write_config(tmp_path, f"[fit]\nmodel = echo_decay\ninput_csv = {fixture}\n")
    assert run_cli("fit", "--config", cfg, "--out", str(tmp_path)) == 0
    result = json.loads((tmp_path / "fit.json").read_text())
    for key, want in truth.items():
        assert result["params"][key] == pytest.approx(want, rel=1e-2)
    lines = (tmp_path / "fit_residual.csv").read_text().splitlines()
    assert lines[0] == "time_ms,amplitude,model,residual"
    worst = max(abs(float(line.split(",")[3])) for line in lines[1:])
    assert worst < 1e-8


def test_fit_fix_delta_flag(tmp_path):
    from donorspin.fitting import t1_rate

    temps = np.linspace(10.0, 60.0, 14)
    rates = t1_rate(temps, 1.26e-5, 3e12, 500.0)
    data_path = tmp_path / "t1.csv"
    with open(data_path, "w") as fh:
        fh.write("temp_k,rate_per_s\n")
        for a, b in zip(temps, rates):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    cfg = write_config(tmp_path, f"[fit]\nmodel = t1_raman_orbach\ninput_csv = {data_path}\n")
    assert run_cli("fit", "--config", cfg, "--out", str(tmp_path), "--fix-delta", "500") == 0
    result = json.loads((tmp_path / "fit.json").read_text())
    assert result["params"]["Delta_K"] == 500.0
    assert "Delta_K" not in result["std_errors"]
    assert result["params"]["P"] == pytest.approx(1.26e-5, rel=1e-3)
    assert result["params"]["E"] == pytest.approx(3e12, rel=1e-3)


def test_fit_missing_column_exit_2_no_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_ms,signal\n0.0,1.0\n0.1,0.9\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[fit]\nmodel = echo_decay\ninput_csv = {bad}\n")
    assert run_cli("fit", "--config", cfg, "--out", str(out)) == 2
    assert "amplitude" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, key", [("fit", "fit.input_csv"), ("rabi", "rabi.input_csv")])
@pytest.mark.parametrize("problem", ["short", "missing"])
def test_input_csv_errors_name_their_key(tmp_path, capsys, command, key, problem):
    # a 3-row input is below every fit's and rabi_peak's minimum
    header = "time_ms,amplitude" if command == "fit" else "time_us,signal"
    data = tmp_path / "data.csv"
    if problem == "short":
        data.write_text(f"{header}\n0.0,1.0\n0.1,0.9\n0.2,0.8\n")
    section = "[fit]\nmodel = echo_decay\n" if command == "fit" else "[rabi]\n"
    cfg = write_config(tmp_path, f"{section}input_csv = {data}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_fit_nonconverged_exit_1(tmp_path):
    from donorspin.fitting import gaussian_sum

    grid = np.linspace(0.340, 0.352, 600)
    signal = gaussian_sum(grid * 1e3, [346.0, 346.02], [0.7, 0.7], [1.0, 0.8])
    data_path = tmp_path / "lines.csv"
    with open(data_path, "w") as fh:
        fh.write("field_t,signal\n")
        for a, b in zip(grid, signal):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    cfg = write_config(
        tmp_path, f"[fit]\nmodel = gaussian_lines\ninput_csv = {data_path}\nn_lines = 2\n"
    )
    assert run_cli("fit", "--config", cfg, "--out", str(tmp_path)) == 1
    result = json.loads((tmp_path / "fit.json").read_text())
    assert result["converged"] is False


def _write_columns(path, names, x, y):
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def _fit_cases():
    """(fit section lines, x, y, input columns, model curve at params)."""
    from donorspin.fitting import (
        echo_decay, exp_recovery, gaussian_derivative_sum, gaussian_sum, t1_rate)

    def lines(shape, n_lines):
        def curve(x, p):
            ids = range(1, n_lines + 1)
            return shape(x * 1e3, [p[f"center_{i}_mt"] for i in ids],
                         [p[f"fwhm_{i}_mt"] for i in ids], [p[f"amp_{i}"] for i in ids])
        return curve

    times = np.linspace(0.0, 1.0, 21)
    temps = np.linspace(10.0, 60.0, 14)
    recovery = np.linspace(0.0, 10.0, 15)
    sweep = np.linspace(0.180, 0.110, 351)  # descending
    noise = 0.01 * np.random.default_rng(4).standard_normal(len(sweep))
    derivative = gaussian_derivative_sum(sweep * 1e3, [130.0, 160.0], [4.0, 5.0], [1.0, 0.6])
    echo = lambda x, p: echo_decay(x, p["amp"], p["T2_ms"], p["TS_ms"], p["n"])
    return {
        "echo_fixed_amplitude": (
            "model = echo_decay\nfree_amplitude = false\n", times,
            np.exp(-times / 2.0 - (times / 0.3) ** 2.3), ("time_ms", "amplitude"), echo),
        "echo_free_amplitude": (
            "model = echo_decay\n", times, 0.9 * np.exp(-(times / 0.3) ** 2.3),
            ("time_ms", "amplitude"), echo),
        "t1_fixed_delta": (
            "model = t1_raman_orbach\nfix_delta_k = 500\n", temps,
            t1_rate(temps, 1.26e-5, 3e12, 500.0), ("temp_k", "rate_per_s"),
            lambda x, p: t1_rate(x, p["P"], p["E"], p["Delta_K"])),
        "exp_recovery": (
            "model = exp_recovery\n", recovery, exp_recovery(recovery, 1.0, 2.0, 0.1),
            ("time_ms", "magnetization"),
            lambda x, p: exp_recovery(x, p["M0"], p["T1_ms"], p["offset"])),
        "exp_recovery_saturated": (
            "model = exp_recovery\n", recovery, np.full(len(recovery), 0.5),
            ("time_ms", "magnetization"),
            lambda x, p: exp_recovery(x, p["M0"], p["T1_ms"], p["offset"])),
        "gaussian_descending_derivative": (
            "model = gaussian_lines\nn_lines = 2\nmode = derivative\n", sweep,
            derivative + noise, ("field_t", "signal"), lines(gaussian_derivative_sum, 2)),
        "gaussian_descending_absorption": (
            "model = gaussian_lines\nn_lines = 1\n", sweep,
            gaussian_sum(sweep * 1e3, [140.0], [6.0], [2.0]) + noise, ("field_t", "signal"),
            lines(gaussian_sum, 1)),
    }


@pytest.mark.parametrize("case", sorted(_fit_cases()))
def test_fit_model_column_is_the_model_at_the_reported_params(tmp_path, case):
    section, x, y, names, model_at = _fit_cases()[case]
    data_path = tmp_path / "input.csv"
    _write_columns(data_path, names, x, y)
    cfg = write_config(tmp_path, f"[fit]\ninput_csv = {data_path}\n{section}")
    code = run_cli("fit", "--config", cfg, "--out", str(tmp_path))
    result = json.loads((tmp_path / "fit.json").read_text())
    assert code == (0 if result["converged"] else 1)
    params = {key: float(value) for key, value in result["params"].items()}
    with open(tmp_path / "fit_residual.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [*names, "model", "residual"]
    # the column's text is the writer's repr of the model at the params,
    # read back from fit.json exactly
    assert [row[2] for row in rows[1:]] == [repr(v) for v in model_at(x, params).tolist()]
    if case == "exp_recovery_saturated":
        assert code == 1 and all(row[2] == "nan" for row in rows[1:])


def test_fit_table_covers_the_schema_models():
    from donorspin.cli.main import FIT_MODELS

    assert set(SCHEMA["fit"]["model"][2]) == set(FIT_MODELS)


def test_levels_runs_deterministic(tmp_path):
    cfg = write_config(tmp_path, "[levels]\nb_steps = 25\n")
    for sub in ("a", "b"):
        assert run_cli("levels", "--config", cfg, "--out", str(tmp_path / sub)) == 0
    assert (tmp_path / "a" / "levels.csv").read_bytes() == (tmp_path / "b" / "levels.csv").read_bytes()


def test_rabi_labels_not_one_m_apart_is_usage_error(tmp_path, capsys):
    # 12 and 10 are two units of m apart: Sx does not couple them
    cfg = write_config(tmp_path, "[rabi]\nlabel_upper = 12\nlabel_lower = 10\n")
    out = tmp_path / "out"
    assert run_cli("rabi", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "rabi.label_upper" in err and "rabi.label_lower" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("resonances", "resonances", "grid_step_mt", "0"),
        ("levels", "levels", "b_steps", "0"),
        ("freqmap", "freqmap", "b_steps", "0"),
        ("rabi", "rabi", "f1_mhz", "0"),
        ("rabi", "rabi", "f1_mhz", "-15.625"),
        ("levels", "run", "workers", "0"),
        ("cce", "run", "workers", "-3"),
        ("levels", "levels", "b_max_t", "-1"),
        ("freqmap", "freqmap", "b_max_t", "-1"),
        ("levels", "levels", "b_min_t", "-0.1"),
        ("freqmap", "freqmap", "b_min_t", "-0.1"),
        ("cce", "cce", "t_steps", "1"),
        ("cce", "cce", "t_max_ms", "0"),
        ("cce", "cce", "n_configs", "0"),
        ("cce-converge", "cce", "t_max_ms", "-1"),
        ("resonances", "resonances", "b_min_t", "-0.5"),
        ("resonances", "resonances", "b_max_t", "0"),
        ("resonances", "resonances", "frequency_mhz", "0"),
        ("resonances", "resonances", "fwhm_mt", "0"),
        ("cce", "cce", "field_t", "0"),
        ("cce", "cce", "side_nm", "0"),
        ("cce", "cce", "a0_nm", "0"),
        ("cce", "cce", "abundance", "1.5"),
        ("levels", "levels", "b_max_t", "inf"),
        ("cce", "cce", "t_max_ms", "nan"),
        ("resonances", "resonances", "frequency_mhz", "inf"),
        ("levels", "donor", "g_factor", "-2"),
        ("levels", "donor", "nuclear_spin", "4.3"),
        ("levels", "donor", "hyperfine_mhz", "0"),
        ("levels", "donor", "nuclear_zeeman_delta", "-1"),
        ("levels", "donor", "nuclear_zeeman_delta", "-2"),
        ("levels", "donor", "nuclear_zeeman_delta", "5"),
        ("levels", "donor", "nuclear_zeeman_delta", "0.1111111111111111"),
        ("resonances", "resonances", "intensity_floor", "-1"),
        ("rabi", "rabi", "field_t", "-1"),
        ("cce-converge", "converge", "sides_nm", "1 7"),
        ("cce-converge", "converge", "sides_nm", ""),
        ("cce-converge", "converge", "shells", ""),
        ("cce", "cce", "label_upper", "30"),
        ("fit", "fit", "n_lines", "0"),
        ("fit", "fit", "mode", "foo"),
    ],
)
def test_out_of_range_value_is_usage_error(tmp_path, capsys, command, section, key, value):
    cfg = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("cce", "[cce]\nside_nm = 1e6\n", "cce.side_nm"),
        ("cce-converge", "[converge]\nsides_nm = 3.0 1e6\n", "converge.sides_nm"),
    ],
)
def test_cube_past_the_site_key_is_usage_error(tmp_path, capsys, command, text, key):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_largest_cube_is_the_occupancy_work_limit():
    # validate only: the work these cubes draw is never started. 1118 cells
    # hold 9,999,392 sites per x-plane, the most an empty bath may have; a
    # full one is held to 107 cells (9,800,344 spins), and natural abundance
    # to 299 cells (9.98e6 expected spins)
    config = default_config()
    a0 = config["cce"]["a0_nm"]
    for abundance, cells in [(0.0, 1118), (1.0, 107), (config["cce"]["abundance"], 299)]:
        assert cells < MAX_CELLS_PER_AXIS
        config["cce"].update(abundance=abundance, side_nm=cells * a0)
        validate(config)
        config["cce"]["side_nm"] = (cells + 1) * a0
        with pytest.raises(ConfigError, match="cce.side_nm"):
            validate(config)


def test_every_lattice_constant_of_a_real_scale_keeps_the_distance_rule():
    # the retired a0 rule alone, at the default sides, over the cce.a0_nm range
    config = default_config()
    for a0 in np.geomspace(1e-3, 1e3, 25).tolist():
        config["cce"]["a0_nm"] = a0
        assert _bath_distances_fit(config), a0


# a 3 nm cube of 2 configurations on 6 time points, without the fit
CCE_TINY = "[cce]\nside_nm = 3.0\nn_configs = 2\nt_steps = 6\nfit = false\n"

# lines of 1e-6 mT at 1e6 MHz over a 100 T span, and a bath of g = 10 at
# 100 T with a0 = 1e-3 nm in cubes of 2 and 3 cells, every site a spin
NARROW_LINES = ("[resonances]\nfrequency_mhz = 1e6\nb_min_t = 0\nb_max_t = 100\nfwhm_mt = 1e-6\n"
                "grid_step_mt = 100\n")
HARD_BATH = ("[donor]\ng_factor = 10\nhyperfine_mhz = 1e6\n[converge]\nsides_nm = 2.5e-3 3.5e-3\n"
             "[cce]\nfield_t = 100\nside_nm = 2.5e-3\na0_nm = 1e-3\nabundance = 1\nn_configs = 2\n"
             "t_steps = 6\n")
# the other end of the a0 range: a0 = 1e3 nm in cubes of 2 and 3 cells,
# every site a spin
WIDE_BATH = ("[converge]\nsides_nm = 2.5e3 3.5e3\n[cce]\nside_nm = 2.5e3\na0_nm = 1e3\n"
             "abundance = 1\nn_configs = 2\nt_steps = 6\nfit = false\n")

# one run of every extreme row the config ranges and rules and the O(D)
# pair listing mend: (command, config, exit code, key an exit 2 names).
# Every field key at 1e306 T is past its 100 T range
EXTREME_ROWS = [
    ("levels", "[levels]\nb_max_t = 1e306\n", 2, "levels.b_max_t"),
    ("freqmap", "[freqmap]\nb_max_t = 1e306\n", 2, "freqmap.b_max_t"),
    ("rabi", "[rabi]\nfield_t = 1e306\n", 2, "rabi.field_t"),
    ("cce", "[cce]\nfield_t = 1e306\nside_nm = 3.0\nn_configs = 2\nt_steps = 6\nfit = false\n",
     2, "cce.field_t"),
    # a g whose Zeeman frequency per tesla underflows, and lines too narrow
    # for the spectrum to stay finite
    ("resonances", "[donor]\ng_factor = 5e-324\n", 2, "donor.g_factor:"),
    ("resonances", "[resonances]\nfwhm_mt = 5e-324\n", 2, "resonances.fwhm_mt"),
    ("resonances", "[resonances]\nfwhm_mt = 1e-300\n", 2, "resonances.fwhm_mt"),
    # a g, or echo times, that overflow the echo kernel's terms, and a time
    # grid whose step underflows
    ("cce", "[donor]\ng_factor = 1e80\n" + CCE_TINY, 2, "donor.g_factor:"),
    ("cce", "[donor]\ng_factor = 1e296\n" + CCE_TINY, 2, "donor.g_factor:"),
    ("cce-converge", "[donor]\ng_factor = 1e150\n" + CCE_TINY, 2, "donor.g_factor:"),
    ("cce", CCE_TINY + "t_max_ms = 1e100\n", 2, "cce.t_max_ms"),
    ("cce", CCE_TINY + "t_max_ms = 1.7e308\n", 2, "cce.t_max_ms"),
    ("cce-converge", CCE_TINY + "t_max_ms = 1e300\n", 2, "cce.t_max_ms"),
    ("cce", CCE_TINY + "t_max_ms = 5e-324\n", 2, "cce.t_max_ms"),
    ("cce-converge", CCE_TINY + "t_max_ms = 5e-324\n", 2, "cce.t_max_ms"),
    ("cce", "[donor]\ng_factor = 1e75\n" + CCE_TINY, 2, "donor.g_factor:"),
    # every ranged key at the end its retired overflow rule
    # (`overflow_rules.py`) found hardest: the Zeeman frequency per tesla
    # of g = 0.1 against A = 1e6 MHz, quartics of f / A = 1e9, the narrowest
    # lines over the widest span, levels at 100 T of g = 10 and A = 1e6 MHz,
    # and the echo kernel's largest J and b over the longest and shortest times
    ("resonances", "[donor]\ng_factor = 0.1\nhyperfine_mhz = 1e6\n" + NARROW_LINES, 0, None),
    ("resonances", "[donor]\ng_factor = 10\nhyperfine_mhz = 1e-3\n" + NARROW_LINES, 0, None),
    ("levels", "[donor]\ng_factor = 10\nhyperfine_mhz = 1e6\n[levels]\nb_max_t = 100\n"
     "b_steps = 3\n", 0, None),
    ("cce", HARD_BATH + "t_max_ms = 1e6\n", 0, None),
    ("cce", HARD_BATH + "t_max_ms = 1e-6\n", 0, None),
    ("cce-converge", HARD_BATH + "t_max_ms = 1e6\n", 0, None),
    ("cce", WIDE_BATH, 0, None),
    ("cce-converge", WIDE_BATH, 0, None),
    ("resonances", "[resonances]\nfrequency_mhz = 1e300\n", 2, "resonances.frequency_mhz"),
    ("cce", "[cce]\nside_nm = 1e4\n", 2, "cce.side_nm"),
    ("cce", "[cce]\nside_nm = 1e3\n", 2, "cce.side_nm"),
    ("cce", "[cce]\nside_nm = 1e300\na0_nm = 1e-300\n", 2, "cce.a0_nm"),
    ("cce-converge", "[converge]\nsides_nm = 3.0 1e3\n", 2, "converge.sides_nm"),
    # lattice constants whose distances overflow or underflow, each in a
    # 3-cell cube: past the a0 range
    ("cce", "[cce]\na0_nm = 1e200\nside_nm = 3e200\n[converge]\nsides_nm = 3e200\n", 2,
     "cce.a0_nm:"),
    ("cce", "[cce]\na0_nm = 1e-30\nside_nm = 3e-30\n[converge]\nsides_nm = 3e-30\n", 2,
     "cce.a0_nm:"),
    ("cce", "[cce]\na0_nm = 1e-300\nside_nm = 3e-300\n[converge]\nsides_nm = 3e-300\n", 2,
     "cce.a0_nm:"),
    # a nuclear Zeeman ratio whose quartic terms are negligible over the range
    ("resonances", "[donor]\nnuclear_zeeman_delta = 1e-50\n", 0, None),
    ("resonances", "[donor]\nnuclear_zeeman_delta = 1e-155\n", 0, None),
    # D = 40,000 levels: 79,996 label pairs one m apart, listed in O(D)
    ("resonances", "[donor]\nnuclear_spin = 9999.5\nnuclear_zeeman_delta = 0\n", 0, None),
    ("freqmap", "[donor]\nnuclear_spin = 9999.5\nnuclear_zeeman_delta = 0\n"
     "[freqmap]\nb_steps = 2\n", 0, None),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, text, code, key", EXTREME_ROWS)
def test_extreme_rows_keep_the_exit_code_contract(tmp_path, capsys, monkeypatch, command, text,
                                                  code, key):
    if code == 2:
        def refuse(config):
            raise AssertionError(f"{command} started work that its config rules should stop")

        monkeypatch.setitem(_COMMANDS, command, refuse)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    got = run_cli(command, "--config", cfg, "--out", str(out))
    err = capsys.readouterr().err
    assert got in (0, 1, 2) and got == code
    assert "Traceback" not in err
    if got == 2:
        assert key in err
        assert not out.exists()
    if got == 0:
        for csv_path in out.glob("*.csv"):
            with open(csv_path) as fh:
                cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
            assert all(math.isfinite(float(cell)) for cell in cells)


# every float key's extremes and the ends of its range, run wherever the
# key's bound allows them
GRID_VALUES = (5e-324, -5e-324, 1e-300, -1e-300, 1e-100, 1e-30, -1e-30, 1e30, -1e30, 1e100, 1e200,
               1e300, -1e300, 1.7e308)
# section -> the commands that read its keys
GRID_READERS = {
    "donor": ("levels", "resonances", "freqmap", "rabi", "cce", "cce-converge"),
    "levels": ("levels",),
    "resonances": ("resonances",),
    "freqmap": ("freqmap",),
    "rabi": ("rabi",),
    "cce": ("cce", "cce-converge"),
    "converge": ("cce-converge",),
    "fit": ("fit",),
}
# small work sizes for every command; the fit command fits a T1 curve,
# the one fit model that reads a float key (fit.fix_delta_k)
GRID_BASE = {
    "levels": {"b_steps": "5"},
    "freqmap": {"b_steps": "5"},
    "resonances": {"grid_step_mt": "1.0"},
    "cce": {"side_nm": "3.0", "n_configs": "2", "t_steps": "6"},
    "converge": {"sides_nm": "2.0 3.0"},
    "fit": {"model": "t1_raman_orbach"},
}
GRID_KEYS = [(section, key) for section, keys in SCHEMA.items()
             for key, (tag, _, _) in keys.items() if "float" in tag]


def _grid_row_problems(tmp_path, capsys, command, config) -> list[str]:
    """How one run of command on config breaks the exit-code contract."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in config.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = run_cli(command, "--config", str(cfg), "--out", str(out))
        except Exception as exc:  # escapes main: a traceback from the command line
            got = f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    problems = [f"{w.category.__name__}: {w.message}" for w in caught
                if issubclass(w.category, RuntimeWarning)]
    if got not in (0, 1, 2):
        problems.append(f"exit {got}")
    if "Traceback" in err or "RuntimeWarning" in err:
        problems.append(err)
    if got == 2:
        if not any(f"{section}.{key}" in err for section in SCHEMA for key in SCHEMA[section]):
            problems.append(f"names no key: {err}")
        if out.exists():
            problems.append("left its out dir")
    if got == 0:
        for csv_path in out.glob("*.csv"):
            with open(csv_path) as fh:
                cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
            if not all(math.isfinite(float(cell)) for cell in cells):
                problems.append(f"non-finite cell in {csv_path.name}")
    shutil.rmtree(out, ignore_errors=True)
    return problems


@pytest.mark.parametrize("section, key", GRID_KEYS)
def test_every_float_key_at_its_extremes_keeps_the_exit_code_contract(tmp_path, capsys, section,
                                                                     key):
    # a T1 curve with its Orbach term well inside the float range
    temps = (10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0)
    t1_csv = tmp_path / "t1.csv"
    t1_csv.write_text("temp_k,rate_per_s\n" + "".join(
        f"{t!r},{1.26e-5 * t**7 + 3e12 * math.exp(-500.0 / t)!r}\n" for t in temps))
    bound = SCHEMA[section][key][2]
    ends = (bound.lo, bound.hi) if isinstance(bound, Interval) else ()
    failures = []
    for value in (*GRID_VALUES, *ends):
        if _problem(bound, value) is not None:
            continue
        config = {name: dict(keys) for name, keys in GRID_BASE.items()}
        config["fit"]["input_csv"] = str(t1_csv)
        config.setdefault(section, {})[key] = repr(value)
        for command in GRID_READERS[section]:
            problems = _grid_row_problems(tmp_path, capsys, command, config)
            if problems:
                failures.append((value, command, problems))
    assert not failures


# every int key's extremes, run wherever the key's bound allows them
INT_GRID_VALUES = (0, 1, -1, 2**31, 2**63, 10**30)
INT_GRID_KEYS = [(section, key) for section, keys in SCHEMA.items()
                 for key, (tag, _, _) in keys.items() if tag in ("int", "intlist")]


@pytest.mark.parametrize("section, key", INT_GRID_KEYS)
def test_every_int_key_at_its_extremes_keeps_the_exit_code_contract(tmp_path, capsys, section,
                                                                   key):
    # two lines at 130 and 160 mT in 351 samples, for a lines fit, the one
    # fit model that reads an int key (fit.n_lines)
    fields = [0.110 + 0.0002 * k for k in range(351)]
    signal = [math.exp(-((b - 0.13) / 0.002) ** 2) + 0.6 * math.exp(-((b - 0.16) / 0.0025) ** 2)
              for b in fields]
    lines_csv = tmp_path / "lines.csv"
    lines_csv.write_text("field_t,signal\n" + "".join(
        f"{b!r},{y!r}\n" for b, y in zip(fields, signal)))
    # the run section is read by the two ensemble commands; cce.n_configs
    # stays at 2 but in its own rows, so a run starts at most 4 processes
    readers = {**GRID_READERS, "run": ("cce", "cce-converge")}
    bound = SCHEMA[section][key][2]
    failures = []
    for value in INT_GRID_VALUES:
        if _problem(bound, value) is not None:
            continue
        config = {name: dict(keys) for name, keys in GRID_BASE.items()}
        config["fit"] = {"model": "gaussian_lines", "input_csv": str(lines_csv)}
        config.setdefault(section, {})[key] = str(value)
        for command in readers[section]:
            problems = _grid_row_problems(tmp_path, capsys, command, config)
            if problems:
                failures.append((value, command, problems))
    assert not failures


def _grid_ends(tag, bound) -> tuple:
    """A key's grid values and the ends of its bound, those the bound allows."""
    if isinstance(bound, tuple):
        ends = (bound[0], bound[-1])
    elif isinstance(bound, Interval):
        ends = tuple(end for end in (bound.lo, bound.hi) if math.isfinite(end))
    else:
        ends = ()
    if "float" in tag:
        return tuple(v for v in (*GRID_VALUES, *ends) if _problem(bound, v) is None)
    return tuple(v for v in (*INT_GRID_VALUES, *map(int, ends)) if _problem(bound, v) is None)


# the commands that read each float and int key, [run]'s those of the
# ensembles; the [fit] section's two (fit.fix_delta_k, fit.n_lines) are
# read by different fit models and share the fit command with no other
# key, so the grid leaves them out
KEY_READERS = {**GRID_READERS, "run": ("cce", "cce-converge")}
TWO_KEY_READERS = {(section, key): KEY_READERS[section]
                   for section, key in (*GRID_KEYS, *INT_GRID_KEYS) if section != "fit"}
TWO_KEY_PAIRS = [(a, b) for a, b in itertools.combinations(TWO_KEY_READERS, 2)
                 if set(TWO_KEY_READERS[a]) & set(TWO_KEY_READERS[b])]


def _pool_run(tmp_path, command, config):
    """(cce.n_configs, cell-parity classes, worker processes) of the pool
    that command starts on config, or None if it starts none: a rule
    rejects the config, the command runs no ensemble, or its tasks (one
    per class and configuration) or run.workers number 1."""
    cfg = tmp_path / "pool.ini"
    cfg.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in config.items()))
    try:
        loaded = load_config(str(cfg))
        validate(loaded)
    except ConfigError:
        return None
    if command not in ("cce", "cce-converge"):
        return None
    cce = loaded["cce"]
    sides = loaded["converge"]["sides_nm"] if command == "cce-converge" else (cce["side_nm"],)
    classes = len({LatticeSpec(side_nm=side, a0_nm=cce["a0_nm"]).cells_per_axis % 2
                   for side in sides})
    workers = min(loaded["run"]["workers"], cce["n_configs"] * classes)
    return (cce["n_configs"], classes, workers) if workers > 1 else None


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_two_keys_at_their_extremes_keep_the_exit_code_contract(tmp_path, capsys, data):
    # two keys that one command reads, each at a grid value or a range end,
    # run through every command that reads both
    first, second = data.draw(st.sampled_from(TWO_KEY_PAIRS), label="keys")
    config = {name: dict(keys) for name, keys in GRID_BASE.items()}
    for section, key in (first, second):
        tag, _, bound = SCHEMA[section][key]
        value = data.draw(st.sampled_from(_grid_ends(tag, bound)), label=f"{section}.{key}")
        config.setdefault(section, {})[key] = repr(value) if "float" in tag else str(value)
    failures = []
    for command in sorted(set(TWO_KEY_READERS[first]) & set(TWO_KEY_READERS[second])):
        pool = _pool_run(tmp_path, command, config)
        if pool is not None:
            n_configs, classes, workers = pool
            assert n_configs <= 2 and classes <= 2 and workers <= 4
        problems = _grid_row_problems(tmp_path, capsys, command, config)
        if problems:
            failures.append((command, problems))
    assert not failures, config


@pytest.mark.parametrize("f1_mhz, code", [("5e-324", 2), ("1e-6", 0), ("1e6", 0)])
def test_drive_amplitude_keeps_the_rabi_frequency_positive(tmp_path, capsys, f1_mhz, code):
    # at A = 1e6 MHz the 11-10 element is 0.158, and 2 f1 |<Sx>| at the
    # smallest float rounded to 0: the pi time divided by zero
    cfg = write_config(tmp_path, f"[donor]\nhyperfine_mhz = 1e6\n[rabi]\nf1_mhz = {f1_mhz}\n")
    out = tmp_path / "out"
    assert run_cli("rabi", "--config", cfg, "--out", str(out)) == code
    if code == 2:
        assert "rabi.f1_mhz" in capsys.readouterr().err and not out.exists()
    else:
        payload = json.loads((out / "rabi.json").read_text())
        assert payload["rabi_mhz"] > 0 and math.isfinite(payload["pi_time_ns"])


@pytest.mark.parametrize("command", ["levels", "freqmap"])
def test_descending_field_range_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, f"[{command}]\nb_min_t = 0.5\nb_max_t = 0.1\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    assert f"{command}.b_max_t" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_is_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert run_cli("levels", "--out", str(out), "--workers", workers) == 2
    assert "run.workers" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_main_restores_the_previous_sigterm_handler(tmp_path):
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGTERM, previous)
    try:
        assert run_cli("levels", "--out", str(tmp_path)) == 0
        assert signal.getsignal(signal.SIGTERM) is previous
    finally:
        signal.signal(signal.SIGTERM, old)


@pytest.mark.parametrize("to_group", [False, True], ids=["process", "group"])
def test_sigterm_stops_the_run_and_its_workers(tmp_path, to_group):
    # 200 placements of about 60 ms each take far longer than the 2 s allowed
    # below, so the run must start no queued task after the signal; sent to
    # the group, as `timeout` sends it, the signal reaches the workers too
    cfg = write_config(tmp_path, "[cce]\nside_nm = 27.8\nn_configs = 200\nfit = false\n")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "donorspin.cli", "cce", "--config", cfg, "--out", str(out),
             "--workers", "2"],
            env=dict(os.environ, PYTHONPATH=path), start_new_session=True, stderr=err,
        )
    try:
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        if not os.path.exists(children):
            pytest.skip("needs /proc/<pid>/task/<pid>/children to see the workers")
        workers = []
        while len(workers) < 2 and proc.poll() is None:
            with open(children) as fh:
                workers = fh.read().split()
            time.sleep(0.005)
        assert len(workers) == 2, "the run ended before both workers started"
        if to_group:
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 2.0
        assert proc.wait(timeout=2.0) == 143
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived the run"
            time.sleep(0.02)
        assert not out.exists() or not any(out.iterdir())
        assert "Traceback" not in (tmp_path / "stderr").read_text()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "donorspin.cli", "print-config"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "[run]" in proc.stdout


def test_python_dash_m_main_module_runs_without_warning():
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "donorspin.cli.main",
         "print-config"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "[run]" in proc.stdout


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports donorspin from this checkout."""
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False)


# run through an entry point in a fresh interpreter, print-config prints
# whether SIGTERM had a handler when numpy began to load
_HANDLER_AT_NUMPY = """
import importlib, runpy, signal, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(signal.getsignal(signal.SIGTERM))
sys.addaudithook(hook)
entry, sys.argv = sys.argv[1], ["donorspin", "print-config"]
try:
    if entry == "-m":
        runpy.run_module("donorspin.cli", run_name="__main__")
    else:
        module, function = entry.split(":")
        getattr(importlib.import_module(module), function)()
except SystemExit:
    pass
print("handled" if seen and seen[0] is not signal.SIG_DFL else f"default: {seen}", file=sys.stderr)
"""


def _script_entry() -> str:
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject) as fh:
        return re.search(r'^donorspin = "([\w.]+:\w+)"$', fh.read(), re.M).group(1)


@pytest.mark.parametrize("entry", ["-m", "script"])
def test_sigterm_is_handled_before_numpy_loads(entry):
    # a SIGTERM while the CLI loads its modules must end the run with 143
    # too, so the handler is in place before the first heavy import
    proc = _python("-c", _HANDLER_AT_NUMPY, _script_entry() if entry == "script" else entry)
    assert "[run]" in proc.stdout, proc.stderr
    assert proc.stderr.splitlines()[-1] == "handled"


@pytest.mark.parametrize("package", ["donorspin", "donorspin.bath", "donorspin.cli",
                                     "donorspin.fitting"])
def test_every_export_resolves_on_first_access(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError):
        module.no_such_name


def _bath_beyond_lattice(modules: set[str]) -> bool:
    return bool({m for m in modules if m.startswith("donorspin.bath.")}
                - {"donorspin.bath.lattice"})


def _loads(modules: set[str], *packages: str) -> bool:
    return any(m == p or m.startswith(p + ".") for m in modules for p in packages)


# argv and config of a small run, then whether it loads a bath module beyond
# the lattice, any of fitting, and the pool's machinery (None: either way)
IMPORT_CONTRACT = {
    "levels": (["levels"], "[levels]\nb_steps = 3\n", False, False, False),
    "resonances": (["resonances"], "", False, False, False),
    "freqmap": (["freqmap"], "[freqmap]\nb_steps = 3\n", False, False, False),
    "print-config": (["print-config"], "", False, False, False),
    "rabi": (["rabi"], "", False, False, False),
    "fit": (["fit"], OUTPUT_RUNS["fit"], False, True, False),
    "cce-nofit": (["cce"], CCE_TINY, True, False, False),
    "cce-fit": (["cce"], CCE_TINY.replace("fit = false", "fit = true"), True, True, False),
    "cce-converge": (["cce-converge"], CCE_TINY + "[converge]\nsides_nm = 2.0 3.0\n",
                     True, False, False),
    "cce-pool": (["cce", "--workers", "2"], CCE_TINY, True, False, True),
}


@pytest.mark.parametrize("run", sorted(IMPORT_CONTRACT))
def test_a_command_loads_only_the_layers_it_runs(tmp_path, run):
    argv, config, bath, fitting, pool = IMPORT_CONTRACT[run]
    cfg = write_config(tmp_path, config)
    proc = _python("-c", "import sys; from donorspin.cli.main import main; "
                   "code = main(sys.argv[1:]); print(*sorted(sys.modules)); sys.exit(code)",
                   *argv, "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert "donorspin.cli.main" in modules
    assert _bath_beyond_lattice(modules) == bath
    assert _loads(modules, "donorspin.fitting") == fitting
    assert _loads(modules, "concurrent.futures", "multiprocessing") == pool
    # a pooled run does load the pool, so the serial runs' False means something
    assert ("concurrent.futures.process" in modules) == pool


# the runs of IMPORT_CONTRACT that load the spectra (the commands that
# search lines or read a matrix element) and those that load none
SPECTRA_LOADED = {"resonances": True, "freqmap": True, "rabi": True, "levels": False,
                  "print-config": False, "fit": False, "cce-nofit": False, "cce-fit": False,
                  "cce-converge": False}


@pytest.mark.parametrize("run", sorted(SPECTRA_LOADED))
def test_only_the_line_commands_load_the_spectra(tmp_path, run):
    # the config's defaults and its rabi rule read no spectra; resonances
    # does load them, so the others' False means something
    argv, config = IMPORT_CONTRACT[run][:2]
    cfg = write_config(tmp_path, config)
    proc = _python("-c", "import sys; from donorspin.cli.main import main; "
                   "code = main(sys.argv[1:]); print(*sorted(sys.modules)); sys.exit(code)",
                   *argv, "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert ("donorspin.spectra" in proc.stdout.splitlines()[-1].split()) == SPECTRA_LOADED[run]


class _FullStdout(io.StringIO):
    """A stdout on a full device."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_print_config_to_a_full_stdout_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert run_cli("print-config") == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot write to stdout: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_print_config_to_dev_full_exits_2(unbuffered):
    # buffered, the text left over would fail again at exit (status 120)
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "donorspin.cli", "print-config"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert len(proc.stderr.splitlines()) == 1


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, donorspin.cli.main; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cce_commands_run_without_scipy(tmp_path):
    # scipy blocked before donorspin loads; the 3 nm cubes hold many pairs
    cfg = write_config(
        tmp_path,
        "[run]\nseed = 1016164992\n[cce]\nside_nm = 3.0\nn_configs = 2\nt_steps = 6\n"
        "fit = false\n[converge]\nsides_nm = 2.0 3.0\nshells = 2 3\n",
    )
    src = os.path.dirname(os.path.dirname(donorspin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from donorspin.cli.main import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for command, out in (("cce", "echo.csv"), ("cce-converge", "echo_side3_shell3.csv")):
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", cfg,
             "--out", str(tmp_path / command), "--workers", "2"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=False,
        )
        assert proc.returncode == 0, proc.stderr
        amplitude = np.loadtxt(tmp_path / command / out, delimiter=",", skiprows=1)[:, 1]
        assert amplitude[0] == 1.0
        assert amplitude[-1] < 1.0 - 1e-7


def test_cce_converge_workers_byte_identical(tmp_path):
    # 10 and 11 cells are two parity classes, so 2 x 2 configs: three
    # workers split the four tasks unevenly
    cfg = write_config(
        tmp_path,
        "[cce]\nn_configs = 2\nt_steps = 9\n[converge]\nsides_nm = 5.5 6.0\nshells = 2 3\n",
    )
    outputs = {}
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        assert run_cli("cce-converge", "--config", cfg, "--out", str(out),
                       "--seed", "5", "--workers", workers) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.glob("echo*.csv"))}
        manifest = json.loads((out / "cce-converge_manifest.json").read_text())
        assert manifest["workers_used"] == int(workers)
    assert len(outputs["1"]) == 4
    assert outputs["1"] == outputs["2"] == outputs["3"]


def test_cce_manifest_records_workers_used(tmp_path):
    # two configs never need more than two processes
    cfg = write_config(tmp_path, CCE_SMALL.replace("n_configs = 4", "n_configs = 2"))
    for workers, used in (("1", 1), ("4", 2)):
        out = tmp_path / f"w{workers}"
        assert run_cli("cce", "--config", cfg, "--out", str(out), "--workers", workers) == 0
        manifest = json.loads((out / "cce_manifest.json").read_text())
        assert manifest["workers_used"] == used


def test_equal_cce_labels_are_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[cce]\nlabel_upper = 10\nlabel_lower = 10\n")
    out = tmp_path / "out"
    assert run_cli("cce", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "cce.label_upper" in err and "cce.label_lower" in err
    assert not out.exists() or not any(out.iterdir())


FLOAT_TAGS = ("float", "optfloat", "floatlist")
INT_TAGS = ("int", "intlist")
FINITE = {"allow_nan": False, "allow_infinity": False}
TEXT = st.text(string.ascii_letters + string.digits + "/._-", min_size=1, max_size=20)


def _numbers(tag, bound: Interval, inside: bool):
    """Numbers of the key's kind inside bound, or finite ones outside it:
    below its low end, above a finite high end, and for a half-integer
    bound the numbers between its half-integers."""
    finite_hi = bound.hi < math.inf
    if tag in INT_TAGS:
        lo = math.floor(bound.lo) + 1 if bound.lo_open else math.ceil(bound.lo)
        hi = math.floor(bound.hi) if finite_hi else None
        if inside:
            return st.integers(lo, hi)
        return st.integers(max_value=lo - 1) | (st.integers(min_value=hi + 1) if finite_hi
                                                 else st.nothing())
    if bound.half_integer and inside:
        return st.integers(math.ceil(2 * bound.lo), 40).map(lambda n: n / 2)
    if inside:
        return st.floats(bound.lo, bound.hi, exclude_min=bound.lo_open, **FINITE)
    below = st.floats(max_value=bound.lo, exclude_max=not bound.lo_open, **FINITE)
    above = st.floats(min_value=bound.hi, exclude_min=True, **FINITE) if finite_hi else st.nothing()
    between = (st.floats(bound.lo, 1e3).filter(lambda v: 2 * v != math.floor(2 * v))
               if bound.half_integer else st.nothing())
    return below | above | between


def _scalar(tag, bound, inside):
    if isinstance(bound, tuple):
        if inside:
            return st.sampled_from(bound)
        return st.integers(-50, 50).filter(lambda v: v not in bound)
    if isinstance(bound, Interval):
        values = _numbers(tag, bound, inside)
    elif not inside:  # no bound: every finite value keeps it
        values = st.nothing()
    else:
        values = st.floats(**FINITE) if tag in FLOAT_TAGS else st.integers()
    if tag in FLOAT_TAGS and not inside:
        return values | st.sampled_from([math.nan, math.inf, -math.inf])
    return values


def _rendered(tag, values) -> str:
    return " ".join(repr(float(v)) if tag in FLOAT_TAGS else str(v) for v in values)


NUMERIC_KEYS = [
    (section, key)
    for section, keys in SCHEMA.items()
    for key, (tag, _, bound) in keys.items()
    if tag in FLOAT_TAGS or (tag in INT_TAGS and bound is not None)
]


@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_value_outside_its_bound_is_usage_error(section, key, data):
    tag, _, bound = SCHEMA[section][key]
    bad = _scalar(tag, bound, inside=False)
    if tag.endswith("list"):
        good = st.lists(_scalar(tag, bound, inside=True), max_size=2)
        values = data.draw(st.just([]) | st.tuples(good, bad, good).map(
            lambda parts: [*parts[0], parts[1], *parts[2]]))
    else:
        values = [data.draw(bad)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(f"[{section}]\n{key} = {_rendered(tag, values)}\n")
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli("levels", "--config", cfg, "--out", out) == 2
        assert f"{section}.{key}" in err.getvalue()
        assert not os.path.exists(out)


def _in_bound_value(tag, bound):
    if tag == "bool":
        return st.booleans()
    if tag == "str":
        return st.sampled_from(bound) if bound else TEXT
    if tag == "optstr":
        return st.none() | TEXT
    if tag == "optfloat":
        return st.none() | _scalar(tag, bound, inside=True)
    if tag.endswith("list"):
        return st.lists(_scalar(tag, bound, inside=True), min_size=1, max_size=4).map(tuple)
    return _scalar(tag, bound, inside=True)


IN_BOUND_CONFIGS = st.fixed_dictionaries({
    section: st.fixed_dictionaries({
        key: _in_bound_value(tag, bound) for key, (tag, _, bound) in keys.items()
    })
    for section, keys in SCHEMA.items()
})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=IN_BOUND_CONFIGS)
def test_in_bound_config_round_trips(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(render_config(config))
        assert load_config(path) == config
