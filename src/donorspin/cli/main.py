"""Command-line surface: figure-reproduction runs with manifests.

Every command resolves (config, seed) to outputs deterministically.
A handler `cmd_*` maps the validated config to a `CommandResult`: its
outputs by file name, the manifest extras and the exit code. It writes
nothing itself. `main` makes `run.out_dir` before the handler runs and,
once it returns, writes the outputs in order and the manifest last, so
a command that fails leaves no output behind. Manifests echo the fully
resolved config plus per-output checksums, so a run can be reproduced
bit-exactly from its manifest alone.

A handler imports the bath, fitting and spectra layers it calls when it
runs, from the module that defines each name, so a command loads only
the layers it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, NamedTuple

import numpy as np

from ..bath.lattice import PAIR_SHELLS, LatticeSpec
from ..doublet import level_table
from . import _terminated
from .config import (
    FIT_MODELS,
    ConfigError,
    converge_echo_name,
    load_config,
    render_config,
    spectrum_points,
    spin_system,
    validate,
)
from .manifest import build_manifest, json_ready


class CommandResult(NamedTuple):
    """What a command produced, for `main` to write.

    `outputs` maps file names, in write order, to their contents: a
    `.csv` name to (header, columns) with one 1-d array per column, any
    other name to a JSON payload.
    """

    outputs: dict[str, Any]
    extra: dict[str, Any] | None = None
    code: int = 0


_ECHO_HEADER = ["time_ms", "amplitude", "std_of_mean"]
# cells formatted per write (2048 rows of two columns): bounds the text
# held in memory at once, whatever the width of the table
_CSV_BLOCK_CELLS = 4096


def _write(path: str, content: Any) -> None:
    """Write one output or manifest. CSV cells are the repr of the
    columns' `.tolist()` Python ints and floats, formatted a column at a
    time over blocks of rows; a float's repr is the shortest digits that
    round-trip its bits."""
    with open(path, "w", newline="") as fh:
        if path.endswith(".csv"):
            header, columns = content
            fh.write(",".join(header) + "\n")
            n_rows = min(map(len, columns))
            block_rows = max(1, _CSV_BLOCK_CELLS // len(columns))
            for start in range(0, n_rows, block_rows):
                block = slice(start, start + block_rows)
                cells = (map(repr, column[block].tolist()) for column in columns)
                fh.write("\n".join(map(",".join, zip(*cells))))
                fh.write("\n")
        else:
            json.dump(json_ready(content), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fit_result_payload(result) -> dict[str, Any]:
    payload = dataclasses.asdict(result)
    del payload["cost_history"], payload["fitted"]
    return payload


def _field_grid(section) -> np.ndarray:
    """The b_min_t..b_max_t grid of b_steps fields of a config section."""
    return np.linspace(section["b_min_t"], section["b_max_t"], section["b_steps"])


def cmd_levels(config) -> CommandResult:
    system = spin_system(config)
    grid = _field_grid(config["levels"])
    table = level_table(system, grid)
    labels = range(1, system.dimension + 1)
    header = ["B_mT", *(f"E{label}" for label in labels), *(f"C{label}" for label in labels)]
    columns = (grid * 1e3, *table.energies.T, *table.concurrence.T)
    return CommandResult({"levels.csv": (header, columns)})


def cmd_resonances(config) -> CommandResult:
    from ..spectra import find_all_resonances, synthesize_spectrum

    system = spin_system(config)
    section = config["resonances"]
    transitions = find_all_resonances(
        system,
        section["frequency_mhz"],
        (section["b_min_t"], section["b_max_t"]),
        intensity_floor=section["intensity_floor"],
    )
    grid = np.linspace(section["b_min_t"], section["b_max_t"], int(spectrum_points(section)))
    curve = synthesize_spectrum(transitions, section["fwhm_mt"], "derivative", grid)
    return CommandResult({
        "resonances.json": [dataclasses.asdict(tr) for tr in transitions],
        "spectrum.csv": (["field_t", "signal"], (curve.field_grid, curve.signal)),
    })


def cmd_freqmap(config) -> CommandResult:
    from ..spectra import frequency_field_map

    system = spin_system(config)
    grid = _field_grid(config["freqmap"])
    table = frequency_field_map(system, grid, intensity_floor=config["freqmap"]["intensity_floor"])
    # the table's fields are the columns, in order
    header = ["field_t", "freq_mhz", "intensity", "label_upper", "label_lower"]
    return CommandResult({"freqmap.csv": (header, [table[name] for name in table.dtype.names])})


def cmd_rabi(config) -> CommandResult:
    from ..spectra import rabi_frequency, sx_matrix_element

    system = spin_system(config)
    section = config["rabi"]
    upper, lower = section["label_upper"], section["label_lower"]
    field = section["field_t"]
    sx = sx_matrix_element(system, upper, lower, field)
    rabi_mhz = rabi_frequency(system, upper, lower, field, section["f1_mhz"])
    payload = {
        "label_upper": upper,
        "label_lower": lower,
        "field_t": field,
        "f1_mhz": section["f1_mhz"],
        "sx_element": sx,
        "rabi_mhz": rabi_mhz,
        "pi_time_ns": 1e3 / (2.0 * rabi_mhz),
    }
    if section["input_csv"] is not None:
        from ..fitting.routines import rabi_peak

        with _about_input("rabi.input_csv"):
            data = _read_columns(section["input_csv"], ("time_us", "signal"))
            payload["measured_mhz"] = rabi_peak(data["time_us"], data["signal"])
    return CommandResult({"rabi.json": payload})


def _shell_cutoff_nm(config, shell: int) -> float:
    """Pair cutoff of a neighbour shell of the cce lattice."""
    return PAIR_SHELLS[shell] * config["cce"]["a0_nm"]


def _cce_params(config):
    from ..bath.ensemble import CceParams

    section = config["cce"]
    times = tuple(float(t) for t in np.linspace(0.0, section["t_max_ms"], section["t_steps"]))
    return CceParams(
        transition=(section["label_upper"], section["label_lower"]),
        field_b=section["field_t"],
        lattice=LatticeSpec(side_nm=section["side_nm"], a0_nm=section["a0_nm"]),
        time_grid_ms=times,
        n_configs=section["n_configs"],
        seed=config["run"]["seed"],
        r_max_nm=_shell_cutoff_nm(config, section["shell"]),
        abundance=section["abundance"],
        system=spin_system(config),
    )


def cmd_cce(config) -> CommandResult:
    from ..bath.ensemble import convergence_study

    if config["cce"]["fit"]:
        # loaded before the ensemble: loaded after it, the fit routines
        # raised the peak memory of a full-scale run by 0.1-0.2 MB
        from ..fitting.routines import fit_echo_decay
    params = _cce_params(config)
    # the one-side, one-shell case of a convergence study
    key = (params.lattice.side_nm, params.pair_cutoff_nm)
    study = convergence_study(params, [key[0]], [key[1]], workers=config["run"]["workers"])
    curve = study.curves[key]
    outputs = {"echo.csv": (_ECHO_HEADER, (curve.times_ms, curve.amplitude, curve.std_of_mean))}
    extra = {"workers_used": study.workers_used}
    if not config["cce"]["fit"]:
        return CommandResult(outputs, extra)
    result = fit_echo_decay(curve.times_ms, curve.amplitude)
    extra["fit"] = _fit_result_payload(result)
    return CommandResult(outputs, extra, 0 if result.converged else 1)


def cmd_cce_converge(config) -> CommandResult:
    from ..bath.ensemble import convergence_study

    params = _cce_params(config)
    section = config["converge"]
    resolved = [_shell_cutoff_nm(config, shell) for shell in section["shells"]]
    study = convergence_study(params, list(section["sides_nm"]), resolved,
                              workers=config["run"]["workers"])
    outputs = {}
    for shell, r_max in zip(section["shells"], resolved):
        for side in section["sides_nm"]:
            curve = study.curves[(side, r_max)]
            outputs[converge_echo_name(side, shell)] = (
                _ECHO_HEADER, (curve.times_ms, curve.amplitude, curve.std_of_mean))
    distances = {
        str(shell): list(study.distances[r_max])
        for shell, r_max in zip(section["shells"], resolved)
    }
    return CommandResult(outputs, {"distances": distances, "workers_used": study.workers_used})


@contextlib.contextmanager
def _about_input(key: str):
    """Report an error about an input CSV or its data as a usage error
    naming the key that set the file."""
    try:
        yield
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _read_columns(path: str, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            lines = [line for line in fh if not line.startswith("#")]
        table = np.genfromtxt(lines, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read input csv: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if table.dtype.names is None:
        raise ConfigError(f"{path}: no header row")
    for name in names:
        if name not in table.dtype.names:
            raise ConfigError(f"{path}: missing column {name}")
    columns = {name: np.atleast_1d(table[name]).astype(float) for name in names}
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}: column {name} has non-numeric entries")
    return columns


def cmd_fit(config) -> CommandResult:
    section = config["fit"]
    if section["input_csv"] is None:
        raise ConfigError("fit.input_csv: required for the fit command")
    from ..fitting import routines

    x_name, y_name, routine_name, keys = FIT_MODELS[section["model"]]
    routine = getattr(routines, routine_name)
    with _about_input("fit.input_csv"):
        data = _read_columns(section["input_csv"], (x_name, y_name))
        x, y = data[x_name], data[y_name]
        result = routine(x, y, **{arg: section[key] for arg, key in keys.items()})
    curve = np.where(np.isfinite(result.fitted), result.fitted, np.nan)
    return CommandResult({
        "fit.json": _fit_result_payload(result),
        "fit_residual.csv": ([x_name, y_name, "model", "residual"], (x, y, curve, curve - y)),
    }, code=0 if result.converged else 1)


_COMMANDS = {
    "levels": cmd_levels,
    "resonances": cmd_resonances,
    "freqmap": cmd_freqmap,
    "rabi": cmd_rabi,
    "cce": cmd_cce,
    "cce-converge": cmd_cce_converge,
    "fit": cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donorspin",
        description="Donor spin levels, spectra, bath decoherence, and fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("print-config", *_COMMANDS):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="config file path")
        cmd.add_argument("--seed", type=int, default=None, help="override run.seed")
        cmd.add_argument("--workers", type=int, default=None, help="override run.workers")
        cmd.add_argument("--out", default=None, help="override run.out_dir")
        if name == "fit":
            cmd.add_argument(
                "--fix-delta", type=float, default=None, dest="fix_delta",
                help="hold the activation barrier (K) fixed",
            )
    return parser


def _print(text: str) -> None:
    """Write text to stdout now. One that cannot take it is a usage error,
    and the process's stdout then discards what is left, so no failed
    flush at exit changes the exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise ConfigError(f"cannot write to stdout: {exc}") from None


def _unusable_out_dir(exc: OSError) -> ConfigError:
    return ConfigError(f"run.out_dir: cannot use {exc.filename!r}: {exc.strerror}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command. In the main thread a SIGTERM ends the run as
    `SystemExit(143)`, which stops its worker processes on the way out;
    the previous handler is back when `main` returns."""
    if threading.current_thread() is not threading.main_thread():
        return _run(argv)
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        return _run(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["run"]["seed"] = args.seed
        if args.workers is not None:
            config["run"]["workers"] = args.workers
        if args.out is not None:
            config["run"]["out_dir"] = args.out
        if getattr(args, "fix_delta", None) is not None:
            config["fit"]["fix_delta_k"] = args.fix_delta
        validate(config)
        if args.command == "print-config":
            _print(render_config(config))
            return 0
        started = time.monotonic()
        out_dir = config["run"]["out_dir"]
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise _unusable_out_dir(exc) from None
        result = _COMMANDS[args.command](config)
        paths = [os.path.join(out_dir, name) for name in result.outputs]
        try:
            for path, content in zip(paths, result.outputs.values()):
                _write(path, content)
            manifest = build_manifest(args.command, config, started, paths, result.extra)
            _write(os.path.join(out_dir, f"{args.command}_manifest.json"), manifest)
        except OSError as exc:
            raise _unusable_out_dir(exc) from None
        return result.code
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
