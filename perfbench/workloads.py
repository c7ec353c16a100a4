"""The three benchmark workloads, driven through `donorspin.cli.main.main`.

Each workload turns the benchmark seed into INI files (and, for the
spectroscopy fits, CSVs cut from the program's own spectra), runs one
closed-loop pass of CLI calls, and checks the outputs.  The program sees
only those files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks


@dataclasses.dataclass
class Op:
    """One CLI call: the unit that is attempted and can fail."""

    command: str
    out: Path
    code: int
    seconds: float
    bytes_written: int


class Cli:
    """Calls the CLI entry point in process, one command at a time."""

    def __init__(self, main):
        self.main = main

    def __call__(self, command: str, out: Path, config: Path | None = None,
                 workers: int | None = None) -> Op:
        argv = [command, "--out", str(out)]
        if config is not None:
            argv += ["--config", str(config)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        start = time.perf_counter()
        code = self.main(argv)
        seconds = time.perf_counter() - start
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        return Op(command, out, code, seconds, written)


def output_digests(op: Op) -> dict[str, str]:
    """sha256 of each output, as the run's own manifest records it."""
    manifest = op.out / f"{op.command}_manifest.json"
    return json.loads(manifest.read_text())["outputs"] if manifest.is_file() else {}


def unconverged(op: Op) -> bool:
    """Exit 1 with a fit the program itself reports as not converged."""
    if op.code != 1:
        return False
    if op.command == "fit":
        return not json.loads((op.out / "fit.json").read_text())["converged"]
    manifest = op.out / f"{op.command}_manifest.json"
    if op.command == "cce" and manifest.is_file():
        return not json.loads(manifest.read_text())["fit"]["converged"]
    return False


def checkable(op: Op) -> bool:
    """The call wrote its outputs: it succeeded or only its fit did not converge."""
    return op.code == 0 or unconverged(op)


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class Spectroscopy:
    """Resonance searches across three microwave bands, plus line fits.

    The seed draws the same number of frequencies from each band, so every
    seed gives the same mix of low-field, mid and X-band searches, and
    each pass searches all of them.
    """

    name = "spectroscopy"
    BANDS_MHZ = ((900.0, 1100.0), (4000.0, 5000.0), (9000.0, 11000.0))
    PER_BAND = 3
    WINDOW_MT = 2.0
    NOISE_FRACTION = 0.01

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.frequencies = [round(lo + (hi - lo) * rng.random(), 3)
                            for lo, hi in self.BANDS_MHZ for _ in range(self.PER_BAND)]
        points = int(2 * self.WINDOW_MT / 0.05) + 3
        self.noise = rng.standard_normal((len(self.frequencies), points))
        self.resonance_ini = []
        self.fit_ini = []
        self.fit_csv = []
        for k, frequency in enumerate(self.frequencies):
            self.resonance_ini.append(_write_ini(work / f"resonances{k}.ini", {
                "resonances": {"frequency_mhz": frequency, "b_min_t": 0.0, "b_max_t": 0.6}}))
            self.fit_csv.append(work / f"fit_input{k}.csv")
            self.fit_ini.append(_write_ini(work / f"fit{k}.ini", {"fit": {
                "model": "gaussian_lines", "mode": "derivative", "n_lines": 1,
                "input_csv": self.fit_csv[-1]}}))
        self._warmup_ini = _write_ini(work / "warmup.ini", {"levels": {"b_steps": 3}})

    def warmup_argv(self, out: Path) -> list[str]:
        return ["levels", "--config", str(self._warmup_ini), "--out", str(out)]

    def _strongest(self, out: Path) -> float | None:
        lines = json.loads((out / "resonances.json").read_text())
        if not lines:
            return None
        return max(lines, key=lambda line: line["intensity"])["field_b"]

    def _write_fit_input(self, k: int, out: Path, center_t: float) -> None:
        """Derivative spectrum around the strongest line, with seeded noise."""
        spectrum = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
        window = spectrum[np.abs(spectrum[:, 0] - center_t) <= self.WINDOW_MT * 1e-3 + 1e-9]
        signal = window[:, 1] + self.NOISE_FRACTION * np.max(np.abs(window[:, 1])) * (
            self.noise[k, :len(window)])
        with open(self.fit_csv[k], "w") as fh:
            fh.write("field_t,signal\n")
            for b, s in zip(window[:, 0], signal):
                fh.write(f"{float(b)!r},{float(s)!r}\n")

    def run_pass(self, cli: Cli, out: Path, workers: int) -> list[Op]:
        ops = []
        for k in range(len(self.frequencies)):
            op = cli("resonances", out / f"resonances{k}", self.resonance_ini[k])
            ops.append(op)
            center = self._strongest(op.out) if op.code == 0 else None
            if center is not None:
                self._write_fit_input(k, op.out, center)
                ops.append(cli("fit", out / f"fit{k}", self.fit_ini[k]))
        ops.append(cli("levels", out / "levels"))
        ops.append(cli("freqmap", out / "freqmap"))
        return ops

    @staticmethod
    def queries(ops: list[Op]) -> list[float]:
        return [op.seconds for op in ops if op.command == "resonances"]

    @staticmethod
    def configs(ops: list[Op]) -> int:
        return 0

    def check(self, ops: list[Op]) -> list[list[str]]:
        errors: list[list[str]] = []
        frequency, window_fields = None, []
        for op in ops:
            if not checkable(op):
                errors.append([])
                continue
            if op.command == "resonances":
                frequency = self.frequencies[int(op.out.name.removeprefix("resonances"))]
                errors.append(checks.check_resonances(op.out, frequency))
                lines = json.loads((op.out / "resonances.json").read_text())
                center = self._strongest(op.out)
                window_fields = [line["field_b"] for line in lines
                                 if center is not None
                                 and abs(line["field_b"] - center) <= self.WINDOW_MT * 1e-3]
            elif op.command == "fit":
                errors.append(checks.check_fit_center(op.out, window_fields))
            elif op.command == "levels":
                errors.append(checks.check_levels(op.out))
            else:
                errors.append(checks.check_freqmap(op.out))
        return errors

    @staticmethod
    def compare(ops: list[Op], reference: dict) -> list[list[str]]:
        searches = iter(reference["lines"])
        found = []
        for op in ops:
            if op.command != "resonances":
                found.append([])
                continue
            lines = next(searches, [])
            found.append(checks.compare_lines(op.out, lines) if checkable(op) else [])
        return found


class _Echo:
    """Shared handling of the echo-curve workloads."""

    T_STEPS = 51
    N_CONFIGS = 4

    def __init__(self, seed: int, work: Path):
        self.program_seed = int(np.random.default_rng(seed).integers(1, 2**31))
        self._warmup_ini = _write_ini(work / "warmup.ini", {
            "run": {"seed": self.program_seed},
            "cce": {"side_nm": 1.2, "n_configs": 2, "t_steps": 6, "fit": "false"}})

    def warmup_argv(self, out: Path) -> list[str]:
        return ["cce", "--config", str(self._warmup_ini), "--out", str(out), "--workers", "1"]

    @staticmethod
    def queries(ops: list[Op]) -> list[float]:
        return []

    def run_pass(self, cli: Cli, out: Path, workers: int) -> list[Op]:
        return [cli(self.command, out / self.command, self.ini, workers)]

    @staticmethod
    def _curves(op: Op) -> list[Path]:
        return sorted(op.out.glob("echo*.csv"))

    def check(self, ops: list[Op]) -> list[list[str]]:
        errors = []
        for op in ops:
            if not checkable(op):
                errors.append([])
                continue
            curves = self._curves(op)
            found = [] if len(curves) == self.curve_count else [
                f"{len(curves)} echo curves, expected {self.curve_count}"]
            for path in curves:
                found += checks.check_echo(path, self.T_STEPS)
            errors.append(found)
        return errors

    def compare(self, ops: list[Op], reference: dict) -> list[list[str]]:
        errors = []
        for op in ops:
            if not checkable(op):
                errors.append([])
                continue
            found = []
            for name, curve in reference["curves"].items():
                path = op.out / name
                found += checks.compare_curves(path, curve) if path.is_file() else [
                    f"{name} missing"]
            errors.append(found)
        return errors


class Ensemble(_Echo):
    """One full-scale `cce`: 27.8 nm box, third-neighbour pairs, decay fit."""

    name = "ensemble"
    command = "cce"
    curve_count = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.ini = _write_ini(work / "cce.ini", {
            "run": {"seed": self.program_seed},
            "cce": {"label_upper": 11, "label_lower": 10, "field_t": 0.3446,
                    "side_nm": 27.8, "n_configs": self.N_CONFIGS, "shell": 3,
                    "t_max_ms": 1.0, "t_steps": self.T_STEPS, "fit": "true"}})

    def configs(self, ops: list[Op]) -> int:
        return self.N_CONFIGS * len(ops)


class Converge(_Echo):
    """One `cce-converge` over four box sides and both pair shells."""

    name = "converge"
    command = "cce-converge"
    SIDES_NM = (7.0, 10.0, 14.0, 18.0)
    SHELLS = (2, 3)
    curve_count = len(SIDES_NM) * len(SHELLS)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.ini = _write_ini(work / "converge.ini", {
            "run": {"seed": self.program_seed},
            "cce": {"n_configs": self.N_CONFIGS, "t_steps": self.T_STEPS},
            "converge": {"sides_nm": " ".join(f"{s:g}" for s in self.SIDES_NM),
                         "shells": " ".join(str(s) for s in self.SHELLS)}})

    def configs(self, ops: list[Op]) -> int:
        return self.N_CONFIGS * self.curve_count * len(ops)


class Run:
    """The passes of one workload, with the verdict on every CLI call."""

    def __init__(self, workload, work: Path, reference: dict | None):
        self.workload = workload
        self.work = work
        self.reference = reference
        self.passes: list[tuple[float, list]] = []     # (wall seconds, ops)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self._first = None                             # (digests, errors per op)

    def run_pass(self, cli, workers: int):
        out = self.work / f"pass{len(self.passes)}"
        out.mkdir()
        start = time.perf_counter()
        ops = self.workload.run_pass(cli, out, workers)
        wall = time.perf_counter() - start
        self.passes.append((wall, ops))
        self._judge(ops)
        if len(self.passes) > 1:
            shutil.rmtree(out)
        return wall, ops

    def _judge(self, ops) -> None:
        """Check the first pass in full; later passes must match it byte for byte."""
        digests = [(op.command, output_digests(op)) for op in ops]
        if self._first is None:
            op_errors = self.workload.check(ops)
            if self.reference is not None:
                for found, more in zip(op_errors, self.workload.compare(ops, self.reference)):
                    found += more
            self._first = digests, op_errors
            reported = op_errors
        elif digests != self._first[0]:
            op_errors = reported = [["outputs differ from the first pass"] for _ in ops]
        else:
            # same bytes, same verdict: count it again without repeating it
            op_errors, reported = self._first[1], [[] for _ in ops]
        for op, found, new in zip(ops, op_errors, reported):
            failed_fit = unconverged(op)
            if op.code != 0 and not failed_fit:
                found = new = found + [f"exit code {op.code}"]
            self.attempted += 1
            self.unconverged += failed_fit
            self.failed += bool(found) or failed_fit
            self.errors += [f"{op.command} {op.out.relative_to(self.work)}: {e}" for e in new]


WORKLOADS = {w.name: w for w in (Spectroscopy, Ensemble, Converge)}
