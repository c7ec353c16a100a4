"""Benchmark for donorspin: three closed-loop workloads through the CLI.

    python3 perfbench/run.py --workload spectroscopy --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  `--trace 0` measures the end-to-end metrics over timed
passes.  `--trace 1` makes rounds of one untraced pass with the
workload's worker count, one untraced single-worker twin and one traced
single-worker pass, and reports the per-layer metrics as medians over
the rounds.  Every line but the last is for people; the last is one JSON
object.  Exit code 1 means an output check found a wrong value; 2 means
the program could not be found.  See perfbench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread per process, so workers == cores; set before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 1          # the seed the reference outputs were recorded at
MIN_PASSES = 3
TRACE_ROUNDS = 3
SETUP_REPEATS = 7
# units of the metrics printed for people only, next to those in BENCHMARK.json
EXTRA_UNITS = {"failed_frac": "1", "query_p50_ms": "ms", "query_tail_ms": "ms",
               "configs_per_s": "1/s"}


def load_program():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    if not (SRC / "donorspin" / "__init__.py").is_file():
        print(f"error: no donorspin package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("donorspin.cli.main")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        print(f"error: donorspin came from {module.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return module


def environment_lines() -> list[str]:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    return [
        f"env python {platform.python_version()} | numpy {numpy.__version__} | "
        f"scipy {scipy.__version__} | openblas {blas_version(numpy)} (numpy), "
        f"{blas_version(scipy)} (scipy)",
        f"env os.cpu_count {os.cpu_count()} | usable cpus {len(os.sched_getaffinity(0))} | "
        "blas threads " + " ".join(f"{var}={os.environ[var]}" for var in BLAS_VARS),
        f"env cpu {cpu}",
        f"env src lines {src_lines}",
        "env no cache flushing or machine tuning was done",
    ]


def measure_setup(workload, work: Path) -> list[float]:
    """Fresh interpreter to the CLI imported plus the warm-up call, repeatedly."""
    code = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
            "sys.exit(importlib.import_module('donorspin.cli.main').main(sys.argv[2:]))")
    times = []
    for i in range(SETUP_REPEATS):
        argv = workload.warmup_argv(work / f"setup{i}")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], cwd=ROOT)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(f"error: warm-up call exited {done.returncode}", file=sys.stderr)
            sys.exit(1)
    return times


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten values beyond it: (value, percentile)."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, run: Run, setup: list[float]) -> tuple[dict, list[str]]:
    walls = [wall for wall, _ in run.passes]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kb / 1024.0,
        "failed_frac": run.failed / run.attempted,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters "
        f"(min {min(setup):.4f} s, max {max(setup):.4f} s)",
        f"wall_s: median of {len(walls)} passes; every pass, s: "
        + " ".join(f"{wall:.4f}" for wall in walls),
        "peak_rss_mb: high-water mark of the driving process or of any of its "
        "worker processes, whichever is larger",
        f"failed_frac: {run.failed} failed / {run.attempted} attempted CLI calls, "
        f"{run.unconverged} of them fits the program reports as unconverged",
    ]
    queries = [q for _, ops in run.passes for q in workload.queries(ops)]
    if queries:
        metrics["query_p50_ms"] = 1e3 * statistics.median(queries)
        found = tail(queries)
        if found is not None:
            metrics["query_tail_ms"] = 1e3 * found[0]
            notes.append(f"query_tail_ms: p{found[1]:.1f} of {len(queries)} resonances "
                         "calls, the highest percentile with 10 calls beyond it")
    if workload.configs(run.passes[0][1]):
        rates = [workload.configs(ops) / wall for wall, ops in run.passes]
        metrics["configs_per_s"] = statistics.median(rates)
        notes.append(f"configs_per_s: {workload.configs(run.passes[0][1])} bath "
                     f"configurations per pass, median over {len(rates)} passes")
    return metrics, notes


def traced(workload, run: Run, cli_main, nproc: int, trace_path: Path):
    """Rounds of a parallel pass, an untraced and a traced serial pass.

    The untraced twin and the traced pass swap places every round, so a
    drift of the machine does not count as tracing cost.  Each per-layer
    metric is the median over the rounds.
    """
    from spans import CLI_SPAN, Tracer
    from workloads import Cli

    def serial_pass(traced_pass: bool):
        if not traced_pass:
            return run.run_pass(Cli(cli_main), 1)[0], None
        tracer = Tracer()
        tracer.install()
        try:
            wall, ops = run.run_pass(Cli(tracer.wrap(CLI_SPAN, cli_main)), 1)
        finally:
            tracer.uninstall()
        return wall, (tracer, ops)

    rounds, walls, reconcile = [], [], []
    for k in range(TRACE_ROUNDS):
        parallel_wall, _ = run.run_pass(Cli(cli_main), nproc)
        order = (False, True) if k % 2 == 0 else (True, False)
        serial = {traced_pass: serial_pass(traced_pass) for traced_pass in order}
        twin_wall = serial[False][0]
        traced_wall, (tracer, traced_ops) = serial[True]
        walls.append((parallel_wall, twin_wall, traced_wall))

        metrics = tracer.layer_metrics()
        # time spent building and echoing configurations, as one worker would
        config_s = (tracer.busy("bath.ensemble.build_configuration")
                    + tracer.busy("bath.echo.cce2_echo"))
        metrics["bath.ensemble.parallel_eff"] = config_s / (nproc * parallel_wall)
        metrics["cli.bytes_written"] = sum(op.bytes_written for op in traced_ops)
        layer_self = tracer.layer_self_times()
        attributed = sum(layer_self.values())
        metrics["trace.overhead_s"] = traced_wall - twin_wall
        metrics["trace.unattributed_s"] = traced_wall - attributed
        rounds.append(metrics)
        parts = ", ".join(f"{layer} {seconds:.4f}" for layer, seconds in
                          sorted(layer_self.items(), key=lambda item: -item[1]))
        reconcile.append(f"reconcile {workload.name} round {k + 1}: traced wall "
                         f"{traced_wall:.4f} s = layer self times {attributed:.4f} s "
                         f"[{parts}] + unattributed {traced_wall - attributed:.4f} s")
    tracer.write(trace_path)

    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    overheads = [r["trace.overhead_s"] for r in rounds]
    spread = max(overheads) - min(overheads)
    verdict = ("unresolved: the differences spread wider than their median"
               if spread >= abs(metrics["trace.overhead_s"]) else "resolved")
    notes = [
        f"passes per round (workers={nproc}, untraced workers=1, traced workers=1), s: "
        + "; ".join(" ".join(f"{wall:.4f}" for wall in round_walls) for round_walls in walls),
        f"trace.overhead_s: median of {len(overheads)} traced minus untraced walls, s: "
        + " ".join(f"{value:+.4f}" for value in overheads) + f"; {verdict}",
        "bath.ensemble.parallel_eff: traced build_configuration + cce2_echo time over "
        f"{nproc} workers x the parallel pass wall, median over rounds",
        f"spans of the last traced pass ({len(tracer.names)}) written to "
        f"{trace_path.relative_to(ROOT)}",
        *reconcile,
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectroscopy", "ensemble", "converge"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli_module = load_program()
    from workloads import WORKLOADS, Cli, Run

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    nproc = len(os.sched_getaffinity(0))
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((REFERENCE / f"{args.workload}.json").read_text())
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for line in environment_lines():
            print(line)
        workload = WORKLOADS[args.workload](args.seed, work)
        run = Run(workload, work, reference)
        setup = [] if args.trace else measure_setup(workload, work)
        cli_module.main(workload.warmup_argv(work / "warmup"))   # untimed, in process
        if args.trace:
            trace_path = BENCH / "_work" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes = traced(workload, run, cli_module.main, nproc, trace_path)
        else:
            cli = Cli(cli_module.main)
            start = time.perf_counter()
            while len(run.passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                run.run_pass(cli, nproc)
            metrics, notes = end_to_end(workload, run, setup)

        first = run.passes[0][1][0]
        manifest = first.out / f"{first.command}_manifest.json"
        workers = (json.loads(manifest.read_text())["config"]["run"]["workers"]
                   if manifest.is_file() else "unknown")
        print(f"workload {args.workload} seed {args.seed}: {len(run.passes)} passes, "
              f"workers {workers} (run.workers as the first {first.command} call "
              "resolved it; only cce commands start a pool)")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units.update(EXTRA_UNITS)
        for name, value in metrics.items():
            print(f"metric {name} {value:.6g} {units[name]}")
        for note in notes:
            print(f"note {note}")
        for error in run.errors:
            print(f"check FAILED {error}")
        correct = not run.errors
        print(json.dumps({
            "correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in reported},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
