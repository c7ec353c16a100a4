"""Spans around calls into the donorspin layers, recorded from outside `src/`.

A traced run wraps every public function of each layer module wherever a
donorspin module holds a reference to it (that is where the caller looks
it up), so `diagonalize` is timed as seen by `spectra`, by
`bath.ensemble` and by the CLI alike.  Spans live in memory and are
written out once the run ends.  Only single-process runs are traced: a
forked pool worker would record into its own copy of the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# layer name -> modules whose public functions form the layer.  The
# fitting models are left out: the least-squares residual calls them
# thousands of times per fit, so a span each would swamp what it measures.
LAYERS = {
    "spin": ("donorspin.spin",),
    "doublet": ("donorspin.doublet",),
    "spectra": ("donorspin.spectra",),
    "bath.lattice": ("donorspin.bath.lattice",),
    "bath.occupancy": ("donorspin.bath.occupancy",),
    "bath.couplings": ("donorspin.bath.couplings",),
    "bath.echo": ("donorspin.bath.echo",),
    "bath.ensemble": ("donorspin.bath.ensemble",),
    "fitting": ("donorspin.fitting.routines", "donorspin.fitting.leastsq"),
}
CLI_SPAN = "cli.main"


def _layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def _count_attrs(name: str, args, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == "spectra.find_all_resonances":
        return {"lines": len(result)}
    if name == "bath.lattice.generate_lattice":
        return {"sites": len(result), "bytes": result.nbytes}
    if name == "bath.occupancy.occupy":
        return {"sites": len(args[0]), "spins": len(result.positions)}
    if name == "bath.couplings.enumerate_pairs":
        return {"pairs": len(result)}
    if name == "bath.echo.cce2_echo":
        pairs = args[0].pair_indices
        return {"pair_times": (0 if pairs is None else len(pairs)) * len(result.times_ms)}
    if name == "bath.ensemble.build_configuration":
        params, index = args[0], args[1]
        return {"key": (params.lattice.side_nm, params.seed + index)}
    if name == "fitting.levenberg_fit":
        return {"iterations": result.n_iterations}
    if name.startswith("fitting.fit_"):
        return {"unconverged": int(not result.converged)}
    return {}


class Tracer:
    """In-memory span recorder; each span is (name, start, end, parent)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            attrs = _count_attrs(name, args, result)
            if attrs:
                self.attrs[index] = attrs
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function in every donorspin module that holds it."""
        targets = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module_name
                            and not attr.startswith("_")):
                        targets[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("donorspin"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                json.dump([name, self.starts[i], self.ends[i], self.parents[i]], fh)
                fh.write("\n")

    def busy(self, name: str) -> float:
        """Summed duration of the spans of one wrapped function."""
        return sum(self.ends[i] - self.starts[i]
                   for i, span in enumerate(self.names) if span == name)

    def _foreign_times(self, layers: list[str]) -> list[float]:
        """Per span, the time covered by descendants of another layer.

        Nested spans of the span's own layer pass their foreign time up,
        so they do not split it.
        """
        foreign = [0.0] * len(self.names)
        # children always follow their parent, so a reverse sweep sees
        # every child's total before its parent's
        for i in range(len(self.names) - 1, -1, -1):
            p = self.parents[i]
            if p >= 0:
                duration = self.ends[i] - self.starts[i]
                foreign[p] += duration if layers[i] != layers[p] else foreign[i]
        return foreign

    def layer_self_times(self) -> dict[str, float]:
        """Seconds charged to each layer; together they partition the root spans."""
        layers = [_layer_of(name) for name in self.names]
        foreign = self._foreign_times(layers)
        totals: dict[str, float] = defaultdict(float)
        for i, layer in enumerate(layers):
            p = self.parents[i]
            if p < 0 or layers[p] != layer:
                totals[layer] += self.ends[i] - self.starts[i] - foreign[i]
        return dict(totals)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the traced spans."""
        layers = [_layer_of(name) for name in self.names]
        foreign = self._foreign_times(layers)
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        sums: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        layer_busy: dict[str, float] = defaultdict(float)
        in_search = [False] * len(self.names)
        search_self = 0.0
        search_diag = 0
        lattice_mb = 0.0
        config_keys = set()
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            p = self.parents[i]
            calls[name] += 1
            busy[name] += duration
            if p < 0 or layers[p] != layers[i]:
                layer_calls[layers[i]] += 1
                layer_busy[layers[i]] += duration
            if name == "spectra.find_all_resonances":
                in_search[i] = True
                search_self += duration - foreign[i]
            elif p >= 0 and in_search[p]:
                in_search[i] = True
                search_diag += name == "spin.diagonalize"
            for key, value in self.attrs.get(i, {}).items():
                if key == "key":
                    config_keys.add(value)
                elif key == "bytes":
                    lattice_mb = max(lattice_mb, value / 1e6)
                else:
                    sums[f"{name}:{key}"] += value
        self_times = self.layer_self_times()

        def ratio(a, b):
            return a / b if b else 0.0

        diag_calls = calls["spin.diagonalize"]
        lines = sums["spectra.find_all_resonances:lines"]
        iterations = sums["fitting.levenberg_fit:iterations"]
        pair_times = sums["bath.echo.cce2_echo:pair_times"]
        return {
            "spin.diagonalize.calls": diag_calls,
            "spin.diagonalize.busy_s": busy["spin.diagonalize"],
            "spin.diagonalize.us_per_call": ratio(busy["spin.diagonalize"] * 1e6, diag_calls),
            "spin.concurrence.busy_s": busy["spin.concurrence"],
            "doublet.calls": layer_calls["doublet"],
            "doublet.busy_s": layer_busy["doublet"],
            "spectra.search.calls": calls["spectra.find_all_resonances"],
            "spectra.search.busy_s": busy["spectra.find_all_resonances"],
            "spectra.search.self_s": search_self,
            "spectra.search.lines": int(lines),
            "spectra.search.diag_per_line": ratio(search_diag, lines),
            "spectra.freqmap.busy_s": busy["spectra.frequency_field_map"],
            "spectra.synth.busy_s": busy["spectra.synthesize_spectrum"],
            "fitting.calls": layer_calls["fitting"],
            "fitting.lm_calls": calls["fitting.levenberg_fit"],
            "fitting.iterations": int(iterations),
            "fitting.us_per_iteration": ratio(layer_busy["fitting"] * 1e6, iterations),
            "fitting.busy_s": layer_busy["fitting"],
            "fitting.unconverged": int(sum(value for key, value in sums.items()
                                           if key.endswith(":unconverged"))),
            "bath.lattice.calls": calls["bath.lattice.generate_lattice"],
            "bath.lattice.busy_s": busy["bath.lattice.generate_lattice"],
            "bath.lattice.sites": int(sums["bath.lattice.generate_lattice:sites"]),
            "bath.lattice.mb": lattice_mb,
            "bath.occupancy.calls": calls["bath.occupancy.occupy"],
            "bath.occupancy.busy_s": busy["bath.occupancy.occupy"],
            "bath.occupancy.spins": int(sums["bath.occupancy.occupy:spins"]),
            "bath.occupancy.spin_ratio": ratio(sums["bath.occupancy.occupy:spins"],
                                               sums["bath.occupancy.occupy:sites"]),
            "bath.couplings.j_busy_s": busy["bath.couplings.superhyperfine_j"],
            "bath.couplings.pairs_busy_s": busy["bath.couplings.enumerate_pairs"],
            "bath.couplings.dipolar_busy_s": busy["bath.couplings.dipolar_b"],
            "bath.couplings.pairs": int(sums["bath.couplings.enumerate_pairs:pairs"]),
            "bath.echo.calls": calls["bath.echo.cce2_echo"],
            "bath.echo.busy_s": busy["bath.echo.cce2_echo"],
            "bath.echo.pair_times": int(pair_times),
            "bath.echo.ns_per_pair_time": ratio(busy["bath.echo.cce2_echo"] * 1e9, pair_times),
            "bath.ensemble.calls": calls["bath.ensemble.ensemble_echo"],
            "bath.ensemble.configs": calls["bath.ensemble.build_configuration"],
            "bath.ensemble.self_s": self_times.get("bath.ensemble", 0.0),
            "bath.ensemble.builds_per_config": ratio(calls["bath.lattice.generate_lattice"],
                                                     len(config_keys)),
            "cli.calls": calls[CLI_SPAN],
            "cli.self_s": self_times.get("cli", 0.0),
        }
