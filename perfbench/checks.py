"""Output checks that need no stored data, plus the seed-commit reference.

The level oracle is the dense Hamiltonian from `build_hamiltonian` and
`numpy.linalg.eigh`.  Adding a large multiple of the conserved total
projection Fz = Sz + Iz leaves the eigenvectors unchanged and sorts the
spectrum into m blocks, so every eigenvalue can be given its adiabatic
label without the program's own block-wise `diagonalize`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from donorspin.spin import build_hamiltonian, si_bi, spin_operators

SYSTEM = si_bi()
_FZ_SHIFT_MHZ = 1e5        # far above any level splitting reached below 1 T
FIELD_TOL_T = 1e-6         # the resonance search's promised field accuracy
ENERGY_TOL_MHZ = 1e-6
ECHO_TOL = 1e-12
CURVE_REF_TOL = 1e-9
FIELD_REF_TOL_MT = 1e-3
FIT_CENTER_TOL_MT = 0.05


def oracle_energies(b_field: float) -> np.ndarray:
    """Energies (MHz) by adiabatic label 1..D from a dense eigh."""
    ops = spin_operators(SYSTEM)
    fz = np.real(np.diag(ops.sz + ops.iz))
    h = build_hamiltonian(SYSTEM, b_field) + _FZ_SHIFT_MHZ * np.diag(fz)
    vals, vecs = np.linalg.eigh(h)
    m = np.rint(2.0 * (np.abs(vecs) ** 2).T @ fz) / 2.0
    energies = vals - _FZ_SHIFT_MHZ * m
    top = SYSTEM.nuclear_spin + 0.5
    out = np.empty(SYSTEM.dimension)
    for m_value in np.unique(m):
        members = np.flatnonzero(m == m_value)
        order = members[np.argsort(energies[members])]
        if len(order) == 1:
            out[SYSTEM.label_of(m_value, -1 if m_value < 0 else +1) - 1] = energies[order[0]]
            continue
        if len(order) != 2 or abs(m_value) > top:
            raise ValueError(f"oracle could not separate the m = {m_value} block")
        out[SYSTEM.label_of(m_value, -1) - 1] = energies[order[0]]
        out[SYSTEM.label_of(m_value, +1) - 1] = energies[order[1]]
    return out


def _gap(upper: int, lower: int, b_field: float) -> float:
    e = oracle_energies(b_field)
    return e[upper - 1] - e[lower - 1]


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(row[k]) for row in rows[1:]])
            for k, name in enumerate(rows[0])}


def check_resonances(out: Path, frequency: float) -> list[str]:
    """Every line satisfies E_upper - E_lower = f at its field."""
    errors = []
    for line in json.loads((out / "resonances.json").read_text()):
        upper, lower, b = line["label_upper"], line["label_lower"], line["field_b"]
        miss = _gap(upper, lower, b) - frequency
        slope = (_gap(upper, lower, b + 1e-5) - _gap(upper, lower, max(b - 1e-5, 0.0))) / (
            b + 1e-5 - max(b - 1e-5, 0.0))
        if not abs(miss) <= abs(slope) * FIELD_TOL_T + ENERGY_TOL_MHZ:
            errors.append(f"line {upper}-{lower} at {b * 1e3:.4f} mT misses {frequency} MHz "
                          f"by {miss:.3g} MHz")
    if not (out / "spectrum.csv").is_file():
        errors.append("spectrum.csv missing")
    return errors


def check_fit_center(out: Path, fields_t: list[float]) -> list[str]:
    """A converged 1-line fit centres on one of the lines in its window."""
    fit = json.loads((out / "fit.json").read_text())
    if not fit["converged"]:
        return []
    center = fit["params"]["center_1_mt"]
    nearest = min(abs(center - b * 1e3) for b in fields_t)
    if nearest > FIT_CENTER_TOL_MT:
        return [f"fitted centre {center:.4f} mT is {nearest:.3g} mT from every line"]
    return []


def check_levels(out: Path) -> list[str]:
    data = read_csv(out / "levels.csv")
    labels = range(1, SYSTEM.dimension + 1)
    energies = np.column_stack([data[f"E{k}"] for k in labels])
    concurrences = np.column_stack([data[f"C{k}"] for k in labels])
    errors = []
    for b_mt, row in zip(data["B_mT"], energies):
        worst = float(np.max(np.abs(row - oracle_energies(b_mt * 1e-3))))
        if not worst <= ENERGY_TOL_MHZ:
            errors.append(f"levels at {b_mt} mT off by {worst:.3g} MHz")
    if not np.all((concurrences >= 0.0) & (concurrences <= 1.0 + ECHO_TOL)):
        errors.append("a concurrence lies outside [0, 1]")
    return errors


def check_freqmap(out: Path) -> list[str]:
    data = read_csv(out / "freqmap.csv")
    errors = []
    cache: dict[float, np.ndarray] = {}
    for b, f, intensity, upper, lower in zip(data["field_t"], data["freq_mhz"],
                                             data["intensity"], data["label_upper"],
                                             data["label_lower"]):
        if b not in cache:
            cache[b] = oracle_energies(b)
        e = cache[b]
        miss = abs(e[int(upper) - 1] - e[int(lower) - 1] - f)
        if not miss <= ENERGY_TOL_MHZ:
            errors.append(f"freqmap {int(upper)}-{int(lower)} at {b} T off by {miss:.3g} MHz")
        if not 0.0 < intensity <= 0.25 + ECHO_TOL:
            errors.append(f"freqmap intensity {intensity} outside (0, 1/4]")
    return errors


def check_echo(path: Path, t_steps: int) -> list[str]:
    """Echo in [0, 1], exactly 1 at t = 0, on the requested grid."""
    data = read_csv(path)
    amp = data["amplitude"]
    errors = []
    if len(amp) != t_steps or data["time_ms"][0] != 0.0:
        errors.append(f"{path.name}: {len(amp)} points, expected {t_steps} from t = 0")
    if not np.all((amp >= 0.0) & (amp <= 1.0 + ECHO_TOL)):
        errors.append(f"{path.name}: amplitude outside [0, 1]")
    if not abs(amp[0] - 1.0) <= ECHO_TOL:
        errors.append(f"{path.name}: amplitude {amp[0]!r} at t = 0")
    return errors


def compare_curves(path: Path, reference: list[float]) -> list[str]:
    amp = read_csv(path)["amplitude"]
    if len(amp) != len(reference):
        return [f"{path.name}: {len(amp)} points, reference has {len(reference)}"]
    worst = float(np.max(np.abs(amp - np.asarray(reference))))
    if not worst <= CURVE_REF_TOL:
        return [f"{path.name}: {worst:.3g} from the reference curve"]
    return []


def compare_lines(out: Path, reference: list[list]) -> list[str]:
    lines = json.loads((out / "resonances.json").read_text())
    got = [(line["label_upper"], line["label_lower"]) for line in lines]
    want = [(upper, lower) for upper, lower, _ in reference]
    if got != want:
        return [f"lines {got} differ from the reference {want}"]
    worst = max((abs(line["field_b"] * 1e3 - ref[2]) for line, ref in zip(lines, reference)),
                default=0.0)
    if not worst <= FIELD_REF_TOL_MT:
        return [f"a line field is {worst:.3g} mT from the reference"]
    return []
