"""Output checks: every operation (one scenario call) passes or fails.

An operation passes when the call exited 0 and its output directory holds
exactly the documented CSV files with their documented headers and row
counts, every numeric cell is finite, and the scenario's own invariants
hold (see ``_SCENARIO_CHECKS``).  For seed 0 the outputs are also compared
with stored reference values.  The reference tolerances sit far above the
differences a converged but different eigensolver or Jacobian produces
(eigenvector differences of order 1e-10) and far below the difference
between two branches or two fixed-point censuses.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

LEAKAGE_TOL = 1e-12
STRING_COLUMNS = {"classification"}
CLASSIFICATIONS = {"stable", "saddle", "unstable", "degenerate"}

# Reference tolerances by column (absolute).
REF_TOL = {
    "S_spin": 1e-8, "S_osc_x": 1e-8, "E_N": 1e-8,
    "dS_spin_dlam": 1e-6, "dS_osc_x_dlam": 1e-6, "dE_N_dlam": 1e-6,
    "H": 1e-8, "eigenphase": 1e-8,
    "q_x": 1e-7, "q_y": 1e-7, "p_x": 1e-7, "p_y": 1e-7,
    "s_x": 1e-7, "s_y": 1e-7, "s_z": 1e-7,
    "theta": 1e-7, "alpha_x": 1e-7, "alpha_y": 1e-7, "p_plus": 1e-7,
}
MODULUS_TOL = 1e-6
PORTRAIT_REF_ITERATIONS = 3     # chaotic orbits: compare only the first steps
FP_COLUMNS = ["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z", "classification",
              "mod1", "mod2", "mod3", "mod4", "mod5", "mod6"]


class Table:
    def __init__(self, path: Path):
        text = path.read_text()
        lines = text.splitlines()
        self.header = lines[0].split(",") if lines else []
        self.rows = [line.split(",") for line in lines[1:]]
        self.bytes = len(text.encode())

    def column(self, name: str) -> list[str]:
        k = self.header.index(name)
        return [row[k] for row in self.rows]

    def floats(self, name: str) -> list[float]:
        return [float(v) for v in self.column(name)]


def _check_cells(name: str, table: Table) -> list[str]:
    width = len(table.header)
    numeric = [k for k, col in enumerate(table.header) if col not in STRING_COLUMNS]
    for i, row in enumerate(table.rows):
        if len(row) != width:
            return [f"{name}: row {i + 1} has {len(row)} cells, header has {width}"]
        for k in numeric:
            try:
                value = float(row[k])
            except ValueError:
                return [f"{name}: row {i + 1} column {table.header[k]}: not a number {row[k]!r}"]
            if not math.isfinite(value):
                return [f"{name}: row {i + 1} column {table.header[k]}: {row[k]}"]
    return []


def _lands_on_grid(name: str, lams: list[float], grid: list[float]) -> list[str]:
    present = set(lams)
    missing = [g for g in grid if g not in present]
    if missing:
        return [f"{name}: grid couplings missing exactly: {missing[:5]}"]
    return []


def _same_grid(name: str, lams: list[float], grid: list[float]) -> list[str]:
    if lams != grid:
        return [f"{name}: coupling column differs from the requested grid"]
    return []


def _check_track(op, tables):
    t = tables["track_pes.csv"]
    lams = t.floats("lam")
    problems = _lands_on_grid("track_pes.csv", lams, op["params"]["lams"])
    if any(b <= a for a, b in zip(lams, lams[1:])):
        problems.append("track_pes.csv: couplings not strictly ascending")
    worst = max((abs(v) for v in t.floats("sector_leakage")), default=0.0)
    if worst > LEAKAGE_TOL:
        problems.append(f"track_pes.csv: sector leakage {worst:.3e} > {LEAKAGE_TOL}")
    return problems


def _check_entanglement(op, tables):
    t = tables["entanglement_curves.csv"]
    problems = _same_grid("entanglement_curves.csv", t.floats("lam"), op["params"]["lams"])
    for col in ("S_spin", "S_osc_x", "E_N"):
        if min(t.floats(col)) < 0.0:
            problems.append(f"entanglement_curves.csv: negative {col}")
    return problems


def _check_husimi(op, tables):
    t = tables["husimi_section.csv"]
    n = op["params"]["points"]
    expected = [lam for lam in op["params"]["lams"] for _ in range(n)]
    problems = _same_grid("husimi_section.csv", t.floats("lam"), expected)
    for name, table in tables.items():
        if min(table.floats("H")) < -1e-15:
            problems.append(f"{name}: negative Husimi value")
    return problems


def _check_fixed_points(op, tables):
    t = tables["fixed_points.csv"]
    params = op["params"]
    lams = t.floats("lam")
    problems = _lands_on_grid("fixed_points.csv", lams, params["lams"])
    worst = max((abs(v) for v in t.floats("residual")), default=0.0)
    if worst > params["newton_tol"]:
        problems.append(f"fixed_points.csv: residual {worst:.3e} > newton_tol {params['newton_tol']}")
    classes = t.column("classification")
    unknown = set(classes) - CLASSIFICATIONS
    if unknown:
        problems.append(f"fixed_points.csv: unknown classifications {sorted(unknown)}")
    lb1 = params["lambda_b"][0]
    for lam in params["lams"]:
        stable = sum(1 for l, c in zip(lams, classes) if l == lam and c == "stable")
        want = 1 if lam < lb1 else 2
        if stable != want:
            problems.append(f"fixed_points.csv: {stable} stable points at lam = {lam}, "
                            f"expected {want} (lambda_b1 = {lb1:.6f})")
    return problems


def _check_detection(op, tables):
    t = tables["detection_prob.csv"]
    problems = _same_grid("detection_prob.csv", t.floats("lam"), op["params"]["lams"])
    bad = [p for p in t.floats("p_plus") if not 0.0 <= p <= 1.0]
    if bad:
        problems.append(f"detection_prob.csv: p_plus outside [0, 1]: {bad[:3]}")
    return problems


def _check_portrait(op, tables):
    problems = []
    for lam in op["params"]["lams"]:
        name = f"portrait_{float(lam)!r}.csv"
        if set(tables[name].floats("lam")) != {lam}:
            problems.append(f"{name}: coupling column is not {lam}")
    return problems


_SCENARIO_CHECKS = {
    "track-pes": _check_track,
    "entanglement-curves": _check_entanglement,
    "husimi-section": _check_husimi,
    "fixed-points": _check_fixed_points,
    "detection-prob": _check_detection,
    "portrait": _check_portrait,
}


def check_op(op: dict, out_dir: Path, exit_code) -> tuple[list[str], dict]:
    """(problems, output stats) for one operation; no problems means pass."""
    stats = {"rows": 0, "bytes": 0}
    if exit_code != 0:
        return [f"{op['name']}: exit code {exit_code}"], stats
    found = sorted(os.listdir(out_dir)) if out_dir.is_dir() else []
    expected = sorted(op["files"])
    if found != expected:
        return [f"{op['name']}: files {found}, documented {expected}"], stats
    tables = {}
    problems = []
    for name, spec in op["files"].items():
        table = Table(out_dir / name)
        tables[name] = table
        stats["rows"] += len(table.rows)
        stats["bytes"] += table.bytes
        if table.header != spec["header"]:
            problems.append(f"{name}: header {table.header}, documented {spec['header']}")
            continue
        if spec["rows"] is not None and len(table.rows) != spec["rows"]:
            problems.append(f"{name}: {len(table.rows)} rows, expected {spec['rows']}")
            continue
        problems += _check_cells(name, table)
    if not problems:
        problems += _SCENARIO_CHECKS[op["scenario"]](op, tables)
    return [f"{op['name']}: {p}" for p in problems], stats


# --- seed-0 reference values ---------------------------------------------------

def reference_values(op: dict, out_dir: Path) -> dict[str, list]:
    """Values of one operation's outputs that the reference pins, by
    'file:column'; large tables are subsampled."""
    values: dict[str, list] = {}

    def take(name: str, columns, rows=None):
        t = Table(out_dir / name)
        picked = t.rows if rows is None else [t.rows[i] for i in rows if i < len(t.rows)]
        for col in columns:
            k = t.header.index(col)
            values[f"{name}:{col}"] = [r[k] if col in STRING_COLUMNS else float(r[k])
                                       for r in picked]

    scenario = op["scenario"]
    if scenario == "entanglement-curves":
        take("entanglement_curves.csv", ["lam", "S_spin", "S_osc_x", "E_N",
                                         "dS_spin_dlam", "dS_osc_x_dlam", "dE_N_dlam"])
    elif scenario == "husimi-section":
        n = op["params"]["points"]
        take("husimi_section.csv", ["lam", "u", "H"],
             [i for i in range(len(op["params"]["lams"]) * n) if (i % n) % 10 == 0])
        take("husimi_grid2d.csv", ["q_x", "q_y", "H"],
             [i * n + j for i in range(0, n, 20) for j in range(0, n, 20)])
    elif scenario == "track-pes":
        t = Table(out_dir / "track_pes.csv")
        grid = set(op["params"]["lams"])
        rows = [i for i, lam in enumerate(t.floats("lam")) if lam in grid]
        take("track_pes.csv", ["lam", "eigenphase"], rows)
    elif scenario == "portrait":
        n = op["params"]["initial_conditions"] * PORTRAIT_REF_ITERATIONS
        for lam in op["params"]["lams"]:
            take(f"portrait_{float(lam)!r}.csv", ["q_x", "q_y"], range(n))
    elif scenario == "fixed-points":
        take("fixed_points.csv", FP_COLUMNS)
    elif scenario == "detection-prob":
        take("detection_prob.csv", ["lam", "theta", "alpha_x", "alpha_y", "p_plus"])
    return values


def _tolerance(key: str) -> float:
    column = key.split(":", 1)[1]
    if column.startswith("mod"):
        return MODULUS_TOL
    return REF_TOL.get(column, 0.0)      # couplings and coordinates: exact


def compare_reference(op_name: str, reference: dict[str, list],
                      current: dict[str, list]) -> list[str]:
    """Problems where current values leave the reference tolerance."""
    problems = []
    for key, ref in reference.items():
        cur = current.get(key)
        if cur is None or len(cur) != len(ref):
            problems.append(f"{op_name}: {key}: {0 if cur is None else len(cur)} values, "
                            f"reference has {len(ref)}")
            continue
        tol = _tolerance(key)
        for i, (a, b) in enumerate(zip(cur, ref)):
            if isinstance(b, str) or isinstance(a, str):
                bad = a != b
            else:
                bad = not abs(a - b) <= tol
            if bad:
                problems.append(f"{op_name}: {key}[{i}] = {a!r}, reference {b!r} (tol {tol:g})")
                break
    return problems


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}
