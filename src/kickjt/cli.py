"""kickjt command line: scenario runner with deterministic CSV outputs.

Usage: kickjt <subcommand> --config <path> [--out <dir>] [--threads N] [--check]

Subcommands: critical-couplings, fixed-points, portrait, track-pgs,
track-pes, husimi-section, entanglement-curves, detection-prob.  Exit
codes: 0 success, 2 configuration error, 3 compute error.  Identical
configurations produce byte-identical files regardless of --threads: work
items are independent and merged in a fixed order, and floats are written
with shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import observables as obs
from . import quantum_floquet as qf
from .bifurcation import (DEFAULT_RING_RADII, PortraitGrid, Stability,
                          critical_couplings, default_seeds, find_fixed_points,
                          portrait)
from .configfile import ScenarioConfig
from .errors import ComputeError, ConfigError, KickJTError, OutOfRange
from .model import ModelParams, NumericsConfig, ValidatedConfig, validate_params


# --- result plumbing ---------------------------------------------------------

@dataclass
class Table:
    """One CSV output: header, rows, and how many leading columns form the
    row key used by the --check comparison."""

    header: list[str]
    rows: list[tuple]
    key_cols: int = 1


@dataclass
class ScenarioResult:
    tables: dict[str, Table] = field(default_factory=dict)
    text: str = ""


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_table(path: Path, table: Table) -> None:
    # temp file in the same directory, then atomic rename: a failed run
    # never leaves a partial CSV behind
    payload = ",".join(table.header) + "\n"
    payload += "".join(",".join(_fmt_cell(c) for c in row) + "\n" for row in table.rows)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_parallel(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# --- configuration helpers ---------------------------------------------------

def _numerics(scfg: ScenarioConfig) -> NumericsConfig:
    return NumericsConfig(
        n_t=scfg.get_int("numerics.n_t", 18),
        newton_tol=scfg.get_float("numerics.newton_tol", 1e-12),
        newton_max_iter=scfg.get_int("numerics.newton_max_iter", 50),
        overlap_threshold=scfg.get_float("numerics.overlap_threshold", 0.01),
        eig_residual_tol=scfg.get_float("numerics.eig_residual_tol", 1e-9),
    )


def _model_config(scfg: ScenarioConfig, lam: float = 0.0) -> ValidatedConfig:
    omega = scfg.require_float("model.omega")
    delta = scfg.require_float("model.delta")
    try:
        return validate_params(ModelParams(omega, delta, lam), _numerics(scfg))
    except OutOfRange as exc:
        raise ConfigError(str(exc))


def _momentum_slope(scfg: ScenarioConfig, key: str, cfg: ValidatedConfig) -> float:
    raw = scfg.get_str(key, "auto")
    if raw == "auto":
        return -math.tan(cfg.omega / 2.0)
    value = scfg.get_float(key)
    assert value is not None
    return value


def _fp_columns() -> list[str]:
    return (["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z",
             "residual", "classification"] + [f"mod{k}" for k in range(1, 7)])


def _fp_row(lam: float, fp) -> tuple:
    o, s = fp.point.osc, fp.point.spin
    return (lam, o.q_x, o.q_y, o.p_x, o.p_y, s.s_x, s.s_y, s.s_z,
            fp.residual, fp.classification.value, *fp.multiplier_moduli)


# --- scenarios ---------------------------------------------------------------

def scenario_critical_couplings(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    cfg = _model_config(scfg)
    couplings = critical_couplings(cfg.omega, cfg.delta)
    rows = [(c.value, c.branch) for c in couplings]
    lines = ["lambda_b  branch"] + [f"{c.value:.6f}  {c.branch:+d}" for c in couplings]
    if not rows:
        lines.append("(no bifurcation for these parameters)")
    return ScenarioResult(
        tables={"critical_couplings.csv": Table(["lambda_b", "branch"], rows, key_cols=0)},
        text="\n".join(lines),
    )


def scenario_fixed_points(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    radii = scfg.get_floats("fixed_points.radii", list(DEFAULT_RING_RADII))

    def census(lam: float) -> list[tuple]:
        cfg_l = cfg.with_lam(lam)
        fps = find_fixed_points(cfg_l, default_seeds(cfg_l, radii))
        return [_fp_row(lam, fp) for fp in fps]

    rows = [row for group in _run_parallel(census, lams, threads) for row in group]
    return ScenarioResult(tables={"fixed_points.csv": Table(_fp_columns(), rows)})


def scenario_portrait(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    spin = scfg.get_floats("portrait.spin", [0.0, 0.0, -0.5])
    if len(spin) != 3:
        raise ConfigError("portrait.spin needs exactly three components")
    slope_raw = scfg.get_str("portrait.momentum_slope", "auto")
    grid = PortraitGrid(
        radii=tuple(scfg.get_floats("portrait.radii", list(PortraitGrid.radii))),
        n_angles=scfg.get_int("portrait.angles", 16),
        momentum_slope=None if slope_raw == "auto" else scfg.get_float("portrait.momentum_slope"),
        spin=(spin[0], spin[1], spin[2]),
    )
    n_iter = scfg.get_int("portrait.iterations", 2000)

    def one(lam: float) -> tuple[str, Table]:
        points = portrait(cfg.with_lam(lam), grid, n_iter)
        rows = [(lam, float(x), float(y)) for x, y in points]
        return f"portrait_{_fmt_cell(lam)}.csv", Table(["lam", "q_x", "q_y"], rows, key_cols=0)

    tables = dict(_run_parallel(one, lams, threads))
    return ScenarioResult(tables=tables)


def _tracked_path(scfg: ScenarioConfig, cfg: ValidatedConfig, basis: qf.FockBasis,
                  seed: np.ndarray, stops: list[float]):
    end = max(stops)
    if end <= 0.0:
        raise ConfigError("tracking needs a coupling grid reaching beyond 0")
    return qf.track_eigenstate(
        0.0, end, seed, cfg, basis,
        stops=[s for s in stops if s > 0.0],
        initial_dlam=scfg.get_float("track.initial_step", 0.01),
        max_dlam=scfg.get_float("track.max_step", 0.02),
    )


def _scenario_track(scfg: ScenarioConfig, threads: int, which: str) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    basis = qf.build_basis(cfg.n_t)
    seed = qf.pgs_seed(basis) if which == "pgs" else qf.pes_seed(basis)
    path = _tracked_path(scfg, cfg, basis, seed, lams)
    sector = path.sector or "O"
    rows = [(s.lam, s.eigenphase, qf.sector_leakage(s.state, basis, sector), s.dlam_used)
            for s in path.samples]
    name = f"track_{which}.csv"
    return ScenarioResult(tables={
        name: Table(["lam", "eigenphase", "sector_leakage", "dlam_used"], rows)})


def scenario_track_pgs(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    return _scenario_track(scfg, threads, "pgs")


def scenario_track_pes(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    return _scenario_track(scfg, threads, "pes")


def scenario_husimi_section(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    basis = qf.build_basis(cfg.n_t)
    bound = scfg.get_float("husimi.section_bound", 6.0)
    n_pts = scfg.get_int("husimi.section_points", 161)
    slope = _momentum_slope(scfg, "husimi.momentum_slope", cfg)
    grid2d_lam = scfg.get_float("husimi.grid2d_lambda")

    stops = list(lams)
    if grid2d_lam is not None:
        stops = sorted(set(stops) | {grid2d_lam})
    pgs = _tracked_path(scfg, cfg, basis, qf.pgs_seed(basis), stops)

    coords = np.linspace(-bound, bound, n_pts)
    section = obs.diagonal_line_section(slope)

    def one(lam: float) -> list[tuple]:
        state = pgs.sample_at(lam).state
        values = obs.husimi_on_section(state, basis, section, coords).values
        return [(lam, float(u), float(h)) for u, h in zip(coords, values)]

    rows = [row for group in _run_parallel(one, lams, threads) for row in group]
    tables = {"husimi_section.csv": Table(["lam", "u", "H"], rows, key_cols=2)}

    if grid2d_lam is not None:
        pes = _tracked_path(scfg, cfg, basis, qf.pes_seed(basis), [grid2d_lam])
        psi_g = pgs.sample_at(grid2d_lam).state
        psi_e = pes.sample_at(grid2d_lam).state
        even = psi_g + psi_e
        even /= np.linalg.norm(even)
        alphas = coords * (1.0 + 1j * slope) / math.sqrt(2.0)
        values = obs.husimi_product_grid(even, basis, alphas, alphas)
        rows2 = [(float(qx), float(qy), float(values[i, j]))
                 for i, qx in enumerate(coords) for j, qy in enumerate(coords)]
        tables["husimi_grid2d.csv"] = Table(["q_x", "q_y", "H"], rows2, key_cols=2)
    return ScenarioResult(tables=tables)


def scenario_entanglement_curves(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    basis = qf.build_basis(cfg.n_t)
    path = _tracked_path(scfg, cfg, basis, qf.pgs_seed(basis), lams)

    def measures(lam: float):
        state = path.sample_at(lam).state
        return obs.entanglement_measures(state, basis).as_tuple()

    triples = _run_parallel(measures, lams, threads)
    s_spin = [t[0] for t in triples]
    s_osc = [t[1] for t in triples]
    e_n = [t[2] for t in triples]
    d_spin = obs.curve_derivative(lams, s_spin)
    d_osc = obs.curve_derivative(lams, s_osc)
    d_en = obs.curve_derivative(lams, e_n)
    rows = [(lam, s_spin[k], s_osc[k], e_n[k], float(d_spin[k]), float(d_osc[k]), float(d_en[k]))
            for k, lam in enumerate(lams)]
    header = ["lam", "S_spin", "S_osc_x", "E_N",
              "dS_spin_dlam", "dS_osc_x_dlam", "dE_N_dlam"]
    return ScenarioResult(tables={"entanglement_curves.csv": Table(header, rows)})


def scenario_detection_prob(scfg: ScenarioConfig, threads: int) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    radii = scfg.get_floats("fixed_points.radii", list(DEFAULT_RING_RADII))

    def one(lam: float) -> tuple:
        cfg_l = cfg.with_lam(lam)
        fps = find_fixed_points(cfg_l, default_seeds(cfg_l, radii))
        stable = [fp for fp in fps if fp.classification is Stability.STABLE]
        if not stable:
            raise ComputeError(f"no stable fixed point at lam = {lam}")
        target = max(stable, key=lambda fp: (fp.point.osc.q_x, fp.point.osc.q_y))
        o, s = target.point.osc, target.point.spin
        direction = obs.SpinDirection.from_spin_vector(s)
        alpha_x = math.hypot(o.q_x, o.p_x) / math.sqrt(2.0)
        alpha_y = math.hypot(o.q_y, o.p_y) / math.sqrt(2.0)
        p_plus = obs.detection_probability(direction.theta, alpha_x, alpha_y)
        return (lam, direction.theta, alpha_x, alpha_y, p_plus)

    rows = _run_parallel(one, lams, threads)
    header = ["lam", "theta", "alpha_x", "alpha_y", "p_plus"]
    return ScenarioResult(tables={"detection_prob.csv": Table(header, rows)})


SCENARIOS = {
    "critical-couplings": scenario_critical_couplings,
    "fixed-points": scenario_fixed_points,
    "portrait": scenario_portrait,
    "track-pgs": scenario_track_pgs,
    "track-pes": scenario_track_pes,
    "husimi-section": scenario_husimi_section,
    "entanglement-curves": scenario_entanglement_curves,
    "detection-prob": scenario_detection_prob,
}


# --- truncation convergence check (--check) -----------------------------------

def _compare_tables(name: str, base: Table, bumped: Table) -> list[str]:
    lines = []
    if base.header != bumped.header:
        return [f"{name}: headers differ"]
    if base.key_cols == 0:
        groups_a = {(k,): [row] for k, row in enumerate(base.rows)}
        groups_b = {(k,): [row] for k, row in enumerate(bumped.rows)}
    else:
        groups_a, groups_b = {}, {}
        for rows, groups in ((base.rows, groups_a), (bumped.rows, groups_b)):
            for row in rows:
                groups.setdefault(tuple(_fmt_cell(c) for c in row[:base.key_cols]), []).append(row)
    shared = [k for k in groups_a if k in groups_b]
    n_cols = len(base.header)
    worst = np.zeros(n_cols)
    scale = np.full(n_cols, 1e-300)
    mismatched_groups = 0
    for key in shared:
        rows_a, rows_b = groups_a[key], groups_b[key]
        if len(rows_a) != len(rows_b):
            mismatched_groups += 1
            continue
        for ra, rb in zip(rows_a, rows_b):
            for j in range(base.key_cols, n_cols):
                a, b = ra[j], rb[j]
                if isinstance(a, (int, float, np.floating, np.integer)):
                    scale[j] = max(scale[j], abs(float(a)))
                    worst[j] = max(worst[j], abs(float(a) - float(b)))
                elif a != b:
                    worst[j] = max(worst[j], 1.0)
                    scale[j] = max(scale[j], 1.0)
    for j in range(base.key_cols, n_cols):
        if scale[j] > 1e-300 or worst[j] > 0:
            rel = worst[j] / max(scale[j], 1e-300)
            lines.append(f"{name}: column {base.header[j]}: max relative deviation {rel:.3e}")
    lines.append(f"{name}: {len(shared)} shared keys, {mismatched_groups} row-count mismatches")
    return lines


def truncation_check(command: str, scfg: ScenarioConfig, threads: int) -> str:
    n_t = scfg.get_int("numerics.n_t", 18)
    base = SCENARIOS[command](scfg, threads)
    bumped_cfg = ScenarioConfig.from_text(
        "\n".join(f"{k} = {v.value}" for k, v in scfg._entries.items() if k != "numerics.n_t")
        + f"\nnumerics.n_t = {n_t + 4}\n")
    bumped = SCENARIOS[command](bumped_cfg, threads)
    lines = [f"truncation check: n_t = {n_t} vs {n_t + 4}"]
    for name in base.tables:
        if name in bumped.tables:
            lines.extend(_compare_tables(name, base.tables[name], bumped.tables[name]))
        else:
            lines.append(f"{name}: missing from bumped run")
    return "\n".join(lines)


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickjt",
        description="Kicked two-mode Jahn-Teller model scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario configuration file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads (default: available cores)")
        p.add_argument("--check", action="store_true",
                       help="re-run at n_t + 4 and report truncation deviations")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scfg = ScenarioConfig.from_file(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        result = SCENARIOS[args.command](scfg, max(1, args.threads))
        for name, table in result.tables.items():
            _write_table(out_dir / name, table)
        if result.text:
            print(result.text)
        for name in result.tables:
            print(f"wrote {out_dir / name}")
        if args.check:
            print(truncation_check(args.command, scfg, max(1, args.threads)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KickJTError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
