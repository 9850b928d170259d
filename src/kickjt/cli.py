"""kickjt command line: scenario runner with deterministic CSV outputs.

Usage: kickjt <subcommand> --config <path> [--out <dir>] [--threads N] [--check]

Subcommands: critical-couplings, fixed-points, portrait, track-pgs,
track-pes, husimi-section, entanglement-curves, detection-prob.  Exit
codes: 0 success, 2 configuration error, 3 compute error; a key the config
file sets that the scenario never reads is a configuration error.  Each
scenario runs its couplings one after another in grid order, BLAS runs on
one thread, and floats are written with shortest round-trip precision, so
identical configurations produce byte-identical files.  --threads is
accepted for compatibility and has no effect.  --check reruns the quantum
scenarios at n_t + 4 and reports the deviations; the scenarios in
UNTRUNCATED have no truncation and report that instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import observables as obs
from . import quantum_floquet as qf
from .bifurcation import (PortraitGrid, Stability, critical_couplings,
                          default_seeds, find_fixed_points, portrait)
from .configfile import ScenarioConfig
from .errors import (ComputeError, ConfigError, KickJTError, NonFiniteState,
                     OutOfRange)
from .model import ValidatedConfig


# --- result plumbing ---------------------------------------------------------

@dataclass
class Table:
    """One CSV output: header, one equal-length column per header field, and
    how many leading columns form the row key used by the --check comparison.

    A column is a float64 ndarray or any sequence of cells."""

    header: list[str]
    columns: list
    key_cols: int = 1

    @classmethod
    def from_rows(cls, header: list[str], rows: list[tuple]) -> Table:
        """Transpose a list of row tuples; no rows gives empty columns."""
        return cls(header, list(zip(*rows)) if rows else [()] * len(header))


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


def _fmt_column(column) -> list[str]:
    # repr of the Python floats from tolist() is _fmt_cell's text for every
    # float64 cell, without a per-cell type dispatch
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits = column.view(np.int64)
        if bits.size and (bits == bits[0]).all():
            # one value, bit for bit (so 0.0 and -0.0 never merge): one repr
            return [repr(float(column[0]))] * column.size
        return list(map(repr, column.tolist()))
    return [_fmt_cell(c) for c in column]


def _write_table(path: Path, table: Table) -> None:
    # temp file in the same directory, then atomic rename: a failed run
    # never leaves a partial CSV behind
    lines = [",".join(table.header)]
    lines.extend(map(",".join, zip(*map(_fmt_column, table.columns))))
    payload = "\n".join(lines) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- configuration helpers ---------------------------------------------------

def _model_config(scfg: ScenarioConfig) -> ValidatedConfig:
    """The config at lam = 0; a numerics.<field> key sets the config field
    of that name, and an unset one keeps the field's default."""
    omega = scfg.require_float("model.omega")
    delta = scfg.require_float("model.delta")
    numerics = {}
    for f in fields(ValidatedConfig):
        if f.default is not MISSING:
            get = scfg.get_int if isinstance(f.default, int) else scfg.get_float
            numerics[f.name] = get(f"numerics.{f.name}", f.default)
    try:
        return ValidatedConfig(omega, delta, 0.0, **numerics)
    except OutOfRange as exc:
        raise ConfigError(str(exc))


def _int_at_least(scfg: ScenarioConfig, key: str, default: int, least: int) -> int:
    value = scfg.get_int(key, default)
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _fp_columns() -> list[str]:
    return (["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z",
             "residual", "classification"] + [f"mod{k}" for k in range(1, 7)])


def _fp_row(lam: float, fp) -> tuple:
    o, s = fp.point.osc, fp.point.spin
    return (lam, o.q_x, o.q_y, o.p_x, o.p_y, s.s_x, s.s_y, s.s_z,
            fp.residual, fp.classification.value, *fp.multiplier_moduli)


def _fixed_point_census(scfg: ScenarioConfig):
    """Yield (lam, fixed points) for each coupling of the grid, in order."""
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    for lam in lams:
        cfg_l = replace(cfg, lam=lam)
        try:
            fps = find_fixed_points(cfg_l, default_seeds(cfg_l))
        except NonFiniteState as exc:
            raise ComputeError(f"fixed-point search at lam = {lam!r}: {exc}") from exc
        yield lam, fps


# --- scenarios ---------------------------------------------------------------

def scenario_critical_couplings(scfg: ScenarioConfig) -> ScenarioResult:
    cfg = _model_config(scfg)
    couplings = critical_couplings(cfg.omega, cfg.delta)
    rows = [(c.value, c.branch) for c in couplings]
    lines = ["lambda_b  branch"] + [f"{c.value:.6f}  {c.branch:+d}" for c in couplings]
    if not rows:
        lines.append("(no bifurcation for these parameters)")
    return ScenarioResult(
        tables={"critical_couplings.csv": Table.from_rows(["lambda_b", "branch"], rows)},
        text="\n".join(lines),
    )


def scenario_fixed_points(scfg: ScenarioConfig) -> ScenarioResult:
    rows = [_fp_row(lam, fp) for lam, fps in _fixed_point_census(scfg) for fp in fps]
    return ScenarioResult(tables={"fixed_points.csv": Table.from_rows(_fp_columns(), rows)})


def scenario_portrait(scfg: ScenarioConfig) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    grid = PortraitGrid(
        radii=tuple(scfg.get_floats("portrait.radii", list(PortraitGrid.radii))),
        n_angles=_int_at_least(scfg, "portrait.angles", 16, 1),
    )
    n_iter = _int_at_least(scfg, "portrait.iterations", 2000, 0)
    tables = {}
    for lam in lams:
        try:
            points = portrait(replace(cfg, lam=lam), grid, n_iter)
        except NonFiniteState as exc:
            raise ComputeError(f"portrait at lam = {lam!r}: {exc}") from exc
        columns = [np.full(len(points), lam), points[:, 0], points[:, 1]]
        tables[f"portrait_{_fmt_cell(lam)}.csv"] = Table(["lam", "q_x", "q_y"], columns)
    return ScenarioResult(tables=tables)


def _tracked_path(cfg: ValidatedConfig, seed: np.ndarray, stops: list[float]):
    end = max(stops)
    if end <= 0.0:
        raise ConfigError("tracking needs a coupling grid reaching beyond 0")
    return qf.track_eigenstate(0.0, end, seed, cfg, stops=[s for s in stops if s > 0.0])


def _scenario_track(scfg: ScenarioConfig, which: str) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    seed = qf.pgs_seed(cfg.n_t) if which == "pgs" else qf.pes_seed(cfg.n_t)
    path = _tracked_path(cfg, seed, lams)
    rows = [(s.lam, s.eigenphase, qf.sector_leakage(s.state, path.sector), s.dlam_used)
            for s in path.samples]
    name = f"track_{which}.csv"
    return ScenarioResult(tables={
        name: Table.from_rows(["lam", "eigenphase", "sector_leakage", "dlam_used"], rows)})


def scenario_track_pgs(scfg: ScenarioConfig) -> ScenarioResult:
    return _scenario_track(scfg, "pgs")


def scenario_track_pes(scfg: ScenarioConfig) -> ScenarioResult:
    return _scenario_track(scfg, "pes")


def scenario_husimi_section(scfg: ScenarioConfig) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    bound = scfg.get_float("husimi.section_bound", 6.0)
    if not bound > 0.0:
        raise ConfigError(f"husimi.section_bound must be > 0, got {bound!r}")
    n_pts = _int_at_least(scfg, "husimi.section_points", 161, 2)
    slope = -math.tan(cfg.omega / 2.0)
    grid2d_lam = scfg.get_float("husimi.grid2d_lambda")
    if grid2d_lam is not None and grid2d_lam <= 0.0:
        raise ConfigError(f"husimi.grid2d_lambda must be > 0, got {grid2d_lam!r}")

    stops = list(lams)
    if grid2d_lam is not None:
        stops = sorted(set(stops) | {grid2d_lam})
    pgs = _tracked_path(cfg, qf.pgs_seed(cfg.n_t), stops)

    coords = np.linspace(-bound, bound, n_pts)
    values = [obs.husimi_on_section(pgs.sample_at(lam).state, slope, coords)
              for lam in lams]
    columns = [np.repeat(lams, n_pts), np.tile(coords, len(lams)), np.concatenate(values)]
    tables = {"husimi_section.csv": Table(["lam", "u", "H"], columns, key_cols=2)}

    if grid2d_lam is not None:
        pes = _tracked_path(cfg, qf.pes_seed(cfg.n_t), [grid2d_lam])
        psi_g = pgs.sample_at(grid2d_lam).state
        psi_e = pes.sample_at(grid2d_lam).state
        even = psi_g + psi_e
        even /= np.linalg.norm(even)
        alphas = obs.section_amplitudes(coords, slope)
        grid = obs.husimi_product_grid(even, alphas, alphas)
        columns = [np.repeat(coords, n_pts), np.tile(coords, n_pts), grid.ravel()]
        tables["husimi_grid2d.csv"] = Table(["q_x", "q_y", "H"], columns, key_cols=2)
    return ScenarioResult(tables=tables)


def scenario_entanglement_curves(scfg: ScenarioConfig) -> ScenarioResult:
    lams = scfg.lambda_values()
    cfg = _model_config(scfg)
    path = _tracked_path(cfg, qf.pgs_seed(cfg.n_t), lams)
    triples = [obs.entanglement_measures(path.sample_at(lam).state)
               for lam in lams]
    s_spin = [t[0] for t in triples]
    s_osc = [t[1] for t in triples]
    e_n = [t[2] for t in triples]
    columns = [lams, s_spin, s_osc, e_n, obs.curve_derivative(lams, s_spin),
               obs.curve_derivative(lams, s_osc), obs.curve_derivative(lams, e_n)]
    header = ["lam", "S_spin", "S_osc_x", "E_N",
              "dS_spin_dlam", "dS_osc_x_dlam", "dE_N_dlam"]
    return ScenarioResult(tables={"entanglement_curves.csv": Table(header, columns)})


def scenario_detection_prob(scfg: ScenarioConfig) -> ScenarioResult:
    rows = []
    for lam, fps in _fixed_point_census(scfg):
        stable = [fp for fp in fps if fp.classification is Stability.STABLE]
        if not stable:
            raise ComputeError(f"no stable fixed point at lam = {lam}")
        target = max(stable, key=lambda fp: (fp.point.osc.q_x, fp.point.osc.q_y))
        o, s = target.point.osc, target.point.spin
        direction = obs.SpinDirection.from_spin_vector(s)
        alpha_x = math.hypot(o.q_x, o.p_x) / math.sqrt(2.0)
        alpha_y = math.hypot(o.q_y, o.p_y) / math.sqrt(2.0)
        p_plus = obs.detection_probability(direction.theta, alpha_x, alpha_y)
        rows.append((lam, direction.theta, alpha_x, alpha_y, p_plus))
    header = ["lam", "theta", "alpha_x", "alpha_y", "p_plus"]
    return ScenarioResult(tables={"detection_prob.csv": Table.from_rows(header, rows)})


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

def _keyed_rows(table: Table) -> dict:
    """Row key (the leading key_cols cells, as written) -> value cells."""
    keys = zip(*map(_fmt_column, table.columns[:table.key_cols]))
    return dict(zip(keys, np.column_stack(table.columns[table.key_cols:])))


def _compare_tables(name: str, base: Table, bumped: Table) -> list[str]:
    if base.header != bumped.header:
        return [f"{name}: headers differ"]
    rows_a, rows_b = _keyed_rows(base), _keyed_rows(bumped)
    shared = [key for key in rows_a if key in rows_b]
    width = len(base.header) - base.key_cols
    a = np.reshape([rows_a[key] for key in shared], (-1, width))
    b = np.reshape([rows_b[key] for key in shared], (-1, width))
    worst = np.max(np.abs(a - b), axis=0, initial=0.0)
    scale = np.max(np.abs(a), axis=0, initial=1e-300)
    lines = [f"{name}: column {col}: max relative deviation {w / s:.3e}"
             for col, w, s in zip(base.header[base.key_cols:], worst, scale)
             if s > 1e-300 or w > 0]
    lines.append(f"{name}: {len(shared)} shared keys")
    return lines


# scenarios that never read numerics.n_t: --check has nothing to vary
UNTRUNCATED = frozenset({"critical-couplings", "fixed-points", "portrait", "detection-prob"})


def truncation_check(command: str, scfg: ScenarioConfig, base: ScenarioResult) -> str:
    """Rerun the scenario at n_t + 4 and compare its tables with base, the
    result of the run at the configured n_t."""
    if command in UNTRUNCATED:
        return f"truncation check: {command} has no truncation parameter"
    n_t = _model_config(scfg).n_t
    bumped_cfg = ScenarioConfig.from_text(
        "\n".join(f"{k} = {v.value}" for k, v in scfg._entries.items() if k != "numerics.n_t")
        + f"\nnumerics.n_t = {n_t + 4}\n")
    bumped = SCENARIOS[command](bumped_cfg)
    lines = [f"truncation check: n_t = {n_t} vs {n_t + 4}"]
    for name in base.tables:
        if name in bumped.tables:
            lines.extend(_compare_tables(name, base.tables[name], bumped.tables[name]))
        else:
            lines.append(f"{name}: missing from bumped run")
    return "\n".join(lines)


# --- entry point ---------------------------------------------------------------

# (get, set) thread-count entry points of the OpenBLAS builds bundled with
# numpy (64-bit integer interface) and with scipy
_OPENBLAS_THREAD_FNS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of the OpenBLAS libraries bundled in
    numpy.libs and scipy.libs; empty for a BLAS without these entry points."""
    controls = []
    for module in (np, scipy):
        libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_THREAD_FNS:
                get_fn, set_fn = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get_fn is not None and set_fn is not None:
                    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                    controls.append((get_fn, set_fn))
    return controls


@contextmanager
def _single_thread_blas():
    """Run the body with the bundled OpenBLAS libraries at one thread, then
    restore their previous counts, so library callers are left as they were.

    The last digits of the quantum outputs depend on the BLAS thread count;
    one thread makes them independent of the host and of
    OPENBLAS_NUM_THREADS.
    """
    controls = _openblas_thread_controls()
    previous = [get_fn() for get_fn, _ in controls]
    for _, set_fn in controls:
        set_fn(1)
    try:
        yield
    finally:
        for (_, set_fn), count in zip(controls, previous):
            set_fn(count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickjt",
        description="Kicked two-mode Jahn-Teller model scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario configuration file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--check", action="store_true",
                       help="re-run at n_t + 4 and report truncation deviations"
                            " (scenarios without n_t only say so)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _single_thread_blas():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        scfg = ScenarioConfig.from_file(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        result = SCENARIOS[args.command](scfg)
        unread = scfg.unread()
        if unread:
            raise ConfigError(f"{args.command} does not read " + ", ".join(
                f"{key!r} (line {line})" for key, line in unread))
        for name, table in result.tables.items():
            _write_table(out_dir / name, table)
        if result.text:
            print(result.text)
        for name in result.tables:
            print(f"wrote {out_dir / name}")
        if args.check:
            print(truncation_check(args.command, scfg, result))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KickJTError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
