"""kickjt command line: scenario runner with deterministic CSV outputs.

Usage: kickjt <subcommand> --config <path> [--out <dir>] [--threads N] [--check]

Subcommands: critical-couplings, fixed-points, portrait, track-pgs,
track-pes, husimi-section, entanglement-curves, detection-prob.  Exit
codes: 0 success, 2 configuration error, 3 compute error; the config file
is checked against the scenario's declared keys (DECLARED, KEYS) before it
runs.  Each scenario runs its couplings one after another in grid order
(portrait iterates them as one stack), BLAS runs on one thread, and floats
are written with shortest round-trip precision, so identical
configurations produce byte-identical files, whether the rows of a large
run are formatted in this process or in forked ones.  --threads is
accepted for compatibility and has no effect.  --check reruns the quantum
scenarios at n_t + 4 and reports the deviations; a scenario that does not
declare numerics.n_t has no truncation and reports that instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import math
import operator
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import observables as obs
from . import quantum_floquet as qf
from .bifurcation import (PortraitGrid, Stability, critical_couplings,
                          default_seeds, find_fixed_points, portrait)
from . import configfile as cf
from .errors import (ComputeError, ConfigError, KickJTError, NonFiniteState,
                     OutOfRange)
from .model import MAX_N_T, ValidatedConfig


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


# rows per formatting task; a run's tables are formatted on a forked pool
# only when they hold at least two such blocks in all
CHUNK_ROWS = 1 << 16

# the tables of the run, in a forked formatter process only (_adopt_tables)
_forked_tables: list[Table] = []


def _row_blocks(table: Table) -> list[tuple[int, int]]:
    """(start, stop) of each block of at most CHUNK_ROWS rows, in order."""
    rows = len(table.columns[0]) if table.columns else 0
    return [(start, min(start + CHUNK_ROWS, rows)) for start in range(0, rows, CHUNK_ROWS)]


def _format_block(table: Table, start: int, stop: int) -> str:
    """The CSV lines of rows [start, stop) of table, each ending in a newline."""
    cells = (_fmt_column(column[start:stop]) for column in table.columns)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _adopt_tables(tables: list[Table]) -> None:
    global _forked_tables
    _forked_tables = tables


def _format_task(task: tuple[int, int, int]) -> str:
    index, start, stop = task
    return _format_block(_forked_tables[index], start, stop)


def _write_tables(out_dir: Path, tables: dict[str, Table]) -> None:
    """Write each table to out_dir/<name> as CSV, in order.

    Rows are formatted in blocks of CHUNK_ROWS.  When the tables hold at
    least two blocks and this process may run on at least two CPUs, the
    blocks are formatted on min(CPUs, rows // CHUNK_ROWS) forked processes,
    which see the tables through the fork, so nothing is pickled but the
    text; otherwise, or where fork is not available, they are formatted in
    this process.
    The bytes are the same either way.  Each file goes through a temp file
    in out_dir and an atomic rename, so a failed run never leaves a partial
    CSV behind, and every forked process is joined before this returns.
    """
    listed = list(tables.values())
    tasks = [(index, start, stop) for index, table in enumerate(listed)
             for start, stop in _row_blocks(table)]
    # sched_getaffinity exists on Linux only; elsewhere count every CPU
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    workers = min(cpus, sum(stop - start for _, start, stop in tasks) // CHUNK_ROWS)
    pool = None
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_adopt_tables, initargs=(listed,))
    try:
        if pool is None:
            blocks = (_format_block(listed[index], start, stop) for index, start, stop in tasks)
        else:
            blocks = pool.map(_format_task, tasks)
        for name, table in tables.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                    fh.write(",".join(table.header) + "\n")
                    for _ in _row_blocks(table):
                        fh.write(next(blocks))
                os.replace(tmp, out_dir / name)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
    finally:
        if pool is not None:
            # joins every worker; blocks not yet started are dropped
            pool.shutdown(cancel_futures=True)


# --- scenarios ---------------------------------------------------------------

def _fp_columns() -> list[str]:
    return (["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z",
             "residual", "classification"] + [f"mod{k}" for k in range(1, 7)])


def _fp_row(lam: float, fp) -> tuple:
    return (lam, *fp.point.tolist(), fp.residual, fp.classification.value,
            *fp.multiplier_moduli)


def _fixed_point_census(cfg: ValidatedConfig, lams: list[float]):
    """Yield (lam, fixed points) for each coupling of lams, in order."""
    for lam in lams:
        cfg_l = replace(cfg, lam=lam)
        try:
            fps = find_fixed_points(cfg_l, default_seeds(cfg_l))
        except NonFiniteState as exc:
            raise ComputeError(f"fixed-point search at lam = {lam!r}: {exc}") from exc
        yield lam, fps


# each scenario takes the inputs that validate() returns
def scenario_critical_couplings(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    couplings = critical_couplings(cfg.omega, cfg.delta)
    rows = [(c.value, c.branch) for c in couplings]
    lines = ["lambda_b  branch"] + [f"{c.value:.6f}  {c.branch:+d}" for c in couplings]
    if not rows:
        lines.append("(no bifurcation for these parameters)")
    return ScenarioResult(
        tables={"critical_couplings.csv": Table.from_rows(["lambda_b", "branch"], rows)},
        text="\n".join(lines),
    )


def scenario_fixed_points(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    rows = [_fp_row(lam, fp) for lam, fps in _fixed_point_census(cfg, lams) for fp in fps]
    return ScenarioResult(tables={"fixed_points.csv": Table.from_rows(_fp_columns(), rows)})


def scenario_portrait(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    grid = PortraitGrid(radii=tuple(values["portrait.radii"]),
                        n_angles=values["portrait.angles"])
    clouds = portrait(cfg, grid, values["portrait.iterations"], lams).reshape(len(lams), -1, 2)
    tables = {}
    for lam, points in zip(lams, clouds):
        columns = [np.full(len(points), lam), points[:, 0], points[:, 1]]
        tables[f"portrait_{_fmt_cell(lam)}.csv"] = Table(["lam", "q_x", "q_y"], columns)
    return ScenarioResult(tables=tables)


def _tracked_path(cfg: ValidatedConfig, seed: np.ndarray, stops: list[float]):
    return qf.track_eigenstate(0.0, max(stops), seed, cfg, stops=[s for s in stops if s > 0.0])


def _scenario_track(cfg: ValidatedConfig, lams, which: str) -> ScenarioResult:
    seed = qf.pgs_seed(cfg.n_t) if which == "pgs" else qf.pes_seed(cfg.n_t)
    path = _tracked_path(cfg, seed, lams)
    rows = [(s.lam, s.eigenphase, qf.sector_leakage(s.state, path.sector), s.dlam_used)
            for s in path.samples]
    name = f"track_{which}.csv"
    return ScenarioResult(tables={
        name: Table.from_rows(["lam", "eigenphase", "sector_leakage", "dlam_used"], rows)})


def scenario_track_pgs(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    return _scenario_track(cfg, lams, "pgs")


def scenario_track_pes(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    return _scenario_track(cfg, lams, "pes")


def scenario_husimi_section(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    bound, n_pts = values["husimi.section_bound"], values["husimi.section_points"]
    grid2d_lam = values["husimi.grid2d_lambda"]
    slope = -math.tan(cfg.omega / 2.0)

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


def scenario_entanglement_curves(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
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


def scenario_detection_prob(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    rows = []
    for lam, fps in _fixed_point_census(cfg, lams):
        stable = [fp for fp in fps if fp.classification is Stability.STABLE]
        if not stable:
            raise ComputeError(f"no stable fixed point at lam = {lam}")
        target = max(stable, key=lambda fp: (fp.point[0], fp.point[1]))
        q_x, q_y, p_x, p_y, s_x, s_y, s_z = target.point.tolist()
        direction = obs.SpinDirection.from_spin_vector(s_x, s_y, s_z)
        alpha_x = math.hypot(q_x, p_x) / math.sqrt(2.0)
        alpha_y = math.hypot(q_y, p_y) / math.sqrt(2.0)
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


# --- configuration -------------------------------------------------------------

_MODEL = ("model.omega", "model.delta")
_COUPLINGS = (*_MODEL, "model.lambda_list", "model.lambda_grid")
_TRACKED = (*_COUPLINGS, "numerics.n_t")

# the keys each scenario reads; a file that sets any other key is refused
DECLARED = {
    "critical-couplings": _MODEL,
    "fixed-points": (*_COUPLINGS, "numerics.newton_tol"),
    "portrait": (*_COUPLINGS, "portrait.radii", "portrait.angles", "portrait.iterations"),
    "track-pgs": _TRACKED,
    "track-pes": _TRACKED,
    "husimi-section": (*_TRACKED, "husimi.section_bound", "husimi.section_points",
                       "husimi.grid2d_lambda"),
    "entanglement-curves": _TRACKED,
    "detection-prob": (*_COUPLINGS, "numerics.newton_tol"),
}

_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

# Every key a config file may set: (kind, default, bounds).  kind evaluates
# the entry; default stands in for a key left out (MISSING: required; None:
# unset), read from its other home where it has one; each (comparison,
# bound) pair must hold for the value, or for each value of a list.
KEYS = {
    "model.omega": (cf.number, MISSING, ()),
    "model.delta": (cf.number, MISSING, ()),
    "model.lambda_list": (cf.number_list, None, ((">=", 0),)),
    "model.lambda_grid": (cf.grid, None, ((">=", 0),)),
    "numerics.n_t": (cf.integer, ValidatedConfig.n_t, ()),
    "numerics.newton_tol": (cf.number, ValidatedConfig.newton_tol, ()),
    "portrait.radii": (cf.number_list, PortraitGrid.radii, ()),
    "portrait.angles": (cf.integer, PortraitGrid.n_angles, ((">=", 1),)),
    "portrait.iterations": (cf.integer, 2000, ((">=", 0),)),
    "husimi.section_bound": (cf.number, 6.0, ((">", 0),)),
    "husimi.section_points": (cf.integer, 161, ((">=", 2), ("<=", cf.MAX_SECTION_POINTS))),
    "husimi.grid2d_lambda": (cf.number, None, ((">", 0),)),
}


def validate(command: str, entries: dict[str, cf.Entry]) -> tuple[ValidatedConfig, list, dict]:
    """Check a config file's entries against the keys command declares and
    return its scenario's inputs: the config at lam = 0, the couplings, and
    {key: value} of its other declared keys.  The keys it does not read are
    named, with their lines, before any value is evaluated; the grid wins
    over the list, so a file that sets both does not read model.lambda_list."""
    declared = DECLARED[command]
    unread = [f"{key!r} (line {entry.line})" for key, entry in entries.items()
              if key not in declared
              or key == "model.lambda_list" and "model.lambda_grid" in entries]
    if unread:
        raise ConfigError(f"{command} does not read " + ", ".join(unread))
    values = {}
    for key in declared:
        kind, default, bounds = KEYS[key]
        entry = entries.get(key)
        if entry is None:
            if default is MISSING:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
            continue
        value = values[key] = kind(entry)
        for item in value if isinstance(value, list) else [value]:
            for comparison, bound in bounds:
                if not _COMPARISONS[comparison](item, bound):
                    raise ConfigError(f"{key} must be {comparison} {bound}, got {item!r}",
                                      line=entry.line)
    grid, listed = values.pop("model.lambda_grid", None), values.pop("model.lambda_list", None)
    lams = grid or listed or []
    if "model.lambda_grid" in declared:
        if not lams:
            raise ConfigError("no coupling values: set model.lambda_grid or model.lambda_list")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ConfigError("coupling values must be strictly ascending")
    # model.<name> and numerics.<name> set the ValidatedConfig field <name>
    settings = {key.split(".")[1]: values.pop(key) for key in declared
                if key.startswith(("model.", "numerics.")) and key in values}
    try:
        cfg = ValidatedConfig(lam=0.0, **settings)
    except OutOfRange as exc:
        raise ConfigError(str(exc))
    # a tracked scenario follows its state from lam = 0 to its largest coupling
    if "n_t" in settings and max(lams + [values.get("husimi.grid2d_lambda") or 0]) <= 0:
        raise ConfigError("tracking needs a coupling grid reaching beyond 0")
    if "portrait.iterations" in values:
        points = math.prod(map(float, (len(lams), len(values["portrait.radii"]),
                                       values["portrait.angles"],
                                       values["portrait.iterations"] + 1)))
        if points > cf.MAX_PORTRAIT_POINTS:
            raise ConfigError(f"the couplings, portrait.radii, portrait.angles and "
                              f"portrait.iterations make {points:.6g} portrait points, "
                              f"more than {cf.MAX_PORTRAIT_POINTS}")
    return cfg, lams, values


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


def truncation_check(command: str, cfg: ValidatedConfig, lams, values,
                     base: ScenarioResult) -> str:
    """Rerun the scenario at n_t + 4 on the same validated inputs and compare
    its tables with base, the result of the run at cfg.n_t."""
    if "numerics.n_t" not in DECLARED[command]:
        return f"truncation check: {command} has no truncation parameter"
    n_t = cfg.n_t
    if n_t + 4 > MAX_N_T:
        return f"truncation check: n_t + 4 = {n_t + 4} exceeds the largest n_t, {MAX_N_T}"
    bumped = SCENARIOS[command](replace(cfg, n_t=n_t + 4), lams, values)
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
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        entries = cf.read_entries(text)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        inputs = validate(args.command, entries)
        result = SCENARIOS[args.command](*inputs)
        _write_tables(out_dir, result.tables)
        if result.text:
            print(result.text)
        for name in result.tables:
            print(f"wrote {out_dir / name}")
        if args.check:
            print(truncation_check(args.command, *inputs, result))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KickJTError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
