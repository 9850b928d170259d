"""kickjt command line: scenario runner with deterministic CSV outputs.

Usage: kickjt <subcommand> --config <path> [--out <dir>] [--threads N]

Subcommands: critical-couplings, fixed-points, portrait, track-pgs,
track-pes, husimi-section, entanglement-curves, detection-prob.  Exit
codes: 0 success, 2 configuration error, 3 compute error; the config file
is checked against the scenario's declared keys (DECLARED, KEYS) before it
runs.  A quantum scenario passes its couplings as they stand to one
qf.track_eigenstate call per seed, which follows the state from lam = 0
through them in grid order (portrait and the Newton census run them as
one stack).  entanglement-curves (the second half of its couplings'
measures) and husimi-section (its pes track) run independent work in one
forked child on the second core (_with_child), which returns its result
or its error through a pipe and is reaped before the scenario returns.
BLAS runs on one thread, and floats are written with shortest round-trip
precision, so identical configurations produce byte-identical files.  A
tracked scenario prints the largest weight its states hold on the edge
shell n_x + n_y = n_t, the truncation evidence of the run.
--threads is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import math
import operator
import os
import pickle
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from pathlib import Path

import numpy as np

from . import observables as obs
from . import quantum_floquet as qf
from .bifurcation import (PortraitGrid, Stability, critical_couplings,
                          default_seeds, find_fixed_points, portrait)
from . import configfile as cf
from .errors import ComputeError, ConfigError, KickJTError, OutOfRange
from .model import ValidatedConfig
from .shortrepr import reprs


# --- result plumbing ---------------------------------------------------------

@dataclass
class Table:
    """One CSV output: header and one equal-length column per header field.
    A column is a float64 ndarray or any sequence of cells."""

    header: list[str]
    columns: list

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


def _cell_bytes(column) -> np.ndarray:
    """The text of each cell of column as the rows of a uint8 matrix padded
    with NULs: _fmt_cell's text, which for a float64 cell is its repr."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits = column.view(np.int64)
        if (bits == bits[0]).all():
            # one value, bit for bit (so 0.0 and -0.0 never merge): one repr
            text = np.frombuffer(repr(float(column[0])).encode(), dtype=np.uint8)
            return np.broadcast_to(text, (column.size, text.size))
        return reprs(column)
    cells = np.array([_fmt_cell(c).encode() for c in column], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


# rows formatted at a time; it bounds the memory a block takes
CHUNK_ROWS = 1 << 14


def _format_block(table: Table, start: int, stop: int) -> bytes:
    """The CSV lines of rows [start, stop) of table, each ending in a newline."""
    cells = [_cell_bytes(column[start:stop]) for column in table.columns]
    # each row: every column's cells followed by ',', the last ',' becoming
    # '\n'; no cell holds a NUL, so dropping the NULs leaves the text
    lines = np.empty((stop - start, sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
    at = 0
    for c in cells:
        lines[:, at:at + c.shape[1]] = c
        at += c.shape[1]
        lines[:, at] = ord(",")
        at += 1
    lines[:, -1] = ord("\n")
    return lines[lines != 0].tobytes()


def _write_tables(out_dir: Path, tables: dict[str, Table]) -> None:
    """Write each table to out_dir/<name> as CSV, in order, formatting
    CHUNK_ROWS rows at a time.

    Each file goes through a temp file in out_dir and an atomic rename, so a
    failed run never leaves a partial CSV behind.
    """
    for name, table in tables.items():
        rows = len(table.columns[0]) if table.columns else 0
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write((",".join(table.header) + "\n").encode())
                for start in range(0, rows, CHUNK_ROWS):
                    fh.write(_format_block(table, start, min(start + CHUNK_ROWS, rows)))
            os.replace(tmp, out_dir / name)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# --- the second process --------------------------------------------------------

def _with_child(mine, theirs) -> tuple:
    """(mine(), theirs()), with theirs() run in a forked child while this
    process runs mine(), so that a second core does it.

    The child sends back pickle.dumps((ok, value or exception)) through a
    pipe and leaves by os._exit.  An exception of theirs() is raised here;
    a child that sends nothing is a ComputeError naming its exit status.  If
    mine() raises, the child is killed.  Either way the child is reaped
    before this returns.  Without os.fork, theirs() runs here after mine().
    The process forks with one thread: OpenBLAS's own fork handler stops its
    thread pool first.
    """
    if not hasattr(os, "fork"):
        return mine(), theirs()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, theirs())
            except Exception as exc:
                reply = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reply))
            status = 0
        finally:
            # never return into the caller's stack, nor flush its buffers
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            value = mine()
            reply = pipe.read()
        except BaseException:
            import signal   # loaded only on this path
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if not reply:
        raise ComputeError(f"the child process running {theirs.__name__}() exited with "
                           f"status {os.waitstatus_to_exitcode(status)} and sent no result")
    ok, theirs_value = pickle.loads(reply)
    if not ok:
        raise theirs_value
    return value, theirs_value


# --- scenarios ---------------------------------------------------------------

def _fp_columns() -> list[str]:
    return (["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z",
             "residual", "classification"] + [f"mod{k}" for k in range(1, 7)])


def _fp_row(fp) -> tuple:
    return (fp.lam, *fp.point.tolist(), fp.residual, fp.classification.value,
            *fp.multiplier_moduli)


def _fixed_point_census(cfg: ValidatedConfig, lams: list[float]) -> list[tuple]:
    """(lam, fixed points) for each coupling of lams, in order, from one
    Newton search over all of them (the default seeds depend on omega only)."""
    fps = find_fixed_points(cfg, default_seeds(cfg), lams=lams)
    by_lam = {lam: [] for lam in lams}
    for fp in fps:
        by_lam[fp.lam].append(fp)
    return list(by_lam.items())


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
    rows = [_fp_row(fp) for _, fps in _fixed_point_census(cfg, lams) for fp in fps]
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


def _edge_report(n_t: int, *paths) -> str:
    """The largest edge-shell weight over every sample of paths and the
    coupling of its first occurrence: the truncation evidence of a tracked run."""
    weight, lam = max(((qf.edge_weight(s.state), s.lam) for path in paths
                       for s in path.samples), key=operator.itemgetter(0))
    return f"edge-shell weight: at most {weight:.3e} (lam = {lam!r}, n_t = {n_t})"


def _scenario_track(cfg: ValidatedConfig, lams, which: str) -> ScenarioResult:
    seed = qf.pgs_seed(cfg.n_t) if which == "pgs" else qf.pes_seed(cfg.n_t)
    path = qf.track_eigenstate(seed, cfg, lams)
    rows = [(s.lam, s.eigenphase, qf.sector_leakage(s.state, path.sector), s.dlam_used)
            for s in path.samples]
    name = f"track_{which}.csv"
    return ScenarioResult(tables={
        name: Table.from_rows(["lam", "eigenphase", "sector_leakage", "dlam_used"], rows)},
        text=_edge_report(cfg.n_t, path))


def scenario_track_pgs(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    return _scenario_track(cfg, lams, "pgs")


def scenario_track_pes(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    return _scenario_track(cfg, lams, "pes")


def scenario_husimi_section(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    bound, n_pts = values["husimi.section_bound"], values["husimi.section_points"]
    grid2d_lam = values["husimi.grid2d_lambda"]
    slope = -math.tan(cfg.omega / 2.0)

    coords = np.linspace(-bound, bound, n_pts)

    def section():
        stops = lams if grid2d_lam is None else [*lams, grid2d_lam]
        pgs = qf.track_eigenstate(qf.pgs_seed(cfg.n_t), cfg, stops)
        return pgs, [obs.husimi_on_section(pgs.sample_at(lam).state, slope, coords)
                     for lam in lams]

    def track_pes():
        return qf.track_eigenstate(qf.pes_seed(cfg.n_t), cfg, [grid2d_lam])

    if grid2d_lam is None:
        (pgs, values), pes = section(), None
    else:
        # the pes track runs on the second core
        (pgs, values), pes = _with_child(section, track_pes)
    columns = [np.repeat(lams, n_pts), np.tile(coords, len(lams)), np.concatenate(values)]
    tables = {"husimi_section.csv": Table(["lam", "u", "H"], columns)}
    paths = [pgs]

    if pes is not None:
        paths.append(pes)
        psi_g = pgs.sample_at(grid2d_lam).state
        psi_e = pes.sample_at(grid2d_lam).state
        even = psi_g + psi_e
        even /= np.linalg.norm(even)
        alphas = obs.section_amplitudes(coords, slope)
        grid = obs.husimi_product_grid(even, alphas, alphas)
        columns = [np.repeat(coords, n_pts), np.tile(coords, n_pts), grid.ravel()]
        tables["husimi_grid2d.csv"] = Table(["q_x", "q_y", "H"], columns)
    return ScenarioResult(tables=tables, text=_edge_report(cfg.n_t, *paths))


def scenario_entanglement_curves(cfg: ValidatedConfig, lams, values) -> ScenarioResult:
    path = qf.track_eigenstate(qf.pgs_seed(cfg.n_t), cfg, lams)
    half = len(lams) // 2

    def measures(couplings):
        return [obs.entanglement_measures(path.sample_at(lam).state) for lam in couplings]

    def second_half():
        return measures(lams[half:])

    # the second half of the couplings runs on the second core
    first, second = _with_child(lambda: measures(lams[:half]), second_half)
    s_spin, s_osc, e_n = zip(*first, *second)
    columns = [lams, s_spin, s_osc, e_n, obs.curve_derivative(lams, s_spin),
               obs.curve_derivative(lams, s_osc), obs.curve_derivative(lams, e_n)]
    header = ["lam", "S_spin", "S_osc_x", "E_N",
              "dS_spin_dlam", "dS_osc_x_dlam", "dE_N_dlam"]
    return ScenarioResult(tables={"entanglement_curves.csv": Table(header, columns)},
                          text=_edge_report(cfg.n_t, path))


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
    # entanglement-curves differentiates each curve over its couplings
    if command == "entanglement-curves" and len(lams) < obs.MIN_CURVE_POINTS:
        key = "model.lambda_grid" if grid else "model.lambda_list"
        raise ConfigError(f"{key} gives {len(lams)} couplings, but {command} needs at least"
                          f" {obs.MIN_CURVE_POINTS} for its derivatives", line=entries[key].line)
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
    if cfg.n_t < 1 and (command == "track-pes" or values.get("husimi.grid2d_lambda")):
        raise ConfigError(f"numerics.n_t must be >= 1 to hold the pes seed, got {cfg.n_t}",
                          line=entries["numerics.n_t"].line)
    if "portrait.iterations" in values:
        points = math.prod(map(float, (len(lams), len(values["portrait.radii"]),
                                       values["portrait.angles"],
                                       values["portrait.iterations"] + 1)))
        if points > cf.MAX_PORTRAIT_POINTS:
            raise ConfigError(f"the couplings, portrait.radii, portrait.angles and "
                              f"portrait.iterations make {points:.6g} portrait points, "
                              f"more than {cf.MAX_PORTRAIT_POINTS}")
    return cfg, lams, values


# --- entry point ---------------------------------------------------------------

# (get, set) thread-count entry points of the OpenBLAS builds bundled with
# numpy (64-bit integer interface) and with scipy
_OPENBLAS_THREAD_FNS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of the OpenBLAS libraries bundled in
    numpy.libs and scipy.libs that this process has loaded; empty for a BLAS
    without these entry points.  A library not yet loaded is left unloaded."""
    controls = []
    for name in ("numpy", "scipy"):
        # find_spec locates scipy without importing it
        origin = importlib.util.find_spec(name).origin
        libdir = Path(origin).resolve().parent.parent / f"{name}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
            except OSError:
                continue
            for get_name, set_name in _OPENBLAS_THREAD_FNS:
                get_fn, set_fn = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get_fn is not None and set_fn is not None:
                    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                    controls.append((get_fn, set_fn))
    return controls


@contextmanager
def _single_thread_blas():
    """Run the body with the loaded bundled OpenBLAS libraries at one thread,
    and OPENBLAS_NUM_THREADS=1 so that a library first loaded in the body
    (scipy's, by a Schur fallback) starts at one thread; then restore the
    variable and the previous counts, so library callers are left as they
    were, but for such a library, which stays at one thread.

    The last digits of the quantum outputs depend on the BLAS thread count;
    one thread makes them independent of the host and of
    OPENBLAS_NUM_THREADS.
    """
    controls = _openblas_thread_controls()
    previous = [get_fn() for get_fn, _ in controls]
    variable = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for _, set_fn in controls:
        set_fn(1)
    try:
        yield
    finally:
        for (_, set_fn), count in zip(controls, previous):
            set_fn(count)
        if variable is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = variable


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
        result = SCENARIOS[args.command](*validate(args.command, entries))
        _write_tables(out_dir, result.tables)
        if result.text:
            print(result.text)
        for name in result.tables:
            print(f"wrote {out_dir / name}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KickJTError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
