import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt.bifurcation import PortraitGrid, portrait
from kickjt import cli
from kickjt import configfile as cf
from kickjt.cli import Table, _write_tables, build_parser, main
from kickjt.errors import ConfigError
from kickjt.model import ValidatedConfig
from conftest import PRESET_COMMANDS

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
PRESET_DIR = SRC_DIR / "kickjt" / "presets"


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_MODEL = """
model.omega = pi/60
model.delta = 2*acot(2)
"""


def entry(text, key="k"):
    return cf.read_entries(text)[key]


def couplings(text):
    """The couplings that fixed-points validates from SMALL_MODEL plus text."""
    return cli.validate("fixed-points", cf.read_entries(SMALL_MODEL + text))[1]


class TestConfigParsing:
    def test_expressions(self):
        entries = cf.read_entries("model.omega = pi/60\nmodel.delta = 2*acot(2)\n")
        assert cf.number(entries["model.omega"]) == math.pi / 60
        assert cf.number(entries["model.delta"]) == 2 * math.atan(0.5)

    def test_grid_inclusive(self):
        values = couplings("model.lambda_grid = 0:0.55:0.01\n")
        assert values[0] == 0.0
        assert values[-1] == 0.55
        assert len(values) == 56

    def test_grid_parts_may_carry_spaces(self):
        assert len(couplings("model.lambda_grid = 0 : 0.55 : 0.01\n")) == 56

    def test_list(self):
        assert couplings("model.lambda_list = 0.15, 0.32\n") == [0.15, 0.32]

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as err:
            cf.read_entries("model.omega = 0.1\nbogus line\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cf.read_entries("a.b = 1\na.b = 2\n")

    def test_bad_expression_reports_line(self):
        # reading the file evaluates nothing; the kind names the line
        bad = entry("model.omega = fhtagn(2)\n", "model.omega")
        with pytest.raises(ConfigError) as err:
            cf.number(bad)
        assert err.value.line == 1

    def test_empty_lambda_values_rejected(self):
        with pytest.raises(ConfigError):
            couplings("")

    def test_descending_lambda_rejected(self):
        with pytest.raises(ConfigError):
            couplings("model.lambda_list = 0.3, 0.2\n")

    def test_comments_and_blank_lines(self):
        assert cf.number(entry("# header\n\nmodel.omega = 0.1  # trailing\n",
                               "model.omega")) == 0.1


# reference for accepted input: eval with emptied builtins, acot(x) = atan2(1, x)
_EVAL_ENV = {"pi": math.pi, "e": math.e, "sqrt": math.sqrt, "sin": math.sin,
             "cos": math.cos, "tan": math.tan, "atan": math.atan, "asin": math.asin,
             "acos": math.acos, "acot": lambda x: math.atan2(1.0, x)}


def _eval_oracle(expr: str) -> float:
    return float(eval(compile(expr.strip(), "<config>", "eval"), {"__builtins__": {}}, _EVAL_ENV))


def _preset_expressions():
    for preset in sorted(PRESET_DIR.glob("*.cfg")):
        for key, item in cf.read_entries(preset.read_text()).items():
            for part in item.value.replace(":", ",").split(","):
                yield f"{preset.name}:{key}", part


# README examples and a few more forms the grammar section allows
_DOC_EXPRESSIONS = ["2*acot(2)", "pi/60", "0.15", "0.32", "0", "0.55", "0.01", "2*pi",
                    "-0.5", "+1e-12", "2**-1", "3**2", "sqrt(2)/2", "e**2", "-2**2",
                    "(1 + 2) * 3 / 4", "acot(-1)", "atan(1) - asin(0.5) + acos(0.5)",
                    "sin(pi/3) * cos(pi/6) + tan(pi/4)"]


class TestSafeEvaluator:
    @pytest.mark.parametrize("label,expr", list(_preset_expressions())
                             + [("doc", e) for e in _DOC_EXPRESSIONS])
    def test_accepted_values_equal_eval(self, label, expr):
        assert cf.number(entry(f"k = {expr}\n")) == _eval_oracle(expr), label

    @pytest.mark.parametrize("expr", [
        "().__class__.__base__.__subclasses__()[0].__name__.__len__()",
        "(lambda: 3)()", "[1.0][0]", "True", "fhtagn(2)", "x", "sqrt(x=4)", "sqrt(*[4])",
        "math.pi", "'1'", "1j", "1 < 2", "(1, 2)", "1 // 2", "7 % 2", "~1", "not 0",
        "__import__('os')", "sqrt(-1)", "1/0", "sqrt(1, 2)", "9**9**9", "(-8)**(1/3)", "1e400",
        "1e400 - 1e400", "",
    ])
    def test_rejected_with_line_number(self, expr):
        with pytest.raises(ConfigError) as err:
            cf.number(entry(f"# header\n\nk = {expr}\n"))
        assert err.value.line == 3

    def test_rejected_inside_list_and_grid(self):
        entries = cf.read_entries("a.b = 1, True\nc.d = 0:[1][0]:0.5\n")
        with pytest.raises(ConfigError) as err:
            cf.number_list(entries["a.b"])
        assert err.value.line == 1
        with pytest.raises(ConfigError) as err:
            cf.grid(entries["c.d"])
        assert err.value.line == 2


class TestParser:
    def test_threads_flag_parses_and_defaults_to_one(self):
        # perfbench's worker records this attribute and passes --threads 1
        parser = build_parser()
        args = parser.parse_args(["portrait", "--config", "x.cfg"])
        assert args.threads == 1
        args = parser.parse_args(["entanglement-curves", "--config", "x.cfg", "--threads", "4"])
        assert args.threads == 4


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["critical-couplings", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_undecodable_config_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(SMALL_MODEL.encode() + b"# \xff\n")
        assert main(["critical-couplings", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {cfg}")

    def test_invalid_model_parameter(self, tmp_path):
        cfg = write_config(tmp_path, "model.omega = 0\nmodel.delta = 1\n")
        assert main(["critical-couplings", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_lambda_grid(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL)
        assert main(["portrait", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_huge_truncation_exits_two_promptly(self, tmp_path):
        # a basis at n_t = 1e6 would list 5e11 oscillator states; capped at
        # 1 GB of address space, a run that built it would die instead
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 1000000\n"))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        run = subprocess.run(
            [sys.executable, "-m", "kickjt.cli", "track-pgs", "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
        assert run.returncode == 2
        assert run.stderr == ("config error: n_t must be an integer in [0, 64],"
                              " got 1000000\n")
        assert list(out.iterdir()) == []

    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MODEL)
        assert main(["critical-couplings", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
        captured = capsys.readouterr()
        assert "lambda_b" in captured.out

    def test_overflowing_coupling_exits_three_with_located_message(self, tmp_path, capsys):
        # lam = 1e300 passes validation but the Newton iterates overflow; no
        # numpy warning may escape, and the error names the coupling and the
        # seed: seeds 0 and 1 (the poles at the origin) are fixed at any
        # coupling, seed 2 is the first ring seed
        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda_list = 0.1, 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("compute error: fixed-point search at lam = 1e+300: ")
        assert "not finite" in err
        assert "seed 2 at (q_x, q_y, p_x, p_y, s_x, s_y, s_z) = (0.3535" in err

    def test_overflowing_portrait_exits_three_and_writes_nothing(self, tmp_path, capsys):
        # the orbits at lam = 1e300 overflow; the error names the coupling and
        # no file of the run, not even the finite lam = 0.1 portrait, is written
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.1, 1e300\n"
            "portrait.radii = 1.0\nportrait.angles = 4\nportrait.iterations = 3\n"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["portrait", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("compute error: portrait at lam = 1e+300: ")
        assert "not finite" in err
        assert list(out.iterdir()) == []

    def test_unbounded_continuation_exits_three(self, tmp_path):
        # 1e300 / 0.02 steps would run until killed; the step count
        # is refused before the first Floquet build
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.1, 1e300\nnumerics.n_t = 6\n"))
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kickjt.cli", "track-pgs",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 3
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("compute error: continuation from lam = 0.0 to lam = 1e+300")

    def test_compute_error_exits_three(self, tmp_path, monkeypatch):
        # an unreachable eigenpair residual makes the seed diagonalisation fail
        monkeypatch.setattr(cli.qf, "EIG_RESIDUAL_TOL", 1e-18)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"))
        assert main(["entanglement-curves", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("key,value", [
        ("portrait.angles", "0"),
        ("portrait.iterations", "-1"),
        ("husimi.section_points", "-3"),
        ("husimi.section_points", "0"),
        ("husimi.grid2d_lambda", "-0.1"),
        ("husimi.section_bound", "0"),
        ("husimi.section_bound", "-3"),
        # sizes that cannot be allocated: a 1.1e11-point portrait cloud, and
        # a 2D Husimi grid of 1e10 points
        ("portrait.iterations", "1e9"),
        ("husimi.section_points", "100000"),
    ])
    def test_out_of_range_scenario_key_exits_two_naming_it(self, tmp_path, capsys, key, value):
        if key.startswith("portrait"):
            command, extra = "portrait", "model.lambda_list = 0.1\n"
        else:
            command, extra = "husimi-section", "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n"
        extra += f"{key} = {value}\n"
        cfg = write_config(tmp_path, SMALL_MODEL + extra)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and key in err
        assert list(out.iterdir()) == []


# a small run of each scenario
_SMALL_RUNS = {
    "critical-couplings": "",
    "fixed-points": "model.lambda_list = 0.15\n",
    "detection-prob": "model.lambda_list = 0.15\n",
    "portrait": ("model.lambda_list = 0.15\nportrait.radii = 1.0\n"
                 "portrait.angles = 4\nportrait.iterations = 3\n"),
    "track-pgs": "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n",
    "track-pes": "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n",
    "husimi-section": ("model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n"
                       "husimi.section_points = 5\n"),
    "entanglement-curves": "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n",
}


class TestUnreadKeys:
    @pytest.mark.parametrize("key,value,command", [
        ("model.lambda", "0.15", "fixed-points"),
        ("numerics.newton_max_iter", "50", "fixed-points"),
        ("numerics.overlap_threshold", "0.01", "track-pgs"),
        ("numerics.eig_residual_tol", "1e-9", "track-pgs"),
        ("fixed_points.radii", "0.5, 1, 2, 4", "fixed-points"),
        ("portrait.momentum_slope", "auto", "portrait"),
        ("husimi.momentum_slope", "auto", "husimi-section"),
        ("portrait.spin", "0, 0, -0.5", "portrait"),
        ("track.initial_step", "0.01", "track-pgs"),
        ("track.max_step", "0.02", "track-pgs"),
        ("numerics.n_T", "30", "track-pgs"),
        # numerics keys of other scenarios: a scenario reads only its own
        ("numerics.n_t", "30", "portrait"),
        ("numerics.newton_tol", "1e-3", "entanglement-curves"),
    ])
    def test_retired_or_misspelt_key_exits_two_naming_it(self, tmp_path, capsys,
                                                         key, value, command):
        text = SMALL_MODEL + _SMALL_RUNS[command] + f"{key} = {value}\n"
        line = text.splitlines().index(f"{key} = {value}") + 1
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {command} does not read {key!r} (line {line})\n"
        assert list(out.iterdir()) == []

    def test_every_unread_key_is_named(self, tmp_path, capsys):
        # the grid wins over the list, and another scenario's key is unread too
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0.1:0.2:0.1\nmodel.lambda_list = 0.15\n"
            "portrait.angles = 4\n"))
        assert main(["fixed-points", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: fixed-points does not read 'model.lambda_list' (line 5),"
            " 'portrait.angles' (line 6)\n")

    @pytest.mark.parametrize("command", sorted(cli.SCENARIOS))
    def test_misspelt_key_exits_two_before_the_scenario_runs(self, tmp_path, capsys,
                                                             monkeypatch, command):
        # the undeclared key is refused, and its value never evaluated, before
        # the scenario is called
        calls = []
        monkeypatch.setitem(cli.SCENARIOS, command, lambda *inputs: calls.append(inputs))
        text = SMALL_MODEL + _SMALL_RUNS[command] + "numerics.n_T = fhtagn(30)\n"
        line = len(text.splitlines())
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {command} does not read 'numerics.n_T' (line {line})\n")
        assert calls == []
        assert list(out.iterdir()) == []


class TestGridBound:
    def test_largest_grid_is_accepted(self):
        values = couplings("model.lambda_grid = 0:99999:1\n")
        assert len(values) == 100_000 and values[-1] == 99999.0

    @pytest.mark.parametrize("grid,count", [("0:100000:1", "100001"),
                                            ("0:1e300:1e-300", "inf")])
    def test_grid_over_the_bound_is_refused_before_expansion(self, grid, count):
        with pytest.raises(ConfigError) as err:
            cf.grid(entry(f"# c\nmodel.lambda_grid = {grid}\n", "model.lambda_grid"))
        assert err.value.line == 2
        assert str(err.value) == (f"line 2: model.lambda_grid has {count} points,"
                                  " more than 100000")

    def test_billion_point_grid_exits_two_promptly(self, tmp_path):
        # expanding this grid would need tens of GB; capped at 1 GB of address
        # space, a run that expanded it would die with MemoryError instead
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda_grid = 0:1e9:1\n")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        run = subprocess.run(
            [sys.executable, "-m", "kickjt.cli", "fixed-points", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
        assert run.returncode == 2
        assert run.stderr == ("config error: line 4: model.lambda_grid has 1e+09 points,"
                              " more than 100000\n")


class TestScenarioOutputs:
    def test_critical_couplings_file(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert main(["critical-couplings", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "critical_couplings.csv").read_text().splitlines()
        assert lines[0] == "lambda_b,branch"
        assert len(lines) == 3
        assert abs(float(lines[1].split(",")[0]) - 0.2643) < 5e-4

    def test_portrait_headers_and_one_file_per_coupling(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.15, 0.32\n"
            "portrait.radii = 1.0\nportrait.angles = 4\nportrait.iterations = 3\n"))
        out = tmp_path / "out"
        assert main(["portrait", "--config", str(cfg), "--out", str(out)]) == 0
        for lam in ("0.15", "0.32"):
            lines = (out / f"portrait_{lam}.csv").read_text().splitlines()
            assert lines[0] == "lam,q_x,q_y"
            assert len(lines) == 1 + 4 * 4  # header + n_angles * (iterations+1)

    def test_fixed_points_columns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda_list = 0.15\n")
        out = tmp_path / "out"
        assert main(["fixed-points", "--config", str(cfg), "--out", str(out),
                     "--threads", "2"]) == 0
        lines = (out / "fixed_points.csv").read_text().splitlines()
        assert lines[0].startswith("lam,q_x,q_y,p_x,p_y,s_x,s_y,s_z,residual,classification")
        assert len(lines) == 3  # two trivial fixed points
        assert {row.split(",")[9] for row in lines[1:]} == {"stable", "unstable"}

    def test_track_pgs_small(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"))
        out = tmp_path / "out"
        assert main(["track-pgs", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "track_pgs.csv").read_text().splitlines()
        assert lines[0] == "lam,eigenphase,sector_leakage,dlam_used"
        assert float(lines[1].split(",")[0]) == 0.0
        assert float(lines[-1].split(",")[0]) == 0.1

    def test_entanglement_curves_small(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.12:0.04\nnumerics.n_t = 6\n"))
        out = tmp_path / "out"
        assert main(["entanglement-curves", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "entanglement_curves.csv").read_text().splitlines()
        assert lines[0] == "lam,S_spin,S_osc_x,E_N,dS_spin_dlam,dS_osc_x_dlam,dE_N_dlam"
        assert len(lines) == 5

    def test_husimi_section_small(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"
            "husimi.section_points = 11\nhusimi.section_bound = 3\n"
            "husimi.grid2d_lambda = 0.1\n"))
        out = tmp_path / "out"
        assert main(["husimi-section", "--config", str(cfg), "--out", str(out)]) == 0
        section = (out / "husimi_section.csv").read_text().splitlines()
        assert section[0] == "lam,u,H"
        assert len(section) == 1 + 3 * 11
        grid2d = (out / "husimi_grid2d.csv").read_text().splitlines()
        assert grid2d[0] == "q_x,q_y,H"
        assert len(grid2d) == 1 + 11 * 11

    def test_detection_prob_small(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda_list = 0.1, 0.32\n")
        out = tmp_path / "out"
        assert main(["detection-prob", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "detection_prob.csv").read_text().splitlines()
        assert lines[0] == "lam,theta,alpha_x,alpha_y,p_plus"
        first = lines[1].split(",")
        assert float(first[4]) == 0.0          # below the bifurcation
        assert float(lines[2].split(",")[4]) > 0.0


# the per-row writer before tables became columnar: the byte oracle
def _oracle_fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _oracle_payload(header, rows) -> bytes:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_oracle_fmt_cell(c) for c in row) + "\n" for row in rows)
    return text.encode("utf-8")


# signed zero, non-finite values, subnormals, the extremes, the points where
# repr switches to exponent notation and values that need all 17 digits
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
                1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
                0.30000000000000004, 1.2345678901234567, -2.718281828459045, 1e22]

_CELL_KINDS = ["float64 array", "float list", "int list", "int64 array", "int64 list", "str list"]


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(_CELL_KINDS), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        size = dict(min_size=n_rows, max_size=n_rows)
        if kind.startswith("float"):
            values = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), **size))
            columns.append(np.array(values, dtype=np.float64) if kind == "float64 array" else values)
        elif kind == "int list":
            columns.append(draw(st.lists(st.integers(-2**70, 2**70), **size)))
        elif kind.startswith("int64"):
            values = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), **size)), dtype=np.int64)
            columns.append(values if kind == "int64 array" else list(values))
        else:
            columns.append(draw(st.lists(st.text("abz_+-.", max_size=6), **size)))
    return [f"c{k}" for k in range(len(kinds))], columns


# the CPU sets the writer may see: one formatting process, or a forked pool
_CPU_SETS = pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])


@contextmanager
def _writer_sees(cpus, chunk_rows):
    """The table writer sees the CPU set cpus and splits rows into blocks of
    chunk_rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        mp.setattr(cli, "CHUNK_ROWS", chunk_rows)
        yield


class TestTableWriter:
    @_CPU_SETS
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_tables(), min_size=1, max_size=3), st.integers(1, 5))
    def test_columns_write_the_bytes_of_the_row_formatter(self, tmp_path_factory, cpus,
                                                          tables, chunk_rows):
        out = tmp_path_factory.mktemp("tables")
        with _writer_sees(cpus, chunk_rows):
            _write_tables(out, {f"t{k}.csv": Table(header, columns)
                                for k, (header, columns) in enumerate(tables)})
        assert sorted(p.name for p in out.iterdir()) == [f"t{k}.csv" for k in range(len(tables))]
        for k, (header, columns) in enumerate(tables):
            rows = list(zip(*(list(c) for c in columns)))
            assert (out / f"t{k}.csv").read_bytes() == _oracle_payload(header, rows)

    @_CPU_SETS
    @pytest.mark.parametrize("column", [np.full(5, v) for v in _EDGE_FLOATS]
                             + [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0]),
                                np.array([math.nan, -math.nan]), np.array([]), np.array([7.5])])
    def test_constant_columns_write_the_bytes_of_the_row_formatter(self, tmp_path, cpus, column):
        # a column of one value is formatted once per block; only
        # bit-identical cells count as one value, so 0.0 and -0.0 keep their
        # own text, also where a block boundary separates them
        with _writer_sees(cpus, 2):
            _write_tables(tmp_path, {"a.csv": Table(["c"], [column]),
                                     "b.csv": Table(["c", "d"], [column, column[::-1]])})
        assert (tmp_path / "a.csv").read_bytes() == \
            _oracle_payload(["c"], [(v,) for v in column.tolist()])
        assert (tmp_path / "b.csv").read_bytes() == \
            _oracle_payload(["c", "d"], list(zip(column.tolist(), column[::-1].tolist())))

    @_CPU_SETS
    def test_failing_formatter_leaves_no_child_and_no_temp_file(self, tmp_path, monkeypatch,
                                                               cpus):
        inner = cli._format_block

        def failing(table, start, stop):
            if start >= 8:
                raise RuntimeError("formatter failed")
            return inner(table, start, stop)

        monkeypatch.setattr(cli, "_format_block", failing)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.15, 0.32\n"
            "portrait.radii = 0.5, 2.0\nportrait.angles = 3\nportrait.iterations = 5\n"))
        out = tmp_path / "out"
        with _writer_sees(cpus, 4), pytest.raises(RuntimeError, match="formatter failed"):
            main(["portrait", "--config", str(cfg), "--out", str(out)])
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_no_bifurcation_writes_header_only_file(self, tmp_path):
        # delta/2 > 3 pi/4 makes both cot(delta/2) +- 1 negative: no lambda_b
        cfg = write_config(tmp_path, "model.omega = pi/60\nmodel.delta = 5\n")
        out = tmp_path / "out"
        assert main(["critical-couplings", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "critical_couplings.csv").read_bytes() == b"lambda_b,branch\n"

    @pytest.mark.parametrize("cpus,forked", [({0}, False), ({0, 1}, True)],
                             ids=["1cpu", "2cpu"])
    def test_portrait_files_match_row_formatter(self, tmp_path, monkeypatch, cpus, forked):
        # a run of at least two blocks formats every block in a forked child
        # when two CPUs are available, and in this process when one is
        parent = os.getpid()
        inner = cli._format_block

        def located(table, start, stop):
            if (os.getpid() != parent) != forked:
                raise RuntimeError(f"block [{start}, {stop}) formatted in the wrong process")
            return inner(table, start, stop)

        monkeypatch.setattr(cli, "_format_block", located)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.15, 0.32\n"
            "portrait.radii = 0.5, 2.0\nportrait.angles = 3\nportrait.iterations = 5\n"))
        out = tmp_path / "out"
        with _writer_sees(cpus, 4):
            assert main(["portrait", "--config", str(cfg), "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        assert len(list(out.iterdir())) == 2
        grid = PortraitGrid(radii=(0.5, 2.0), n_angles=3)
        for lam in (0.15, 0.32):
            points = portrait(ValidatedConfig(math.pi / 60, 2 * math.atan(0.5), lam), grid, 5)
            rows = [(lam, float(x), float(y)) for x, y in points]
            expected = _oracle_payload(["lam", "q_x", "q_y"], rows)
            assert (out / f"portrait_{lam!r}.csv").read_bytes() == expected


def test_cli_start_does_not_load_scipy_signal():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import sys, kickjt.cli; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_start_does_not_load_multiprocessing():
    # the table writer imports it only for a run large enough to fork
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import sys, kickjt.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_start_does_not_load_scipy_linalg():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import sys, kickjt.cli; assert 'scipy.linalg' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_tracked_preset_needs_no_schur_form(tmp_path):
    # the Schur form is the only user of scipy.linalg: a preset that loads
    # none never fell back to the full sector spectrum
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    args = ["entanglement-curves", "--config", str(PRESET_DIR / "entanglement_curves.cfg"),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from kickjt.cli import main; "
            f"assert main({args!r}) == 0; "
            "assert 'scipy.linalg' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestDeterminismSmoke:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"))
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["entanglement-curves", "--config", str(cfg),
                         "--out", str(out), "--threads", "2"]) == 0
            digests.append(hashlib.sha256(
                (out / "entanglement_curves.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


    def test_quantum_preset_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # main runs BLAS on one thread, whatever OPENBLAS_NUM_THREADS says
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=str(SRC_DIR), OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "kickjt.cli", "track-pgs", "--config",
                            str(PRESET_DIR / "track_pgs.cfg"), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            digests.append(hashlib.sha256((out / "track_pgs.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_main_pins_blas_to_one_thread_and_restores_it(self, tmp_path, monkeypatch):
        controls = cli._openblas_thread_controls()
        if not controls:
            pytest.skip("no bundled OpenBLAS thread controls")
        before = [get_fn() for get_fn, _ in controls]
        seen = []
        real = cli.SCENARIOS["critical-couplings"]

        def spy(*inputs):
            seen.append([get_fn() for get_fn, _ in controls])
            return real(*inputs)

        monkeypatch.setitem(cli.SCENARIOS, "critical-couplings", spy)
        try:
            for _, set_fn in controls:
                set_fn(2)
            outside = [get_fn() for get_fn, _ in controls]
            cfg = write_config(tmp_path, SMALL_MODEL)
            assert main(["critical-couplings", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
            assert seen == [[1] * len(controls)]
            assert [get_fn() for get_fn, _ in controls] == outside
        finally:
            for (_, set_fn), count in zip(controls, before):
                set_fn(count)


class TestTruncationCheckFlag:
    def test_check_reports_deviation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"))
        out = tmp_path / "out"
        assert main(["entanglement-curves", "--config", str(cfg), "--out", str(out),
                     "--check"]) == 0
        captured = capsys.readouterr()
        assert "truncation check: n_t = 6 vs 10" in captured.out
        assert "max relative deviation" in captured.out

    @pytest.mark.parametrize("command,extra", [
        ("critical-couplings", ""),
        ("fixed-points", "model.lambda_list = 0.15\n"),
        ("portrait", "model.lambda_list = 0.15\nportrait.radii = 1.0\n"
                     "portrait.angles = 4\nportrait.iterations = 3\n"),
        ("detection-prob", "model.lambda_list = 0.1\n"),
    ])
    def test_scenarios_without_truncation_run_once(self, tmp_path, capsys, monkeypatch,
                                                   command, extra):
        calls = []
        real = cli.SCENARIOS[command]

        def spy(*inputs):
            calls.append(inputs)
            return real(*inputs)

        monkeypatch.setitem(cli.SCENARIOS, command, spy)
        cfg = write_config(tmp_path, SMALL_MODEL + extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--check"]) == 0
        assert f"truncation check: {command} has no truncation parameter" in \
            capsys.readouterr().out.splitlines()
        assert len(calls) == 1

    def test_truncated_scenario_reruns_only_at_the_bumped_truncation(self, tmp_path,
                                                                     monkeypatch):
        # the written run is the comparison base; only n_t + 4 is run again
        seen = []
        real = cli.SCENARIOS["track-pgs"]

        def spy(cfg, lams, values):
            seen.append(cfg.n_t)
            return real(cfg, lams, values)

        monkeypatch.setitem(cli.SCENARIOS, "track-pgs", spy)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 4\n"))
        assert main(["track-pgs", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--check"]) == 0
        assert seen == [4, 8]

    def test_no_rerun_past_the_largest_truncation(self, tmp_path, capsys, monkeypatch):
        # at n_t = 61 the rerun would need n_t = 65 > MAX_N_T: the check says
        # so instead of failing after the base files are written
        seen = []

        def spy(cfg, lams, values):
            seen.append(cfg.n_t)
            return cli.ScenarioResult()

        monkeypatch.setitem(cli.SCENARIOS, "track-pgs", spy)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 61\n"))
        assert main(["track-pgs", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--check"]) == 0
        assert ("truncation check: n_t + 4 = 65 exceeds the largest n_t, 64"
                in capsys.readouterr().out.splitlines())
        assert seen == [61]


def test_presets_parse():
    # every preset validates against the keys its own scenario declares
    assert sorted(PRESET_COMMANDS) == sorted(p.name for p in PRESET_DIR.glob("*.cfg"))
    for preset, command in PRESET_COMMANDS.items():
        cfg, lams, values = cli.validate(
            command, cf.read_entries((PRESET_DIR / preset).read_text()))
        assert cfg.omega > 0
