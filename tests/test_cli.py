import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt.bifurcation import PortraitGrid, portrait
from kickjt import bifurcation, cli
from kickjt import observables as obs
from kickjt import quantum_floquet as qf
from kickjt import configfile as cf
from kickjt.cli import Table, _write_tables, build_parser, main
from kickjt.errors import (ComputeError, ConfigError, EigFailure, StepUnderflow,
                           TruncationLoss)
from kickjt.model import ValidatedConfig
from kickjt.shortrepr import reprs
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
        # coupling, seed 2 is the first ring seed.  The census runs every
        # coupling in one stack and names the first failing one in list
        # order, with the seed's index among that coupling's seeds (at
        # 2e154 seeds 2 to 17 stay finite; 1e300 fails at seed 2)
        ring = "seed 2 at (q_x, q_y, p_x, p_y, s_x, s_y, s_z) = (0.3535"
        cases = [("0.1, 1e300", "1e+300", ring),
                 ("0.1, 1e300, 1e301", "1e+300", ring),
                 ("1e301", "1e+301", ring),
                 ("0.1, 2e154, 1e300", "2e+154",
                  "seed 18 at (q_x, q_y, p_x, p_y, s_x, s_y, s_z) = (1.4142")]
        for k, (lams, named, seed) in enumerate(cases):
            run = tmp_path / str(k)
            run.mkdir()
            cfg = write_config(run, SMALL_MODEL + f"model.lambda_list = {lams}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["fixed-points", "--config", str(cfg), "--out", str(run / "out")])
            assert code == 3
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith(f"compute error: fixed-point search at lam = {named}: ")
            assert "not finite" in err
            assert seed in err

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

    @pytest.mark.parametrize("key,value,count", [
        ("model.lambda_grid", "0.05:0.1:0.05", 2),
        ("model.lambda_list", "0.1", 1),
    ])
    def test_short_coupling_list_exits_two_before_the_scenario_runs(
            self, tmp_path, capsys, monkeypatch, key, value, count):
        # entanglement-curves differentiates each curve over its couplings,
        # so fewer than three are refused before anything is tracked
        calls = []
        monkeypatch.setitem(cli.SCENARIOS, "entanglement-curves",
                            lambda *inputs: calls.append(inputs))
        text = SMALL_MODEL + f"{key} = {value}\nnumerics.n_t = 4\n"
        out = tmp_path / "out"
        assert main(["entanglement-curves", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 4: {key} gives {count} couplings, but entanglement-curves"
            " needs at least 3 for its derivatives\n")
        assert calls == []
        assert list(out.iterdir()) == []
        three = cf.read_entries(SMALL_MODEL + "model.lambda_grid = 0:0.1:0.05\n")
        assert cli.validate("entanglement-curves", three)[1] == [0.0, 0.05, 0.1]

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

    @pytest.mark.parametrize("command,extra", [
        ("track-pes", ""),
        ("husimi-section", "husimi.section_points = 5\nhusimi.grid2d_lambda = 0.1\n"),
    ])
    def test_pes_seed_beyond_the_cutoff_exits_two_naming_n_t(self, tmp_path, capsys,
                                                             command, extra):
        # the pes seed holds one phonon, which n_t = 0 cuts off
        text = SMALL_MODEL + "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 0\n" + extra
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        line = text.splitlines().index("numerics.n_t = 0") + 1
        assert capsys.readouterr().err == (f"config error: line {line}: numerics.n_t must be"
                                           " >= 1 to hold the pes seed, got 0\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,extra", [
        ("track-pgs", ""),
        ("husimi-section", "husimi.section_points = 5\n"),
    ])
    def test_pgs_seed_alone_runs_at_n_t_zero(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 0\n" + extra))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


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

    def test_track_pgs_writes_every_grid_coupling(self, tmp_path):
        # a step of 0.02 from one stop sums to 1-2 ulp below the next stop
        # at 0.14, 0.16, ..., 0.28; each row must carry the grid's own value
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.7:0.02\nnumerics.n_t = 8\n"))
        out = tmp_path / "out"
        assert main(["track-pgs", "--config", str(cfg), "--out", str(out)]) == 0
        lams = [row.split(",")[0]
                for row in (out / "track_pgs.csv").read_text().splitlines()[1:]]
        assert {"0.14", "0.16", "0.18", "0.2", "0.22", "0.24", "0.26", "0.28"} <= set(lams)
        assert set(map(repr, couplings("model.lambda_grid = 0:0.7:0.02\n"))) <= set(lams)

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
# repr switches to exponent notation (and their neighbours), values that need
# all 17 digits, powers of two (an asymmetric rounding interval), one value of
# each shortest length from 1 to 16 digits, and 17-digit decimal ties, which
# repr rounds to even (...0.2 and ...0.8)
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
                1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
                0.30000000000000004, 1.2345678901234567, -2.718281828459045, 1e22,
                0.5, 2.0 ** -20, 2.0 ** 52, 2.0 ** 53,
                *(float(np.nextafter(v, to)) for v in (1e-4, 1e16) for to in (0.0, math.inf)),
                *(float("7." + "123456789123456"[:k - 1]) for k in range(1, 17)),
                1000000000000000.25, 1000000000000000.75]

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


# the block sizes a writer test runs in: its own small ones, so that rows
# cross block boundaries, and the writer's CHUNK_ROWS
_BLOCK_SIZES = pytest.mark.parametrize("small_blocks", [True, False],
                                       ids=["small-blocks", "chunk-rows"])


@contextmanager
def _writer_blocks(chunk_rows, small_blocks=True):
    """The table writer splits rows into blocks of chunk_rows, or of its own
    CHUNK_ROWS when small_blocks is false."""
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(cli, "CHUNK_ROWS", chunk_rows)
        yield


class TestTableWriter:
    @_BLOCK_SIZES
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_tables(), min_size=1, max_size=3), st.integers(1, 5))
    def test_columns_write_the_bytes_of_the_row_formatter(self, tmp_path_factory, small_blocks,
                                                          tables, chunk_rows):
        out = tmp_path_factory.mktemp("tables")
        with _writer_blocks(chunk_rows, small_blocks):
            _write_tables(out, {f"t{k}.csv": Table(header, columns)
                                for k, (header, columns) in enumerate(tables)})
        assert sorted(p.name for p in out.iterdir()) == [f"t{k}.csv" for k in range(len(tables))]
        for k, (header, columns) in enumerate(tables):
            rows = list(zip(*(list(c) for c in columns)))
            assert (out / f"t{k}.csv").read_bytes() == _oracle_payload(header, rows)

    @_BLOCK_SIZES
    @pytest.mark.parametrize("column", [np.full(5, v) for v in _EDGE_FLOATS]
                             + [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0]),
                                np.array([math.nan, -math.nan]), np.array([]), np.array([7.5])])
    def test_constant_columns_write_the_bytes_of_the_row_formatter(self, tmp_path, column,
                                                                   small_blocks):
        # a column of one value is formatted once per block; only
        # bit-identical cells count as one value, so 0.0 and -0.0 keep their
        # own text, also where a block boundary separates them
        with _writer_blocks(2, small_blocks):
            _write_tables(tmp_path, {"a.csv": Table(["c"], [column]),
                                     "b.csv": Table(["c", "d"], [column, column[::-1]])})
        assert (tmp_path / "a.csv").read_bytes() == \
            _oracle_payload(["c"], [(v,) for v in column.tolist()])
        assert (tmp_path / "b.csv").read_bytes() == \
            _oracle_payload(["c", "d"], list(zip(column.tolist(), column[::-1].tolist())))

    @_BLOCK_SIZES
    def test_kernel_columns_write_the_bytes_of_the_row_formatter(self, tmp_path, small_blocks):
        # strided float64 views, as portrait passes points[:, 0], in blocks
        # of many rows (two blocks either way), with the edge values mixed in
        rng = np.random.default_rng(5)
        rows = 17084
        points = rng.normal(size=(rows, 2))
        points[::97, 0] = np.resize(_EDGE_FLOATS, points[::97, 0].size)
        coords = np.repeat(np.linspace(-6, 6, 161), rows // 161 + 1)[:rows]
        columns = [points[:, 0], points[:, 1], coords]
        with _writer_blocks(8492, small_blocks):
            _write_tables(tmp_path, {"k.csv": Table(["x", "y", "u"], columns)})
        table_rows = list(zip(*(column.tolist() for column in columns)))
        assert (tmp_path / "k.csv").read_bytes() == _oracle_payload(["x", "y", "u"], table_rows)

    def test_edge_values_through_the_kernel(self):
        column = np.array(_EDGE_FLOATS)
        assert reprs(column).view("S24").ravel().tolist() == \
            [repr(v).encode() for v in column.tolist()]

    @_BLOCK_SIZES
    def test_failing_formatter_leaves_no_temp_file(self, tmp_path, monkeypatch, small_blocks):
        inner = cli._format_block

        # the block holding row 8 of the first file fails: its third block
        # of 4 rows, or its only block of CHUNK_ROWS
        def failing(table, start, stop):
            if start <= 8 < stop:
                raise RuntimeError("formatter failed")
            return inner(table, start, stop)

        monkeypatch.setattr(cli, "_format_block", failing)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.15, 0.32\n"
            "portrait.radii = 0.5, 2.0\nportrait.angles = 3\nportrait.iterations = 5\n"))
        out = tmp_path / "out"
        with _writer_blocks(4, small_blocks), \
                pytest.raises(RuntimeError, match="formatter failed"):
            main(["portrait", "--config", str(cfg), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_no_bifurcation_writes_header_only_file(self, tmp_path):
        # delta/2 > 3 pi/4 makes both cot(delta/2) +- 1 negative: no lambda_b
        cfg = write_config(tmp_path, "model.omega = pi/60\nmodel.delta = 5\n")
        out = tmp_path / "out"
        assert main(["critical-couplings", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "critical_couplings.csv").read_bytes() == b"lambda_b,branch\n"

    @_BLOCK_SIZES
    def test_portrait_files_match_row_formatter_without_forking(self, tmp_path, monkeypatch,
                                                                 small_blocks):
        # a run of many blocks, or of one block per file, is formatted in
        # this process: no fork
        def no_fork():
            raise RuntimeError("the table writer forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_list = 0.15, 0.32\n"
            "portrait.radii = 0.5, 2.0\nportrait.angles = 3\nportrait.iterations = 5\n"))
        out = tmp_path / "out"
        with _writer_blocks(4, small_blocks):
            assert main(["portrait", "--config", str(cfg), "--out", str(out)]) == 0
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
    # the table writer formats every block in this process
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = ("import sys, kickjt.cli; "
            "assert 'multiprocessing' not in sys.modules; "
            "assert 'concurrent.futures' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_start_does_not_load_scipy():
    # the BLAS thread controls find scipy.libs without importing scipy
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import sys, kickjt.cli; assert 'scipy' not in sys.modules"
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


# the names perfbench's tracer (perfbench/bench_trace.py) patches that each
# scenario must reach: a call that bypasses one (say, a by-name import of
# it) fails its workload's coverage guard
_QUANTUM = ("qf.track_eigenstate", "qf.floquet_operator")
_CENSUS = ("cli.find_fixed_points", "bifurcation.step_arrays")
_REACHES = {
    "entanglement-curves": (*_QUANTUM, "obs.entanglement_measures", "obs.reduced_density",
                            "obs.von_neumann_entropy", "obs.log_negativity"),
    "husimi-section": (*_QUANTUM, "obs.husimi_on_section", "obs.husimi_product_grid"),
    "portrait": ("cli.portrait", "bifurcation.step_arrays"),
    "fixed-points": _CENSUS,
    "detection-prob": _CENSUS,
}
_TRACED_MODULES = {"cli": cli, "bifurcation": bifurcation, "qf": qf, "obs": obs}


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("command", sorted(_REACHES))
def test_scenario_reaches_the_traced_names(tmp_path, monkeypatch, command):
    counts = dict.fromkeys(_REACHES[command], 0)
    for key in counts:
        module, name = key.split(".")
        target = _TRACED_MODULES[module]
        monkeypatch.setattr(target, name, _counting(counts, key, getattr(target, name)))
    text = _SMALL_RUNS[command]
    if command == "husimi-section":
        text += "husimi.grid2d_lambda = 0.1\n"
    cfg = write_config(tmp_path, SMALL_MODEL + text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [key for key, calls in counts.items() if calls == 0] == []


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


    # a fresh interpreter, with no BLAS thread variable, that knows the
    # OpenBLAS libraries bundled in scipy.libs and whether each is loaded
    SCIPY_OPENBLAS = """
import ctypes, glob, importlib.util, os, sys
from pathlib import Path
from kickjt import cli
libdir = Path(importlib.util.find_spec("scipy").origin).resolve().parent.parent / "scipy.libs"
paths = sorted(glob.glob(str(libdir / "*openblas*")))
if not paths:
    sys.exit(5)

def loaded(path):
    try:
        return ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
    except OSError:
        return None
"""

    def _probe(self, tmp_path, body):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        env["PYTHONPATH"] = str(SRC_DIR)
        cfg = write_config(tmp_path, SMALL_MODEL)
        argv = ["critical-couplings", "--config", str(cfg), "--out", str(tmp_path / "out")]
        run = subprocess.run([sys.executable, "-c", self.SCIPY_OPENBLAS + body.format(argv=argv)],
                             env=env, capture_output=True, text=True, timeout=60)
        if run.returncode == 5:
            pytest.skip("no OpenBLAS bundled in scipy.libs")
        assert run.returncode == 0, run.stderr

    def test_main_leaves_an_unloaded_openblas_unloaded(self, tmp_path):
        # the thread pin opens only libraries the process has loaded; the
        # critical-couplings run never needs scipy's
        self._probe(tmp_path, """
assert cli.main({argv!r}) == 0
assert [loaded(path) for path in paths] == [None] * len(paths)
""")

    def test_openblas_loaded_during_main_starts_at_one_thread(self, tmp_path):
        # as the Schur fallback loads scipy's OpenBLAS inside a run
        self._probe(tmp_path, """
seen = []
real = cli.SCENARIOS["critical-couplings"]

def spy(*inputs):
    import scipy.linalg
    for path in paths:
        lib = loaded(path)
        assert lib is not None
        seen.append(lib.scipy_openblas_get_num_threads())
    return real(*inputs)

cli.SCENARIOS["critical-couplings"] = spy
assert cli.main({argv!r}) == 0
assert seen == [1] * len(paths), seen
assert "OPENBLAS_NUM_THREADS" not in os.environ
""")


TRACKED_CONFIGS = {
    "track-pgs": "model.lambda_grid = 0:0.3:0.05\nnumerics.n_t = 4\n",
    "track-pes": "model.lambda_grid = 0:0.3:0.05\nnumerics.n_t = 4\n",
    "husimi-section": ("model.lambda_grid = 0:0.2:0.05\nnumerics.n_t = 4\n"
                       "husimi.section_points = 5\nhusimi.grid2d_lambda = 0.2\n"),
    "entanglement-curves": "model.lambda_grid = 0:0.3:0.05\nnumerics.n_t = 4\n",
}


def _tracked_paths(command, cfg, lams, values):
    """The paths command tracks, in the order its scenario tracks them."""
    grid2d_lam = values.get("husimi.grid2d_lambda")
    if command == "husimi-section":
        return [qf.track_eigenstate(qf.pgs_seed(cfg.n_t), cfg, [*lams, grid2d_lam]),
                qf.track_eigenstate(qf.pes_seed(cfg.n_t), cfg, [grid2d_lam])]
    seed = qf.pes_seed if command == "track-pes" else qf.pgs_seed
    return [qf.track_eigenstate(seed(cfg.n_t), cfg, lams)]


EDGE_LINE = re.compile(r"edge-shell weight: at most (\S+) \(lam = (\S+), n_t = (\d+)\)")


class TestEdgeShellReport:
    @pytest.mark.parametrize("command", sorted(TRACKED_CONFIGS))
    def test_tracked_scenario_prints_its_largest_edge_weight(self, tmp_path, capsys,
                                                            command):
        # one line, over every sample of every path the scenario tracked; the
        # paths are tracked here with the scenario's seeds and stops, since
        # husimi-section tracks its pes path in a forked child
        cfg = write_config(tmp_path, SMALL_MODEL + TRACKED_CONFIGS[command])
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        paths = _tracked_paths(command, *cli.validate(command, cf.read_entries(cfg.read_text())))
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("edge-shell weight:")]
        assert len(lines) == 1
        weight, lam, n_t = EDGE_LINE.fullmatch(lines[0]).groups()
        samples = [s for path in paths for s in path.samples]
        weights = [qf.edge_weight(s.state) for s in samples]
        assert weight == f"{max(weights):.3e}"
        assert float(lam) == samples[int(np.argmax(weights))].lam
        assert n_t == "4"
        if command == "husimi-section":
            # the pes path holds the largest weight, so it must be counted
            assert len(paths) == 2
            assert max(map(qf.edge_weight, (s.state for s in paths[1].samples))) == \
                max(weights)

    @pytest.mark.parametrize("command,extra", [
        ("critical-couplings", ""),
        ("fixed-points", "model.lambda_list = 0.15\n"),
        ("portrait", "model.lambda_list = 0.15\nportrait.radii = 1.0\n"
                     "portrait.angles = 4\nportrait.iterations = 3\n"),
        ("detection-prob", "model.lambda_list = 0.1\n"),
    ])
    def test_scenarios_without_truncation_print_no_edge_weight(self, tmp_path, capsys,
                                                               command, extra):
        cfg = write_config(tmp_path, SMALL_MODEL + extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "edge-shell weight" not in capsys.readouterr().out

    def test_check_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MODEL + TRACKED_CONFIGS["track-pgs"])
        with pytest.raises(SystemExit) as info:
            main(["track-pgs", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--check"])
        assert info.value.code == 2
        assert "unrecognized arguments: --check" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_t", [10, 14])
    @pytest.mark.parametrize("preset", ["entanglement_curves.cfg", "husimi_sections.cfg"])
    def test_edge_weight_bounds_the_truncation_deviation(self, preset, n_t):
        # the comparison the retired --check flag printed, as an oracle: on
        # the preset grid, every value column of the run at n_t lies within
        # 3 sqrt(W) of the run at n_t + 4, relative to the column's largest
        # magnitude, where W is the run's largest edge-shell weight
        command = PRESET_COMMANDS[preset]
        cfg, lams, values = cli.validate(
            command, cf.read_entries((PRESET_DIR / preset).read_text()))
        base, bumped = (cli.SCENARIOS[command](replace(cfg, n_t=n), lams, values)
                        for n in (n_t, n_t + 4))
        weight = float(EDGE_LINE.fullmatch(base.text).group(1))
        assert base.tables.keys() == bumped.tables.keys()
        for name, table in base.tables.items():
            other = bumped.tables[name]
            assert table.header == other.header
            keys = 1 if name == "entanglement_curves.csv" else 2
            for a, b in zip(table.columns[:keys], other.columns[:keys]):
                assert np.array_equal(a, b)
            for column, a, b in zip(table.header[keys:], table.columns[keys:],
                                    other.columns[keys:]):
                a, b = np.asarray(a), np.asarray(b)
                deviation = np.max(np.abs(a - b)) / np.max(np.abs(a))
                assert deviation <= 3 * math.sqrt(weight), (name, column, deviation, weight)


@pytest.mark.parametrize("preset", ["track_pgs.cfg", "husimi_sections.cfg",
                                    "entanglement_curves.cfg"])
def test_tracked_preset_lands_on_every_coupling(monkeypatch, preset):
    # each grid coupling, and husimi.grid2d_lambda, is a sample coupling of
    # the paths the scenario tracks through it, bit for bit
    calls = []
    real = qf.track_eigenstate

    def spy(seed, cfg, stops):
        calls.append((stops, real(seed, cfg, stops)))
        return calls[-1][1]

    monkeypatch.setattr(qf, "track_eigenstate", spy)
    command = PRESET_COMMANDS[preset]
    cfg, lams, values = cli.validate(command, cf.read_entries((PRESET_DIR / preset).read_text()))
    cli.SCENARIOS[command](cfg, lams, values)
    passed = set()
    for stops, path in calls:
        assert {stop for stop in stops if stop > 0} <= {s.lam for s in path.samples}
        passed.update(stops)
    assert {*lams, values.get("husimi.grid2d_lambda")} - {None} <= passed


def test_presets_parse():
    # every preset validates against the keys its own scenario declares
    assert sorted(PRESET_COMMANDS) == sorted(p.name for p in PRESET_DIR.glob("*.cfg"))
    for preset, command in PRESET_COMMANDS.items():
        cfg, lams, values = cli.validate(
            command, cf.read_entries((PRESET_DIR / preset).read_text()))
        assert cfg.omega > 0


def _in_process(mine, theirs):
    return mine(), theirs()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSecondProcess:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # every test here, passing or failing, leaves no child process unreaped
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _run(self, tmp_path, command, out="out"):
        cfg = write_config(tmp_path, SMALL_MODEL + TRACKED_CONFIGS[command])
        return main([command, "--config", str(cfg), "--out", str(tmp_path / out)])

    def test_theirs_runs_in_a_child(self):
        mine, theirs = cli._with_child(os.getpid, os.getpid)
        assert mine == os.getpid() != theirs

    def test_without_fork_theirs_runs_here_after_mine(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        calls = []
        assert cli._with_child(lambda: calls.append("mine") or 1,
                               lambda: calls.append("theirs") or os.getpid()) == (1, os.getpid())
        assert calls == ["mine", "theirs"]

    def test_error_of_theirs_is_raised_here(self):
        def theirs():
            raise EigFailure(1e-3, 1e-9)

        with pytest.raises(EigFailure) as info:
            cli._with_child(lambda: None, theirs)
        assert (info.value.max_residual, info.value.tol) == (1e-3, 1e-9)

    @pytest.mark.parametrize("error", [ComputeError("failed here"), KeyboardInterrupt()])
    def test_error_of_mine_kills_the_child(self, error):
        def mine():
            raise error

        t0 = time.monotonic()
        with pytest.raises(type(error)):
            cli._with_child(mine, lambda: time.sleep(60))
        assert time.monotonic() - t0 < 30

    def test_child_without_a_result_is_a_compute_error(self):
        def vanish():
            os._exit(7)

        with pytest.raises(ComputeError, match=r"^the child process running vanish\(\) "
                                               r"exited with status 7 and sent no result$"):
            cli._with_child(lambda: None, vanish)

    @pytest.mark.parametrize("error", [StepUnderflow("step below 1e-06 at lam = 0.1"),
                                       EigFailure(1e-3, 1e-9)], ids=lambda e: type(e).__name__)
    def test_pes_failure_in_the_child_reads_as_in_process(self, tmp_path, capsys, monkeypatch,
                                                          error):
        real = qf.track_eigenstate

        def track(seed, cfg, stops):
            if np.array_equal(seed, qf.pes_seed(cfg.n_t)):
                raise error
            return real(seed, cfg, stops)

        monkeypatch.setattr(qf, "track_eigenstate", track)
        assert self._run(tmp_path, "husimi-section", "forked") == 3
        forked = capsys.readouterr()
        monkeypatch.setattr(cli, "_with_child", _in_process)
        assert self._run(tmp_path, "husimi-section", "in_process") == 3
        assert capsys.readouterr() == forked
        assert forked.err == f"compute error: {error}\n"

    @pytest.mark.parametrize("command,name", [("entanglement-curves", "entanglement_measures"),
                                              ("husimi-section", "husimi_on_section")])
    def test_error_in_the_parent_kills_the_child(self, tmp_path, capsys, monkeypatch,
                                                 command, name):
        # obs.<name> raises in the parent, and the child hangs
        parent = os.getpid()
        real = qf.track_eigenstate

        def fail_here(*args):
            if os.getpid() == parent:
                raise TruncationLoss(0.5, "lost in the parent")
            time.sleep(60)

        def track(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return real(*args)

        monkeypatch.setattr(obs, name, fail_here)
        monkeypatch.setattr(qf, "track_eigenstate", track)
        t0 = time.monotonic()
        assert self._run(tmp_path, command) == 3
        assert time.monotonic() - t0 < 30
        assert capsys.readouterr().err == "compute error: lost in the parent\n"

    @pytest.mark.parametrize("command,module,name,theirs", [
        ("entanglement-curves", obs, "entanglement_measures", "second_half"),
        ("husimi-section", qf, "track_eigenstate", "track_pes")])
    def test_child_killed_without_a_result_exits_three(self, tmp_path, capsys, monkeypatch,
                                                       command, module, name, theirs):
        parent = os.getpid()
        real = getattr(module, name)

        def killed_in_the_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(module, name, killed_in_the_child)
        assert self._run(tmp_path, command) == 3
        assert capsys.readouterr().err == (f"compute error: the child process running "
                                           f"{theirs}() exited with status -9 and sent no "
                                           f"result\n")

    def test_entanglement_rows_keep_grid_order(self, tmp_path):
        # each row holds the measures of its own coupling, computed here from
        # the tracked path; the 7 couplings split 3 here and 4 in the child
        assert self._run(tmp_path, "entanglement-curves") == 0
        cfg, lams, _ = cli.validate("entanglement-curves", cf.read_entries(
            SMALL_MODEL + TRACKED_CONFIGS["entanglement-curves"]))
        assert len(lams) == 7
        path = qf.track_eigenstate(qf.pgs_seed(cfg.n_t), cfg, lams)
        lines = (tmp_path / "out" / "entanglement_curves.csv").read_text().splitlines()
        rows = [tuple(map(float, line.split(",")[:4])) for line in lines[1:]]
        assert rows == [(lam, *obs.entanglement_measures(path.sample_at(lam).state))
                        for lam in lams]

    @pytest.mark.parametrize("command", ["entanglement-curves", "husimi-section"])
    def test_output_matches_an_in_process_run(self, tmp_path, capsys, monkeypatch, command):
        assert self._run(tmp_path, command, "forked") == 0
        forked = capsys.readouterr().out
        monkeypatch.setattr(cli, "_with_child", _in_process)
        assert self._run(tmp_path, command, "in_process") == 0
        assert capsys.readouterr().out == forked.replace("forked", "in_process")
        names = sorted(f.name for f in (tmp_path / "forked").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "in_process").iterdir())
        for name in names:
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "in_process" / name).read_bytes()
