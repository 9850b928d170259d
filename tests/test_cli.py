import hashlib
import math
import warnings
from pathlib import Path

import pytest

from kickjt.cli import build_parser, main
from kickjt.configfile import ScenarioConfig
from kickjt.errors import ConfigError

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "kickjt" / "presets"


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_MODEL = """
model.omega = pi/60
model.delta = 2*acot(2)
"""


class TestConfigParsing:
    def test_expressions(self):
        scfg = ScenarioConfig.from_text("model.omega = pi/60\nmodel.delta = 2*acot(2)\n")
        assert scfg.require_float("model.omega") == math.pi / 60
        assert scfg.require_float("model.delta") == 2 * math.atan(0.5)

    def test_grid_inclusive(self):
        scfg = ScenarioConfig.from_text("model.lambda_grid = 0:0.55:0.01\n")
        values = scfg.lambda_values()
        assert values[0] == 0.0
        assert values[-1] == 0.55
        assert len(values) == 56

    def test_grid_parts_may_carry_spaces(self):
        scfg = ScenarioConfig.from_text("model.lambda_grid = 0 : 0.55 : 0.01\n")
        assert len(scfg.lambda_values()) == 56

    def test_list(self):
        scfg = ScenarioConfig.from_text("model.lambda_list = 0.15, 0.32\n")
        assert scfg.lambda_values() == [0.15, 0.32]

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_text("model.omega = 0.1\nbogus line\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("a.b = 1\na.b = 2\n")

    def test_bad_expression_reports_line(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_text("model.omega = fhtagn(2)\n")
            ScenarioConfig.from_text("model.omega = fhtagn(2)\n").require_float("model.omega")
        scfg = ScenarioConfig.from_text("model.omega = fhtagn(2)\n")
        with pytest.raises(ConfigError) as err:
            scfg.require_float("model.omega")
        assert err.value.line == 1

    def test_empty_lambda_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("model.omega = 0.1\n").lambda_values()

    def test_descending_lambda_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("model.lambda_list = 0.3, 0.2\n").lambda_values()

    def test_comments_and_blank_lines(self):
        scfg = ScenarioConfig.from_text("# header\n\nmodel.omega = 0.1  # trailing\n")
        assert scfg.require_float("model.omega") == 0.1


# reference for accepted input: eval with emptied builtins, acot(x) = atan2(1, x)
_EVAL_ENV = {"pi": math.pi, "e": math.e, "sqrt": math.sqrt, "sin": math.sin,
             "cos": math.cos, "tan": math.tan, "atan": math.atan, "asin": math.asin,
             "acos": math.acos, "acot": lambda x: math.atan2(1.0, x)}


def _eval_oracle(expr: str) -> float:
    return float(eval(compile(expr.strip(), "<config>", "eval"), {"__builtins__": {}}, _EVAL_ENV))


def _preset_expressions():
    for preset in sorted(PRESET_DIR.glob("*.cfg")):
        for key, entry in ScenarioConfig.from_file(preset)._entries.items():
            for part in entry.value.replace(":", ",").split(","):
                if part.strip() != "auto":
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
        value = ScenarioConfig.from_text(f"k = {expr}\n").require_float("k")
        assert value == _eval_oracle(expr), label

    @pytest.mark.parametrize("expr", [
        "().__class__.__base__.__subclasses__()[0].__name__.__len__()",
        "(lambda: 3)()", "[1.0][0]", "True", "fhtagn(2)", "x", "sqrt(x=4)", "sqrt(*[4])",
        "math.pi", "'1'", "1j", "1 < 2", "(1, 2)", "1 // 2", "7 % 2", "~1", "not 0",
        "__import__('os')", "sqrt(-1)", "1/0", "sqrt(1, 2)", "9**9**9", "(-8)**(1/3)", "1e400",
        "1e400 - 1e400", "",
    ])
    def test_rejected_with_line_number(self, expr):
        scfg = ScenarioConfig.from_text(f"# header\n\nk = {expr}\n")
        with pytest.raises(ConfigError) as err:
            scfg.require_float("k")
        assert err.value.line == 3

    def test_rejected_inside_list_and_grid(self):
        scfg = ScenarioConfig.from_text("a.b = 1, True\nc.d = 0:[1][0]:0.5\n")
        with pytest.raises(ConfigError) as err:
            scfg.get_floats("a.b")
        assert err.value.line == 1
        with pytest.raises(ConfigError) as err:
            scfg.get_grid("c.d")
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

    def test_invalid_model_parameter(self, tmp_path):
        cfg = write_config(tmp_path, "model.omega = 0\nmodel.delta = 1\n")
        assert main(["critical-couplings", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_lambda_grid(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_MODEL)
        assert main(["portrait", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MODEL)
        assert main(["critical-couplings", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
        captured = capsys.readouterr()
        assert "lambda_b" in captured.out

    def test_overflowing_coupling_exits_three_with_located_message(self, tmp_path, capsys):
        # lam = 1e300 passes validation but the Newton iterates overflow; no
        # numpy warning may escape, and the error names the coupling
        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda_list = 0.1, 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("compute error: fixed-point search at lam = 1e+300: ")
        assert "not finite" in err

    def test_compute_error_exits_three(self, tmp_path):
        # an unreachable eigenpair residual makes the seed diagonalisation fail
        cfg = write_config(tmp_path, SMALL_MODEL + (
            "model.lambda_grid = 0:0.1:0.05\nnumerics.n_t = 6\n"
            "numerics.eig_residual_tol = 1e-18\n"))
        assert main(["entanglement-curves", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3


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
        cfg = write_config(tmp_path, SMALL_MODEL + "model.lambda = 0.15\n")
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


def test_presets_parse():
    for preset in sorted(PRESET_DIR.glob("*.cfg")):
        scfg = ScenarioConfig.from_file(preset)
        assert scfg.require_float("model.omega") > 0
