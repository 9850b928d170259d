"""Tests of the benchmark's own parts: self time, tracer patching and the
coverage guard, the output checker, the reference tolerance and the seeded
model points.  Run from the checkout root with:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import json
import math
from pathlib import Path

import pytest

import bench_check
import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent


def span(span_id, name, start, end, parent=None, **counts):
    return {"id": span_id, "name": name, "parent": parent, "request": "w/r/op",
            "start": start, "end": end, "counts": counts}


# --- self time ----------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, "cli.scenario", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),      # two pool threads overlap on [3, 4]
        span(2, "b", 3.0, 6.0, parent=0),
        span(3, "c", 2.0, 3.0, parent=1),
        span(4, "d", 9.5, 11.0, parent=0),     # clipped to its parent's end
    ]
    selfs = bench_trace.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)


def test_aggregate_counts_builds_inside_tracking():
    qf = "quantum_floquet."
    spans = [
        span(0, qf + "track_eigenstate", 0.0, 10.0, steps_accepted=3),
        *[span(1 + k, qf + "floquet_operator", 1.0 + 2 * k, 2.0 + 2 * k, parent=0)
          for k in range(5)],
        span(6, qf + "floquet_operator", 11.0, 12.0),     # a build outside tracking
        span(7, "bifurcation.find_fixed_points", 20.0, 21.0, seeds=66, roots=2, map_evals=900),
    ]
    counters = {"classical_map.step_arrays.calls": 900, "classical_map.step_arrays.time_s": 0.25}
    m = bench_trace.aggregate(spans, counters)
    assert m[qf + "floquet_operator.calls"] == 6
    assert m[qf + "floquet_operator.self_s"] == pytest.approx(6.0)
    assert m[qf + "track_eigenstate.self_s"] == pytest.approx(5.0)
    assert m[qf + "track_eigenstate.floquet_builds"] == 5
    assert m[qf + "track_eigenstate.accept_ratio"] == pytest.approx(3 / 4)
    assert m["bifurcation.find_fixed_points.map_evals"] == 900
    assert m["classical_map.step_arrays.time_s"] == 0.25
    names = {p["name"] for p in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(m) <= names


# --- tracer patching and coverage guard ----------------------------------------------

def test_tracer_restores_wrappers_and_guard_catches_bypass(tmp_path):
    import kickjt.bifurcation as bif
    import kickjt.cli as cli
    import kickjt.observables as obs
    import kickjt.quantum_floquet as qf

    watched = [(cli, "main"), (cli, "portrait"), (cli, "find_fixed_points"),
               (bif, "step_arrays"), (qf, "floquet_operator"), (qf, "track_eigenstate"),
               (obs, "entanglement_measures"), (obs, "husimi_on_section")]
    before = [getattr(mod, attr) for mod, attr in watched]
    scenarios = dict(cli.SCENARIOS)
    cfg = tmp_path / "cc.cfg"
    cfg.write_text("model.omega = pi/60\nmodel.delta = 2*acot(2)\n")
    tracer = bench_trace.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.install():
            assert cli.main is not before[0]
            assert cli.main(["critical-couplings", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 0
            raise RuntimeError("boom")
    assert [getattr(mod, attr) for mod, attr in watched] == before
    assert cli.SCENARIOS == scenarios

    by_name = {s["name"]: s for s in tracer.spans}
    assert set(by_name) == {"cli.main", "cli.scenario"}
    assert by_name["cli.scenario"]["parent"] == by_name["cli.main"]["id"]
    # this run never reached the map, so a classical workload must fail loudly
    with pytest.raises(bench_trace.CoverageError, match="find_fixed_points"):
        bench_trace.check_coverage("classical", tracer.spans, tracer.counters)


# --- output checker ----------------------------------------------------------------

def _write_track(out_dir, op, leak=0.0, truncate=False):
    out_dir.mkdir()
    lines = [",".join(bench_workloads.TRACK_HEADER)]
    for k, lam in enumerate(op["params"]["lams"]):
        lines.append(f"{lam!r},{0.3 + 0.01 * k!r},{leak if k == 5 else 0.0!r},0.05")
    text = "\n".join(lines) + "\n"
    if truncate:
        text = text[: len(text) - 9]
    (out_dir / "track_pes.csv").write_text(text)


def test_checker_accepts_good_track_and_rejects_leak_and_truncation(tmp_path):
    op = bench_workloads.track_large(bench_workloads.OMEGA0, bench_workloads.DELTA0)[0]
    _write_track(tmp_path / "good", op)
    assert bench_check.check_op(op, tmp_path / "good", 0)[0] == []
    _write_track(tmp_path / "leak", op, leak=1e-9)
    problems, _ = bench_check.check_op(op, tmp_path / "leak", 0)
    assert any("sector leakage" in p for p in problems)
    _write_track(tmp_path / "cut", op, truncate=True)
    assert bench_check.check_op(op, tmp_path / "cut", 0)[0]
    assert bench_check.check_op(op, tmp_path / "good", 3)[0]


def test_checker_rejects_truncated_fixed_row_count_and_extra_file(tmp_path):
    op = bench_workloads.classical(bench_workloads.OMEGA0, bench_workloads.DELTA0)[2]
    out = tmp_path / "det"
    out.mkdir()
    rows = [f"{lam!r},3.14,0.0,0.0,0.0" for lam in op["params"]["lams"]]
    header = ",".join(bench_workloads.DETECT_HEADER)
    (out / "detection_prob.csv").write_text("\n".join([header] + rows) + "\n")
    assert bench_check.check_op(op, out, 0)[0] == []
    (out / "detection_prob.csv").write_text("\n".join([header] + rows[:-1]) + "\n")
    assert any("rows" in p for p in bench_check.check_op(op, out, 0)[0])
    (out / "detection_prob.csv").write_text("\n".join([header] + rows) + "\n")
    (out / "stray.csv").write_text("x\n")
    assert any("files" in p for p in bench_check.check_op(op, out, 0)[0])


def test_checker_rejects_wrong_census(tmp_path):
    op = bench_workloads.classical(bench_workloads.OMEGA0, bench_workloads.DELTA0)[1]
    lb1 = op["params"]["lambda_b"][0]
    out = tmp_path / "fp"
    out.mkdir()

    def write(stable_above):
        lines = [",".join(bench_workloads.FP_HEADER)]
        for lam in op["params"]["lams"]:
            n = 1 if lam < lb1 else stable_above
            for k in range(n):
                lines.append(f"{lam!r},{k}.0,0,0,0,0,0,-0.5,0.0,stable,1,1,1,1,1,1")
        (out / "fixed_points.csv").write_text("\n".join(lines) + "\n")

    write(2)
    assert bench_check.check_op(op, out, 0)[0] == []
    write(1)
    assert any("stable points" in p for p in bench_check.check_op(op, out, 0)[0])


def test_reference_tolerance_passes_solver_noise_and_fails_wrong_branch():
    reference = json.loads((HERE / "reference_seed0.json").read_text())
    for workload, ops in reference.items():
        for name, values in ops.items():
            noisy = {k: [v if isinstance(v, str) or k.split(":")[1] in ("lam", "u")
                         else v + 1e-10 for v in vals] for k, vals in values.items()}
            assert bench_check.compare_reference(name, values, noisy) == [], (workload, name)
    ec = reference["quantum-dense"]["entanglement"]
    wrong = copy.deepcopy(ec)
    wrong["entanglement_curves.csv:S_spin"][30] += 1e-4
    assert bench_check.compare_reference("entanglement", ec, wrong)
    fp = reference["classical"]["fixed_points"]
    census = copy.deepcopy(fp)
    census["fixed_points.csv:classification"][-1] = "degenerate"
    assert bench_check.compare_reference("fixed_points", fp, census)
    track = reference["track-large"]["track"]
    branch = copy.deepcopy(track)
    branch["track_pes.csv:eigenphase"][-1] += 1e-3
    assert bench_check.compare_reference("track", track, branch)


# --- seeded model points ---------------------------------------------------------------

def test_seed_zero_is_the_paper_point():
    assert bench_workloads.model_point(0) == (math.pi / 60, 2 * math.atan(0.5))


def test_seeds_keep_bifurcations_in_window_and_clear_of_grids():
    lo, hi = bench_workloads.WINDOW
    low, mid, high = bench_workloads.PORTRAIT_LAMS
    for seed in range(200):
        omega, delta = bench_workloads.model_point(seed)
        assert bench_workloads.model_point(seed) == (omega, delta)
        assert abs(omega / bench_workloads.OMEGA0 - 1) <= bench_workloads.PERTURBATION
        assert abs(delta / bench_workloads.DELTA0 - 1) <= bench_workloads.PERTURBATION
        lb1, lb2 = bench_workloads.critical_couplings(omega, delta)
        assert lo < lb1 < lb2 < hi, seed
        assert low < lb1 < mid < lb2 < high, seed
        for grids, clearance in ((bench_workloads.QUANTUM_GRIDS, bench_workloads.GRID_CLEARANCE),
                                 (bench_workloads.CLASSICAL_GRIDS,
                                  bench_workloads.CLASSICAL_CLEARANCE)):
            for grid in grids:
                assert min(abs(lam - lb) for lam in grid for lb in (lb1, lb2)) >= clearance, seed
    assert len({bench_workloads.model_point(s) for s in range(200)}) == 200


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_closed_form_couplings_match_the_program(seed):
    from kickjt.bifurcation import critical_couplings
    omega, delta = bench_workloads.model_point(seed)
    ours = bench_workloads.critical_couplings(omega, delta)
    theirs = critical_couplings(omega, delta).couplings()
    assert ours == pytest.approx(theirs, rel=1e-12)
