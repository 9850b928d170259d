"""kickjt benchmark: end-to-end CLI workloads, checked, with a traced run.

Usage (from the checkout root):

    python3 perfbench/run.py --workload <quantum-dense|track-large|classical>
        --seed <n> --seconds <s> --trace <0|1> [--write-reference]

Each repetition runs the workload's scenario calls in a fresh interpreter
through ``kickjt.cli.main`` with default settings (no ``--threads``, no BLAS
environment override), as a user would; repetitions continue while the
next one should end within ``--seconds`` (at least one).  Every call's outputs are checked.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (median over repetitions), ``setup_s`` (median
  over SETUP_REPS fresh interpreters importing kickjt.cli) and
  ``peak_rss_mb`` (median peak resident memory of a repetition).
* ``--trace 1``: the same untraced repetitions, then one traced repetition
  (per-layer metrics, tracing overhead) and one single-threaded repetition
  (``OPENBLAS_NUM_THREADS=1``, ``--threads 1``), reported but not gated.

Run facts (truncation, dimensions, BLAS library and threads, versions,
nproc, seed, commit) are printed as a JSON line before the result and kept
with the spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference_seed0.json"
SETUP_REPS = 3
CHILD_TIMEOUT = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OPENBLAS_MAIN_FREE", "GOTO_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(single_thread: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
    return env


def time_setup() -> float:
    """Interpreter start plus `import kickjt.cli`, in a fresh process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kickjt.cli"], env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    return time.perf_counter() - t0


def write_inputs(spec: dict, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for op in spec["ops"]:
        cfg = run_dir / f"{op['name']}.cfg"
        cfg.write_text(op["config"])
        op["config_path"] = str(cfg)


def run_rep(spec: dict, run_dir: Path, label: str, mode: str, reference: dict | None) -> dict:
    """One repetition in a fresh worker process; returns its result with
    each operation checked (and, given a reference, compared with it).
    Outputs go to run_dir/out, which holds only the latest repetition's."""
    rep_dir = run_dir / label
    out_root = run_dir / "out"
    for d in (rep_dir, out_root):
        if d.exists():
            shutil.rmtree(d)
    rep_dir.mkdir(parents=True)
    ops = []
    for op in spec["ops"]:
        argv = [op["scenario"], "--config", op["config_path"],
                "--out", str(out_root / op["name"])]
        if mode == "single":
            argv += ["--threads", "1"]
        ops.append({"name": op["name"], "argv": argv})
    job = {k: spec[k] for k in ("workload", "seed", "omega", "delta", "lambda_b", "n_t")}
    job.update({"root": str(ROOT), "mode": mode, "run": label, "ops": ops,
                "result": str(rep_dir / "result.json")})
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    with open(rep_dir / "stdout.txt", "w") as out:
        proc = subprocess.run([sys.executable, str(HERE / "bench_worker.py"), str(job_path)],
                              env=child_env(single_thread=(mode == "single")),
                              stdout=out, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker for {label} exited with code {proc.returncode}")
    result = json.loads(Path(job["result"]).read_text())
    result["problems"] = []
    result["out_rows"] = result["out_bytes"] = 0
    for op, record in zip(spec["ops"], result["ops"]):
        out_dir = out_root / op["name"]
        problems, stats = bench_check.check_op(op, out_dir, record["exit_code"])
        if not problems and reference is not None:
            problems = bench_check.compare_reference(
                op["name"], reference.get(op["name"], {}),
                bench_check.reference_values(op, out_dir))
        record["passed"] = not problems
        result["problems"] += [f"{label}: {p}" for p in problems]
        result["out_rows"] += stats["rows"]
        result["out_bytes"] += stats["bytes"]
    return result


def seed0_reference(workload: str) -> dict:
    reference = bench_check.load_reference(REFERENCE).get(workload)
    if reference is None:
        raise BenchError(f"no seed-0 reference stored for {workload} in {REFERENCE.name}")
    return reference


def write_reference(spec: dict, rep_dir: Path) -> None:
    reference = bench_check.load_reference(REFERENCE)
    reference[spec["workload"]] = {
        op["name"]: bench_check.reference_values(op, rep_dir / op["name"])
        for op in spec["ops"]}
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def trace_metrics(workload: str, traced: dict, untraced_wall: list[float],
                  single: dict) -> dict:
    spans, counters = traced["spans"], traced["counters"]
    bench_trace.check_coverage(workload, spans, counters)
    layers = bench_trace.aggregate(spans, counters)
    layers["cli.out.rows"] = traced["out_rows"]
    layers["cli.out.bytes"] = traced["out_bytes"]
    layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(untraced_wall)
    layers["single_thread.wall_s"] = single["wall_s"]
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = set(units) ^ set(layers)
    if missing:
        raise BenchError(f"per-layer metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {name: metric(layers[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the seed-0 reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kickjt" / "cli.py").is_file():
        raise BenchError(f"no kickjt sources under {ROOT / 'src'}")
    if args.write_reference and args.seed != 0:
        raise BenchError("the reference is defined at seed 0")

    spec = bench_workloads.build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    write_inputs(spec, run_dir)

    if args.write_reference:
        first = run_rep(spec, run_dir, "reference", "default", None)
        if first["problems"]:
            raise BenchError("outputs fail their checks: " + "; ".join(first["problems"]))
        write_reference(spec, run_dir / "out")
    reference = seed0_reference(args.workload) if args.seed == 0 else None

    setup = [time_setup() for _ in range(SETUP_REPS)]

    # Start another repetition only if it should end within --seconds, so a
    # run's length stays bounded whatever a repetition costs.
    reps = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        reps.append(run_rep(spec, run_dir, f"rep{len(reps)}", "default", reference))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    extra = []
    if args.trace:
        extra = [run_rep(spec, run_dir, "traced", "traced", reference),
                 run_rep(spec, run_dir, "single", "single", reference)]

    problems = [p for r in reps + extra for p in r["problems"]]
    ops = [op for r in reps + extra for op in r["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["passed"])

    wall = [r["wall_s"] for r in reps]
    if args.trace:
        metrics = trace_metrics(args.workload, extra[0], wall, extra[1])
    else:
        metrics = {
            "wall_s": metric(statistics.median(wall), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }

    facts = reps[0]["facts"]
    record = {"facts": facts, "setup_s": setup, "wall_s": wall,
              "peak_rss_mb": [r["peak_rss_mb"] for r in reps], "problems": problems,
              "metrics": metrics}
    if args.trace:
        traced = extra[0]
        record["trace"] = {"wall_s": traced["wall_s"], "spans": traced["spans"],
                           "counters": traced["counters"],
                           "layer_shares": bench_trace.layer_shares(traced["spans"],
                                                                    traced["wall_s"]),
                           "layer_predictions": {k: v["moves"] for k, v in
                                                 bench_trace.LAYERS.items()},
                           "single_thread_facts": extra[1]["facts"]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir / "out")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetition(s), wall_s "
          + ", ".join(f"{w:.3f}" for w in wall)
          + (f"; single-thread wall_s {extra[1]['wall_s']:.3f}; traced wall_s "
             f"{extra[0]['wall_s']:.3f}" if extra else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, bench_trace.CoverageError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
