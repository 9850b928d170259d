"""One workload repetition in a fresh interpreter.

Usage: python3 bench_worker.py <job.json>

The job names the checkout root, the operations (scenario, config path,
output directory), the run mode and where to write the result.  The worker
imports kickjt.cli from the checkout's src directory, calls
``kickjt.cli.main(argv)`` once per operation as a user would (no warm-up),
and times from the first call to the return of the last.  Mode "traced"
wraps the layers first and writes the spans; mode "single" appends
``--threads 1`` (the parent also pins BLAS to one thread).  Run facts are
gathered after the timed region.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path


def _blas_facts(module) -> dict:
    """BLAS build info from the module config and, through ctypes, the thread
    count of the OpenBLAS bundled in <module>.libs; else from the environment."""
    facts = {}
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        facts["library"] = blas.get("name")
        facts["version"] = blas.get("version")
    except (AttributeError, KeyError, TypeError):
        facts["library"] = facts["version"] = "unknown"
    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["threads"] = int(fn())
                facts["threads_source"] = f"ctypes:{Path(path).name}:{fn_name}"
                return facts
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    facts["threads"] = int(env) if env else os.cpu_count()
    facts["threads_source"] = "environment" if env else "default: cpu count"
    return facts


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git (which would
    search above the checkout); 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process image (VmHWM).  ru_maxrss is not
    used: Linux carries the parent's high-water mark across fork and exec,
    so it would report the memory of run.py, which spawned this worker."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_facts(job: dict, cli) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    facts = {
        "workload": job["workload"], "seed": job["seed"], "mode": job["mode"],
        "omega": job["omega"], "delta": job["delta"], "lambda_b": job["lambda_b"],
        "n_t": job["n_t"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cli_threads": cli.build_parser().parse_args(job["ops"][0]["argv"]).threads,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_numpy": _blas_facts(numpy), "blas_scipy": _blas_facts(scipy),
        "git_commit": _git_commit(Path(job["root"])),
    }
    if job["n_t"] is not None:
        from kickjt.quantum_floquet import build_basis
        basis = build_basis(job["n_t"])
        facts["basis_dim"] = basis.dim
        facts["sector_dim"] = int(basis.sector_indices("O").size)
    return facts


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"]).resolve()
    import kickjt.cli as cli
    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"kickjt imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if job["mode"] == "traced":
        from bench_trace import Tracer
        tracer = Tracer()
    ops = []
    with tracer.install() if tracer else contextlib.nullcontext():
        t_first = time.perf_counter()
        for op in job["ops"]:
            if tracer:
                tracer.request = f"{job['workload']}/{job['run']}/{op['name']}"
            t0 = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:   # argparse errors exit instead of returning
                code = exc.code
            except Exception as exc:    # a crash fails this operation, not the run
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
            ops.append({"name": op["name"], "exit_code": code,
                        "start": t0, "end": time.perf_counter()})
        wall_s = time.perf_counter() - t_first

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
        "facts": run_facts(job, cli),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
