"""Span tracing around the public functions of each kickjt layer.

The tracer wraps the names the callers look up (module attributes and the
``cli.SCENARIOS`` table), records one span per call (name, start, end,
parent, request id) in memory, and restores every original on exit.  The
classical map step is too fine-grained for spans, so it is a counter: calls
and accumulated time, also credited to the enclosing span.

Self time of a span is its duration minus the union of the intervals its
child spans cover.  Spans opened on a pool thread with no open span of its
own take the open scenario span as parent, so a scenario's self time
excludes the work its pool threads did.

``aggregate`` turns spans into the per-layer metrics; it needs nothing but
the span records, so it is testable on synthetic spans.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

# Which workloads each traced layer must be called on (the coverage guard)
# and which end-to-end metric a change to that layer is predicted to move.
LAYERS = {
    "cli.main": {
        "used_by": ("quantum-dense", "track-large", "classical"),
        "moves": "wall_s on classical mostly (parse, CSV format and write); quantum-dense a little"},
    "cli.scenario": {
        "used_by": ("quantum-dense", "track-large", "classical"),
        "moves": "wall_s on classical (row building, pool overhead)"},
    "quantum_floquet.floquet_operator": {
        "used_by": ("quantum-dense", "track-large"),
        "moves": "wall_s on track-large and quantum-dense; not classical"},
    "quantum_floquet.track_eigenstate": {
        "used_by": ("quantum-dense", "track-large"),
        "moves": "wall_s on track-large and quantum-dense (sector Schur, overlap selection)"},
    "observables.entanglement_measures": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense only"},
    "observables.reduced_density": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense only"},
    "observables.von_neumann_entropy": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense only"},
    "observables.log_negativity": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense only"},
    "observables.husimi_on_section": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense, under 1 %"},
    "observables.husimi_product_grid": {
        "used_by": ("quantum-dense",), "moves": "wall_s on quantum-dense, under 1 %"},
    "bifurcation.find_fixed_points": {
        "used_by": ("classical",), "moves": "wall_s on classical"},
    "bifurcation.portrait": {
        "used_by": ("classical",), "moves": "wall_s on classical"},
    "classical_map.step_arrays": {
        "used_by": ("classical",), "moves": "wall_s on classical"},
}

STEP_COUNTER = "classical_map.step_arrays"


class CoverageError(RuntimeError):
    """A wrapped layer recorded no call on a workload that must use it."""


class Tracer:
    """In-memory span recorder; install() patches kickjt, and restores it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._tallies: list[list] = []
        self.request = ""
        self._scenario_span: dict | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else self._scenario_span
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {"id": span_id, "name": name, "parent": parent["id"] if parent else None,
                "request": self.request, "start": time.perf_counter(), "end": None,
                "counts": {}}
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def span_wrapper(self, name: str, fn, counts=None, scenario: bool = False):
        """fn wrapped in a span; counts(args, result) adds span counts."""
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if scenario:
                self._scenario_span = span
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"].update(counts(args, kwargs, result))
                return result
            finally:
                if scenario:
                    self._scenario_span = None
                self._close(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def counter_wrapper(self, name: str, fn):
        """fn counted (calls, time) per thread and on the enclosing span;
        per-thread totals avoid a lock on this hot path."""
        local = self._local
        tallies = self._tallies

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tally = getattr(local, "tally", None)
                if tally is None:
                    tally = local.tally = [0, 0.0]
                    with self._lock:
                        tallies.append(tally)
                tally[0] += 1
                tally[1] += elapsed
                stack = getattr(local, "stack", None)
                if stack:
                    counts = stack[-1]["counts"]
                    counts["map_evals"] = counts.get("map_evals", 0) + 1
        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def counters(self) -> dict[str, float]:
        return {f"{STEP_COUNTER}.calls": sum(t[0] for t in self._tallies),
                f"{STEP_COUNTER}.time_s": sum(t[1] for t in self._tallies)}

    # --- patching -------------------------------------------------------------

    @contextmanager
    def install(self):
        """Patch every traced name in kickjt; restore all of them on exit."""
        import kickjt.bifurcation as bif
        import kickjt.cli as cli
        import kickjt.observables as obs
        import kickjt.quantum_floquet as qf

        def husimi_points(args, kwargs, result):
            values = getattr(result, "values", result)
            return {"points": int(values.size)}

        def track_counts(args, kwargs, result):
            return {"steps_accepted": len(result.samples) - 1}

        def fp_counts(args, kwargs, result):
            seeds = args[1] if len(args) > 1 else kwargs["seeds"]
            return {"seeds": len(seeds), "roots": len(result)}

        def portrait_points(args, kwargs, result):
            return {"points": int(result.shape[0])}

        patches = [
            (cli, "main", self.span_wrapper("cli.main", cli.main)),
            (cli, "portrait", self.span_wrapper("bifurcation.portrait", cli.portrait,
                                                portrait_points)),
            (cli, "find_fixed_points", self.span_wrapper(
                "bifurcation.find_fixed_points", cli.find_fixed_points, fp_counts)),
            (bif, "step_arrays", self.counter_wrapper(STEP_COUNTER, bif.step_arrays)),
            (qf, "floquet_operator", self.span_wrapper(
                "quantum_floquet.floquet_operator", qf.floquet_operator)),
            (qf, "track_eigenstate", self.span_wrapper(
                "quantum_floquet.track_eigenstate", qf.track_eigenstate, track_counts)),
        ]
        for name in ("entanglement_measures", "reduced_density",
                     "von_neumann_entropy", "log_negativity"):
            patches.append((obs, name, self.span_wrapper(f"observables.{name}",
                                                         getattr(obs, name))))
        for name in ("husimi_on_section", "husimi_product_grid"):
            patches.append((obs, name, self.span_wrapper(f"observables.{name}",
                                                         getattr(obs, name), husimi_points)))
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        scenarios = dict(cli.SCENARIOS)
        try:
            for mod, attr, wrapped in patches:
                setattr(mod, attr, wrapped)
            for key, fn in scenarios.items():
                cli.SCENARIOS[key] = self.span_wrapper("cli.scenario", fn, scenario=True)
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)
            cli.SCENARIOS.update(scenarios)


# --- aggregation ------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            start = max(s["start"], parent["start"])
            end = min(s["end"], parent["end"])
            if end > start:
                children.setdefault(parent["id"], []).append((start, end))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
            for s in spans}


def aggregate(spans: list[dict], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from spans and counters (names as in BENCHMARK.json)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[s["id"]]
        bucket = counts.setdefault(name, {})
        for key, value in s["counts"].items():
            bucket[key] = bucket.get(key, 0) + value
    # floquet builds made inside each tracking call
    by_id = {s["id"]: s for s in spans}
    builds = sum(1 for s in spans if s["name"] == "quantum_floquet.floquet_operator"
                 and by_id.get(s["parent"], {}).get("name") == "quantum_floquet.track_eigenstate")

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    qf_track = "quantum_floquet.track_eigenstate"
    tracks = calls.get(qf_track, 0)
    accepted = c(qf_track, "steps_accepted")
    trials = builds - tracks
    metrics = {
        "quantum_floquet.floquet_operator.calls": calls.get("quantum_floquet.floquet_operator", 0),
        "quantum_floquet.floquet_operator.self_s": self_s.get("quantum_floquet.floquet_operator", 0.0),
        "quantum_floquet.track_eigenstate.calls": tracks,
        "quantum_floquet.track_eigenstate.self_s": self_s.get(qf_track, 0.0),
        "quantum_floquet.track_eigenstate.steps_accepted": accepted,
        "quantum_floquet.track_eigenstate.floquet_builds": builds,
        "quantum_floquet.track_eigenstate.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "observables.entanglement_measures.calls": calls.get("observables.entanglement_measures", 0),
    }
    for name in ("entanglement_measures", "reduced_density", "von_neumann_entropy",
                 "log_negativity", "husimi_on_section", "husimi_product_grid"):
        metrics[f"observables.{name}.self_s"] = self_s.get(f"observables.{name}", 0.0)
    metrics["observables.husimi.points"] = (c("observables.husimi_on_section", "points")
                                            + c("observables.husimi_product_grid", "points"))
    fp = "bifurcation.find_fixed_points"
    metrics.update({
        f"{fp}.calls": calls.get(fp, 0),
        f"{fp}.self_s": self_s.get(fp, 0.0),
        f"{fp}.seeds": c(fp, "seeds"),
        f"{fp}.roots": c(fp, "roots"),
        f"{fp}.map_evals": c(fp, "map_evals"),
        "bifurcation.portrait.self_s": self_s.get("bifurcation.portrait", 0.0),
        "bifurcation.portrait.points": c("bifurcation.portrait", "points"),
        f"{STEP_COUNTER}.calls": counters.get(f"{STEP_COUNTER}.calls", 0),
        f"{STEP_COUNTER}.time_s": counters.get(f"{STEP_COUNTER}.time_s", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.scenario.self_s": self_s.get("cli.scenario", 0.0),
    })
    return metrics


def check_coverage(workload: str, spans: list[dict], counters: dict[str, float]) -> None:
    """Raise CoverageError if a layer the workload must use recorded no call."""
    calls = {STEP_COUNTER: counters.get(f"{STEP_COUNTER}.calls", 0)}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    missing = [name for name, layer in LAYERS.items()
               if workload in layer["used_by"] and not calls.get(name)]
    if missing:
        raise CoverageError(
            f"traced run of {workload} recorded zero calls for {', '.join(missing)}: "
            "a wrapper is bypassed, so its layer metrics would read a silent zero")


def layer_shares(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Self time of each traced layer as a share of the traced wall time."""
    selfs = self_times(spans)
    shares: dict[str, float] = {}
    for s in spans:
        shares[s["name"]] = shares.get(s["name"], 0.0) + selfs[s["id"]] / wall_s
    return shares
