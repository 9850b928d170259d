"""Workload definitions: seeded model points, scenario configs and the
outputs each scenario call must produce.

A workload is an ordered list of operations; one operation is one call of
``kickjt.cli.main`` with a generated config file.  Seed 0 is the paper
point omega = pi/60, delta = 2 acot 2.  Other seeds perturb omega and delta
by up to PERTURBATION (relative) and redraw until both bifurcation
couplings sit inside the swept window, each portrait coupling lies in its
own regime, and every grid coupling stays clear of both bifurcations.
PERTURBATION stays at 2 %: towards omega -3 %, delta +3 % the shifted
islands lose strong stability (mixed Krein signature) below lambda = 0.55,
which would change the census the checks expect.

Nothing here imports kickjt or numpy: the benchmark's parent process stays
light, and the expected values come from the paper's closed forms.
"""

from __future__ import annotations

import math
import random

OMEGA0 = math.pi / 60
DELTA0 = 2 * math.atan2(1.0, 2.0)
PERTURBATION = 0.02

# Couplings swept by the quantum scenarios; both bifurcations must fall inside.
WINDOW = (0.0, 0.55)
# Classical grids (census, detection, portraits) classify fixed points, which
# degenerate at a bifurcation, so they keep a wider distance than the
# quantum grids, whose points only need to differ from the bifurcation.
CLASSICAL_CLEARANCE = 0.005
GRID_CLEARANCE = 0.002

PORTRAIT_LAMS = (0.15, 0.32, 0.50)   # below, between and above the bifurcations
PORTRAIT_RADII = (0.5, 1, 1.5, 2, 2.5, 3, 4)
PORTRAIT_ANGLES = 16
PORTRAIT_ITERATIONS = 2000
SECTION_POINTS = 161
GRID2D_LAMBDA = 0.32
NEWTON_TOL = 1e-12

TRACK_HEADER = ["lam", "eigenphase", "sector_leakage", "dlam_used"]
FP_HEADER = (["lam", "q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z",
              "residual", "classification"] + [f"mod{k}" for k in range(1, 7)])
EC_HEADER = ["lam", "S_spin", "S_osc_x", "E_N",
             "dS_spin_dlam", "dS_osc_x_dlam", "dE_N_dlam"]
DETECT_HEADER = ["lam", "theta", "alpha_x", "alpha_y", "p_plus"]


def critical_couplings(omega: float, delta: float) -> tuple[float, ...]:
    """Pitchfork couplings lambda_b^2 = 8 tan(omega/2) / (cot(delta/2) +- 1),
    ascending; a branch with a non-positive right-hand side is absent."""
    cot = 1.0 / math.tan(delta / 2.0)
    values = []
    for branch in (1.0, -1.0):
        rhs = 8.0 * math.tan(omega / 2.0) / (cot + branch)
        if rhs > 0:
            values.append(math.sqrt(rhs))
    return tuple(sorted(values))


def grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive grid as the config grammar documents it (rounded to 12
    decimals), so grid couplings compare exactly with the CSV values."""
    count = int(math.floor((stop - start) / step + 1e-9))
    values = [round(start + k * step, 12) for k in range(count + 1)]
    return [v for v in values if v <= stop + 1e-12]


EC_GRID = grid(0.0, 0.55, 0.01)
HUSIMI_GRID = grid(0.0, 0.40, 0.02)
TRACK_GRID = grid(0.0, 0.55, 0.05)
FP_GRID = grid(0.05, 0.55, 0.05)
DETECT_GRID = grid(0.0, 0.55, 0.05)
QUANTUM_GRIDS = (EC_GRID, HUSIMI_GRID, [GRID2D_LAMBDA], TRACK_GRID)
CLASSICAL_GRIDS = (FP_GRID, DETECT_GRID, list(PORTRAIT_LAMS))


def point_is_clear(omega: float, delta: float) -> bool:
    """True when (omega, delta) satisfies every workload's placement rule."""
    lbs = critical_couplings(omega, delta)
    if len(lbs) != 2:
        return False
    lb1, lb2 = lbs
    if not (WINDOW[0] < lb1 and lb2 < WINDOW[1]):
        return False
    low, mid, high = PORTRAIT_LAMS
    if not (low < lb1 < mid < lb2 < high):
        return False
    for grids, clearance in ((QUANTUM_GRIDS, GRID_CLEARANCE),
                             (CLASSICAL_GRIDS, CLASSICAL_CLEARANCE)):
        for g in grids:
            if any(abs(lam - lb) < clearance for lam in g for lb in lbs):
                return False
    return True


def model_point(seed: int) -> tuple[float, float]:
    """(omega, delta) for a workload seed; deterministic in the seed."""
    if seed == 0:
        return OMEGA0, DELTA0
    rng = random.Random(seed)
    while True:
        omega = OMEGA0 * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))
        delta = DELTA0 * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))
        if point_is_clear(omega, delta):
            return omega, delta


def _config(omega: float, delta: float, *lines: str) -> str:
    head = [f"model.omega = {omega!r}", f"model.delta = {delta!r}"]
    return "\n".join(head + list(lines)) + "\n"


def _op(name: str, scenario: str, config: str, files: dict, **params) -> dict:
    """One scenario call.  files maps each output CSV to (header, rows);
    rows None means the count is set by the computation (checked elsewhere)."""
    return {"name": name, "scenario": scenario, "config": config,
            "files": {k: {"header": h, "rows": r} for k, (h, r) in files.items()},
            "params": params}


def quantum_dense(omega: float, delta: float) -> list[dict]:
    return [
        _op("entanglement", "entanglement-curves",
            _config(omega, delta, "model.lambda_grid = 0:0.55:0.01", "numerics.n_t = 18"),
            {"entanglement_curves.csv": (EC_HEADER, len(EC_GRID))},
            lams=EC_GRID),
        _op("husimi", "husimi-section",
            _config(omega, delta, "model.lambda_grid = 0:0.40:0.02", "numerics.n_t = 18",
                    "husimi.section_bound = 6",
                    f"husimi.section_points = {SECTION_POINTS}",
                    f"husimi.grid2d_lambda = {GRID2D_LAMBDA}"),
            {"husimi_section.csv": (["lam", "u", "H"], len(HUSIMI_GRID) * SECTION_POINTS),
             "husimi_grid2d.csv": (["q_x", "q_y", "H"], SECTION_POINTS ** 2)},
            lams=HUSIMI_GRID, points=SECTION_POINTS),
    ]


def track_large(omega: float, delta: float) -> list[dict]:
    return [
        _op("track", "track-pes",
            _config(omega, delta, "model.lambda_grid = 0:0.55:0.05", "numerics.n_t = 24"),
            {"track_pes.csv": (TRACK_HEADER, None)},
            lams=TRACK_GRID),
    ]


def classical(omega: float, delta: float) -> list[dict]:
    n_ic = len(PORTRAIT_RADII) * PORTRAIT_ANGLES
    rows = n_ic * (PORTRAIT_ITERATIONS + 1)
    lbs = critical_couplings(omega, delta)
    return [
        _op("portrait", "portrait",
            _config(omega, delta,
                    "model.lambda_list = " + ", ".join(str(l) for l in PORTRAIT_LAMS),
                    "portrait.radii = " + ", ".join(str(r) for r in PORTRAIT_RADII),
                    f"portrait.angles = {PORTRAIT_ANGLES}",
                    f"portrait.iterations = {PORTRAIT_ITERATIONS}"),
            {f"portrait_{float(l)!r}.csv": (["lam", "q_x", "q_y"], rows) for l in PORTRAIT_LAMS},
            lams=list(PORTRAIT_LAMS), initial_conditions=n_ic),
        _op("fixed_points", "fixed-points",
            _config(omega, delta, "model.lambda_grid = 0.05:0.55:0.05",
                    f"numerics.newton_tol = {NEWTON_TOL!r}"),
            {"fixed_points.csv": (FP_HEADER, None)},
            lams=FP_GRID, newton_tol=NEWTON_TOL, lambda_b=list(lbs)),
        _op("detection", "detection-prob",
            _config(omega, delta, "model.lambda_grid = 0:0.55:0.05"),
            {"detection_prob.csv": (DETECT_HEADER, len(DETECT_GRID))},
            lams=DETECT_GRID),
    ]


WORKLOADS = {
    "quantum-dense": quantum_dense,
    "track-large": track_large,
    "classical": classical,
}

# Truncation of the quantum workloads, for the run facts.
N_T = {"quantum-dense": 18, "track-large": 24, "classical": None}


def build(workload: str, seed: int) -> dict:
    """The full workload spec for a seed: model point and operations."""
    omega, delta = model_point(seed)
    return {"workload": workload, "seed": seed, "omega": omega, "delta": delta,
            "lambda_b": list(critical_couplings(omega, delta)),
            "n_t": N_T[workload], "ops": WORKLOADS[workload](omega, delta)}
