"""Fixed points of the kicked map: critical couplings, Newton search,
stability classification and phase portraits.

The trivial fixed points sit at the oscillator origin with the spin at a
pole, so root finding runs in the hemisphere graph chart
(q_x, p_x, q_y, p_y, s_x, s_y) with s_z = +/- sqrt(1/4 - s_x^2 - s_y^2),
which is regular at the poles and only degenerates at the spin equator
(where no fixed point of interest lives).  Multiplier moduli are
invariant under the chart choice at a fixed point, so classification is
unaffected.  Newton's method runs on all seeds of a coupling at once, as
one stack of chart points.

Classification uses the unit-circle placement of the multipliers.  For a
fully elliptic point the pairs are additionally required to share a single
Krein sign (computed against the symplectic form of the chart): the
spin-inverted trivial point keeps all multipliers on the unit circle at
these parameters, but its spin pair carries the opposite sign, i.e. it is
not strongly stable and arbitrarily small perturbations can destabilise
it.  That mixed-signature case is reported as Unstable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical_map import (OscillatorPoint, PhasePoint, SpinVector,
                            step_arrays, step_jacobian)
from .errors import NoConvergence, NonFiniteState
from .model import ValidatedConfig

MULTIPLIER_TOL = 1e-4
DEDUP_DISTANCE = 1e-6
DEFAULT_RING_RADII = (0.5, 1.0, 2.0, 4.0)
NEWTON_MAX_ITER = 50
SYMMETRY_BINS = 41
SYMMETRY_BOUND = 6.0
_EQUATOR_GUARD = 0.25 - 1e-5


# --- critical couplings ----------------------------------------------------

@dataclass(frozen=True)
class CriticalCoupling:
    """One positive root lam_b of the pitchfork condition, with the sign of
    the +/-1 term in its denominator."""

    value: float
    branch: int


@dataclass(frozen=True)
class CriticalCouplings:
    values: tuple[CriticalCoupling, ...]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def couplings(self) -> tuple[float, ...]:
        return tuple(c.value for c in self.values)


def critical_couplings(omega: float, delta: float) -> CriticalCouplings:
    """All couplings where the aligned trivial fixed point bifurcates.

    Solves lam_b^2 = 8 tan(omega/2) / (cot(delta/2) +/- 1), keeping each
    branch whose right-hand side is finite and strictly positive; there may
    be 0, 1 or 2 such couplings.
    """
    rhs_num = 8.0 * math.tan(omega / 2.0)
    cot_half = 1.0 / math.tan(delta / 2.0)
    out = []
    for branch in (+1, -1):
        denom = cot_half + branch
        # a denominator at rounding level is a true zero of cot(delta/2) -+ 1
        if abs(denom) <= 1e-12 * max(1.0, abs(cot_half)):
            continue
        rhs = rhs_num / denom
        if math.isfinite(rhs) and rhs > 0.0:
            out.append(CriticalCoupling(math.sqrt(rhs), branch))
    out.sort(key=lambda c: c.value)
    return CriticalCouplings(tuple(out))


def bifurcation_residual(coupling: CriticalCoupling, omega: float, delta: float) -> float:
    """lam_b^2 (cot(delta/2) + branch) - 8 tan(omega/2); zero at a root."""
    cot_half = 1.0 / math.tan(delta / 2.0)
    return coupling.value ** 2 * (cot_half + coupling.branch) - 8.0 * math.tan(omega / 2.0)


# --- fixed points ----------------------------------------------------------

class Stability(enum.Enum):
    STABLE = "stable"
    SADDLE = "saddle"
    UNSTABLE = "unstable"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FixedPoint:
    point: PhasePoint
    residual: float
    classification: Stability
    multiplier_moduli: tuple[float, ...]


_CHART_AXES = [0, 2, 1, 3, 4, 5]   # chart coordinate k is Cartesian coordinate _CHART_AXES[k]


def _to_chart(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart coordinates (..., 6) and hemisphere signs (...) of the
    Cartesian points x (..., 7); the sign follows the sign bit of s_z."""
    return x[..., _CHART_AXES], np.copysign(1.0, x[..., 6])


def _from_chart(v: np.ndarray, hemi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian points (..., 7) of the chart points v (..., 6) on the
    hemispheres hemi, and their s_x^2 + s_y^2 (s_z is 0 past the equator)."""
    rho = v[..., 4] * v[..., 4] + v[..., 5] * v[..., 5]
    x = np.empty(v.shape[:-1] + (7,))
    x[..., _CHART_AXES] = v
    x[..., 6] = hemi * np.sqrt(np.maximum(0.25 - rho, 0.0))
    return x, rho


def _chart_jacobian(x: np.ndarray, cfg: ValidatedConfig) -> np.ndarray:
    """Exact (..., 6, 6) Jacobian of one step in the hemisphere chart at the
    Cartesian points x (..., 7), from the Cartesian tangent."""
    embed = np.zeros(x.shape[:-1] + (7, 6))
    embed[..., _CHART_AXES, range(6)] = 1.0
    embed[..., 6, 4] = -x[..., 4] / x[..., 6]
    embed[..., 6, 5] = -x[..., 5] / x[..., 6]
    return step_jacobian(x, cfg)[..., _CHART_AXES, :] @ embed


def _solve_each(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps for a stack of systems and a mask of the singular ones,
    whose steps are left at zero."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], np.zeros(len(jac), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(rhs)
    singular = np.zeros(len(jac), dtype=bool)
    for k in range(len(jac)):
        try:
            steps[k] = np.linalg.solve(jac[k], rhs[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return steps, singular


def _newton_batch(x0: np.ndarray, cfg: ValidatedConfig
                  ) -> tuple[dict[int, tuple[np.ndarray, float]], dict[int, NoConvergence]]:
    """Newton's method in the hemisphere chart from every seed row of x0
    (k, 7) at once.

    Returns the converged Cartesian points with their residuals and the
    per-seed NoConvergence, both keyed by seed index.  Every iteration
    evaluates the map once for all running seeds and settles each seed by
    the first of: converged, on the spin equator, singular Jacobian, and,
    after its step is halved back off the equator, diverged; seeds still
    running after NEWTON_MAX_ITER iterations fail.  A seed's result does
    not depend on which other seeds run beside it.  Raises NonFiniteState,
    naming the lowest such seed, when a seed's map image or Jacobian is not
    finite.
    """
    roots: dict[int, tuple[np.ndarray, float]] = {}
    failures: dict[int, NoConvergence] = {}

    def fail(idx, mask, reason):
        """Record `reason` for the seeds idx[mask]; return the mask of the others."""
        for k in np.flatnonzero(mask):
            failures[int(idx[k])] = NoConvergence(reason)
        return ~mask

    idx = np.arange(len(x0))
    v, hemi = _to_chart(x0)
    keep = fail(idx, x0[:, 6] == 0.0,
                "seed on the spin equator is outside both chart hemispheres")
    idx, v, hemi = idx[keep], v[keep], hemi[keep]
    identity = np.eye(6)
    # non-finite values are looked for per seed below, so numpy must not raise on them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            if idx.size == 0:
                break
            x, rho = _from_chart(v, hemi)
            image = np.stack(step_arrays(*x.T, cfg.omega, cfg.delta, cfg.lam), axis=-1)
            residual = np.max(np.abs(image - x), axis=-1)
            converged = residual <= cfg.newton_tol
            for k in np.flatnonzero(converged):
                roots[int(idx[k])] = (x[k], float(residual[k]))
            equator = ~converged & (rho >= _EQUATOR_GUARD)
            keep = ~converged & fail(idx, equator, "Newton iterate reached the spin equator")
            idx, v, hemi, x, image = idx[keep], v[keep], hemi[keep], x[keep], image[keep]
            resid = image[:, _CHART_AXES] - v
            jac = _chart_jacobian(x, cfg) - identity
            finite = (np.isfinite(x).all(axis=-1) & np.isfinite(resid).all(axis=-1)
                      & np.isfinite(jac).all(axis=(-2, -1)))
            if not finite.all():
                seed = int(idx[np.flatnonzero(~finite)[0]])
                raise NonFiniteState(
                    f"Newton step from seed {seed} at (q_x, q_y, p_x, p_y, s_x, s_y, s_z) = "
                    f"{tuple(x0[seed].tolist())} is not finite")
            delta_v, singular = _solve_each(jac, -resid)
            keep = fail(idx, singular, "singular Newton Jacobian")
            idx, v, hemi, delta_v = idx[keep], v[keep], hemi[keep], delta_v[keep]
            new_v = v + delta_v
            for _ in range(30):
                past = new_v[:, 4] ** 2 + new_v[:, 5] ** 2 >= _EQUATOR_GUARD
                if not past.any():
                    break
                delta_v[past] = delta_v[past] / 2.0
                new_v[past] = v[past] + delta_v[past]
            v = new_v
            keep = fail(idx, np.max(np.abs(v), axis=-1) > 1e3, "Newton iterate diverged")
            idx, v, hemi = idx[keep], v[keep], hemi[keep]
    fail(idx, np.ones(idx.size, dtype=bool),
         f"no convergence within {NEWTON_MAX_ITER} iterations")
    return roots, failures


def _symplectic_form(s_z: float) -> np.ndarray:
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    form = np.zeros((6, 6))
    form[0:2, 0:2] = block
    form[2:4, 2:4] = block
    form[4:6, 4:6] = block / s_z
    return form


def classify_multipliers(jac: np.ndarray, s_z: float) -> tuple[Stability, tuple[float, ...]]:
    """Stability class and sorted multiplier moduli from a 6x6 linearisation.

    Moduli within MULTIPLIER_TOL of 1 count as on the unit circle.  s_z is
    the axial spin component of the fixed point, needed to evaluate the
    symplectic form of the graph chart for the Krein signs.
    """
    eigvals, eigvecs = np.linalg.eig(jac)
    moduli = np.sort(np.abs(eigvals))
    expanding = int(np.sum(moduli > 1.0 + MULTIPLIER_TOL))
    contracting = int(np.sum(moduli < 1.0 - MULTIPLIER_TOL))
    if expanding == 0 and contracting == 0:
        near_parabolic = np.any(
            (np.abs(eigvals.imag) < 1e-6)
            & (np.minimum(np.abs(eigvals.real - 1.0), np.abs(eigvals.real + 1.0)) <= MULTIPLIER_TOL))
        if near_parabolic:
            cls = Stability.DEGENERATE
        else:
            form = _symplectic_form(s_z)
            signs = []
            for k in range(6):
                if eigvals[k].imag > 1e-8:
                    vec = eigvecs[:, k]
                    krein = (1j * vec.conj() @ form @ vec).real
                    signs.append(math.copysign(1.0, krein))
            if signs and all(s == signs[0] for s in signs):
                cls = Stability.STABLE
            elif signs:
                cls = Stability.UNSTABLE
            else:
                cls = Stability.DEGENERATE
    elif expanding == 1 and contracting == 1:
        cls = Stability.SADDLE
    elif expanding >= 2:
        cls = Stability.UNSTABLE
    else:
        cls = Stability.DEGENERATE
    return cls, tuple(float(m) for m in moduli)


def _classify_points(points: np.ndarray, cfg: ValidatedConfig
                     ) -> list[tuple[Stability, tuple[float, ...]]]:
    """Stability class and multiplier moduli of each Cartesian fixed point
    (r, 7), from one batched chart Jacobian."""
    _, hemi = _to_chart(points)
    s_z = hemi * np.sqrt(np.maximum(0.25 - points[:, 4] ** 2 - points[:, 5] ** 2, 1e-12))
    with np.errstate(over="ignore", invalid="ignore"):
        jacs = _chart_jacobian(points, cfg)
    finite = np.isfinite(jacs).all(axis=(-2, -1))
    if not finite.all():
        point = points[np.flatnonzero(~finite)[0]]
        raise NonFiniteState(f"linearisation at the fixed point {tuple(point.tolist())} "
                             "is not finite")
    return [classify_multipliers(jac, float(s_z_k)) for jac, s_z_k in zip(jacs, s_z)]


def find_fixed_points(cfg: ValidatedConfig, seeds: Sequence[PhasePoint],
                      failures: list | None = None) -> list[FixedPoint]:
    """Newton search from every seed, deduplicated and classified.

    Per-seed failures (no convergence, chart exit) are recorded in
    `failures` as (seed_index, exception), in ascending seed index, when a
    list is supplied; they never abort the search.  NonFiniteState, raised
    when a Newton step or a root's linearisation overflows, does.
    """
    x0 = np.array([seed.as_array() for seed in seeds], dtype=float).reshape(-1, 7)
    converged, failed = _newton_batch(x0, cfg)
    if failures is not None:
        failures.extend(sorted(failed.items()))
    # keep each converged point, in seed order, unless it lies within
    # DEDUP_DISTANCE (max norm) of a point already kept
    kept = np.empty((0, 7))
    residuals: list[float] = []
    for idx in sorted(converged):
        vec, residual = converged[idx]
        if (np.max(np.abs(kept - vec), axis=1) < DEDUP_DISTANCE).any():
            continue
        kept = np.vstack([kept, vec])
        residuals.append(residual)
    classes = _classify_points(kept, cfg)
    out = [FixedPoint(point=PhasePoint.from_values(*(float(c) for c in vec)),
                      residual=residual,
                      classification=cls,
                      multiplier_moduli=moduli)
           for vec, residual, (cls, moduli) in zip(kept, residuals, classes)]
    out.sort(key=lambda fp: (fp.point.osc.q_x, fp.point.osc.q_y, fp.point.spin.s_z))
    return out


def default_seeds(cfg: ValidatedConfig) -> list[PhasePoint]:
    """Trivial pole points plus rings of DEFAULT_RING_RADII along both
    symmetry lines q_y = +/-q_x with the fixed-point momentum rule
    p = -tan(omega/2) q."""
    seeds = [
        PhasePoint(OscillatorPoint(0, 0, 0, 0), SpinVector(0.0, 0.0, -0.5)),
        PhasePoint(OscillatorPoint(0, 0, 0, 0), SpinVector(0.0, 0.0, 0.5)),
    ]
    slope = -math.tan(cfg.omega / 2.0)
    for line_sign, phis in ((1.0, (math.pi / 4, 5 * math.pi / 4)),
                            (-1.0, (3 * math.pi / 4, 7 * math.pi / 4))):
        for radius in DEFAULT_RING_RADII:
            for u_sign in (1.0, -1.0):
                u = u_sign * radius / math.sqrt(2.0)
                q_x, q_y = u, line_sign * u
                for phi in phis:
                    for s_z0 in (-0.45, 0.45):
                        seeds.append(PhasePoint(
                            OscillatorPoint(q_x, q_y, slope * q_x, slope * q_y),
                            SpinVector.from_angles(phi, s_z0)))
    return seeds


# --- phase portraits -------------------------------------------------------

@dataclass(frozen=True)
class PortraitGrid:
    """Ring-shaped initial conditions in the (q_x, q_y) plane.

    Momenta follow the fixed-point momentum rule p = -tan(omega/2) q and
    the spin starts at the aligned pole (0, 0, -1/2).
    """

    radii: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    n_angles: int = 16

    def initial_arrays(self, cfg: ValidatedConfig):
        slope = -math.tan(cfg.omega / 2.0)
        angles = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
        q_x = np.concatenate([r * np.cos(angles) for r in self.radii])
        q_y = np.concatenate([r * np.sin(angles) for r in self.radii])
        return (q_x, q_y, slope * q_x, slope * q_y,
                np.zeros_like(q_x), np.zeros_like(q_x), np.full_like(q_x, -0.5))


def portrait(cfg: ValidatedConfig, grid: PortraitGrid, n_iter: int) -> np.ndarray:
    """Point cloud of every visited (q_x, q_y), shape (n_points*(n_iter+1), 2).

    Points are ordered by iteration index then by initial condition, so the
    output is deterministic for a fixed grid.  Raises NonFiniteState when any
    point overflows (a coupling far too large for the map to stay bounded).
    """
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = grid.initial_arrays(cfg)
    if q_x.size == 0:
        raise ValueError("portrait grid is empty")
    xs = [q_x.copy()]
    ys = [q_y.copy()]
    # overflow is checked once on the finished cloud, not per step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_iter):
            q_x, q_y, p_x, p_y, s_x, s_y, s_z = step_arrays(
                q_x, q_y, p_x, p_y, s_x, s_y, s_z, cfg.omega, cfg.delta, cfg.lam)
            xs.append(q_x.copy())
            ys.append(q_y.copy())
    points = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    bad = int(np.count_nonzero(~np.isfinite(points).all(axis=1)))
    if bad:
        raise NonFiniteState(f"{bad} of {len(points)} portrait points are not finite")
    return points


def reflection_symmetry_score(points: np.ndarray, axis_angle_deg: float) -> float:
    """Histogram overlap between a point cloud and its mirror image.

    1.0 means the binned density is exactly symmetric under reflection
    across the line through the origin at the given angle.  Both clouds are
    binned on SYMMETRY_BINS x SYMMETRY_BINS cells over the square of half
    width SYMMETRY_BOUND; points outside it are not counted.
    """
    theta = math.radians(axis_angle_deg)
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    q_x, q_y = points[:, 0], points[:, 1]
    r_x = c * q_x + s * q_y
    r_y = s * q_x - c * q_y
    edges = np.linspace(-SYMMETRY_BOUND, SYMMETRY_BOUND, SYMMETRY_BINS + 1)
    h0, _, _ = np.histogram2d(q_x, q_y, bins=(edges, edges))
    h1, _, _ = np.histogram2d(r_x, r_y, bins=(edges, edges))
    total = h0.sum() + h1.sum()
    if total == 0:
        return 1.0
    return float(1.0 - np.abs(h0 - h1).sum() / total)
