"""Fixed points of the kicked map: critical couplings, Newton search,
stability classification and phase portraits.

The trivial fixed points sit at the oscillator origin with the spin at a
pole, so root finding runs in the hemisphere graph chart
(q_x, p_x, q_y, p_y, s_x, s_y) with s_z = +/- sqrt(1/4 - s_x^2 - s_y^2),
which is regular at the poles and only degenerates at the spin equator
(where no fixed point of interest lives).  Multiplier moduli are invariant
under the chart choice at a fixed point, so classification is unaffected.

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
from typing import Iterable, Sequence

import numpy as np

from .classical_map import (OscillatorPoint, PhasePoint, SpinVector,
                            step_arrays, step_jacobian)
from .errors import NoConvergence, NonFiniteState, PoleProximity
from .model import ValidatedConfig

MULTIPLIER_TOL = 1e-4
DEDUP_DISTANCE = 1e-6
DEFAULT_RING_RADII = (0.5, 1.0, 2.0, 4.0)
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


class _ChartExit(Exception):
    """Newton iterate left the hemisphere graph chart (spin equator)."""


def _graph_step(v: np.ndarray, hemi: float, cfg: ValidatedConfig) -> np.ndarray:
    q_x, p_x, q_y, p_y, s_x, s_y = v
    rho = s_x * s_x + s_y * s_y
    if rho >= _EQUATOR_GUARD:
        raise _ChartExit
    s_z = hemi * math.sqrt(0.25 - rho)
    nqx, nqy, npx, npy, nsx, nsy, _ = step_arrays(
        q_x, q_y, p_x, p_y, s_x, s_y, s_z, cfg.omega, cfg.delta, cfg.lam)
    return np.array([nqx, npx, nqy, npy, nsx, nsy], dtype=float)


def _graph_point(v: np.ndarray, hemi: float) -> PhasePoint:
    q_x, p_x, q_y, p_y, s_x, s_y = (float(c) for c in v)
    s_z = hemi * math.sqrt(max(0.25 - s_x * s_x - s_y * s_y, 0.0))
    return PhasePoint(OscillatorPoint(q_x, q_y, p_x, p_y), SpinVector(s_x, s_y, s_z))


def _graph_jacobian(v: np.ndarray, hemi: float, cfg: ValidatedConfig) -> np.ndarray:
    """Exact Jacobian of :func:`_graph_step` from the Cartesian tangent."""
    q_x, p_x, q_y, p_y, s_x, s_y = v
    rho = s_x * s_x + s_y * s_y
    if rho >= _EQUATOR_GUARD:
        raise _ChartExit
    s_z = hemi * math.sqrt(0.25 - rho)
    point = PhasePoint(OscillatorPoint(q_x, q_y, p_x, p_y), SpinVector(s_x, s_y, s_z))
    axes = [0, 2, 1, 3, 4, 5]   # chart coordinate k is Cartesian coordinate axes[k]
    embed = np.eye(7)[:, axes]
    embed[6, 4:6] = -s_x / s_z, -s_y / s_z
    return step_jacobian(point, cfg)[axes] @ embed


def _cartesian_residual(point: PhasePoint, cfg: ValidatedConfig) -> float:
    x = point.as_array()
    image = step_arrays(x[0], x[1], x[2], x[3], x[4], x[5], x[6],
                        cfg.omega, cfg.delta, cfg.lam)
    return float(np.max(np.abs(np.array(image) - x)))


def _newton(seed: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    s = seed.spin
    if s.s_z == 0.0:
        raise NoConvergence("seed on the spin equator is outside both chart hemispheres")
    hemi = 1.0 if s.s_z > 0 else -1.0
    o = seed.osc
    v = np.array([o.q_x, o.p_x, o.q_y, o.p_y, s.s_x, s.s_y], dtype=float)
    identity = np.eye(6)
    for _ in range(cfg.newton_max_iter):
        try:
            with np.errstate(over="raise", invalid="raise"):
                candidate = _graph_point(v, hemi)
                if _cartesian_residual(candidate, cfg) <= cfg.newton_tol:
                    return candidate
                resid = _graph_step(v, hemi, cfg) - v
                jac = _graph_jacobian(v, hemi, cfg) - identity
        except _ChartExit:
            raise NoConvergence("Newton iterate reached the spin equator")
        except FloatingPointError as exc:
            raise NonFiniteState(f"Newton step is not finite ({exc})") from exc
        try:
            delta_v = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Newton Jacobian")
        new_v = v + delta_v
        backtracks = 0
        while new_v[4] ** 2 + new_v[5] ** 2 >= _EQUATOR_GUARD and backtracks < 30:
            delta_v = delta_v / 2.0
            new_v = v + delta_v
            backtracks += 1
        v = new_v
        if np.max(np.abs(v)) > 1e3:
            raise NoConvergence("Newton iterate diverged")
    raise NoConvergence(f"no convergence within {cfg.newton_max_iter} iterations")


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


def _classify_point(point: PhasePoint, cfg: ValidatedConfig) -> tuple[Stability, tuple[float, ...]]:
    s = point.spin
    hemi = 1.0 if s.s_z >= 0 else -1.0
    o = point.osc
    v = np.array([o.q_x, o.p_x, o.q_y, o.p_y, s.s_x, s.s_y], dtype=float)
    jac = _graph_jacobian(v, hemi, cfg)
    s_z = hemi * math.sqrt(max(0.25 - s.s_x ** 2 - s.s_y ** 2, 1e-12))
    return classify_multipliers(jac, s_z)


def find_fixed_points(cfg: ValidatedConfig, seeds: Sequence[PhasePoint],
                      failures: list | None = None) -> list[FixedPoint]:
    """Newton search from every seed, deduplicated and classified.

    Per-seed failures (no convergence, chart exit) are recorded in
    `failures` as (seed_index, exception) when a list is supplied; they
    never abort the search.
    """
    roots: list[PhasePoint] = []
    for idx, seed in enumerate(seeds):
        try:
            root = _newton(seed, cfg)
        except (NoConvergence, PoleProximity) as exc:
            if failures is not None:
                failures.append((idx, exc))
            continue
        vec = root.as_array()
        if any(np.max(np.abs(vec - r.as_array())) < DEDUP_DISTANCE for r in roots):
            continue
        roots.append(root)
    out = []
    for root in roots:
        cls, moduli = _classify_point(root, cfg)
        out.append(FixedPoint(point=root,
                              residual=_cartesian_residual(root, cfg),
                              classification=cls,
                              multiplier_moduli=moduli))
    out.sort(key=lambda fp: (fp.point.osc.q_x, fp.point.osc.q_y, fp.point.spin.s_z))
    return out


def default_seeds(cfg: ValidatedConfig,
                  radii: Iterable[float] = DEFAULT_RING_RADII) -> list[PhasePoint]:
    """Trivial pole points plus rings along both symmetry lines q_y = +/-q_x
    with the fixed-point momentum rule p = -tan(omega/2) q."""
    seeds = [
        PhasePoint(OscillatorPoint(0, 0, 0, 0), SpinVector(0.0, 0.0, -0.5)),
        PhasePoint(OscillatorPoint(0, 0, 0, 0), SpinVector(0.0, 0.0, 0.5)),
    ]
    slope = -math.tan(cfg.omega / 2.0)
    for line_sign, phis in ((1.0, (math.pi / 4, 5 * math.pi / 4)),
                            (-1.0, (3 * math.pi / 4, 7 * math.pi / 4))):
        for radius in radii:
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

    Momenta follow p = slope * q (slope defaults to -tan(omega/2), the
    fixed-point momentum rule) and the spin starts at the given Cartesian
    components, by default the aligned pole.
    """

    radii: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    n_angles: int = 16
    momentum_slope: float | None = None
    spin: tuple[float, float, float] = (0.0, 0.0, -0.5)

    def initial_arrays(self, cfg: ValidatedConfig):
        slope = self.momentum_slope
        if slope is None:
            slope = -math.tan(cfg.omega / 2.0)
        angles = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
        q_x = np.concatenate([r * np.cos(angles) for r in self.radii])
        q_y = np.concatenate([r * np.sin(angles) for r in self.radii])
        ones = np.ones_like(q_x)
        return (q_x, q_y, slope * q_x, slope * q_y,
                self.spin[0] * ones, self.spin[1] * ones, self.spin[2] * ones)


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
