"""Classical kicked dynamics on R^4 x S^2.

One period applies, in order: a y-kick, an x-kick, then harmonic evolution.
Composing the three sub-maps gives the closed-form map implemented in
:func:`step` (with a = lam*q_y, b = lam*q_x):

    q_x -> (p_x - lam*(s_x cos a + s_z sin a)) sin w + q_x cos w
    p_x -> (p_x - lam*(s_x cos a + s_z sin a)) cos w - q_x sin w
    q_y -> (p_y - lam*s_y) sin w + q_y cos w
    p_y -> (p_y - lam*s_y) cos w - q_y sin w
    s   -> R_z(delta) . R_x(b) . R_y(a) . s

where R_y(a) is the spin rotation generated by the y-kick, R_x(b) by the
x-kick and R_z(delta) by the free evolution.  The closed form is normative;
the sub-maps are kept because their composition is the natural correctness
oracle and they are what an experiment would realise pulse by pulse.

All functions are pure; spin is carried in Cartesian components so the map
itself has no coordinate singularity at the spin poles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NonFiniteState, PoleProximity
from .model import ValidatedConfig

SPIN_RADIUS_SQ = 0.25
_SPIN_NORM_TOL = 1e-9


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise NonFiniteState(f"{name} = {value!r} is not finite")


@dataclass(frozen=True)
class SpinVector:
    """Classical pseudo-spin on the radius-1/2 sphere."""

    s_x: float
    s_y: float
    s_z: float

    def __post_init__(self):
        _require_finite(self, ("s_x", "s_y", "s_z"))
        n = self.s_x * self.s_x + self.s_y * self.s_y + self.s_z * self.s_z
        if not abs(n - SPIN_RADIUS_SQ) <= _SPIN_NORM_TOL:
            raise ValueError(f"spin norm^2 = {n!r}, expected 1/4")

    @classmethod
    def from_angles(cls, phi: float, s_z: float) -> "SpinVector":
        """Spin from azimuth phi and axial component s_z (|s_z| <= 1/2)."""
        r = math.sqrt(max(SPIN_RADIUS_SQ - s_z * s_z, 0.0))
        return cls(r * math.cos(phi), r * math.sin(phi), s_z)

    def norm(self) -> float:
        return math.sqrt(self.s_x ** 2 + self.s_y ** 2 + self.s_z ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z])


@dataclass(frozen=True)
class OscillatorPoint:
    """Positions and momenta of the two oscillator modes."""

    q_x: float
    q_y: float
    p_x: float
    p_y: float

    def __post_init__(self):
        _require_finite(self, ("q_x", "q_y", "p_x", "p_y"))

    def as_array(self) -> np.ndarray:
        return np.array([self.q_x, self.q_y, self.p_x, self.p_y])


@dataclass(frozen=True)
class PhasePoint:
    """A point of the classical phase space R^4 x S^2."""

    osc: OscillatorPoint
    spin: SpinVector

    @classmethod
    def from_values(cls, q_x, q_y, p_x, p_y, s_x, s_y, s_z) -> "PhasePoint":
        return cls(OscillatorPoint(q_x, q_y, p_x, p_y), SpinVector(s_x, s_y, s_z))

    def as_array(self) -> np.ndarray:
        """Cartesian 7-vector (q_x, q_y, p_x, p_y, s_x, s_y, s_z)."""
        return np.concatenate([self.osc.as_array(), self.spin.as_array()])


class SubMap(enum.Enum):
    KICK_Y = "kick_y"
    KICK_X = "kick_x"
    HARMONIC = "harmonic"


def _spin_rotation_coeffs(a, b, delta):
    """Rows of the 3x3 spin matrix of the composed map.

    a = lam*q_y, b = lam*q_x evaluated at the pre-step point.
    """
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cd, sd = np.cos(delta), np.sin(delta)
    row_x = (cd * ca - sd * sb * sa, -sd * cb, cd * sa + sd * sb * ca)
    row_y = (cd * sb * sa + sd * ca, cd * cb, -cd * sb * ca + sd * sa)
    row_z = (-sa * cb, sb, ca * cb)
    return row_x, row_y, row_z


def spin_rotation_matrix(q_x: float, q_y: float, cfg: ValidatedConfig) -> np.ndarray:
    """3x3 matrix acting on (s_x, s_y, s_z) in one step; orthogonal, det +1.

    Its coefficients depend only on (q_x, q_y) and the parameters.
    """
    rows = _spin_rotation_coeffs(cfg.lam * q_y, cfg.lam * q_x, cfg.delta)
    return np.array(rows, dtype=float)


def step_arrays(q_x, q_y, p_x, p_y, s_x, s_y, s_z, omega, delta, lam):
    """Vectorised closed-form map; accepts scalars or broadcastable arrays."""
    a = lam * q_y
    b = lam * q_x
    cw, sw = np.cos(omega), np.sin(omega)
    kick_x = lam * (s_x * np.cos(a) + s_z * np.sin(a))
    kick_y = lam * s_y
    px_mid = p_x - kick_x
    py_mid = p_y - kick_y
    q_x_n = px_mid * sw + q_x * cw
    p_x_n = px_mid * cw - q_x * sw
    q_y_n = py_mid * sw + q_y * cw
    p_y_n = py_mid * cw - q_y * sw
    row_x, row_y, row_z = _spin_rotation_coeffs(a, b, delta)
    s_x_n = row_x[0] * s_x + row_x[1] * s_y + row_x[2] * s_z
    s_y_n = row_y[0] * s_x + row_y[1] * s_y + row_y[2] * s_z
    s_z_n = row_z[0] * s_x + row_z[1] * s_y + row_z[2] * s_z
    return q_x_n, q_y_n, p_x_n, p_y_n, s_x_n, s_y_n, s_z_n


def step(state: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    """Apply the closed-form composed map once."""
    o, s = state.osc, state.spin
    out = step_arrays(o.q_x, o.q_y, o.p_x, o.p_y, s.s_x, s.s_y, s.s_z,
                      cfg.omega, cfg.delta, cfg.lam)
    return PhasePoint.from_values(*(float(v) for v in out))


def _submap_arrays(kind: SubMap, x: np.ndarray, cfg: ValidatedConfig) -> np.ndarray:
    """One elementary map applied to the Cartesian points x of shape (..., 7)."""
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = np.moveaxis(x, -1, 0)
    lam = cfg.lam
    if kind is SubMap.KICK_Y:
        ca, sa = np.cos(lam * q_y), np.sin(lam * q_y)
        out = (q_x, q_y, p_x, p_y - lam * s_y,
               s_x * ca + s_z * sa, s_y, -s_x * sa + s_z * ca)
    elif kind is SubMap.KICK_X:
        cb, sb = np.cos(lam * q_x), np.sin(lam * q_x)
        out = (q_x, q_y, p_x - lam * s_x, p_y,
               s_x, s_y * cb - s_z * sb, s_y * sb + s_z * cb)
    elif kind is SubMap.HARMONIC:
        cw, sw = math.cos(cfg.omega), math.sin(cfg.omega)
        cd, sd = math.cos(cfg.delta), math.sin(cfg.delta)
        out = (q_x * cw + p_x * sw, q_y * cw + p_y * sw,
               p_x * cw - q_x * sw, p_y * cw - q_y * sw,
               s_x * cd - s_y * sd, s_x * sd + s_y * cd, s_z)
    else:
        raise ValueError(f"unknown sub-map {kind!r}")
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def submap(kind: SubMap, state: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    """One of the three elementary maps whose composition equals :func:`step`."""
    out = _submap_arrays(kind, state.as_array(), cfg)
    return PhasePoint.from_values(*(float(v) for v in out))


def _submap_tangent(kind: SubMap, x: np.ndarray, cfg: ValidatedConfig) -> np.ndarray:
    """(..., 7, 7) Cartesian tangent of one sub-map at the Cartesian points x (..., 7)."""
    lam = cfg.lam
    jac = np.zeros(x.shape[:-1] + (7, 7))
    jac[..., range(7), range(7)] = 1.0
    if kind is SubMap.KICK_Y:
        c, s = np.cos(lam * x[..., 1]), np.sin(lam * x[..., 1])
        s_x, s_z = x[..., 4], x[..., 6]
        jac[..., 3, 5] = -lam
        jac[..., 4, 4], jac[..., 4, 6] = c, s
        jac[..., 6, 4], jac[..., 6, 6] = -s, c
        jac[..., 4, 1] = lam * (s_z * c - s_x * s)
        jac[..., 6, 1] = -lam * (s_x * c + s_z * s)
    elif kind is SubMap.KICK_X:
        c, s = np.cos(lam * x[..., 0]), np.sin(lam * x[..., 0])
        s_y, s_z = x[..., 5], x[..., 6]
        jac[..., 2, 4] = -lam
        jac[..., 5, 5], jac[..., 5, 6] = c, -s
        jac[..., 6, 5], jac[..., 6, 6] = s, c
        jac[..., 5, 0] = -lam * (s_y * s + s_z * c)
        jac[..., 6, 0] = lam * (s_y * c - s_z * s)
    else:   # HARMONIC: constant, rotations of each (q, p) pair and of (s_x, s_y)
        cw, sw = math.cos(cfg.omega), math.sin(cfg.omega)
        cd, sd = math.cos(cfg.delta), math.sin(cfg.delta)
        jac[..., 0:4, 0:4] = [[cw, 0.0, sw, 0.0], [0.0, cw, 0.0, sw],
                              [-sw, 0.0, cw, 0.0], [0.0, -sw, 0.0, cw]]
        jac[..., 4:6, 4:6] = [[cd, -sd], [sd, cd]]
    return jac


def step_jacobian(x, cfg: ValidatedConfig) -> np.ndarray:
    """Exact tangent of :func:`step` at Cartesian points x of shape (..., 7),
    (q_x, q_y, p_x, p_y, s_x, s_y, s_z) each, as an array of shape (..., 7, 7):
    the chain rule over the sub-maps Harmonic o KickX o KickY, each tangent
    taken at that sub-map's input.  A stack of points gives, bit for bit,
    the tangents of the points taken one at a time."""
    x = np.asarray(x, dtype=float)
    mid = _submap_arrays(SubMap.KICK_Y, x, cfg)
    return (_submap_tangent(SubMap.HARMONIC, mid, cfg)
            @ _submap_tangent(SubMap.KICK_X, mid, cfg)
            @ _submap_tangent(SubMap.KICK_Y, x, cfg))


def composed_step(state: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    """Harmonic o KickX o KickY; must agree with :func:`step` to 1e-10."""
    out = submap(SubMap.KICK_Y, state, cfg)
    out = submap(SubMap.KICK_X, out, cfg)
    return submap(SubMap.HARMONIC, out, cfg)


def _inverse_submap(kind: SubMap, state: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    o, s = state.osc, state.spin
    lam = cfg.lam
    if kind is SubMap.KICK_Y:
        # q_y and s_y are conserved by the forward kick, so both the momentum
        # shift and the rotation angle can be undone from the image point.
        a = lam * o.q_y
        ca, sa = math.cos(a), math.sin(a)
        return PhasePoint.from_values(
            o.q_x, o.q_y, o.p_x, o.p_y + lam * s.s_y,
            s.s_x * ca - s.s_z * sa, s.s_y, s.s_x * sa + s.s_z * ca)
    if kind is SubMap.KICK_X:
        b = lam * o.q_x
        cb, sb = math.cos(b), math.sin(b)
        return PhasePoint.from_values(
            o.q_x, o.q_y, o.p_x + lam * s.s_x, o.p_y,
            s.s_x, s.s_y * cb + s.s_z * sb, -s.s_y * sb + s.s_z * cb)
    if kind is SubMap.HARMONIC:
        cw, sw = math.cos(cfg.omega), math.sin(cfg.omega)
        cd, sd = math.cos(cfg.delta), math.sin(cfg.delta)
        return PhasePoint.from_values(
            o.q_x * cw - o.p_x * sw, o.q_y * cw - o.p_y * sw,
            o.p_x * cw + o.q_x * sw, o.p_y * cw + o.q_y * sw,
            s.s_x * cd + s.s_y * sd, -s.s_x * sd + s.s_y * cd, s.s_z)
    raise ValueError(f"unknown sub-map {kind!r}")


def inverse_step(state: PhasePoint, cfg: ValidatedConfig) -> PhasePoint:
    """Inverse sub-maps applied in reverse order."""
    out = _inverse_submap(SubMap.HARMONIC, state, cfg)
    out = _inverse_submap(SubMap.KICK_X, out, cfg)
    return _inverse_submap(SubMap.KICK_Y, out, cfg)


# --- canonical chart -------------------------------------------------------
#
# (q_x, p_x, q_y, p_y, phi, s_z) with phi = atan2(s_y, s_x) is canonical for
# the symplectic form dq^dp + dphi^ds_z, so one map step has unit Jacobian
# determinant there.  The chart degenerates at the spin poles.

POLE_GUARD = 0.5 - 1e-6


def to_canonical(state: PhasePoint) -> np.ndarray:
    s = state.spin
    if abs(s.s_z) >= POLE_GUARD:
        raise PoleProximity(f"|s_z| = {abs(s.s_z)!r} too close to 1/2 for the canonical chart")
    phi = math.atan2(s.s_y, s.s_x)
    o = state.osc
    return np.array([o.q_x, o.p_x, o.q_y, o.p_y, phi, s.s_z])


def from_canonical(vec: Iterable[float]) -> PhasePoint:
    q_x, p_x, q_y, p_y, phi, s_z = (float(v) for v in vec)
    if abs(s_z) >= 0.5:
        raise PoleProximity(f"|s_z| = {abs(s_z)!r} leaves the canonical chart")
    return PhasePoint(OscillatorPoint(q_x, q_y, p_x, p_y), SpinVector.from_angles(phi, s_z))


def jacobian_canonical(state: PhasePoint, cfg: ValidatedConfig) -> np.ndarray:
    """Jacobian of one step in the canonical chart, from :func:`step_jacobian`.

    Raises PoleProximity when |s_z| >= 1/2 - 1e-6 at the point or at its
    image, where the chart degenerates.  The determinant equals 1 to
    roundoff (area preservation).
    """
    to_canonical(state)
    image = step(state, cfg)
    to_canonical(image)
    s_x, s_y, s_z = state.spin.s_x, state.spin.s_y, state.spin.s_z
    rho = s_x * s_x + s_y * s_y
    # chart coordinate k sits at Cartesian index axes[k]; phi's entries are filled below
    axes = [0, 2, 1, 3, 4, 6]
    embed = np.eye(7)[:, axes]
    embed[4:6, 4] = -s_y, s_x
    embed[4:6, 5] = -s_x * s_z / rho, -s_y * s_z / rho
    i_x, i_y = image.spin.s_x, image.spin.s_y
    project = np.eye(7)[axes]
    project[4, 4:6] = np.array([-i_y, i_x]) / (i_x * i_x + i_y * i_y)
    return project @ step_jacobian(state.as_array(), cfg) @ embed
