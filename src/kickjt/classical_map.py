"""Classical kicked dynamics on R^4 x S^2.

A phase point is a float array whose last axis holds the seven Cartesian
coordinates (q_x, q_y, p_x, p_y, s_x, s_y, s_z), with the spin on the
radius-1/2 sphere; a stack of points is an array of shape (..., 7), and the
map, its sub-maps and its tangent take one point or a stack alike.  Spin is
carried in Cartesian components, so the map itself has no coordinate
singularity at the spin poles.

One period applies, in order: a y-kick, an x-kick, then harmonic evolution.
Composing the three sub-maps gives the closed-form map implemented in
:func:`step_arrays` (with a = lam*q_y, b = lam*q_x):

    q_x -> (p_x - lam*(s_x cos a + s_z sin a)) sin w + q_x cos w
    p_x -> (p_x - lam*(s_x cos a + s_z sin a)) cos w - q_x sin w
    q_y -> (p_y - lam*s_y) sin w + q_y cos w
    p_y -> (p_y - lam*s_y) cos w - q_y sin w
    s   -> R_z(delta) . R_x(b) . R_y(a) . s

where R_y(a) is the spin rotation generated by the y-kick, R_x(b) by the
x-kick and R_z(delta) by the free evolution.  The closed form is normative;
the sub-maps are kept because their composition is the natural correctness
oracle and they are what an experiment would realise pulse by pulse.  Each
sub-map is undone by itself at negated angles, which gives
:func:`inverse_step`.

All functions are pure and take the coupling lam as an argument.
:func:`step_arrays` is the hot path and checks nothing, neither the points
nor the coupling; the canonical chart checks the point it is given.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

import numpy as np

from .errors import NonFiniteState
from .model import ValidatedConfig

SPIN_RADIUS_SQ = 0.25
_SPIN_NORM_TOL = 1e-9
_COORDINATES = ("q_x", "q_y", "p_x", "p_y", "s_x", "s_y", "s_z")


def _require_phase_points(x, what: str = "point") -> np.ndarray:
    """x as a float array of Cartesian points (..., 7), checked.

    Raises NonFiniteState at a point with a non-finite coordinate and
    ValueError at one whose s_x^2 + s_y^2 + s_z^2 is more than 1e-9 from
    1/4, naming the first such point, by its index when x is a stack.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 7:
        raise ValueError(f"a {what} has the 7 coordinates {_COORDINATES}, "
                         f"got shape {x.shape}")
    rows = x.reshape(-1, 7)

    def name(k):
        label = f"{what} {k}" if x.ndim > 1 else what
        return f"{label} {tuple(rows[k].tolist())}"

    finite = np.isfinite(rows)
    if not finite.all():
        k, j = np.argwhere(~finite)[0]
        raise NonFiniteState(
            f"{name(k)}: {_COORDINATES[j]} = {float(rows[k, j])!r} is not finite")
    norm_sq = rows[:, 4] * rows[:, 4] + rows[:, 5] * rows[:, 5] + rows[:, 6] * rows[:, 6]
    off = np.abs(norm_sq - SPIN_RADIUS_SQ) > _SPIN_NORM_TOL
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"{name(k)}: spin norm^2 = {float(norm_sq[k])!r}, expected 1/4")
    return x


class SubMap(enum.Enum):
    KICK_Y = "kick_y"
    KICK_X = "kick_x"
    HARMONIC = "harmonic"


def _spin_rotation_coeffs(ca, sa, cb, sb, delta):
    """Rows of the 3x3 spin matrix of the composed map, from the cosines and
    sines of a = lam*q_y and b = lam*q_x evaluated at the pre-step point.
    """
    cd, sd = np.cos(delta), np.sin(delta)
    row_x = (cd * ca - sd * sb * sa, -sd * cb, cd * sa + sd * sb * ca)
    row_y = (cd * sb * sa + sd * ca, cd * cb, -cd * sb * ca + sd * sa)
    row_z = (-sa * cb, sb, ca * cb)
    return row_x, row_y, row_z


def spin_rotation_matrix(q_x: float, q_y: float, cfg: ValidatedConfig,
                         lam: float) -> np.ndarray:
    """3x3 matrix acting on (s_x, s_y, s_z) in one step at the coupling lam;
    orthogonal, det +1.

    Its coefficients depend only on (q_x, q_y) and the parameters.
    """
    a, b = lam * q_y, lam * q_x
    rows = _spin_rotation_coeffs(np.cos(a), np.sin(a), np.cos(b), np.sin(b), cfg.delta)
    return np.array(rows, dtype=float)


def step_arrays(x, cfg: ValidatedConfig, lam) -> np.ndarray:
    """The closed-form map at the coupling lam applied once to the Cartesian
    points x (..., 7); the images have the shape of x (and its dtype, if
    complex).

    lam is one coupling or an array that broadcasts against x.shape[:-1],
    one coupling per point: lam enters only through elementwise products,
    so each image is, bit for bit, the one a single-coupling call gives.
    """
    x = np.asarray(x)
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = (x[..., k] for k in range(7))
    a = lam * q_y
    b = lam * q_x
    cw, sw = np.cos(cfg.omega), np.sin(cfg.omega)
    # cos a and sin a serve both the x momentum kick and the spin rotation
    ca, sa = np.cos(a), np.sin(a)
    kick_x = lam * (s_x * ca + s_z * sa)
    kick_y = lam * s_y
    px_mid = p_x - kick_x
    py_mid = p_y - kick_y
    row_x, row_y, row_z = _spin_rotation_coeffs(ca, sa, np.cos(b), np.sin(b), cfg.delta)
    out = np.empty(x.shape, dtype=np.result_type(x, float))
    out[..., 0] = px_mid * sw + q_x * cw
    out[..., 1] = py_mid * sw + q_y * cw
    out[..., 2] = px_mid * cw - q_x * sw
    out[..., 3] = py_mid * cw - q_y * sw
    out[..., 4] = row_x[0] * s_x + row_x[1] * s_y + row_x[2] * s_z
    out[..., 5] = row_y[0] * s_x + row_y[1] * s_y + row_y[2] * s_z
    out[..., 6] = row_z[0] * s_x + row_z[1] * s_y + row_z[2] * s_z
    return out


def _submap(kind: SubMap, x, omega: float, delta: float, lam: float) -> np.ndarray:
    """One elementary map at the raw angles (omega, delta, lam), applied to
    the Cartesian points x (..., 7).  At (-omega, -delta, -lam) it is the
    inverse of the map at (omega, delta, lam)."""
    x = np.asarray(x)
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = (x[..., k] for k in range(7))
    if kind is SubMap.KICK_Y:
        ca, sa = np.cos(lam * q_y), np.sin(lam * q_y)
        out = (q_x, q_y, p_x, p_y - lam * s_y,
               s_x * ca + s_z * sa, s_y, -s_x * sa + s_z * ca)
    elif kind is SubMap.KICK_X:
        cb, sb = np.cos(lam * q_x), np.sin(lam * q_x)
        out = (q_x, q_y, p_x - lam * s_x, p_y,
               s_x, s_y * cb - s_z * sb, s_y * sb + s_z * cb)
    elif kind is SubMap.HARMONIC:
        cw, sw = math.cos(omega), math.sin(omega)
        cd, sd = math.cos(delta), math.sin(delta)
        out = (q_x * cw + p_x * sw, q_y * cw + p_y * sw,
               p_x * cw - q_x * sw, p_y * cw - q_y * sw,
               s_x * cd - s_y * sd, s_x * sd + s_y * cd, s_z)
    else:
        raise ValueError(f"unknown sub-map {kind!r}")
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def submap(kind: SubMap, x, cfg: ValidatedConfig, lam: float) -> np.ndarray:
    """One of the three elementary maps whose composition equals
    :func:`step_arrays`, applied to the Cartesian points x (..., 7)."""
    return _submap(kind, x, cfg.omega, cfg.delta, lam)


def _submap_tangent(kind: SubMap, x: np.ndarray, cfg: ValidatedConfig,
                    lam) -> np.ndarray:
    """(..., 7, 7) Cartesian tangent of one sub-map at the Cartesian points x
    (..., 7); lam is one coupling or one per point, as in step_arrays (the
    harmonic sub-map does not read it)."""
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


def step_jacobian(x, cfg: ValidatedConfig, lam) -> np.ndarray:
    """Exact tangent of :func:`step_arrays` at Cartesian points x (..., 7),
    as an array of shape (..., 7, 7): the chain rule over the sub-maps
    Harmonic o KickX o KickY, each tangent taken at that sub-map's input.

    Like step_arrays, lam is one coupling or an array that broadcasts
    against x.shape[:-1], one coupling per point.  A stack of points gives,
    bit for bit, the tangents of the points taken one at a time, each at
    its own coupling."""
    x = np.asarray(x, dtype=float)
    mid = _submap(SubMap.KICK_Y, x, cfg.omega, cfg.delta, lam)
    return (_submap_tangent(SubMap.HARMONIC, mid, cfg, lam)
            @ _submap_tangent(SubMap.KICK_X, mid, cfg, lam)
            @ _submap_tangent(SubMap.KICK_Y, x, cfg, lam))


def composed_step(x, cfg: ValidatedConfig, lam: float) -> np.ndarray:
    """Harmonic o KickX o KickY; must agree with :func:`step_arrays` to 1e-10."""
    for kind in (SubMap.KICK_Y, SubMap.KICK_X, SubMap.HARMONIC):
        x = submap(kind, x, cfg, lam)
    return x


def inverse_step(x, cfg: ValidatedConfig, lam: float) -> np.ndarray:
    """Inverse of :func:`step_arrays`: the sub-maps in reverse order, each at
    the negated angles (-omega, -delta, -lam)."""
    for kind in (SubMap.HARMONIC, SubMap.KICK_X, SubMap.KICK_Y):
        x = _submap(kind, x, -cfg.omega, -cfg.delta, -lam)
    return x


# --- canonical chart -------------------------------------------------------
#
# (q_x, p_x, q_y, p_y, phi, s_z) with phi = atan2(s_y, s_x) is canonical for
# the symplectic form dq^dp + dphi^ds_z, so one map step has unit Jacobian
# determinant there.  The chart degenerates at the spin poles.  Its
# functions take one point.

POLE_GUARD = 0.5 - 1e-6


def to_canonical(x) -> np.ndarray:
    """Canonical coordinates of the Cartesian point x (7,).

    Raises NonFiniteState for a non-finite coordinate, and ValueError for a
    spin more than 1e-9 off |s|^2 = 1/4 or with |s_z| >= POLE_GUARD.
    """
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = _require_phase_points(x).reshape(7).tolist()
    if abs(s_z) >= POLE_GUARD:
        raise ValueError(f"|s_z| = {abs(s_z)!r} too close to 1/2 for the canonical chart")
    return np.array([q_x, p_x, q_y, p_y, math.atan2(s_y, s_x), s_z])


def from_canonical(vec: Iterable[float]) -> np.ndarray:
    """The Cartesian point (7,) of canonical coordinates
    (q_x, p_x, q_y, p_y, phi, s_z); |s_z| >= 1/2 is a ValueError."""
    q_x, p_x, q_y, p_y, phi, s_z = (float(v) for v in vec)
    if abs(s_z) >= 0.5:
        raise ValueError(f"|s_z| = {abs(s_z)!r} leaves the canonical chart")
    r = math.sqrt(max(SPIN_RADIUS_SQ - s_z * s_z, 0.0))
    return np.array([q_x, q_y, p_x, p_y, r * math.cos(phi), r * math.sin(phi), s_z])


def jacobian_canonical(x, cfg: ValidatedConfig, lam: float) -> np.ndarray:
    """Jacobian of one step at the coupling lam in the canonical chart at
    the Cartesian point x (7,), from :func:`step_jacobian`.

    Raises ValueError when |s_z| >= POLE_GUARD at the point or at its
    image, where the chart degenerates.  The determinant equals 1 to
    roundoff (area preservation).
    """
    to_canonical(x)
    x = np.asarray(x, dtype=float)
    image = step_arrays(x, cfg, lam)
    to_canonical(image)
    s_x, s_y, s_z = x[4:]
    rho = s_x * s_x + s_y * s_y
    # chart coordinate k sits at Cartesian index axes[k]; phi's entries are filled below
    axes = [0, 2, 1, 3, 4, 6]
    embed = np.eye(7)[:, axes]
    embed[4:6, 4] = -s_y, s_x
    embed[4:6, 5] = -s_x * s_z / rho, -s_y * s_z / rho
    i_x, i_y = image[4], image[5]
    project = np.eye(7)[axes]
    project[4, 4:6] = np.array([-i_y, i_x]) / (i_x * i_x + i_y * i_y)
    return project @ step_jacobian(x, cfg, lam) @ embed
