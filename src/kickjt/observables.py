"""Coherent states, Husimi sections, reductions, entanglement, detection.

Coherent amplitudes are the exact Poissonian coefficients cut at the basis
truncation.  Husimi values are overlaps against those raw (unnormalised)
amplitudes: for a state supported inside the cutoff this equals the exact
Husimi function at every phase-space point, including far outside the
truncation radius where the value simply decays to zero, so phase-space
grids never trip the truncation guard.  The guard applies when a
normalised coherent state is requested as an actual state vector.

Entropy and logarithmic negativity use base-2 logarithms throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .bifurcation import FixedPoint
from .errors import OutOfRange, TruncationLoss
from .quantum_floquet import basis_of, build_basis, parity_sector

SubsystemTag = Literal["spin", "osc_x"]

COHERENT_LOSS_TOL = 1e-6
HUSIMI_CHUNK = 4096
MIN_CURVE_POINTS = 3    # fewest abscissas curve_derivative takes
PEAK_PROMINENCE_FRAC = 0.05


# --- coherent states -------------------------------------------------------

def _mode_powers(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """Rows alpha^n / sqrt(n!) for each alpha; shape (len(alphas), n_max+1)."""
    out = np.empty((alphas.shape[0], n_max + 1), dtype=complex)
    out[:, 0] = 1.0
    for n in range(1, n_max + 1):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def coherent_amplitudes(alpha_x: complex, alpha_y: complex,
                        n_t: int) -> tuple[np.ndarray, float]:
    """Exact truncated coherent coefficients over the oscillator basis.

    Returns (amplitudes, loss) where loss = 1 - sum |c|^2 is the weight cut
    off by the truncation.
    """
    basis = build_basis(n_t)
    prefactor = math.exp(-(abs(alpha_x) ** 2 + abs(alpha_y) ** 2) / 2.0)
    ax, ay = _mode_powers(np.array([alpha_x, alpha_y], dtype=complex), n_t)
    amps = prefactor * ax[basis.osc_nx] * ay[basis.osc_ny]
    loss = 1.0 - float(np.sum(np.abs(amps) ** 2))
    return amps, loss


@dataclass(frozen=True)
class SpinDirection:
    """Bloch angles of a spin-1/2 state cos(t/2)|+> + e^{i phi} sin(t/2)|->."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise OutOfRange([f"theta must lie in [0, pi], got {self.theta!r}"])
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise OutOfRange([f"phi must lie in [0, 2*pi), got {self.phi!r}"])

    @classmethod
    def from_spin_vector(cls, s_x: float, s_y: float, s_z: float) -> "SpinDirection":
        """Direction of the classical spin (s_x, s_y, s_z) of radius 1/2."""
        theta = math.acos(min(1.0, max(-1.0, 2.0 * s_z)))
        phi = math.atan2(s_y, s_x) % (2.0 * math.pi)
        return cls(theta, phi)

    def antipodal_azimuth(self) -> "SpinDirection":
        """Same polar angle, azimuth shifted by pi."""
        return SpinDirection(self.theta, (self.phi + math.pi) % (2.0 * math.pi))


def spin_state(direction: SpinDirection) -> np.ndarray:
    """Two-component spinor in the (sigma=-1, sigma=+1) ordering."""
    return np.array([
        np.exp(1j * direction.phi) * math.sin(direction.theta / 2.0),
        math.cos(direction.theta / 2.0),
    ], dtype=complex)


def coherent_state(alpha_x: complex, alpha_y: complex, direction: SpinDirection,
                   n_t: int) -> np.ndarray:
    """Normalised truncated coherent state |alpha_x, alpha_y> times the spin
    state of direction: a full state over n_t.

    Raises TruncationLoss when COHERENT_LOSS_TOL or more of the oscillator
    weight falls outside the basis.
    """
    amps, loss = coherent_amplitudes(alpha_x, alpha_y, n_t)
    if loss >= COHERENT_LOSS_TOL:
        raise TruncationLoss(loss, f"coherent state loses {loss:.3e} beyond n_t={n_t}")
    return np.kron(amps / np.linalg.norm(amps), spin_state(direction))


# --- Husimi function -------------------------------------------------------

def husimi_values(state, alphas_x: np.ndarray, alphas_y: np.ndarray) -> np.ndarray:
    """Spin-traced Husimi sum_sigma |<alpha, sigma | psi>|^2 along paired
    arrays of coherent amplitudes of equal length (else ValueError),
    HUSIMI_CHUNK points at a time."""
    basis = basis_of(state)
    psi = np.asarray(state, dtype=complex).reshape(basis.osc_dim, 2)
    alphas_x = np.asarray(alphas_x, dtype=complex)
    alphas_y = np.asarray(alphas_y, dtype=complex)
    if len(alphas_y) != len(alphas_x):
        raise ValueError(f"alphas_x has {len(alphas_x)} points but alphas_y has {len(alphas_y)}")
    out = np.empty(alphas_x.shape[0])
    for start in range(0, alphas_x.shape[0], HUSIMI_CHUNK):
        sl = slice(start, min(start + HUSIMI_CHUNK, alphas_x.shape[0]))
        pref = np.exp(-(np.abs(alphas_x[sl]) ** 2 + np.abs(alphas_y[sl]) ** 2) / 2.0)
        ax = _mode_powers(alphas_x[sl], basis.n_t)
        ay = _mode_powers(alphas_y[sl], basis.n_t)
        amps = pref[:, None] * ax[:, basis.osc_nx] * ay[:, basis.osc_ny]
        projected = amps.conj() @ psi
        out[sl] = np.sum(np.abs(projected) ** 2, axis=1)
    return out


def husimi_product_grid(state, alphas_x: np.ndarray, alphas_y: np.ndarray) -> np.ndarray:
    """Husimi on the tensor grid alphas_x (x) alphas_y, shape (len x, len y).

    Exploits the product structure of the coherent amplitudes, so large 2D
    or 4D grids reduce to two dense contractions.
    """
    psi3 = state_tensor(state)                              # (d, d, 2)
    d = psi3.shape[0]
    gx = _mode_powers(np.asarray(alphas_x, dtype=complex), d - 1)
    gy = _mode_powers(np.asarray(alphas_y, dtype=complex), d - 1)
    wx = np.exp(-np.abs(np.asarray(alphas_x)) ** 2 / 2.0)
    wy = np.exp(-np.abs(np.asarray(alphas_y)) ** 2 / 2.0)
    t = gx.conj() @ psi3.reshape(d, d * 2)                  # (nx_pts, d*2)
    t = t.reshape(-1, d, 2)
    values = np.zeros((gx.shape[0], gy.shape[0]))
    for s in range(2):
        proj = t[:, :, s] @ gy.conj().T                     # (nx_pts, ny_pts)
        values += np.abs(proj) ** 2
    return (wx[:, None] ** 2) * values * (wy[None, :] ** 2)


def section_amplitudes(coords: np.ndarray, momentum_slope: float) -> np.ndarray:
    """Coherent amplitudes alpha = (q + i p)/sqrt(2) of the points q = coords,
    p = momentum_slope * q of one oscillator mode."""
    return np.asarray(coords) * (1.0 + 1j * momentum_slope) / math.sqrt(2.0)


def husimi_on_section(state, momentum_slope: float, coords: np.ndarray) -> np.ndarray:
    """Husimi function on the diagonal line q_x = q_y = u, p_chi = slope * u,
    at the section coordinates u = coords."""
    alphas = section_amplitudes(coords, momentum_slope)
    return husimi_values(state, alphas, alphas)


def section_peaks(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Coordinates of local maxima after 3-point smoothing.

    Peaks must rise by at least PEAK_PROMINENCE_FRAC of the global maximum.
    """
    # imported here, not at module top: loading scipy.signal would add about
    # a second to every CLI start, and no scenario calls this
    import scipy.signal

    v = np.asarray(values, dtype=float)
    smooth = v.copy()
    smooth[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / 3.0
    idx, _ = scipy.signal.find_peaks(smooth, prominence=PEAK_PROMINENCE_FRAC * float(smooth.max()))
    return np.asarray(coords)[idx]


# --- reductions and entanglement -------------------------------------------

def state_tensor(state) -> np.ndarray:
    """Embed a state vector into the (n_x, n_y, sigma) tensor, zero outside
    the total-number simplex."""
    basis = basis_of(state)
    d = basis.n_t + 1
    out = np.zeros((d, d, 2), dtype=complex)
    psi = np.asarray(state, dtype=complex).reshape(basis.osc_dim, 2)
    out[basis.osc_nx, basis.osc_ny, :] = psi
    return out


def reduced_density(state, keep: SubsystemTag) -> np.ndarray:
    """Partial trace over the complement of the kept subsystem: the spin
    (2x2) or the x mode ((n_t+1)x(n_t+1)), as a Hermitian matrix of trace 1."""
    psi = state_tensor(state)
    if keep == "spin":
        rho = np.einsum("abs,abt->st", psi, psi.conj())
    elif keep == "osc_x":
        rho = np.einsum("ans,bns->ab", psi, psi.conj())
    else:
        raise ValueError(f"unknown subsystem tag {keep!r}")
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > 1e-12:
        raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.2e})")
    rho = (rho + rho.conj().T) / 2.0
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum p log2 p over the spectrum of a Hermitian density matrix,
    dropping eigenvalues below 1e-14; clamped at zero, since roundoff can
    put a pure state's eigenvalue an ulp above 1."""
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 1e-14]
    return max(float(-np.sum(probs * np.log(probs)) / math.log(2.0)), 0.0) + 0.0


# the index sets grow as d^4 (71 MB at model.MAX_N_T): keep a few cutoffs,
# not every one a process has swept through
@functools.lru_cache(maxsize=4)
def _partial_transpose_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the pair product R (d^2 x d^2, pair (n_x, n_y) at
    row n_x d + n_y) of the even x even and odd x odd blocks of its partial
    transpose over the x mode, PT[(a,n),(b,m)] = R[(b,n),(a,m)]; a block is
    even or odd by the grade (n_x + n_y) mod 2 of its pairs, which ascend
    within it.  Read-only, one pair of sets per d = n_t + 1."""
    grade = np.add.outer(np.arange(d), np.arange(d)).ravel() % 2
    even, odd = np.flatnonzero(grade == 0), np.flatnonzero(grade == 1)

    def gather(rows, cols):
        a, n = np.divmod(rows, d)
        b, m = np.divmod(cols, d)
        idx = (b[None, :] * d + n[:, None]) * (d * d) + (a[:, None] * d + m[None, :])
        idx.flags.writeable = False
        return idx

    return gather(even, even), gather(odd, odd)


def log_negativity(state) -> float:
    """log2 of the trace norm of the partial transpose over the x mode of
    the state's oscillator-pair reduction (Vidal & Werner, PRA 65, 032314
    (2002)).

    Zero (to numerics) for every separable two-mode state; clamped at zero
    from below within 1e-12.

    The state must have unit norm (within 1e-10, the bound reduced_density
    puts on the trace; otherwise a ValueError names its squared norm) and be
    parity pure (:func:`quantum_floquet.parity_sector`, whose ValueError
    names both leakages).  Its pair reduction then couples
    pair states (n_x, n_y) only within a grade (n_x + n_y) mod 2, up to
    entries below sqrt(PARITY_LEAKAGE_TOL) that are not read; the partial
    transpose keeps the grading, so its spectrum is taken block by block
    (181 + 180 at n_t = 18), each block gathered straight out of the pair
    product by :func:`_partial_transpose_gather`.
    """
    state = np.asarray(state)
    # sector_leakage assumes a unit state: at norm^2 100 a leakage reads -49
    norm_sq = float(np.vdot(state, state).real)
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"state norm^2 {norm_sq!r} differs from 1")
    parity_sector(state)
    psi3 = state_tensor(state)
    d = psi3.shape[0]
    pairs = psi3.reshape(d * d, 2)
    flat = (pairs @ pairs.conj().T).ravel()
    even, odd = _partial_transpose_gather(d)
    eigs = np.concatenate([np.linalg.eigvalsh(flat.take(even)),
                           np.linalg.eigvalsh(flat.take(odd))])
    trace_norm = float(np.sum(np.abs(eigs)))
    value = math.log(trace_norm, 2.0)
    if value < -1e-12:
        raise ValueError(f"trace norm {trace_norm!r} below 1; partial transpose is broken")
    return max(value, 0.0)


def entanglement_measures(state) -> tuple[float, float, float]:
    """(S_spin, S_osc_x, E_N) of a pure joint state, all base 2."""
    return (von_neumann_entropy(reduced_density(state, "spin")),
            von_neumann_entropy(reduced_density(state, "osc_x")),
            log_negativity(state))


# --- approximate post-bifurcation states ------------------------------------

def approx_bifurcated_states(fp: FixedPoint, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Coherent x spin combinations localised at a bifurcated fixed point.

    Builds |alpha>|n> from the fixed point's oscillator coordinates and
    spin direction, its parity image |-alpha>|n'> (azimuth shifted by pi),
    and returns the normalised odd (-) and even (+) combinations; the odd
    one carries parity -1 and the even one +1.

    Raises ValueError when either combination has norm <= 1e-8: at an
    on-axis fixed point (the oscillator origin with the spin at a pole) the
    image is the state itself up to a phase, so one combination is zero.
    """
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = fp.point.tolist()
    alpha_x = (q_x + 1j * p_x) / math.sqrt(2.0)
    alpha_y = (q_y + 1j * p_y) / math.sqrt(2.0)
    direction = SpinDirection.from_spin_vector(s_x, s_y, s_z)
    plus = coherent_state(alpha_x, alpha_y, direction, n_t)
    minus = coherent_state(-alpha_x, -alpha_y, direction.antipodal_azimuth(), n_t)
    out = []
    for name, combo in (("odd", plus - minus), ("even", plus + minus)):
        norm = np.linalg.norm(combo)
        if not norm > 1e-8:
            raise ValueError(
                f"the {name} combination at the fixed point "
                f"{tuple(fp.point.tolist())} has norm {norm:.3e}: "
                "the point is its own parity image")
        out.append(combo / norm)
    return out[0], out[1]


def detection_probability(theta: float, alpha_x: float, alpha_y: float) -> float:
    """Excited-state detection probability
    cos^2(theta/2) (1 - exp(-2 alpha_x^2 - 2 alpha_y^2))."""
    if not 0.0 <= theta <= math.pi:
        raise OutOfRange([f"theta must lie in [0, pi], got {theta!r}"])
    return math.cos(theta / 2.0) ** 2 * (1.0 - math.exp(-2.0 * alpha_x ** 2 - 2.0 * alpha_y ** 2))


# --- curve utilities ---------------------------------------------------------

def curve_derivative(lams: Sequence[float], values: Sequence[float]) -> np.ndarray:
    """d(value)/d(lam) by central differences, one-sided at the ends.

    The output grid equals the input grid; fewer than MIN_CURVE_POINTS
    abscissas, or abscissas that are not strictly increasing, are a
    ValueError.
    """
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    if lams.size < MIN_CURVE_POINTS:
        raise ValueError(f"need >= {MIN_CURVE_POINTS} points, got {lams.size}")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("abscissas must be strictly increasing")
    out = np.empty_like(values)
    out[0] = (values[1] - values[0]) / (lams[1] - lams[0])
    out[-1] = (values[-1] - values[-2]) / (lams[-1] - lams[-2])
    out[1:-1] = (values[2:] - values[:-2]) / (lams[2:] - lams[:-2])
    return out
