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

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .bifurcation import FixedPoint
from .classical_map import SpinVector
from .errors import GridTooSmall, OutOfRange, TruncationLoss
from .quantum_floquet import FockBasis, QuantumState, state_vector

SubsystemTag = Literal["spin", "osc_x", "osc_y", "osc_pair", "spin_osc_x"]

COHERENT_LOSS_TOL = 1e-6


# --- coherent states -------------------------------------------------------

def _mode_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """alpha^n / sqrt(n!) for n = 0..n_max, by cumulative products."""
    out = np.empty(n_max + 1, dtype=complex)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def coherent_amplitudes(alpha_x: complex, alpha_y: complex,
                        basis: FockBasis) -> tuple[np.ndarray, float]:
    """Exact truncated coherent coefficients over the oscillator basis.

    Returns (amplitudes, loss) where loss = 1 - sum |c|^2 is the weight cut
    off by the truncation.
    """
    prefactor = math.exp(-(abs(alpha_x) ** 2 + abs(alpha_y) ** 2) / 2.0)
    ax = _mode_amplitudes(alpha_x, basis.n_t)
    ay = _mode_amplitudes(alpha_y, basis.n_t)
    amps = prefactor * ax[basis.osc_nx] * ay[basis.osc_ny]
    loss = 1.0 - float(np.sum(np.abs(amps) ** 2))
    return amps, loss


def coherent_state(alpha_x: complex, alpha_y: complex, basis: FockBasis,
                   max_loss: float = COHERENT_LOSS_TOL) -> QuantumState:
    """Normalised truncated coherent state (oscillator factor only).

    Raises TruncationLoss when more than max_loss of the weight falls
    outside the basis.
    """
    amps, loss = coherent_amplitudes(alpha_x, alpha_y, basis)
    if loss >= max_loss:
        raise TruncationLoss(loss, f"coherent state loses {loss:.3e} beyond n_t={basis.n_t}")
    return QuantumState.normalized(amps)


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
    def from_spin_vector(cls, spin: SpinVector) -> "SpinDirection":
        theta = math.acos(min(1.0, max(-1.0, 2.0 * spin.s_z)))
        phi = math.atan2(spin.s_y, spin.s_x) % (2.0 * math.pi)
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


def product_state(osc, spinor: np.ndarray) -> np.ndarray:
    """Full-basis vector from an oscillator factor and a 2-spinor."""
    return np.kron(state_vector(osc), np.asarray(spinor, dtype=complex))


# --- Husimi function -------------------------------------------------------

def husimi(state, alpha_x: complex, alpha_y: complex, basis: FockBasis) -> float:
    """Spin-traced Husimi value sum_sigma |<alpha, sigma | psi>|^2."""
    psi = state_vector(state).reshape(basis.osc_dim, 2)
    amps, _ = coherent_amplitudes(alpha_x, alpha_y, basis)
    projected = amps.conj() @ psi
    return float(np.sum(np.abs(projected) ** 2))


def husimi_values(state, basis: FockBasis, alphas_x: np.ndarray,
                  alphas_y: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Husimi along paired arrays of coherent amplitudes."""
    psi = state_vector(state).reshape(basis.osc_dim, 2)
    alphas_x = np.asarray(alphas_x, dtype=complex)
    alphas_y = np.asarray(alphas_y, dtype=complex)
    out = np.empty(alphas_x.shape[0])
    for start in range(0, alphas_x.shape[0], chunk):
        sl = slice(start, min(start + chunk, alphas_x.shape[0]))
        pref = np.exp(-(np.abs(alphas_x[sl]) ** 2 + np.abs(alphas_y[sl]) ** 2) / 2.0)
        ax = _mode_powers(alphas_x[sl], basis.n_t)
        ay = _mode_powers(alphas_y[sl], basis.n_t)
        amps = pref[:, None] * ax[:, basis.osc_nx] * ay[:, basis.osc_ny]
        projected = amps.conj() @ psi
        out[sl] = np.sum(np.abs(projected) ** 2, axis=1)
    return out


def _mode_powers(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """Rows alpha^n / sqrt(n!) for each alpha; shape (len(alphas), n_max+1)."""
    out = np.empty((alphas.shape[0], n_max + 1), dtype=complex)
    out[:, 0] = 1.0
    for n in range(1, n_max + 1):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def husimi_product_grid(state, basis: FockBasis, alphas_x: np.ndarray,
                        alphas_y: np.ndarray) -> np.ndarray:
    """Husimi on the tensor grid alphas_x (x) alphas_y, shape (len x, len y).

    Exploits the product structure of the coherent amplitudes, so large 2D
    or 4D grids reduce to two dense contractions.
    """
    psi3 = state_tensor(state, basis)                       # (d, d, 2)
    gx = _mode_powers(np.asarray(alphas_x, dtype=complex), basis.n_t)
    gy = _mode_powers(np.asarray(alphas_y, dtype=complex), basis.n_t)
    wx = np.exp(-np.abs(np.asarray(alphas_x)) ** 2 / 2.0)
    wy = np.exp(-np.abs(np.asarray(alphas_y)) ** 2 / 2.0)
    d = basis.n_t + 1
    t = gx.conj() @ psi3.reshape(d, d * 2)                  # (nx_pts, d*2)
    t = t.reshape(-1, d, 2)
    values = np.zeros((gx.shape[0], gy.shape[0]))
    for s in range(2):
        proj = t[:, :, s] @ gy.conj().T                     # (nx_pts, ny_pts)
        values += np.abs(proj) ** 2
    return (wx[:, None] ** 2) * values * (wy[None, :] ** 2)


@dataclass(frozen=True)
class PhaseSection:
    """Affine slice of the oscillator phase space.

    Maps one or two section coordinates u to a phase point
    (q_x, q_y, p_x, p_y) = origin + sum_k u_k * axes[k].
    """

    origin: tuple[float, float, float, float]
    axes: tuple[tuple[float, float, float, float], ...]

    def phase_points(self, *coords: np.ndarray) -> tuple[np.ndarray, ...]:
        if len(coords) != len(self.axes):
            raise ValueError("coordinate count does not match section dimension")
        grids = np.meshgrid(*coords, indexing="ij") if len(coords) > 1 else [np.asarray(coords[0])]
        point = [np.full_like(grids[0], o, dtype=float) for o in self.origin]
        for axis, grid in zip(self.axes, grids):
            for comp in range(4):
                point[comp] = point[comp] + axis[comp] * grid
        return tuple(point)


def diagonal_line_section(momentum_slope: float) -> PhaseSection:
    """1D section q_x = q_y = u with p_chi = slope * u."""
    return PhaseSection(origin=(0.0, 0.0, 0.0, 0.0),
                        axes=((1.0, 1.0, momentum_slope, momentum_slope),))


def plane_section(momentum_slope: float) -> PhaseSection:
    """2D section over (q_x, q_y) with p_chi = slope * q_chi."""
    return PhaseSection(origin=(0.0, 0.0, 0.0, 0.0),
                        axes=((1.0, 0.0, momentum_slope, 0.0),
                              (0.0, 1.0, 0.0, momentum_slope)))


@dataclass
class HusimiGrid:
    section: PhaseSection
    coords: tuple[np.ndarray, ...]
    values: np.ndarray


def husimi_on_section(state, basis: FockBasis, section: PhaseSection,
                      *coords: np.ndarray) -> HusimiGrid:
    """Sample the Husimi function on an affine section."""
    q_x, q_y, p_x, p_y = section.phase_points(*coords)
    alphas_x = ((q_x + 1j * p_x) / math.sqrt(2.0)).ravel()
    alphas_y = ((q_y + 1j * p_y) / math.sqrt(2.0)).ravel()
    values = husimi_values(state, basis, alphas_x, alphas_y).reshape(q_x.shape)
    return HusimiGrid(section=section, coords=tuple(np.asarray(c) for c in coords),
                      values=values)


def section_peaks(values: np.ndarray, coords: np.ndarray,
                  prominence_frac: float = 0.05) -> np.ndarray:
    """Coordinates of local maxima after 3-point smoothing.

    Peaks must rise by at least prominence_frac of the global maximum.
    """
    # imported here, not at module top: loading scipy.signal would add about
    # a second to every CLI start, and no scenario calls this
    import scipy.signal

    v = np.asarray(values, dtype=float)
    smooth = v.copy()
    smooth[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / 3.0
    idx, _ = scipy.signal.find_peaks(smooth, prominence=prominence_frac * float(smooth.max()))
    return np.asarray(coords)[idx]


# --- reductions and entanglement -------------------------------------------

def state_tensor(state, basis: FockBasis) -> np.ndarray:
    """Embed a state vector into the (n_x, n_y, sigma) tensor, zero outside
    the total-number simplex."""
    d = basis.n_t + 1
    out = np.zeros((d, d, 2), dtype=complex)
    psi = state_vector(state).reshape(basis.osc_dim, 2)
    out[basis.osc_nx, basis.osc_ny, :] = psi
    return out


@dataclass
class DensityMatrix:
    """Reduced density matrix of the named subsystem (trace over the rest)."""

    matrix: np.ndarray
    subsystem: str

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        herm_defect = np.max(np.abs(mat - mat.conj().T))
        if herm_defect > 1e-12:
            raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.2e})")
        self.matrix = (mat + mat.conj().T) / 2.0
        tr = float(np.real(np.trace(self.matrix)))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} differs from 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def reduced_density(state, keep: SubsystemTag, basis: FockBasis) -> DensityMatrix:
    """Partial trace over the complement of the kept subsystem."""
    psi = state_tensor(state, basis)
    d = basis.n_t + 1
    if keep == "spin":
        rho = np.einsum("abs,abt->st", psi, psi.conj())
    elif keep == "osc_x":
        rho = np.einsum("ans,bns->ab", psi, psi.conj())
    elif keep == "osc_y":
        rho = np.einsum("nas,nbs->ab", psi, psi.conj())
    elif keep == "osc_pair":
        m = psi.reshape(d * d, 2)
        rho = m @ m.conj().T
    elif keep == "spin_osc_x":
        rho = np.einsum("ans,bnt->asbt", psi, psi.conj()).reshape(2 * d, 2 * d)
    else:
        raise ValueError(f"unknown subsystem tag {keep!r}")
    return DensityMatrix(matrix=rho, subsystem=keep)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> float:
    """-sum p log p over the spectrum, dropping eigenvalues below 1e-14."""
    probs = rho.eigenvalues()
    probs = probs[probs > 1e-14]
    return float(-np.sum(probs * np.log(probs)) / math.log(base)) + 0.0


def log_negativity(rho_pair: DensityMatrix,
                   transpose_over: Literal["osc_x", "osc_y"] = "osc_x",
                   base: float = 2.0) -> float:
    """log_base of the trace norm of the partial transpose over one mode
    (Vidal & Werner, PRA 65, 032314 (2002)).

    Zero (to numerics) for every separable two-mode state; clamped at zero
    from below within 1e-12.

    The reduced state of a parity eigenstate couples only pair states
    (n_x, n_y) whose n_x + n_y have the same parity, and the partial
    transpose keeps that grading.  When the partial transpose has exactly
    zero entries between the two grades, its spectrum is taken block by
    block (181 + 180 at n_t = 18); any other density matrix is
    eigensolved whole.
    """
    if rho_pair.subsystem != "osc_pair":
        raise ValueError("logarithmic negativity needs an osc_pair density matrix")
    dim = rho_pair.dim
    d = int(round(math.sqrt(dim)))
    if d * d != dim:
        raise ValueError("osc_pair density matrix dimension is not a perfect square")
    rho4 = rho_pair.matrix.reshape(d, d, d, d)
    if transpose_over == "osc_x":
        pt = np.transpose(rho4, (2, 1, 0, 3))
    elif transpose_over == "osc_y":
        pt = np.transpose(rho4, (0, 3, 2, 1))
    else:
        raise ValueError(f"transpose_over must be osc_x or osc_y, got {transpose_over!r}")
    pt = pt.reshape(dim, dim)
    grade = np.add.outer(np.arange(d), np.arange(d)).ravel() % 2
    even, odd = np.flatnonzero(grade == 0), np.flatnonzero(grade == 1)
    # pt is exactly Hermitian (DensityMatrix symmetrises), so one off-block
    # being zero makes it block diagonal
    if not np.any(pt[np.ix_(even, odd)]):
        eigs = np.concatenate([np.linalg.eigvalsh(pt[np.ix_(even, even)]),
                               np.linalg.eigvalsh(pt[np.ix_(odd, odd)])])
    else:
        eigs = np.linalg.eigvalsh(pt)
    trace_norm = float(np.sum(np.abs(eigs)))
    value = math.log(trace_norm, base)
    if value < -1e-12:
        raise ValueError(f"trace norm {trace_norm!r} below 1; partial transpose is broken")
    return max(value, 0.0)


@dataclass(frozen=True)
class EntanglementMeasures:
    """The three base-2 entanglement diagnostics of a pure joint state."""

    spin_entropy: float
    osc_x_entropy: float
    pair_log_negativity: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.spin_entropy, self.osc_x_entropy, self.pair_log_negativity)


def entanglement_measures(state, basis: FockBasis) -> EntanglementMeasures:
    return EntanglementMeasures(
        spin_entropy=von_neumann_entropy(reduced_density(state, "spin", basis)),
        osc_x_entropy=von_neumann_entropy(reduced_density(state, "osc_x", basis)),
        pair_log_negativity=log_negativity(reduced_density(state, "osc_pair", basis)),
    )


# --- approximate post-bifurcation states ------------------------------------

def approx_bifurcated_states(fp: FixedPoint, basis: FockBasis) -> tuple[QuantumState, QuantumState]:
    """Coherent x spin combinations localised at a bifurcated fixed point.

    Builds |alpha>|n> from the fixed point's oscillator coordinates and
    spin direction, its parity image |-alpha>|n'> (azimuth shifted by pi),
    and returns the normalised odd (-) and even (+) combinations; the odd
    one carries parity -1 and the even one +1.
    """
    o = fp.point.osc
    alpha_x = (o.q_x + 1j * o.p_x) / math.sqrt(2.0)
    alpha_y = (o.q_y + 1j * o.p_y) / math.sqrt(2.0)
    direction = SpinDirection.from_spin_vector(fp.point.spin)
    plus = product_state(coherent_state(alpha_x, alpha_y, basis),
                         spin_state(direction))
    minus = product_state(coherent_state(-alpha_x, -alpha_y, basis),
                          spin_state(direction.antipodal_azimuth()))
    psi_g = QuantumState.normalized(plus - minus)
    psi_e = QuantumState.normalized(plus + minus)
    return psi_g, psi_e


def detection_probability(theta: float, alpha_x: float, alpha_y: float) -> float:
    """Excited-state detection probability
    cos^2(theta/2) (1 - exp(-2 alpha_x^2 - 2 alpha_y^2))."""
    if not 0.0 <= theta <= math.pi:
        raise OutOfRange([f"theta must lie in [0, pi], got {theta!r}"])
    return math.cos(theta / 2.0) ** 2 * (1.0 - math.exp(-2.0 * alpha_x ** 2 - 2.0 * alpha_y ** 2))


# --- curve utilities ---------------------------------------------------------

def curve_derivative(lams: Sequence[float], values: Sequence[float]) -> np.ndarray:
    """d(value)/d(lam) by central differences, one-sided at the ends.

    The output grid equals the input grid; needs at least 3 strictly
    increasing abscissas.
    """
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    if lams.size < 3:
        raise GridTooSmall(f"need >= 3 points, got {lams.size}")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("abscissas must be strictly increasing")
    out = np.empty_like(values)
    out[0] = (values[1] - values[0]) / (lams[1] - lams[0])
    out[-1] = (values[-1] - values[-2]) / (lams[-1] - lams[-2])
    out[1:-1] = (values[2:] - values[:-2]) / (lams[2:] - lams[:-2])
    return out
