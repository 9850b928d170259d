"""Truncated Fock x spin basis, Floquet unitary, spectra and continuation.

The basis is the Cartesian product of two-mode number states with a total
cutoff n_x + n_y <= N_t and a spin-1/2 factor, ordered by ascending
(N, n_x, sigma) with sigma = -1 before +1; the spin index is fastest, so a
state vector reshapes to (osc_dim, 2).  The truncated space is an exact
tensor product of the cut oscillator space with the spin space, which keeps
every propagator below exactly unitary.  A state over n_t has
(n_t + 1)(n_t + 2) entries, and that length is its truncation.

One period applies exp(-i H0 tau) exp(-i lam q_x s_x) exp(-i lam q_y s_y)
with H0 diagonal in this basis (eigenphase -(omega (N+1) + delta m_sigma)).
The kick generators q_chi s_chi preserve the parity grading
sigma (-1)^N, so the Floquet operator is block diagonal over the two
parity sectors O (parity -1) and E (parity +1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np
import scipy.linalg

from .errors import ComputeError, EigFailure, StepUnderflow
from .model import ValidatedConfig

Axis = Literal["x", "y"]
SpinAxis = Literal["x", "y", "z"]

# spin-1/2 operators in the (sigma=-1, sigma=+1) ordering
SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


class FockBasis:
    """Enumeration of (n_x, n_y, sigma) states with n_x + n_y <= n_t, in
    read-only arrays; compared and hashed by identity."""

    def __init__(self, n_t: int):
        if n_t < 0:
            raise ValueError("n_t must be >= 0")
        self.n_t = int(n_t)
        osc = [(nx, total - nx) for total in range(n_t + 1) for nx in range(total + 1)]
        self.osc_nx = np.array([nx for nx, _ in osc], dtype=int)
        self.osc_ny = np.array([ny for _, ny in osc], dtype=int)
        self.n_x = np.repeat(self.osc_nx, 2)
        self.n_y = np.repeat(self.osc_ny, 2)
        self.sigma = np.tile(np.array([-1, 1]), len(osc))
        for arr in (self.osc_nx, self.osc_ny, self.n_x, self.n_y, self.sigma):
            arr.flags.writeable = False
        self._pair_index = {pair: k for k, pair in enumerate(osc)}

    def __repr__(self) -> str:
        return f"FockBasis(n_t={self.n_t})"

    @property
    def dim(self) -> int:
        return self.n_x.size

    @property
    def osc_dim(self) -> int:
        return self.osc_nx.size

    @property
    def total(self) -> np.ndarray:
        return self.n_x + self.n_y

    @property
    def parity(self) -> np.ndarray:
        """Diagonal of the parity operator: sigma * (-1)^(n_x + n_y), exactly +/-1."""
        return self.sigma * np.where(self.total % 2 == 0, 1, -1)

    def index(self, n_x: int, n_y: int, sigma: int) -> int:
        return 2 * self._pair_index[(n_x, n_y)] + (0 if sigma < 0 else 1)

    def sector_indices(self, sector: str) -> np.ndarray:
        """Indices of the parity sector "O" (parity -1) or "E" (parity +1)."""
        if sector not in ("O", "E"):
            raise ValueError(f"sector must be 'O' or 'E', got {sector!r}")
        return np.flatnonzero(self.parity == (-1 if sector == "O" else 1))

    def basis_state(self, n_x: int, n_y: int, sigma: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(n_x, n_y, sigma)] = 1.0
        return vec


@functools.cache
def build_basis(n_t: int) -> FockBasis:
    """The one shared FockBasis of the cutoff n_t."""
    return FockBasis(n_t)


def basis_of(state) -> FockBasis:
    """The basis of a state (dim,) or of columns (dim, k), whose length is
    dim = (n_t + 1)(n_t + 2); any other length is a ValueError naming it."""
    dim = np.shape(state)[0]
    n_t = (math.isqrt(4 * dim + 1) - 3) // 2
    if n_t < 0 or (n_t + 1) * (n_t + 2) != dim:
        raise ValueError(f"a state of length {dim} is not (n_t + 1)(n_t + 2) for any n_t")
    return build_basis(n_t)


# --- operator construction -------------------------------------------------

def _ladder(basis: FockBasis, axis: Axis):
    """Raising step of one mode over the cut oscillator basis.

    Returns (lower, upper, value): oscillator indices of every pair
    |n> -> |n + 1> of the named mode that stays within the cutoff, and the
    matrix element sqrt(n + 1)/sqrt(2) of (a + a^dag)/sqrt(2) between them.
    The osc index of (n_x, n_y) is N (N + 1)/2 + n_x with N = n_x + n_y.
    """
    total = basis.osc_nx + basis.osc_ny
    lower = np.flatnonzero(total < basis.n_t)
    own = (basis.osc_nx if axis == "x" else basis.osc_ny)[lower]
    up_total = total[lower] + 1
    upper = up_total * (up_total + 1) // 2 + basis.osc_nx[lower] + (axis == "x")
    return lower, upper, np.sqrt(own + 1) / math.sqrt(2.0)


def osc_position_matrix(n_t: int, axis: Axis) -> np.ndarray:
    """(a + a^dag)/sqrt(2) for one mode, over the cut oscillator basis."""
    basis = build_basis(n_t)
    lower, upper, val = _ladder(basis, axis)
    mat = np.zeros((basis.osc_dim, basis.osc_dim))
    mat[lower, upper] = val
    mat[upper, lower] = val
    return mat


def osc_momentum_matrix(n_t: int, axis: Axis) -> np.ndarray:
    """-i (a - a^dag)/sqrt(2) for one mode, over the cut oscillator basis."""
    basis = build_basis(n_t)
    lower, upper, val = _ladder(basis, axis)
    mat = np.zeros((basis.osc_dim, basis.osc_dim), dtype=complex)
    mat[lower, upper] = -1j * val   # <n| p |n+1> for p = -i (a - a^dag)/sqrt(2)
    mat[upper, lower] = 1j * val
    return mat


def h0_phases(cfg: ValidatedConfig) -> np.ndarray:
    """Diagonal of exp(-i H0 tau): entries exp(-i [omega (N+1) + delta sigma/2])."""
    basis = build_basis(cfg.n_t)
    angle = cfg.omega * (basis.total + 1) + cfg.delta * basis.sigma / 2.0
    return np.exp(-1j * angle)


# --- kick propagators ------------------------------------------------------
#
# q_x changes n_x by one at fixed n_y, so under the total-number cut it is
# block diagonal over n_y (and vice versa).  Each block is diagonalised
# once per (n_t, axis) and reused for every coupling value.

@functools.cache
def _kick_blocks(n_t: int, axis: Axis):
    basis = build_basis(n_t)
    position = osc_position_matrix(n_t, axis)
    other = basis.osc_ny if axis == "x" else basis.osc_nx
    own = basis.osc_nx if axis == "x" else basis.osc_ny
    blocks = []
    for fixed in range(basis.n_t + 1):
        idx = np.flatnonzero(other == fixed)
        idx = idx[np.argsort(own[idx])]
        evals, evecs = np.linalg.eigh(position[np.ix_(idx, idx)])
        blocks.append((idx, evals, evecs))
    return blocks


def apply_kick(vec: np.ndarray, axis: Axis, lam: float,
               spin_axis: SpinAxis | None = None) -> np.ndarray:
    """exp(-i lam q_axis s_spin_axis) applied to a state (dim,) or to each
    column of a (dim, k) matrix, without forming the dense propagator.

    The spin factor is diagonalised (a 2x2 rotation); both spin
    eigencomponents then share the spectral decomposition of each block of
    the truncated Hermitian position operator, so the result is exactly
    unitary by construction.
    """
    if spin_axis is None:
        spin_axis = axis
    basis = basis_of(vec)
    spin_eigs, spin_vecs = np.linalg.eigh(SPIN_HALF[spin_axis])
    psi = vec.reshape(basis.osc_dim, 2, -1)
    comps = spin_vecs.conj().T @ psi      # amplitude on each spin eigenvector
    out = np.empty_like(comps)
    for idx, evals, evecs in _kick_blocks(basis.n_t, axis):
        # the block eigenvectors are real, so they multiply the complex data
        # viewed as interleaved real and imaginary parts: one real GEMM each
        size = idx.size
        phase = np.exp(-1j * lam * np.outer(evals, spin_eigs))[:, :, None]
        rotated = (evecs.T @ comps[idx].reshape(size, -1).view(float)).view(complex)
        mixed = (phase * rotated.reshape(size, 2, -1)).reshape(size, -1)
        out[idx] = (evecs @ mixed.view(float)).view(complex).reshape(size, 2, -1)
    return (spin_vecs @ out).reshape(vec.shape)


def apply_floquet(vec: np.ndarray, cfg: ValidatedConfig) -> np.ndarray:
    """One period applied to a state (dim,) or to each column of a (dim, k)
    matrix over cfg.n_t (else ValueError): kick y, kick x, then H0 phases."""
    n_t = basis_of(vec).n_t
    if n_t != cfg.n_t:
        raise ValueError(f"state over n_t = {n_t}, config n_t = {cfg.n_t}")
    out = apply_kick(vec, "y", cfg.lam)
    out = apply_kick(out, "x", cfg.lam)
    phases = h0_phases(cfg)
    return out * (phases[:, None] if out.ndim == 2 else phases)


def floquet_operator(cfg: ValidatedConfig, sector: str | None = None) -> np.ndarray:
    """U = exp(-i H0 tau) exp(-i lam q_x s_x) exp(-i lam q_y s_y), dense.

    With a sector label ("O" or "E") only the block U[idx, idx] over that
    parity sector's indices idx (basis.sector_indices) is built: the period
    applied to the sector's identity columns, restricted to the sector's
    rows.  U commutes with parity, so the block is the whole action of U
    on the sector, at half the columns of the full build.
    """
    basis = build_basis(cfg.n_t)
    eye = np.eye(basis.dim, dtype=complex)
    if sector is None:
        return apply_floquet(eye, cfg)
    idx = basis.sector_indices(sector)
    return apply_floquet(eye[:, idx], cfg)[idx]


# --- diagnostics -----------------------------------------------------------

def phase_space_expectations(state) -> dict[str, float]:
    """<q>, <p> and <s> components without forming full-space operators."""
    basis = basis_of(state)
    psi = np.asarray(state, dtype=complex).reshape(basis.osc_dim, 2)
    out = {}
    for axis in ("x", "y"):
        q = osc_position_matrix(basis.n_t, axis)
        p = osc_momentum_matrix(basis.n_t, axis)
        out[f"q_{axis}"] = float(np.real(np.sum(psi.conj() * (q @ psi))))
        out[f"p_{axis}"] = float(np.real(np.sum(psi.conj() * (p @ psi))))
    rho_spin = psi.conj().T @ psi
    for axis in ("x", "y", "z"):
        out[f"s_{axis}"] = float(np.real(np.trace(rho_spin.T @ SPIN_HALF[axis])))
    return out


# --- spectra ---------------------------------------------------------------

# largest eigenpair residual |U v - e^{i phase} v| a spectrum or a
# continuation seed may have
EIG_RESIDUAL_TOL = 1e-9

@dataclass
class FloquetSpectrum:
    """Eigendecomposition of a Floquet unitary: eigenphases in (-pi, pi]
    ascending, orthonormal eigenvector columns over the full basis (each
    zero outside its parity sector) and the eigenpair residuals."""

    eigenphases: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _sector_spectrum(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenphases (ascending), orthonormal eigenvectors and eigenpair
    residuals |sub v - e^{i phase} v| of a (near-)unitary matrix, typically
    one parity block of U.

    The complex Schur form of a normal matrix is diagonal, so the Schur
    vectors are true eigenvectors and exactly orthonormal.  Raises
    EigFailure if any residual exceeds EIG_RESIDUAL_TOL.
    """
    t_mat, q_mat = scipy.linalg.schur(sub, output="complex")
    phases = np.angle(np.diag(t_mat))
    order = np.argsort(phases, kind="stable")
    phases, vecs = phases[order], q_mat[:, order]
    residuals = np.linalg.norm(sub @ vecs - vecs * np.exp(1j * phases)[None, :], axis=0)
    worst = float(np.max(residuals, initial=0.0))
    if worst > EIG_RESIDUAL_TOL:
        raise EigFailure(worst, EIG_RESIDUAL_TOL)
    return phases, vecs, residuals


def floquet_spectrum(cfg: ValidatedConfig) -> FloquetSpectrum:
    """Eigenphases and eigenvectors of U, one parity sector at a time.

    Each sector block (floquet_operator with a sector label, "O" then "E")
    is eigensolved by :func:`_sector_spectrum`, which raises EigFailure
    past EIG_RESIDUAL_TOL; the vectors are embedded as full-space
    columns and all pairs are sorted by eigenphase (stable sort).
    """
    basis = build_basis(cfg.n_t)
    phases = np.empty(basis.dim)
    residuals = np.empty(basis.dim)
    vectors = np.zeros((basis.dim, basis.dim), dtype=complex)
    col = 0
    for label in ("O", "E"):
        idx = basis.sector_indices(label)
        block = slice(col, col + idx.size)
        phases[block], vectors[idx, block], residuals[block] = _sector_spectrum(
            floquet_operator(cfg, label))
        col += idx.size
    order = np.argsort(phases, kind="stable")
    return FloquetSpectrum(eigenphases=phases[order], vectors=vectors[:, order],
                           residuals=residuals[order])


# --- adaptive continuation -------------------------------------------------

@dataclass
class TrackedSample:
    lam: float
    state: np.ndarray
    eigenphase: float
    dlam_used: float
    overlap: float


@dataclass
class TrackedPath:
    """Eigenstate followed through the coupling sweep by overlap continuation."""

    samples: list[TrackedSample]
    sector: str

    def lams(self) -> np.ndarray:
        return np.array([s.lam for s in self.samples])

    def sample_at(self, lam: float) -> TrackedSample:
        for s in self.samples:
            if abs(s.lam - lam) <= 1e-12:
                return s
        raise KeyError(f"no tracked sample at lam = {lam!r}")


MIN_TRACK_STEP = 1e-6
# a trial continuation step is accepted while 1 - |overlap| stays below this
OVERLAP_THRESHOLD = 0.01
# least number of steps (span / max_dlam) a continuation may need; the
# presets need under 30, and a path beyond this would run for hours
MAX_TRACK_STEPS = 100_000
RQI_RESIDUAL_TOL = 1e-12
RQI_MAX_SOLVES = 5


def _rayleigh_refine(sub: np.ndarray, vec: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Eigenphase, unit eigenvector and residual |sub v - e^{i phase} v| of
    the eigenpair of the unitary block sub nearest vec, by shift-invert
    Rayleigh-quotient iteration (Parlett, Math. Comp. 28, 679 (1974)).

    Each solve shifts at the Rayleigh quotient of the current iterate,
    projected onto the unit circle.  Iteration stops once the residual no
    longer halves, or after RQI_MAX_SOLVES solves; the iterate with the
    smallest residual is returned.
    """
    eye = np.eye(sub.shape[0])

    def pair(v):
        v = v / np.linalg.norm(v)
        image = sub @ v
        rq = complex(np.vdot(v, image))
        phase = math.atan2(rq.imag, rq.real)
        return phase, v, float(np.linalg.norm(image - np.exp(1j * phase) * v))

    best = pair(vec)
    for _ in range(RQI_MAX_SOLVES):
        try:
            w = np.linalg.solve(sub - np.exp(1j * best[0]) * eye, best[1])
        except np.linalg.LinAlgError:   # shift exactly on an eigenvalue
            break
        trial = pair(w)   # a non-finite solve gives a NaN residual: no step
        halved = trial[2] <= 0.5 * best[2]
        if trial[2] < best[2]:
            best = trial
        if not halved:
            break
    return best


def track_eigenstate(lam_start: float, lam_end: float, seed, cfg: ValidatedConfig,
                     stops: Sequence[float] | None = None,
                     initial_dlam: float = 0.01,
                     max_dlam: float = 0.02) -> TrackedPath:
    """Follow one Floquet eigenstate from lam_start to lam_end.

    At every trial step the eigenvector of U(lam + dlam) with maximal
    overlap against the current state is selected; the step is accepted
    when 1 - |overlap| stays below OVERLAP_THRESHOLD, otherwise dlam is
    halved (StepUnderflow below 1e-6).  After two consecutive acceptances
    dlam grows by 1.5x up to max_dlam.  Accepted states are phase aligned
    so consecutive inner products are real positive, and the path lands
    exactly on every requested stop.

    The maximiser is found by Rayleigh-quotient iteration from the current
    state (:func:`_rayleigh_refine`).  The squared overlaps of the current
    state with the eigenvectors sum to 1, so an eigenvector with
    |overlap| > 1/sqrt(2) is the unique maximiser: a refined pair with a
    roundoff-level residual (<= RQI_RESIDUAL_TOL) that clears 1/sqrt(2)
    decides the step without a Schur form.  Otherwise the full sector
    spectrum (:func:`_sector_spectrum`, with its EigFailure check) decides.

    A span that needs more than MAX_TRACK_STEPS steps of max_dlam, or a step
    size that is not positive, raises ComputeError before any work.

    The seed must be a state over cfg.n_t (else ValueError naming both
    cutoffs), an eigenvector of U(lam_start) to EIG_RESIDUAL_TOL,
    checked by applying one period to it (no matrix is built), and parity
    pure: a seed whose sector_leakage exceeds 1e-12 from both sectors
    raises ValueError naming both.  The whole continuation runs inside the
    seed's sector: each trial step builds only the sector block of U
    (floquet_operator with a sector), and sector leakage is exactly zero
    along the path.
    """
    if not lam_start < lam_end:
        raise ValueError("lam_start must be < lam_end")
    if initial_dlam > 0 and max_dlam > 0:
        min_steps = (lam_end - lam_start) / max_dlam
    else:
        min_steps = math.inf
    if not min_steps <= MAX_TRACK_STEPS:
        raise ComputeError(
            f"continuation from lam = {lam_start!r} to lam = {lam_end!r} with steps"
            f" {initial_dlam!r} up to {max_dlam!r} needs at least {min_steps:.3g} steps,"
            f" more than {MAX_TRACK_STEPS}")
    basis = build_basis(cfg.n_t)
    vec = np.asarray(seed, dtype=complex)
    vec = vec / np.linalg.norm(vec)

    image = apply_floquet(vec, replace(cfg, lam=lam_start))
    rayleigh = complex(np.vdot(vec, image))
    phase0 = math.atan2(rayleigh.imag, rayleigh.real)
    resid = np.linalg.norm(image - np.exp(1j * phase0) * vec)
    if resid > EIG_RESIDUAL_TOL:
        raise EigFailure(resid, EIG_RESIDUAL_TOL)

    leakage = {label: sector_leakage(vec, label) for label in ("O", "E")}
    pure = [label for label, leak in leakage.items() if leak <= 1e-12]
    if not pure:
        raise ValueError(f"seed is not parity pure: sector leakage {leakage['O']:.3e}"
                         f" from O and {leakage['E']:.3e} from E")
    sector = pure[0]
    idx = basis.sector_indices(sector)

    current = vec[idx]
    samples = [TrackedSample(lam=lam_start, state=vec.copy(), eigenphase=phase0,
                             dlam_used=0.0, overlap=1.0)]
    stop_list = sorted({float(s) for s in (() if stops is None else stops)} | {float(lam_end)})
    stop_list = [s for s in stop_list if lam_start < s <= lam_end + 1e-15]

    lam = lam_start
    dlam = min(initial_dlam, lam_end - lam_start)
    accept_streak = 0
    while stop_list:
        next_stop = stop_list[0]
        target = min(lam + dlam, next_stop)
        sub = floquet_operator(replace(cfg, lam=target), sector)
        phase, new, resid = _rayleigh_refine(sub, current)
        overlap = abs(complex(np.vdot(current, new)))
        if not (resid <= RQI_RESIDUAL_TOL and overlap > math.sqrt(0.5)):
            phases, vecs, _ = _sector_spectrum(sub)
            overlaps = np.abs(vecs.conj().T @ current)
            k = int(np.argmax(overlaps))
            phase, new, overlap = float(phases[k]), vecs[:, k].copy(), float(overlaps[k])
        if 1.0 - overlap < OVERLAP_THRESHOLD:
            inner = complex(np.vdot(current, new))
            if abs(inner) > 0:
                new *= inner.conjugate() / abs(inner)
            full = np.zeros(basis.dim, dtype=complex)
            full[idx] = new
            samples.append(TrackedSample(lam=target, state=full,
                                         eigenphase=phase,
                                         dlam_used=target - lam, overlap=overlap))
            current = new
            lam = target
            if abs(lam - next_stop) <= 1e-15:
                stop_list.pop(0)
            accept_streak += 1
            if accept_streak >= 2:
                dlam = min(dlam * 1.5, max_dlam)
                accept_streak = 0
        else:
            dlam /= 2.0
            accept_streak = 0
            if dlam < MIN_TRACK_STEP:
                raise StepUnderflow(
                    f"continuation step fell below {MIN_TRACK_STEP} at lam = {lam:.6f}")
    return TrackedPath(samples=samples, sector=sector)


def sector_leakage(state, sector: str) -> float:
    """Probability weight outside the named parity sector."""
    return float(1.0 - np.sum(np.abs(state[basis_of(state).sector_indices(sector)]) ** 2))


def pgs_seed(n_t: int) -> np.ndarray:
    """Zero-coupling pseudo-ground state: |0,0>|-> in the O sector."""
    return build_basis(n_t).basis_state(0, 0, -1)


def pes_seed(n_t: int) -> np.ndarray:
    """Zero-coupling pseudo-excited state: the symmetric one-phonon level
    (|1,0> + |0,1>)/sqrt(2) |-> in the E sector.

    With the phase advance per period much smaller than the spin splitting
    this is the first excitation above the ground state, and it continues
    into the even localised partner of the bifurcation doublet.
    """
    basis = build_basis(n_t)
    vec = basis.basis_state(1, 0, -1) + basis.basis_state(0, 1, -1)
    return vec / math.sqrt(2.0)
