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
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import ComputeError, EigFailure, StepUnderflow
from .model import MAX_N_T, ValidatedConfig, checked_coupling

Axis = Literal["x", "y"]

# spin-1/2 operators in the (sigma=-1, sigma=+1) ordering
SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


def _osc_index(n_x, n_y):
    """Oscillator index N (N + 1)/2 + n_x of (n_x, n_y), N = n_x + n_y."""
    total = n_x + n_y
    return total * (total + 1) // 2 + n_x


class FockBasis:
    """Enumeration of (n_x, n_y, sigma) states with n_x + n_y <= n_t, in
    read-only arrays; compared and hashed by identity.  A cutoff outside
    [0, model.MAX_N_T] is a ValueError, raised before anything is listed."""

    def __init__(self, n_t: int):
        if not 0 <= n_t <= MAX_N_T:
            raise ValueError(f"n_t must lie in [0, MAX_N_T = {MAX_N_T}], got {n_t!r}")
        self.n_t = int(n_t)
        osc = [(nx, total - nx) for total in range(n_t + 1) for nx in range(total + 1)]
        self.osc_nx = np.array([nx for nx, _ in osc], dtype=int)
        self.osc_ny = np.array([ny for _, ny in osc], dtype=int)
        self.n_x = np.repeat(self.osc_nx, 2)
        self.n_y = np.repeat(self.osc_ny, 2)
        self.sigma = np.tile(np.array([-1, 1]), len(osc))
        for arr in (self.osc_nx, self.osc_ny, self.n_x, self.n_y, self.sigma):
            arr.flags.writeable = False

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
        """Position of (n_x, n_y, sigma); a pair outside the cutoff is a ValueError."""
        if not (n_x >= 0 and n_y >= 0 and n_x + n_y <= self.n_t):
            raise ValueError(f"pair (n_x, n_y) = {(n_x, n_y)!r} lies outside"
                             f" the cutoff n_t = {self.n_t}")
        return int(2 * _osc_index(n_x, n_y) + (sigma > 0))

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
    """
    lower = np.flatnonzero(basis.osc_nx + basis.osc_ny < basis.n_t)
    n_x, n_y = basis.osc_nx[lower], basis.osc_ny[lower]
    upper = _osc_index(n_x + (axis == "x"), n_y + (axis == "y"))
    return lower, upper, np.sqrt((n_x if axis == "x" else n_y) + 1) / math.sqrt(2.0)


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


# --- kicks in sector coordinates -------------------------------------------
#
# Within a parity sector, sigma (-1)^N fixes the spin of every oscillator
# state, so a sector holds one amplitude per oscillator state: its k-th
# coordinate is the k-th oscillator state (sector_indices ascends with the
# osc index).  There the generator q_x s_x is q_x / 2 and q_y s_y is q_y / 2
# with entries multiplied by +-i.  q_x changes n_x by one at fixed n_y, so
# under the total-number cut it is block diagonal over n_y (and vice versa).
# Each block is diagonalised once per (n_t, sector, axis) and reused for
# every coupling value.

@functools.cache
def _sector_kick_blocks(n_t: int, sector: str, axis: Axis):
    """(block, evals, evecs) per block of q_axis s_axis over the sector:
    block lists sector coordinates at one fixed number of the other mode."""
    basis = build_basis(n_t)
    # np.kron(q, s)[idx, idx] without the full-space product: sector
    # coordinate k is the full index idx[k] = 2 k + spin[k]
    spin = basis.sector_indices(sector) % 2
    generator = osc_position_matrix(n_t, axis) * SPIN_HALF[axis][np.ix_(spin, spin)]
    other = basis.osc_ny if axis == "x" else basis.osc_nx
    blocks = []
    for fixed in range(n_t + 1):
        block = np.flatnonzero(other == fixed)
        evals, evecs = np.linalg.eigh(generator[np.ix_(block, block)])
        blocks.append((block, evals, evecs))
    return blocks


def _kick_block_propagators(n_t: int, sector: str, axis: Axis, lam: float):
    """(block, exp(-i lam G)) for each block G of the sector kick generator:
    a spectral sum, so each propagator is unitary to rounding."""
    for block, evals, evecs in _sector_kick_blocks(n_t, sector, axis):
        yield block, (evecs * np.exp(-1j * lam * evals)) @ evecs.conj().T


def _kick_in_place(psi: np.ndarray, n_t: int, sector: str, axis: Axis,
                   lam: float) -> None:
    """The kick on sector amplitudes psi (osc_dim,) or (osc_dim, k), in
    place: one product per block of rows, each block reading only itself."""
    for block, prop in _kick_block_propagators(n_t, sector, axis, lam):
        psi[block] = prop @ psi[block]


def apply_kick(vec: np.ndarray, axis: Axis, lam: float) -> np.ndarray:
    """exp(-i lam q_axis s_axis) applied to a state (dim,) or to each column
    of a (dim, k) matrix, without forming the dense propagator: each parity
    sector is gathered, kicked and scattered back."""
    basis = basis_of(vec)
    vec = np.asarray(vec, dtype=complex)
    out = np.empty_like(vec)
    for sector in ("O", "E"):
        idx = basis.sector_indices(sector)
        psi = vec[idx]
        _kick_in_place(psi, basis.n_t, sector, axis, lam)
        out[idx] = psi
    return out


def apply_floquet(vec: np.ndarray, cfg: ValidatedConfig, lam: float) -> np.ndarray:
    """One period at the coupling lam applied to a state (dim,) or to each
    column of a (dim, k) matrix over cfg.n_t (else ValueError): kick y,
    kick x, then H0 phases.  A bad coupling is OutOfRange."""
    lam = checked_coupling(lam)
    n_t = basis_of(vec).n_t
    if n_t != cfg.n_t:
        raise ValueError(f"state over n_t = {n_t}, config n_t = {cfg.n_t}")
    out = apply_kick(apply_kick(vec, "y", lam), "x", lam)
    phases = h0_phases(cfg)
    return out * (phases[:, None] if out.ndim == 2 else phases)


def floquet_operator(cfg: ValidatedConfig, lam: float, sector: str) -> np.ndarray:
    """The block U[idx, idx] of U = exp(-i H0 tau) exp(-i lam q_x s_x)
    exp(-i lam q_y s_y) over the parity sector "O" or "E" (indices idx =
    basis.sector_indices), dense, in sector coordinates: the y kick
    assembled from its block propagators, the x kick applied to it block
    row by block row, then the sector's H0 phases.  U commutes with
    parity, so the block is the whole action of U on the sector; the dense
    full U is apply_floquet applied to the identity.  A coupling lam that
    is not finite and >= 0 is OutOfRange, any other label a ValueError.
    """
    lam = checked_coupling(lam)
    basis = build_basis(cfg.n_t)
    idx = basis.sector_indices(sector)
    u = np.zeros((basis.osc_dim, basis.osc_dim), dtype=complex)
    for block, prop in _kick_block_propagators(cfg.n_t, sector, "y", lam):
        u[block[:, None], block] = prop
    _kick_in_place(u, cfg.n_t, sector, "x", lam)
    u *= h0_phases(cfg)[idx, None]
    return u


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
# largest sector leakage of a parity-pure state (parity_sector)
PARITY_LEAKAGE_TOL = 1e-12

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
    # imported here, not at module top: loading scipy.linalg costs about a
    # third of a second and 24 MB at every CLI start, and the tracked
    # preset paths never need a Schur form
    import scipy.linalg

    t_mat, q_mat = scipy.linalg.schur(sub, output="complex")
    phases = np.angle(np.diag(t_mat))
    order = np.argsort(phases, kind="stable")
    phases, vecs = phases[order], q_mat[:, order]
    residuals = np.linalg.norm(sub @ vecs - vecs * np.exp(1j * phases)[None, :], axis=0)
    worst = float(np.max(residuals, initial=0.0))
    if worst > EIG_RESIDUAL_TOL:
        raise EigFailure(worst, EIG_RESIDUAL_TOL)
    return phases, vecs, residuals


def floquet_spectrum(cfg: ValidatedConfig, lam: float) -> FloquetSpectrum:
    """Eigenphases and eigenvectors of U(lam), one parity sector at a time.

    Each sector block (floquet_operator, "O" then "E") is eigensolved by
    :func:`_sector_spectrum`, which raises EigFailure past
    EIG_RESIDUAL_TOL; the vectors are embedded as full-space columns and
    all pairs are sorted by eigenphase (stable sort).  The first
    floquet_operator call refuses a bad coupling.
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
            floquet_operator(cfg, lam, label))
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

    def sample_at(self, lam: float) -> TrackedSample:
        """The sample at exactly lam (==), as at every stop; else KeyError."""
        for s in self.samples:
            if s.lam == lam:
                return s
        raise KeyError(f"no tracked sample at lam = {lam!r}")


MIN_TRACK_STEP = 1e-6
# first and largest continuation step
INITIAL_TRACK_STEP = 0.01
MAX_TRACK_STEP = 0.02
# a trial continuation step is accepted while 1 - |overlap| stays below this
OVERLAP_THRESHOLD = 0.01
# least number of steps (largest stop / MAX_TRACK_STEP) a continuation may
# need; the presets need under 30, and a path beyond this would run for hours
MAX_TRACK_STEPS = 100_000
RQI_RESIDUAL_TOL = 1e-12
# residual at which a refinement has reached the roundoff floor and stops
RQI_ROUNDOFF = 1e-14
RQI_MAX_SOLVES = 5


def _rayleigh_refine(sub: np.ndarray, vec: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Eigenphase, unit eigenvector and residual |sub v - e^{i phase} v| of
    the eigenpair of the unitary block sub nearest vec, by shift-invert
    Rayleigh-quotient iteration (Parlett, Math. Comp. 28, 679 (1974)).

    Each solve shifts one preallocated copy of sub at the Rayleigh quotient
    of the current iterate, projected onto the unit circle.  Iteration
    stops right after a solve that brings the residual to RQI_ROUNDOFF or
    below, once the residual no longer halves, or after RQI_MAX_SOLVES
    solves; the iterate with the smallest residual is returned.

    The roundoff stop is 1e-14 and not RQI_RESIDUAL_TOL (1e-12): on a
    near-degenerate pair one solve can reach a residual below 1e-12 on a
    mixture of the pair before the next solve resolves it.  Tracking the
    pes seed at omega 3.75, delta 1.0, n_t 2, the trial at lam 3.8e-6 has
    residual 3.3e-13 and overlap 0.9935 after one solve, and 2.4e-15 and
    0.980 after two; stopping after the first would accept a step that
    the full sector spectrum rejects.
    """
    diagonal = np.diag_indices_from(sub)
    shifted = np.empty_like(sub)

    def pair(v):
        v = v / np.linalg.norm(v)
        image = sub @ v
        rq = complex(np.vdot(v, image))
        phase = math.atan2(rq.imag, rq.real)
        return phase, v, float(np.linalg.norm(image - np.exp(1j * phase) * v))

    best = pair(vec)
    for _ in range(RQI_MAX_SOLVES):
        np.copyto(shifted, sub)
        shifted[diagonal] -= np.exp(1j * best[0])
        try:
            w = np.linalg.solve(shifted, best[1])
        except np.linalg.LinAlgError:   # shift exactly on an eigenvalue
            break
        trial = pair(w)   # a non-finite solve gives a NaN residual: no step
        halved = trial[2] <= 0.5 * best[2]
        if trial[2] < best[2]:
            best = trial
        if not halved or best[2] <= RQI_ROUNDOFF:
            break
    return best


def track_eigenstate(seed, cfg: ValidatedConfig, stops: Sequence[float], *,
                     on_sample: Callable[[TrackedSample], None] | None = None) -> TrackedPath:
    """Follow one Floquet eigenstate from lam = 0 through every stop above 0,
    landing on each bit for bit; a stop at 0 is the start.

    on_sample, when given, is called with each sample as soon as it is
    made: the lam = 0 start, then every accepted step in order, so a caller
    can use each stop's state while the continuation goes on.  An exception
    it raises ends the continuation.

    A trial step ends at lam + dlam, or on the next stop's own float when
    lam + dlam lies beyond that stop less MIN_TRACK_STEP (so a step onto a
    stop may be up to MIN_TRACK_STEP longer than dlam).  The eigenvector of
    U there with maximal overlap against the current state is selected;
    the step is accepted when 1 - |overlap| stays below OVERLAP_THRESHOLD,
    otherwise dlam is halved (StepUnderflow below MIN_TRACK_STEP, naming
    the last rejected trial coupling and its best overlap).  dlam starts at
    INITIAL_TRACK_STEP and grows by 1.5x after two consecutive acceptances,
    up to MAX_TRACK_STEP.  Accepted states are phase aligned so consecutive
    inner products are real positive.

    The maximiser is found by Rayleigh-quotient iteration from the current
    state (:func:`_rayleigh_refine`).  The squared overlaps of the current
    state with the eigenvectors sum to 1, so an eigenvector with
    |overlap| > 1/sqrt(2) is the unique maximiser: a refined pair with a
    roundoff-level residual (<= RQI_RESIDUAL_TOL) that clears 1/sqrt(2)
    decides the step without a Schur form.  Otherwise the full sector
    spectrum (:func:`_sector_spectrum`, with its EigFailure check) decides.

    Each stop goes through model.checked_coupling, so one that is not
    finite and >= 0 is OutOfRange; no stop above 0 is a ValueError; a
    largest stop beyond MAX_TRACK_STEPS steps of MAX_TRACK_STEP raises
    ComputeError before any work.

    The seed must be a state over cfg.n_t (else ValueError naming both
    cutoffs), an eigenvector of U(0) to EIG_RESIDUAL_TOL, checked by
    applying one period to it (no matrix is built), and parity pure
    (:func:`parity_sector`, whose ValueError names both leakages).
    The whole continuation runs inside the seed's sector: each trial step
    builds only the sector block of U (floquet_operator), and sector
    leakage is exactly zero along the path.
    """
    stop_list = sorted({checked_coupling(s) for s in stops} - {0.0})
    if not stop_list:
        raise ValueError("a continuation needs a stop above lam = 0")
    end = stop_list[-1]
    min_steps = end / MAX_TRACK_STEP
    if not min_steps <= MAX_TRACK_STEPS:
        raise ComputeError(
            f"continuation from lam = 0.0 to lam = {end!r} needs at least"
            f" {min_steps:.3g} steps of {MAX_TRACK_STEP!r}, more than {MAX_TRACK_STEPS}")
    basis = build_basis(cfg.n_t)
    vec = np.asarray(seed, dtype=complex)
    vec = vec / np.linalg.norm(vec)

    image = apply_floquet(vec, cfg, 0.0)
    rayleigh = complex(np.vdot(vec, image))
    phase0 = math.atan2(rayleigh.imag, rayleigh.real)
    resid = np.linalg.norm(image - np.exp(1j * phase0) * vec)
    if resid > EIG_RESIDUAL_TOL:
        raise EigFailure(resid, EIG_RESIDUAL_TOL)

    sector = parity_sector(vec)
    idx = basis.sector_indices(sector)

    current = vec[idx]
    samples = [TrackedSample(lam=0.0, state=vec.copy(), eigenphase=phase0,
                             dlam_used=0.0, overlap=1.0)]
    if on_sample is not None:
        on_sample(samples[0])
    lam, dlam, accept_streak = 0.0, min(INITIAL_TRACK_STEP, end), 0
    while stop_list:
        next_stop = stop_list[0]
        target = next_stop if lam + dlam > next_stop - MIN_TRACK_STEP else lam + dlam
        sub = floquet_operator(cfg, target, sector)
        phase, new, resid = _rayleigh_refine(sub, current)
        overlap = abs(complex(np.vdot(current, new)))
        if not (resid <= RQI_RESIDUAL_TOL and overlap > math.sqrt(0.5)):
            phases, vecs, _ = _sector_spectrum(sub)
            overlaps = np.abs(vecs.conj().T @ current)
            k = int(np.argmax(overlaps))
            phase, new, overlap = float(phases[k]), vecs[:, k].copy(), float(overlaps[k])
        if 1.0 - overlap < OVERLAP_THRESHOLD:
            inner = complex(np.vdot(current, new))
            new *= inner.conjugate() / abs(inner)
            full = np.zeros(basis.dim, dtype=complex)
            full[idx] = new
            samples.append(TrackedSample(lam=target, state=full, eigenphase=phase,
                                         dlam_used=target - lam, overlap=overlap))
            if on_sample is not None:
                on_sample(samples[-1])
            current, lam = new, target
            if lam == next_stop:
                stop_list.pop(0)
            accept_streak += 1
            if accept_streak >= 2:
                dlam = min(dlam * 1.5, MAX_TRACK_STEP)
                accept_streak = 0
        else:
            dlam /= 2.0
            accept_streak = 0
            if dlam < MIN_TRACK_STEP:
                raise StepUnderflow(
                    f"continuation step fell below {MIN_TRACK_STEP} at lam = {lam:.6f}:"
                    f" the last trial, at lam = {target!r}, reached a best overlap of"
                    f" {overlap!r}, not above the bound 1 - OVERLAP_THRESHOLD ="
                    f" {1.0 - OVERLAP_THRESHOLD!r}")
    return TrackedPath(samples=samples, sector=sector)


def sector_leakage(state, sector: str) -> float:
    """Probability weight outside the named parity sector."""
    return float(1.0 - np.sum(np.abs(state[basis_of(state).sector_indices(sector)]) ** 2))


def edge_weight(state) -> float:
    """Probability weight on the edge shell n_x + n_y = n_t of the state's
    truncation; a state its cutoff holds keeps almost none there."""
    basis = basis_of(state)
    return float(np.sum(np.abs(state[basis.total == basis.n_t]) ** 2))


def parity_sector(state) -> str:
    """The parity sector, "O" or "E", whose sector_leakage for the state is
    at most PARITY_LEAKAGE_TOL; a state pure in neither is a ValueError
    naming both leakages."""
    leakage = {label: sector_leakage(state, label) for label in ("O", "E")}
    for label, leak in leakage.items():
        if leak <= PARITY_LEAKAGE_TOL:
            return label
    raise ValueError(f"state is not parity pure: sector leakage {leakage['O']:.3e}"
                     f" from O and {leakage['E']:.3e} from E")


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
