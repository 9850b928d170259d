import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kickjt import (EigFailure, StepUnderflow, ValidatedConfig, apply_floquet,
                    build_basis, coherent_state, apply_kick, floquet_operator,
                    floquet_spectrum, h0_phases, pes_seed, pgs_seed,
                    phase_space_expectations, sector_leakage, track_eigenstate)
from kickjt import quantum_floquet as qf
from kickjt.observables import SpinDirection
from kickjt.quantum_floquet import (SPIN_HALF, FockBasis, _sector_spectrum,
                                    osc_position_matrix)
from conftest import DELTA, OMEGA, reference_config


class TestBasis:
    def test_minimal_truncation(self):
        basis = build_basis(0)
        assert basis.dim == 2
        assert list(zip(basis.n_x, basis.n_y, basis.sigma)) == [(0, 0, -1), (0, 0, 1)]
        assert list(basis.sector_indices("O")) == [0]
        assert list(basis.sector_indices("E")) == [1]

    def test_bases_compare_by_identity_and_hash(self):
        # the arrays of two equal-n_t bases must not be compared elementwise
        a, b = FockBasis(2), FockBasis(2)
        assert (a == b) is False
        assert a == a
        assert {a: 1, b: 2}[a] == 1
        assert repr(a) == "FockBasis(n_t=2)"

    def test_one_phonon_truncation(self):
        basis = build_basis(1)
        assert basis.dim == 6
        entries = list(zip(basis.n_x, basis.n_y, basis.sigma))
        odd = {entries[k] for k in basis.sector_indices("O")}
        assert odd == {(0, 0, -1), (1, 0, 1), (0, 1, 1)}

    @pytest.mark.parametrize("label", ["odd", "o", "", None])
    def test_unknown_sector_label_rejected(self, label):
        # a mistyped label must not select a sector; floquet_operator takes
        # None as "no sector", the whole space
        basis = build_basis(2)
        cfg = reference_config(0.3, n_t=2)
        with pytest.raises(ValueError, match=f"got {label!r}"):
            basis.sector_indices(label)
        with pytest.raises(ValueError, match=f"got {label!r}"):
            sector_leakage(pgs_seed(2), label)
        if label is None:
            assert floquet_operator(cfg, label).shape == (basis.dim, basis.dim)
        else:
            with pytest.raises(ValueError, match=f"got {label!r}"):
                floquet_operator(cfg, label)

    def test_reference_truncation_counts(self, basis18):
        assert basis18.dim == 380
        assert basis18.osc_dim == 190
        assert basis18.sector_indices("O").size == 190
        assert basis18.sector_indices("E").size == 190

    def test_index_maps_are_inverse_bijections(self, basis18):
        seen = set()
        for k, entry in enumerate(zip(basis18.n_x, basis18.n_y, basis18.sigma)):
            assert basis18.index(*entry) == k
            seen.add(entry)
        assert len(seen) == basis18.dim

    def test_ordering_ascending_in_total_then_nx_then_sigma(self, basis18):
        keys = [(nx + ny, nx, sigma) for nx, ny, sigma in zip(basis18.n_x, basis18.n_y,
                                                            basis18.sigma)]
        assert keys == sorted(keys)


class TestOperators:
    def test_parity_eigenvalues_on_lowest_states(self, basis18):
        par = basis18.parity
        assert par[basis18.index(0, 0, -1)] == -1
        assert par[basis18.index(0, 0, 1)] == 1

    def test_parity_squares_to_identity_exactly(self, basis18):
        assert np.all(basis18.parity ** 2 == 1)

    def test_position_matrix_element(self, basis18):
        q_x = np.kron(osc_position_matrix(18, "x"), np.eye(2))
        i = basis18.index(1, 0, -1)
        j = basis18.index(0, 0, -1)
        assert q_x[i, j] == pytest.approx(1 / math.sqrt(2))

    def test_h0_phase_on_ground_state(self, basis18):
        cfg = reference_config(0.0)
        phases = h0_phases(cfg)
        value = np.angle(phases[basis18.index(0, 0, -1)])
        assert value == pytest.approx(-(OMEGA - DELTA / 2))
        assert value == pytest.approx(0.41129, abs=1e-5)


def kick_matrix(axis, lam, basis, spin_axis=None):
    """Dense kick propagator: the kick applied to every identity column."""
    return apply_kick(np.eye(basis.dim, dtype=complex), axis, lam, spin_axis)


class TestKickPropagator:
    def test_identity_at_zero_coupling(self, basis18):
        k = kick_matrix("x", 0.0, basis18)
        assert np.max(np.abs(k - np.eye(basis18.dim))) <= 1e-14

    def test_exact_unitarity(self, basis18):
        k = kick_matrix("x", 0.32, basis18)
        defect = np.max(np.abs(k.conj().T @ k - np.eye(basis18.dim)))
        assert defect <= 1e-12

    def test_pulse_conjugation_identity(self, basis18):
        rot = scipy.linalg.expm(-1j * (math.pi / 4) * 2 * SPIN_HALF["y"])
        rot_full = np.kron(np.eye(basis18.osc_dim), rot)
        k_z = kick_matrix("x", 0.32, basis18, spin_axis="z")
        k_x = kick_matrix("x", 0.32, basis18, spin_axis="x")
        conjugated = rot_full @ k_z @ rot_full.conj().T
        assert np.max(np.abs(conjugated - k_x)) <= 1e-12

    def test_small_instance_matches_expm(self):
        basis = build_basis(3)
        lam = 0.27
        generator = np.kron(osc_position_matrix(3, "y"), SPIN_HALF["y"])
        expected = scipy.linalg.expm(-1j * lam * generator)
        actual = kick_matrix("y", lam, basis)
        assert np.max(np.abs(expected - actual)) <= 1e-12

    @pytest.mark.parametrize("axis,spin_axis", [("x", None), ("y", None), ("x", "z")])
    def test_matrix_input_equals_column_by_column(self, axis, spin_axis):
        basis = build_basis(5)
        rng = np.random.default_rng(13)
        mat = rng.normal(size=(basis.dim, 4)) + 1j * rng.normal(size=(basis.dim, 4))
        batched = apply_kick(mat, axis, 0.41, spin_axis)
        for j in range(mat.shape[1]):
            column = apply_kick(mat[:, j].copy(), axis, 0.41, spin_axis)
            assert np.max(np.abs(batched[:, j] - column)) <= 1e-13


class TestFloquetOperator:
    def test_diagonal_at_zero_coupling(self):
        cfg = reference_config(0.0)
        u = floquet_operator(cfg)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) <= 1e-14

    def test_unitarity(self, basis18):
        cfg = reference_config(0.46)
        u = floquet_operator(cfg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(basis18.dim))) <= 1e-10

    def test_commutes_with_parity(self, basis18):
        cfg = reference_config(0.32)
        u = floquet_operator(cfg)
        par = basis18.parity
        assert np.max(np.abs(u * par[None, :] - par[:, None] * u)) <= 1e-10

    def test_parity_block_structure(self, basis18):
        cfg = reference_config(0.32)
        u = floquet_operator(cfg)
        odd = basis18.sector_indices("O")
        even = basis18.sector_indices("E")
        assert np.max(np.abs(u[np.ix_(odd, even)])) <= 1e-10
        assert np.max(np.abs(u[np.ix_(even, odd)])) <= 1e-10

    def test_vector_application_matches_dense(self, basis18):
        cfg = reference_config(0.32)
        rng = np.random.default_rng(7)
        vec = rng.normal(size=basis18.dim) + 1j * rng.normal(size=basis18.dim)
        vec /= np.linalg.norm(vec)
        dense = floquet_operator(cfg) @ vec
        assert np.max(np.abs(apply_floquet(vec, cfg) - dense)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 4))
def test_floquet_operator_properties(omega, delta, lam, n_t):
    # the dense operator is the period applied column by column, unitary
    # and parity commuting anywhere in parameter space
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, lam, n_t=n_t)
    u = floquet_operator(cfg)
    eye = np.eye(basis.dim, dtype=complex)
    for j in range(basis.dim):
        assert np.max(np.abs(u[:, j] - apply_floquet(eye[:, j].copy(), cfg))) <= 1e-13
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    par = basis.parity
    assert np.max(np.abs(u * par[None, :] - par[:, None] * u)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 10), sector=st.sampled_from(["O", "E"]))
def test_sector_build_is_the_parity_block(omega, delta, lam, n_t, sector):
    # the sector build is the block U[idx, idx] of the full build
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, lam, n_t=n_t)
    idx = basis.sector_indices(sector)
    block = floquet_operator(cfg, sector)
    full = floquet_operator(cfg)
    assert block.shape == (idx.size, idx.size)
    assert np.max(np.abs(block - full[np.ix_(idx, idx)])) <= 1e-14


@pytest.mark.parametrize("sector", ["O", "E"])
@pytest.mark.parametrize("lam", [0.0, 0.32, 0.55])
def test_sector_build_bit_equal_at_reference_truncation(basis18, lam, sector):
    # continuation outputs at the preset truncation stay byte-identical
    # only while the block is the sliced full build bit for bit
    cfg = reference_config(lam)
    idx = basis18.sector_indices(sector)
    full = floquet_operator(cfg)
    assert np.array_equal(floquet_operator(cfg, sector),
                          full[np.ix_(idx, idx)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 8))
def test_sector_spectrum_matches_full_matrix_spectrum(omega, delta, lam, n_t):
    # the per-sector spectrum is the spectrum of the whole matrix, with
    # sector-pure orthonormal vectors and residuals within tolerance
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, lam, n_t=n_t)
    spec = floquet_spectrum(cfg)
    full_phases, _, _ = _sector_spectrum(floquet_operator(cfg))
    # compare the two phase multisets on the unit circle, cut open in the
    # middle of the widest gap between neighbouring eigenphases
    ours = spec.eigenphases
    gaps = np.diff(np.append(ours, ours[0] + 2 * math.pi))
    cut = ours[np.argmax(gaps)] + gaps.max() / 2
    assert np.max(np.abs(np.sort((ours - cut) % (2 * math.pi))
                         - np.sort((full_phases - cut) % (2 * math.pi)))) <= 1e-10
    in_odd = np.any(spec.vectors[basis.sector_indices("O")] != 0, axis=0)
    in_even = np.any(spec.vectors[basis.sector_indices("E")] != 0, axis=0)
    assert not np.any(in_odd & in_even)
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-12
    assert np.max(spec.residuals) <= qf.EIG_RESIDUAL_TOL


class TestFloquetSpectrum:
    def test_zero_coupling_matches_analytic_diagonal(self, basis18):
        cfg = reference_config(0.0)
        spec = floquet_spectrum(cfg)
        analytic = -(cfg.omega * (basis18.total + 1) + cfg.delta * basis18.sigma / 2)
        analytic = (analytic + math.pi) % (2 * math.pi) - math.pi
        assert np.max(np.abs(np.sort(spec.eigenphases) - np.sort(analytic))) <= 1e-12

    def test_small_instance_brute_force_oracle(self):
        basis = build_basis(2)
        assert basis.dim == 12
        lam = 0.1
        cfg = ValidatedConfig(OMEGA, DELTA, lam, n_t=2)
        q_x = np.kron(osc_position_matrix(2, "x"), np.eye(2))
        q_y = np.kron(osc_position_matrix(2, "y"), np.eye(2))
        s_x = np.kron(np.eye(basis.osc_dim), SPIN_HALF["x"])
        s_y = np.kron(np.eye(basis.osc_dim), SPIN_HALF["y"])
        h0 = np.diag(cfg.omega * (basis.total + 1) + cfg.delta * basis.sigma / 2)
        brute = (scipy.linalg.expm(-1j * h0)
                 @ scipy.linalg.expm(-1j * lam * q_x @ s_x)
                 @ scipy.linalg.expm(-1j * lam * q_y @ s_y))
        brute_phases = np.sort(np.angle(np.linalg.eigvals(brute)))
        spec = floquet_spectrum(cfg)
        assert np.max(np.abs(np.sort(spec.eigenphases) - brute_phases)) <= 1e-10

    def test_eigenvector_orthonormality(self, basis18):
        cfg = reference_config(0.32)
        spec = floquet_spectrum(cfg)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(basis18.dim))) <= 1e-9

    def test_eigenvalue_moduli_on_unit_circle(self):
        cfg = reference_config(0.32)
        u = floquet_operator(cfg)
        eigvals = np.linalg.eigvals(u)
        assert np.max(np.abs(np.abs(eigvals) - 1.0)) <= 1e-8

    def test_residual_failure_raises(self):
        rng = np.random.default_rng(3)
        bad = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        with pytest.raises(EigFailure):
            _sector_spectrum(bad)

    @pytest.mark.parametrize("lam", [0.1, 0.32])
    def test_spectral_stability_under_truncation(self, lam):
        # nearest-by-phase selection is only meaningful while the reference
        # neighbourhood is free of aliased near-cutoff states, i.e. through
        # the first bifurcation; beyond that the wrapped quasi-energies of
        # poorly converged high states enter the window
        ref_phase = 0.41129
        phases = {}
        for n_t in (18, 22):
            cfg = reference_config(lam, n_t=n_t)
            spec = floquet_spectrum(cfg)
            phases[n_t] = spec.eigenphases
        def circ_dist(a, b):
            return np.abs((a - b + math.pi) % (2 * math.pi) - math.pi)
        nearest20 = phases[18][np.argsort(circ_dist(phases[18], ref_phase))[:20]]
        for phase in nearest20:
            assert np.min(circ_dist(phases[22], phase)) < 1e-3

    def test_tracked_state_phase_stable_under_truncation(self):
        # the eigenstate the artifact actually follows is what must be
        # truncation-converged in the crossover regime
        phases = {}
        for n_t in (18, 22):
            cfg = reference_config(0.32, n_t=n_t)
            path = track_eigenstate(0.0, 0.32, pgs_seed(n_t), cfg)
            phases[n_t] = path.samples[-1].eigenphase
        move = abs((phases[18] - phases[22] + math.pi) % (2 * math.pi) - math.pi)
        assert move < 1e-3


class TestTracking:
    def test_pgs_starts_at_ground_state(self, pgs_path, basis18):
        first = pgs_path.samples[0]
        assert first.lam == 0.0
        k = basis18.index(0, 0, -1)
        assert abs(abs(first.state[k]) - 1.0) <= 1e-12
        assert first.eigenphase == pytest.approx(-(OMEGA - DELTA / 2))

    def test_consecutive_overlaps_within_threshold(self, pgs_path):
        for sample in pgs_path.samples[1:]:
            assert 1.0 - sample.overlap < qf.OVERLAP_THRESHOLD
            assert sample.overlap >= 0.99

    def test_path_lands_on_stops(self, pgs_path, lam_grid):
        tracked = set(np.round(pgs_path.lams(), 12))
        for lam in lam_grid:
            assert lam in tracked

    def test_sector_is_odd_and_leakage_zero(self, pgs_path):
        assert pgs_path.sector == "O"
        for sample in pgs_path.samples:
            assert sector_leakage(sample.state, "O") <= 1e-8

    def test_tracked_state_matches_unrestricted_eigenvector(self, pgs_path):
        # plain Schur on the full matrix, no parity hint: the matching
        # eigenvector must still live in the odd sector
        cfg = reference_config(0.32)
        _, vectors, _ = _sector_spectrum(floquet_operator(cfg))
        tracked = pgs_path.sample_at(0.32).state
        overlaps = np.abs(vectors.conj().T @ tracked)
        k = int(np.argmax(overlaps))
        assert overlaps[k] > 0.9999
        assert sector_leakage(vectors[:, k], "O") <= 1e-8

    def test_pes_is_doublet_partner(self, pgs_path, pes_path_032):
        g = pgs_path.sample_at(0.32)
        e = pes_path_032.sample_at(0.32)
        assert pes_path_032.sector == "E"
        gap = abs((g.eigenphase - e.eigenphase + math.pi) % (2 * math.pi) - math.pi)
        assert gap < 0.01

    def test_invalid_seed_rejected(self, basis18, base_cfg):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=basis18.dim) + 1j * rng.normal(size=basis18.dim)
        vec /= np.linalg.norm(vec)
        with pytest.raises(EigFailure):
            track_eigenstate(0.0, 0.1, vec, base_cfg)

    def test_mixed_parity_eigenvector_seed_rejected(self):
        # at lam = 0 with delta = 2 omega, |0,0,+> (E) and |2,0,-> (O) share
        # an eigenphase, so their sum is an eigenvector in neither sector
        cfg = ValidatedConfig(0.3, 0.6, 0.0, n_t=3)
        basis = build_basis(3)
        seed = (basis.basis_state(0, 0, 1) + basis.basis_state(2, 0, -1)) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="5.000e-01 from O and 5.000e-01 from E"):
            track_eigenstate(0.0, 0.1, seed, cfg)

    @pytest.mark.parametrize("stops", [[0.05, 0.08], []])
    def test_stops_may_be_an_array(self, stops):
        cfg = ValidatedConfig(OMEGA, DELTA, 0.1, n_t=4)
        want = track_eigenstate(0.0, 0.1, pgs_seed(4), cfg, stops=stops)
        got = track_eigenstate(0.0, 0.1, pgs_seed(4), cfg, stops=np.array(stops))
        assert set(stops) <= set(got.lams())
        assert len(got.samples) == len(want.samples)
        for g, w in zip(got.samples, want.samples):
            assert (g.lam, g.eigenphase, g.dlam_used, g.overlap) == \
                (w.lam, w.eigenphase, w.dlam_used, w.overlap)
            assert np.array_equal(g.state, w.state)

    def test_step_underflow_on_impossible_threshold(self, monkeypatch):
        monkeypatch.setattr(qf, "OVERLAP_THRESHOLD", 1e-15)
        cfg = ValidatedConfig(OMEGA, DELTA, 0.3, n_t=3)
        with pytest.raises(StepUnderflow):
            track_eigenstate(0.0, 0.3, pgs_seed(3), cfg)


def schur_only_track(lam_start, lam_end, seed, cfg, stops=None,
                     initial_dlam=0.01, max_dlam=0.02):
    """Test oracle: the overlap continuation with the full sector Schur form
    deciding every trial step, as it ran before Rayleigh-quotient
    refinement.  Returns (lam, eigenphase, dlam_used, overlap, state) per
    accepted sample."""
    basis = build_basis(cfg.n_t)
    vec = seed / np.linalg.norm(seed)
    u0 = floquet_operator(replace(cfg, lam=lam_start))
    idx = np.arange(basis.dim)
    for value in (-1, 1):
        sec = np.flatnonzero(basis.parity == value)
        if 1.0 - np.sum(np.abs(vec[sec]) ** 2) <= 1e-12:
            idx = sec
    current = vec[idx]
    rayleigh = complex(np.vdot(vec, u0 @ vec))
    samples = [(lam_start, math.atan2(rayleigh.imag, rayleigh.real), 0.0, 1.0, vec.copy())]
    stop_list = sorted({float(s) for s in (stops or [])} | {float(lam_end)})
    stop_list = [s for s in stop_list if lam_start < s <= lam_end + 1e-15]
    lam, dlam, streak = lam_start, min(initial_dlam, lam_end - lam_start), 0
    while stop_list:
        target = min(lam + dlam, stop_list[0])
        u_t = floquet_operator(replace(cfg, lam=target))
        phases, vecs, _ = _sector_spectrum(u_t[np.ix_(idx, idx)])
        overlaps = np.abs(vecs.conj().T @ current)
        k = int(np.argmax(overlaps))
        if 1.0 - overlaps[k] < qf.OVERLAP_THRESHOLD:
            new = vecs[:, k].copy()
            inner = complex(np.vdot(current, new))
            new *= inner.conjugate() / abs(inner)
            full = np.zeros(basis.dim, dtype=complex)
            full[idx] = new
            samples.append((target, float(phases[k]), target - lam, float(overlaps[k]), full))
            current, lam = new, target
            if abs(lam - stop_list[0]) <= 1e-15:
                stop_list.pop(0)
            streak += 1
            if streak >= 2:
                dlam, streak = min(dlam * 1.5, max_dlam), 0
        else:
            dlam, streak = dlam / 2.0, 0
            if dlam < 1e-6:
                raise StepUnderflow(f"continuation step fell below 1e-6 at lam = {lam:.6f}")
    return samples


def compare_with_oracle(lam_end, seed, cfg, step, stops=None):
    """Run the oracle and track_eigenstate on one case; require identical
    (lam, dlam_used) sequences, eigenphases to 1e-12 and every accepted
    pair's residual against the dense U within 1e-12.  Returns
    (oracle samples, path), or None when both raised StepUnderflow."""
    try:
        want = schur_only_track(0.0, lam_end, seed, cfg, stops, step, step)
    except StepUnderflow:
        with pytest.raises(StepUnderflow):
            track_eigenstate(0.0, lam_end, seed, cfg, stops, step, step)
        return None
    path = track_eigenstate(0.0, lam_end, seed, cfg, stops, step, step)
    assert [(s.lam, s.dlam_used) for s in path.samples] == [(w[0], w[2]) for w in want]
    for sample, w in zip(path.samples, want):
        assert abs(sample.eigenphase - w[1]) <= 1e-12
        u = floquet_operator(replace(cfg, lam=sample.lam))
        resid = np.linalg.norm(u @ sample.state - np.exp(1j * sample.eigenphase) * sample.state)
        assert resid <= 1e-12
    return want, path


@settings(max_examples=60, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       n_t=st.integers(1, 10), step=st.floats(0.01, 1.0), lam_end=st.floats(0.05, 2.0),
       excited=st.booleans(), with_stops=st.booleans())
def test_tracking_matches_schur_oracle(omega, delta, n_t, step, lam_end, excited, with_stops):
    cfg = ValidatedConfig(omega, delta, 0.0, n_t=n_t)
    seed = (pes_seed if excited else pgs_seed)(n_t)
    stops = [0.05 * k for k in range(1, int(lam_end / 0.05) + 1)] if with_stops else None
    compare_with_oracle(lam_end, seed, cfg, step, stops)


class CountingSchur:
    """Stand-in for _sector_spectrum that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return _sector_spectrum(*args, **kwargs)


class TestRayleighTracking:
    @pytest.mark.parametrize("n_t,excited,omega,delta,lam_end,step", [
        (6, False, OMEGA, DELTA, 2.0, 1.0),
        (10, True, OMEGA, DELTA, 1.0, 0.1),
        (10, False, OMEGA, DELTA, 0.55, 0.02),
        (6, True, 0.05, DELTA, 2.0, 1.0),
        (4, False, 2.5, 3.9, 2.0, 0.25),
        (8, False, 1.3, 0.4, 1.5, 0.05),
    ])
    def test_states_pinned_to_oracle(self, n_t, excited, omega, delta, lam_end, step):
        cfg = ValidatedConfig(omega, delta, 0.0, n_t=n_t)
        seed = (pes_seed if excited else pgs_seed)(n_t)
        want, path = compare_with_oracle(lam_end, seed, cfg, step)
        for sample, w in zip(path.samples, want):
            assert np.max(np.abs(sample.state - w[4])) <= 1e-9

    def test_fallback_decides_unconverged_and_low_overlap_trials(self, monkeypatch):
        # large steps: some refinements stop short of roundoff, others land on
        # an eigenvector with |overlap| <= 1/sqrt(2); each must go to Schur
        refined = []
        real_refine = qf._rayleigh_refine

        def spy(sub, vec):
            out = real_refine(sub, vec)
            refined.append((out[2], abs(np.vdot(vec, out[1]))))
            return out

        schur = CountingSchur()
        monkeypatch.setattr(qf, "_rayleigh_refine", spy)
        monkeypatch.setattr(qf, "_sector_spectrum", schur)
        cfg = reference_config(0.0, n_t=6)
        compare_with_oracle(2.0, pgs_seed(6), cfg, 1.0)
        unconverged = [r for r, o in refined if r > qf.RQI_RESIDUAL_TOL]
        low_overlap = [o for r, o in refined
                       if r <= qf.RQI_RESIDUAL_TOL and o <= math.sqrt(0.5)]
        assert unconverged and low_overlap
        assert schur.calls == len(unconverged) + len(low_overlap)

    def test_reference_path_needs_no_schur(self, monkeypatch, pgs_path, base_cfg,
                                           lam_grid):
        schur = CountingSchur()
        monkeypatch.setattr(qf, "_sector_spectrum", schur)
        path = track_eigenstate(0.0, 0.55, pgs_seed(18), base_cfg,
                                stops=[l for l in lam_grid if l > 0])
        assert schur.calls == 0
        assert np.array_equal(path.lams(), pgs_path.lams())


    def test_reference_path_builds_only_sector_blocks(self, monkeypatch, pgs_path,
                                                      base_cfg, basis18, lam_grid):
        # the start check applies one period to the seed, and every trial
        # step builds the odd block alone: no full-space matrix
        shapes = []
        real_build = qf.floquet_operator

        def spy(*args, **kwargs):
            mat = real_build(*args, **kwargs)
            shapes.append(mat.shape)
            return mat

        monkeypatch.setattr(qf, "floquet_operator", spy)
        path = track_eigenstate(0.0, 0.55, pgs_seed(18), base_cfg,
                                stops=[l for l in lam_grid if l > 0])
        odd = basis18.sector_indices("O").size
        assert len(shapes) >= len(path.samples) - 1
        assert set(shapes) == {(odd, odd)}
        assert np.array_equal(path.lams(), pgs_path.lams())


class TestExpectation:
    def test_ground_state_values(self, basis18):
        ground = basis18.basis_state(0, 0, -1)
        values = phase_space_expectations(ground)
        assert values["q_x"] == pytest.approx(0.0, abs=1e-15)
        assert values["s_z"] == pytest.approx(-0.5)

    def test_coherent_state_position(self):
        state = coherent_state(2.0, 0.0, SpinDirection(math.pi, 0.0), 18)
        value = phase_space_expectations(state)["q_x"]
        assert value == pytest.approx(2 * math.sqrt(2), rel=0.01)
        assert value == pytest.approx(2.828, abs=0.03)
