import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from kickjt import (ComputeError, EigFailure, OutOfRange, StepUnderflow, ValidatedConfig,
                    apply_floquet, build_basis, coherent_amplitudes, coherent_state,
                    apply_kick, floquet_operator,
                    floquet_spectrum, h0_phases, pes_seed, pgs_seed,
                    phase_space_expectations, sector_leakage, track_eigenstate)
from kickjt import configfile as cf
from kickjt import quantum_floquet as qf
from kickjt.model import MAX_N_T
from kickjt.observables import SpinDirection, log_negativity
from kickjt.quantum_floquet import (SPIN_HALF, FockBasis, _sector_spectrum,
                                    osc_position_matrix)
from conftest import DELTA, OMEGA, REFERENCE_LAM, full_floquet, reference_config


class TestParitySector:
    # at omega = 2 pi/3, |3,0,-> (E) shares the eigenphase of |0,0,-> (O)
    # at lam = 0, so a pgs seed leaking into it stays an eigenvector of U
    CFG = ValidatedConfig(2 * math.pi / 3, 1.0, n_t=3)

    def test_zero_coupling_seeds(self):
        assert qf.parity_sector(pgs_seed(4)) == "O"
        assert qf.parity_sector(pes_seed(4)) == "E"

    @staticmethod
    def leaky_pgs_seed(eps):
        basis = build_basis(3)
        vec = pgs_seed(3) + eps * basis.basis_state(3, 0, -1)
        return vec / np.linalg.norm(vec)

    def test_roundoff_leakage_accepted_everywhere(self):
        seed = self.leaky_pgs_seed(1e-17)
        assert qf.parity_sector(seed) == "O"
        assert track_eigenstate(seed, self.CFG, [0.1]).sector == "O"
        assert log_negativity(seed) <= 1e-12

    def test_leakage_above_the_tolerance_refused_everywhere(self):
        # leakage 1e-10, above PARITY_LEAKAGE_TOL: the same message each time
        seed = self.leaky_pgs_seed(1e-5)
        assert 0.9e-10 <= sector_leakage(seed, "O") <= 1.1e-10
        messages = []
        for call in (qf.parity_sector, lambda vec: track_eigenstate(vec, self.CFG, [0.1]),
                     log_negativity):
            with pytest.raises(ValueError) as info:
                call(seed)
            messages.append(str(info.value))
        assert messages == ["state is not parity pure: sector leakage 1.000e-10 from O"
                            " and 1.000e+00 from E"] * 3


class TestEdgeWeight:
    @pytest.mark.parametrize("n_t", range(5))
    def test_zero_coupling_seeds(self, n_t):
        # |0,0> lies on the edge shell only at n_t = 0, the one-phonon pes
        # seed only at n_t = 1
        assert qf.edge_weight(pgs_seed(n_t)) == (1.0 if n_t == 0 else 0.0)
        if n_t >= 1:
            assert qf.edge_weight(pes_seed(n_t)) == pytest.approx(1.0 if n_t == 1 else 0.0,
                                                                  abs=1e-15)

    def test_truncated_coherent_state(self):
        n_t = 8
        amps, _ = coherent_amplitudes(0.8, 0.5j, n_t)
        basis = build_basis(n_t)
        weights = np.abs(amps) ** 2
        shell = weights[basis.osc_nx + basis.osc_ny == n_t].sum() / weights.sum()
        assert shell > 1e-7
        state = coherent_state(0.8, 0.5j, SpinDirection(1.0, 2.0), n_t)
        assert qf.edge_weight(state) == pytest.approx(shell, rel=1e-12)

    def test_state_of_the_wrong_length_refused(self):
        with pytest.raises(ValueError, match="a state of length 7 is not"):
            qf.edge_weight(np.ones(7))


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

    @pytest.mark.parametrize("make", [
        build_basis, FockBasis, pgs_seed, pes_seed,
        lambda n_t: coherent_amplitudes(0.1, 0.0, n_t),
        lambda n_t: coherent_state(0.1, 0.0, SpinDirection(0.0, 0.0), n_t),
    ])
    def test_cutoff_above_max_rejected_before_listing(self, make):
        # listing the pairs of n_t = 10**6 would exhaust memory: the bound
        # is checked first
        for n_t in (10**6, MAX_N_T + 1, -1):
            with pytest.raises(ValueError, match=rf"n_t must lie in \[0, MAX_N_T = {MAX_N_T}\],"
                                                 rf" got {n_t}"):
                make(n_t)
        assert build_basis(MAX_N_T).n_t == MAX_N_T

    @pytest.mark.parametrize("label", ["odd", "o", "", None])
    def test_unknown_sector_label_rejected(self, label):
        # a mistyped label must not select a sector
        basis = build_basis(2)
        cfg = reference_config(n_t=2)
        with pytest.raises(ValueError, match=f"got {label!r}"):
            basis.sector_indices(label)
        with pytest.raises(ValueError, match=f"got {label!r}"):
            sector_leakage(pgs_seed(2), label)
        with pytest.raises(ValueError, match=f"got {label!r}"):
            floquet_operator(cfg, 0.3, label)

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

    @pytest.mark.parametrize("pair", [(19, 0), (0, 19), (10, 9), (-1, 0), (0, -1),
                                      (-1, 1), (1, -1)])
    def test_index_of_a_pair_outside_the_cutoff_rejected(self, basis18, pair):
        # (-1, 1) and (1, -1) would land on valid indices of the formula
        for sigma in (-1, 1):
            with pytest.raises(ValueError, match=re.escape(
                    f"pair (n_x, n_y) = {pair!r} lies outside the cutoff n_t = 18")):
                basis18.index(*pair, sigma)

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
        cfg = reference_config()
        phases = h0_phases(cfg)
        value = np.angle(phases[basis18.index(0, 0, -1)])
        assert value == pytest.approx(-(OMEGA - DELTA / 2))
        assert value == pytest.approx(0.41129, abs=1e-5)


def kick_matrix(axis, lam, basis):
    """Dense kick propagator: the kick applied to every identity column."""
    return apply_kick(np.eye(basis.dim, dtype=complex), axis, lam)


class TestKickPropagator:
    def test_identity_at_zero_coupling(self, basis18):
        k = kick_matrix("x", 0.0, basis18)
        assert np.max(np.abs(k - np.eye(basis18.dim))) <= 1e-14

    def test_exact_unitarity(self, basis18):
        k = kick_matrix("x", 0.32, basis18)
        defect = np.max(np.abs(k.conj().T @ k - np.eye(basis18.dim)))
        assert defect <= 1e-12

    def test_pulse_conjugation_identity(self, basis18):
        # a pi/2 spin rotation about y turns the s_z kick into the s_x kick
        lam = 0.32
        rot = scipy.linalg.expm(-1j * (math.pi / 4) * 2 * SPIN_HALF["y"])
        rot_full = np.kron(np.eye(basis18.osc_dim), rot)
        k_z = scipy.linalg.expm(-1j * lam * np.kron(osc_position_matrix(18, "x"),
                                                    SPIN_HALF["z"]))
        conjugated = rot_full @ k_z @ rot_full.conj().T
        assert np.max(np.abs(conjugated - kick_matrix("x", lam, basis18))) <= 1e-12

    def test_small_instance_matches_expm(self):
        basis = build_basis(3)
        lam = 0.27
        generator = np.kron(osc_position_matrix(3, "y"), SPIN_HALF["y"])
        expected = scipy.linalg.expm(-1j * lam * generator)
        actual = kick_matrix("y", lam, basis)
        assert np.max(np.abs(expected - actual)) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_matrix_input_equals_column_by_column(self, axis):
        basis = build_basis(5)
        rng = np.random.default_rng(13)
        mat = rng.normal(size=(basis.dim, 4)) + 1j * rng.normal(size=(basis.dim, 4))
        batched = apply_kick(mat, axis, 0.41)
        for j in range(mat.shape[1]):
            column = apply_kick(mat[:, j].copy(), axis, 0.41)
            assert np.max(np.abs(batched[:, j] - column)) <= 1e-13


class TestFloquetOperator:
    def test_diagonal_at_zero_coupling(self):
        cfg = reference_config()
        u = full_floquet(cfg, 0.0)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) <= 1e-14

    def test_unitarity(self, basis18):
        cfg = reference_config()
        u = full_floquet(cfg, 0.46)
        assert np.max(np.abs(u.conj().T @ u - np.eye(basis18.dim))) <= 1e-10

    def test_commutes_with_parity(self, basis18):
        cfg = reference_config()
        u = full_floquet(cfg, REFERENCE_LAM)
        par = basis18.parity
        assert np.max(np.abs(u * par[None, :] - par[:, None] * u)) <= 1e-10

    def test_parity_block_structure(self, basis18):
        cfg = reference_config()
        u = full_floquet(cfg, REFERENCE_LAM)
        odd = basis18.sector_indices("O")
        even = basis18.sector_indices("E")
        assert not np.any(u[np.ix_(odd, even)])
        assert not np.any(u[np.ix_(even, odd)])

    def test_vector_application_matches_dense(self, basis18):
        cfg = reference_config()
        rng = np.random.default_rng(7)
        vec = rng.normal(size=basis18.dim) + 1j * rng.normal(size=basis18.dim)
        vec /= np.linalg.norm(vec)
        dense = full_floquet(cfg, REFERENCE_LAM) @ vec
        assert np.max(np.abs(apply_floquet(vec, cfg, REFERENCE_LAM) - dense)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 4))
def test_floquet_operator_properties(omega, delta, lam, n_t):
    # the dense operator is the period applied column by column, unitary
    # and parity commuting anywhere in parameter space
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, n_t=n_t)
    u = full_floquet(cfg, lam)
    eye = np.eye(basis.dim, dtype=complex)
    for j in range(basis.dim):
        assert np.max(np.abs(u[:, j] - apply_floquet(eye[:, j].copy(), cfg, lam))) <= 1e-13
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    par = basis.parity
    assert np.max(np.abs(u * par[None, :] - par[:, None] * u)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 10), sector=st.sampled_from(["O", "E"]))
def test_sector_build_is_the_parity_block(omega, delta, lam, n_t, sector):
    # the sector build is the block U[idx, idx] of the full U
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, n_t=n_t)
    idx = basis.sector_indices(sector)
    block = floquet_operator(cfg, lam, sector)
    full = full_floquet(cfg, lam)
    assert block.shape == (idx.size, idx.size)
    assert np.max(np.abs(block - full[np.ix_(idx, idx)])) <= 1e-14


@pytest.mark.parametrize("sector", ["O", "E"])
@pytest.mark.parametrize("lam", [0.0, 0.32, 0.55])
def test_sector_build_bit_equal_at_reference_truncation(basis18, lam, sector):
    # at the preset truncation the block is the slice of the full U that
    # apply_floquet gives on the identity, bit for bit
    cfg = reference_config()
    idx = basis18.sector_indices(sector)
    full = full_floquet(cfg, lam)
    assert np.array_equal(floquet_operator(cfg, lam, sector),
                          full[np.ix_(idx, idx)])


def expm_sector_block(cfg, lam, sector):
    """Oracle: diag(h0) expm(-i lam q_x s_x) expm(-i lam q_y s_y) over the
    whole basis, restricted to the sector's rows and columns."""
    idx = build_basis(cfg.n_t).sector_indices(sector)
    kicks = [scipy.linalg.expm(-1j * lam * np.kron(osc_position_matrix(cfg.n_t, axis),
                                                   SPIN_HALF[axis]))
             for axis in ("x", "y")]
    return (h0_phases(cfg)[:, None] * (kicks[0] @ kicks[1]))[np.ix_(idx, idx)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 6), sector=st.sampled_from(["O", "E"]))
def test_sector_build_matches_expm(omega, delta, lam, n_t, sector):
    cfg = ValidatedConfig(omega, delta, n_t=n_t)
    assert np.max(np.abs(floquet_operator(cfg, lam, sector)
                         - expm_sector_block(cfg, lam, sector))) <= 1e-12


@pytest.mark.parametrize("sector", ["O", "E"])
@pytest.mark.parametrize("lam", [0.32, 0.55])
def test_sector_build_matches_expm_at_reference_truncation(lam, sector):
    cfg = reference_config()
    assert np.max(np.abs(floquet_operator(cfg, lam, sector)
                         - expm_sector_block(cfg, lam, sector))) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       lam=st.floats(0.0, 2.0), n_t=st.integers(0, 8))
def test_sector_spectrum_matches_full_matrix_spectrum(omega, delta, lam, n_t):
    # the per-sector spectrum is the spectrum of the whole matrix, with
    # sector-pure orthonormal vectors and residuals within tolerance
    basis = build_basis(n_t)
    cfg = ValidatedConfig(omega, delta, n_t=n_t)
    spec = floquet_spectrum(cfg, lam)
    full_phases, _, _ = _sector_spectrum(full_floquet(cfg, lam))
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
        cfg = reference_config()
        spec = floquet_spectrum(cfg, 0.0)
        analytic = -(cfg.omega * (basis18.total + 1) + cfg.delta * basis18.sigma / 2)
        analytic = (analytic + math.pi) % (2 * math.pi) - math.pi
        assert np.max(np.abs(np.sort(spec.eigenphases) - np.sort(analytic))) <= 1e-12

    def test_small_instance_brute_force_oracle(self):
        basis = build_basis(2)
        assert basis.dim == 12
        lam = 0.1
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=2)
        q_x = np.kron(osc_position_matrix(2, "x"), np.eye(2))
        q_y = np.kron(osc_position_matrix(2, "y"), np.eye(2))
        s_x = np.kron(np.eye(basis.osc_dim), SPIN_HALF["x"])
        s_y = np.kron(np.eye(basis.osc_dim), SPIN_HALF["y"])
        h0 = np.diag(cfg.omega * (basis.total + 1) + cfg.delta * basis.sigma / 2)
        brute = (scipy.linalg.expm(-1j * h0)
                 @ scipy.linalg.expm(-1j * lam * q_x @ s_x)
                 @ scipy.linalg.expm(-1j * lam * q_y @ s_y))
        brute_phases = np.sort(np.angle(np.linalg.eigvals(brute)))
        spec = floquet_spectrum(cfg, lam)
        assert np.max(np.abs(np.sort(spec.eigenphases) - brute_phases)) <= 1e-10

    def test_eigenvector_orthonormality(self, basis18):
        cfg = reference_config()
        spec = floquet_spectrum(cfg, REFERENCE_LAM)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(basis18.dim))) <= 1e-9

    def test_eigenvalue_moduli_on_unit_circle(self):
        cfg = reference_config()
        u = full_floquet(cfg, REFERENCE_LAM)
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
            cfg = reference_config(n_t=n_t)
            spec = floquet_spectrum(cfg, lam)
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
            cfg = reference_config(n_t=n_t)
            path = track_eigenstate(pgs_seed(n_t), cfg, [0.32])
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
        tracked = {s.lam for s in pgs_path.samples}
        for lam in lam_grid:
            assert lam in tracked
            assert pgs_path.sample_at(lam).lam == lam

    def test_on_sample_sees_each_sample_as_it_is_made(self):
        # the start, then every accepted step, in order: the path's own
        # samples; an error of the hook at the first step ends the track there
        cfg, seen = reference_config(n_t=4), []
        path = track_eigenstate(pgs_seed(4), cfg, [0.05, 0.1], on_sample=seen.append)
        assert len(seen) == len(path.samples) > 2
        assert all(a is b for a, b in zip(seen, path.samples))

        def stop_at_the_first_step(sample):
            if sample.lam > 0:
                raise RuntimeError(f"stopped at lam = {sample.lam!r}")

        with pytest.raises(RuntimeError, match=re.escape(f"stopped at lam = {path.samples[1].lam!r}")):
            track_eigenstate(pgs_seed(4), cfg, [0.05, 0.1], on_sample=stop_at_the_first_step)

    def test_sector_is_odd_and_leakage_zero(self, pgs_path):
        assert pgs_path.sector == "O"
        for sample in pgs_path.samples:
            assert sector_leakage(sample.state, "O") <= 1e-8

    def test_tracked_state_matches_unrestricted_eigenvector(self, pgs_path):
        # plain Schur on the full matrix, no parity hint: the matching
        # eigenvector must still live in the odd sector
        cfg = reference_config()
        _, vectors, _ = _sector_spectrum(full_floquet(cfg, REFERENCE_LAM))
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
            track_eigenstate(vec, base_cfg, [0.1])

    def test_mixed_parity_eigenvector_seed_rejected(self):
        # at lam = 0 with delta = 2 omega, |0,0,+> (E) and |2,0,-> (O) share
        # an eigenphase, so their sum is an eigenvector in neither sector
        cfg = ValidatedConfig(0.3, 0.6, n_t=3)
        basis = build_basis(3)
        seed = (basis.basis_state(0, 0, 1) + basis.basis_state(2, 0, -1)) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="5.000e-01 from O and 5.000e-01 from E"):
            track_eigenstate(seed, cfg, [0.1])

    @pytest.mark.parametrize("stops", [[0.05, 0.08, 0.1], [0.1]])
    def test_stops_may_be_an_array(self, stops):
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        want = track_eigenstate(pgs_seed(4), cfg, stops)
        got = track_eigenstate(pgs_seed(4), cfg, np.array(stops))
        assert set(stops) <= {s.lam for s in got.samples}
        assert len(got.samples) == len(want.samples)
        for g, w in zip(got.samples, want.samples):
            assert (g.lam, g.eigenphase, g.dlam_used, g.overlap) == \
                (w.lam, w.eigenphase, w.dlam_used, w.overlap)
            assert np.array_equal(g.state, w.state)

    def test_stops_in_any_order_repeated_or_not_above_zero(self):
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        want = track_eigenstate(pgs_seed(4), cfg, [0.05, 0.08, 0.1])
        got = track_eigenstate(pgs_seed(4), cfg, [0.08, 0.1, 0.0, 0.05, 0.08])
        assert [(s.lam, s.dlam_used) for s in got.samples] == \
            [(s.lam, s.dlam_used) for s in want.samples]
        assert got.samples[0].lam == 0.0 and got.samples[-1].lam == 0.1
        for g, w in zip(got.samples, want.samples):
            assert np.array_equal(g.state, w.state)

    @pytest.mark.parametrize("stops", [[], [0.0]])
    def test_no_stop_above_zero_refused(self, stops):
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        with pytest.raises(ValueError, match="needs a stop above lam = 0"):
            track_eigenstate(pgs_seed(4), cfg, stops)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stop_refused_by_name(self, bad):
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        with pytest.raises(OutOfRange, match=re.escape(
                f"lambda must be finite and >= 0, got {bad!r}")):
            track_eigenstate(pgs_seed(4), cfg, [0.05, bad, 0.1])

    def test_negative_stop_refused_before_the_missing_stop(self):
        # a negative stop is a bad coupling, not a stop to skip
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        with pytest.raises(OutOfRange, match=re.escape("lambda must be finite and >= 0, got -0.3")):
            track_eigenstate(pgs_seed(4), cfg, [-0.3, 0.0])

    def test_unbounded_span_refused_before_any_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(qf, "floquet_operator", lambda *a: builds.append(a))
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=4)
        with pytest.raises(ComputeError, match=re.escape(
                "continuation from lam = 0.0 to lam = 1e+300 needs at least"
                " 5e+301 steps of 0.02, more than 100000")):
            track_eigenstate(pgs_seed(4), cfg, [0.1, 1e300])
        assert builds == []

    def test_step_underflow_on_impossible_threshold(self, monkeypatch):
        monkeypatch.setattr(qf, "OVERLAP_THRESHOLD", 1e-15)
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=3)
        with pytest.raises(StepUnderflow):
            track_eigenstate(pgs_seed(3), cfg, [0.3])

    def test_step_underflow_names_the_last_trial_and_its_overlap(self):
        # the pes seed is not the combination of the degenerate N = 1 pair
        # that the coupling selects here: no step clears the overlap bound
        cfg = ValidatedConfig(3.75, 1.0, n_t=2)
        with pytest.raises(StepUnderflow) as info:
            track_eigenstate(pes_seed(2), cfg, [1.0])
        match = re.fullmatch(
            r"continuation step fell below 1e-06 at lam = 0\.000000: the last trial,"
            r" at lam = (\S+), reached a best overlap of (\S+), not above the bound"
            r" 1 - OVERLAP_THRESHOLD = 0\.99", str(info.value))
        assert match, str(info.value)
        trial, overlap = float(match[1]), float(match[2])
        assert 0.0 < trial < 2e-6
        assert 0.5 < overlap <= 1.0 - qf.OVERLAP_THRESHOLD


def grid_stops(text):
    """The couplings of the grid 'start:stop:step', as a config file gives them."""
    return cf.grid(cf.Entry("model.lambda_grid", text, 1))


class TestLanding:
    """A continuation ends every step that reaches a stop on the stop's own
    float, however the steps before it add up."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(step=st.sampled_from([0.013, 0.02, 0.03, 0.07]), end=st.floats(0.1, 1.0),
           n_t=st.integers(2, 8))
    # from one stop, a step of 0.02 sums to 1-2 ulp below the next stop at
    # 0.14, 0.16, ..., 0.28
    @example(step=0.02, end=0.7, n_t=8)
    def test_every_stop_is_a_sample_coupling(self, step, end, n_t):
        stops = grid_stops(f"0:{end!r}:{step!r}")
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=n_t)
        path = track_eigenstate(pgs_seed(n_t), cfg, stops)
        for stop in stops:
            assert path.sample_at(stop).lam == stop
        tracked = [s.lam for s in path.samples]
        assert tracked == sorted(set(tracked)) and tracked[-1] == stops[-1]
        # a step onto a stop may exceed the step size by under MIN_TRACK_STEP
        assert max(s.dlam_used for s in path.samples) < qf.MAX_TRACK_STEP + qf.MIN_TRACK_STEP

    def test_lookup_matches_the_coupling_exactly(self):
        cfg = ValidatedConfig(OMEGA, DELTA, n_t=8)
        path = track_eigenstate(pgs_seed(8), cfg, grid_stops("0:0.7:0.02"))
        assert path.sample_at(0.14).lam == 0.14
        with pytest.raises(KeyError, match="no tracked sample"):
            path.sample_at(0.14 + 1e-13)


def schur_only_track(lam_start, lam_end, seed, cfg, stops=None,
                     initial_dlam=0.01, max_dlam=0.02):
    """Test oracle: the overlap continuation of a parity-pure seed with the
    full sector Schur form deciding every trial step, as it ran before Rayleigh-quotient
    refinement; a trial that ends past a stop less 1e-6 (MIN_TRACK_STEP)
    ends on the stop.  Returns (lam, eigenphase, dlam_used, overlap, state)
    per accepted sample."""
    basis = build_basis(cfg.n_t)
    vec = seed / np.linalg.norm(seed)
    u0 = full_floquet(cfg, lam_start)
    sector = next(label for label in ("O", "E")
                  if 1.0 - np.sum(np.abs(vec[basis.sector_indices(label)]) ** 2) <= 1e-12)
    idx = basis.sector_indices(sector)
    current = vec[idx]
    rayleigh = complex(np.vdot(vec, u0 @ vec))
    samples = [(lam_start, math.atan2(rayleigh.imag, rayleigh.real), 0.0, 1.0, vec.copy())]
    stop_list = sorted({float(s) for s in (stops or [])} | {float(lam_end)})
    stop_list = [s for s in stop_list if lam_start < s <= lam_end + 1e-15]
    lam, dlam, streak = lam_start, min(initial_dlam, lam_end - lam_start), 0
    while stop_list:
        target = lam + dlam
        if target > stop_list[0] - 1e-6:
            target = stop_list[0]
        phases, vecs, _ = _sector_spectrum(floquet_operator(cfg, target, sector))
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
            if lam == stop_list[0]:
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
    """Run the oracle and track_eigenstate on one case, with first and
    largest continuation step both set to step; require identical
    (lam, dlam_used) sequences, eigenphases to 1e-12 and every accepted
    pair's residual against the dense U within 1e-12.  Returns
    (oracle samples, path), or None when both raised StepUnderflow."""
    def track():
        # patch.object, unlike the function-scoped monkeypatch, also works
        # inside @given
        with mock.patch.object(qf, "INITIAL_TRACK_STEP", step), \
                mock.patch.object(qf, "MAX_TRACK_STEP", step):
            return track_eigenstate(seed, cfg, [*(stops or []), lam_end])

    try:
        want = schur_only_track(0.0, lam_end, seed, cfg, stops, step, step)
    except StepUnderflow:
        with pytest.raises(StepUnderflow):
            track()
        return None
    path = track()
    assert [(s.lam, s.dlam_used) for s in path.samples] == [(w[0], w[2]) for w in want]
    for sample, w in zip(path.samples, want):
        assert abs(sample.eigenphase - w[1]) <= 1e-12
        u = full_floquet(cfg, sample.lam)
        resid = np.linalg.norm(u @ sample.state - np.exp(1j * sample.eigenphase) * sample.state)
        assert resid <= 1e-12
    return want, path


@settings(max_examples=60, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 2 * math.pi - 0.01), delta=st.floats(0.01, 2 * math.pi - 0.01),
       n_t=st.integers(1, 10), step=st.floats(0.01, 1.0), lam_end=st.floats(0.05, 2.0),
       excited=st.booleans(), with_stops=st.booleans())
# near-degenerate at the first trial: one solve reaches a 3.3e-13 residual
# on a mixture of the pair, and stopping there would accept a step that the
# oracle rejects; both must raise StepUnderflow
@example(omega=3.75, delta=1.0, n_t=2, step=1.0, lam_end=1.0, excited=True,
         with_stops=False)
def test_tracking_matches_schur_oracle(omega, delta, n_t, step, lam_end, excited, with_stops):
    cfg = ValidatedConfig(omega, delta, n_t=n_t)
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
        cfg = ValidatedConfig(omega, delta, n_t=n_t)
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
        cfg = reference_config(n_t=6)
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
        path = track_eigenstate(pgs_seed(18), base_cfg, lam_grid)
        assert schur.calls == 0
        assert [s.lam for s in path.samples] == [s.lam for s in pgs_path.samples]


    def test_reference_path_refines_in_at_most_three_solves(self, monkeypatch, pgs_path,
                                                            base_cfg, lam_grid):
        # cubic convergence reaches the roundoff floor within three solves;
        # a fourth would only show that the residual stopped halving
        solves, per_refinement = [0], []
        real_solve, real_refine = np.linalg.solve, qf._rayleigh_refine

        def solve(*args, **kwargs):
            solves[0] += 1
            return real_solve(*args, **kwargs)

        def refine(sub, vec):
            before = solves[0]
            out = real_refine(sub, vec)
            per_refinement.append(solves[0] - before)
            return out

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(qf, "_rayleigh_refine", refine)
        path = track_eigenstate(pgs_seed(18), base_cfg, lam_grid)
        assert [s.lam for s in path.samples] == [s.lam for s in pgs_path.samples]
        assert per_refinement and max(per_refinement) <= 3

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
        path = track_eigenstate(pgs_seed(18), base_cfg, lam_grid)
        odd = basis18.sector_indices("O").size
        assert len(shapes) >= len(path.samples) - 1
        assert set(shapes) == {(odd, odd)}
        assert [s.lam for s in path.samples] == [s.lam for s in pgs_path.samples]


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
