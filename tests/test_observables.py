import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt import (DensityMatrix, GridTooSmall, OutOfRange, SpinDirection,
                    Stability, TruncationLoss, approx_bifurcated_states,
                    build_basis, coherent_amplitudes, coherent_state,
                    curve_derivative, detection_probability,
                    diagonal_line_section, husimi, husimi_on_section,
                    husimi_product_grid, log_negativity, plane_section,
                    product_state, reduced_density, section_peaks, spin_state,
                    von_neumann_entropy)
from kickjt.observables import COHERENT_LOSS_TOL, state_tensor
from conftest import OMEGA


@pytest.fixture(scope="module")
def basis6():
    return build_basis(6)


def random_state(rng, basis):
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return vec / np.linalg.norm(vec)


class TestCoherentStates:
    def test_vacuum(self, basis18):
        state = coherent_state(0.0, 0.0, basis18)
        k = basis18.osc_index(0, 0)
        assert abs(state.vector[k] - 1.0) <= 1e-15
        assert np.sum(np.abs(state.vector) > 0) == 1

    def test_overlap_identity(self, basis18):
        a = coherent_state(1.0, 0.0, basis18)
        b = coherent_state(0.0, 0.0, basis18)
        assert abs(np.vdot(b.vector, a.vector)) == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_truncation_guard(self, basis18):
        with pytest.raises(TruncationLoss) as err:
            coherent_state(math.sqrt(30.0), 0.0, basis18)
        assert err.value.loss >= COHERENT_LOSS_TOL

    def test_reported_loss_matches_poisson_tail(self, basis18):
        _, loss = coherent_amplitudes(1.0, 1.0, basis18)
        # two-mode coherent state: total phonon number is Poisson(2)
        from scipy.stats import poisson
        assert loss == pytest.approx(poisson.sf(18, 2.0), rel=1e-6)


class TestHusimi:
    def test_ground_state_gaussian(self, basis18):
        ground = basis18.basis_state(0, 0, -1)
        for ax, ay in ((0.3, -0.2), (1 + 0.5j, -0.3), (2.0, 1.0j)):
            expected = math.exp(-(abs(ax) ** 2 + abs(ay) ** 2))
            assert husimi(ground, ax, ay, basis18) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_states(self, basis6):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = random_state(rng, basis6)
            value = husimi(state, rng.normal() + 1j * rng.normal(),
                           rng.normal() + 1j * rng.normal(), basis6)
            assert value >= -1e-12

    def test_coherent_spin_state_peaks_at_own_point(self, basis18):
        alpha_x, alpha_y = 1.2 - 0.4j, -0.8 + 0.3j
        state = product_state(coherent_state(alpha_x, alpha_y, basis18),
                              spin_state(SpinDirection(1.0, 2.0)))
        peak = husimi(state, alpha_x, alpha_y, basis18)
        assert peak == pytest.approx(1.0, abs=1e-6)
        rng = np.random.default_rng(3)
        for _ in range(50):
            off = husimi(state, alpha_x + rng.normal(scale=0.8) + 1j * rng.normal(scale=0.8),
                         alpha_y + rng.normal(scale=0.8) + 1j * rng.normal(scale=0.8), basis18)
            assert off <= peak + 1e-12

    def test_normalization_by_quadrature(self, pgs_path, basis18):
        state = pgs_path.sample_at(0.0).state
        grid = np.linspace(-5.0, 5.0, 21)
        re, im = np.meshgrid(grid, grid, indexing="ij")
        alphas = (re + 1j * im).ravel()
        values = husimi_product_grid(state, basis18, alphas, alphas)
        h = grid[1] - grid[0]
        integral = values.sum() * h ** 4 / math.pi ** 2
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_product_grid_matches_pointwise(self, basis6):
        rng = np.random.default_rng(4)
        state = random_state(rng, basis6)
        ax = np.array([0.3 + 0.1j, -0.5])
        ay = np.array([0.2j, 1.0, -0.4 + 0.2j])
        grid = husimi_product_grid(state, basis6, ax, ay)
        for i, a in enumerate(ax):
            for j, b in enumerate(ay):
                assert grid[i, j] == pytest.approx(husimi(state, a, b, basis6), abs=1e-12)

    def test_section_unimodal_below_bifurcation(self, pgs_path, basis18):
        u = np.linspace(-6, 6, 161)
        section = diagonal_line_section(-math.tan(OMEGA / 2))
        values = husimi_on_section(pgs_path.sample_at(0.15).state, basis18,
                                   section, u).values
        peaks = section_peaks(values, u)
        assert len(peaks) == 1
        assert abs(peaks[0]) <= 0.1

    def test_section_bimodal_between_bifurcations(self, pgs_path, basis18):
        u = np.linspace(-6, 6, 161)
        section = diagonal_line_section(-math.tan(OMEGA / 2))
        values = husimi_on_section(pgs_path.sample_at(0.32).state, basis18,
                                   section, u).values
        peaks = section_peaks(values, u)
        assert len(peaks) == 2
        assert abs(abs(peaks[0]) - abs(peaks[1])) <= 0.05 * max(abs(peaks))


class TestReducedDensity:
    def test_product_state_spin_reduction_is_pure(self, basis18):
        state = product_state(coherent_state(0.7, -0.2, basis18),
                              spin_state(SpinDirection(0.0, 0.0)))
        rho = reduced_density(state, "spin", basis18)
        eigs = np.sort(rho.eigenvalues())
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert eigs[0] == pytest.approx(0.0, abs=1e-10)

    def test_schmidt_pair_gives_maximally_mixed_spin(self, basis6):
        state = (basis6.basis_state(0, 0, 1) + basis6.basis_state(1, 0, -1)) / math.sqrt(2)
        rho = reduced_density(state, "spin", basis6)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("keep", ["spin", "osc_x", "osc_y", "osc_pair", "spin_osc_x"])
    def test_trace_one_on_random_states(self, basis6, keep):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = reduced_density(random_state(rng, basis6), keep, basis6)
            assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-10)
            assert np.min(rho.eigenvalues()) >= -1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_osc_pair_matches_outer_product_oracle(self, n_t, seed):
        # the GEMM partial trace against the explicit outer product summed
        # over the spin index
        basis = build_basis(n_t)
        state = random_state(np.random.default_rng(seed), basis)
        d = n_t + 1
        psi = state_tensor(state, basis)
        oracle = np.einsum("abs,cds->abcd", psi, psi.conj()).reshape(d * d, d * d)
        rho = reduced_density(state, "osc_pair", basis)
        assert rho.matrix.shape == (d * d, d * d)
        assert np.max(np.abs(rho.matrix - oracle)) <= 1e-15

    def test_complementary_reductions_share_entropy(self, basis6):
        rng = np.random.default_rng(6)
        state = random_state(rng, basis6)
        s_x = von_neumann_entropy(reduced_density(state, "osc_x", basis6))
        s_rest = von_neumann_entropy(reduced_density(state, "spin_osc_x", basis6))
        # osc_y carries the same entanglement with the rest as (spin, osc_x)
        s_y = von_neumann_entropy(reduced_density(state, "osc_y", basis6))
        assert s_y == pytest.approx(s_rest, abs=1e-9)
        assert s_x >= 0 and s_rest >= 0


class TestEntropy:
    def test_pure_state_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), "spin")
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, "spin")
        assert von_neumann_entropy(rho, base=2) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), "spin")
        assert von_neumann_entropy(rho, base=2) == pytest.approx(0.811278, abs=1e-6)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(6))
        rho = np.diag(probs).astype(complex)
        s0 = von_neumann_entropy(DensityMatrix(rho, "osc_x"))
        for _ in range(5):
            z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            q, _ = np.linalg.qr(z)
            rotated = DensityMatrix(q @ rho @ q.conj().T, "osc_x")
            assert von_neumann_entropy(rotated) == pytest.approx(s0, abs=1e-10)

    def test_zero_iff_pure(self, basis6):
        rng = np.random.default_rng(8)
        pure = reduced_density(product_state(coherent_state(0.4, 0.1, basis6),
                                             spin_state(SpinDirection(1.2, 0.3))),
                               "spin", basis6)
        assert pure.purity() == pytest.approx(1.0, abs=1e-10)
        assert von_neumann_entropy(pure) <= 1e-9
        mixed = reduced_density(random_state(rng, basis6), "spin", basis6)
        if mixed.purity() < 1.0 - 1e-6:
            assert von_neumann_entropy(mixed) > 1e-6


def exact_mode_product(basis, gx, gy):
    """Full-basis pure state whose oscillator factor is an exact tensor
    product: per-mode supports are confined to n <= n_t/2 so the total
    number cutoff never correlates the modes."""
    half = basis.n_t // 2
    assert len(gx) <= half + 1 and len(gy) <= half + 1
    vec = np.zeros(basis.dim, dtype=complex)
    for nx, cx in enumerate(gx):
        for ny, cy in enumerate(gy):
            vec[basis.index(nx, ny, -1)] = cx * cy
    return vec / np.linalg.norm(vec)


def short_coherent_amps(alpha, n_max):
    out = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(n_max + 1)])
    return out / np.linalg.norm(out)


def full_log_negativity(rho, transpose_over):
    """Test oracle: log2 of the trace norm of the whole partial transpose,
    one eigvalsh of the full matrix, clamped at zero."""
    d = int(round(math.sqrt(rho.dim)))
    axes = (2, 1, 0, 3) if transpose_over == "osc_x" else (0, 3, 2, 1)
    pt = np.transpose(rho.matrix.reshape(d, d, d, d), axes).reshape(d * d, d * d)
    return max(math.log2(float(np.sum(np.abs(np.linalg.eigvalsh(pt))))), 0.0)


def parity_pure_state(rng, basis, sector):
    """Random normalised state supported on one parity sector."""
    idx = basis.sector_indices(sector)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    return vec / np.linalg.norm(vec)


def eigvalsh_sizes(fn, *args):
    """fn(*args) and the orders of the matrices it passed to eigvalsh."""
    sizes = []
    real = np.linalg.eigvalsh

    def spy(mat):
        sizes.append(mat.shape[0])
        return real(mat)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", spy)
        value = fn(*args)
    return sizes, value


class TestLogNegativity:
    def test_product_state_zero(self, basis6):
        state = exact_mode_product(basis6, short_coherent_amps(0.5, 3),
                                   short_coherent_amps(-0.3, 3))
        rho = reduced_density(state, "osc_pair", basis6)
        assert log_negativity(rho) <= 1e-10

    def test_two_mode_bell_like_state(self, basis6):
        state = (basis6.basis_state(0, 0, -1) + basis6.basis_state(1, 1, -1)) / math.sqrt(2)
        rho = reduced_density(state, "osc_pair", basis6)
        assert log_negativity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_transpose_side_irrelevant(self, basis6):
        rng = np.random.default_rng(9)
        state = random_state(rng, basis6)
        rho = reduced_density(state, "osc_pair", basis6)
        a = log_negativity(rho, transpose_over="osc_x")
        b = log_negativity(rho, transpose_over="osc_y")
        assert abs(a - b) <= 1e-12

    def test_separable_mixtures_have_zero_negativity(self, basis6):
        rng = np.random.default_rng(10)
        d = basis6.n_t + 1
        for _ in range(5):
            weights = rng.dirichlet(np.ones(4))
            rho = np.zeros((d * d, d * d), dtype=complex)
            for w in weights:
                ax, ay = rng.normal(scale=0.7, size=2)
                product = exact_mode_product(basis6, short_coherent_amps(ax, 3),
                                             short_coherent_amps(ay, 3))
                rho_w = reduced_density(product, "osc_pair", basis6).matrix
                rho += w * rho_w
            mixture = DensityMatrix(rho, "osc_pair")
            assert log_negativity(mixture) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 10), sector=st.sampled_from(["O", "E"]),
           transpose_over=st.sampled_from(["osc_x", "osc_y"]),
           seed=st.integers(0, 2**32 - 1))
    def test_parity_pure_states_take_the_blocks(self, n_t, sector, transpose_over, seed):
        basis = build_basis(n_t)
        rho = reduced_density(parity_pure_state(np.random.default_rng(seed), basis, sector),
                              "osc_pair", basis)
        sizes, value = eigvalsh_sizes(log_negativity, rho, transpose_over)
        d2 = (n_t + 1) ** 2
        assert sizes == [(d2 + 1) // 2, d2 // 2]
        assert abs(value - full_log_negativity(rho, transpose_over)) <= 1e-13

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n_t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_ungraded_density_matrix_takes_the_full_path(self, n_t, seed):
        d2 = (n_t + 1) ** 2
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        rho_mat = g @ g.conj().T
        rho = DensityMatrix(rho_mat / np.trace(rho_mat).real, "osc_pair")
        sizes, value = eigvalsh_sizes(log_negativity, rho, "osc_x")
        assert sizes == [d2]
        assert abs(value - full_log_negativity(rho, "osc_x")) <= 1e-13

    def test_requires_pair_subsystem(self, basis6):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, "spin")
        with pytest.raises(ValueError):
            log_negativity(rho)


@pytest.fixture()
def approx_pair(census_032, basis18):
    stable = [fp for fp in census_032
              if fp.classification is Stability.STABLE and fp.point.osc.q_x > 0]
    return stable[0], approx_bifurcated_states(stable[0], basis18)


class TestApproxBifurcatedStates:

    def test_definite_opposite_parities(self, approx_pair, basis18):
        _, (psi_g, psi_e) = approx_pair
        par = basis18.parity
        assert np.max(np.abs(par * psi_g.vector + psi_g.vector)) <= 1e-8
        assert np.max(np.abs(par * psi_e.vector - psi_e.vector)) <= 1e-8

    def test_orthogonal_combinations(self, approx_pair):
        _, (psi_g, psi_e) = approx_pair
        assert abs(np.vdot(psi_g.vector, psi_e.vector)) <= 1e-8

    def test_even_combination_recovers_localised_product(self, approx_pair, basis18):
        fp, (psi_g, psi_e) = approx_pair
        combo = psi_g.vector + psi_e.vector
        combo /= np.linalg.norm(combo)
        o = fp.point.osc
        alpha_x = (o.q_x + 1j * o.p_x) / math.sqrt(2)
        alpha_y = (o.q_y + 1j * o.p_y) / math.sqrt(2)
        direction = SpinDirection.from_spin_vector(fp.point.spin)
        localised = product_state(coherent_state(alpha_x, alpha_y, basis18),
                                  spin_state(direction))
        assert abs(np.vdot(localised, combo)) == pytest.approx(1.0, abs=1e-6)

    def test_truncation_guard_propagates(self, census_032):
        tiny = build_basis(2)
        stable = [fp for fp in census_032 if fp.classification is Stability.STABLE]
        with pytest.raises(TruncationLoss):
            approx_bifurcated_states(stable[0], tiny)


class TestDetectionProbability:
    def test_antialigned_spin_gives_zero(self):
        # cos(pi/2) in floats is ~6e-17, so the closed form lands at ~4e-33
        assert detection_probability(math.pi, 3.0, 1.0) == pytest.approx(0.0, abs=1e-30)

    def test_vacuum_amplitudes_give_zero(self):
        assert detection_probability(1.0, 0.0, 0.0) == 0.0

    def test_saturation(self):
        assert detection_probability(0.0, 10.0, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_angle_range_enforced(self):
        with pytest.raises(OutOfRange):
            detection_probability(3.5, 1.0, 1.0)

    def test_closed_form(self):
        theta, ax, ay = 1.1, 0.8, -0.6
        expected = math.cos(theta / 2) ** 2 * (1 - math.exp(-2 * ax ** 2 - 2 * ay ** 2))
        assert detection_probability(theta, ax, ay) == pytest.approx(expected, abs=1e-15)


class TestCurveDerivative:
    def test_constant_series(self):
        lams = np.linspace(0, 1, 11)
        deriv = curve_derivative(lams, np.full(11, 2.5))
        assert np.all(deriv == 0.0)

    def test_quadratic_exact_on_interior(self):
        lams = np.linspace(0, 1, 11)
        deriv = curve_derivative(lams, lams ** 2)
        assert np.allclose(deriv[1:-1], 2 * lams[1:-1], atol=1e-12)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            curve_derivative([0.0, 0.1], [1.0, 2.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            curve_derivative([0.0, 0.2, 0.1], [1.0, 2.0, 3.0])
