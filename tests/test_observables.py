import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt import (OutOfRange, SpinDirection,
                    Stability, TruncationLoss, approx_bifurcated_states,
                    build_basis, coherent_amplitudes, coherent_state,
                    curve_derivative, default_seeds, detection_probability,
                    entanglement_measures, find_fixed_points, husimi_on_section,
                    husimi_product_grid, husimi_values, log_negativity,
                    phase_space_expectations, reduced_density, section_peaks,
                    spin_state, von_neumann_entropy)
from kickjt import observables
from kickjt.observables import COHERENT_LOSS_TOL, state_tensor
from conftest import OMEGA, reference_config


@pytest.fixture(scope="module")
def basis6():
    return build_basis(6)


def random_state(rng, basis):
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return vec / np.linalg.norm(vec)


def pair_density_oracle(state):
    """Test oracle: the oscillator-pair reduced density matrix as the
    explicit outer product of the state tensor summed over the spin index,
    over the (n_x, n_y) grid, (n_t+1)^2 square."""
    psi = state_tensor(state)
    d = psi.shape[0]
    return np.einsum("abs,cds->abcd", psi, psi.conj()).reshape(d * d, d * d)


# spin up along z: the spinor is exactly (0, 1)
UP = SpinDirection(0.0, 0.0)


def kron_coherent_oracle(alpha_x, alpha_y, direction, n_t):
    """Test oracle: the normalised oscillator amplitudes kron the spinor, as
    coherent_state's callers built the full state by hand before it
    returned one."""
    amps, _ = coherent_amplitudes(alpha_x, alpha_y, n_t)
    return np.kron(np.asarray(amps / np.linalg.norm(amps), dtype=complex),
                   np.asarray(spin_state(direction), dtype=complex))


class TestCoherentStates:
    def test_vacuum(self, basis18):
        state = coherent_state(0.0, 0.0, UP, 18)
        k = basis18.index(0, 0, 1)
        assert abs(state[k] - 1.0) <= 1e-15
        assert np.sum(np.abs(state) > 0) == 1

    def test_overlap_identity(self):
        a = coherent_state(1.0, 0.0, UP, 18)
        b = coherent_state(0.0, 0.0, UP, 18)
        assert abs(np.vdot(b, a)) == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_truncation_guard(self):
        with pytest.raises(TruncationLoss) as err:
            coherent_state(math.sqrt(30.0), 0.0, UP, 18)
        assert err.value.loss >= COHERENT_LOSS_TOL

    def test_full_state_is_the_product_with_the_spinor(self):
        # 12 entries at n_t = 2: a full state, never an oscillator factor
        # whose length (6) would read as a full state at n_t = 1
        direction = SpinDirection(1.1, 0.4)
        state = coherent_state(0.01, 0.0, direction, 2)
        assert state.shape == (12,)
        oracle = kron_coherent_oracle(0.01, 0.0, direction, 2)
        assert state.tobytes() == oracle.tobytes()
        values = phase_space_expectations(state)
        assert values["q_y"] == 0.0
        assert values["q_x"] == pytest.approx(0.01 * math.sqrt(2), rel=1e-6)

    def test_reported_loss_matches_poisson_tail(self):
        _, loss = coherent_amplitudes(1.0, 1.0, 18)
        # two-mode coherent state: total phonon number is Poisson(2)
        from scipy.stats import poisson
        assert loss == pytest.approx(poisson.sf(18, 2.0), rel=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 30),
           r_x=st.just(0.0) | st.floats(1e-3, 3.0), phi_x=st.floats(-math.pi, math.pi),
           r_y=st.just(0.0) | st.floats(1e-3, 3.0), phi_y=st.floats(-math.pi, math.pi))
    def test_amplitudes_match_closed_form(self, n_t, r_x, phi_x, r_y, phi_y):
        # exp(-(|a_x|^2 + |a_y|^2)/2) a_x^n_x a_y^n_y / sqrt(n_x! n_y!)
        # entry by entry, against the cumulative products; |a| >= 1e-3 keeps
        # every power above the subnormal range, where neither side has
        # relative precision
        basis = build_basis(n_t)
        a_x, a_y = cmath.rect(r_x, phi_x), cmath.rect(r_y, phi_y)
        amps, _ = coherent_amplitudes(a_x, a_y, n_t)
        pref = math.exp(-(abs(a_x) ** 2 + abs(a_y) ** 2) / 2)
        closed = np.array([
            pref * a_x ** n_x * a_y ** n_y
            / math.sqrt(math.factorial(n_x) * math.factorial(n_y))
            for n_x, n_y in zip(basis.osc_nx, basis.osc_ny)])
        assert np.all(np.abs(amps - closed) <= 1e-13 * np.abs(closed))


class TestHusimi:
    def test_ground_state_gaussian(self, basis18):
        ground = basis18.basis_state(0, 0, -1)
        ax = np.array([0.3, 1 + 0.5j, 2.0])
        ay = np.array([-0.2, -0.3, 1.0j])
        expected = np.exp(-(np.abs(ax) ** 2 + np.abs(ay) ** 2))
        values = husimi_values(ground, ax, ay)
        assert np.max(np.abs(values - expected)) <= 1e-12

    def test_nonnegative_on_random_states(self, basis6):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = random_state(rng, basis6)
            ax = rng.normal(size=5) + 1j * rng.normal(size=5)
            ay = rng.normal(size=5) + 1j * rng.normal(size=5)
            assert np.all(husimi_values(state, ax, ay) >= -1e-12)

    def test_coherent_spin_state_peaks_at_own_point(self):
        alpha_x, alpha_y = 1.2 - 0.4j, -0.8 + 0.3j
        state = coherent_state(alpha_x, alpha_y, SpinDirection(1.0, 2.0), 18)
        peak = husimi_values(state, np.array([alpha_x]), np.array([alpha_y]))[0]
        assert peak == pytest.approx(1.0, abs=1e-6)
        rng = np.random.default_rng(3)
        ax = alpha_x + rng.normal(scale=0.8, size=50) + 1j * rng.normal(scale=0.8, size=50)
        ay = alpha_y + rng.normal(scale=0.8, size=50) + 1j * rng.normal(scale=0.8, size=50)
        assert np.all(husimi_values(state, ax, ay) <= peak + 1e-12)

    @pytest.mark.parametrize("n_x,n_y", [(3, 5), (5, 3), (1, 2), (0, 2), (11, 1)])
    def test_unpaired_amplitudes_refused(self, basis6, n_x, n_y):
        state = random_state(np.random.default_rng(4), basis6)
        with pytest.raises(ValueError, match=f"alphas_x has {n_x} points but alphas_y has {n_y}"):
            husimi_values(state, np.linspace(0.0, 1.0, n_x), np.linspace(0.0, 1.0, n_y))

    def test_chunks_do_not_change_the_values(self, basis6, monkeypatch):
        # 11 paired points in chunks of 4, so the last chunk is partial,
        # against the same points in one chunk
        rng = np.random.default_rng(6)
        state = random_state(rng, basis6)
        ax = rng.normal(size=11) + 1j * rng.normal(size=11)
        ay = rng.normal(size=11) + 1j * rng.normal(size=11)
        whole = husimi_values(state, ax, ay)
        monkeypatch.setattr(observables, "HUSIMI_CHUNK", 4)
        got = husimi_values(state, ax, ay)
        assert got.shape == (11,)
        assert np.array_equal(got, whole)

    def test_normalization_by_quadrature(self, pgs_path):
        state = pgs_path.sample_at(0.0).state
        grid = np.linspace(-5.0, 5.0, 21)
        re, im = np.meshgrid(grid, grid, indexing="ij")
        alphas = (re + 1j * im).ravel()
        values = husimi_product_grid(state, alphas, alphas)
        h = grid[1] - grid[0]
        integral = values.sum() * h ** 4 / math.pi ** 2
        assert integral == pytest.approx(1.0, abs=0.01)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 8), n_x=st.integers(1, 6), n_y=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_product_grid_matches_pointwise(self, n_t, n_x, n_y, seed):
        # the factorised tensor-grid contraction against the per-point
        # overlaps of husimi_values on the same meshgrid
        rng = np.random.default_rng(seed)
        basis = build_basis(n_t)
        state = random_state(rng, basis)
        ax = rng.normal(scale=1.5, size=n_x) + 1j * rng.normal(scale=1.5, size=n_x)
        ay = rng.normal(scale=1.5, size=n_y) + 1j * rng.normal(scale=1.5, size=n_y)
        grid = husimi_product_grid(state, ax, ay)
        mesh_x, mesh_y = np.meshgrid(ax, ay, indexing="ij")
        pointwise = husimi_values(state, mesh_x.ravel(), mesh_y.ravel())
        assert grid.shape == (n_x, n_y)
        assert np.max(np.abs(grid - pointwise.reshape(n_x, n_y))) <= 1e-12

    def test_section_unimodal_below_bifurcation(self, pgs_path):
        u = np.linspace(-6, 6, 161)
        values = husimi_on_section(pgs_path.sample_at(0.15).state, -math.tan(OMEGA / 2), u)
        peaks = section_peaks(values, u)
        assert len(peaks) == 1
        assert abs(peaks[0]) <= 0.1

    def test_section_bimodal_between_bifurcations(self, pgs_path):
        u = np.linspace(-6, 6, 161)
        values = husimi_on_section(pgs_path.sample_at(0.32).state, -math.tan(OMEGA / 2), u)
        peaks = section_peaks(values, u)
        assert len(peaks) == 2
        assert abs(abs(peaks[0]) - abs(peaks[1])) <= 0.05 * max(abs(peaks))


class TestReducedDensity:
    def test_product_state_spin_reduction_is_pure(self):
        state = coherent_state(0.7, -0.2, SpinDirection(0.0, 0.0), 18)
        rho = reduced_density(state, "spin")
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert eigs[0] == pytest.approx(0.0, abs=1e-10)

    def test_schmidt_pair_gives_maximally_mixed_spin(self, basis6):
        state = (basis6.basis_state(0, 0, 1) + basis6.basis_state(1, 0, -1)) / math.sqrt(2)
        rho = reduced_density(state, "spin")
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("keep", ["spin", "osc_x"])
    def test_trace_one_on_random_states(self, basis6, keep):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = reduced_density(random_state(rng, basis6), keep)
            assert np.array_equal(rho, rho.conj().T)
            assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_pair_tag_rejected(self, basis6):
        # the pair reduction exists only inside log_negativity
        with pytest.raises(ValueError, match="unknown subsystem tag"):
            reduced_density(basis6.basis_state(0, 0, -1), "osc_pair")

    def test_unnormalised_state_rejected(self, basis6):
        with pytest.raises(ValueError, match="trace"):
            reduced_density(2.0 * basis6.basis_state(0, 0, -1), "spin")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_complementary_reductions_share_entropy(self, n_t, seed):
        # Schmidt: for a pure joint state the spin and the oscillator pair
        # carry the same entropy
        basis = build_basis(n_t)
        state = random_state(np.random.default_rng(seed), basis)
        s_spin = von_neumann_entropy(reduced_density(state, "spin"))
        s_pair = von_neumann_entropy(pair_density_oracle(state))
        assert abs(s_spin - s_pair) <= 1e-9
        assert von_neumann_entropy(reduced_density(state, "osc_x")) >= 0


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(0.811278, abs=1e-6)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(6))
        rho = np.diag(probs).astype(complex)
        s0 = von_neumann_entropy(rho)
        for _ in range(5):
            z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            q, _ = np.linalg.qr(z)
            assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(s0, abs=1e-10)

    def test_zero_iff_pure(self, basis6):
        rng = np.random.default_rng(8)
        pure = reduced_density(coherent_state(0.4, 0.1, SpinDirection(1.2, 0.3), 6), "spin")
        assert np.real(np.trace(pure @ pure)) == pytest.approx(1.0, abs=1e-10)
        assert von_neumann_entropy(pure) <= 1e-9
        mixed = reduced_density(random_state(rng, basis6), "spin")
        if np.real(np.trace(mixed @ mixed)) < 1.0 - 1e-6:
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
    """Test oracle: log2 of the trace norm of the whole partial transpose of
    a pair density matrix over osc_x or osc_y, one eigvalsh of the full
    matrix, clamped at zero."""
    d = int(round(math.sqrt(rho.shape[0])))
    axes = (2, 1, 0, 3) if transpose_over == "osc_x" else (0, 3, 2, 1)
    pt = np.transpose(rho.reshape(d, d, d, d), axes).reshape(d * d, d * d)
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
        # even n only in each mode factor: n_x + n_y is even throughout, so
        # the product is parity pure
        even_n = np.array([1.0, 0.0, 1.0, 0.0])
        state = exact_mode_product(basis6, short_coherent_amps(0.5, 3) * even_n,
                                   short_coherent_amps(-0.3, 3) * even_n)
        assert log_negativity(state) <= 1e-10

    def test_two_mode_bell_like_state(self, basis6):
        state = (basis6.basis_state(0, 0, -1) + basis6.basis_state(1, 1, -1)) / math.sqrt(2)
        assert log_negativity(state) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_t=st.integers(0, 10), sector=st.sampled_from(["O", "E"]),
           seed=st.integers(0, 2**32 - 1))
    def test_parity_pure_states_take_the_blocks(self, n_t, sector, seed):
        basis = build_basis(n_t)
        state = parity_pure_state(np.random.default_rng(seed), basis, sector)
        sizes, value = eigvalsh_sizes(log_negativity, state)
        d2 = (n_t + 1) ** 2
        assert sizes == [(d2 + 1) // 2, d2 // 2]
        rho = pair_density_oracle(state)
        for transpose_over in ("osc_x", "osc_y"):
            assert abs(value - full_log_negativity(rho, transpose_over)) <= 1e-13

    @pytest.mark.parametrize("n_t", [0, 1, 4, 18])
    def test_gather_reads_the_partial_transpose_blocks(self, n_t):
        # the cached flat indices pick, entry for entry, the grade blocks of
        # the transposed copy of the pair product
        d = n_t + 1
        rng = np.random.default_rng(n_t)
        prod = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        pt = prod.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
        grade = np.add.outer(np.arange(d), np.arange(d)).ravel() % 2
        even, odd = np.flatnonzero(grade == 0), np.flatnonzero(grade == 1)
        gathered = observables._partial_transpose_gather(d)
        assert len(gathered) == 2
        for idx, rows in zip(gathered, [even, odd]):
            assert np.array_equal(prod.ravel().take(idx), pt[np.ix_(rows, rows)])
            assert not idx.flags.writeable
        assert observables._partial_transpose_gather(d) is gathered

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n_t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_state_that_is_not_parity_pure_rejected(self, n_t, seed):
        basis = build_basis(n_t)
        state = random_state(np.random.default_rng(seed), basis)
        with pytest.raises(ValueError, match="not parity pure"):
            log_negativity(state)

    def test_state_that_is_not_normalised_rejected(self, basis6):
        # at norm^2 100 the O leakage of this mixed-sector state reads -49,
        # which a purity test alone would pass
        state = 10 * (basis6.basis_state(0, 0, -1) + basis6.basis_state(0, 0, 1)) / math.sqrt(2)
        with pytest.raises(ValueError, match=r"^state norm\^2 (\S+) differs from 1$") as err:
            log_negativity(state)
        assert float(err.value.args[0].split()[2]) == pytest.approx(100.0, rel=1e-12)
        with pytest.raises(ValueError, match="not parity pure"):
            log_negativity(state / 10)


class TestEntanglementMeasures:
    def test_reaches_each_layer_through_the_module(self, monkeypatch, basis6):
        # the per-layer benchmark tracer wraps these module attributes, so
        # entanglement_measures must call them through the module
        calls = {"reduced_density": 0, "von_neumann_entropy": 0, "log_negativity": 0}
        for name in calls:
            real = getattr(observables, name)

            def spy(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(observables, name, spy)
        state = parity_pure_state(np.random.default_rng(11), basis6, "O")
        triple = observables.entanglement_measures(state)
        assert calls == {"reduced_density": 2, "von_neumann_entropy": 2, "log_negativity": 1}
        assert isinstance(triple, tuple) and len(triple) == 3


@pytest.fixture()
def approx_pair(census_032):
    stable = [fp for fp in census_032
              if fp.classification is Stability.STABLE and fp.point[0] > 0]
    return stable[0], approx_bifurcated_states(stable[0], 18)


class TestApproxBifurcatedStates:

    def test_definite_opposite_parities(self, approx_pair, basis18):
        _, (psi_g, psi_e) = approx_pair
        par = basis18.parity
        assert np.max(np.abs(par * psi_g + psi_g)) <= 1e-8
        assert np.max(np.abs(par * psi_e - psi_e)) <= 1e-8

    def test_orthogonal_combinations(self, approx_pair):
        _, (psi_g, psi_e) = approx_pair
        assert abs(np.vdot(psi_g, psi_e)) <= 1e-8

    def test_even_combination_recovers_localised_product(self, approx_pair):
        fp, (psi_g, psi_e) = approx_pair
        combo = psi_g + psi_e
        combo /= np.linalg.norm(combo)
        q_x, q_y, p_x, p_y, s_x, s_y, s_z = fp.point.tolist()
        alpha_x = (q_x + 1j * p_x) / math.sqrt(2)
        alpha_y = (q_y + 1j * p_y) / math.sqrt(2)
        direction = SpinDirection.from_spin_vector(s_x, s_y, s_z)
        localised = coherent_state(alpha_x, alpha_y, direction, 18)
        assert abs(np.vdot(localised, combo)) == pytest.approx(1.0, abs=1e-6)

    def test_bit_identical_to_the_kron_products(self, census_032, census_050):
        # the odd and even combinations of the hand-built products, at every
        # off-axis fixed point of both censuses; the outer islands at 0.50
        # (|alpha|^2 = 10.6) need n_t = 40 to stay within the truncation
        off_axis = [(fp, n_t) for census, n_t in ((census_032, 18), (census_050, 40))
                    for fp in census if np.any(fp.point[:4])]
        assert len(off_axis) == 6
        for fp, n_t in off_axis:
            q_x, q_y, p_x, p_y, s_x, s_y, s_z = fp.point.tolist()
            alpha_x = (q_x + 1j * p_x) / math.sqrt(2.0)
            alpha_y = (q_y + 1j * p_y) / math.sqrt(2.0)
            direction = SpinDirection.from_spin_vector(s_x, s_y, s_z)
            plus = kron_coherent_oracle(alpha_x, alpha_y, direction, n_t)
            minus = kron_coherent_oracle(-alpha_x, -alpha_y,
                                         direction.antipodal_azimuth(), n_t)
            got = approx_bifurcated_states(fp, n_t)
            for combo, state in zip((plus - minus, plus + minus), got):
                assert state.tobytes() == (combo / np.linalg.norm(combo)).tobytes()

    def test_on_axis_fixed_points_rejected(self, census_015):
        # below lambda_b1 the census holds only the two trivial points, the
        # oscillator origin with the spin at either pole; each is its own
        # parity image, so one combination vanishes (the even one to 1.7e-16
        # at the lower pole, the odd one exactly at the upper)
        assert len(census_015) == 2
        for fp, name in zip(sorted(census_015, key=lambda fp: fp.point[6]),
                            ("even", "odd")):
            assert not np.any(fp.point[:4])
            with pytest.raises(ValueError, match=f"the {name} combination at the fixed point "
                                                 r"\(0\.0, 0\.0, 0\.0, 0\.0, 0\.0, 0\.0, "):
                approx_bifurcated_states(fp, 18)

    def test_both_combinations_take_the_entanglement_measures(self):
        # between the bifurcations both combinations carry a sector leakage
        # at roundoff level (about 4e-16), which parity_sector accepts, so
        # they go through the block negativity; it matches the full partial
        # transpose
        cfg = reference_config()
        stable = [fp for fp in find_fixed_points(cfg, default_seeds(cfg), [0.42])
                  if fp.classification is Stability.STABLE and fp.point[0] > 0]
        states = approx_bifurcated_states(stable[0], 26)
        for state, expected in zip(states, (0.738920, 0.740234)):
            e_n = entanglement_measures(state)[2]
            assert e_n == pytest.approx(expected, abs=5e-7)
            assert abs(e_n - full_log_negativity(pair_density_oracle(state), "osc_x")) <= 1e-12

    def test_truncation_guard_propagates(self, census_032):
        stable = [fp for fp in census_032 if fp.classification is Stability.STABLE]
        with pytest.raises(TruncationLoss):
            approx_bifurcated_states(stable[0], 2)


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
        with pytest.raises(ValueError, match="need >= 3 points, got 2"):
            curve_derivative([0.0, 0.1], [1.0, 2.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            curve_derivative([0.0, 0.2, 0.1], [1.0, 2.0, 3.0])
