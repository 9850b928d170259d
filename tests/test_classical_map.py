import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt import (KickJTError, NonFiniteState, Stability, SubMap,
                    ValidatedConfig, composed_step, default_seeds,
                    find_fixed_points, inverse_step, jacobian_canonical,
                    spin_rotation_matrix, step_arrays, step_jacobian, submap)
from kickjt.bifurcation import _CHART_AXES, _chart_jacobian, _from_chart
from kickjt.classical_map import from_canonical, to_canonical
from conftest import REFERENCE_LAM, reference_config

RNG_SEED = 20240915
TWO_PI = 2 * math.pi


def spin(phi, s_z):
    """Spin of azimuth phi and axial component s_z on the radius-1/2 sphere."""
    r = math.sqrt(max(0.25 - s_z * s_z, 0.0))
    return (r * math.cos(phi), r * math.sin(phi), s_z)


def point(q_x=0.0, q_y=0.0, p_x=0.0, p_y=0.0, s=(0.0, 0.0, -0.5)):
    return np.array([q_x, q_y, p_x, p_y, *s], dtype=float)


def random_point(rng, z_max=0.5):
    q = rng.uniform(-2, 2, size=4)
    s_z = rng.uniform(-z_max, z_max)
    phi = rng.uniform(0, 2 * math.pi)
    return np.array([*q, *spin(phi, s_z)])


def random_off_equator_point(rng):
    """Random point with 0.05 <= |s_z| <= 0.45, where central differences
    in both spin charts are accurate to 1e-6."""
    s_z = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.45)
    q = rng.uniform(-2, 2, size=4)
    return np.array([*q, *spin(rng.uniform(0, 2 * math.pi), s_z)])


def random_params(rng):
    """(config, coupling) with omega, delta and lam drawn in that order."""
    cfg = ValidatedConfig(rng.uniform(0.02, 1.0), rng.uniform(0.1, 2.5))
    return cfg, rng.uniform(0.0, 0.6)


def max_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


# (config, coupling) over the whole valid range of the angles and couplings
# up to 2, and points with |q|, |p| <= 2 anywhere on the spin sphere
configs = st.tuples(
    st.builds(ValidatedConfig,
              st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True),
              st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True)),
    st.floats(0.0, 2.0))


@st.composite
def phase_points(draw):
    q = [draw(st.floats(-2.0, 2.0)) for _ in range(4)]
    return np.array([*q, *spin(draw(st.floats(0.0, TWO_PI)), draw(st.floats(-0.5, 0.5)))])


def central_difference(f, x, h=1e-6):
    """Finite-difference oracle for the exact Jacobians: column j is
    (f(x + h e_j) - f(x - h e_j)) / 2h."""
    cols = []
    for j in range(x.size):
        step_j = np.zeros_like(x)
        step_j[j] = h
        cols.append((f(x + step_j) - f(x - step_j)) / (2.0 * h))
    return np.column_stack(cols)


class TestPointChecks:
    """Caller points enter through the Newton seeds and the canonical chart,
    which check them; step_arrays, the hot path, does not."""

    def test_radius_enforced(self):
        cfg = reference_config()
        off = point(s=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match=r"seed 0 .*spin norm\^2 = 0\.75"):
            find_fixed_points(cfg, [off], [REFERENCE_LAM])
        with pytest.raises(ValueError, match=r"point .*spin norm\^2 = 0\.75"):
            to_canonical(off)
        with pytest.raises(ValueError, match="spin norm"):
            jacobian_canonical(off, cfg, REFERENCE_LAM)
        # one seed 2e-9 off the sphere among the default seeds is named by its index
        seeds = default_seeds(cfg)
        seeds[5, 6] *= 1.0 + 2e-9 / (2 * seeds[5, 6] ** 2)
        with pytest.raises(ValueError, match="seed 5 "):
            find_fixed_points(cfg, seeds, [REFERENCE_LAM])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_raise_package_error(self, bad):
        cfg = reference_config()
        seeds = default_seeds(cfg)
        seeds[3, 5] = bad
        with pytest.raises(NonFiniteState, match="seed 3 .*s_y"):
            find_fixed_points(cfg, seeds, [REFERENCE_LAM])
        with pytest.raises(NonFiniteState, match="p_x"):
            to_canonical(point(p_x=bad, s=(0.5, 0.0, 0.0)))
        with pytest.raises(NonFiniteState, match="p_x"):
            jacobian_canonical(point(p_x=bad, s=(0.5, 0.0, 0.0)), cfg, REFERENCE_LAM)
        assert issubclass(NonFiniteState, KickJTError)

    def test_from_canonical(self):
        x = from_canonical((0.0, 0.0, 0.0, 0.0, math.pi / 2, 0.3))
        assert x[4] == pytest.approx(0.0, abs=1e-15)
        assert x[5] == pytest.approx(math.sqrt(0.25 - 0.09))
        assert np.linalg.norm(x[4:]) == pytest.approx(0.5)


class TestSubmaps:
    def test_harmonic_quarter_turn(self):
        cfg = ValidatedConfig(math.pi / 2, 1.0)
        out = submap(SubMap.HARMONIC, point(q_x=1.0), cfg, 0.0)
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[2] == pytest.approx(-1.0)

    def test_harmonic_rotates_spin_about_z(self):
        cfg = ValidatedConfig(0.3, math.pi / 2)
        out = submap(SubMap.HARMONIC, point(s=(0.5, 0.0, 0.0)), cfg, 0.0)
        assert out[4] == pytest.approx(0.0, abs=1e-15)
        assert out[5] == pytest.approx(0.5)
        assert out[6] == 0.0

    def test_kick_x_identity_at_zero_coupling(self):
        cfg = ValidatedConfig(0.3, 1.0)
        state = point(q_x=1.2, p_y=-0.7, s=(0.1, 0.2, math.sqrt(0.25 - 0.05)))
        assert max_diff(submap(SubMap.KICK_X, state, cfg, 0.0), state) == 0.0

    def test_kick_y_momentum_shift(self):
        cfg = ValidatedConfig(0.3, 1.0)
        state = point(s=(0.0, 0.5, 0.0))
        out = submap(SubMap.KICK_Y, state, cfg, 0.32)
        assert out[3] == pytest.approx(-0.16)
        assert out[0] == out[1] == out[2] == 0.0
        assert tuple(out[4:]) == (0.0, 0.5, 0.0)


class TestStep:
    def test_trivial_fixed_point(self):
        cfg = ValidatedConfig(math.pi / 60, 2 * math.atan(0.5))
        state = point()
        assert max_diff(step_arrays(state, cfg, 0.0), state) == 0.0
        assert max_diff(step_arrays(state, cfg, 0.32), state) == 0.0

    def test_zero_coupling_decouples(self):
        cfg = ValidatedConfig(0.4, 0.9)
        state = point(q_x=1.0, q_y=-0.5, p_x=0.2, p_y=0.3, s=spin(1.1, 0.2))
        out = step_arrays(state, cfg, 0.0)
        cw, sw = math.cos(0.4), math.sin(0.4)
        assert out[0] == pytest.approx(0.2 * sw + 1.0 * cw)
        assert out[2] == pytest.approx(0.2 * cw - 1.0 * sw)
        assert out[1] == pytest.approx(0.3 * sw - 0.5 * cw)
        phi = math.atan2(out[5], out[4])
        assert phi == pytest.approx(1.1 + 0.9)
        assert out[6] == pytest.approx(0.2)

    def test_matches_submap_composition_on_reference_state(self):
        cfg, lam = reference_config(), REFERENCE_LAM
        state = point(q_x=1.0, q_y=-0.5, s=(0.3, 0.2, math.sqrt(0.25 - 0.13)))
        assert max_diff(step_arrays(state, cfg, lam), composed_step(state, cfg, lam)) <= 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(params=configs, state=phase_points())
    def test_matches_submap_composition_randomized(self, params, state):
        cfg, lam = params
        assert max_diff(step_arrays(state, cfg, lam), composed_step(state, cfg, lam)) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=configs, state=phase_points())
    def test_spin_norm_conserved_per_step(self, params, state):
        out = step_arrays(state, *params)
        assert abs(np.linalg.norm(out[4:]) - 0.5) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=configs, state=phase_points())
    def test_reversibility(self, params, state):
        assert max_diff(inverse_step(step_arrays(state, *params), *params), state) <= 1e-9


class TestSpinRotationMatrix:
    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(50):
            cfg, lam = random_params(rng)
            mat = spin_rotation_matrix(rng.uniform(-3, 3), rng.uniform(-3, 3), cfg, lam)
            assert np.max(np.abs(mat @ mat.T - np.eye(3))) <= 1e-12
            assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)

    def test_acts_in_step(self):
        cfg = reference_config()
        state = point(q_x=0.7, q_y=-1.2, s=spin(0.4, -0.1))
        out = step_arrays(state, cfg, REFERENCE_LAM)
        expected = spin_rotation_matrix(0.7, -1.2, cfg, REFERENCE_LAM) @ state[4:]
        assert np.max(np.abs(out[4:] - expected)) <= 1e-14


def orbit(state, n: int, cfg, lam) -> list[np.ndarray]:
    """The state and its n images under step_arrays at lam, in order."""
    points = [state]
    for _ in range(n):
        points.append(step_arrays(points[-1], cfg, lam))
    return points


class TestIterate:
    def test_zero_iterations(self):
        cfg = reference_config()
        state = point(q_x=1.0)
        traj = orbit(state, 0, cfg, REFERENCE_LAM)
        assert len(traj) == 1 and traj[0] is state

    def test_oscillator_period_at_zero_coupling(self):
        cfg = ValidatedConfig(math.pi / 60, 2 * math.atan(0.5))
        state = point(q_x=1.3, q_y=-0.4, p_x=0.2, p_y=0.9, s=spin(0.3, 0.1))
        traj = orbit(state, 120, cfg, 0.0)
        end = traj[120]
        assert np.max(np.abs(end[:4] - state[:4])) <= 1e-9

    def test_orbit_stays_at_stable_fixed_point(self, census_032):
        cfg = reference_config()
        stable = [fp for fp in census_032
                  if fp.classification is Stability.STABLE and fp.point[0] > 0]
        fp = stable[0]
        traj = orbit(fp.point, 200, cfg, REFERENCE_LAM)
        for state in traj:
            assert max_diff(state, fp.point) <= 10 * cfg.newton_tol


class TestStepJacobian:
    def test_matches_complex_step_derivative(self):
        # d f/dx_j = Im f(x + i h e_j) / h exactly up to roundoff: no
        # subtraction, so h = 1e-30 carries no truncation or cancellation
        rng = np.random.default_rng(RNG_SEED + 5)
        h = 1e-30
        for k in range(60):
            cfg, lam = random_params(rng)
            s_z = math.copysign(10 ** rng.uniform(-3, math.log10(0.49)), k % 2 - 0.5)
            state = np.array([*rng.uniform(-2, 2, size=4),
                              *spin(rng.uniform(0, 2 * math.pi), s_z)])
            x = state.astype(complex)
            expected = np.empty((7, 7))
            for j in range(7):
                shifted = x.copy()
                shifted[j] += 1j * h
                expected[:, j] = np.imag(step_arrays(shifted, cfg, lam)) / h
            assert np.max(np.abs(step_jacobian(state, cfg, lam) - expected)) <= 1e-12


    @pytest.mark.parametrize("fn,tail", [(step_arrays, (7,)), (step_jacobian, (7, 7))],
                             ids=["step_arrays", "step_jacobian"])
    def test_stack_equals_points_bit_for_bit(self, fn, tail):
        rng = np.random.default_rng(RNG_SEED + 8)
        cfg, lam = random_params(rng)
        stack = np.array([random_point(rng) for _ in range(24)]).reshape(2, 12, 7)
        out = fn(stack, cfg, lam)
        assert out.shape == (2, 12) + tail
        for i in range(2):
            for j in range(12):
                assert np.array_equal(out[i, j], fn(stack[i, j], cfg, lam))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=configs, rows=st.lists(st.tuples(phase_points(), st.floats(0.0, 2.0)),
                                         min_size=1, max_size=12))
    def test_coupling_per_row_equals_single_coupling_calls_bit_for_bit(self, params, rows):
        # the stacked portrait iterates every coupling at once through lam,
        # and the stacked Newton census also takes its tangents that way
        cfg, _ = params
        stack = np.array([x for x, _ in rows])
        lam = np.array([lam for _, lam in rows])
        out = step_arrays(stack, cfg, lam)
        tangents = step_jacobian(stack, cfg, lam)
        assert out.shape == stack.shape
        assert tangents.shape == stack.shape + (7,)
        for k, (x, lam) in enumerate(rows):
            assert np.array_equal(out[k], step_arrays(stack, cfg, lam)[k])
            assert np.array_equal(out[k], step_arrays(x, cfg, lam))
            assert np.array_equal(tangents[k], step_jacobian(stack, cfg, lam)[k])
            assert np.array_equal(tangents[k], step_jacobian(x, cfg, lam))

    def test_graph_chart_matches_central_differences(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(20):
            cfg, lam = random_params(rng)
            state = random_off_equator_point(rng)
            v = state[_CHART_AXES]
            hemi = math.copysign(1.0, state[6])

            def chart_step(w):
                return step_arrays(_from_chart(w, hemi)[0], cfg, lam)[_CHART_AXES]

            fd = central_difference(chart_step, v)
            jac = _chart_jacobian(_from_chart(v, hemi)[0], cfg, lam)
            assert np.max(np.abs(jac - fd)) <= 1e-6


class TestJacobianCanonical:
    def test_zero_coupling_block_structure(self):
        cfg = ValidatedConfig(0.3, 0.9)
        state = point(q_x=0.5, q_y=0.2, p_x=-0.1, p_y=0.3, s=spin(0.7, 0.15))
        jac = jacobian_canonical(state, cfg, 0.0)
        cw, sw = math.cos(0.3), math.sin(0.3)
        rot = np.array([[cw, sw], [-sw, cw]])
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = rot
        expected[2:4, 2:4] = rot
        expected[4:6, 4:6] = np.eye(2)
        assert np.max(np.abs(jac - expected)) <= 1e-8

    def test_unit_determinant_at_random_states(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        cfg = reference_config()
        for _ in range(100):
            state = random_point(rng, z_max=0.4)
            det = np.linalg.det(jacobian_canonical(state, cfg, REFERENCE_LAM))
            assert det == pytest.approx(1.0, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            cfg, lam = random_params(rng)
            state = random_off_equator_point(rng)
            phi_image = to_canonical(step_arrays(state, cfg, lam))[4]

            def canonical_step(c):
                image = to_canonical(step_arrays(from_canonical(c), cfg, lam))
                image[4] = (image[4] - phi_image + math.pi) % (2 * math.pi) - math.pi
                return image

            fd = central_difference(canonical_step, to_canonical(state))
            assert np.max(np.abs(jacobian_canonical(state, cfg, lam) - fd)) <= 1e-6

    def test_pole_guard(self):
        cfg = reference_config()
        state = point(s=spin(0.0, 0.4999999))
        with pytest.raises(ValueError, match=r"\|s_z\| = 0\.4999999 too close to 1/2"
                                             " for the canonical chart"):
            jacobian_canonical(state, cfg, REFERENCE_LAM)
        with pytest.raises(ValueError, match=r"\|s_z\| = 0\.5 leaves the canonical chart"):
            from_canonical((0.0, 0.0, 0.0, 0.0, 0.0, -0.5))
