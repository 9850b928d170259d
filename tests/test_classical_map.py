import math

import numpy as np
import pytest

from kickjt import (KickJTError, NonFiniteState, OscillatorPoint, PhasePoint,
                    PoleProximity, SpinVector, Stability, SubMap, composed_step,
                    inverse_step, iterate, jacobian_canonical, make_config, spin_rotation_matrix,
                    step, step_arrays, step_jacobian, submap)
from kickjt.bifurcation import _CHART_AXES, _chart_jacobian, _from_chart
from kickjt.classical_map import from_canonical, to_canonical
from conftest import reference_config

RNG_SEED = 20240915


def point(q_x=0.0, q_y=0.0, p_x=0.0, p_y=0.0, s=(0.0, 0.0, -0.5)):
    return PhasePoint(OscillatorPoint(q_x, q_y, p_x, p_y), SpinVector(*s))


def random_point(rng, z_max=0.5):
    q = rng.uniform(-2, 2, size=4)
    s_z = rng.uniform(-z_max, z_max)
    phi = rng.uniform(0, 2 * math.pi)
    return PhasePoint(OscillatorPoint(*q), SpinVector.from_angles(phi, s_z))


def random_off_equator_point(rng):
    """Random point with 0.05 <= |s_z| <= 0.45, where central differences
    in both spin charts are accurate to 1e-6."""
    s_z = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.45)
    return PhasePoint(OscillatorPoint(*rng.uniform(-2, 2, size=4)),
                      SpinVector.from_angles(rng.uniform(0, 2 * math.pi), s_z))


def random_params(rng):
    return make_config(rng.uniform(0.02, 1.0), rng.uniform(0.1, 2.5),
                       rng.uniform(0.0, 0.6))


def max_diff(a: PhasePoint, b: PhasePoint) -> float:
    return float(np.max(np.abs(a.as_array() - b.as_array())))


def central_difference(f, x, h=1e-6):
    """Finite-difference oracle for the exact Jacobians: column j is
    (f(x + h e_j) - f(x - h e_j)) / 2h."""
    cols = []
    for j in range(x.size):
        step_j = np.zeros_like(x)
        step_j[j] = h
        cols.append((f(x + step_j) - f(x - step_j)) / (2.0 * h))
    return np.column_stack(cols)


class TestSpinVector:
    def test_radius_enforced(self):
        with pytest.raises(ValueError):
            SpinVector(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_raise_package_error(self, bad):
        with pytest.raises(NonFiniteState, match="s_y"):
            SpinVector(0.5, bad, 0.0)
        with pytest.raises(NonFiniteState, match="p_x"):
            OscillatorPoint(0.0, 0.0, bad, 0.0)
        assert issubclass(NonFiniteState, KickJTError)

    def test_from_angles(self):
        s = SpinVector.from_angles(math.pi / 2, 0.3)
        assert s.s_x == pytest.approx(0.0, abs=1e-15)
        assert s.s_y == pytest.approx(math.sqrt(0.25 - 0.09))
        assert s.norm() == pytest.approx(0.5)


class TestSubmaps:
    def test_harmonic_quarter_turn(self):
        cfg = make_config(math.pi / 2, 1.0, 0.0)
        out = submap(SubMap.HARMONIC, point(q_x=1.0), cfg)
        assert out.osc.q_x == pytest.approx(0.0, abs=1e-15)
        assert out.osc.p_x == pytest.approx(-1.0)

    def test_harmonic_rotates_spin_about_z(self):
        cfg = make_config(0.3, math.pi / 2, 0.0)
        out = submap(SubMap.HARMONIC, point(s=(0.5, 0.0, 0.0)), cfg)
        assert out.spin.s_x == pytest.approx(0.0, abs=1e-15)
        assert out.spin.s_y == pytest.approx(0.5)
        assert out.spin.s_z == 0.0

    def test_kick_x_identity_at_zero_coupling(self):
        cfg = make_config(0.3, 1.0, 0.0)
        state = point(q_x=1.2, p_y=-0.7, s=(0.1, 0.2, math.sqrt(0.25 - 0.05)))
        assert max_diff(submap(SubMap.KICK_X, state, cfg), state) == 0.0

    def test_kick_y_momentum_shift(self):
        cfg = make_config(0.3, 1.0, 0.32)
        state = point(s=(0.0, 0.5, 0.0))
        out = submap(SubMap.KICK_Y, state, cfg)
        assert out.osc.p_y == pytest.approx(-0.16)
        assert out.osc.q_x == out.osc.q_y == out.osc.p_x == 0.0
        assert (out.spin.s_x, out.spin.s_y, out.spin.s_z) == (0.0, 0.5, 0.0)


class TestStep:
    def test_trivial_fixed_point(self):
        cfg = make_config(math.pi / 60, 2 * math.atan(0.5), 0.0)
        state = point()
        assert max_diff(step(state, cfg), state) == 0.0
        cfg32 = cfg.with_lam(0.32)
        assert max_diff(step(state, cfg32), state) == 0.0

    def test_zero_coupling_decouples(self):
        cfg = make_config(0.4, 0.9, 0.0)
        state = point(q_x=1.0, q_y=-0.5, p_x=0.2, p_y=0.3,
                      s=SpinVector.from_angles(1.1, 0.2).as_array())
        out = step(state, cfg)
        cw, sw = math.cos(0.4), math.sin(0.4)
        assert out.osc.q_x == pytest.approx(0.2 * sw + 1.0 * cw)
        assert out.osc.p_x == pytest.approx(0.2 * cw - 1.0 * sw)
        assert out.osc.q_y == pytest.approx(0.3 * sw - 0.5 * cw)
        phi = math.atan2(out.spin.s_y, out.spin.s_x)
        assert phi == pytest.approx(1.1 + 0.9)
        assert out.spin.s_z == pytest.approx(0.2)

    def test_matches_submap_composition_on_reference_state(self):
        cfg = reference_config(0.32)
        state = point(q_x=1.0, q_y=-0.5, s=(0.3, 0.2, math.sqrt(0.25 - 0.13)))
        assert max_diff(step(state, cfg), composed_step(state, cfg)) <= 1e-10

    def test_matches_submap_composition_randomized(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(3):
            cfg = random_params(rng)
            for _ in range(200):
                state = random_point(rng)
                assert max_diff(step(state, cfg), composed_step(state, cfg)) <= 1e-10

    def test_spin_norm_conserved_per_step(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(50):
            cfg = random_params(rng)
            out = step(random_point(rng), cfg)
            assert abs(out.spin.norm() - 0.5) <= 1e-12

    def test_reversibility(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(50):
            cfg = random_params(rng)
            state = random_point(rng)
            assert max_diff(inverse_step(step(state, cfg), cfg), state) <= 1e-9


class TestSpinRotationMatrix:
    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(50):
            cfg = random_params(rng)
            mat = spin_rotation_matrix(rng.uniform(-3, 3), rng.uniform(-3, 3), cfg)
            assert np.max(np.abs(mat @ mat.T - np.eye(3))) <= 1e-12
            assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)

    def test_acts_in_step(self):
        cfg = reference_config(0.32)
        state = point(q_x=0.7, q_y=-1.2, s=SpinVector.from_angles(0.4, -0.1).as_array())
        out = step(state, cfg)
        expected = spin_rotation_matrix(0.7, -1.2, cfg) @ state.spin.as_array()
        assert np.max(np.abs(out.spin.as_array() - expected)) <= 1e-14


class TestIterate:
    def test_zero_iterations(self):
        cfg = reference_config(0.32)
        state = point(q_x=1.0)
        traj = iterate(state, 0, cfg)
        assert len(traj) == 1 and traj[0] is state

    def test_oscillator_period_at_zero_coupling(self):
        cfg = make_config(math.pi / 60, 2 * math.atan(0.5), 0.0)
        state = point(q_x=1.3, q_y=-0.4, p_x=0.2, p_y=0.9,
                      s=SpinVector.from_angles(0.3, 0.1).as_array())
        traj = iterate(state, 120, cfg)
        end = traj[120]
        assert np.max(np.abs(end.osc.as_array() - state.osc.as_array())) <= 1e-9

    def test_orbit_stays_at_stable_fixed_point(self, census_032):
        cfg = reference_config(0.32)
        stable = [fp for fp in census_032
                  if fp.classification is Stability.STABLE and fp.point.osc.q_x > 0]
        fp = stable[0]
        traj = iterate(fp.point, 200, cfg)
        for state in traj.points:
            assert max_diff(state, fp.point) <= 10 * cfg.newton_tol


class TestStepJacobian:
    def test_matches_complex_step_derivative(self):
        # d f/dx_j = Im f(x + i h e_j) / h exactly up to roundoff: no
        # subtraction, so h = 1e-30 carries no truncation or cancellation
        rng = np.random.default_rng(RNG_SEED + 5)
        h = 1e-30
        for k in range(60):
            cfg = random_params(rng)
            s_z = math.copysign(10 ** rng.uniform(-3, math.log10(0.49)), k % 2 - 0.5)
            state = PhasePoint(OscillatorPoint(*rng.uniform(-2, 2, size=4)),
                               SpinVector.from_angles(rng.uniform(0, 2 * math.pi), s_z))
            x = state.as_array().astype(complex)
            expected = np.empty((7, 7))
            for j in range(7):
                shifted = x.copy()
                shifted[j] += 1j * h
                image = step_arrays(*shifted, cfg.omega, cfg.delta, cfg.lam)
                expected[:, j] = np.imag(np.array(image)) / h
            assert np.max(np.abs(step_jacobian(state.as_array(), cfg) - expected)) <= 1e-12

    def test_stack_equals_points_bit_for_bit(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        cfg = random_params(rng)
        stack = np.array([random_point(rng).as_array() for _ in range(24)]).reshape(2, 12, 7)
        jacs = step_jacobian(stack, cfg)
        assert jacs.shape == (2, 12, 7, 7)
        for i in range(2):
            for j in range(12):
                assert np.array_equal(jacs[i, j], step_jacobian(stack[i, j], cfg))

    def test_graph_chart_matches_central_differences(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(20):
            cfg = random_params(rng)
            state = random_off_equator_point(rng)
            v = state.as_array()[_CHART_AXES]
            hemi = math.copysign(1.0, state.spin.s_z)

            def chart_step(w):
                image = step_arrays(*_from_chart(w, hemi)[0], cfg.omega, cfg.delta, cfg.lam)
                return np.array(image)[_CHART_AXES]

            fd = central_difference(chart_step, v)
            jac = _chart_jacobian(_from_chart(v, hemi)[0], cfg)
            assert np.max(np.abs(jac - fd)) <= 1e-6


class TestJacobianCanonical:
    def test_zero_coupling_block_structure(self):
        cfg = make_config(0.3, 0.9, 0.0)
        state = point(q_x=0.5, q_y=0.2, p_x=-0.1, p_y=0.3,
                      s=SpinVector.from_angles(0.7, 0.15).as_array())
        jac = jacobian_canonical(state, cfg)
        cw, sw = math.cos(0.3), math.sin(0.3)
        rot = np.array([[cw, sw], [-sw, cw]])
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = rot
        expected[2:4, 2:4] = rot
        expected[4:6, 4:6] = np.eye(2)
        assert np.max(np.abs(jac - expected)) <= 1e-8

    def test_unit_determinant_at_random_states(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        cfg = reference_config(0.32)
        for _ in range(100):
            state = random_point(rng, z_max=0.4)
            det = np.linalg.det(jacobian_canonical(state, cfg))
            assert det == pytest.approx(1.0, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            cfg = random_params(rng)
            state = random_off_equator_point(rng)
            phi_image = to_canonical(step(state, cfg))[4]

            def canonical_step(c):
                image = to_canonical(step(from_canonical(c), cfg))
                image[4] = (image[4] - phi_image + math.pi) % (2 * math.pi) - math.pi
                return image

            fd = central_difference(canonical_step, to_canonical(state))
            assert np.max(np.abs(jacobian_canonical(state, cfg) - fd)) <= 1e-6

    def test_pole_guard(self):
        cfg = reference_config(0.32)
        state = PhasePoint(OscillatorPoint(0, 0, 0, 0),
                           SpinVector.from_angles(0.0, 0.4999999))
        with pytest.raises(PoleProximity):
            jacobian_canonical(state, cfg)
