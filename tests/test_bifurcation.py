import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kickjt.bifurcation as bifurcation
from kickjt import (NonFiniteState, PortraitGrid, Stability, ValidatedConfig,
                    bifurcation_residual, critical_couplings, default_seeds,
                    find_fixed_points, portrait, reflection_symmetry_score,
                    step_arrays)
from kickjt.classical_map import from_canonical
from kickjt.cli import _fixed_point_census, validate
from kickjt.configfile import read_entries
from conftest import DELTA, OMEGA, reference_config


class TestCriticalCouplings:
    def test_reference_values(self):
        cc = critical_couplings(OMEGA, DELTA)
        values = cc.couplings()
        assert len(values) == 2
        assert values[0] == pytest.approx(0.2643, abs=5e-4)
        assert values[1] == pytest.approx(0.4577, abs=5e-4)
        assert cc.values[0].branch == +1
        assert cc.values[1].branch == -1

    def test_residual_vanishes(self):
        for coupling in critical_couplings(OMEGA, DELTA):
            assert abs(bifurcation_residual(coupling, OMEGA, DELTA)) <= 1e-12

    def test_singular_branch_dropped(self):
        # cot(delta/2) = 1 makes the minus branch divide by zero
        cc = critical_couplings(0.2, math.pi / 2)
        assert len(cc) == 1
        assert cc.values[0].branch == +1

    def test_no_solutions(self):
        # cot(delta/2) = -1: plus branch singular, minus branch negative
        cc = critical_couplings(0.2, 3 * math.pi / 2)
        assert len(cc) == 0


class TestCensus:
    def test_below_first_bifurcation(self, census_015):
        assert len(census_015) == 2
        by_sz = {round(float(fp.point[6]), 6): fp for fp in census_015}
        assert by_sz[-0.5].classification is Stability.STABLE
        assert by_sz[0.5].classification is Stability.UNSTABLE
        for fp in census_015:
            assert abs(fp.point[0]) < 1e-9 and abs(fp.point[1]) < 1e-9

    def test_between_bifurcations(self, census_032):
        stable = [fp for fp in census_032 if fp.classification is Stability.STABLE]
        saddles = [fp for fp in census_032 if fp.classification is Stability.SADDLE]
        assert len(stable) == 2
        assert len(saddles) == 1
        origin = saddles[0].point
        assert abs(origin[0]) < 1e-9 and origin[6] == pytest.approx(-0.5)

    def test_stable_pair_related_by_parity(self, census_032):
        stable = sorted((fp for fp in census_032 if fp.classification is Stability.STABLE),
                        key=lambda fp: fp.point[0])
        a, b = (fp.point for fp in stable)
        # q_x, q_y, p_x, p_y, s_x and s_y change sign; s_z does not
        assert np.all(np.abs(a[:6] + b[:6]) <= 1e-8)
        assert abs(a[6] - b[6]) <= 1e-8

    def test_beyond_second_bifurcation(self, census_050):
        saddles = [fp for fp in census_050 if fp.classification is Stability.SADDLE]
        assert len(saddles) == 2
        for fp in saddles:
            assert abs(fp.point[0]) > 0.5
            assert fp.point[1] == pytest.approx(-fp.point[0], abs=1e-8)
        origin = [fp for fp in census_050
                  if abs(fp.point[0]) < 1e-9 and fp.point[6] < 0]
        assert origin[0].classification is Stability.UNSTABLE

    def test_residuals_recheck_under_map(self, census_032):
        cfg = reference_config(0.32)
        for fp in census_032:
            image = step_arrays(fp.point, cfg)
            drift = np.max(np.abs(image - fp.point))
            assert drift <= 10 * cfg.newton_tol
            assert fp.residual <= cfg.newton_tol

    def test_no_off_origin_roots_below_first_bifurcation(self):
        cfg = reference_config(0.20)
        seeds = []
        slope = -math.tan(cfg.omega / 2)
        for q_x in np.linspace(-5, 5, 7):
            for q_y in np.linspace(-5, 5, 7):
                for s_z in (-0.45, 0.45):
                    phi = math.atan2(q_y, q_x) if (q_x, q_y) != (0, 0) else 0.0
                    seeds.append(from_canonical((q_x, slope * q_x, q_y, slope * q_y, phi, s_z)))
        for fp in find_fixed_points(cfg, seeds):
            assert math.hypot(fp.point[0], fp.point[1]) <= 1e-6

    def test_failures_reported_not_fatal(self):
        cfg = reference_config(0.32)
        equator_seed = from_canonical((0.0, 0.0, 0.0, 0.0, 0.3, 0.0))
        failures = []
        fps = find_fixed_points(cfg, [equator_seed], failures=failures)
        assert fps == []
        assert len(failures) == 1 and failures[0][0] == 0

    def test_map_evaluations_do_not_scale_with_seeds(self, monkeypatch):
        # one step_arrays call per Newton iteration for the whole seed stack;
        # a per-seed loop would make about 66 calls per iteration
        cfg = reference_config(0.32)
        calls = []
        inner = bifurcation.step_arrays

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(bifurcation, "step_arrays", counted)
        seeds = default_seeds(cfg)
        find_fixed_points(cfg, seeds)
        once = len(calls)
        assert 0 < once <= 2 * bifurcation.NEWTON_MAX_ITER + 2
        calls.clear()
        find_fixed_points(cfg, np.tile(seeds, (3, 1)))
        assert len(calls) == once


def _newton_outcomes(x0, cfg):
    """Per-row outcome of one batched Newton run: (point, residual) or the
    failure reason; the whole run is 'non-finite' when it raises."""
    try:
        roots, failures = bifurcation._newton_batch(x0, cfg)
    except NonFiniteState:
        return "non-finite"
    return [(roots[k][0].tolist(), roots[k][1]) if k in roots else str(failures[k])
            for k in range(len(x0))]


def assert_batch_independent(cfg, seeds, chosen):
    """Newton on the seeds `chosen` (indices into `seeds`, in that order)
    gives each seed, bit for bit, its outcome when run alone, and the census
    reports the failures in ascending index."""
    x0 = seeds[list(chosen)]
    alone = [_newton_outcomes(x0[k:k + 1], cfg) for k in range(len(chosen))]
    batch = _newton_outcomes(x0, cfg)
    if batch == "non-finite":
        assert "non-finite" in alone
        return
    assert batch == [a[0] for a in alone]
    failures = []
    try:
        find_fixed_points(cfg, x0, failures=failures)
    except NonFiniteState:
        # lam^2 overflows the tangent of any root, as it does every Newton step
        assert cfg.lam == 1e300
        return
    indices = [k for k, _ in failures]
    assert indices == sorted(indices)
    assert [str(exc) for _, exc in failures] == [batch[k] for k in indices]


class TestBatchIndependence:
    def test_reference_census_in_reverse_order(self):
        cfg = reference_config(0.45)
        seeds = default_seeds(cfg)
        assert_batch_independent(cfg, seeds, list(reversed(range(len(seeds)))))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(omega=st.floats(0.01, 2 * math.pi - 0.01),
           delta=st.floats(0.01, 2 * math.pi - 0.01),
           lam=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 5.0), st.just(1e300)),
           data=st.data())
    def test_seed_outcome_equals_its_lone_run(self, omega, delta, lam, data):
        cfg = ValidatedConfig(omega, delta, lam)
        seeds = default_seeds(cfg)
        order = data.draw(st.permutations(range(len(seeds))))
        assert_batch_independent(cfg, seeds, order[:data.draw(st.integers(1, 24))])


def census_table(lams):
    """The CLI census (fresh default seeds at every coupling) over a list
    of couplings at the reference model, as (lam, fixed points) pairs."""
    cfg, lams, _ = validate("fixed-points", read_entries(
        "model.omega = pi/60\nmodel.delta = 2*acot(2)\n"
        f"model.lambda_list = {', '.join(repr(l) for l in lams)}\n"))
    return list(_fixed_point_census(cfg, lams))


class TestBranchScan:
    def test_single_branch_below_first_bifurcation(self):
        table = census_table([0.05, 0.10, 0.15, 0.20, 0.25])
        for _, fps in table:
            stable = [fp for fp in fps if fp.classification is Stability.STABLE]
            assert len(stable) == 1
            assert abs(stable[0].point[0]) <= 1e-8

    def test_two_branches_with_monotone_separation(self):
        lams = [round(0.27 + 0.02 * k, 12) for k in range(10)]
        table = census_table(lams)
        assert [lam for lam, _ in table] == lams
        separations = []
        for _, fps in table:
            stable = [fp for fp in fps if fp.classification is Stability.STABLE]
            assert len(stable) == 2
            a, b = (fp.point for fp in stable)
            separations.append(math.hypot(a[0] - b[0], a[1] - b[1]))
        assert all(s2 > s1 for s1, s2 in zip(separations, separations[1:]))

    def test_branch_birth_matches_critical_coupling(self):
        step_size = 0.005
        lams = [round(0.25 + step_size * k, 12) for k in range(8)]
        table = census_table(lams)
        births = [lam for lam, fps in table
                  if any(abs(fp.point[0]) > 1e-6 for fp in fps)]
        lam_b1 = critical_couplings(OMEGA, DELTA).couplings()[0]
        assert births
        assert abs(births[0] - lam_b1) <= step_size


class TestPortrait:
    def test_zero_iterations_returns_grid(self):
        cfg = reference_config(0.15)
        grid = PortraitGrid(radii=(1.0,), n_angles=8)
        cloud = portrait(cfg, grid, 0)
        x = grid.initial_points(cfg)
        assert x.shape == (8, 7) and cloud.shape == (8, 2)
        assert np.array_equal(cloud, x[:, :2])

    def test_empty_grid_rejected(self):
        cfg = reference_config(0.15)
        with pytest.raises(ValueError):
            portrait(cfg, PortraitGrid(radii=()), 10)

    def test_couplings_stack_into_the_single_coupling_clouds_bit_for_bit(self):
        cfg = reference_config(0.15)
        grid = PortraitGrid(radii=(0.5, 2.0, 4.0), n_angles=5)
        lams = [0.0, 0.15, 0.32, 0.5]
        singles = [portrait(reference_config(lam), grid, 300) for lam in lams]
        assert np.array_equal(portrait(cfg, grid, 300, lams), np.concatenate(singles))
        assert np.array_equal(portrait(cfg, grid, 300), singles[1])

    def test_one_map_call_per_iteration_for_all_couplings(self, monkeypatch):
        calls = []
        inner = bifurcation.step_arrays

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "step_arrays", counted)
        cloud = portrait(reference_config(0.15), PortraitGrid(), 7, [0.15, 0.32, 0.5])
        assert len(calls) == 7
        assert cloud.shape == (3 * 7 * 16 * 8, 2)

    @pytest.mark.parametrize("lams,named", [([0.1, 1e300], "1e+300"),
                                            ([1e301, 0.1, 1e300], "1e+301"),
                                            ([0.1, 1e300, 1e301], "1e+300")])
    def test_overflow_names_the_first_coupling_in_list_order(self, lams, named):
        grid = PortraitGrid(radii=(1.0,), n_angles=4)
        with pytest.raises(NonFiniteState, match=rf"^portrait at lam = {re.escape(named)}: "
                                                 r"\d+ of 16 points are not finite$"):
            portrait(reference_config(0.1), grid, 3, lams)

    def test_symmetries_below_first_bifurcation(self):
        cfg = reference_config(0.15)
        cloud = portrait(cfg, PortraitGrid(), 2000)
        for angle in (0.0, 45.0, 90.0, 135.0):
            assert reflection_symmetry_score(cloud, angle) > 0.95

    def test_only_diagonal_symmetries_between_bifurcations(self):
        cfg = reference_config(0.32)
        cloud = portrait(cfg, PortraitGrid(), 2000)
        assert reflection_symmetry_score(cloud, 45.0) > 0.95
        assert reflection_symmetry_score(cloud, 135.0) > 0.95
        assert reflection_symmetry_score(cloud, 0.0) < 0.8
        assert reflection_symmetry_score(cloud, 90.0) < 0.8
