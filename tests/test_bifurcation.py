import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kickjt.bifurcation as bifurcation
from kickjt import (NonFiniteState, OutOfRange, PortraitGrid, Stability,
                    ValidatedConfig, critical_couplings, default_seeds,
                    find_fixed_points, portrait, reflection_symmetry_score,
                    step_arrays)
from kickjt.classical_map import from_canonical
from kickjt.cli import validate
from kickjt.configfile import read_entries
from conftest import DELTA, OMEGA, REFERENCE_LAM, reference_config


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
        # each root solves lam_b^2 (cot(delta/2) + branch) = 8 tan(omega/2)
        cot_half = 1.0 / math.tan(DELTA / 2.0)
        for coupling in critical_couplings(OMEGA, DELTA):
            residual = (coupling.value ** 2 * (cot_half + coupling.branch)
                        - 8.0 * math.tan(OMEGA / 2.0))
            assert abs(residual) <= 1e-12

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
        cfg = reference_config()
        for fp in census_032:
            image = step_arrays(fp.point, cfg, REFERENCE_LAM)
            drift = np.max(np.abs(image - fp.point))
            assert drift <= 10 * cfg.newton_tol
            assert fp.residual <= cfg.newton_tol

    def test_no_off_origin_roots_below_first_bifurcation(self):
        cfg = reference_config()
        seeds = []
        slope = -math.tan(cfg.omega / 2)
        for q_x in np.linspace(-5, 5, 7):
            for q_y in np.linspace(-5, 5, 7):
                for s_z in (-0.45, 0.45):
                    phi = math.atan2(q_y, q_x) if (q_x, q_y) != (0, 0) else 0.0
                    seeds.append(from_canonical((q_x, slope * q_x, q_y, slope * q_y, phi, s_z)))
        for fp in find_fixed_points(cfg, seeds, [0.20]):
            assert math.hypot(fp.point[0], fp.point[1]) <= 1e-6

    def test_failures_reported_not_fatal(self):
        cfg = reference_config()
        equator_seed = from_canonical((0.0, 0.0, 0.0, 0.0, 0.3, 0.0))
        failures = []
        fps = find_fixed_points(cfg, [equator_seed], [REFERENCE_LAM], failures)
        assert fps == []
        assert failures == [(0, "seed on the spin equator is outside both chart hemispheres")]

    def test_map_evaluations_do_not_scale_with_seeds(self, monkeypatch):
        # one step_arrays call per Newton iteration for the whole seed stack;
        # a per-seed loop would make about 66 calls per iteration
        cfg = reference_config()
        calls = []
        inner = bifurcation.step_arrays

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(bifurcation, "step_arrays", counted)
        seeds = default_seeds(cfg)
        find_fixed_points(cfg, seeds, [REFERENCE_LAM])
        once = len(calls)
        assert 0 < once <= 2 * bifurcation.NEWTON_MAX_ITER + 2
        calls.clear()
        find_fixed_points(cfg, np.tile(seeds, (3, 1)), [REFERENCE_LAM])
        assert len(calls) == once


def _dedup_oracle(points):
    """The per-row dedup loop: keep each point, in order, unless it lies
    within DEDUP_DISTANCE (max norm) of one already kept."""
    kept = np.empty((0, 7))
    for vec in points:
        if (np.max(np.abs(kept - vec), axis=1) < bifurcation.DEDUP_DISTANCE).any():
            continue
        kept = np.vstack([kept, vec])
    return kept


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(-3, 3), min_size=1, max_size=12))
def test_dedup_keeps_what_the_per_row_loop_keeps(steps):
    # converged points 0.6 DEDUP_DISTANCE apart along q_x: repeats, and
    # chains where a point is near its neighbour but not the one after it,
    # so keeping against dropped points too would differ; each point's
    # residual names its row
    base = np.array([0.3, -0.2, 0.1, 0.05, 0.1, 0.2, -math.sqrt(0.2)])
    points = np.tile(base, (len(steps), 1))
    points[:, 0] += np.array(steps) * 0.6 * bifurcation.DEDUP_DISTANCE
    roots = {k: (point, 1e-13 * k) for k, point in enumerate(points)}
    with mock.patch.object(bifurcation, "_newton_batch",
                           lambda x0, cfg, lam: (roots, {}, set())):
        fps = find_fixed_points(reference_config(), points, [0.1])
    kept = _dedup_oracle(points)
    rows = [next(k for k, p in enumerate(points) if np.array_equal(p, vec)) for vec in kept]
    want = sorted((tuple(vec), 1e-13 * k) for vec, k in zip(kept.tolist(), rows))
    assert [(tuple(fp.point.tolist()), fp.residual) for fp in fps] == want


def _newton_outcomes(x0, cfg, lam):
    """Per-row outcome of one batched Newton run at the coupling lam:
    (point, residual) or the failure reason; the whole run is 'non-finite'
    when a step overflows."""
    roots, failures, overflows = bifurcation._newton_batch(x0, cfg, lam)
    if overflows:
        return "non-finite"
    return [(roots[k][0].tolist(), roots[k][1]) if k in roots else failures[k]
            for k in range(len(x0))]


def assert_batch_independent(cfg, lam, seeds, chosen):
    """Newton at the coupling lam on the seeds `chosen` (indices into
    `seeds`, in that order) gives each seed, bit for bit, its outcome when
    run alone, and the census reports the failures in ascending index."""
    x0 = seeds[list(chosen)]
    alone = [_newton_outcomes(x0[k:k + 1], cfg, lam) for k in range(len(chosen))]
    batch = _newton_outcomes(x0, cfg, lam)
    if batch == "non-finite":
        assert "non-finite" in alone
        return
    assert batch == [a[0] for a in alone]
    failures = []
    try:
        find_fixed_points(cfg, x0, [lam], failures)
    except NonFiniteState:
        # lam^2 overflows the tangent of any root, as it does every Newton step
        assert lam == 1e300
        return
    indices = [k for k, _ in failures]
    assert indices == sorted(indices)
    assert [reason for _, reason in failures] == [batch[k] for k in indices]


class TestBatchIndependence:
    def test_reference_census_in_reverse_order(self):
        cfg = reference_config()
        seeds = default_seeds(cfg)
        assert_batch_independent(cfg, 0.45, seeds, list(reversed(range(len(seeds)))))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(omega=st.floats(0.01, 2 * math.pi - 0.01),
           delta=st.floats(0.01, 2 * math.pi - 0.01),
           lam=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 5.0), st.just(1e300)),
           data=st.data())
    def test_seed_outcome_equals_its_lone_run(self, omega, delta, lam, data):
        cfg = ValidatedConfig(omega, delta)
        seeds = default_seeds(cfg)
        order = data.draw(st.permutations(range(len(seeds))))
        assert_batch_independent(cfg, lam, seeds, order[:data.draw(st.integers(1, 24))])


def _census_outcome(cfg, seeds, lams):
    """(points as comparable tuples, failures, error text or None) of one
    find_fixed_points call."""
    failures = []
    try:
        fps = find_fixed_points(cfg, seeds, lams, failures)
    except NonFiniteState as exc:
        return None, failures, str(exc)
    points = [(fp.lam, fp.point.tolist(), fp.residual, fp.classification,
               fp.multiplier_moduli) for fp in fps]
    return points, failures, None


# 2e154 squares past the largest float: the pole roots' linearisation
# overflows there, while Newton from (0, 0, 0, 0, 0, 0.1) fails finitely
POLES_AND_FLAT_SEED = np.vstack([default_seeds(reference_config())[:2],
                                 from_canonical((0.0, 0.0, 0.0, 0.0, 0.0, 0.1))])


class TestCensusStack:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(omega=st.floats(0.01, 2 * math.pi - 0.01),
           delta=st.floats(0.01, 2 * math.pi - 0.01),
           lams=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 5.0),
                                   st.sampled_from([0.0, 2e154, 1e300])),
                         min_size=1, max_size=4),
           data=st.data())
    def test_each_coupling_equals_its_lone_call_bit_for_bit(self, omega, delta, lams, data):
        cfg = ValidatedConfig(omega, delta)
        seeds = default_seeds(cfg)
        chosen = data.draw(st.lists(st.integers(0, len(seeds) - 1), min_size=1,
                                    max_size=12, unique=True))
        seeds = seeds[chosen]
        n = len(seeds)
        points, failures, error = _census_outcome(cfg, seeds, lams)
        expected_points, expected_failures = [], []
        for k, lam in enumerate(lams):
            lone_points, lone_failures, lone_error = _census_outcome(cfg, seeds, [lam])
            if lone_error is not None:
                # the first coupling in list order whose own search fails
                assert error == lone_error
                break
            expected_points += lone_points
            expected_failures += [(k * n + i, reason) for i, reason in lone_failures]
        else:
            assert error is None
            assert points == expected_points
        assert failures == expected_failures

    def test_one_map_call_per_iteration_for_all_couplings(self, monkeypatch):
        # the census makes as many map calls as the longest lone search
        cfg = reference_config()
        lams = [round(0.05 * k, 12) for k in range(1, 12)]
        calls = []
        inner = bifurcation.step_arrays

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(bifurcation, "step_arrays", counted)
        lone = []
        for lam in lams:
            calls.clear()
            find_fixed_points(cfg, default_seeds(cfg), [lam])
            lone.append(len(calls))
        calls.clear()
        table = by_coupling(find_fixed_points(cfg, default_seeds(cfg), lams), lams)
        assert len(calls) == max(lone)
        assert [lam for lam, _ in table] == lams
        assert all(fp.lam == lam for lam, fps in table for fp in fps)

    @pytest.mark.parametrize("lams,named", [([0.1, 1e300], "1e+300"),
                                            ([1e301, 0.1, 1e300], "1e+301"),
                                            ([0.1, 1e300, 1e301], "1e+300")])
    def test_overflow_names_the_first_coupling_in_list_order(self, lams, named):
        # seed 2, the first ring seed, overflows at either huge coupling
        cfg = reference_config()
        with pytest.raises(NonFiniteState, match=rf"^fixed-point search at lam = "
                                                 rf"{re.escape(named)}: Newton step from "
                                                 r"seed 2 at \(q_x, .*\) is not finite$"):
            find_fixed_points(cfg, default_seeds(cfg), lams)

    @pytest.mark.parametrize("lams,message,failed", [
        ([0.1, 2e154, 1e300], "lam = 2e+154: linearisation at the fixed point", [5]),
        ([0.1, 1e300, 2e154], "lam = 1e+300: Newton step from seed 2 at", [])])
    def test_classification_overflow_ranks_by_list_order_too(self, lams, message, failed):
        # at 2e154 seed 2 diverges, so Newton ends and the pole roots'
        # linearisation overflows; at 1e300 the Newton step from seed 2 does.
        # As in a lone call, a coupling's failures are recorded before its
        # roots are classified (row 5 is seed 2 at the second coupling)
        failures = []
        with pytest.raises(NonFiniteState, match=re.escape(message)):
            find_fixed_points(reference_config(), POLES_AND_FLAT_SEED, lams, failures)
        assert [row for row, _ in failures] == failed

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_coupling_out_of_range_refused(self, bad):
        cfg = reference_config()
        with pytest.raises(OutOfRange, match="lambda must be finite and >= 0"):
            find_fixed_points(cfg, default_seeds(cfg), [0.1, bad])

    @pytest.mark.parametrize("order", [[0.5, 0.4], [0.4, 0.5]])
    def test_overflowing_coupling_leaves_and_the_others_go_on(self, monkeypatch, order):
        # a map made to overflow at lam 0.4 from the first iteration and at
        # lam 0.5 from the third: the error is the one of the first coupling
        # in list order, as if each ran alone
        inner = bifurcation.step_arrays
        calls = []

        def faulty(x, cfg, lam):
            calls.append(1)
            image = inner(x, cfg, lam)
            image[(lam == 0.4) | ((lam == 0.5) & (len(calls) >= 3))] = np.inf
            return image

        monkeypatch.setattr(bifurcation, "step_arrays", faulty)
        seeds = default_seeds(reference_config())
        lone = {}
        for lam in order:
            calls.clear()
            lone[lam] = _census_outcome(reference_config(), seeds, [lam])[2]
        calls.clear()
        error = _census_outcome(reference_config(), seeds, order)[2]
        assert error == lone[order[0]]
        assert lone[0.5] != lone[0.4]
        assert lone[0.5].startswith("fixed-point search at lam = 0.5: Newton step from seed ")


def by_coupling(fps, lams):
    """(lam, fixed points at lam) for each coupling of lams, in order."""
    return [(lam, [fp for fp in fps if fp.lam == lam]) for lam in lams]


def census_table(lams):
    """The CLI census (fresh default seeds at every coupling) over a list
    of couplings at the reference model, as (lam, fixed points) pairs."""
    cfg, lams, _ = validate("fixed-points", read_entries(
        "model.omega = pi/60\nmodel.delta = 2*acot(2)\n"
        f"model.lambda_list = {', '.join(repr(l) for l in lams)}\n"))
    return by_coupling(find_fixed_points(cfg, default_seeds(cfg), lams), lams)


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
        cfg = reference_config()
        grid = PortraitGrid(radii=(1.0,), n_angles=8)
        cloud = portrait(cfg, grid, 0, [0.15])
        x = grid.initial_points(cfg)
        assert x.shape == (8, 7) and cloud.shape == (8, 2)
        assert np.array_equal(cloud, x[:, :2])

    def test_empty_grid_rejected(self):
        cfg = reference_config()
        with pytest.raises(ValueError):
            portrait(cfg, PortraitGrid(radii=()), 10, [0.15])

    def test_couplings_stack_into_the_single_coupling_clouds_bit_for_bit(self):
        cfg = reference_config()
        grid = PortraitGrid(radii=(0.5, 2.0, 4.0), n_angles=5)
        lams = [0.0, 0.15, 0.32, 0.5]
        singles = [portrait(cfg, grid, 300, [lam]) for lam in lams]
        assert np.array_equal(portrait(cfg, grid, 300, lams), np.concatenate(singles))

    def test_one_map_call_per_iteration_for_all_couplings(self, monkeypatch):
        calls = []
        inner = bifurcation.step_arrays

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "step_arrays", counted)
        cloud = portrait(reference_config(), PortraitGrid(), 7, [0.15, 0.32, 0.5])
        assert len(calls) == 7
        assert cloud.shape == (3 * 7 * 16 * 8, 2)

    @pytest.mark.parametrize("lams,named", [([0.1, 1e300], "1e+300"),
                                            ([1e301, 0.1, 1e300], "1e+301"),
                                            ([0.1, 1e300, 1e301], "1e+300")])
    def test_overflow_names_the_first_coupling_in_list_order(self, lams, named):
        grid = PortraitGrid(radii=(1.0,), n_angles=4)
        with pytest.raises(NonFiniteState, match=rf"^portrait at lam = {re.escape(named)}: "
                                                 r"\d+ of 16 points are not finite$"):
            portrait(reference_config(), grid, 3, lams)

    @pytest.mark.parametrize("bad", [-0.3, math.nan, math.inf])
    @pytest.mark.parametrize("entry", ["portrait", "find_fixed_points"])
    def test_coupling_out_of_range_refused_by_both_entry_points(self, entry, bad):
        cfg = reference_config()
        with pytest.raises(OutOfRange, match="lambda must be finite and >= 0"):
            if entry == "portrait":
                portrait(cfg, PortraitGrid(radii=(1.0,), n_angles=8), 3, [bad])
            else:
                find_fixed_points(cfg, default_seeds(cfg), [bad])

    def test_numpy_integer_couplings_accepted_by_both_entry_points(self):
        cfg = reference_config()
        grid = PortraitGrid(radii=(1.0,), n_angles=4)
        assert np.array_equal(portrait(cfg, grid, 3, np.arange(2)),
                              portrait(cfg, grid, 3, [0.0, 1.0]))
        assert [fp.point.tolist() for fp in find_fixed_points(cfg, default_seeds(cfg),
                                                             np.arange(2))] == \
            [fp.point.tolist() for fp in find_fixed_points(cfg, default_seeds(cfg),
                                                          [0.0, 1.0])]

    def test_symmetries_below_first_bifurcation(self):
        cloud = portrait(reference_config(), PortraitGrid(), 2000, [0.15])
        for angle in (0.0, 45.0, 90.0, 135.0):
            assert reflection_symmetry_score(cloud, angle) > 0.95

    def test_only_diagonal_symmetries_between_bifurcations(self):
        cloud = portrait(reference_config(), PortraitGrid(), 2000, [REFERENCE_LAM])
        assert reflection_symmetry_score(cloud, 45.0) > 0.95
        assert reflection_symmetry_score(cloud, 135.0) > 0.95
        assert reflection_symmetry_score(cloud, 0.0) < 0.8
        assert reflection_symmetry_score(cloud, 90.0) < 0.8
