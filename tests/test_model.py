import inspect
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kickjt
from kickjt import (OutOfRange, PortraitGrid, ValidatedConfig, acot, apply_floquet,
                    checked_coupling, default_seeds, find_fixed_points,
                    floquet_operator, floquet_spectrum, pgs_seed, portrait,
                    track_eigenstate)
from kickjt.model import MAX_N_T

TWO_PI = 2 * math.pi
TINY = math.ulp(0.0)


def test_reference_parameters_validate():
    cfg = ValidatedConfig(math.pi / 60, 2 * acot(2), n_t=18)
    assert cfg.omega == math.pi / 60
    assert cfg.delta == pytest.approx(2 * math.atan(0.5))
    assert cfg.n_t == 18


def test_acot_is_atan_of_reciprocal():
    assert acot(2) == math.atan(0.5)
    assert acot(1) == pytest.approx(math.pi / 4)


def test_omega_zero_rejected():
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(0.0, 1.0)
    assert "omega" in str(err.value)


def test_all_violations_reported_together():
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(omega=0.0, delta=7.0, n_t=-3, newton_tol=0.0)
    message = str(err.value)
    assert len(err.value.violations) >= 4
    for field in ("omega", "delta", "n_t", "newton_tol"):
        assert field in message


def test_validation_is_idempotent():
    cfg = ValidatedConfig(math.pi / 60, 2 * acot(2))
    again = ValidatedConfig(**asdict(cfg))
    assert again == cfg


def test_replace_n_t():
    cfg = ValidatedConfig(0.1, 1.0, n_t=4)
    assert replace(cfg, n_t=8).n_t == 8
    assert replace(cfg, n_t=8).omega == cfg.omega


@pytest.mark.parametrize("n_t", [np.int64(4), np.int32(4), np.uint8(4)],
                         ids=["int64", "int32", "uint8"])
def test_numpy_integer_cutoff_stored_as_int(n_t):
    # any integer type passes, and cfg.n_t is always a plain int
    for cfg in (ValidatedConfig(0.05, 0.9, n_t=n_t),
                replace(ValidatedConfig(0.05, 0.9), n_t=n_t)):
        assert cfg.n_t == 4 and type(cfg.n_t) is int


# --- the invariant, over random fields ------------------------------------------
#
# For each field: a strategy for values inside its documented range, one for
# values outside it, and the word its violation message starts with.

FIELD_RANGES = {
    "omega": (st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True),
              st.one_of(st.floats(max_value=0.0), st.floats(min_value=TWO_PI),
                        st.just(math.nan)),
              "omega"),
    "delta": (st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True),
              st.one_of(st.floats(max_value=0.0), st.floats(min_value=TWO_PI),
                        st.just(math.nan)),
              "delta"),
    "n_t": (st.one_of(st.integers(0, MAX_N_T), st.integers(0, MAX_N_T).map(np.int64)),
            st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_N_T + 1),
                      st.integers(MAX_N_T + 1, 2**62).map(np.int64), st.floats(),
                      st.floats(allow_nan=False).map(np.float64)),
            "n_t"),
    "newton_tol": (st.floats(min_value=TINY),
                   st.one_of(st.floats(max_value=0.0), st.just(math.nan)),
                   "newton_tol"),
}


@st.composite
def config_fields(draw):
    """(fields, names of the fields drawn outside their range, names of the
    fields a replace call sets)."""
    values, bad, replaced = {}, set(), set()
    for name, (inside, outside, _) in FIELD_RANGES.items():
        if draw(st.booleans()):
            values[name] = draw(outside)
            bad.add(name)
        else:
            values[name] = draw(inside)
        if draw(st.booleans()):
            replaced.add(name)
    return values, bad, replaced


def _violated_fields(err: OutOfRange) -> set[str]:
    by_word = {word: name for name, (_, _, word) in FIELD_RANGES.items()}
    return {by_word[message.split(" ", 1)[0]] for message in err.violations}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=config_fields())
def test_construction_and_replace_hold_the_invariant(drawn):
    # both a direct construction and a dataclasses.replace succeed exactly
    # when every field they set is in range, and otherwise name exactly the
    # fields that are not
    assert set(FIELD_RANGES) == {f.name for f in fields(ValidatedConfig)}
    values, bad, replaced = drawn
    valid = ValidatedConfig(math.pi / 60, 2 * acot(2))
    changes = {name: values[name] for name in replaced}
    cases = ((lambda: ValidatedConfig(**values), values, bad),
             (lambda: replace(valid, **changes), {**asdict(valid), **changes}, bad & replaced))
    for build, expected, expected_bad in cases:
        if not expected_bad:
            assert asdict(build()) == expected
            continue
        with pytest.raises(OutOfRange) as err:
            build()
        assert _violated_fields(err.value) == expected_bad
        assert len(err.value.violations) == len(expected_bad)


# --- the coupling ---------------------------------------------------------------
#
# The coupling is an argument, not a config field.  Each public function
# that validates it is called here with the coupling lam at a small point
# (track_eigenstate with it as a stop).

CFG2 = ValidatedConfig(math.pi / 60, 2 * acot(2), n_t=2)
COUPLING_CHECKS = {
    "checked_coupling": checked_coupling,
    "find_fixed_points": lambda lam: find_fixed_points(CFG2, default_seeds(CFG2)[:2],
                                                       [0.1, lam]),
    "portrait": lambda lam: portrait(CFG2, PortraitGrid(radii=(1.0,), n_angles=4), 3,
                                     [0.1, lam]),
    "floquet_operator": lambda lam: floquet_operator(CFG2, lam, "O"),
    "floquet_spectrum": lambda lam: floquet_spectrum(CFG2, lam),
    "apply_floquet": lambda lam: apply_floquet(pgs_seed(2), CFG2, lam),
    "track_eigenstate": lambda stop: track_eigenstate(pgs_seed(2), CFG2, [0.1, stop]),
}
# the map kernels take one coupling or one per point and check nothing, and
# curve_derivative's lams are the abscissas of a curve
UNCHECKED = {"step_arrays", "step_jacobian", "submap", "composed_step", "inverse_step",
             "spin_rotation_matrix", "jacobian_canonical", "apply_kick",
             "curve_derivative"}


def test_every_public_function_with_a_coupling_is_listed():
    takers = {name for name, fn in vars(kickjt).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and {"lam", "lams", "stops"} & set(inspect.signature(fn).parameters)}
    assert takers == {name.split()[0] for name in COUPLING_CHECKS} | UNCHECKED


@pytest.mark.parametrize("name", sorted(COUPLING_CHECKS))
def test_coupling_out_of_range_refused(name):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(OutOfRange) as err:
            COUPLING_CHECKS[name](bad)
        assert str(err.value) == f"lambda must be finite and >= 0, got {bad!r}"
        assert err.value.violations == [str(err.value)]


@pytest.mark.parametrize("lam,expected", [(np.float64(0.32), 0.32), (3, 3.0),
                                          (np.int64(0), 0.0)],
                         ids=["float64", "int", "int64"])
def test_checked_coupling_returns_a_plain_float(lam, expected):
    value = checked_coupling(lam)
    assert value == expected and type(value) is float
