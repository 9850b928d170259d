import math
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from kickjt import OutOfRange, ValidatedConfig, acot

TWO_PI = 2 * math.pi
TINY = math.ulp(0.0)


def test_reference_parameters_validate():
    cfg = ValidatedConfig(math.pi / 60, 2 * acot(2), 0.32, n_t=18)
    assert cfg.omega == math.pi / 60
    assert cfg.delta == pytest.approx(2 * math.atan(0.5))
    assert cfg.lam == 0.32
    assert cfg.n_t == 18


def test_acot_is_atan_of_reciprocal():
    assert acot(2) == math.atan(0.5)
    assert acot(1) == pytest.approx(math.pi / 4)


def test_omega_zero_rejected():
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(0.0, 1.0, 0.1)
    assert "omega" in str(err.value)


def test_negative_coupling_rejected():
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(0.1, 1.0, -0.1)
    assert "lambda" in str(err.value)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_coupling_rejected(lam):
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(0.1, 1.0, lam)
    assert "lambda must be finite" in str(err.value)


def test_all_violations_reported_together():
    with pytest.raises(OutOfRange) as err:
        ValidatedConfig(omega=0.0, delta=7.0, lam=-1.0, n_t=-3, newton_tol=0.0)
    message = str(err.value)
    assert len(err.value.violations) >= 5
    for field in ("omega", "delta", "lambda", "n_t", "newton_tol"):
        assert field in message


def test_validation_is_idempotent():
    cfg = ValidatedConfig(math.pi / 60, 2 * acot(2), 0.32)
    again = ValidatedConfig(**asdict(cfg))
    assert again == cfg


def test_replace_lam_revalidates():
    cfg = ValidatedConfig(0.1, 1.0, 0.1)
    assert replace(cfg, lam=0.5).lam == 0.5
    with pytest.raises(OutOfRange):
        replace(cfg, lam=-0.5)


def test_replace_n_t():
    cfg = ValidatedConfig(0.1, 1.0, 0.1, n_t=4)
    assert replace(cfg, n_t=8).n_t == 8
    assert replace(cfg, n_t=8).omega == cfg.omega


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
    "lam": (st.floats(min_value=0.0, allow_infinity=False),
            st.one_of(st.floats(max_value=-TINY), st.just(math.inf), st.just(math.nan)),
            "lambda"),
    "n_t": (st.integers(0, 10**6),
            st.one_of(st.integers(max_value=-1), st.floats()),
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
    valid = ValidatedConfig(math.pi / 60, 2 * acot(2), 0.32)
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
