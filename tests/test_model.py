import math

import pytest

from kickjt import (ModelParams, NumericsConfig, OutOfRange, acot,
                    make_config, validate_params)


def test_reference_parameters_validate():
    cfg = make_config(math.pi / 60, 2 * acot(2), 0.32, n_t=18)
    assert cfg.omega == math.pi / 60
    assert cfg.delta == pytest.approx(2 * math.atan(0.5))
    assert cfg.lam == 0.32
    assert cfg.n_t == 18


def test_acot_is_atan_of_reciprocal():
    assert acot(2) == math.atan(0.5)
    assert acot(1) == pytest.approx(math.pi / 4)


def test_omega_zero_rejected():
    with pytest.raises(OutOfRange) as err:
        make_config(0.0, 1.0, 0.1)
    assert "omega" in str(err.value)


def test_negative_coupling_rejected():
    with pytest.raises(OutOfRange) as err:
        make_config(0.1, 1.0, -0.1)
    assert "lambda" in str(err.value)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_coupling_rejected(lam):
    with pytest.raises(OutOfRange) as err:
        make_config(0.1, 1.0, lam)
    assert "lambda must be finite" in str(err.value)


def test_all_violations_reported_together():
    with pytest.raises(OutOfRange) as err:
        validate_params(ModelParams(omega=0.0, delta=7.0, lam=-1.0),
                        NumericsConfig(n_t=-3, newton_tol=0.0))
    message = str(err.value)
    assert len(err.value.violations) >= 5
    for field in ("omega", "delta", "lambda", "n_t", "newton_tol"):
        assert field in message


def test_overlap_threshold_range():
    with pytest.raises(OutOfRange):
        make_config(0.1, 1.0, 0.1, overlap_threshold=1.5)


def test_validation_is_idempotent():
    cfg = make_config(math.pi / 60, 2 * acot(2), 0.32)
    again = validate_params(ModelParams(cfg.omega, cfg.delta, cfg.lam), cfg.numerics())
    assert again == cfg


def test_with_lam_revalidates():
    cfg = make_config(0.1, 1.0, 0.1)
    assert cfg.with_lam(0.5).lam == 0.5
    with pytest.raises(OutOfRange):
        cfg.with_lam(-0.5)


def test_with_n_t():
    cfg = make_config(0.1, 1.0, 0.1, n_t=4)
    assert cfg.with_n_t(8).n_t == 8
    assert cfg.with_n_t(8).omega == cfg.omega
