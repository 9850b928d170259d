"""Model parameters, unit conventions and numerical configuration.

Everything downstream works in the dimensionless variables (omega, delta,
lam): the phase advance per period, the spin splitting per period and the
kick coupling strength, with mass fixed by m = 1/omega_tilde and hbar = 1.
No module ever sees a bare frequency or a kick period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import OutOfRange

TWO_PI = 2.0 * math.pi


def acot(x: float) -> float:
    """Inverse cotangent on (0, pi), so acot(2) = atan(1/2)."""
    return math.atan2(1.0, x)


@dataclass(frozen=True)
class ModelParams:
    """The dimensionless parameter triple driving every computation.

    omega and delta are angles in radians accumulated over one kick period;
    lam is the dimensionless kick coupling.
    """

    omega: float
    delta: float
    lam: float


@dataclass(frozen=True)
class NumericsConfig:
    """Truncation and tolerance knobs shared across modules."""

    n_t: int = 18
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    overlap_threshold: float = 0.01
    eig_residual_tol: float = 1e-9


@dataclass(frozen=True)
class ValidatedConfig:
    """Immutable, validated bundle of model parameters and numerics.

    Safe to share read-only across parallel workers; construct only via
    :func:`validate_params` or :func:`make_config`.
    """

    omega: float
    delta: float
    lam: float
    n_t: int
    newton_tol: float
    newton_max_iter: int
    overlap_threshold: float
    eig_residual_tol: float

    def with_lam(self, lam: float) -> "ValidatedConfig":
        """New config at a different coupling, re-validated."""
        return validate_params(ModelParams(self.omega, self.delta, lam), self.numerics())

    def with_n_t(self, n_t: int) -> "ValidatedConfig":
        """New config at a different truncation, re-validated."""
        return validate_params(ModelParams(self.omega, self.delta, self.lam),
                               replace(self.numerics(), n_t=n_t))

    def numerics(self) -> NumericsConfig:
        return NumericsConfig(
            n_t=self.n_t,
            newton_tol=self.newton_tol,
            newton_max_iter=self.newton_max_iter,
            overlap_threshold=self.overlap_threshold,
            eig_residual_tol=self.eig_residual_tol,
        )


def validate_params(params: ModelParams, numerics: NumericsConfig | None = None) -> ValidatedConfig:
    """Check every invariant of the parameter set and freeze the result.

    Raises
    ------
    OutOfRange
        Listing *all* violated fields, not just the first.
    """
    if numerics is None:
        numerics = NumericsConfig()
    bad = []
    if not (isinstance(params.omega, (int, float)) and 0.0 < params.omega < TWO_PI):
        bad.append(f"omega must lie in (0, 2*pi), got {params.omega!r}")
    if not (isinstance(params.delta, (int, float)) and 0.0 < params.delta < TWO_PI):
        bad.append(f"delta must lie in (0, 2*pi), got {params.delta!r}")
    if not (isinstance(params.lam, (int, float)) and params.lam >= 0.0):
        bad.append(f"lambda must be >= 0, got {params.lam!r}")
    if not (isinstance(numerics.n_t, int) and numerics.n_t >= 0):
        bad.append(f"n_t must be an integer >= 0, got {numerics.n_t!r}")
    for name in ("newton_tol", "eig_residual_tol"):
        value = getattr(numerics, name)
        if not value > 0.0:
            bad.append(f"{name} must be > 0, got {value!r}")
    if not (isinstance(numerics.newton_max_iter, int) and numerics.newton_max_iter > 0):
        bad.append(f"newton_max_iter must be a positive integer, got {numerics.newton_max_iter!r}")
    if not 0.0 < numerics.overlap_threshold < 1.0:
        bad.append(f"overlap_threshold must lie in (0, 1), got {numerics.overlap_threshold!r}")
    if bad:
        raise OutOfRange(bad)
    return ValidatedConfig(
        omega=float(params.omega),
        delta=float(params.delta),
        lam=float(params.lam),
        n_t=numerics.n_t,
        newton_tol=numerics.newton_tol,
        newton_max_iter=numerics.newton_max_iter,
        overlap_threshold=numerics.overlap_threshold,
        eig_residual_tol=numerics.eig_residual_tol,
    )


def make_config(omega: float, delta: float, lam: float, **numerics) -> ValidatedConfig:
    """Convenience constructor: validate a parameter triple plus overrides."""
    return validate_params(ModelParams(omega, delta, lam), NumericsConfig(**numerics))
