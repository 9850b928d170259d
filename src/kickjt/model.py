"""Model parameters, unit conventions and numerical configuration.

Everything downstream works in the dimensionless variables (omega, delta,
lam): the phase advance per period, the spin splitting per period and the
kick coupling strength, with mass fixed by m = 1/omega_tilde and hbar = 1.
No module ever sees a bare frequency or a kick period.

:class:`ValidatedConfig` is the one configuration type: the parameter
triple plus the numerics knobs, whose field defaults are the numerics
defaults.  It validates itself on every construction, so
``dataclasses.replace(cfg, lam=...)`` re-checks the new value too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange

TWO_PI = 2.0 * math.pi


def acot(x: float) -> float:
    """Inverse cotangent on (0, pi), so acot(2) = atan(1/2)."""
    return math.atan2(1.0, x)


def _real(value) -> bool:
    return isinstance(value, (int, float))


@dataclass(frozen=True)
class ValidatedConfig:
    """Immutable, validated bundle of model parameters and numerics.

    omega and delta are angles in radians accumulated over one kick period;
    lam is the dimensionless kick coupling.  The two fields with defaults
    are the numerics knobs: n_t, the phonon cutoff, and newton_tol, the
    fixed-point residual bound.

    Raises
    ------
    OutOfRange
        On construction, listing *all* violated fields, not just the first.
    """

    omega: float
    delta: float
    lam: float
    n_t: int = 18
    newton_tol: float = 1e-12

    def __post_init__(self):
        checks = (
            (_real(self.omega) and 0.0 < self.omega < TWO_PI,
             "omega must lie in (0, 2*pi)", self.omega),
            (_real(self.delta) and 0.0 < self.delta < TWO_PI,
             "delta must lie in (0, 2*pi)", self.delta),
            (_real(self.lam) and 0.0 <= self.lam < math.inf,
             "lambda must be finite and >= 0", self.lam),
            (isinstance(self.n_t, int) and self.n_t >= 0,
             "n_t must be an integer >= 0", self.n_t),
            (_real(self.newton_tol) and self.newton_tol > 0.0,
             "newton_tol must be > 0", self.newton_tol),
        )
        bad = [f"{message}, got {value!r}" for ok, message, value in checks if not ok]
        if bad:
            raise OutOfRange(bad)
        for name in ("omega", "delta", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
