"""Model parameters, unit conventions and numerical configuration.

Everything downstream works in the dimensionless variables (omega, delta,
lam): the phase advance per period, the spin splitting per period and the
kick coupling strength, with mass fixed by m = 1/omega_tilde and hbar = 1.
No module ever sees a bare frequency or a kick period.

:class:`ValidatedConfig` is the one configuration type: the fixed pair
(omega, delta) plus the numerics knobs, whose field defaults are the
numerics defaults.  It validates itself on every construction, so
``dataclasses.replace`` re-checks the new values too.  The coupling lam is
what every scenario sweeps, so it is not a field: each function that uses
it takes it as an argument, and those that refuse a bad one check it with
:func:`checked_coupling`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import OutOfRange

TWO_PI = 2.0 * math.pi
# largest phonon cutoff: there one complex sector block of U holds 2145^2
# entries (74 MB); far above it, listing the basis alone exhausts memory
MAX_N_T = 64


def acot(x: float) -> float:
    """Inverse cotangent on (0, pi), so acot(2) = atan(1/2)."""
    return math.atan2(1.0, x)


def _real(value) -> bool:
    return isinstance(value, numbers.Real)   # numpy's too: np.int64 is not an int


def checked_coupling(lam) -> float:
    """The coupling lam as a plain float; OutOfRange unless it is a real
    number, finite and >= 0."""
    if not (_real(lam) and 0.0 <= lam < math.inf):
        raise OutOfRange(f"lambda must be finite and >= 0, got {lam!r}")
    return float(lam)


@dataclass(frozen=True)
class ValidatedConfig:
    """Immutable, validated bundle of model parameters and numerics.

    omega and delta are angles in radians accumulated over one kick period.
    The two fields with defaults are the numerics knobs: n_t, the phonon
    cutoff (at most MAX_N_T), and newton_tol, the fixed-point residual
    bound.  The coupling is not a field (see :func:`checked_coupling`).

    Raises
    ------
    OutOfRange
        On construction, listing *all* violated fields, not just the first.
    """

    omega: float
    delta: float
    n_t: int = 18
    newton_tol: float = 1e-12

    def __post_init__(self):
        checks = (
            (_real(self.omega) and 0.0 < self.omega < TWO_PI,
             "omega must lie in (0, 2*pi)", self.omega),
            (_real(self.delta) and 0.0 < self.delta < TWO_PI,
             "delta must lie in (0, 2*pi)", self.delta),
            (isinstance(self.n_t, numbers.Integral) and 0 <= self.n_t <= MAX_N_T,
             f"n_t must be an integer in [0, {MAX_N_T}]", self.n_t),
            (_real(self.newton_tol) and self.newton_tol > 0.0,
             "newton_tol must be > 0", self.newton_tol),
        )
        bad = [f"{message}, got {value!r}" for ok, message, value in checks if not ok]
        if bad:
            raise OutOfRange(bad)
        for name in ("omega", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "n_t", int(self.n_t))
