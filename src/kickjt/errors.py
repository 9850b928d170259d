"""Exception hierarchy shared by all kickjt modules.  A condition that a
ValueError or a reason string names (canonical chart at a pole, too short a
curve, a failed Newton seed) has no class here."""

from __future__ import annotations


class KickJTError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(KickJTError):
    """One or more parameters violate their allowed range.

    Carries every violation found, not just the first, so callers can
    report a complete diagnosis in one pass.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonFiniteState(KickJTError, ValueError):
    """A classical phase-space coordinate is infinite or NaN."""


class TruncationLoss(KickJTError):
    """A state cannot be represented in the truncated basis to tolerance."""

    def __init__(self, loss, message=None):
        self.loss = float(loss)
        super().__init__(message or f"truncation loss {self.loss:.3e} exceeds tolerance")


class EigFailure(KickJTError):
    """Eigendecomposition residual exceeded the configured tolerance."""

    def __init__(self, max_residual, tol):
        self.max_residual = float(max_residual)
        self.tol = float(tol)
        super().__init__(f"eigenpair residual {max_residual:.3e} exceeds tolerance {tol:.3e}")


class StepUnderflow(KickJTError):
    """Adaptive continuation step shrank below the minimum without acceptance."""


class ConfigError(KickJTError):
    """Scenario configuration failed to parse or validate."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ComputeError(KickJTError):
    """A scenario computation failed after configuration was accepted."""
