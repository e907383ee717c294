"""Exception hierarchy shared across the package.

Two branches matter for tooling: ValidationError covers bad shapes,
arguments and configuration (CLI exit code 2), NumericalError covers
failures of the numerics themselves such as a Riccati equation with
no stabilizing solution, rank losses or unstabilizable systems (CLI
exit code 3).
"""


class FaultFilterError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FaultFilterError):
    """Inconsistent dimensions, arguments or configuration."""


class FaultDirectionError(ValidationError):
    """Fault direction matrix is rank deficient."""


class NumericalError(FaultFilterError):
    """A numerical procedure failed to produce a usable result."""


class RiccatiError(NumericalError):
    """A discrete algebraic Riccati equation has no stabilizing solution."""


class ExcitationError(NumericalError):
    """Regression data are insufficient or not exciting enough."""


class StabilizationError(NumericalError):
    """No stabilizing gain exists or the gain computation failed."""


class WindowRankError(NumericalError):
    """A window matrix needed for estimation lost rank."""


def rewrap(err: FaultFilterError, stage: str) -> FaultFilterError:
    """Return a copy of ``err`` whose message is prefixed with a stage tag."""
    return type(err)(f"{stage}: {err}")
