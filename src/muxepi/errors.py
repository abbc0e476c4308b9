"""Exception hierarchy shared across the package."""

from numbers import Integral


class MuxepiError(Exception):
    """Base class for all errors raised by muxepi."""


class InvalidArgumentError(MuxepiError, ValueError):
    """An argument violates a documented precondition."""


class NonConvergenceError(MuxepiError):
    """An iterative solver did not converge within its iteration budget.

    Carries the last iterate and residual so callers can inspect or retry.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ConfigError(MuxepiError):
    """A configuration file or flag set could not be validated."""


def check_range(name, value, low, high=None, error=InvalidArgumentError, bounds="[]"):
    """`value` if it lies between low and high (None: unbounded), each end closed or open
    as its bracket in `bounds` says, else `error` naming it and them; NaN never lies there."""
    above = value >= low if bounds[0] == "[" else value > low
    below = high is None or (value <= high if bounds[1] == "]" else value < high)
    if above and below:
        return value
    if high is None:
        raise error(f"{name} must be {'>=' if bounds[0] == '[' else '>'} {low}, got {value}")
    raise error(f"{name} {value} outside range {bounds[0]}{low}, {high}{bounds[1]}")


def check_count(name, value, low):
    """`value` if it passes `check_range` and is a whole number, else
    InvalidArgumentError naming it: NaN, inf and 2.5 are not counts."""
    check_range(name, value, low)
    if not isinstance(value, Integral) and not (isinstance(value, float) and value.is_integer()):
        raise InvalidArgumentError(f"{name} must be a whole number, got {value}")
    return value
