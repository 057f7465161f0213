"""Shared exception types.

Bad input is a ``DomainError`` and exits 2; any other exception is a fault
of the program and exits 3.
"""

from numbers import Integral


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class ConsistencyViolationError(RuntimeError):
    """Protocol state diverged from what certainty paging requires."""


class RegimeWarning(UserWarning):
    """An approximation is being evaluated outside its intended regime."""


def require_int(name: str, value, least: int) -> None:
    """Refuse ``value`` unless it is an integer >= ``least``: a numpy integer
    passes, a float such as 3.0 does not (``range`` refuses it), nor a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
