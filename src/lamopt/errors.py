"""Shared exception types.

Bad input is a ``DomainError`` and exits 2; any other exception is a fault
of the program and exits 3.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class ConsistencyViolationError(RuntimeError):
    """Protocol state diverged from what certainty paging requires."""


class RegimeWarning(UserWarning):
    """An approximation is being evaluated outside its intended regime."""
