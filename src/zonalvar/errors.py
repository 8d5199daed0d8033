"""Exception types shared across the package."""

from numbers import Integral


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateInputError(ValueError):
    """The requested functional is undefined for this input, for example the
    space-variance denominator vanishes for a constant zonal function."""


class TruncationError(RuntimeError):
    """A series sum failed to meet its tail criterion within the term budget."""


class BoundViolationError(RuntimeError):
    """A computed uncertainty product fell below n/2 by more than numerical
    tolerance, which signals a defect in the computation, not in the input."""


def _require_at_least(name: str, value: object, low: int) -> None:
    """Raise :class:`DomainError` unless ``value`` is an integer >= low."""
    if not isinstance(value, (int, Integral)):  # int first: isinstance against the ABC alone is slow
        raise DomainError(f"{name} must be an integer")
    if value < low:
        raise DomainError(f"{name} must be >= {low}")
