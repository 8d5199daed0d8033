"""Exception types shared across the package."""

import math
import operator

__all__ = ["BoundViolationError", "DegenerateInputError", "DomainError", "TruncationError"]


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


def _require_at_least(name: str, value: object, low: float) -> int:
    """``value`` as a plain ``int`` (by ``operator.index``, so numpy integers
    qualify); :class:`DomainError` unless it is an integer >= low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None
    if value < low:
        raise DomainError(f"{name} must be >= {low}")
    return value


def _require_positive(name: str, value: float) -> float:
    """``value`` unchanged; :class:`DomainError` unless it is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite")
    return value
