"""Gegenbauer polynomials, binomial coefficients, and sphere surface areas.

A sphere dimension is carried as n alone; each reader derives the
ultraspherical index lambda = (n-1)/2, a half integer and so an exact
float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateInputError, DomainError, _require_at_least, _require_positive

__all__ = [
    "SphereDim",
    "binomial",
    "gegenbauer_eval",
    "sphere_dim",
    "sphere_surface",
]


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); zero when b > a."""
    a = _require_at_least("a", a, 0)
    b = _require_at_least("b", b, 0)
    return math.comb(a, b)


_PI_LOW = 1.2246467991473532e-16  # pi - float(pi), rounded to a double


def sphere_surface(k: int) -> float:
    """Surface area 2 pi^e / Gamma(e), e = (k+1)/2, of the unit sphere S^k in
    R^(k+1), valid for k >= 1; k = 1 (a circle) weighs zonal integrals over S^2.
    It is pi^j R, j = floor(e), with the exact R = 2 / (j-1)! or
    2 4^j j! / (2j)! (sqrt(pi) cancels) rounded once, and pi^j corrected for
    float(pi)'s own error to first order, which leaves a few ulps.  From
    k = 438 it is below the normal double range and raises."""
    k = _require_at_least("k", k, 1)
    if k >= 438:
        raise DegenerateInputError(f"sigma(S^{k}) is below the normal double range")
    e, rem = divmod(k + 1, 2)
    num, den = (2 * 4**e * math.factorial(e), math.factorial(2 * e)) if rem else (2, math.factorial(e - 1))
    # R 2^shift lies in (1/2, 4]: the int / int division rounds it once, in range
    shift = max(den.bit_length() - num.bit_length(), 0)
    # pi^e = float(pi)^e (1 + e (pi - float(pi)) / float(pi) + O(e^2 2^-104))
    pi_pow = math.pi**e * (1.0 + e * _PI_LOW / math.pi)
    return math.ldexp(pi_pow * ((num << shift) / den), -shift)


@dataclass(frozen=True)
class SphereDim:
    """The sphere S^n, given by n alone; lambda = (n-1)/2 is derived where read.

    sigma(S^n) is derived on access: it falls below the normal double
    range at large n, and only the kernel normalisation needs it.
    """

    n: int

    @property
    def surface(self) -> float:
        return sphere_surface(self.n)


def sphere_dim(n: int) -> SphereDim:
    """Build the dimension bundle for S^n, n >= 2."""
    n = _require_at_least("n", n, 2)
    return SphereDim(n)


def _gegenbauer_recurrence(lam: float, t: float) -> Iterator[float]:
    """Yield C_0^lambda(t), C_1^lambda(t), ... by the forward three-term recurrence
    l C_l = 2 (l + lambda - 1) t C_(l-1) - (l + 2 lambda - 2) C_(l-2)."""
    two_lam = 2.0 * lam
    c_prev, c_curr = 1.0, two_lam * t
    yield c_prev
    yield c_curr
    for l in itertools.count(2):
        c_prev, c_curr = c_curr, (
            2.0 * (l + lam - 1.0) * t * c_curr - (l + two_lam - 2.0) * c_prev
        ) / l
        yield c_curr


def gegenbauer_eval(l: int, lam: Fraction | float | int, t: float) -> float:
    """Evaluate the Gegenbauer polynomial C_l^lambda(t) by forward recurrence.

    The recurrence is stable enough in double precision for l up to a few
    hundred.
    """
    l = _require_at_least("degree l", l, 0)
    lam_f = _require_positive("lambda", float(lam))
    if not -1.0 <= t <= 1.0:
        raise DomainError("t must lie in [-1, 1]")
    return next(itertools.islice(_gegenbauer_recurrence(lam_f, t), l, None))
