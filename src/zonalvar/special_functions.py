"""Gegenbauer polynomials, binomial coefficients, and sphere surface areas.

The ultraspherical index lambda is carried as an exact ``Fraction`` wherever
it originates from a sphere dimension, because lambda = (n-1)/2 is a half
integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateInputError, DomainError

__all__ = [
    "SphereDim",
    "binomial",
    "gegenbauer_eval",
    "sphere_dim",
    "sphere_surface",
]


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); zero when b > a."""
    if a < 0 or b < 0:
        raise DomainError("binomial arguments must be nonnegative integers")
    if b > a:
        return 0
    return math.comb(a, b)


def _gamma_half_integer(two_x: int) -> float:
    """Gamma(two_x / 2) for a positive integer two_x.

    Uses Gamma(k) = (k-1)! for even two_x and
    Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!) for odd two_x.
    """
    if two_x <= 0:
        raise DomainError("Gamma(two_x / 2) needs a positive integer two_x")
    try:
        if two_x % 2 == 0:
            return float(math.factorial(two_x // 2 - 1))
        j = (two_x - 1) // 2
        # Exact rational first, one correctly rounded conversion after.
        ratio = Fraction(math.factorial(2 * j), 4**j * math.factorial(j))
        return float(ratio) * math.sqrt(math.pi)
    except OverflowError:
        raise DegenerateInputError(f"Gamma({two_x}/2) exceeds the double range") from None


_PI_LOW = 1.2246467991473532e-16  # pi - float(pi), rounded to a double


def sphere_surface(k: int) -> float:
    """Surface area 2 pi^e / Gamma(e), e = (k+1)/2, of the unit sphere S^k in
    R^(k+1), valid for k >= 1; k = 1 (a circle) weighs zonal integrals over S^2.
    From k = 343, where Gamma overflows, it is pi^j R, j = floor(e), with the
    exact R = 2 / (j-1)! or 2 4^j j! / (2j)! (sqrt(pi) cancels) rounded once,
    and pi^j corrected for float(pi)'s own error to first order (within about
    3e-16 of the true value).  From k = 438 it is below the normal double
    range and raises."""
    if k < 1:
        raise DomainError("sphere_surface needs k >= 1")
    e, rem = divmod(k + 1, 2)
    if k <= 342:
        pi_pow = math.pi**e * (math.sqrt(math.pi) if rem else 1.0)
        return 2.0 * pi_pow / _gamma_half_integer(k + 1)
    if k >= 438:
        raise DegenerateInputError(f"sigma(S^{k}) is below the normal double range")
    ratio = Fraction(2 * 4**e * math.factorial(e), math.factorial(2 * e)) if rem else Fraction(2, math.factorial(e - 1))
    shift = ratio.denominator.bit_length() - ratio.numerator.bit_length()
    # pi^e = float(pi)^e (1 + e (pi - float(pi)) / float(pi) + O(e^2 2^-104))
    pi_pow = math.pi**e * (1.0 + e * _PI_LOW / math.pi)
    return math.ldexp(pi_pow * float(ratio * 2**shift), -shift)


@dataclass(frozen=True)
class SphereDim:
    """Dimension bundle for S^n: n, lambda = (n-1)/2 kept exact, and sigma(S^n).

    sigma(S^n) is derived on access: it falls below the normal double
    range at large n, and only the kernel normalisation needs it.
    """

    n: int
    lam: Fraction

    @property
    def surface(self) -> float:
        return sphere_surface(self.n)


def sphere_dim(n: int) -> SphereDim:
    """Build the dimension bundle for S^n, n >= 2."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return SphereDim(n=n, lam=Fraction(n - 1, 2))


def _check_gegenbauer_args(l: int, lam_f: float, t: float) -> None:
    if l < 0:
        raise DomainError("degree l must be >= 0")
    if not (lam_f > 0.0 and math.isfinite(lam_f)):
        raise DomainError("lambda must be positive")
    if not -1.0 <= t <= 1.0:
        raise DomainError("t must lie in [-1, 1]")


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
    lam_f = float(lam)
    _check_gegenbauer_args(l, lam_f, t)
    return next(itertools.islice(_gegenbauer_recurrence(lam_f, t), l, None))
