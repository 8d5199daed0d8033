"""Exact-rational truncated Laurent series and the asymptotic expansion
engine for the small-rho behaviour of the wavelet variance functionals.

A :class:`TruncatedLaurentSeries` stores finitely many exact ``Fraction``
coefficients on the exponent window [lo, order) together with the promise
that the represented function differs from the stored polynomial by
O(rho^order).  Every arithmetic operation propagates the window honestly:
the result's order is the largest exponent up to which the inputs determine
the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError

__all__ = [
    "NormalizedRadicalSeries",
    "TruncatedLaurentSeries",
    "constant_series",
    "derive_ABC",
    "exp_series",
    "expand_F",
    "expand_s0",
    "expand_sm",
    "expand_variances",
    "monomial",
    "sqrt_normalized",
]

RationalLike = Union[int, Fraction]


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """(numerators, D): the coefficients as integers over their least common denominator D."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list[int], b: list[int], length: int) -> list[int]:
    """The first `length` coefficients of the product of two integer polynomials."""
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai:
            for j, bj in enumerate(b[: length - i]):
                out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class TruncatedLaurentSeries:
    """sum_{e=lo}^{order-1} coeffs[e - lo] rho^e + O(rho^order).

    Invariants: order == lo + len(coeffs); the leading stored coefficient is
    nonzero unless the series is zero on its whole window, in which case
    coeffs is empty and lo == order.  Use :meth:`make` to construct.
    """

    lo: int
    coeffs: tuple[Fraction, ...]
    order: int

    @staticmethod
    def make(
        lo: int,
        coeffs: Iterable[RationalLike],
        order: int | None = None,
    ) -> "TruncatedLaurentSeries":
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is None:
            order = lo + len(cs)
        if order < lo + len(cs):
            raise DomainError("order must cover the supplied coefficients")
        cs.extend([Fraction(0)] * (order - lo - len(cs)))
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        if not cs:
            lo = order
        return TruncatedLaurentSeries(lo, tuple(cs), order)

    def __post_init__(self) -> None:
        if self.order != self.lo + len(self.coeffs):
            raise DomainError("window invariant violated: order != lo + len(coeffs)")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        """Exact coefficient at rho^exponent; exponents at or beyond the
        truncation order are unknown and raise :class:`DomainError`."""
        if exponent >= self.order:
            raise DomainError(
                f"coefficient at rho^{exponent} is beyond the O(rho^{self.order}) tail"
            )
        if exponent < self.lo:
            return Fraction(0)
        return self.coeffs[exponent - self.lo]

    def window_coefficients(self) -> list[tuple[int, Fraction]]:
        """(exponent, coefficient) pairs over [lo, order)."""
        return [(self.lo + i, c) for i, c in enumerate(self.coeffs)]

    def __add__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        order = min(self.order, other.order)
        lo = min(self.lo, other.lo, order)
        cs = [
            self._get(e) + other._get(e) for e in range(lo, order)
        ]
        return TruncatedLaurentSeries.make(lo, cs, order)

    def __sub__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        """Integer convolution of the numerators; one reduction per coefficient."""
        order = min(self.lo + other.order, other.lo + self.order)
        if self.is_zero or other.is_zero:
            return TruncatedLaurentSeries.make(order, [], order)
        lo = self.lo + other.lo
        length = order - lo
        (a, da), (b, db) = _numerators(self.coeffs[:length]), _numerators(other.coeffs[:length])
        return TruncatedLaurentSeries.make(lo, [Fraction(c, da * db) for c in _convolve(a, b, length)], order)

    def __truediv__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        """Long division on integer numerators a, b: the integers r_k = a_k b_0^k
        - sum_{i<k} r_i b_0^(k-1-i) b_(k-i) are the quotient's numerators over b_0^(k+1)."""
        if other.is_zero:
            raise DomainError("division by a series with no known nonzero coefficient")
        order = min(self.order - other.lo, self.lo + other.order - 2 * other.lo)
        lo = self.lo - other.lo
        length = order - lo
        if length <= 0:
            return TruncatedLaurentSeries.make(order, [], order)
        (a, da), (b, db) = _numerators(self.coeffs[:length]), _numerators(other.coeffs[:length])
        powers = [b[0] ** k for k in range(length + 1)]
        r: list[int] = []
        for k in range(length):
            r.append(a[k] * powers[k] - sum(r[i] * powers[k - 1 - i] * b[k - i] for i in range(k)))
        return TruncatedLaurentSeries.make(
            lo, [Fraction(rk * db, powers[k + 1] * da) for k, rk in enumerate(r)], order
        )

    def _get(self, exponent: int) -> Fraction:
        if self.lo <= exponent < self.order:
            return self.coeffs[exponent - self.lo]
        return Fraction(0)

    def scale(self, factor: RationalLike) -> "TruncatedLaurentSeries":
        q = Fraction(factor)
        if q == 0:
            return TruncatedLaurentSeries.make(self.order, [], self.order)
        return TruncatedLaurentSeries.make(self.lo, [q * c for c in self.coeffs], self.order)

    def shift(self, k: int) -> "TruncatedLaurentSeries":
        """Multiply by rho^k (window shifts rigidly)."""
        return TruncatedLaurentSeries(self.lo + k, self.coeffs, self.order + k)

    def agrees_with(self, other: "TruncatedLaurentSeries") -> bool:
        """Equality of all coefficients on the common known window."""
        order = min(self.order, other.order)
        lo = min(self.lo, other.lo)
        return all(self._get(e) == other._get(e) for e in range(lo, order))

    def evaluate(self, rho: float) -> float:
        """Numeric value of the stored window at a given rho."""
        if rho <= 0.0:
            raise DomainError("evaluation requires rho > 0")
        return math.fsum(float(c) * rho ** (self.lo + i) for i, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return f"O(rho^{self.order})"
        parts = []
        for e, c in self.window_coefficients():
            if c == 0:
                continue
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*rho^{e}")
        parts.append(f"O(rho^{self.order})")
        return " + ".join(parts)


def constant_series(value: RationalLike, order: int) -> TruncatedLaurentSeries:
    """The constant `value` with an O(rho^order) tail, window [0, order)."""
    if order < 1:
        raise DomainError("a constant needs order >= 1 to be visible")
    return TruncatedLaurentSeries.make(0, [Fraction(value)], order)


def monomial(coefficient: RationalLike, exponent: int, order: int | None = None) -> TruncatedLaurentSeries:
    """coefficient * rho^exponent with window [exponent, order)."""
    if order is None:
        order = exponent + 1
    return TruncatedLaurentSeries.make(exponent, [Fraction(coefficient)], order)


def exp_series(rate: RationalLike, order: int) -> TruncatedLaurentSeries:
    """Taylor window of exp(rate * rho) through O(rho^order)."""
    if order < 1:
        raise DomainError("exp_series needs order >= 1")
    r = Fraction(rate)
    coeffs = [r**j / math.factorial(j) for j in range(order)]
    return TruncatedLaurentSeries.make(0, coeffs, order)


@dataclass(frozen=True)
class NormalizedRadicalSeries:
    """sqrt(radicand) * rho^shift * tail, with tail = 1 + O(rho).

    radicand is an exact positive rational; tail is a truncated series with
    lo == 0 and leading coefficient 1.  This keeps the one genuinely
    irrational number of a square-root expansion isolated in a single
    symbolic factor.
    """

    radicand: Fraction
    shift: int
    tail: TruncatedLaurentSeries

    def __post_init__(self) -> None:
        if self.radicand <= 0:
            raise DomainError("radicand must be positive")
        if self.tail.lo != 0 or self.tail.coefficient(0) != 1:
            raise DomainError("tail must start with constant term 1")

    def squared(self) -> TruncatedLaurentSeries:
        """The exact square, a plain truncated Laurent series."""
        return (self.tail * self.tail).scale(self.radicand).shift(2 * self.shift)

    def evaluate(self, rho: float) -> float:
        return math.sqrt(float(self.radicand)) * rho**self.shift * self.tail.evaluate(rho)

    def __str__(self) -> str:
        prefix = f"sqrt({self.radicand})"
        if self.shift:
            prefix += f"*rho^{self.shift}"
        return f"{prefix} * ({self.tail})"


def sqrt_normalized(series: TruncatedLaurentSeries) -> NormalizedRadicalSeries:
    """Square root of a series with positive leading coefficient and even
    leading exponent, as sqrt(c0) rho^(lo/2) (1 + s1 rho + ...).

    The tail recursion is s_j = (u_j - sum_{i=1}^{j-1} s_i s_{j-i}) / 2
    where u is the input normalized to 1 + u_1 rho + ....
    """
    if series.is_zero:
        raise DomainError("cannot take the square root of an all-unknown series")
    c0 = series.coeffs[0]
    if c0 <= 0:
        raise DomainError("leading coefficient must be positive")
    if series.lo % 2 != 0:
        raise DomainError("leading exponent must be even for a single-valued square root")
    length = series.order - series.lo
    u = [c / c0 for c in series.coeffs]
    s = [Fraction(1)]
    for j in range(1, length):
        acc = u[j]
        for i in range(1, j):
            acc -= s[i] * s[j - i]
        s.append(acc / 2)
    tail = TruncatedLaurentSeries.make(0, s, length)
    return NormalizedRadicalSeries(radicand=c0, shift=series.lo // 2, tail=tail)


_BERNOULLI: list[Fraction] = []  # B_0, B_1^+, B_2, ..., filled on first use


def _bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_(count-1) with B_1^+ = 1/2, from a table rebuilt twice as long
    when too short.  B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)) with the tangent
    numbers T_i from the Knuth-Buckholtz integer recurrence (Brent and Harvey,
    2011); B_3, B_5, ... vanish.
    """
    if len(_BERNOULLI) < count:
        half = max(count, 2 * len(_BERNOULLI)) // 2
        t = [0] + [math.factorial(k - 1) for k in range(1, half + 1)]
        for k in range(2, half + 1):
            for j in range(k, half + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        table = [Fraction(1), Fraction(1, 2)]
        for i in range(1, half + 1):
            table += [Fraction((-1) ** (i - 1) * 2 * i * t[i], 4**i * (4**i - 1)), Fraction(0)]
        _BERNOULLI[:] = table
    return _BERNOULLI[:count]


def expand_F(order: int) -> TruncatedLaurentSeries:
    """F(rho) = 1 / (1 - exp(-2 rho)) with window [-1, order).

    f = 2 rho F = 2 rho / (1 - exp(-2 rho)) = sum_k 2^k B_k^+ rho^k / k! (Graham,
    Knuth and Patashnik, Concrete Mathematics, 6.5), so the rho^(k-1)
    coefficient of F is 2^(k-1) B_k^+ / k!, and the expansion starts
    1/(2 rho) + 1/2 + rho/6 + 0 rho^2 - rho^3/90 + ...

    For order <= -1 the requested window is empty and the all-unknown
    series O(rho^order) is returned (true, since F = Theta(rho^-1)).
    """
    if order <= -1:
        return TruncatedLaurentSeries.make(order, [], order)
    return TruncatedLaurentSeries.make(-1, [
        Fraction(b.numerator * 2**k, 2 * b.denominator * math.factorial(k))
        for k, b in enumerate(_bernoulli(order + 1))
    ])


def expand_s0(n: int, order: int) -> TruncatedLaurentSeries:
    """S_0(rho) = F(rho)^(n-1) = g / (2 rho)^a, a = n - 1, window [-a, order).

    With f = 2 rho F = sum_j b_j rho^j / j!, b_j = 2^j B_j^+ (see expand_F),
    g = f^a = sum_k c_k rho^k / k! follows J.C.P. Miller's power recurrence
    (Knuth, TAOCP vol. 2, 4.7) in exponential form: c_0 = 1 and
    c_k = sum_{j=1..k} ((a+1) C(k-1, j-1) - C(k, j)) b_j c_(k-j).  Each c_k is
    summed in integers over the common denominators of the b_j and of the
    earlier c, and reduced once: O(len^2) in the window length order + a, whatever n.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    a = n - 1
    length = order + a
    if length <= 0:
        return TruncatedLaurentSeries.make(order, [], order)
    b, b_den = _numerators(tuple(bk * 2**k for k, bk in enumerate(_bernoulli(length))))
    c = [Fraction(1)]
    c_den = 1  # lcm of the denominators in c
    for k in range(1, length):
        acc = sum(
            ((a + 1) * math.comb(k - 1, j - 1) - math.comb(k, j)) * b[j]
            * c[k - j].numerator * (c_den // c[k - j].denominator)
            for j in range(1, k + 1) if b[j]
        )
        c.append(Fraction(acc, b_den * c_den))
        c_den = math.lcm(c_den, c[-1].denominator)
    g = [Fraction(ck.numerator, ck.denominator * math.factorial(k) * 2**a) for k, ck in enumerate(c)]
    return TruncatedLaurentSeries.make(-a, g, order)


def _abc_weights(n: int, m: int) -> tuple[list[tuple[int, int]], ...]:
    """The (k, w) tables of (n-1) A, (n-1) B and (n-1) C as sums of w S_k, for

        A = 2/(n-1) S_(2m+1) + S_(2m)
        B = sum_{j=0..m} C(m, j) (S_(m+j+1)/(n-1) + S_(m+j))
        C = 2/(n-1) S_(2m+3) + 3 S_(2m+2) + (n-1) S_(2m+1)

    the three S_m combinations behind the variances of the Poisson wavelet
    of order m on S^n.  By Pascal's rule (n-1) B weighs S_(m+j) with
    C(m+1, j) + (n-2) C(m, j).  The weights are integers, so the Laurent
    engine and the S path's integer polynomials a, b, c
    (variance._wavelet_polynomials) stay exact.
    """
    n1 = n - 1
    return (
        [(2 * m + 1, 2), (2 * m, n1)],
        [(m + j, math.comb(m + 1, j) + (n - 2) * math.comb(m, j)) for j in range(m + 2)],
        [(2 * m + 3, 2), (2 * m + 2, 3 * n1), (2 * m + 1, n1 * n1)],
    )


def _s_combination(s0: TruncatedLaurentSeries, terms, divisor: int, order: int) -> TruncatedLaurentSeries:
    """(1/divisor) sum of w S_k over the integer (k, w) in terms, through
    O(rho^order); s0 must be known to order + k for every k.

    The rho^e coefficient of S_k is (-1/2)^k (e+1)(e+2)...(e+k) c_(e+k), c the
    S_0 coefficients, so no derivative series is formed.  With c_j = num_j / D,
    each output coefficient is the integer sum of (-1)^k 2^(kmax-k)
    (e+1)...(e+k) w num_(e+k), reduced once by D divisor 2^kmax.
    """
    kmax = max(k for k, _ in terms)
    nums, den = _numerators(s0.coeffs)
    scaled = [(k, (-1) ** k * 2 ** (kmax - k) * w) for k, w in terms]
    lo = min(s0.lo - kmax, order)
    cs = []
    for e in range(lo, order):
        j = e - s0.lo
        cs.append(sum(v * math.prod(range(e + 1, e + k + 1)) * nums[j + k] for k, v in scaled if j + k >= 0))
    return TruncatedLaurentSeries.make(lo, [Fraction(c, den * divisor * 2**kmax) for c in cs], order)


def expand_sm(n: int, m: int, order: int) -> TruncatedLaurentSeries:
    """S_m(rho) = (-1/2 d/d rho)^m S_0(rho) with window [-(n-1+m), order)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return _s_combination(expand_s0(n, order + m), [(m, 1)], 1, order)


def derive_ABC(
    n: int,
    m: int,
    order: int | None = None,
) -> tuple[TruncatedLaurentSeries, TruncatedLaurentSeries, TruncatedLaurentSeries]:
    """Exact expansions of the three S_m combinations A, B, C behind the
    variances, as defined on the weight table :func:`_abc_weights`.

    With L = n + 2m, the default windows keep exactly the four leading
    coefficients of A and B (orders 4 - L) and the two leading coefficients
    of C (order -L); pass `order` to widen or narrow all three uniformly.
    All three are read off one S_0 by :func:`_s_combination`.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if m < 1:
        raise DomainError("m must be >= 1")
    ell = n + 2 * m
    order_ab = 4 - ell if order is None else order
    order_c = -ell if order is None else order
    # S_k needs S_0 through order + k: k <= 2m+1 in A and B, k <= 2m+3 in C.
    s0 = expand_s0(n, max(order_ab + 2 * m + 1, order_c + 2 * m + 3))
    a_terms, b_terms, c_terms = _abc_weights(n, m)
    return (
        _s_combination(s0, a_terms, n - 1, order_ab),
        _s_combination(s0, b_terms, n - 1, order_ab),
        _s_combination(s0, c_terms, n - 1, order_c),
    )


def expand_variances(
    n: int,
    m: int,
) -> tuple[TruncatedLaurentSeries, TruncatedLaurentSeries, NormalizedRadicalSeries]:
    """Exact small-rho expansions of the wavelet variance functionals.

    Returns (var_space, var_momentum, product) where

        var_space    = (e^rho A / (2B))^2 - 1        window [2, 4)
        var_momentum = C / A                         window [-2, 0)
        product      = sqrt(var_space * var_momentum), a normalized radical
                       with tail window [0, 2): U = U0 (1 + slope rho + O(rho^2))

    All coefficients are exact rationals derived from the defining series,
    with no reference to any closed-form coefficient table.
    """
    a_series, b_series, c_series = derive_ABC(n, m)
    e_rho = exp_series(1, 4)
    q = (e_rho * a_series) / b_series.scale(2)
    var_space = q * q - constant_series(1, 4)
    var_momentum = c_series / a_series
    product_sq = var_space * var_momentum
    return var_space, var_momentum, sqrt_normalized(product_sq)
