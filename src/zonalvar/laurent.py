"""Exact-rational truncated Laurent series and the asymptotic expansion
engine for the small-rho behaviour of the wavelet variance functionals.

A :class:`TruncatedLaurentSeries` stores finitely many exact ``Fraction``
coefficients on the exponent window [lo, order) together with the promise
that the represented function differs from the stored polynomial by
O(rho^order).  Series and :class:`NormalizedRadicalSeries` are frozen result
records, not calculators: the engine computes on integer numerators over one
common denominator (:func:`_convolve`, :func:`_divide`, :func:`_radical`) and
reduces to a ``Fraction`` once per output coefficient; the variances are one
integer pass over the numerators of A, B and C.

The S_k numerators of S^n are built once per (n, S_0 window) in a small
LRU cache, row k+1 from row k by one integer multiplication per entry, and
shared by every order m.  The A, B, C numerators and
:func:`expand_variances` are memoised per (n, m) in bounded LRU caches of
tuples and frozen objects, so repeated requests return results ``==`` to
fresh ones that no caller can alter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, _require_at_least, _require_positive

__all__ = [
    "NormalizedRadicalSeries",
    "TruncatedLaurentSeries",
    "derive_ABC",
    "expand_F",
    "expand_s0",
    "expand_sm",
    "expand_variances",
]


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


def _divide(a: list[int], b: list[int], length: int) -> tuple[list[int], int]:
    """(numerators, b_0^length): the first `length` coefficients of the
    quotient a / b of two integer polynomials over b_0^length.  Long division
    gives them as x_k = (a_k b_0^length - sum_{i<k} x_i b_(k-i)) / b_0, and
    each division is exact because x_i carries the factor b_0^(length-1-i)."""
    scale = b[0] ** length
    x: list[int] = []
    for k in range(length):
        x.append((a[k] * scale - sum(x[i] * b[k - i] for i in range(k))) // b[0])
    return x, scale


def _strip(lo: int, xs: list) -> tuple[int, list]:
    """(lo, xs) without the leading zeros of xs, lo moved past them."""
    k = next((i for i, x in enumerate(xs) if x), len(xs))
    return lo + k, xs[k:]


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
        coeffs: Iterable[int | Fraction],
        order: int | None = None,
    ) -> "TruncatedLaurentSeries":
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is None:
            order = lo + len(cs)
        if order < lo + len(cs):
            raise DomainError("order must cover the supplied coefficients")
        cs.extend([Fraction(0)] * (order - lo - len(cs)))
        lo, cs = _strip(lo, cs)
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

    def evaluate(self, rho: float) -> float:
        """Numeric value of the stored window at a given rho."""
        _require_positive("rho", rho)
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

    def evaluate(self, rho: float) -> float:
        return math.sqrt(float(self.radicand)) * rho**self.shift * self.tail.evaluate(rho)

    def __str__(self) -> str:
        prefix = f"sqrt({self.radicand})"
        if self.shift:
            prefix += f"*rho^{self.shift}"
        return f"{prefix} * ({self.tail})"


def _radical(lo: int, p: list[int], den: int) -> NormalizedRadicalSeries:
    """Square root of sum_j (p_j / den) rho^(lo+j) on the window [lo, lo + len(p)).

    With u = p / p_0 = 1 + u_1 rho + ..., the tail recursion
    s_j = (u_j - sum_{i=1}^{j-1} s_i s_(j-i)) / 2 runs on the integers
    sigma_j = 4^(j-1) p_0^(j-1) p_j - sum_{i=1}^{j-1} sigma_i sigma_(j-i),
    and s_j = sigma_j / (2^(2j-1) p_0^j).
    """
    if not p:
        raise DomainError("cannot take the square root of an all-unknown series")
    if lo % 2 != 0:
        raise DomainError("leading exponent must be even for a single-valued square root")
    sigma = [0]
    tail = [Fraction(1)]
    for j in range(1, len(p)):
        sigma.append(4 ** (j - 1) * p[0] ** (j - 1) * p[j] - sum(sigma[i] * sigma[j - i] for i in range(1, j)))
        tail.append(Fraction(sigma[j], 2 ** (2 * j - 1) * p[0] ** j))
    # NormalizedRadicalSeries rejects a radicand p_0 / den <= 0
    return NormalizedRadicalSeries(Fraction(p[0], den), lo // 2, TruncatedLaurentSeries(0, tuple(tail), len(p)))


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
    The S_k combinations do not call this per request: they read it once per
    (n, order) into the cached integer table :class:`_SRows`.
    """
    n = _require_at_least("n", n, 2)
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


class _SRows:
    """S_0's integer numerators on [lo, order) over one denominator ``den``,
    and rows 1, 2, ... of S_k numerators built from them as far as asked.

    Row k holds, at the S_0 index i (exponent i + lo), the integer
    (-1)^k (e+1)(e+2)...(e+k) num_i with e = i + lo - k: the rho^e
    coefficient of S_k times 2^k den.  Row k+1 is row k times k - lo - i
    entrywise, one multiplication per entry.
    """

    def __init__(self, n: int, order: int) -> None:
        s0 = expand_s0(n, order)
        nums, self.den = _numerators(s0.coeffs)
        self.lo = s0.lo
        self._rows = (tuple(nums),)

    def upto(self, kmax: int) -> tuple[tuple[int, ...], ...]:
        """Rows 0 .. kmax, possibly more; the table grows by a swap, never in place."""
        rows = self._rows
        if len(rows) <= kmax:
            grown = list(rows)
            for k in range(len(rows) - 1, kmax):
                grown.append(tuple([(k - self.lo - i) * x for i, x in enumerate(grown[k])]))
            rows = self._rows = tuple(grown)
        return rows


# one table per (n, S_0 order), shared by every caller
_s_rows = lru_cache(maxsize=64, typed=True)(_SRows)


def _s_numerators(n: int, tables, divisor: int) -> tuple[tuple[tuple[int, tuple[int, ...], int], ...], int]:
    """Integer numerators of the S_k combinations (1/divisor) sum w S_k, one
    window (lo, numerators, order) per ((k, w) terms, order) in tables, all
    over the one denominator returned.

    The rho^e coefficient of S_k is (-1/2)^k (e+1)(e+2)...(e+k) c_(e+k), c the
    S_0 coefficients, so no derivative series is formed: it is row k of the
    cached table :class:`_SRows` over 2^k D.  With kmax the largest k of all
    tables, each numerator is the weighted row sum of 2^(kmax-k) w row_k over
    D divisor 2^kmax.  Leading zero numerators are stripped as
    :meth:`TruncatedLaurentSeries.make` does.
    """
    kmax = max(k for terms, _ in tables for k, _ in terms)
    table = _s_rows(n, max(order + k for terms, order in tables for k, _ in terms))
    rows = table.upto(kmax)
    windows = []
    for terms, order in tables:
        lo = min(table.lo - max(k for k, _ in terms), order)
        length = order - lo
        xs = [0] * length
        for k, w in terms:
            start = lo + k - table.lo  # the S_0 index of rho^lo in row k
            if start > -length:
                v, row = w << (kmax - k), rows[k]
                for t in range(-start if start < 0 else 0, length):
                    xs[t] += v * row[start + t]
        lo, xs = _strip(lo, xs)
        windows.append((lo, tuple(xs), order))
    return tuple(windows), table.den * divisor << kmax


def _series(lo: int, xs: list[int], order: int, den: int) -> TruncatedLaurentSeries:
    """The series of the stripped integer numerators xs over den on [lo, order)."""
    return TruncatedLaurentSeries(lo, tuple(Fraction(x, den) for x in xs), order)


def expand_sm(n: int, m: int, order: int) -> TruncatedLaurentSeries:
    """S_m(rho) = (-1/2 d/d rho)^m S_0(rho) with window [-(n-1+m), order)."""
    m = _require_at_least("m", m, 0)
    (window,), den = _s_numerators(n, [([(m, 1)], order)], 1)
    return _series(*window, den)


@lru_cache(maxsize=64, typed=True)
def _abc_numerators(n: int, m: int, order: int | None) -> tuple[tuple[tuple[int, tuple[int, ...], int], ...], int]:
    """The windows of A, B and C (see :func:`derive_ABC`) as integer
    numerators over one shared denominator, also returned; memoised, so
    :func:`derive_ABC` and :func:`expand_variances` share one build per (n, m)."""
    n = _require_at_least("n", n, 2)
    m = _require_at_least("m", m, 1)
    ell = n + 2 * m
    order_ab = 4 - ell if order is None else order
    order_c = -ell if order is None else order
    return _s_numerators(n, list(zip(_abc_weights(n, m), (order_ab, order_ab, order_c))), n - 1)


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
    All three are read off one S_0 by :func:`_s_numerators`.
    """
    windows, den = _abc_numerators(n, m, order)
    return tuple(_series(*w, den) for w in windows)


@lru_cache(maxsize=64, typed=True)
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
    with no reference to any closed-form coefficient table.  Results are
    memoised per (n, m) (bounded LRU); the series are frozen, so a repeated
    call returns the same objects, ``==`` to a fresh build.  The pass runs on
    the integer numerators of A, B and C, whose shared denominator cancels;
    a product or quotient of windows keeps the shorter length.  A and B both
    lead at rho^-L with A_0 = 2 B_0, so q = 1 + O(rho) sits on [0, length).
    """
    ((la, a, _), (_, b, _), (lc, c, _)), _ = _abc_numerators(n, m, None)
    fact = math.factorial(len(a) - 1)  # e^rho = sum_j ((len-1)! / j!) rho^j / (len-1)!, known as far as A
    length = min(len(a), len(b))
    q, q_den = _divide(_convolve([fact // math.factorial(j) for j in range(len(a))], a, len(a)),
                       [2 * fact * x for x in b], length)
    qq = _convolve(q, q, length)
    qq[0] -= q_den**2
    ls, s = _strip(0, qq)
    lm = lc - la
    mom, m_den = _divide(c, a, min(len(c), len(a)))
    return (
        _series(ls, s, length, q_den**2),
        _series(lm, mom, lm + len(mom), m_den),
        _radical(ls + lm, _convolve(s, mom, min(len(s), len(mom))), q_den**2 * m_den),
    )
