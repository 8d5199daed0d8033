"""Exact-rational truncated Laurent series and the asymptotic expansion
engine for the small-rho behaviour of the wavelet variance functionals.

A :class:`TruncatedLaurentSeries` stores finitely many exact ``Fraction``
coefficients on the exponent window [lo, order) together with the promise
that the represented function differs from the stored polynomial by
O(rho^order).  Series and :class:`NormalizedRadicalSeries` are frozen result
records, not calculators: the engine computes on integer numerators over one
common denominator (:func:`_convolve`, :func:`_divide`, :func:`_radical`) and
reduces to a ``Fraction`` once per output coefficient; the variances are one
integer pass over the numerators of A, B and C.  On windows this short the
interpreter's per-call work sets the cost, so the kernels are plain loops.

S_0's numerators come from one integer power recurrence
(:func:`_s0_numerators`) on the Bernoulli numbers, which are one memoised
table of integer pairs per window length (:func:`_bernoulli_pairs`).
The S_k numerators of S^n are built from them once per (n, S_0 window) in
a small LRU cache, row k+1 from row k by one integer multiplication per
entry (each S_0 index's column one running product), and shared by every
order m.  The A, B, C numerators and
:func:`expand_variances` are memoised per (n, m) in bounded LRU caches of
tuples and frozen objects, so repeated requests return results ``==`` to
fresh ones that no caller can alter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from operator import mul
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
        acc = a[k] * scale
        for i in range(k):
            acc -= x[i] * b[k - i]
        x.append(acc // b[0])
    return x, scale


def _strip(lo: int, xs: list) -> tuple[int, list]:
    """(lo, xs) without the leading zeros of xs, lo moved past them."""
    for k, x in enumerate(xs):
        if x:
            return lo + k, xs[k:]
    return lo + len(xs), xs[:0]


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
        acc = 4 ** (j - 1) * p[0] ** (j - 1) * p[j]
        for i in range(1, j):
            acc -= sigma[i] * sigma[j - i]
        sigma.append(acc)
        tail.append(Fraction(acc, 2 ** (2 * j - 1) * p[0] ** j))
    # NormalizedRadicalSeries rejects a radicand p_0 / den <= 0
    return NormalizedRadicalSeries(Fraction(p[0], den), lo // 2, TruncatedLaurentSeries(0, tuple(tail), len(p)))


@lru_cache(maxsize=64)
def _bernoulli_pairs(length: int) -> tuple[tuple[int, int], ...]:
    """b_j = 2^j B_j^+ for j < length as reduced (numerator, denominator)
    pairs; memoised per window length.  b_0 = b_1 = 1, b_2i = (-1)^(i-1) 2i
    T_i / (4^i - 1) with the tangent numbers T_i from the Knuth-Buckholtz
    integer recurrence (Brent and Harvey, 2011), and b_3 = b_5 = ... = 0.
    """
    half = (length - 1) // 2
    t = [0] + [math.factorial(k - 1) for k in range(1, half + 1)]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    pairs = [(1, 1), (1, 1)]
    for i in range(1, half + 1):
        num, den = (-1) ** (i - 1) * 2 * i * t[i], 4**i - 1
        g = math.gcd(num, den)
        pairs += [(num // g, den // g), (0, 1)]
    return tuple(pairs[:length])


def expand_F(order: int) -> TruncatedLaurentSeries:
    """F(rho) = 1 / (1 - exp(-2 rho)) with window [-1, order).

    f = 2 rho F = 2 rho / (1 - exp(-2 rho)) = sum_k 2^k B_k^+ rho^k / k! (Graham,
    Knuth and Patashnik, Concrete Mathematics, 6.5), so the rho^(k-1)
    coefficient of F is b_k / (2 k!) with b_k = 2^k B_k^+ from
    :func:`_bernoulli_pairs`, and the expansion starts
    1/(2 rho) + 1/2 + rho/6 + 0 rho^2 - rho^3/90 + ...

    For order <= -1 the requested window is empty and the all-unknown
    series O(rho^order) is returned (true, since F = Theta(rho^-1)).
    """
    order = _require_at_least("order", order, -math.inf)  # any integer
    if order <= -1:
        return TruncatedLaurentSeries.make(order, [], order)
    return TruncatedLaurentSeries.make(-1, [
        Fraction(num, 2 * den * math.factorial(k)) for k, (num, den) in enumerate(_bernoulli_pairs(order + 1))
    ])


def _s0_numerators(n: int, order: int) -> tuple[list[int], int]:
    """S_0 = F^(n-1) on [-(n-1), order) as integer numerators over their least
    common denominator; ([], 1) for an empty window.

    With a = n - 1 and f = 2 rho F = sum_j b_j rho^j / j!, b_j = 2^j B_j^+
    (see expand_F) brought to their least common denominator, g = f^a =
    sum_k c_k rho^k / k! follows J.C.P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, 4.7) in exponential form: c_0 = 1
    and c_k = sum_{j=1..k} (a C(k-1, j-1) - C(k-1, j)) b_j c_(k-j).  The c are
    kept as integers over the least common denominator of those so far; each
    c_k is summed over that denominator times the b_j's, O(k) products, and
    reduced once.  S_0 = g / (2 rho)^a, so its rho^(k-a) coefficient is
    c_k / (k! 2^a).  `order` is an int.  :func:`expand_s0` and the cached
    table :class:`_SRows` read these integers.
    """
    a = _require_at_least("n", n, 2) - 1
    length = order + a
    if length <= 0:
        return [], 1
    pairs = _bernoulli_pairs(length)
    b_den = math.lcm(*[d for _, d in pairs])
    b = [x * (b_den // d) for x, d in pairs]
    c, c_den = [1], 1
    binom = [1]  # C(k-1, j) for j = 0 .. k-1
    for k in range(1, length):
        binom.append(0)
        acc = 0
        for j in range(1, k + 1):
            if b[j]:
                acc += (a * binom[j - 1] - binom[j]) * b[j] * c[k - j]
        den = b_den * c_den
        g = math.gcd(acc, den)
        acc, den = acc // g, den // g
        grow = den // math.gcd(den, c_den)
        if grow > 1:
            c = [x * grow for x in c]
            c_den *= grow
        c.append(acc * (c_den // den))
        for j in range(k, 0, -1):  # C(k-1, j) -> C(k, j), from the top down
            binom[j] += binom[j - 1]
    # over c_den (length-1)! 2^a, entry k carries (length-1)! / k!
    fall, nums = 1, [0] * length
    for k in range(length - 1, -1, -1):
        nums[k] = c[k] * fall
        fall *= k or 1
    den = c_den * fall << a
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def expand_s0(n: int, order: int) -> TruncatedLaurentSeries:
    """S_0(rho) = F(rho)^(n-1) with window [-(n-1), order), from the
    integers of :func:`_s0_numerators`."""
    order = _require_at_least("order", order, -math.inf)
    nums, den = _s0_numerators(n, order)
    return _series(order - len(nums), nums, order, den)


def _abc_weights(n: int, m: int, lowest: int = 0) -> tuple[list[tuple[int, int]], ...]:
    """The (k, w) tables of (n-1) A, (n-1) B and (n-1) C as sums of w S_k, for

        A = 2/(n-1) S_(2m+1) + S_(2m)
        B = sum_{j=0..m} C(m, j) (S_(m+j+1)/(n-1) + S_(m+j))
        C = 2/(n-1) S_(2m+3) + 3 S_(2m+2) + (n-1) S_(2m+1)

    the three S_m combinations behind the variances of the Poisson wavelet
    of order m on S^n.  By Pascal's rule (n-1) B weighs S_(m+j) with
    C(m+1, j) + (n-2) C(m, j).  The weights are integers, so the Laurent
    engine and the S path's integer polynomials a, b, c
    (variance._wavelet_polynomials) stay exact.  B's terms with k below
    ``lowest`` are left out, apart from its top one, S_(2m+1).
    """
    n1 = n - 1
    return (
        [(2 * m + 1, 2), (2 * m, n1)],
        [
            (m + j, math.comb(m + 1, j) + (n - 2) * math.comb(m, j))
            for j in range(min(max(lowest - m, 0), m + 1), m + 2)
        ],
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
        nums, self.den = _s0_numerators(n, order)
        self.lo = order - len(nums)
        self._rows = (tuple(nums),)

    def upto(self, kmax: int) -> tuple[tuple[int, ...], ...]:
        """Rows 0 .. kmax, possibly more; the table grows by a swap, never in
        place, each new column one running product (rows empty if S_0's window is)."""
        rows = self._rows
        top = len(rows) - 1
        if top < kmax:
            lo = self.lo
            columns = [
                accumulate(range(top - lo - i, kmax - lo - i), mul, initial=x) for i, x in enumerate(rows[top])
            ]
            rows = self._rows = rows[:top] + (tuple(zip(*columns)) or ((),) * (kmax + 1 - top))
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
    tops = [max(terms)[0] for terms, _ in tables]  # each table's top S_k index
    kmax = max(tops)
    table = _s_rows(n, max([order + top for (_, order), top in zip(tables, tops)]))
    rows = table.upto(kmax)
    windows = []
    for (terms, order), top in zip(tables, tops):
        lo = min(table.lo - top, order)
        length = order - lo
        xs = [0] * length
        for k, w in terms:
            skip = table.lo - lo - k  # >= 0: row k's entry 0 sits at xs[skip]
            if skip < length:
                v = w << (kmax - k)
                for t, r in enumerate(rows[k][: length - skip], skip):
                    xs[t] += v * r
        lo, xs = _strip(lo, xs)
        windows.append((lo, tuple(xs), order))
    return tuple(windows), table.den * divisor << kmax


def _series(lo: int, xs: list[int], order: int, den: int) -> TruncatedLaurentSeries:
    """The series of the stripped integer numerators xs over den on [lo, order)."""
    return TruncatedLaurentSeries(lo, tuple([Fraction(x, den) for x in xs]), order)


def expand_sm(n: int, m: int, order: int) -> TruncatedLaurentSeries:
    """S_m(rho) = (-1/2 d/d rho)^m S_0(rho) with window [-(n-1+m), order)."""
    m = _require_at_least("m", m, 0)
    order = _require_at_least("order", order, -math.inf)
    (window,), den = _s_numerators(n, [([(m, 1)], order)], 1)
    return _series(*window, den)


@lru_cache(maxsize=64, typed=True)
def _abc_numerators(n: int, m: int, order: int | None) -> tuple[tuple[tuple[int, tuple[int, ...], int], ...], int]:
    """The windows of A, B and C (see :func:`derive_ABC`) as integer
    numerators over one shared denominator, also returned; memoised, so
    :func:`derive_ABC` and :func:`expand_variances` share one build per (n, m).

    S_k leads at rho^-(n-1+k), so on a window [., order) it adds to no
    numerator unless k > 1 - n - order; B's terms below that are not formed.
    """
    n = _require_at_least("n", n, 2)
    m = _require_at_least("m", m, 1)
    ell = n + 2 * m
    if order is None:
        order_ab, order_c = 4 - ell, -ell
    else:
        order_ab = order_c = _require_at_least("order", order, -math.inf)
    weights = _abc_weights(n, m, 2 - n - order_ab)
    return _s_numerators(n, list(zip(weights, (order_ab, order_ab, order_c))), n - 1)


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
    # e^rho = sum_j ((len-1)! / j!) rho^j / (len-1)!, known as far as A; its
    # numerators are one running product, from j = len-1 down
    exp_nums = list(accumulate(range(len(a) - 1, 0, -1), mul, initial=1))[::-1]
    length = min(len(a), len(b))
    q, q_den = _divide(_convolve(exp_nums, a, len(a)), [2 * exp_nums[0] * x for x in b], length)
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
