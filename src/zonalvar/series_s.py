"""The radial sums S_m(rho) = sum_{l>=0} C(l+n-2, l) l^m exp(-2 rho l).

Every S_m is a finite rational function of x = exp(-2 rho).  Applying
(x d/dx)^m = sum_j S(m, j) x^j D^j (Stirling numbers of the second kind)
to sum_l C(l+n-2, l) x^l = (1-x)^-(n-1) gives, with w = x/(1-x) =
1/(e^(2 rho) - 1),

    S_m(rho) = (1 + w)^(n-1) P_m(w),   P_m(w) = sum_j S(m, j) (n-1)_j w^j,

where (a)_j is the rising factorial.  P_m has integer coefficients, so
at the float w = num / 2^e it is evaluated exactly in integers
(:func:`_scaled_value`), and :func:`s_m_eval` divides once, with Python's
correctly rounded int / int, for every n, m and rho.  The S path of
:func:`zonalvar.variance.poisson_uncertainty_via_s` evaluates its
polynomials the same way.

:func:`s_m_sum` sums the series directly and is kept as the independent
reference.  For small rho its terms climb over many decades before peaking
near l* = (n - 2 + m) / (2 rho), so the accumulator is compensated, term
magnitudes are built in log space, and the stop rule refuses to trust
small terms until the envelope has passed its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateInputError, DomainError, TruncationError

__all__ = [
    "DEFAULT_TRUNCATION",
    "CompensatedSum",
    "SeriesTruncation",
    "s_m_eval",
    "s_m_peak_index",
    "s_m_sum",
]


@dataclass(frozen=True)
class SeriesTruncation:
    """Stop policy for the series accumulators.

    A partial sum is accepted once the current term has dropped below
    rel_tol times the accumulated value for a few consecutive terms, after
    the term envelope has passed its peak and at least min_terms terms are
    in.  Exceeding max_terms raises :class:`TruncationError`.
    """

    rel_tol: float = 1e-14
    min_terms: int = 16
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise DomainError("rel_tol must lie in (0, 1e-6]")
        if self.min_terms < 1:
            raise DomainError("min_terms must be >= 1")
        if self.max_terms < self.min_terms:
            raise DomainError("max_terms must be >= min_terms")


DEFAULT_TRUNCATION = SeriesTruncation()


class CompensatedSum:
    """Neumaier variant of compensated summation."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - s) + x
        else:
            self._c += (x - s) + self._s
        self._s = s

    @property
    def value(self) -> float:
        return self._s + self._c


class _TailStop:
    """Shared stop rule for series whose term envelope rises then decays.

    ``done(index, term_abs, sum_abs)`` must be called once per term, in
    order.  It reports True when at least ``min_terms`` terms are in, the
    envelope is past its peak (the index exceeds ``peak_hint`` or the
    running maximum strictly dominates the current term), and
    term_abs <= rel_tol * sum_abs held for three terms in a row.  A run of
    ``ZERO_RUN`` exactly zero terms also stops the sum: the tail is then
    identically zero in double precision and the accumulated value, possibly
    0.0, is the answer; the caller decides whether that is degenerate.
    """

    ZERO_RUN = 1024

    __slots__ = (
        "_trunc",
        "_peak_hint",
        "_tail_weight",
        "_peak_seen",
        "_small_run",
        "_zero_run",
    )

    def __init__(
        self,
        trunc: SeriesTruncation,
        peak_hint: int | None = None,
        tail_weight: float = 1.0,
    ):
        self._trunc = trunc
        self._peak_hint = peak_hint
        # Estimated ratio of the whole remaining tail to the current term;
        # for a slowly decaying series the tail holds ~1/(1-q) terms' worth.
        self._tail_weight = max(1.0, tail_weight)
        self._peak_seen = 0.0
        self._small_run = 0
        self._zero_run = 0

    def done(self, index: int, term_abs: float, sum_abs: float) -> bool:
        if term_abs > self._peak_seen:
            self._peak_seen = term_abs
        past_peak = term_abs < self._peak_seen or (
            self._peak_hint is not None and index > self._peak_hint
        )
        if term_abs == 0.0:
            self._zero_run += 1
        else:
            self._zero_run = 0
        if past_peak and term_abs * self._tail_weight <= self._trunc.rel_tol * sum_abs:
            self._small_run += 1
        else:
            self._small_run = 0
        if index + 1 < self._trunc.min_terms:
            return False
        if self._small_run >= 3:
            return True
        return self._zero_run >= self.ZERO_RUN


def _validate_smn(n: int, m: int, rho: float) -> None:
    if n < 2:
        raise DomainError("n must be >= 2")
    if m < 0:
        raise DomainError("m must be >= 0")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError("rho must be positive and finite")


def s_m_peak_index(n: int, m: int, rho: float) -> int:
    """Index near which the term C(l+n-2, l) l^m exp(-2 rho l) peaks."""
    return math.ceil((n - 2 + m) / (2.0 * rho))


def s_m_sum(
    n: int,
    m: int,
    rho: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    diagnostics: dict | None = None,
) -> float:
    """Sum the series for S_m(rho) directly under the given stop policy.

    The binomial weight is carried as a running log via compensated
    addition of log1p((n-2)/l), which keeps the term magnitudes accurate
    over the full dynamic range of small-rho sums.
    """
    _validate_smn(n, m, rho)
    acc = CompensatedSum()
    if m == 0:
        acc.add(1.0)  # the l = 0 term; for m >= 1 it vanishes
    log_w = CompensatedSum()
    # Past the peak the terms decay roughly geometrically with ratio
    # e^{-2 rho}, so the uncut tail is ~1/(1 - e^{-2 rho}) current terms;
    # the factor 2 absorbs the slower decay of the polynomial prefactor.
    tail_weight = 2.0 / -math.expm1(-2.0 * rho)
    stop = _TailStop(trunc, peak_hint=s_m_peak_index(n, m, rho), tail_weight=tail_weight)
    two_rho = 2.0 * rho
    for l in range(1, trunc.max_terms + 1):
        log_w.add(math.log1p((n - 2) / l))
        log_term = log_w.value - two_rho * l
        if m:
            log_term += m * math.log(l)
        term = math.exp(log_term)
        acc.add(term)
        if stop.done(l, term, abs(acc.value)):
            if diagnostics is not None:
                diagnostics["terms"] = l + 1
                diagnostics["last_term"] = term
            return acc.value
    raise TruncationError(
        f"S_{m} series (n={n}, rho={rho}) did not settle within {trunc.max_terms} terms"
    )


def _stirling2_row(k: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(k, j) for j = 0..k."""
    row = (1,)
    for i in range(1, k + 1):
        prev = row + (0,)
        row = tuple(j * prev[j] + (prev[j - 1] if j else 0) for j in range(i + 1))
    return row


@lru_cache(maxsize=None)
def _s_m_polynomial(n: int, m: int) -> tuple[int, ...]:
    """Coefficients of P_m(w) = sum_j S(m, j) (n-1)_j w^j, lowest degree first.

    S_m(rho) = (1 + w)^(n-1) P_m(w) with w = 1/(e^(2 rho) - 1); every
    coefficient is a non-negative integer.
    """
    coeffs = []
    rising = 1  # (n-1)_j
    for j, stirling in enumerate(_stirling2_row(m)):
        coeffs.append(stirling * rising)
        rising *= n - 1 + j
    return tuple(coeffs)


def _scaled_value(coeffs: tuple[int, ...], num: int, e: int) -> int:
    """2^(e d) p(num / 2^e) for p = sum_j coeffs[j] w^j of degree d, exactly.

    Horner from the top degree on integers: sum_j c_j num^j 2^(e (d - j)).
    """
    acc = 0
    for i, coeff in enumerate(reversed(coeffs)):
        acc = acc * num + (coeff << (e * i))
    return acc


def s_m_eval(n: int, m: int, rho: float) -> float:
    """S_m(rho) = P_m(w) / base^(n-1), correctly rounded, for the floats
    base = -expm1(-2 rho) and w = exp(-2 rho) / base.

    No series is summed: P_m is evaluated exactly in integers at w and the
    quotient is rounded once.  For m = 0, P_0 = 1 and this is the
    geometric-series power (1 - exp(-2 rho))^-(n-1).  Raises
    :class:`DegenerateInputError` when S_m(rho) exceeds the double range.
    """
    _validate_smn(n, m, rho)
    base = -math.expm1(-2.0 * rho)
    w = math.exp(-2.0 * rho) / base
    coeffs = _s_m_polynomial(n, m)
    try:
        num, den = w.as_integer_ratio()
        e = den.bit_length() - 1  # den = 2^e
        b_num, b_den = base.as_integer_ratio()
        return (_scaled_value(coeffs, num, e) * b_den ** (n - 1)) / (
            b_num ** (n - 1) << (e * (len(coeffs) - 1))
        )
    except OverflowError:
        raise DegenerateInputError(f"S_{m}(rho={rho}) for n={n} exceeds the double range") from None
