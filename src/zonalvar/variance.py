"""Space variance, momentum variance, and the uncertainty product of zonal
functions, plus a fast S_m path specialized to Poisson wavelets.

For a zonal function with coefficient rule f_hat on S^n (lambda = (n-1)/2)
the three coefficient-space sums are

    N = sum_l  lambda/(l+lambda) C(l+n-2, l) f_hat(l)^2
    D = sum_l  C(l+n-1, l) 2 lambda^2 f_hat(l) f_hat(l+1) / ((l+lambda)(l+lambda+1))
    M = sum_l  l lambda (l+2 lambda)/(l+lambda) C(l+n-2, l) f_hat(l)^2

and var_space = (N/D)^2 - 1, var_momentum = M/N.  The difference N - D is
accumulated term by term (each term formed as a relative deviation from the
N term), because at small scale rho the direct difference would cancel to
the rounding floor and the squared ratio would lose most of its digits.

The Poisson-wavelet path :func:`poisson_uncertainty_via_s` sums no series:
both of its functionals are ratios of exact integer polynomials in
w = 1/(e^(2 rho) - 1) with non-negative coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import BoundViolationError, DegenerateInputError, DomainError, TruncationError
from .series_s import (
    DEFAULT_TRUNCATION,
    CompensatedSum,
    SeriesTruncation,
    _PositivePoly,
    _s_m_polynomial,
    _TailStop,
)
from .zonal import PoissonWaveletSpec, ZonalFunction

__all__ = [
    "UncertaintyResult",
    "poisson_uncertainty_via_s",
    "uncertainty_product",
]

_DENOM_FLOOR = 1e-300
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class UncertaintyResult:
    """Variances and their product, with computation diagnostics.

    product equals sqrt(var_space * var_momentum) by construction.
    """

    var_space: float
    var_momentum: float
    product: float
    diagnostics: Mapping[str, object]


def _coefficient_sums(f: ZonalFunction, trunc: SeriesTruncation) -> tuple[float, float, float, dict]:
    """Accumulate (N, N - D, M) for the coefficient rule f.

    Binomial weights are taken from math.comb and converted once per term,
    so the only per-term rounding is the final float conversion.  The N - D
    accumulator forms each term as tN * (1 - ratio) with
    ratio = (l + 2 lambda)/(l + lambda + 1) * f_hat(l+1)/f_hat(l), which keeps
    the difference accurate even when N and D agree to many digits.
    """
    lam = float(f.dim.lam)
    two_lam = 2.0 * lam
    n = f.dim.n
    acc_n = CompensatedSum()
    acc_dd = CompensatedSum()  # N - D
    acc_m = CompensatedSum()
    stop_n = _TailStop(trunc)
    stop_dd = _TailStop(trunc)
    stop_m = _TailStop(trunc)
    done_n = done_dd = done_m = False
    f_curr = f.coeff(0)
    w1 = 1  # C(l+n-2, l), exact integer
    terms = 0
    for l in range(0, trunc.max_terms + 1):
        if l:
            w1 = w1 * (l + n - 2) // l
        f_next = f.coeff(l + 1)
        if not (math.isfinite(f_curr) and math.isfinite(f_next)):
            raise DomainError(f"coefficient rule returned a non-finite value near l={l}")
        try:
            w1f = float(w1)
        except OverflowError:
            raise DegenerateInputError(
                f"binomial weight C({l + n - 2}, {l}) exceeds the double range; "
                f"n={n} is too large for the coefficient sums at this rho"
            ) from None
        t_n = (lam / (l + lam)) * w1f * f_curr * f_curr
        if f_curr == 0.0:
            d_term = 0.0
        else:
            ratio = ((l + two_lam) / (l + lam + 1.0)) * (f_next / f_curr)
            d_term = t_n * (1.0 - ratio)
        t_m = l * (l + two_lam) * t_n
        acc_n.add(t_n)
        acc_dd.add(d_term)
        acc_m.add(t_m)
        terms = l + 1
        done_n = done_n or stop_n.done(l, abs(t_n), abs(acc_n.value))
        done_dd = done_dd or stop_dd.done(l, abs(d_term), abs(acc_dd.value))
        done_m = done_m or stop_m.done(l, abs(t_m), abs(acc_m.value))
        if done_n and done_dd and done_m:
            break
        f_curr = f_next
    else:
        raise TruncationError(
            f"coefficient sums for {f.label or 'coefficient rule'} did not settle "
            f"within {trunc.max_terms} terms"
        )
    info = {"terms": terms, "path": "coefficient-sum"}
    return acc_n.value, acc_dd.value, acc_m.value, info


def _assemble(n: int, var_s: float, var_m: float, diagnostics: dict) -> UncertaintyResult:
    product = math.sqrt(var_s * var_m)
    bound = 0.5 * n
    if product < bound * (1.0 - _BOUND_SLACK):
        raise BoundViolationError(
            f"uncertainty product {product} fell below n/2 = {bound}; "
            "this indicates a numerical defect"
        )
    return UncertaintyResult(var_s, var_m, product, diagnostics)


def uncertainty_product(f: ZonalFunction, trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> UncertaintyResult:
    """Both variances and their product from one pass over the coefficient sums."""
    big_n, n_minus_d, big_m, info = _coefficient_sums(f, trunc)
    if abs(big_n) < _DENOM_FLOOR:
        raise DegenerateInputError("weighted norm vanishes; all coefficients are zero")
    d = big_n - n_minus_d
    if abs(d) < _DENOM_FLOOR:
        raise DegenerateInputError(
            "space-variance denominator vanishes (constant input, or no two "
            "consecutive degrees carry weight)"
        )
    q_minus_1 = n_minus_d / d
    var_s = q_minus_1 * (q_minus_1 + 2.0)
    if var_s < 0.0:
        if var_s < -1e-12:
            raise DegenerateInputError(
                f"space variance evaluated to {var_s}, beyond the negative "
                "rounding band; the coefficient rule is numerically degenerate"
            )
        info["var_space_clamped"] = var_s
        var_s = 0.0
    return _assemble(f.dim.n, var_s, big_m / big_n, info)


def _poly_sum(*terms: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Exact sum of scale * polynomial over ``terms``, lowest degree first."""
    out = [0] * max(len(p) for _, p in terms)
    for scale, p in terms:
        for i, coeff in enumerate(p):
            out[i] += scale * coeff
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _wavelet_polynomials(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Exact integer polynomials (N, D, a, c) in w for the S-path functionals.

    With P_k from S_k = (1 + w)^(n-1) P_k(w), the common factor
    (1 + w)^(n-1) cancels from every ratio below, leaving
    a = (n-1) A, b = (n-1) B and c = (n-1) C as combinations of P_k, and
    N = (1 + w) a^2 - 4 w b^2, D = 4 w b^2, so that var_space = N / D and
    var_momentum = c / a.  The top-degree terms of N cancel exactly.

    Raises ArithmeticError if any coefficient is negative: the float
    evaluation is accurate only because every coefficient is >= 0.
    """
    n1 = n - 1
    p = {k: _s_m_polynomial(n, k) for k in range(m, 2 * m + 4)}
    a = _poly_sum((2, p[2 * m + 1]), (n1, p[2 * m]))
    b_terms = []
    for j in range(m + 1):
        b_terms += [(math.comb(m, j), p[m + j + 1]), (n1 * math.comb(m, j), p[m + j])]
    b = _poly_sum(*b_terms)
    c = _poly_sum((2, p[2 * m + 3]), (3 * n1, p[2 * m + 2]), (n1 * n1, p[2 * m + 1]))
    a2 = _poly_mul(a, a)
    wb2 = (0,) + _poly_mul(b, b)  # w b^2
    num = _poly_sum((1, a2), (1, (0,) + a2), (-4, wb2))
    den = _poly_sum((4, wb2))
    polys = (num, den, a, c)
    if any(coeff < 0 for poly in polys for coeff in poly):
        raise ArithmeticError(f"S-path polynomial for n={n}, m={m} has a negative coefficient")
    return polys


@dataclass(frozen=True)
class _PositiveRatio:
    """num(w) / den(w) for two polynomials with non-negative coefficients.

    Each side is evaluated as a mantissa and a binary exponent, so the
    ratio overflows only when its value does (then OverflowError).
    """

    num: _PositivePoly
    den: _PositivePoly

    def __call__(self, w: float) -> float:
        rn, en = self.num.frexp(w)
        rd, ed = self.den.frexp(w)
        return math.ldexp(rn / rd, en - ed)


@lru_cache(maxsize=None)
def _wavelet_ratios(n: int, m: int) -> tuple[_PositiveRatio, _PositiveRatio]:
    """(var_space, var_momentum) as functions of w, built once per (n, m)."""
    num, den, a, c = (_PositivePoly(poly) for poly in _wavelet_polynomials(n, m))
    return _PositiveRatio(num, den), _PositiveRatio(c, a)


def poisson_uncertainty_via_s(spec: PoissonWaveletSpec) -> UncertaintyResult:
    """Uncertainty product of the Poisson wavelet through the S_m sums.

    With L = n + 2m and S_k = S_k(rho):

        A = 2/(n-1) S_(2m+1) + S_(2m)
        B = sum_{j=0..m} C(m, j) (S_(m+j+1)/(n-1) + S_(m+j))
        C = 2/(n-1) S_(2m+3) + 3 S_(2m+2) + (n-1) S_(2m+1)

        var_space    = q^2 - 1,  q = e^rho A / (2 B)
        var_momentum = C / A

    Nothing is summed: with w = 1/(e^(2 rho) - 1), e^(2 rho) = (1 + w)/w and
    each S_k = (1 + w)^(n-1) P_k(w), so var_space = N(w)/D(w) and
    var_momentum = c(w)/a(w) for exact integer polynomials with
    non-negative coefficients (see :func:`_wavelet_polynomials`).  The
    small-rho cancellation in q^2 - 1 is done once, in exact arithmetic,
    when N is built.  Raises :class:`DegenerateInputError` once w underflows
    (rho above about 345) or a functional overflows.
    """
    n = spec.dim.n
    rho = spec.rho
    w = math.exp(-2.0 * rho) / -math.expm1(-2.0 * rho)
    if not w > _DENOM_FLOOR:
        raise DegenerateInputError(
            "w = 1/(e^(2 rho) - 1) underflowed; the wavelet is numerically null at this rho"
        )
    space, momentum = _wavelet_ratios(n, spec.m)
    try:
        var_s = space(w)
        var_m = momentum(w)
    except OverflowError:
        var_s = var_m = math.inf
    if not math.isfinite(var_s * var_m):
        raise DegenerateInputError(
            f"S-path functionals overflowed at rho={rho}; the configuration is numerically degenerate"
        )
    return _assemble(n, var_s, var_m, {"path": "s-series", "terms": 0})
