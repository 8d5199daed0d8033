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
both of its functionals are ratios of integer polynomials in
w = 1/(e^(2 rho) - 1), evaluated exactly at the float w and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import BoundViolationError, DegenerateInputError
from .laurent import _abc_weights
from .series_s import _TermOutOfRange, _p_polynomials, _scaled_value, _sum_blocks, _w_parts, _weight_rows
from .zonal import PoissonWaveletSpec, ZonalFunction, _block_form, _require_finite_values

__all__ = [
    "UncertaintyResult",
    "poisson_uncertainty_via_s",
    "uncertainty_product",
]

_DENOM_FLOOR = 1e-300
_BOUND_SLACK = 1e-9  # a product this far below n/2, relatively, is a defect; verify reads it too


@dataclass(frozen=True)
class UncertaintyResult:
    """Variances and their product, with computation diagnostics.

    product equals sqrt(var_space * var_momentum) by construction.
    """

    var_space: float
    var_momentum: float
    product: float
    diagnostics: Mapping[str, object]


def _coefficient_sums(f: ZonalFunction) -> tuple[list[float], list[list[float]], dict]:
    """Accumulate [N, N - D, M] for the coefficient rule f, with the last two
    terms summed of each, [t_(L-1), t_L], and the diagnostics.

    The three series are the rows (N - D, M, N) of one
    :func:`zonalvar.series_s._sum_blocks` run, each block one vector pass
    over a (3, B) array of terms.  Two rows decide the stop, N - D by its
    |terms| and M by its terms, and the sums stop at the degree where the
    later of them stops.  N needs no stop test of its own: its terms are
    never negative and M's weight l (l + 2 lambda) never decreases, so for
    the stop tolerance tol, t_M(l) <= tol S_M(l) <= tol l (l + 2 lambda) S_N(l)
    gives t_N(l) <= tol S_N(l), and an M term below M's running peak is an
    N term below N's.  Every degree small for M is small for N, so N never
    stops after M.  The rule's values come from its optional
    ``block(l0, l1)`` method (see :class:`ZonalFunction`), else from scalar
    calls.  The N - D series forms each term as tN * (1 - ratio) with
    ratio = (l + 2 lambda)/(l + lambda + 1) * f_hat(l+1)/f_hat(l), which keeps
    the difference accurate even when N and D agree to many digits, and so
    reads f_hat(l1) past each block l0 <= l < l1.  A rule with the optional
    ``log_ratio(l0, l1)`` supplies log(ratio) instead, is asked for exactly
    the degrees of each block, and the factor 1 - ratio is -expm1(log
    ratio).  Its error is then a few ulps of the log ratio's parts, not the
    last bits of f_hat(l) and f_hat(l+1), which N - D = O(N rho^2) would
    amplify about 1/rho^2 times.  The N and M weights are rows of
    :func:`zonalvar.series_s._weight_rows`, which serves the engine's first
    block from the one memo of rows per dimension.

    The engine ends the sums at their first non-finite term, at l (values
    fetched past the stop degree are ignored), with
    :class:`DegenerateInputError`, unless f_hat(l), or the f_hat(l + 1)
    that N - D reads without ``log_ratio``, is not finite: that raises
    :class:`DomainError` naming the degree of that value.  An overflowing sum
    raises :class:`DegenerateInputError` and no stop within the term
    budget :class:`TruncationError`.  The sums are the raw sums up to the
    stop degree L; :func:`uncertainty_product` adds their tails.
    """
    n = f.dim.n
    lam = (n - 1) / 2
    two_lam = 2.0 * lam
    fetch = _block_form(f.coeff)
    log_ratio = getattr(f.coeff, "log_ratio", None)
    ahead = 1 if log_ratio is None else 0  # the term at l reads f_hat(l + 1) too

    def source(l0: int, l1: int):
        k = l1 - l0
        fv = np.asarray(fetch(l0, l1 + ahead), dtype=float)
        fc = fv[:k]
        ls, _, n_weight, m_weight = _weight_rows(n, l0, l1)
        terms = np.empty((3, k))
        t_nd, t_m, t_n = terms
        np.multiply(n_weight, fc, out=t_n)
        t_n *= fc
        if log_ratio is None:  # the factor 1 - ratio
            np.divide(fv[1:], fc, out=t_nd)
            t_nd *= (ls + two_lam) / ((ls + lam) + 1.0)
            np.subtract(1.0, t_nd, out=t_nd)
        else:  # the factor -expm1(log ratio)
            np.expm1(np.asarray(log_ratio(l0, l1), dtype=float), out=t_nd)
            np.negative(t_nd, out=t_nd)
        t_nd *= t_n
        if not np.logical_and.reduce(fc):  # N - D is 0 where f_hat(l) is
            t_nd[fc == 0.0] = 0.0
        np.multiply(m_weight, t_n, out=t_m)
        return terms, np.abs(terms[:2])  # stop rows N - D and M (whose terms are >= 0)

    try:
        (n_minus_d, big_m, big_n), (end_nd, end_m, end_n), terms = _sum_blocks(
            source, f"coefficient sums for {f.label or 'coefficient rule'}"
        )
    except _TermOutOfRange as exc:
        _require_finite_values(fetch, exc.degree, exc.degree + 1 + ahead)
        raise
    return [big_n, n_minus_d, big_m], [end_n, end_nd, end_m], {"terms": terms, "path": "coefficient-sum"}


def _geometric_tail(before: float, last: float) -> float:
    """t_L q/(1 - q) with q = t_L/t_(L-1), for the last two terms summed
    ``before`` = t_(L-1) and ``last`` = t_L: the terms past the stop if each
    went on being q times the one before, the first step of Aitken's
    delta-squared extrapolation.  0 unless 0 < q < 1: a zero, growing or
    sign-changing tail gets nothing."""
    q = last / before if before else 0.0
    return last * q / (1.0 - q) if 0.0 < q < 1.0 else 0.0


def _assemble(n: int, var_s: float, var_m: float, diagnostics: dict) -> UncertaintyResult:
    product = math.sqrt(var_s * var_m)
    if not math.isfinite(product):
        raise DegenerateInputError(
            f"uncertainty product evaluated to {product}; the input is numerically degenerate"
        )
    bound = 0.5 * n
    if product < bound * (1.0 - _BOUND_SLACK):
        raise BoundViolationError(
            f"uncertainty product {product} fell below n/2 = {bound}; "
            "this indicates a numerical defect"
        )
    return UncertaintyResult(var_s, var_m, product, diagnostics)


def uncertainty_product(f: ZonalFunction) -> UncertaintyResult:
    """Both variances and their product from one pass over the coefficient sums.

    Each series stops at a degree L and leaves out the terms past it,
    t_L q/(1 - q) for terms falling by the ratio q per degree: at small
    rho, q is near e^(-2 rho) and that tail is about tol/(2 rho) of the
    sum for the stop tolerance tol.  :func:`_geometric_tail` adds it back
    to each of N, N - D and M from their last two terms summed, so what
    remains is of second order, from the change of q past the stop.
    """
    sums, ends, info = _coefficient_sums(f)
    big_n, n_minus_d, big_m = [total + _geometric_tail(before, last) for total, (before, last) in zip(sums, ends)]
    if abs(big_n) < _DENOM_FLOOR:
        last = info["terms"] - 1
        where = "nonzero but its terms underflow" if np.any(_block_form(f.coeff)(0, last + 1)) else "zero"
        raise DegenerateInputError(f"weighted norm vanishes over l=0..{last}, where the rule is {where}")
    d = big_n - n_minus_d
    if abs(d) < _DENOM_FLOOR:
        raise DegenerateInputError(
            "space-variance denominator vanishes (constant input, or no two "
            "consecutive degrees carry weight)"
        )
    q_minus_1 = n_minus_d / d
    var_s = q_minus_1 * (q_minus_1 + 2.0)
    if var_s < 0.0:
        raise DegenerateInputError(
            f"space variance evaluated to {var_s}; the coefficient rule is numerically degenerate"
        )
    return _assemble(f.dim.n, var_s, big_m / big_n, info)


@lru_cache(maxsize=64)
def _wavelet_polynomials(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Integer polynomials (a, b, c) in w, all of length 2m + 4, lowest degree first.

    With P_k from S_k = (1 + w)^(n-1) P_k(w), a = (n-1) A, b = (n-1) B and
    c = (n-1) C divided by the common factor (1 + w)^(n-1) are the sums of
    w P_k on the weight table :func:`zonalvar.laurent._abc_weights`, each
    P_k added in as :func:`zonalvar.series_s._p_polynomials` steps past it.
    """
    tables = [dict(terms) for terms in _abc_weights(n, m)]
    polys = [[0] * (2 * m + 4) for _ in tables]
    for k, p in zip(range(2 * m + 4), _p_polynomials(n)):
        for table, coeffs in zip(tables, polys):
            weight = table.get(k)
            if weight is not None:
                for j, coeff in enumerate(p):
                    coeffs[j] += weight * coeff
    return tuple(map(tuple, polys))


def poisson_uncertainty_via_s(spec: PoissonWaveletSpec) -> UncertaintyResult:
    """Uncertainty product of the Poisson wavelet through the S_m sums.

    With A, B, C the S_k(rho) combinations of the weight table
    :func:`zonalvar.laurent._abc_weights`:

        var_space    = q^2 - 1,  q = e^rho A / (2 B)
        var_momentum = C / A

    Nothing is summed: with w = 1/(e^(2 rho) - 1), e^(2 rho) = (1 + w)/w and
    each S_k = (1 + w)^(n-1) P_k(w), so

        var_space    = ((1 + w) a^2 - 4 w b^2) / (4 w b^2)
        var_momentum = c / a

    for the integer polynomials a, b, c of :func:`_wavelet_polynomials`.
    They are evaluated exactly in integers at the float w, so the small-rho
    cancellation in q^2 - 1 is exact, and each functional is rounded once.
    Raises :class:`DegenerateInputError` once w underflows (rho above about
    345) or a functional overflows.
    """
    n = spec.dim.n
    rho = spec.rho
    try:
        _, num, e = _w_parts(rho)
        if not math.ldexp(num, -e) > _DENOM_FLOOR:
            raise DegenerateInputError(
                "w = 1/(e^(2 rho) - 1) underflowed; the wavelet is numerically null at this rho"
            )
        # each scaled by the same 2^(e (2m + 3)); 1 + w = (2^e + num) / 2^e
        a, b, c = (_scaled_value(poly, num, e) for poly in _wavelet_polynomials(n, spec.m))
        wb2 = 4 * num * b * b
        var_s = (((1 << e) + num) * a * a - wb2) / wb2
        var_m = c / a
    except OverflowError:
        var_s = var_m = math.inf
    if not math.isfinite(var_s * var_m):
        raise DegenerateInputError(
            f"S-path functionals overflowed at rho={rho}; the configuration is numerically degenerate"
        )
    return _assemble(n, var_s, var_m, {"path": "s-series", "terms": 0})
