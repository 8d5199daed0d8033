"""Both float wavelet paths against a 60-digit mpmath oracle, and the S
path's one-rounding guarantee: at the float w it returns the exact rational
functionals, each rounded once."""

import math
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    BoundViolationError,
    DegenerateInputError,
    poisson_uncertainty_via_s,
    poisson_wavelet_coefficients,
    poisson_wavelet_spec,
    s_m_eval,
    uncertainty_product,
)
from zonalvar import laurent, series_s, variance

GRID_N = (2, 3, 5, 8, 12, 40, 100, 250, 300, 400)
GRID_M = (1, 2, 3, 4, 6, 10)
GRID_RHO = (300.0, 50.0, 5.0, 2.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
ORACLE_TOLERANCE = 1e-15
DIGITS = 60
# The coefficient-sum path sums up to ~40k terms at rho = 1e-3, stops at a
# relative term of 1e-14 and adds the geometric tail past it, so it is held
# to a looser tolerance.
COEF_GRID_N = (2, 3, 5, 8, 12)
COEF_GRID_M = (1, 2, 4)
COEF_GRID_RHO = (5.0, 2.0, 1.0, 0.3, 0.1, 1e-2, 3e-3, 1e-3)
COEF_ORACLE_TOLERANCE = 1e-13
# At rho = 1e-4 the cut tail would be about 1e-14 / (2 rho) = 5e-11 of
# var_space; the added geometric tail leaves a few times 1e-13.
SMALL_RHO = 1e-4
SMALL_RHO_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# oracle: S_k through the finite Stirling form at 60 digits
#
# (x d/dx)^k (1-x)^-(n-1) = sum_j S(k, j) (n-1)_j x^j (1-x)^-(n-1+j), with
# S(k, j) from the explicit alternating formula.  The package uses no
# Stirling numbers: it builds P_k of S_k = (1 + w)^(n-1) P_k(w) by a
# recurrence in w, which is checked here against this form.


def stirling2(k: int, j: int) -> int:
    total = sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))
    return total // math.factorial(j)


def oracle_s(n: int, k: int, rho: float) -> mpmath.mpf:
    x = mpmath.exp(-2 * mpmath.mpf(rho))
    one_minus_x = -mpmath.expm1(-2 * mpmath.mpf(rho))
    return mpmath.fsum(
        stirling2(k, j) * mpmath.rf(n - 1, j) * x**j * one_minus_x ** (-(n - 1 + j))
        for j in range(k + 1)
    )


def direct_s(n: int, k: int, rho: float) -> mpmath.mpf:
    """sum_l C(l+n-2, l) l^k exp(-2 rho l), summed until the tail is negligible."""
    x = mpmath.exp(-2 * mpmath.mpf(rho))
    peak = (n - 2 + k) / (2.0 * rho)
    total = mpmath.mpf(1 if k == 0 else 0)
    weight = mpmath.mpf(1)  # C(l+n-2, l) x^l
    l = 0
    while True:
        l += 1
        weight = weight * (l + n - 2) / l * x
        term = weight * mpmath.mpf(l) ** k
        total += term
        if l > peak and term < total * mpmath.mpf(10) ** (-(DIGITS + 5)):
            return total


def oracle_functionals(n: int, m: int, rho: float, s: dict) -> tuple:
    inv = mpmath.mpf(1) / (n - 1)
    a = 2 * inv * s[2 * m + 1] + s[2 * m]
    b = mpmath.fsum(
        math.comb(m, j) * (s[m + j + 1] * inv + s[m + j]) for j in range(m + 1)
    )
    c = 2 * inv * s[2 * m + 3] + 3 * s[2 * m + 2] + (n - 1) * s[2 * m + 1]
    q = mpmath.exp(mpmath.mpf(rho)) * a / (2 * b)
    var_space = q * q - 1
    var_momentum = c / a
    return var_space, var_momentum, mpmath.sqrt(var_space * var_momentum)


def test_oracle_matches_direct_summation():
    with mpmath.workdps(DIGITS + 10):
        for n, k, rho in ((2, 3, 1.0), (3, 5, 0.1), (5, 1, 0.5), (8, 4, 2.0), (3, 7, 1e-2)):
            exact = oracle_s(n, k, rho)
            assert abs(direct_s(n, k, rho) - exact) <= mpmath.mpf(10) ** -55 * exact


def test_s_path_matches_oracle_on_fixed_grid():
    worst = (0.0, None)
    with mpmath.workdps(DIGITS):
        for n in GRID_N:
            for rho in GRID_RHO:
                s = {k: oracle_s(n, k, rho) for k in range(1, 2 * max(GRID_M) + 4)}
                for m in GRID_M:
                    res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
                    expected = oracle_functionals(n, m, rho, s)
                    got = (res.var_space, res.var_momentum, res.product)
                    for name, g, e in zip(("var_space", "var_momentum", "product"), got, expected):
                        err = float(abs(g - e) / e)
                        if err > worst[0]:
                            worst = (err, (n, m, rho, name))
    assert worst[0] <= ORACLE_TOLERANCE, worst


def coefficient_path_worst(grid_rho: tuple) -> tuple:
    """Largest relative error of the coefficient path against the oracle
    over COEF_GRID_N x COEF_GRID_M x grid_rho, with where it occurs."""
    worst = (0.0, None)
    with mpmath.workdps(DIGITS):
        for n in COEF_GRID_N:
            for rho in grid_rho:
                s = {k: oracle_s(n, k, rho) for k in range(1, 2 * max(COEF_GRID_M) + 4)}
                for m in COEF_GRID_M:
                    spec = poisson_wavelet_spec(n, m, rho)
                    res = uncertainty_product(poisson_wavelet_coefficients(spec))
                    expected = oracle_functionals(n, m, rho, s)
                    got = (res.var_space, res.var_momentum, res.product)
                    for name, g, e in zip(("var_space", "var_momentum", "product"), got, expected):
                        err = float(abs(g - e) / e)
                        if err > worst[0]:
                            worst = (err, (n, m, rho, name))
    return worst


def test_coefficient_path_matches_oracle_on_fixed_grid():
    worst = coefficient_path_worst(COEF_GRID_RHO)
    assert worst[0] <= COEF_ORACLE_TOLERANCE, worst


def test_coefficient_path_matches_oracle_at_small_rho():
    worst = coefficient_path_worst((SMALL_RHO,))
    assert worst[0] <= SMALL_RHO_TOLERANCE, worst


# ---------------------------------------------------------------------------
# one rounding: the exact rational value at the float w, rounded once


def stirling_p(n: int, k: int) -> tuple[int, ...]:
    """The coefficients S(k, j) (n-1)_j of P_k, lowest degree first."""
    return tuple(stirling2(k, j) * math.prod(range(n - 1, n - 1 + j)) for j in range(k + 1))


def exact_p(n: int, k: int, w: Fraction) -> Fraction:
    return sum(c * w**j for j, c in enumerate(stirling_p(n, k)))


@pytest.mark.parametrize("n", [2, 3, 5, 50, 400])
def test_p_polynomials_match_stirling_form(n):
    assert list(islice(series_s._p_polynomials(n), 61)) == [stirling_p(n, k) for k in range(61)]


def test_p_polynomial_past_the_dimension_matches_stirling_form():
    assert next(islice(series_s._p_polynomials(400), 401, None)) == stirling_p(400, 401)


def test_wavelet_polynomials_match_stirling_build():
    n, m = 100, 50
    expected = []
    for terms in laurent._abc_weights(n, m):
        coeffs = [0] * (2 * m + 4)
        for k, weight in terms:
            for j, c in enumerate(stirling_p(n, k)):
                coeffs[j] += weight * c
        expected.append(tuple(coeffs))
    assert variance._wavelet_polynomials(n, m) == tuple(expected)


@given(
    n=st.integers(min_value=2, max_value=60),
    m=st.integers(min_value=1, max_value=12),
    rho=st.floats(min_value=1e-6, max_value=300.0),
)
def test_s_path_is_the_exact_value_rounded_once(n, m, rho):
    base = -math.expm1(-2.0 * rho)
    w = math.exp(-2.0 * rho) / base
    fw = Fraction(w)
    s = {k: (1 + fw) ** (n - 1) * exact_p(n, k, fw) for k in range(m, 2 * m + 4)}
    a = 2 * s[2 * m + 1] / (n - 1) + s[2 * m]
    b = sum(math.comb(m, j) * (s[m + j + 1] / (n - 1) + s[m + j]) for j in range(m + 1))
    c = 2 * s[2 * m + 3] / (n - 1) + 3 * s[2 * m + 2] + (n - 1) * s[2 * m + 1]
    res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
    assert res.var_space == float((1 + fw) / fw * a * a / (4 * b * b) - 1)
    assert res.var_momentum == float(c / a)
    try:
        expected = float(s[m] / (1 + fw) ** (n - 1) / Fraction(base) ** (n - 1))
    except OverflowError:
        with pytest.raises(DegenerateInputError):
            s_m_eval(n, m, rho)
    else:
        assert s_m_eval(n, m, rho) == expected


def test_large_rho_is_finite_on_s_path():
    for n, m in ((2, 1), (3, 2), (8, 4)):
        res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, 300.0))
        assert math.isfinite(res.var_space) and math.isfinite(res.var_momentum)
        assert math.isfinite(res.product)
        assert res.product >= 0.5 * n
        assert res.diagnostics == {"path": "s-series", "terms": 0}


def test_bound_violation_still_checked(monkeypatch):
    spec = poisson_wavelet_spec(3, 1, 0.1)
    a, b, _ = variance._wavelet_polynomials(3, 1)
    # c = a makes var_momentum 1, so the product is sqrt(var_space) < n/2
    monkeypatch.setattr(variance, "_wavelet_polynomials", lambda n, m: (a, b, a))
    with pytest.raises(BoundViolationError):
        poisson_uncertainty_via_s(spec)


def test_high_order_coefficients_are_evaluated_exactly():
    # the coefficients of a, b and c span 2^675 to 2^751 here, and at large
    # rho the lowest ones dominate; the exact evaluation does not depend on
    # the span
    for n, m in ((100, 50), (100, 49)):
        with mpmath.workdps(DIGITS):
            for rho in (300.0, 50.0, 10.0, 5.0, 1.0, 1e-2):
                s = {k: oracle_s(n, k, rho) for k in range(m, 2 * m + 4)}
                res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
                expected = oracle_functionals(n, m, rho, s)
                for got, e in zip((res.var_space, res.var_momentum, res.product), expected):
                    assert float(abs(got - e) / e) <= ORACLE_TOLERANCE, (n, m, rho)
