"""Both float wavelet paths against a 60-digit mpmath oracle, and the
conditioning guarantee the S path's float evaluation rests on."""

import math

import mpmath
import pytest

from zonalvar import (
    BoundViolationError,
    poisson_uncertainty_via_s,
    poisson_wavelet_coefficients,
    poisson_wavelet_spec,
    uncertainty_product,
)
from zonalvar import variance
from zonalvar.series_s import _PositivePoly
from zonalvar.variance import _wavelet_polynomials

GRID_N = (2, 3, 5, 8, 12, 40, 100, 250, 300, 400)
GRID_M = (1, 2, 3, 4, 6, 10)
GRID_RHO = (300.0, 50.0, 5.0, 2.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
ORACLE_TOLERANCE = 1e-14
DIGITS = 60
# The coefficient-sum path sums up to ~40k terms at rho = 1e-3 and stops at
# a relative tail of 1e-14, so it is held to a looser tolerance.
COEF_GRID_N = (2, 3, 5, 8, 12)
COEF_GRID_M = (1, 2, 4)
COEF_GRID_RHO = (5.0, 2.0, 1.0, 0.3, 0.1, 1e-2, 3e-3, 1e-3)
COEF_ORACLE_TOLERANCE = 5e-11


# ---------------------------------------------------------------------------
# oracle: S_k through the finite Stirling form at 60 digits
#
# (x d/dx)^k (1-x)^-(n-1) = sum_j S(k, j) (n-1)_j x^j (1-x)^-(n-1+j), with
# S(k, j) from the explicit alternating formula (not the recurrence the
# package uses).


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


def test_coefficient_path_matches_oracle_on_fixed_grid():
    worst = (0.0, None)
    with mpmath.workdps(DIGITS):
        for n in COEF_GRID_N:
            for rho in COEF_GRID_RHO:
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
    assert worst[0] <= COEF_ORACLE_TOLERANCE, worst


# ---------------------------------------------------------------------------
# conditioning: every coefficient non-negative, deg D - deg N = 2


def test_wavelet_polynomials_have_nonnegative_coefficients():
    for n in range(2, 61):
        for m in range(1, 13):
            num, den, a, c = _wavelet_polynomials(n, m)
            for poly in (num, den, a, c):
                assert all(coeff >= 0 for coeff in poly), (n, m)
                assert poly[-1] > 0
            assert len(den) - len(num) == 2, (n, m)


def test_builder_rejects_negative_coefficients(monkeypatch):
    monkeypatch.setattr(variance, "_s_m_polynomial", lambda n, k: (0, 1, -1))
    with pytest.raises(ArithmeticError):
        _wavelet_polynomials(3, 1)


def test_large_rho_is_finite_on_s_path():
    for n, m in ((2, 1), (3, 2), (8, 4)):
        res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, 300.0))
        assert math.isfinite(res.var_space) and math.isfinite(res.var_momentum)
        assert math.isfinite(res.product)
        assert res.product >= 0.5 * n
        assert res.diagnostics == {"path": "s-series", "terms": 0}


def test_bound_violation_still_checked(monkeypatch):
    spec = poisson_wavelet_spec(3, 1, 0.1)
    space, _ = variance._wavelet_ratios(3, 1)
    monkeypatch.setattr(variance, "_wavelet_ratios", lambda n, m: (space, lambda w: 1e-6))
    with pytest.raises(BoundViolationError):
        poisson_uncertainty_via_s(spec)


def test_high_order_coefficients_are_evaluated_exactly():
    # coefficients of N and D span more than 2^1000 here (D from ~5e38 to
    # ~1e460), too wide for one float scale; both are evaluated exactly
    for n, m in ((100, 50), (100, 49)):
        num, den, _, _ = _wavelet_polynomials(n, m)
        assert max(num).bit_length() > 1100
        space, _ = variance._wavelet_ratios(n, m)
        assert space.num.floats is None and space.den.floats is None
        with mpmath.workdps(DIGITS):
            for rho in (300.0, 50.0, 10.0, 5.0, 1.0, 1e-2):
                s = {k: oracle_s(n, k, rho) for k in range(m, 2 * m + 4)}
                res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
                expected = oracle_functionals(n, m, rho, s)
                for got, e in zip((res.var_space, res.var_momentum, res.product), expected):
                    assert float(abs(got - e) / e) <= ORACLE_TOLERANCE, (n, m, rho)


def test_float_and_exact_evaluation_agree():
    for n, m in ((2, 1), (5, 3), (40, 6), (250, 10)):
        for poly in _wavelet_polynomials(n, m):
            p = _PositivePoly(poly)
            assert p.floats is not None
            for w in (1e-300, 1e-30, 0.3, 1.0, 7.5, 1e8):
                (got, e), (exact, e_exact) = p.frexp(w), p._exact_frexp(w)
                got = math.ldexp(got, e - e_exact)  # both sides as r 2^e_exact
                assert abs(got - exact) <= 8 * len(poly) * math.ulp(exact), (n, m, w)


def test_positive_poly_rejects_negative_coefficients():
    with pytest.raises(ArithmeticError):
        _PositivePoly((1, -2, 3))
