"""Primitive layer: binomials, sphere surfaces, Gegenbauer."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DegenerateInputError,
    DomainError,
    binomial,
    gegenbauer_eval,
    sphere_dim,
    sphere_surface,
)


# ---------------------------------------------------------------------------
# oracles


def pascal_triangle(rows: int) -> list[list[int]]:
    """Binomial coefficients built by addition only."""
    tri = [[1]]
    for _ in range(rows - 1):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def chebyshev_u(l: int, theta: float) -> float:
    """U_l(cos theta) = sin((l+1) theta) / sin(theta); equals C_l^1."""
    s = math.sin(theta)
    if abs(s) < 1e-12:
        return float(l + 1) * (1.0 if theta < 1.0 else (-1.0) ** l)
    return math.sin((l + 1) * theta) / s


def legendre_direct(l: int, t: float) -> float:
    """P_l(t) by the Bonnet recurrence, written independently; equals C_l^(1/2)."""
    p_prev, p = 1.0, t
    if l == 0:
        return 1.0
    for k in range(2, l + 1):
        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
    return p


# ---------------------------------------------------------------------------
# binomial


def test_binomial_matches_pascal_triangle():
    tri = pascal_triangle(41)
    for a in range(41):
        for b in range(a + 1):
            assert binomial(a, b) == tri[a][b]


def test_binomial_above_diagonal_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


def test_binomial_rejects_negative_arguments():
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(4, -2)


# ---------------------------------------------------------------------------
# sphere surfaces


def test_sphere_surface_known_values():
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_sphere_surface_two_step_recurrence():
    # sigma(S^k) = 2 pi / (k - 1) * sigma(S^(k-2))
    for k in range(3, 21):
        assert sphere_surface(k) == pytest.approx(
            2.0 * math.pi / (k - 1) * sphere_surface(k - 2), rel=1e-14
        )


def gamma_formula_surface(k: int) -> float:
    """2 pi^e / Gamma(e), e = (k+1)/2, with Gamma(k) = (k-1)! for integer
    arguments and Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!); raises
    OverflowError once Gamma(e) leaves the double range (k >= 343)."""
    e, rem = divmod(k + 1, 2)
    if rem:
        gamma = float(Fraction(math.factorial(2 * e), 4**e * math.factorial(e))) * math.sqrt(math.pi)
    else:
        gamma = float(math.factorial(e - 1))
    pi_pow = math.pi**e * (math.sqrt(math.pi) if rem else 1.0)
    return 2.0 * pi_pow / gamma


def test_sphere_surface_keeps_the_gamma_formula_while_gamma_is_finite():
    # the 2 pi^e / Gamma(e) formula carries float(pi)'s own error raised to
    # the power e, about e * 3.9e-17, so the two agree to that while Gamma is
    # finite; the worst k is 6.7e-15 apart
    for k in range(1, 343):
        assert sphere_surface(k) == pytest.approx(gamma_formula_surface(k), rel=1e-14), k
    with pytest.raises(OverflowError):
        gamma_formula_surface(343)


@pytest.mark.parametrize("k", [342, 343, 400, 437])
def test_sphere_surface_matches_oracle_past_gamma_overflow(k):
    # the same exact-ratio formula on both sides of Gamma's overflow at k = 343
    with mpmath.workdps(60):
        half = mpmath.mpf(k + 1) / 2
        exact = 2 * mpmath.pi**half / mpmath.gamma(half)
        assert abs(mpmath.mpf(sphere_surface(k)) / exact - 1) <= 1e-15


def test_sphere_surface_matches_oracle_within_three_ulps():
    # pi^j times the exact rational R rounded once, with pi^j corrected for
    # float(pi)'s own error; the worst k is about 2.9 ulps off
    with mpmath.workdps(60):
        for k in range(1, 438):
            value = sphere_surface(k)
            half = mpmath.mpf(k + 1) / 2
            exact = 2 * mpmath.pi**half / mpmath.gamma(half)
            assert abs(mpmath.mpf(value) - exact) <= 3 * mpmath.mpf(math.ulp(value)), k


def test_sphere_surface_raises_below_the_normal_range():
    assert sphere_surface(437) >= sys.float_info.min
    for k in (438, 500, 10**9):
        with pytest.raises(DegenerateInputError, match="below the normal double range"):
            sphere_surface(k)


def test_sphere_dim_bundle():
    dim = sphere_dim(4)
    assert dim.n == 4
    assert dim.surface == pytest.approx(sphere_surface(4), rel=0)
    with pytest.raises(DomainError):
        sphere_dim(1)


# ---------------------------------------------------------------------------
# Gegenbauer evaluation


def test_gegenbauer_lambda_one_is_chebyshev_u():
    for l in range(0, 40):
        for theta in (0.3, 1.0, 2.0, 2.9):
            expected = chebyshev_u(l, theta)
            got = gegenbauer_eval(l, 1, math.cos(theta))
            assert got == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_gegenbauer_lambda_half_is_legendre():
    for l in range(0, 40):
        for t in (-0.9, -0.3, 0.0, 0.5, 0.99):
            assert gegenbauer_eval(l, Fraction(1, 2), t) == pytest.approx(
                legendre_direct(l, t), rel=1e-11, abs=1e-12
            )


def test_gegenbauer_low_degree_closed_forms():
    lam = 2.5
    for t in (-1.0, -0.25, 0.0, 0.7, 1.0):
        assert gegenbauer_eval(0, lam, t) == 1.0
        assert gegenbauer_eval(1, lam, t) == pytest.approx(2 * lam * t, rel=1e-15, abs=1e-15)
        c2 = 2 * lam * (lam + 1) * t * t - lam
        assert gegenbauer_eval(2, lam, t) == pytest.approx(c2, rel=1e-14, abs=1e-14)


def test_gegenbauer_at_one_is_binomial():
    for n in range(2, 9):
        lam = Fraction(n - 1, 2)
        for l in range(0, 101):
            expected = binomial(l + n - 2, l)
            got = gegenbauer_eval(l, lam, 1.0)
            assert abs(got - expected) <= 1e-12 * expected


def test_gegenbauer_parity_at_minus_one():
    for l in range(0, 30):
        lam = Fraction(3, 2)
        assert gegenbauer_eval(l, lam, -1.0) == pytest.approx(
            (-1.0) ** l * gegenbauer_eval(l, lam, 1.0), rel=1e-12
        )


@given(
    l=st.integers(min_value=0, max_value=60),
    n=st.integers(min_value=2, max_value=8),
    t=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_gegenbauer_bounded_by_value_at_one(l, n, t):
    lam = Fraction(n - 1, 2)
    # |C_l(t)| <= C_l(1) on [-1, 1]; allow recurrence roundoff
    assert abs(gegenbauer_eval(l, lam, t)) <= gegenbauer_eval(l, lam, 1.0) * (1 + 1e-9) + 1e-9


def test_gegenbauer_domain_errors():
    with pytest.raises(DomainError):
        gegenbauer_eval(-1, 1.0, 0.0)
    with pytest.raises(DomainError):
        gegenbauer_eval(2, 0.0, 0.0)
    with pytest.raises(DomainError):
        gegenbauer_eval(2, 1.0, 1.5)


def test_gegenbauer_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for l in (0, 1, 5, 30, 120):
        for n in (2, 3, 6):
            lam = Fraction(n - 1, 2)
            for t in (-1.0, -0.77, 0.13, 0.99, 1.0):
                exact = float(mp.gegenbauer(l, mp.mpf(lam.numerator) / lam.denominator, t))
                got = gegenbauer_eval(l, lam, t)
                scale = max(abs(exact), gegenbauer_eval(l, lam, 1.0) * 1e-8)
                assert abs(got - exact) <= 1e-12 * scale


def test_gegenbauer_against_mpmath_near_cancellation():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for l, n, t in ((150, 3, -0.9993), (200, 5, 0.99995), (120, 8, -0.5)):
        lam = Fraction(n - 1, 2)
        exact = float(mp.gegenbauer(l, mp.mpf(lam.numerator) / lam.denominator, t))
        got = gegenbauer_eval(l, lam, t)
        envelope = gegenbauer_eval(l, lam, 1.0)
        assert abs(got - exact) <= 1e-13 * max(abs(exact), envelope * 1e-10)
