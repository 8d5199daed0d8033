"""Radial series S_m(rho): closed forms, recursion, stop-rule behavior."""

import math

import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DegenerateInputError,
    DomainError,
    TruncationError,
    ZonalFunction,
    s_m_eval,
    s_m_sum,
    sphere_dim,
    zonal_eval,
)
from zonalvar import series_s


# ---------------------------------------------------------------------------
# oracles: closed geometric sums for n = 2 (weight 1) and n = 3 (weight l+1)


def geometric_sum(q: float) -> float:
    return 1.0 / (1.0 - q)


def geometric_sum_l(q: float) -> float:
    """sum l q^l = q / (1-q)^2."""
    return q / (1.0 - q) ** 2


def geometric_sum_l2(q: float) -> float:
    """sum l^2 q^l = q (1+q) / (1-q)^3."""
    return q * (1.0 + q) / (1.0 - q) ** 3


def geometric_sum_l3(q: float) -> float:
    """sum l^3 q^l = q (1 + 4q + q^2) / (1-q)^4."""
    return q * (1.0 + 4.0 * q + q * q) / (1.0 - q) ** 4


def test_closed_form_dispatch_m0():
    # (1 - e^(-2 rho))^-(n-1); at rho = ln(2)/2 and n = 3 this is 4 exactly
    assert s_m_eval(3, 0, math.log(2.0) / 2.0) == pytest.approx(4.0, rel=1e-15)
    assert s_m_eval(2, 0, 0.5) == pytest.approx(geometric_sum(math.exp(-1.0)), rel=1e-14)


def test_direct_sum_against_geometric_oracles():
    for rho in (0.05, 0.3, 0.5, 1.0):
        q = math.exp(-2.0 * rho)
        assert s_m_sum(2, 0, rho) == pytest.approx(geometric_sum(q), rel=1e-13)
        assert s_m_sum(2, 1, rho) == pytest.approx(geometric_sum_l(q), rel=1e-13)
        assert s_m_sum(2, 2, rho) == pytest.approx(geometric_sum_l2(q), rel=1e-13)
        assert s_m_sum(2, 3, rho) == pytest.approx(geometric_sum_l3(q), rel=1e-13)


def test_direct_sum_n3_weight_is_l_plus_one():
    # C(l+1, l) = l + 1, so S_1 at n=3 is sum (l+1) l q^l
    for rho in (0.1, 0.4):
        q = math.exp(-2.0 * rho)
        expected = geometric_sum_l2(q) + geometric_sum_l(q)
        assert s_m_eval(3, 1, rho) == pytest.approx(expected, rel=1e-13)


def test_spec_value_n2_m1():
    # sum l q^l with q = e^-1
    q = math.exp(-1.0)
    expected = q / (1.0 - q) ** 2
    assert expected == pytest.approx(0.920674, abs=5e-7)
    assert s_m_eval(2, 1, 0.5) == pytest.approx(expected, rel=1e-13)


def test_closed_form_agreement_full_grid():
    # the acceptance tolerance with margin: worst observed ~6e-15
    for n in range(2, 9):
        for rho in (1e-3, 0.01, 0.1, 1.0, 5.0):
            closed = (-math.expm1(-2.0 * rho)) ** (-(n - 1))
            assert abs(s_m_sum(n, 0, rho) - closed) <= 1e-13 * closed


def test_derivative_recursion_five_point():
    # S_(m+1) = -1/2 S_m' via five-point central differences
    for n in (2, 3, 5):
        for m in (0, 1, 2):
            for rho in (0.1, 0.5):
                h = 1e-4 * rho
                stencil = [s_m_eval(n, m, rho + k * h) for k in (-2, -1, 1, 2)]
                deriv = (stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * h)
                lhs = s_m_eval(n, m + 1, rho)
                assert abs(lhs + 0.5 * deriv) <= 1e-6 * abs(lhs)


def test_leading_blowup_constant():
    # rho^(n+m-1) S_m -> (n+m-2)! / ((n-2)! 2^(n+m-1)) as rho -> 0
    rho = 1e-3
    for n in (5, 6):
        for m in (1, 2):
            lead = math.factorial(n + m - 2) / (
                math.factorial(n - 2) * 2.0 ** (n + m - 1)
            )
            got = rho ** (n + m - 1) * s_m_eval(n, m, rho)
            assert abs(got - lead) <= 0.02 * lead


def test_monotone_decreasing_in_rho():
    rhos = (0.02, 0.05, 0.1, 0.3, 0.7, 1.5, 4.0)
    for n in (2, 4, 7):
        for m in (0, 1, 3):
            values = [s_m_eval(n, m, rho) for rho in rhos]
            assert all(a > b for a, b in zip(values, values[1:]))


@given(
    n=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=0, max_value=3),
    rho=st.floats(min_value=0.05, max_value=3.0),
    factor=st.floats(min_value=1.1, max_value=3.0),
)
def test_monotone_decreasing_property(n, m, rho, factor):
    assert s_m_eval(n, m, rho) > s_m_eval(n, m, rho * factor)


@given(
    n=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=0, max_value=3),
    rho=st.floats(min_value=0.05, max_value=2.0),
)
def test_increasing_in_dimension(n, m, rho):
    # the binomial weight C(l+n-2, l) grows with n termwise
    assert s_m_eval(n + 1, m, rho) > s_m_eval(n, m, rho)


def test_diagnostics_reported():
    # the stop degrees of the scalar compensated loop that s_m_sum replaced
    pins = {(3, 1, 1e-4): 197971, (250, 1, 0.1): 1834, (100, 140, 1.0): 177, (3, 1, 0.5): 43}
    for (n, m, rho), terms in pins.items():
        diag: dict = {}
        s_m_sum(n, m, rho, diagnostics=diag)
        assert diag["terms"] == terms


def test_truncation_error_when_budget_too_small(monkeypatch):
    monkeypatch.setattr(series_s, "_MIN_TERMS", 1)
    monkeypatch.setattr(series_s, "_MAX_TERMS", 4)
    with pytest.raises(TruncationError):
        s_m_sum(3, 1, 0.05)


def test_domain_errors():
    with pytest.raises(DomainError):
        s_m_eval(1, 0, 0.5)
    with pytest.raises(DomainError):
        s_m_eval(3, -1, 0.5)
    with pytest.raises(DomainError):
        s_m_eval(3, 0, 0.0)
    with pytest.raises(DomainError):
        s_m_eval(3, 0, math.inf)


def test_high_orders_match_direct_sum():
    # P_m's coefficients pass the double range here, and at m = 140 they
    # span more than 2^960; at large rho the lowest coefficients dominate.
    # At (250, 1, 0.1) the binomial weight leaves the double range from
    # l = 1498 on, before the series settles at l = 1833; at (400, 1, 0.5)
    # it reaches 1e240.  At (1500, 1, 1.0) the in-block ratios pass 1e300
    # in the first block and are folded into the log.
    cases = ((100, 100, 1.0), (100, 140, 1.0), (100, 140, 5.0), (100, 140, 50.0),
             (250, 130, 2.0), (250, 130, 300.0), (250, 200, 50.0), (250, 1, 0.1), (400, 1, 0.5),
             (1500, 1, 1.0))
    for n, m, rho in cases:
        # s_m_sum's exp(log term) carries |log term| * 2^-53, about 7e-14 at rho = 300
        assert s_m_eval(n, m, rho) == pytest.approx(s_m_sum(n, m, rho), rel=1e-13, abs=0.0)


def test_out_of_range_is_degenerate():
    with pytest.raises(DegenerateInputError):
        s_m_eval(100, 200, 1e-3)
    with pytest.raises(DegenerateInputError):
        s_m_eval(400, 0, 1e-3)
    with pytest.raises(DegenerateInputError, match=r"^S_200 series \(n=2, rho=0.001\) left the double range at l=35$"):
        s_m_sum(2, 200, 1e-3)


def test_range_error_of_a_sum_names_its_series():
    # the terms are finite, but their running sums leave the double range
    with pytest.raises(DegenerateInputError, match=r"^S_150 series \(n=2, rho=0.2478\) left the double range$"):
        s_m_sum(2, 150, 0.2478)
    f = ZonalFunction(sphere_dim(3), lambda l: 1e306 if l < 100 else 0.0)
    with pytest.raises(DegenerateInputError, match="^zonal series for coefficient rule left the double range$"):
        zonal_eval(f, 0.0)
