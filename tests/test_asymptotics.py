"""Limit values, the order-minimization, sign analysis, and residual orders."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DomainError,
    EXPANSION_TARGETS,
    compare_expansion,
    engine_expansion,
    f_derivative,
    f_function,
    f_sign_probes,
    limit_uncertainty,
    minimize_limit_over_order,
    residual_order_check,
    theorem_expansion,
)
from zonalvar import asymptotics, cli


# ---------------------------------------------------------------------------
# oracles: the general-case coefficient formulas, written out independently


def general_radicand(n: int, m: int) -> Fraction:
    ell = n + 2 * m
    return Fraction(ell * (ell + 1) * (n * n - 3 * n + 2 * (m + 1)),
                    4 * (ell - 1) * (ell - 2))


def general_var_space_rho2(n: int, m: int) -> Fraction:
    ell = n + 2 * m
    return Fraction(n * n - 3 * n + 2 * m + 2, (ell - 1) * (ell - 2))


def general_var_space_rho3(n: int, m: int) -> Fraction:
    ell = n + 2 * m
    return Fraction(-4 * (n - 1) ** 2 * (n - 3) * m,
                    (ell - 1) ** 2 * (ell - 2) * (ell - 3))


def general_product_slope(n: int, m: int) -> Fraction:
    ell = n + 2 * m
    x = n * n - 3 * n + 2 * (m + 1)
    y = 3 * n * n - 4 * n * (m + 3) - 4 * m * m + 8 * m + 9
    return Fraction(-2 * (n - 1) * m * y, (ell - 3) * (ell - 1) * (ell + 1) * x)


# ---------------------------------------------------------------------------
# limit values


def test_limit_spot_values():
    radicand, value = limit_uncertainty(3, 1)
    assert radicand == Fraction(5, 2)
    assert value == pytest.approx(1.581139, abs=5e-7)
    radicand, value = limit_uncertainty(4, 1)
    assert radicand == Fraction(21, 5)
    assert value == pytest.approx(2.049390, abs=5e-7)


def test_limit_7_3():
    # the squared limit, 1/4 factor included (see the decisions ledger on
    # the inconsistent worked example for this point)
    radicand, value = limit_uncertainty(7, 3)
    assert radicand == Fraction(273, 22)
    assert 4 * radicand == Fraction(546, 11)
    assert value == pytest.approx(math.sqrt(273 / 22), rel=1e-12)


def test_limit_matches_general_formula():
    for n in range(2, 11):
        for m in range(1, 7):
            assert limit_uncertainty(n, m)[0] == general_radicand(n, m)


def test_limit_dominates_squared_bound():
    for n in range(2, 13):
        for m in range(1, 7):
            assert limit_uncertainty(n, m)[0] >= Fraction(n * n, 4)


def test_limit_guards():
    with pytest.raises(DomainError):
        limit_uncertainty(1, 1)
    with pytest.raises(DomainError):
        limit_uncertainty(3, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: asymptotics.numerator_coefficient_table(n, 1),
        lambda n: asymptotics.denominator_coefficient_table(n, 1),
        lambda n: asymptotics.momentum_numerator_coefficient_table(n, 1),
        lambda n: theorem_expansion(n, 1),
        lambda n: engine_expansion(n, 1),
        lambda n: compare_expansion(n, 1),
        lambda n: limit_uncertainty(n, 1),
        lambda n: f_function(n, 1),
        lambda n: f_function(n, 1.5),
        lambda n: f_derivative(n, Fraction(3, 2)),
        lambda n: f_sign_probes(n),
        lambda n: minimize_limit_over_order(n),
        lambda n: residual_order_check(n, 1, "U"),
    ],
)
def test_non_integer_dimension_is_a_domain_error(call):
    with pytest.raises(DomainError, match="n must be an integer"):
        call(5.5)


# ---------------------------------------------------------------------------
# engine vs stated case formulas

FLAGGED_PAIRS = {(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)}
FLAGGED_TARGETS = {"var_space_rho3", "product_slope"}


def test_engine_matches_stated_outside_flagged_cells():
    for n in range(2, 11):
        for m in range(1, 5):
            comparison = compare_expansion(n, m)
            for target in EXPANSION_TARGETS:
                cell = comparison[target]
                if (n, m) in FLAGGED_PAIRS and target in FLAGGED_TARGETS and m >= 2:
                    continue
                assert cell["match"], (n, m, target, cell)


def test_flagged_cells_follow_general_formulas():
    # where the stated n=3 / n=4 case displays disagree with the engine, the
    # engine values coincide with the general-case formulas continued down
    for n, m in sorted(FLAGGED_PAIRS):
        engine = engine_expansion(n, m)
        assert engine.var_space_rho3 == general_var_space_rho3(n, m)
        assert engine.product_slope == general_product_slope(n, m)
        assert engine.var_space_rho2 == general_var_space_rho2(n, m)
        assert engine.product_radicand == general_radicand(n, m)


def test_general_formulas_hold_on_probed_grid():
    """The general-case formulas equal the engine on a finite grid: every
    5 <= n <= 40 with m <= 2n, and n in {2, 3, 4} with m <= 59.  This checks
    1,797 pairs; it does not prove the formulas for every (n, m)."""
    pairs = [(n, m) for n in range(5, 41) for m in range(1, 2 * n + 1)]
    pairs += [(n, m) for n in (2, 3, 4) for m in range(1, 60)]
    assert len(pairs) == 1797
    for n, m in pairs:
        ell = n + 2 * m
        engine = engine_expansion(n, m)
        assert engine.var_space_rho2 == general_var_space_rho2(n, m), (n, m)
        assert engine.var_space_rho3 == general_var_space_rho3(n, m), (n, m)
        assert engine.product_radicand == general_radicand(n, m), (n, m)
        assert engine.product_slope == general_product_slope(n, m), (n, m)
        assert engine.var_momentum_rho_minus2 == Fraction(ell * (ell + 1), 4), (n, m)
        assert engine.var_momentum_rho_minus1 == Fraction((n - 1) * m * ell, ell - 1), (n, m)


def test_mismatch_set_is_exactly_the_flagged_cells():
    mismatches = set()
    for n in range(2, 11):
        for m in range(1, 5):
            comparison = compare_expansion(n, m)
            for target in EXPANSION_TARGETS:
                if not comparison[target]["match"]:
                    mismatches.add((n, m, target))
    expected = {
        (n, m, t)
        for (n, m) in FLAGGED_PAIRS
        for t in FLAGGED_TARGETS
        if m >= 2
    }
    assert mismatches == expected


def test_theorem_and_engine_structures():
    stated = theorem_expansion(5, 2)
    engine = engine_expansion(5, 2)
    assert stated.case_id == "general"
    assert stated.coefficients == engine.coefficients
    assert theorem_expansion(3, 1).case_id == "n=3"
    assert theorem_expansion(4, 1).case_id == "n=4"
    assert theorem_expansion(2, 2).case_id == "general"


# ---------------------------------------------------------------------------
# the order-minimization and the sign analysis of F


def test_f_function_equal_endpoint_values():
    for n in (5, 6, 7, 9, 12):
        expected = Fraction(n * (n - 1) * (2 * n - 1), 2 * n - 3)
        assert f_function(n, Fraction(n, 2) - 1) == expected
        assert f_function(n, Fraction(n, 2) - Fraction(1, 2)) == expected
    assert f_function(6, 2) == Fraction(110, 3)


def test_f_function_matches_four_times_limit():
    for n in (5, 7, 10):
        for m in (1, 2, 5):
            assert f_function(n, m) == 4 * limit_uncertainty(n, m)[0]


def test_f_function_pole_rejected():
    with pytest.raises(DomainError):
        f_function(5, Fraction(-4, 2))
    with pytest.raises(DomainError):
        f_function(5, Fraction(-3, 2))


@pytest.mark.parametrize("call", [f_function, f_derivative])
@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
def test_non_finite_order_is_a_domain_error(call, m):
    with pytest.raises(DomainError, match="finite order"):
        call(5, m)


def test_f_sign_probes_expected_pattern():
    for n in (5, 7, 10, 12):
        signs = [sign for _, sign in f_sign_probes(n)]
        assert signs == [1, -1, 1, -1, -1, 1]


def test_f_derivative_sign_matches_finite_difference():
    rng = random.Random(20260816)
    checked = 0
    while checked < 20:
        n = rng.choice((5, 6, 7, 8, 10))
        m = rng.uniform(-2.0 * n, 2.0 * n)
        if min(abs(m - (1 - n) / 2), abs(m - (2 - n) / 2)) < 0.3:
            continue
        h = 1e-6 * max(1.0, abs(m))
        fd = (f_function(n, m + h) - f_function(n, m - h)) / (2 * h)
        exact = f_derivative(n, m)
        if abs(fd) < 1e-6 or abs(exact) < 1e-9:
            continue
        assert math.copysign(1.0, fd) == math.copysign(1.0, exact), (n, m)
        checked += 1


def test_minimize_small_dimensions_pick_order_one():
    for n in (2, 3, 4):
        assert minimize_limit_over_order(n).m_star == 1


def test_minimize_n5():
    result = minimize_limit_over_order(5)
    assert result.m_star == 2
    assert 4 * result.radicand == Fraction(180, 7)
    assert result.value == pytest.approx(0.5 * math.sqrt(180 / 7), rel=1e-12)
    assert result.value == pytest.approx(2.535463, abs=5e-7)


def test_minimize_n9():
    result = minimize_limit_over_order(9)
    assert result.m_star == 4
    assert result.radicand == Fraction(102, 5)


def test_minimize_identity_over_range():
    for n in range(5, 41):
        result = minimize_limit_over_order(n)
        assert result.m_star == (n - 1) // 2
        assert 4 * result.radicand == Fraction(n * (n - 1) * (2 * n - 1), 2 * n - 3)


def test_minimize_large_dimension_ratio():
    result = minimize_limit_over_order(100)
    ratio = result.value / 50.0
    assert 1.0 < ratio < 1.0001


@given(n=st.integers(min_value=5, max_value=30), m=st.integers(min_value=1, max_value=40))
def test_minimum_is_global_over_scanned_orders(n, m):
    best = minimize_limit_over_order(n)
    assert limit_uncertainty(n, m)[0] >= best.radicand


# ---------------------------------------------------------------------------
# residual orders


def test_residual_orders_meet_thresholds_spot():
    for n, m in ((2, 1), (3, 2), (5, 3)):
        assert residual_order_check(n, m, "varS").slope >= 3.5
        assert residual_order_check(n, m, "U").slope >= 1.9
        assert residual_order_check(n, m, "varM").slope >= -0.1


def test_residual_fit_structure():
    fit = residual_order_check(3, 1, "varS")
    assert not fit.vacuous
    assert len(fit.residuals) == 5
    assert fit.quantity == "varS"


def test_residual_slope_matches_polyfit():
    # the closed-form least-squares slope agrees with numpy's polyfit to
    # rounding on every pair the verify residual section fits
    log_rho = np.log(np.asarray(asymptotics._RESIDUAL_GRID))
    for n, m in cli.RESIDUAL_GRID_NM:
        for fit in asymptotics._residual_fits(n, m).values():
            expected = np.polyfit(log_rho, np.log(np.asarray(fit.residuals)), 1)[0]
            assert abs(fit.slope - expected) <= 1e-12, (n, m, fit.quantity)


def test_residual_rejects_unknown_quantity():
    with pytest.raises(DomainError):
        residual_order_check(3, 1, "energy")
