"""Variance functionals: hand-sum oracles, path equivalence, bound, degeneracies."""

import math

import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DegenerateInputError,
    ZonalFunction,
    poisson_uncertainty_via_s,
    poisson_wavelet_coefficients,
    poisson_wavelet_spec,
    rescaled_wavelet_coefficients,
    sphere_dim,
    uncertainty_product,
)


# ---------------------------------------------------------------------------
# oracles: hand-evaluated weighted sums for finite-support rules
#
# n = 2 (lambda = 1/2):  N-weight 1/(2l+1),  D_l = (l+1)/2 / ((l+1/2)(l+3/2)),
#                        M-weight l(l+1)/(2l+1)
# n = 3 (lambda = 1):    N-weight 1,          D_l-weight 1,
#                        M-weight l(l+2)


def hand_n2(coeffs: list[float]) -> tuple[float, float]:
    pairs = list(enumerate(coeffs))
    n_sum = sum(c * c / (2 * l + 1) for l, c in pairs)
    d_sum = sum(
        (l + 1) * 0.5 * coeffs[l] * coeffs[l + 1] / ((l + 0.5) * (l + 1.5))
        for l in range(len(coeffs) - 1)
    )
    m_sum = sum(l * (l + 1) * c * c / (2 * l + 1) for l, c in pairs)
    return (n_sum / d_sum) ** 2 - 1.0, m_sum / n_sum


def hand_n3(coeffs: list[float]) -> tuple[float, float]:
    n_sum = sum(c * c for c in coeffs)
    d_sum = sum(coeffs[l] * coeffs[l + 1] for l in range(len(coeffs) - 1))
    m_sum = sum(l * (l + 2) * c * c for l, c in enumerate(coeffs))
    return (n_sum / d_sum) ** 2 - 1.0, m_sum / n_sum


def finite_rule(n: int, coeffs: list[float]) -> ZonalFunction:
    values = list(coeffs)

    def coeff(l: int) -> float:
        return values[l] if l < len(values) else 0.0

    return ZonalFunction(sphere_dim(n), coeff)


# ---------------------------------------------------------------------------
# hand-sum agreement


def test_two_mode_rule_n2():
    coeffs = [1.0, 0.5]
    f = finite_rule(2, coeffs)
    var_s_expected, var_m_expected = hand_n2(coeffs)
    result = uncertainty_product(f)
    assert result.var_space == pytest.approx(var_s_expected, rel=1e-12)
    assert result.var_momentum == pytest.approx(var_m_expected, rel=1e-12)


def test_four_mode_rule_n2():
    coeffs = [0.8, 1.3, 0.6, 0.2]
    f = finite_rule(2, coeffs)
    var_s_expected, var_m_expected = hand_n2(coeffs)
    result = uncertainty_product(f)
    assert result.var_space == pytest.approx(var_s_expected, rel=1e-12)
    assert result.var_momentum == pytest.approx(var_m_expected, rel=1e-12)


def test_three_mode_rule_n3():
    coeffs = [0.9, 1.1, 0.4]
    f = finite_rule(3, coeffs)
    var_s_expected, var_m_expected = hand_n3(coeffs)
    result = uncertainty_product(f)
    assert result.var_space == pytest.approx(var_s_expected, rel=1e-12)
    assert result.var_momentum == pytest.approx(var_m_expected, rel=1e-12)
    assert result.product == math.sqrt(result.var_space * result.var_momentum)
    assert result.diagnostics["path"] == "coefficient-sum"


# ---------------------------------------------------------------------------
# Poisson wavelet paths


def test_paths_agree_on_spot_grid():
    for n, m, rho in (
        (2, 1, 0.05),
        (3, 1, 0.02),
        (3, 2, 0.5),
        (5, 3, 0.1),
        (8, 2, 1.0),
    ):
        spec = poisson_wavelet_spec(n, m, rho)
        fast = poisson_uncertainty_via_s(spec)
        direct = uncertainty_product(rescaled_wavelet_coefficients(spec))
        assert fast.var_space == pytest.approx(direct.var_space, rel=1e-9)
        assert fast.var_momentum == pytest.approx(direct.var_momentum, rel=1e-9)
        assert fast.product == pytest.approx(direct.product, rel=1e-9)
        assert fast.diagnostics["path"] == "s-series"


def test_rescaling_invariance_of_functionals():
    # wavelet and rescaled-wavelet rules differ by a constant factor only
    spec = poisson_wavelet_spec(4, 2, 0.3)
    a = uncertainty_product(poisson_wavelet_coefficients(spec))
    b = uncertainty_product(rescaled_wavelet_coefficients(spec))
    assert a.var_space == pytest.approx(b.var_space, rel=1e-10)
    assert a.var_momentum == pytest.approx(b.var_momentum, rel=1e-10)


def test_small_rho_spot_values():
    # var_S ~ rho^2/3 and var_M ~ (15/2) rho^-2 at n=3, m=1
    res = poisson_uncertainty_via_s(poisson_wavelet_spec(3, 1, 0.01))
    assert res.var_space == pytest.approx(0.01**2 / 3.0, rel=5e-3)
    assert res.var_momentum == pytest.approx(7.5 / 0.01**2, rel=5e-3)
    assert res.product == pytest.approx(math.sqrt(2.5), rel=2e-3)
    # var_M at n=2, m=1, rho=0.05: leading (L(L+1)/4) rho^-2 = 3 rho^-2
    res2 = poisson_uncertainty_via_s(poisson_wavelet_spec(2, 1, 0.05))
    assert res2.var_momentum == pytest.approx(2026.7, abs=5.0)


def test_uncertainty_bound_on_grid():
    for n in (2, 3, 5, 8):
        for m in (1, 3):
            for rho in (0.02, 0.5, 2.0):
                res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
                assert res.product >= 0.5 * n * (1.0 - 1e-9)


def test_large_rho_is_degenerate_both_paths():
    spec = poisson_wavelet_spec(3, 1, 800.0)
    with pytest.raises(DegenerateInputError):
        poisson_uncertainty_via_s(spec)
    with pytest.raises(DegenerateInputError):
        uncertainty_product(rescaled_wavelet_coefficients(spec))


def test_single_mode_rule_is_degenerate():
    # nearest-neighbor coupling vanishes, so var_S has no finite value
    f = finite_rule(3, [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateInputError, match="denominator vanishes"):
        uncertainty_product(f)


def test_zero_rule_is_degenerate():
    f = finite_rule(2, [0.0])
    with pytest.raises(DegenerateInputError):
        uncertainty_product(f)


# ---------------------------------------------------------------------------
# properties


@given(
    n=st.sampled_from([2, 3, 5]),
    coeffs=st.lists(
        st.floats(min_value=0.1, max_value=2.0), min_size=2, max_size=6
    ),
)
def test_positive_rules_respect_bound(n, coeffs):
    result = uncertainty_product(finite_rule(n, coeffs))
    assert result.var_space > 0.0
    assert result.var_momentum > 0.0
    assert result.product >= 0.5 * n * (1.0 - 1e-9)
    assert result.product == math.sqrt(result.var_space * result.var_momentum)


@given(
    rho=st.floats(min_value=0.02, max_value=2.0),
    m=st.integers(min_value=1, max_value=3),
)
def test_wavelet_paths_agree_property(rho, m):
    spec = poisson_wavelet_spec(3, m, rho)
    fast = poisson_uncertainty_via_s(spec)
    direct = uncertainty_product(rescaled_wavelet_coefficients(spec))
    assert fast.product == pytest.approx(direct.product, rel=1e-9)
