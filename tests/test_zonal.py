"""Zonal functions: kernel closed form, wavelet coefficient rules, series evaluation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DomainError,
    SeriesTruncation,
    ZonalFunction,
    capped_wavelet_coefficients,
    poisson_kernel_coefficients,
    poisson_kernel_eval,
    poisson_wavelet_coefficients,
    poisson_wavelet_spec,
    sphere_dim,
    sphere_surface,
    zonal_eval,
)
import zonalvar
from zonalvar.zonal import _PoissonRule


# ---------------------------------------------------------------------------
# oracles


def kernel_direct(n: int, rho: float, theta: float) -> float:
    """Independent arithmetic path for the closed form, no expm1 tricks."""
    r = math.exp(-rho)
    denom = 1.0 - 2.0 * r * math.cos(theta) + r * r
    return (1.0 - r * r) / (sphere_surface(n) * denom ** (0.5 * (n + 1)))


def quadrature_mass(n: int, rho: float, nodes: int = 400) -> float:
    """Gauss-Legendre integral of the kernel against the zonal measure on S^n."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    dim = sphere_dim(n)
    vals = np.array([poisson_kernel_eval(dim, rho, t) for t in theta])
    weight = np.sin(theta) ** (n - 1)
    return 0.5 * math.pi * float(np.sum(w * vals * weight)) * sphere_surface(n - 1)


# ---------------------------------------------------------------------------
# closed-form kernel


def test_kernel_matches_direct_arithmetic():
    for n in (2, 3, 5, 8):
        dim = sphere_dim(n)
        for rho in (0.2, 0.5, 1.0, 3.0):
            for theta in (0.0, 0.4, 1.3, 2.5, math.pi):
                expected = kernel_direct(n, rho, theta)
                assert poisson_kernel_eval(dim, rho, theta) == pytest.approx(
                    expected, rel=1e-12
                )


def test_kernel_value_n2_at_origin():
    # (1/4pi) (1 - e^-1) / (1 - e^-0.5)^3; the module example's printed
    # exponent 4 contradicts the closed form, see the decisions ledger
    expected = (1.0 - math.exp(-1.0)) / (4.0 * math.pi * (1.0 - math.exp(-0.5)) ** 3)
    assert expected == pytest.approx(0.8257666894485031, rel=1e-13)
    assert poisson_kernel_eval(sphere_dim(2), 0.5, 0.0) == pytest.approx(expected, rel=1e-13)


def test_kernel_large_rho_limit_is_uniform():
    dim = sphere_dim(2)
    for theta in (0.0, 1.0, math.pi):
        assert poisson_kernel_eval(dim, 50.0, theta) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-12
        )


def test_kernel_positive_and_decreasing_in_theta():
    dim = sphere_dim(3)
    for rho in (0.2, 1.0):
        thetas = [math.pi * k / 16 for k in range(17)]
        values = [poisson_kernel_eval(dim, rho, t) for t in thetas]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_kernel_quadrature_normalization():
    for n in (2, 3, 5):
        for rho in (0.2, 0.5, 1.0):
            assert abs(quadrature_mass(n, rho) - 1.0) <= 1e-8


def test_kernel_domain_errors():
    dim = sphere_dim(2)
    with pytest.raises(DomainError):
        poisson_kernel_eval(dim, 0.0, 1.0)
    with pytest.raises(DomainError):
        poisson_kernel_eval(dim, 0.5, -0.1)
    with pytest.raises(DomainError):
        poisson_kernel_eval(dim, 0.5, math.pi + 0.1)


# ---------------------------------------------------------------------------
# coefficient rules


def test_kernel_coefficients_formula():
    dim = sphere_dim(3)
    rho = 0.7
    rule = poisson_kernel_coefficients(dim, rho).coeff
    for l in range(0, 60):
        expected = (l + 1.0) / (2.0 * math.pi**2) * math.exp(-rho * l)
        assert rule(l) == pytest.approx(expected, rel=1e-14)


def test_wavelet_coefficient_spec_point():
    # (n=3, m=1, rho=1), l=1: (1/(2 pi^2)) * 2 * e^-1 = e^-1 / pi^2
    expected = math.exp(-1.0) / math.pi**2
    assert expected == pytest.approx(0.0372739804171723, rel=1e-13)
    rule = poisson_wavelet_coefficients(poisson_wavelet_spec(3, 1, 1.0)).coeff
    assert rule(0) == 0.0
    assert rule(1) == pytest.approx(expected, rel=1e-14)


def test_wavelet_order_recursion_exact():
    # g_(m+1)^hat(l) = (rho l) g_m^hat(l), bitwise
    for n, rho in ((2, 0.3), (3, 1.0), (6, 0.05)):
        for m in (1, 2, 3):
            low = poisson_wavelet_coefficients(poisson_wavelet_spec(n, m, rho)).coeff
            high = poisson_wavelet_coefficients(poisson_wavelet_spec(n, m + 1, rho)).coeff
            for l in range(0, 201):
                assert high(l) == (rho * l) * low(l)


def test_rescaled_rule_formula():
    lam = 1.5
    rule = _PoissonRule(4, 0.6, 2)
    assert rule(0) == 0.0
    for l in range(1, 50):
        expected = ((l + lam) / lam) * math.exp(-0.6 * l)
        expected *= (0.6 * l) ** 2
        assert rule(l) == pytest.approx(expected, rel=1e-14)


def test_rescaling_relates_wavelet_and_rescaled_rules():
    spec = poisson_wavelet_spec(5, 2, 0.4)
    g = poisson_wavelet_coefficients(spec).coeff
    f = _PoissonRule(spec.dim.n, spec.rho, spec.m)
    for l in range(1, 40):
        assert spec.dim.surface * g(l) == pytest.approx(f(l), rel=1e-13)


def test_capped_rule_is_the_wavelet_while_sigma_is_at_least_one():
    for n in (2, 6, 17):
        spec = poisson_wavelet_spec(n, 3, 0.2)
        g = poisson_wavelet_coefficients(spec).coeff
        f = capped_wavelet_coefficients(spec).coeff
        assert [f(l) for l in range(200)] == [g(l) for l in range(200)]
    for n in (18, 120, 343, 400, 438):  # sigma(S^n) < 1; below the normal double range at n = 438
        spec = poisson_wavelet_spec(n, 3, 0.2)
        f = capped_wavelet_coefficients(spec).coeff
        r = _PoissonRule(spec.dim.n, spec.rho, spec.m)
        assert [f(l) for l in range(200)] == [r(l) for l in range(200)]


@pytest.mark.parametrize("n, m, rho", [(2, 1, 1e-3), (3, 2, 0.1), (5, 4, 1.0), (8, 3, 5.0), (12, 1, 0.37)])
def test_block_form_matches_scalar_rule_bitwise(n, m, rho):
    spec = poisson_wavelet_spec(n, m, rho)
    rules = (
        poisson_kernel_coefficients(spec.dim, rho).coeff,
        poisson_wavelet_coefficients(spec).coeff,
        _PoissonRule(spec.dim.n, rho, m),
        capped_wavelet_coefficients(spec).coeff,
    )
    for rule in rules:
        for l0, l1 in ((0, 1), (0, 64), (1, 2), (17, 300), (999, 5000)):
            block = rule.block(l0, l1)
            assert block.dtype == np.float64 and block.shape == (l1 - l0,)
            expected = [rule(l) for l in range(l0, l1)]
            assert [float(v).hex() for v in block] == [v.hex() for v in expected]


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.5])
@pytest.mark.parametrize("m", [0, 1, 4])
@pytest.mark.parametrize("rho", [5.0, 1e-2, 1e-5])
def test_log_ratio_matches_exact_reference(lam, m, rho):
    # log((l + 2 lam)/(l + lam + 1) f_hat(l+1)/f_hat(l)) of the rule's own
    # formula at 40 digits; an error within a few ulps of the parts'
    # magnitudes is what lets the N - D terms ignore f_hat's last bit
    rule = _PoissonRule(round(2 * lam + 1), rho, m, scale=0.3)
    eps = 2.0**-52
    ranges = ((1, 200), (999, 1010), (65_530, 65_540), (999_990, 1_000_001))
    with mpmath.workdps(40):
        lam_, rho_ = mpmath.mpf(lam), mpmath.mpf(rho)

        def f_hat(l):
            return ((l + lam_) / lam_) * mpmath.exp(-rho_ * l) * (rho_ * l) ** m

        for l0, l1 in ranges:
            got = rule.log_ratio(l0, l1)
            assert got.dtype == np.float64 and got.shape == (l1 - l0,)
            for l, g in zip(range(l0, l1), got.tolist()):
                exact = mpmath.log((l + 2 * lam_) / (l + lam_ + 1) * f_hat(l + 1) / f_hat(l))
                bound = 4 * eps * (math.log1p(lam / (l + lam)) + m * math.log1p(1 / l) + rho)
                assert abs(g - exact) <= bound, (l, g, exact)


def test_spec_constructor_guards():
    with pytest.raises(DomainError):
        poisson_wavelet_spec(3, 0, 1.0)
    with pytest.raises(DomainError):
        poisson_wavelet_spec(3, 1, 0.0)
    with pytest.raises(DomainError):
        poisson_wavelet_spec(3, 1, math.nan)


@pytest.mark.parametrize(
    "name, args",
    [
        ("poisson_wavelet_spec", (3, 1.5, 0.1)),
        ("poisson_wavelet_spec", (3.0, 1, 0.1)),
        ("sphere_dim", (2.5,)),
        ("s_m_eval", (3, 1.5, 0.1)),
        ("s_m_sum", (2.5, 1, 0.1)),
        ("expand_variances", (3.0, 1)),
        ("derive_ABC", (3, 1.0)),
        ("expand_s0", (2.5, 4)),
        ("expand_sm", (3, 0.5, 0)),
        ("expand_F", (2.5,)),
        ("expand_s0", (3, 2.5)),
        ("expand_sm", (3, 1, 2.5)),
        ("derive_ABC", (3, 1, 2.5)),
    ],
)
def test_non_integer_dimension_or_order_is_a_domain_error(name, args):
    with pytest.raises(DomainError, match="must be an integer"):
        getattr(zonalvar, name)(*args)


# ---------------------------------------------------------------------------
# series evaluation


def test_zonal_eval_constant_rule():
    f = ZonalFunction(sphere_dim(3), lambda l: 1.0 if l == 0 else 0.0)
    assert zonal_eval(f, 0.9) == 1.0


def test_zonal_eval_kernel_spot_value():
    dim = sphere_dim(2)
    f = poisson_kernel_coefficients(dim, 0.5)
    closed = poisson_kernel_eval(dim, 0.5, math.pi / 3)
    assert abs(zonal_eval(f, math.pi / 3) - closed) <= 1e-10 * closed


def test_zonal_eval_kernel_consistency_grid():
    thetas = [math.pi * k / 24 for k in range(25)]
    pairs = [(2, 0.1), (2, 0.5), (3, 0.1), (3, 1.0), (5, 0.5), (8, 1.0)]
    for n, rho in pairs:
        dim = sphere_dim(n)
        f = poisson_kernel_coefficients(dim, rho)
        for theta in thetas:
            closed = poisson_kernel_eval(dim, rho, theta)
            assert abs(zonal_eval(f, theta) - closed) <= 1e-10 * closed


def test_zonal_eval_wavelet_recursion_consistency():
    # evaluating g_(m+1) equals evaluating the rule (rho l) g_m^hat(l)
    spec = poisson_wavelet_spec(3, 1, 0.8)
    g1 = poisson_wavelet_coefficients(spec).coeff
    g2 = poisson_wavelet_coefficients(poisson_wavelet_spec(3, 2, 0.8))
    lifted = ZonalFunction(g2.dim, lambda l: (0.8 * l) * g1(l))
    for theta in (0.2, 1.1, 2.7):
        assert zonal_eval(g2, theta) == zonal_eval(lifted, theta)


def test_zonal_eval_diagnostics_and_truncation():
    dim = sphere_dim(2)
    f = poisson_kernel_coefficients(dim, 1.0)
    diag: dict = {}
    zonal_eval(f, 1.0, diagnostics=diag)
    assert diag["terms"] > 10
    assert diag["envelope_mass"] > 0.0
    from zonalvar import TruncationError

    with pytest.raises(TruncationError):
        zonal_eval(f, 1.0, SeriesTruncation(min_terms=1, max_terms=3))


def test_zonal_eval_rejects_nonfinite_rule():
    f = ZonalFunction(sphere_dim(2), lambda l: math.inf if l == 7 else 0.5**l)
    with pytest.raises(DomainError):
        zonal_eval(f, 1.0)


def test_zonal_eval_rejects_angles_outside_0_pi():
    f = poisson_kernel_coefficients(sphere_dim(3), 0.5)
    for theta in (math.nan, math.inf, -0.1, math.pi + 0.1):
        with pytest.raises(DomainError, match=r"theta must lie in \[0, pi\]"):
            zonal_eval(f, theta)


def test_zonal_eval_stop_degrees():
    # the stop degrees of the scalar compensated loop that zonal_eval replaced
    kernels = {(2, 0.1): 368, (3, 0.5): 81, (5, 1.0): 46, (8, 2.0): 27}
    wavelets = {(3, 2, 0.8): 59, (5, 3, 0.2): 263, (2, 1, 0.05): 796}
    cases = [(poisson_kernel_coefficients(sphere_dim(n), rho), terms) for (n, rho), terms in kernels.items()]
    cases += [(poisson_wavelet_coefficients(poisson_wavelet_spec(*k)), terms) for k, terms in wavelets.items()]
    for f, terms in cases:
        for theta in (0.0, 1.1, math.pi):
            diag: dict = {}
            zonal_eval(f, theta, diagnostics=diag)
            assert diag["terms"] == terms


@given(
    rho=st.floats(min_value=0.15, max_value=3.0),
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_monotone_in_theta_property(rho, a, b):
    lo, hi = sorted((a * math.pi, b * math.pi))
    if hi - lo < 1e-6:
        return
    dim = sphere_dim(3)
    assert poisson_kernel_eval(dim, rho, lo) >= poisson_kernel_eval(dim, rho, hi)


def test_zonal_function_is_immutable():
    f = poisson_kernel_coefficients(sphere_dim(2), 1.0)
    with pytest.raises(AttributeError):
        f.label = "other"
