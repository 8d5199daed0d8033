"""Variance functionals: hand-sum oracles, path equivalence, bound, degeneracies."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zonalvar import (
    DegenerateInputError,
    DomainError,
    TruncationError,
    ZonalFunction,
    capped_wavelet_coefficients,
    poisson_uncertainty_via_s,
    poisson_wavelet_coefficients,
    poisson_wavelet_spec,
    sphere_dim,
    uncertainty_product,
    zonal_eval,
)
import zonalvar
from zonalvar import cli, series_s, variance, zonal
from zonalvar.zonal import _PoissonRule, _block_form


def rescaled_wavelet(spec):
    """The wavelet's rule times sigma(S^n): ((l + lambda)/lambda) (rho l)^m e^(-rho l)."""
    return ZonalFunction(spec.dim, _PoissonRule(spec.dim.n, spec.rho, spec.m))


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


def test_rule_with_a_gap_of_three_zeros_n3():
    # three zero terms after nonzero ones do not stop the sums: the modes
    # past the gap are in them
    coeffs = [0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    var_s_expected, var_m_expected = hand_n3(coeffs)
    result = uncertainty_product(finite_rule(3, coeffs))
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
        direct = uncertainty_product(rescaled_wavelet(spec))
        assert fast.var_space == pytest.approx(direct.var_space, rel=1e-9)
        assert fast.var_momentum == pytest.approx(direct.var_momentum, rel=1e-9)
        assert fast.product == pytest.approx(direct.product, rel=1e-9)
        assert fast.diagnostics["path"] == "s-series"


def test_rescaling_invariance_of_functionals():
    # wavelet and rescaled-wavelet rules differ by a constant factor only
    spec = poisson_wavelet_spec(4, 2, 0.3)
    a = uncertainty_product(poisson_wavelet_coefficients(spec))
    b = uncertainty_product(rescaled_wavelet(spec))
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
        uncertainty_product(rescaled_wavelet(spec))


def test_single_mode_rule_is_degenerate():
    # nearest-neighbor coupling vanishes, so var_S has no finite value
    f = finite_rule(3, [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateInputError, match="denominator vanishes"):
        uncertainty_product(f)


def test_zero_rule_is_degenerate():
    f = finite_rule(2, [0.0])
    with pytest.raises(DegenerateInputError):
        uncertainty_product(f)


def test_vanishing_norm_says_why(capsys):
    # the zero-run stop ends the sums at l = 1023 with N = 0.  One rule is
    # zero there (and nonzero past it); the other is nonzero from l = 16,
    # but below 1.2e-167, so its squared terms underflow
    for f, where in (
        (ZonalFunction(sphere_dim(3), lambda l: 0.0 if l < 1100 else 0.5 ** (l - 1100)), "zero"),
        (capped_wavelet_coefficients(poisson_wavelet_spec(2, 85, 1e-5)), "nonzero but its terms underflow"),
    ):
        message = f"weighted norm vanishes over l=0..1023, where the rule is {where}"
        with pytest.raises(DegenerateInputError, match=f"^{re.escape(message)}$"):
            uncertainty_product(f)
    assert cli.main(["compute", "--n", "2", "--m", "85", "--rho", "1e-5"]) == 2
    assert capsys.readouterr().err == f"degenerate input: {message}\n"


def test_out_of_range_wavelet_terms_are_degenerate():
    # f_hat^2 overflows at these orders; the sums used to come back as NaN.
    # Every argument is valid, and the capped rule's next value is inf as well
    for rule, (n, m, rho), l in (
        (poisson_wavelet_coefficients, (2, 100, 1.0), 63),
        (poisson_wavelet_coefficients, (2, 150, 1.0), 12),
        (capped_wavelet_coefficients, (3, 400, 5.0), 1),
        (capped_wavelet_coefficients, (3, 1000, 1.0), 2),
    ):
        f = rule(poisson_wavelet_spec(n, m, rho))
        name = re.escape(f.label)
        with pytest.raises(DegenerateInputError, match=rf"^coefficient sums for {name} left the double range at l={l}$"):
            uncertainty_product(f)


def test_non_finite_product_is_rejected():
    for var_s, var_m in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(DegenerateInputError):
            variance._assemble(3, var_s, var_m, {})


def test_negative_space_variance_is_degenerate(monkeypatch, capsys):
    # N - D just below 0 gives var_space of about -2e-13, which no rule has;
    # it is reported as degenerate input, not clamped to a product of 0
    raw = ([1.0, -1e-13, 1e6], [[0.0, 0.0]] * 3, {"path": "coefficient-sum"})
    monkeypatch.setattr(variance, "_coefficient_sums", lambda f: raw)
    with pytest.raises(DegenerateInputError, match="space variance evaluated to"):
        uncertainty_product(rescaled_wavelet(poisson_wavelet_spec(3, 1, 0.1)))
    assert cli.main(["compute", "--n", "3", "--m", "1", "--rho", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("degenerate input: space variance evaluated to")


def test_overflowing_sum_is_degenerate():
    # at 1e154 the M weight l(l + 2) already overflows the term at l = 1
    f = ZonalFunction(sphere_dim(3), lambda l: 1e154 if l < 200 else 0.0)
    with pytest.raises(DegenerateInputError, match="double range"):
        uncertainty_product(f)
    # at 3e151 every term is finite (the largest is 3.6e307), but the M sum
    # exceeds the double range, and the error names the rule's sums
    f = ZonalFunction(sphere_dim(3), lambda l: 3e151 if l < 200 else 0.0, label="flat")
    with pytest.raises(DegenerateInputError, match="^coefficient sums for flat left the double range$"):
        uncertainty_product(f)
    # at 1e306 every value is finite, though a block of them sums past the
    # double range; what overflows is the first term, 1e306 squared
    f = ZonalFunction(sphere_dim(3), lambda l: 1e306 if l < 400 else 0.0)
    with pytest.raises(DegenerateInputError, match="^coefficient sums for coefficient rule left the double range at l=0$"):
        uncertainty_product(f)


# ---------------------------------------------------------------------------
# the block engine of the coefficient sums


def test_scalar_rule_non_finite_past_the_stop_is_ignored():
    # the first block fetches degrees past the stop; their values are unused
    f = ZonalFunction(sphere_dim(3), lambda l: math.nan if l >= 50 else 0.5**l)
    result = uncertainty_product(f)
    assert result.diagnostics["terms"] < 50
    assert math.isfinite(result.product)


def test_max_terms_below_first_block_raises_truncation(monkeypatch):
    monkeypatch.setattr(series_s, "_MIN_TERMS", 1)
    monkeypatch.setattr(series_s, "_MAX_TERMS", 5)
    f = ZonalFunction(sphere_dim(3), lambda l: 0.99**l, label="slow")
    with pytest.raises(TruncationError, match=r"^coefficient sums for slow did not settle within 5 terms$"):
        uncertainty_product(f)


@pytest.mark.parametrize("bad, named", [(0, 0), (1, 1), (7, 7), (70, 70), (400, 400)])
def test_non_finite_value_names_the_degree(bad, named):
    # the coefficient sums and zonal_eval name the degree of the value
    # itself, also where the N - D term before it is the first to read it
    f = ZonalFunction(sphere_dim(3), lambda l: math.inf if l == bad else 0.995**l)
    message = rf"^coefficient rule returned a non-finite value at l={named}$"
    with pytest.raises(DomainError, match=message):
        uncertainty_product(f)
    with pytest.raises(DomainError, match=message):
        zonal_eval(f, 1.1)


def test_weight_overflow_names_the_degree():
    # C(1354, 1056) is the first binomial weight past the double range
    f = rescaled_wavelet(poisson_wavelet_spec(300, 1, 0.1))
    with pytest.raises(DegenerateInputError, match="^coefficient sums for coefficient rule left the double range at l=1056$"):
        uncertainty_product(f)


def test_binomial_weights_error_does_not_grow_with_degree():
    for n in (2, 3, 5, 12, 40):
        for l0 in (0, 1000, 10**6, 10**9):
            ls = np.arange(l0, l0 + 300, dtype=float)
            w = series_s._binomial_weights(n, ls)
            assert np.isfinite(w).all()
            for l, got in zip(range(l0, l0 + 300), w.tolist()):
                exact = math.comb(l + n - 2, l)
                assert abs(got - exact) <= 2 * max(n - 2, 1) * math.ulp(exact), (n, l)


def test_binomial_weight_overflow_is_exact():
    # the first inf weight is at the first degree where float(math.comb(...))
    # overflows, and every weight from there on is inf
    n = 300

    def overflows(l):
        try:
            float(math.comb(l + n - 2, l))
        except OverflowError:
            return True
        return False

    first = next(l for l in range(2000) if overflows(l))
    ls = np.arange(first - 40, first + 40, dtype=float)
    with np.errstate(over="ignore"):
        w = series_s._binomial_weights(n, ls)
    assert first_inf(w) == 40
    exact = math.comb(first - 1 + n - 2, first - 1)
    assert abs(w[39] - exact) <= 2 * (n - 2) * math.ulp(exact)


def first_inf(weights):
    """The index of the first inf in a row of binomial weights, or None;
    every weight past it must be inf too."""
    over = np.isinf(weights)
    if not over.any():
        return None
    first = int(over.argmax())
    assert over[first:].all()
    return first


class ReferenceSeries:
    """One series summed degree by degree with a Neumaier-compensated
    running sum, and the per-degree stop rule: ``add`` reports True once
    at least ``_MIN_TERMS`` terms are in and |t| has stayed below its
    running peak and at most ``_REL_TOL`` |running sum| for three degrees
    in a row, or once ``ZERO_RUN`` zero terms in a row are in."""

    def __init__(self):
        self.sum = self.comp = self.peak = 0.0
        self.small_run = self.zero_run = 0

    def add(self, l, t):
        s = self.sum + t
        if abs(self.sum) >= abs(t):
            self.comp += (self.sum - s) + t
        else:
            self.comp += (t - s) + self.sum
        self.sum = s
        self.peak = max(self.peak, abs(t))
        self.zero_run = self.zero_run + 1 if t == 0.0 else 0
        small = abs(t) < self.peak and abs(t) <= series_s._REL_TOL * abs(self.sum + self.comp)
        self.small_run = self.small_run + 1 if small else 0
        if l + 1 < series_s._MIN_TERMS:
            return False
        return self.small_run >= 3 or self.zero_run >= series_s.ZERO_RUN


def loop_sums(f):
    """Reference: the coefficient sums one degree at a time, with exact
    binomial weights and the per-degree stop rule of
    :class:`ReferenceSeries`; the N - D factor is -expm1 of the rule's
    log_ratio where it has one, else 1 - ratio.  Returns the exactly
    rounded sums, the last two terms of each, the sums of |term| and the
    number of terms."""
    lam = float(f.dim.lam)
    n = f.dim.n
    log_ratio = getattr(f.coeff, "log_ratio", None)
    refs = [ReferenceSeries() for _ in range(3)]
    series = ([], [], [])
    done = [False] * 3
    for l in range(series_s._MAX_TERMS + 1):
        f_curr, f_next = f.coeff(l), f.coeff(l + 1)
        t_n = (lam / (l + lam)) * float(math.comb(l + n - 2, l)) * f_curr * f_curr
        if not f_curr:
            factor = 0.0
        elif log_ratio is None:
            factor = 1.0 - ((l + 2 * lam) / (l + lam + 1.0)) * (f_next / f_curr)
        else:
            factor = float(-np.expm1(log_ratio(l, l + 1)[0]))
        terms = (t_n, t_n * factor, l * (l + 2 * lam) * t_n)
        for i, t in enumerate(terms):
            series[i].append(t)
            done[i] = refs[i].add(l, t) or done[i]
        if all(done):
            return (
                [math.fsum(s) for s in series],
                [s[-2:] for s in series],
                [math.fsum(map(abs, s)) for s in series],
                l + 1,
            )
    raise TruncationError("reference did not settle")


# each case's rule, and the stop-policy constants of series_s it patches
@pytest.mark.parametrize(
    "rule, trunc",
    [
        (lambda n: poisson_wavelet_coefficients(poisson_wavelet_spec(n, 2, 0.02)), {}),
        (lambda n: rescaled_wavelet(poisson_wavelet_spec(n, 1, 0.3)), {}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: (-0.999) ** l), {}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 0.9**l if l % 3 else 0.0), {}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 1e-3**l), {"_MIN_TERMS": 100}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 1e-3**l), {"_MIN_TERMS": 30}),
        # stops past several 4096-wide blocks, so the fold and the scan window run
        (lambda n: poisson_wavelet_coefficients(poisson_wavelet_spec(n, 1, 2e-3)), {}),
        (lambda n: rescaled_wavelet(poisson_wavelet_spec(n, 2, 1e-3)), {}),
        # leading zero runs that cross the 1024-degree zero-run stop and the block edges
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 0.0 if l < 1000 else 0.99 ** (l - 1000)), {}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 0.0 if l < 1100 else 0.5 ** (l - 1100)), {}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 0.0 if l < 1100 else 0.5 ** (l - 1100)),
         {"_MIN_TERMS": 1030}),
        # the stop rule at other tolerances
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 1e-3**l), {"_REL_TOL": 1e-17}),
        (lambda n: ZonalFunction(sphere_dim(n), lambda l: 0.0 if l < 1100 else 0.5 ** (l - 1100)),
         {"_REL_TOL": 1e-10}),
    ],
)
def test_block_sums_match_loop_reference(monkeypatch, rule, trunc):
    for name, value in trunc.items():
        monkeypatch.setattr(series_s, name, value)
    for n in (2, 3, 7):
        f = rule(n)
        expected, expected_ends, scale, terms = loop_sums(f)
        got, ends, info = variance._coefficient_sums(f)
        assert info["terms"] == terms
        if n <= 3:
            # the weights are exact here, so the terms are the reference's
            # and each sum is their exactly rounded total
            assert got == expected
            assert ends == expected_ends
        else:
            for g, e, sc in zip(got, expected, scale):
                assert abs(g - e) <= 1e-13 * sc


class Forwarding:
    """A copy of a rule that offers only the named optional methods."""

    def __init__(self, rule, *methods):
        self.rule = rule
        for name in methods:
            setattr(self, name, getattr(rule, name))

    def __call__(self, l):
        return self.rule(l)


def test_stop_degree_does_not_depend_on_block_form():
    # copies of a rule that take the scalar fallback for the values, the
    # 1 - ratio fallback for N - D, or both, stop at the same degree; the
    # sums are the same wherever the N - D formula is
    eps = 2.0**-52
    for n, m, rho in ((2, 1, 0.3), (5, 2, 0.01), (12, 4, 1.0)):
        f = poisson_wavelet_coefficients(poisson_wavelet_spec(n, m, rho))
        result = uncertainty_product(f)
        sums, _, info = variance._coefficient_sums(f)
        for methods in (("log_ratio",), ("block", "log_ratio")):
            copy = ZonalFunction(f.dim, Forwarding(f.coeff, *methods))
            assert uncertainty_product(copy) == result
        for methods in ((), ("block",)):
            copy = ZonalFunction(f.dim, Forwarding(f.coeff, *methods))
            got, _, got_info = variance._coefficient_sums(copy)
            assert got_info == info
            assert (got[0], got[2]) == (sums[0], sums[2])
            # 1 - ratio carries the rounding of f_hat(l) and f_hat(l+1),
            # each of at most m + 5 operations, so every N - D term is off
            # by at most about 2 (m + 6) eps tN
            assert abs(got[1] - sums[1]) <= 2 * (m + 6) * eps * sums[0]


class Recording(Forwarding):
    """A copy of a rule, with its ``log_ratio`` if it has one, whose
    ``block`` method records each requested (l0, l1)."""

    def __init__(self, rule):
        super().__init__(rule, *[name for name in ("log_ratio",) if hasattr(rule, name)])
        self.fetch = _block_form(rule)
        self.requests = []

    def block(self, l0, l1):
        self.requests.append((l0, l1))
        return self.fetch(l0, l1)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (DegenerateInputError, DomainError, TruncationError) as exc:
        return type(exc), str(exc)


# each case's n and rule, and the stop-policy constants of series_s it patches
SCHEDULE_CASES = [
    (3, poisson_wavelet_coefficients(poisson_wavelet_spec(3, 2, 0.05)).coeff, {}),
    # past several 4096-wide blocks, so the fold and the scan window run
    (5, poisson_wavelet_coefficients(poisson_wavelet_spec(5, 1, 2e-3)).coeff, {}),
    (2, lambda l: 0.9**l + 1e-6 * 0.999**l, {}),
    # an all-zero row: M here, every row below
    (3, lambda l: 1.0 if l == 0 else 0.0, {}),
    (3, lambda l: 0.0 if l < 1100 else 0.5 ** (l - 1100), {}),
    (3, lambda l: 0.0 if l < 1000 else 0.99 ** (l - 1000), {}),
    (3, lambda l: 1e-3**l, {"_MIN_TERMS": 300}),
    (3, lambda l: math.nan if l == 700 else 0.999**l, {}),
    # the binomial weight, and so the zonal series term, overflows
    (1000, rescaled_wavelet(poisson_wavelet_spec(1000, 3, 0.1)).coeff, {}),
    # a term budget below the stop
    (3, lambda l: 0.999**l, {"_MAX_TERMS": 2000}),
    # the rule's values decide both stops (71 and 280 terms) before the
    # weight overflows at l = 309
    (1000, rescaled_wavelet(poisson_wavelet_spec(1000, 3, 2.0)).coeff, {}),
    # a gap of three zeros before the stop floor; another tolerance
    (3, lambda l: 1.0 if l in (0, 4) else 0.0, {}),
    (3, lambda l: 1e-3**l, {"_REL_TOL": 1e-17}),
]


def engine_results(f):
    """The coefficient sums, the uncertainty product with the tails added,
    and zonal_eval at theta = 1.1 with its diagnostics."""
    diag = {}
    value = outcome(lambda: zonal_eval(f, 1.1, diag))
    sums = outcome(lambda: variance._coefficient_sums(f))
    return sums, outcome(lambda: uncertainty_product(f)), value, diag


@pytest.mark.parametrize("n, rule, trunc", SCHEDULE_CASES)
def test_block_schedule_does_not_change_results(monkeypatch, n, rule, trunc):
    for name, value in trunc.items():
        monkeypatch.setattr(series_s, name, value)
    f = ZonalFunction(sphere_dim(n), rule)
    expected = engine_results(f)
    schedules = [
        {"_FIRST_BLOCK": 16},
        {"_FIRST_BLOCK": 64},
        {"_FIRST_BLOCK": 4096},
        {"_FIRST_BLOCK": 16, "_MAX_BLOCK": 256},
        {"_degrees_to_stop": lambda *args: math.inf},  # the geometric schedule alone
        # every block folded before math.fsum, or none
        {"_FSUM_WIDTH": 16},
        {"_FSUM_WIDTH": 4096},
    ]
    # first blocks that end at the stop degree d = terms - 1, on the degrees
    # d - 2, d - 1 of its run of small degrees, at the degree before the run,
    # and one past the stop; with a first block of d degrees the stop falls
    # in the first column of the second block
    coef, _, _, diag = expected
    stops = [got["terms"] for got in (coef[-1], diag) if isinstance(got, dict) and "terms" in got]
    schedules += [{"_FIRST_BLOCK": t + k} for t in stops for k in range(-4, 2)]
    for schedule in schedules:
        with monkeypatch.context() as patch:
            for name, value in schedule.items():
                patch.setattr(series_s, name, value)
            assert engine_results(f) == expected, schedule


def test_tail_correction_reads_the_term_before_a_block():
    # a stop in the first column of a block takes t_(L-1) from the block
    # before; the corrected sums are those of the loop reference's terms
    f = poisson_wavelet_coefficients(poisson_wavelet_spec(3, 1, 0.05))
    expected, expected_ends, _, terms = loop_sums(f)
    rule = Recording(f.coeff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_s, "_FIRST_BLOCK", terms - 1)
        got, ends, info = variance._coefficient_sums(ZonalFunction(f.dim, rule))
        corrected = uncertainty_product(f)
    assert rule.requests[1][0] == terms - 1 == info["terms"] - 1  # the stop degree starts a block
    assert (got, ends) == (expected, expected_ends)
    assert all(variance._geometric_tail(*end) > 0.0 for end in ends)
    assert corrected == uncertainty_product(f)


def test_geometric_tail_only_for_ratios_in_zero_one():
    assert variance._geometric_tail(2.0, 1.0) == 1.0  # 1/2 + 1/4 + ...
    assert variance._geometric_tail(-4.0, -1.0) == -1.0 / 3.0
    # zero, flat, growing and sign-changing tails
    for before, last in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (1.0, -0.5), (-1.0, 0.5)):
        assert variance._geometric_tail(before, last) == 0.0, (before, last)


def raw_result(f):
    """uncertainty_product(f) without the tails."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variance, "_geometric_tail", lambda before, last: 0.0)
        return outcome(lambda: uncertainty_product(f))


def test_tail_outside_zero_one_adds_nothing():
    # a single degree (degenerate: no D) and a finite rule, each stopped on
    # a run of zero terms: every row's last two terms give no q in (0, 1),
    # and the result is the raw sums' own
    single = ZonalFunction(sphere_dim(3), lambda l: 1.0 if l == 0 else 0.0)
    for f in (single, finite_rule(3, [0.9, 1.1, 0.4])):
        _, ends, _ = variance._coefficient_sums(f)
        assert all(last == 0.0 for _, last in ends), ends
        assert outcome(lambda: uncertainty_product(f)) == raw_result(f)
    # N - D terms that change sign at the stop get nothing either
    f = ZonalFunction(sphere_dim(3), lambda l: 0.9**l * (2.0 if l % 2 else 1.0))
    before, last = variance._coefficient_sums(f)[1][1]
    assert before * last < 0.0
    assert variance._geometric_tail(before, last) == 0.0


def test_fold_width_does_not_change_s_m_sum(monkeypatch):
    # a block wider than _FSUM_WIDTH is folded before math.fsum, which keeps
    # its total far below one rounding, and the stop scan does not read the
    # width (see also test_block_schedule_does_not_change_results)
    def results():
        out = []
        for n, m, rho in ((3, 1, 1e-4), (250, 1, 0.1), (100, 140, 1.0), (3, 1, 0.5), (8, 3, 5.0)):
            diag = {}
            out.append((series_s.s_m_sum(n, m, rho, diagnostics=diag), diag))
        return out

    expected = results()
    for width in (16, 128, 4096):
        monkeypatch.setattr(series_s, "_FSUM_WIDTH", width)
        assert results() == expected, width


ROW_FUNCTIONS = (series_s._weight_rows, series_s._lift_rows, series_s._log_rows)


def direct_rows(n, l0, k):
    """The independent reference for the row functions: each of their rows
    over the degrees l0 <= l < l0 + k, from the expression that defines it."""
    lam = float(sphere_dim(n).lam)
    ls = np.arange(l0, l0 + k, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        weight = series_s._binomial_weights(n, ls)
        return {
            series_s._weight_rows: (ls, weight, (lam / (ls + lam)) * weight, ls * (ls + 2.0 * lam)),
            series_s._lift_rows: (ls, (ls + lam) / lam),
            series_s._log_rows: (np.log1p(lam / (ls + lam)), np.log1p(1.0 / ls)),
        }


def assert_rows_equal(got, expected, context):
    """Each row bitwise, and so of the same length."""
    assert len(got) == len(expected), context
    for row, want in zip(got, expected):
        assert row.tobytes() == want.tobytes(), context


def test_first_block_memo_is_the_direct_computation():
    for width in (16, 64, 256):
        for n in range(2, 61):
            for rows in ROW_FUNCTIONS:
                memo = series_s._first_block_memo(rows.__wrapped__, n, width)
                assert_rows_equal(memo, direct_rows(n, 0, width)[rows], (rows.__name__, n, width))
    # the engine's first block is served from the memo, and exactly that
    # request: a prefix of it, or a block one degree longer, is formed directly
    for n in (2, 3, 12, 60):
        for rows in ROW_FUNCTIONS:
            first = rows(n, 0, series_s._FIRST_BLOCK)
            assert rows(n, 0, series_s._FIRST_BLOCK) is first
            assert_rows_equal(first, direct_rows(n, 0, series_s._FIRST_BLOCK)[rows], (rows.__name__, n))
            for k in (1, 100, series_s._FIRST_BLOCK + 1):
                got = rows(n, 0, k)
                assert got is not first and got is not rows(n, 0, k)
                assert_rows_equal(got, direct_rows(n, 0, k)[rows], (rows.__name__, n, k))
    # later blocks are formed by the row functions themselves, with the same expressions
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (2, 3, 12, 60, 1000):
            for l0 in (1, 257, 4000, 65530):
                for k in (1, 64, 300):
                    expected = direct_rows(n, l0, k)
                    for rows in ROW_FUNCTIONS:
                        got = rows(n, l0, l0 + k)
                        assert_rows_equal(got, expected[rows], (rows.__name__, n, l0, k))
        # the weights leave the double range at l = 309 for n = 1000, l = 219 for n = 2000
        assert first_inf(series_s._weight_rows(1000, 300, 400)[1]) == 9
        assert first_inf(direct_rows(1000, 300, 100)[series_s._weight_rows][1]) == 9
        for n, width, overflow in ((1000, 256, None), (1000, 1024, 309), (2000, 256, 219)):
            memo = series_s._first_block_memo(series_s._weight_rows.__wrapped__, n, width)
            expected = direct_rows(n, 0, width)[series_s._weight_rows]
            assert first_inf(memo[1]) == first_inf(expected[1]) == overflow
            assert_rows_equal(memo, expected, (n, width))


def test_first_block_memo_is_read_only_and_bounded():
    first = series_s._FIRST_BLOCK
    arrays = [v for rows in ROW_FUNCTIONS for v in rows(5, 0, first) if isinstance(v, np.ndarray)]
    assert len(arrays) == 8 and all(len(array) == first for array in arrays)
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1.0
    # no other block is memoised, a prefix of the first block included
    size = series_s._first_block_memo.cache_info().currsize
    for rows in ROW_FUNCTIONS:
        for l0, l1 in ((0, 64), (0, first + 1), (1, 64), (first, 2 * first)):
            got = rows(5, l0, l1)
            assert got is not rows(5, l0, l1)
            assert all(row.flags.writeable for row in got)
    assert series_s._first_block_memo.cache_info().currsize == size
    maxsize = series_s._first_block_memo.cache_info().maxsize
    assert maxsize is not None and maxsize <= 64


@pytest.mark.parametrize("n, rule, trunc", SCHEDULE_CASES)
def test_first_block_memo_does_not_change_results(monkeypatch, n, rule, trunc):
    # a cold memo, a warm one and none at all give the same results
    for name, value in trunc.items():
        monkeypatch.setattr(series_s, name, value)
    f = ZonalFunction(sphere_dim(n), rule)
    series_s._first_block_memo.cache_clear()
    cold = engine_results(f)
    # the weight rows, and the Poisson rule's lift and log rows
    assert series_s._first_block_memo.cache_info().currsize == (3 if isinstance(rule, _PoissonRule) else 1)
    warm = engine_results(f)
    monkeypatch.setattr(series_s, "_first_block_memo", lambda rows, n, width: rows(n, 0, width))
    assert cold == warm == engine_results(f)


def test_import_fills_no_memo():
    # memos are filled on first use, so importing costs no set-up time
    code = (
        "import json, sys, zonalvar, zonalvar.cli\n"
        "memos = {f'{v.__module__}.{v.__name__}': v.cache_info().currsize\n"
        "         for name, module in list(sys.modules.items()) if name.startswith('zonalvar')\n"
        "         for v in vars(module).values() if hasattr(v, 'cache_info')}\n"
        "print(json.dumps(memos))\n"
    )
    src = str(Path(zonalvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    memos = json.loads(done.stdout)
    assert "zonalvar.series_s._first_block_memo" in memos and len(memos) >= 5, memos
    assert "zonalvar.laurent._bernoulli_pairs" in memos, memos
    assert not any(memos.values()), memos


def test_fetched_degrees_stay_within_budget():
    # the predicted blocks fetch little past the stop on the verify grid.
    # The log-scale extrapolation overshoots where the decay steepens with
    # l (polynomial times exponential terms), so one point may fetch up to
    # about 1.6 times its degrees past the first block; the grid as a whole
    # stays within 1.3.
    fetched = summed = points = 0
    for n in cli.PATH_GRID_N:
        for m in cli.PATH_GRID_M:
            for rho in cli.PATH_GRID_RHO:
                f = poisson_wavelet_coefficients(poisson_wavelet_spec(n, m, rho))
                rule = Recording(f.coeff)
                *_, info = variance._coefficient_sums(ZonalFunction(f.dim, rule))
                got = sum(l1 - l0 for l0, l1 in rule.requests)
                assert got <= 2 * info["terms"] + series_s._FIRST_BLOCK
                fetched += got
                summed += info["terms"]
                points += 1
    assert fetched <= 1.3 * summed + points * series_s._FIRST_BLOCK


def test_each_block_fetches_its_own_degrees(monkeypatch):
    # a rule is asked for the degrees l0 <= l < l1 of each block, and for
    # f_hat(l1) too only by the coefficient sums of a rule without
    # log_ratio, whose N - D term at l1 - 1 reads it
    blocks = []

    def recording_sum_blocks(source, name):
        def recorded(l0, l1):
            blocks.append((l0, l1))
            return source(l0, l1)

        return series_s._sum_blocks(recorded, name)

    monkeypatch.setattr(variance, "_sum_blocks", recording_sum_blocks)
    monkeypatch.setattr(zonal, "_sum_blocks", recording_sum_blocks)
    f = poisson_wavelet_coefficients(poisson_wavelet_spec(3, 1, 0.01))
    for methods, ahead in ((("block", "log_ratio"), 0), (("block",), 1)):
        copy = ZonalFunction(f.dim, Forwarding(f.coeff, *methods))
        for call, fetches_past in ((variance._coefficient_sums, ahead), (lambda g: zonal_eval(g, 1.1), 0)):
            rule = Recording(copy.coeff)
            blocks.clear()
            call(ZonalFunction(f.dim, rule))
            assert len(blocks) > 1
            assert rule.requests == [(l0, l1 + fetches_past) for l0, l1 in blocks], methods


def test_block_count_stays_bounded_when_decay_slows(monkeypatch):
    # a fast decay predicts an early stop and a slower one behind it moves
    # the stop on; that must not turn the series into many short blocks
    def blocks(rule):
        recorded = Recording(rule)
        variance._coefficient_sums(ZonalFunction(sphere_dim(3), recorded))
        return len(recorded.requests)

    rules = [
        lambda l: 0.97**l + 1e-6 * 0.9995**l,
        lambda l: 0.5**l + 1e-2 * 0.9**l + 1e-4 * 0.99**l + 1e-6 * 0.999**l,
        lambda l: 1.0 / (l + 1) ** 3,
    ]
    predicted = [blocks(rule) for rule in rules]
    monkeypatch.setattr(series_s, "_degrees_to_stop", lambda *args: math.inf)
    geometric = [blocks(rule) for rule in rules]
    assert all(p <= g + 1 for p, g in zip(predicted, geometric)), (predicted, geometric)


def exact_sum(values) -> Fraction:
    """Exact sum of floats; every float is a multiple of 2^-1074."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return Fraction(total, 1 << 1074)


def test_folded_block_overflow_is_degenerate():
    terms = np.full((3, series_s._FSUM_WIDTH + 1), 1e308)
    with pytest.raises(DegenerateInputError, match="^folded rows left the double range$"):
        series_s._add_blocks([0.0] * 3, [0.0] * 3, terms, "folded rows")
    # from l = 3 on every term is finite, but the M terms, 1e308 (1 + 2/l),
    # overflow once added in pairs (at l = 1 and 2 they overflow on their
    # own).  An all-zero rule gets the blocks of any rule that is zero up
    # to their start, so the first block wider than _FSUM_WIDTH starts at
    # `start`, and the overflow happens in a fold, not in the term check.
    zeros = Recording(lambda l: 0.0)
    variance._coefficient_sums(ZonalFunction(sphere_dim(3), zeros))
    start = next(l0 for l0, l1 in zeros.requests if l1 - 1 - l0 > series_s._FSUM_WIDTH)
    assert start < series_s.ZERO_RUN
    f = ZonalFunction(sphere_dim(3), lambda l: 1e154 / l if l >= max(start, 3) else 0.0)
    with pytest.raises(DegenerateInputError, match="^coefficient sums for .* left the double range$"):
        uncertainty_product(f)


def test_scan_skip_allows_for_rounding_of_running_sums(monkeypatch):
    # Every running sum 1 + k v rounds up by almost v, so the running sums
    # outgrow the exact total 1 + (B - 1) v by about (B - 1) v.  The last
    # terms are then small against them, and the scan window must not
    # start past the first of them in any row.
    v = 2.0**-53 * (1.0 + 2.0**-10)
    terms = np.full((3, series_s._MAX_BLOCK), v)
    terms[:, 0] = 1.0
    rel_tol = v / (1.0 + 3000 * 2.0**-52)
    monkeypatch.setattr(series_s, "_REL_TOL", rel_tol)
    sums = np.zeros(3)
    partial = np.cumsum(terms, axis=1) + sums[:, None]
    small = terms <= rel_tol * np.abs(partial)
    assert small.any(axis=1).all()
    for row in range(3):
        done = np.arange(3) != row
        start = series_s._scan_start(np.abs(terms), sums, done)
        assert start is not None and start <= small[row].argmax()


# ---------------------------------------------------------------------------
# properties


@given(
    width=st.sampled_from(
        [series_s._FSUM_WIDTH - 1, series_s._FSUM_WIDTH, series_s._FSUM_WIDTH + 1,
         2 * series_s._FSUM_WIDTH + 1, 4096]
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zeros=st.floats(min_value=0.0, max_value=0.5),
    hi0=st.floats(min_value=-(2.0**110), max_value=2.0**110).filter(bool),
    lo0=st.floats(min_value=-(2.0**110), max_value=2.0**110).filter(bool),
)
def test_add_blocks_is_accurate_at_every_width(width, seed, zeros, hi0, lo0):
    rng = np.random.default_rng(seed)
    terms = np.ldexp(rng.uniform(-1.0, 1.0, (3, width)), rng.integers(-100, 101, (3, width)))
    terms[rng.random((3, width)) < zeros] = 0.0
    hi, lo = [hi0] * 3, [lo0] * 3
    series_s._add_blocks(hi, lo, terms, "random rows")
    for r, row in enumerate(terms.tolist()):
        exact = exact_sum(row + [hi0, lo0])
        scale = exact_sum([abs(x) for x in row] + [abs(hi0), abs(lo0)])
        assert abs(Fraction(hi[r]) + Fraction(lo[r]) - exact) <= scale / 2**96


@given(
    n=st.sampled_from([2, 3, 5]),
    decays=st.lists(
        st.tuples(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=0.3, max_value=0.98)),
        min_size=1,
        max_size=3,
    ),
    power=st.integers(min_value=0, max_value=3),
    flip=st.sampled_from([0, 1, 2, 5]),
    zeros=st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60)),
    min_terms=st.integers(min_value=1, max_value=400),
)
def test_two_stop_rows_match_loop_reference(n, decays, power, flip, zeros, min_terms):
    # the engine decides the stop on the N - D and M rows only; the loop
    # reference stops on all three, so equal stop degrees show that N never
    # stops after M, in floating point too
    start, length = zeros

    def rule(l):
        if start <= l < start + length:
            return 0.0
        value = (l + 1.0) ** power * math.fsum(a * q**l for a, q in decays)
        return -value if flip and (l // flip) % 2 else value

    f = ZonalFunction(sphere_dim(n), rule)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_s, "_MIN_TERMS", min_terms)
        expected, expected_ends, scale, terms = loop_sums(f)
        got, ends, info = variance._coefficient_sums(f)
    assert info["terms"] == terms
    if n <= 3:
        assert (got, ends) == (expected, expected_ends)
    else:
        for g, e, sc in zip(got, expected, scale):
            assert abs(g - e) <= 1e-13 * sc


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
    direct = uncertainty_product(rescaled_wavelet(spec))
    assert fast.product == pytest.approx(direct.product, rel=1e-9)
