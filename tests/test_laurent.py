"""Exact truncated Laurent arithmetic and the small-scale expansion pipeline."""

import dataclasses
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from zonalvar import laurent
from zonalvar import (
    DomainError,
    TruncatedLaurentSeries,
    derive_ABC,
    expand_F,
    expand_s0,
    expand_sm,
    expand_variances,
    poisson_uncertainty_via_s,
    poisson_wavelet_spec,
    s_m_eval,
    sqrt_normalized,
)

S = TruncatedLaurentSeries.make


# ---------------------------------------------------------------------------
# test-local references: window bookkeeping and schoolbook Fraction arithmetic


def _differentiate(s):
    """d/d rho; the window drops by one exponent on both ends."""
    cs = [Fraction(s.lo + i) * c for i, c in enumerate(s.coeffs)]
    return S(s.lo - 1, cs, s.order - 1)


def _truncate(s, new_order):
    """Forget coefficients at and beyond new_order."""
    if new_order > s.order:
        raise DomainError("cannot extend a truncated series")
    return S(min(s.lo, new_order), s.coeffs[: max(0, new_order - s.lo)], new_order)


def _constant(value, order):
    """The constant `value` with an O(rho^order) tail, window [0, order)."""
    return S(0, [value], order)


def _exp_series(rate, order):
    """Taylor window of exp(rate * rho) through O(rho^order)."""
    return S(0, [Fraction(rate) ** j / math.factorial(j) for j in range(order)])


def _schoolbook_sqrt(series):
    """sqrt_normalized by the Fraction recursion s_j = (u_j - sum s_i s_(j-i)) / 2,
    u the series over its leading coefficient."""
    c0 = series.coeffs[0]
    u = [c / c0 for c in series.coeffs]
    s = [Fraction(1)]
    for j in range(1, len(u)):
        s.append((u[j] - sum(s[i] * s[j - i] for i in range(1, j))) / 2)
    return laurent.NormalizedRadicalSeries(c0, series.lo // 2, S(0, s, len(u)))


def _schoolbook_mul(a, b):
    order = min(a.lo + b.order, b.lo + a.order)
    if a.is_zero or b.is_zero:
        return S(order, [], order)
    lo = a.lo + b.lo
    cs = [Fraction(0)] * (order - lo)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < order - lo:
                cs[i + j] += x * y
    return S(lo, cs, order)


def _schoolbook_div(a, b):
    if b.is_zero:
        raise DomainError("division by a series with no known nonzero coefficient")
    order = min(a.order - b.lo, a.lo + b.order - 2 * b.lo)
    lo = a.lo - b.lo
    cs = []
    for k in range(order - lo):
        acc = a.coefficient(a.lo + k) - sum(cs[i] * b.coefficient(b.lo + k - i) for i in range(k))
        cs.append(acc / b.coeffs[0])
    return S(lo, cs, order) if cs else S(order, [], order)


# ---------------------------------------------------------------------------
# hypothesis material

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@st.composite
def series(draw, min_lo=-3, max_lo=3, min_len=1, max_len=5):
    lo = draw(st.integers(min_value=min_lo, max_value=max_lo))
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    coeffs = draw(st.lists(rationals, min_size=length, max_size=length))
    return S(lo, coeffs)


@st.composite
def raw_series(draw):
    """Negative or positive lo, zero to six coefficients, zeros frequent, so
    leading zeros, empty (all-unknown) series and empty products occur."""
    lo = draw(st.integers(min_value=-4, max_value=3))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=6))
    return S(lo, coeffs, lo + len(coeffs))


@st.composite
def unit_series(draw):
    """Series with a nonzero leading coefficient (safe divisor)."""
    s = draw(series())
    if s.is_zero:
        return S(s.lo, [Fraction(1)], s.order) if s.order > s.lo else S(0, [1])
    return s


# ---------------------------------------------------------------------------
# construction and window bookkeeping


def test_make_strips_leading_zeros():
    s = S(-2, [0, 0, 3, 4])
    assert s.lo == 0
    assert s.coeffs == (Fraction(3), Fraction(4))
    assert s.order == 2


def test_make_pads_to_requested_order():
    s = S(1, [2], order=4)
    assert s.coeffs == (Fraction(2), Fraction(0), Fraction(0))
    assert s.order == 4


def test_all_zero_window_is_the_empty_series():
    s = S(-1, [0, 0, 0])
    assert s.is_zero
    assert s.lo == s.order == 2


def test_window_invariant_enforced():
    with pytest.raises(DomainError):
        TruncatedLaurentSeries(0, (Fraction(1),), 3)
    with pytest.raises(DomainError):
        S(0, [1, 2], order=1)


def test_coefficient_lookup_and_tail_guard():
    s = S(-1, [Fraction(1, 2), 3])
    assert s.coefficient(-1) == Fraction(1, 2)
    assert s.coefficient(-5) == 0
    with pytest.raises(DomainError):
        s.coefficient(1)


def test_str_rendering():
    assert str(S(-1, [Fraction(1, 2), 0, Fraction(1, 6)])) == "1/2*rho^-1 + 1/6*rho^1 + O(rho^2)"
    assert str(S(2, [], order=2)) == "O(rho^2)"


# ---------------------------------------------------------------------------
# arithmetic against hand results


def test_multiplication_hand_convolution():
    # (1/2 rho^-1 + 1/2 + 1/6 rho)^2 = 1/4 rho^-2 + 1/2 rho^-1 + 5/12 + 1/6 rho
    f = S(-1, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 6)])
    sq = f * f
    assert sq.lo == -2
    assert sq.coefficient(-2) == Fraction(1, 4)
    assert sq.coefficient(-1) == Fraction(1, 2)
    assert sq.coefficient(0) == Fraction(5, 12)
    # window: both factors known to O(rho^2), product known to O(rho^1)
    assert sq.order == 1
    with pytest.raises(DomainError):
        sq.coefficient(1)


def test_division_inverts_multiplication_simple():
    a = S(-1, [1, 2, 3, 4])
    b = S(1, [2, -1, 5, 7])
    quotient = (a * b) / b
    assert quotient.agrees_with(a)


def test_division_by_higher_pole_shifts_window():
    one = _constant(1, 3)
    pole = S(-1, [2, 0, 0, 0])
    inv = one / pole
    assert inv.lo == 1
    assert inv.coefficient(1) == Fraction(1, 2)


def test_differentiate_monomial_and_constant():
    s = _differentiate(S(4, [Fraction(3, 2)], 6))
    assert s.coefficient(3) == 6
    c = _differentiate(_constant(5, 3))
    assert c.is_zero
    assert c.order == 2


def test_shift_and_scale_and_truncate():
    s = S(0, [1, 2, 3])
    assert s.shift(2).coefficient(2) == 1
    assert s.scale(Fraction(1, 3)).coefficient(1) == Fraction(2, 3)
    t = _truncate(s, 2)
    assert t.order == 2
    with pytest.raises(DomainError):
        t.coefficient(2)
    with pytest.raises(DomainError):
        _truncate(s, 5)


def test_evaluate_is_plain_polynomial_value():
    s = S(-1, [Fraction(1, 2), Fraction(1, 4)])
    rho = 0.3
    assert s.evaluate(rho) == pytest.approx(0.5 / rho + 0.25, rel=1e-15)
    with pytest.raises(DomainError):
        s.evaluate(0.0)


@given(a=series(), b=series(), c=series())
def test_add_associative_and_commutative(a, b, c):
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a + b).agrees_with(b + a)


@given(a=series(), b=series())
def test_mul_commutative(a, b):
    assert (a * b).agrees_with(b * a)


@given(a=series(), b=series(), c=series())
def test_mul_distributes_over_add(a, b, c):
    assert (a * (b + c)).agrees_with(a * b + a * c)


@given(a=series(), b=unit_series())
def test_div_mul_roundtrip(a, b):
    assert ((a / b) * b).agrees_with(a)


@given(a=series(), b=series())
def test_product_rule(a, b):
    lhs = _differentiate(a * b)
    rhs = _differentiate(a) * b + a * _differentiate(b)
    assert lhs.agrees_with(rhs)


@given(a=raw_series(), b=raw_series())
@example(a=S(-2, [1, 2]), b=S(3, [], 3))
@example(a=S(1, [], 1), b=S(-1, [Fraction(2, 3), 5]))
def test_mul_matches_schoolbook(a, b):
    # == compares lo, coefficients and order
    assert a * b == _schoolbook_mul(a, b)


@given(a=raw_series(), b=raw_series())
@example(a=S(-2, [1, 2]), b=S(3, [], 3))
@example(a=S(1, [], 1), b=S(-1, [Fraction(2, 3), 5]))
@example(a=S(0, [1, 0, 0, 5]), b=S(-3, [Fraction(-5, 3), 0, Fraction(1, 4), 2]))
def test_div_matches_schoolbook(a, b):
    if b.is_zero:
        with pytest.raises(DomainError, match="no known nonzero coefficient"):
            a / b
    else:
        assert a / b == _schoolbook_div(a, b)


# ---------------------------------------------------------------------------
# square roots


def test_sqrt_normalized_structure_and_square():
    s = S(2, [Fraction(9, 4), 3, 1])
    rad = sqrt_normalized(s)
    assert rad.radicand == Fraction(9, 4)
    assert rad.shift == 1
    assert rad.tail.coefficient(0) == 1
    assert rad.squared().agrees_with(s)


def test_sqrt_normalized_evaluate():
    s = S(0, [4, 4, 1])  # (2 + rho)^2
    rad = sqrt_normalized(s)
    for rho in (0.01, 0.2):
        assert rad.evaluate(rho) == pytest.approx(2.0 + rho, rel=1e-12)


def test_sqrt_normalized_guards():
    with pytest.raises(DomainError):
        sqrt_normalized(S(1, [1]))  # odd leading exponent
    with pytest.raises(DomainError):
        sqrt_normalized(S(0, [-1, 2]))
    with pytest.raises(DomainError):
        sqrt_normalized(S(2, [], order=2))


@given(s=series(min_lo=-1, max_lo=2, min_len=2, max_len=5))
def test_sqrt_square_roundtrip(s):
    doubled = s.shift(s.lo) if s.lo % 2 else s  # force an even leading exponent
    if doubled.is_zero or doubled.coeffs[0] <= 0:
        return
    assert sqrt_normalized(doubled).squared().agrees_with(doubled)


@given(s=series(min_lo=-2, max_lo=2, min_len=1, max_len=6))
def test_sqrt_normalized_matches_schoolbook(s):
    if s.is_zero or s.coeffs[0] <= 0:
        return
    even = s.shift(s.lo % 2)
    assert sqrt_normalized(even) == _schoolbook_sqrt(even)


def test_exp_series_taylor_coefficients():
    e = _exp_series(-2, 5)
    for j in range(5):
        assert e.coefficient(j) == Fraction(-2) ** j / math.factorial(j)


# ---------------------------------------------------------------------------
# the expansion pipeline


def test_expand_F_known_window():
    f = expand_F(4)
    expected = {-1: Fraction(1, 2), 0: Fraction(1, 2), 1: Fraction(1, 6),
                2: Fraction(0), 3: Fraction(-1, 90)}
    for e, c in expected.items():
        assert f.coefficient(e) == c


def test_expand_F_matches_exp_division(monkeypatch):
    # the Bernoulli closed form against 1 / (1 - exp(-2 rho)) by schoolbook
    # division, every order; orders <= -1 give the empty window.  The
    # Bernoulli table is emptied first, then filled once in one step (orders
    # falling) and once in many (orders rising).
    expected = {order: S(order, [], order) for order in (-2, -1)}
    for order in range(0, 61):
        g = _constant(1, order + 2) - _exp_series(-2, order + 2)
        expected[order] = _schoolbook_div(_constant(1, order + 1), g)
    for orders in (range(60, -3, -1), range(-2, 61)):
        monkeypatch.setattr(laurent, "_BERNOULLI", [])
        for order in orders:
            assert expand_F(order) == expected[order]


def test_expand_F_empty_window_below_pole():
    f = expand_F(-2)
    assert f.is_zero
    assert f.order == -2


def test_expand_s0_n2_is_F():
    assert expand_s0(2, 3).agrees_with(expand_F(3))


def test_expand_s0_n3_window():
    s = expand_s0(3, 2)
    assert s.lo == -2
    assert [s.coefficient(e) for e in range(-2, 2)] == [
        Fraction(1, 4), Fraction(1, 2), Fraction(5, 12), Fraction(1, 6)
    ]


def test_expand_s0_power_consistency():
    # S_0 for n and n+1 differ by one factor of F
    for n in (2, 3, 4, 6):
        lhs = expand_s0(n + 1, 0)
        rhs = expand_s0(n, 1) * expand_F(1)
        assert lhs.agrees_with(rhs)


def test_expand_sm_is_derivative_recursion():
    for n in (2, 3, 5):
        for m in (0, 1, 2, 3):
            step = _differentiate(expand_sm(n, m, 2)).scale(Fraction(-1, 2))
            assert expand_sm(n, m + 1, 1).agrees_with(step)


def test_expand_sm_numeric_agreement():
    rho = 0.05
    for n, m in ((2, 1), (3, 2), (5, 1)):
        window_value = expand_sm(n, m, 2).evaluate(rho)
        direct = s_m_eval(n, m, rho)
        assert window_value == pytest.approx(direct, rel=1e-6)


def test_derive_ABC_matches_defining_combinations():
    # == compares lo, coefficients and order, so a window that comes back
    # wider or narrower than the defining combination fails
    for n, m in ((3, 1), (5, 2), (4, 3)):
        ell = n + 2 * m
        for order in (None, 0, -ell - 2):
            order_ab = 4 - ell if order is None else order
            order_c = -ell if order is None else order
            a_series, b_series, c_series = derive_ABC(n, m, order)
            inv = Fraction(1, n - 1)
            a_direct = expand_sm(n, 2 * m + 1, order_ab).scale(2 * inv) + expand_sm(n, 2 * m, order_ab)
            assert a_series == a_direct
            b_direct = None
            for j in range(m + 1):
                cmj = math.comb(m, j)
                piece = expand_sm(n, m + j + 1, order_ab).scale(cmj * inv) + expand_sm(
                    n, m + j, order_ab
                ).scale(cmj)
                b_direct = piece if b_direct is None else b_direct + piece
            assert b_series == b_direct
            c_direct = (
                expand_sm(n, 2 * m + 3, order_c).scale(2 * inv)
                + expand_sm(n, 2 * m + 2, order_c).scale(3)
                + expand_sm(n, 2 * m + 1, order_c).scale(n - 1)
            )
            assert c_series == c_direct


# Test-local references: S_0 as the repeated product F * ... * F and S_k by
# the (-1/2 d/drho) chain, independent of the power recurrence and of the
# direct S_k coefficient formula in the engine.


def _product_s0(n, order):
    if order <= -(n - 1):
        return S(order, [], order)
    f = expand_F(order + n - 2)
    return reduce(operator.mul, [f] * (n - 1))


def _chain_sk(n, top, kmax):
    """[S_0, ..., S_kmax], S_k known through top - k."""
    s = [_product_s0(n, top)]
    for _ in range(kmax):
        s.append(_differentiate(s[-1]).scale(Fraction(-1, 2)))
    return s


def _reference_ABC(n, m, order=None, s=None):
    """A, B, C from the defining combinations of S_k; s, if given, is a
    _chain_sk of this n known far enough."""
    ell = n + 2 * m
    order_ab = 4 - ell if order is None else order
    order_c = -ell if order is None else order
    if s is None:
        s = _chain_sk(n, max(order_ab + 2 * m + 1, order_c + 2 * m + 3), 2 * m + 3)
    s_ab = [_truncate(sk, order_ab) for sk in s[: 2 * m + 2]]
    s_c = {k: _truncate(s[k], order_c) for k in range(2 * m + 1, 2 * m + 4)}
    inv = Fraction(1, n - 1)
    a = s_ab[2 * m + 1].scale(2 * inv) + s_ab[2 * m]
    b = s_ab[m].scale(math.comb(m, 0)) + s_ab[m + 1].scale(inv)
    for j in range(1, m + 1):
        cmj = math.comb(m, j)
        b = b + s_ab[m + j].scale(cmj) + s_ab[m + j + 1].scale(cmj * inv)
    c = s_c[2 * m + 3].scale(2 * inv) + s_c[2 * m + 2].scale(3) + s_c[2 * m + 1].scale(n - 1)
    return a, b, c


def test_expand_s0_matches_repeated_product():
    # == compares lo, coefficients and order; orders from -n give empty windows.
    # One product per n, narrowed by truncate, keeps this to about a second.
    for n in (2, 3, 4, 5, 8, 13, 21, 34, 48):
        widest = _product_s0(n, 3)
        for order in range(-n, 4):
            assert expand_s0(n, order) == _truncate(widest, order)


def test_expand_sm_and_derive_ABC_match_derivative_chain():
    for n in range(2, 9):
        for m in range(1, 5):
            ell = n + 2 * m
            for order in (None, 0, -ell - 2, 5):
                assert derive_ABC(n, m, order) == _reference_ABC(n, m, order)
                if order is not None:
                    chain = _chain_sk(n, order + 2 * m + 3, 2 * m + 3)
                    for k, sk in enumerate(chain):
                        assert expand_sm(n, k, order) == _truncate(sk, order)


def test_derive_ABC_matches_derivative_chain_on_benchmark_grid():
    # every (n, m) of the exact-expansions benchmark workload, default windows
    # and order 5; one chain per n, known through order 5 for every m, serves both
    for n in range(2, 49):
        chain = _chain_sk(n, 5 + 23, 23)
        for m in range(1, 11):
            for order in (None, 5):
                assert derive_ABC(n, m, order) == _reference_ABC(n, m, order, chain)


def test_derive_ABC_numeric_agreement():
    n, m, rho = 5, 1, 0.1
    a_series, b_series, c_series = derive_ABC(n, m, order=0)
    s = {k: s_m_eval(n, k, rho) for k in range(m, 2 * m + 4)}
    a_direct = 2.0 / (n - 1) * s[2 * m + 1] + s[2 * m]
    b_direct = sum(
        math.comb(m, j) * (s[m + j + 1] / (n - 1) + s[m + j]) for j in range(m + 1)
    )
    c_direct = 2.0 / (n - 1) * s[2 * m + 3] + 3.0 * s[2 * m + 2] + (n - 1) * s[2 * m + 1]
    assert a_series.evaluate(rho) == pytest.approx(a_direct, rel=1e-4)
    assert b_series.evaluate(rho) == pytest.approx(b_direct, rel=1e-4)
    assert c_series.evaluate(rho) == pytest.approx(c_direct, rel=1e-4)


def test_expand_variances_n3_m1():
    var_space, var_momentum, product = expand_variances(3, 1)
    assert var_space.coefficient(2) == Fraction(1, 3)
    assert var_space.coefficient(3) == 0
    assert var_momentum.coefficient(-2) == Fraction(15, 2)
    assert var_momentum.coefficient(-1) == Fraction(5, 2)
    assert product.radicand == Fraction(5, 2)
    assert product.shift == 0
    assert product.tail.coefficient(1) == Fraction(1, 6)


def _reference_variances(n, m):
    """The series-arithmetic chain on derive_ABC's windows, in schoolbook Fractions."""
    a, b, c = derive_ABC(n, m)
    q = _schoolbook_div(_schoolbook_mul(_exp_series(1, 4), a), b.scale(2))
    var_space = _schoolbook_mul(q, q) - _constant(1, 4)
    var_momentum = _schoolbook_div(c, a)
    return var_space, var_momentum, _schoolbook_sqrt(_schoolbook_mul(var_space, var_momentum))


def test_expand_variances_matches_series_chain():
    # every (n, m) of the exact-expansions benchmark workload and three far
    # cells; == compares lo, coefficients and order, radicand, shift and tail
    cells = [(n, m) for n in range(2, 49) for m in range(1, 11)] + [(200, 3), (400, 10), (100, 100)]
    for n, m in cells:
        assert expand_variances(n, m) == _reference_variances(n, m), (n, m)


def test_expand_variances_numeric_agreement():
    for n, m in ((3, 1), (4, 2), (6, 1)):
        rho = 0.02
        var_space, var_momentum, product = expand_variances(n, m)
        res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
        assert var_space.evaluate(rho) == pytest.approx(res.var_space, rel=1e-2)
        assert var_momentum.evaluate(rho) == pytest.approx(res.var_momentum, rel=1e-2)
        assert product.evaluate(rho) == pytest.approx(res.product, rel=1e-2)


def _clear_engine_caches():
    for cached in (laurent._s_rows, laurent._abc_numerators, expand_variances):
        cached.cache_clear()


def test_memoised_engine_matches_fresh_builds():
    # every call once with the caches warm, in shuffled order so that an S_k
    # table first built for a small k is extended later, then again from
    # empty caches; == compares lo, coefficients and order
    calls = [(expand_variances, n, m) for n in range(2, 61) for m in range(1, 13)]
    calls += [(derive_ABC, n, m) for n in range(2, 61) for m in range(1, 13)]
    calls += [(derive_ABC, n, m, order) for n in range(2, 61, 7) for m in (1, 4, 12)
              for order in (-n - 2 * m - 3, 0, 5)]
    calls += [(derive_ABC, 48, 10, 5), (derive_ABC, 200, 3, 0)]
    calls += [(expand_sm, n, k, order) for n in range(2, 61, 3) for k in range(0, 13)
              for order in (2 - k, 5 - n - k, 0)]
    random.Random(12).shuffle(calls)
    _clear_engine_caches()
    warm = [fn(*args) for fn, *args in calls]
    for (fn, *args), value in zip(calls, warm):
        _clear_engine_caches()
        assert fn(*args) == value, (fn.__name__, args)


def test_memoised_entries_cannot_be_mutated():
    _clear_engine_caches()
    first = expand_variances(7, 3)
    assert expand_variances(7, 3) is first
    var_space, _, product = first
    with pytest.raises(TypeError):
        first[0] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        var_space.coeffs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        product.radicand = Fraction(1)
    with pytest.raises(TypeError):
        var_space.coeffs[0] = Fraction(0)
    windows, _ = laurent._abc_numerators(7, 3, None)
    with pytest.raises(TypeError):
        windows[0][1][0] = 0
    # the S_k table grows by swapping in a longer tuple of rows, so rows
    # handed out earlier (to this caller or another thread) never change
    table = laurent._s_rows(7, 40)
    short = table.upto(3)
    assert len(short) == 4
    longer = table.upto(30)
    assert len(short) == 4 and longer[:4] == short
    with pytest.raises(TypeError):
        longer[1][0] = 0


def test_expand_guards():
    with pytest.raises(DomainError):
        expand_s0(1, 2)
    with pytest.raises(DomainError):
        expand_sm(3, -1, 2)
    with pytest.raises(DomainError):
        derive_ABC(3, 0)
