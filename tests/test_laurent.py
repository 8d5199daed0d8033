"""Exact truncated Laurent series, the engine's integer kernels and the small-scale expansion pipeline."""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from zonalvar import laurent, variance
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
)

S = TruncatedLaurentSeries.make


# ---------------------------------------------------------------------------
# test-local references: window bookkeeping and schoolbook Fraction arithmetic


def _add(a, b):
    """a + b, known as far as both are."""
    order = min(a.order, b.order)
    lo = min(a.lo, b.lo, order)
    return S(lo, [a.coefficient(e) + b.coefficient(e) for e in range(lo, order)], order)


def _scale(s, factor):
    return S(s.lo, [Fraction(factor) * c for c in s.coeffs], s.order)


def _shift(s, k):
    """Multiply by rho^k (the window shifts rigidly)."""
    return S(s.lo + k, s.coeffs, s.order + k)


def _numerators(coeffs):
    """(numerators, D): the coefficients as integers over their least common denominator D."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _agrees(a, b):
    """Equality of all coefficients on the common known window."""
    return all(a.coefficient(e) == b.coefficient(e) for e in range(min(a.lo, b.lo), min(a.order, b.order)))


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
    """The normalized square root by the Fraction recursion
    s_j = (u_j - sum s_i s_(j-i)) / 2, u the series over its leading coefficient."""
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
    radical = laurent.NormalizedRadicalSeries
    assert str(radical(Fraction(5, 2), 0, S(0, [1, Fraction(-1, 3)]))) == (
        "sqrt(5/2) * (1 + -1/3*rho^1 + O(rho^2))"
    )
    assert str(radical(Fraction(21, 5), -1, S(0, [1, 0, Fraction(2, 7)]))) == (
        "sqrt(21/5)*rho^-1 * (1 + 2/7*rho^2 + O(rho^3))"
    )


# ---------------------------------------------------------------------------
# integer kernels and references against hand results


def test_multiplication_hand_convolution():
    # (1/2 rho^-1 + 1/2 + 1/6 rho)^2 = 1/4 rho^-2 + 1/2 rho^-1 + 5/12 + 1/6 rho + ...
    f = S(-1, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 6)])
    nums, den = laurent._s0_numerators(2, 2)  # F = S_0 on S^2
    assert (nums, den) == ([3, 3, 1], 6) == _numerators(f.coeffs)
    assert laurent._convolve(nums, nums, 4) == [9, 18, 15, 6]  # over 36
    sq = _schoolbook_mul(f, f)
    assert sq.coeffs == (Fraction(1, 4), Fraction(1, 2), Fraction(5, 12))
    # window: both factors known to O(rho^2), product known to O(rho^1)
    assert sq.lo == -2 and sq.order == 1
    with pytest.raises(DomainError):
        sq.coefficient(1)


def test_division_inverts_multiplication_simple():
    a, b = [1, 2, 3, 4], [2, -1, 5, 7]
    xs, scale = laurent._divide(laurent._convolve(a, b, 4), b, 4)
    assert scale == 2**4
    assert xs == [x * scale for x in a]
    sa, sb = S(-1, a), S(1, b)
    assert _agrees(_schoolbook_div(_schoolbook_mul(sa, sb), sb), sa)


def test_division_by_higher_pole_shifts_window():
    inv = _schoolbook_div(_constant(1, 3), S(-1, [2, 0, 0, 0]))
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
    assert _shift(s, 2).coefficient(2) == 1
    assert _scale(s, Fraction(1, 3)).coefficient(1) == Fraction(2, 3)
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
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            s.evaluate(bad)
    with pytest.raises(DomainError):
        S(-1, [1, 2]).evaluate(math.inf)  # not its constant term 2.0


def _fraction_convolution(a, b, length):
    a, b = a + [0] * length, b + [0] * length
    return [sum(Fraction(a[i] * b[k - i]) for i in range(k + 1)) for k in range(length)]


def _fraction_long_division(a, b, length):
    x = []
    for k in range(length):
        x.append((a[k] - sum(x[i] * b[k - i] for i in range(k))) / Fraction(b[0]))
    return x


integer_lists = st.lists(st.one_of(st.just(0), st.integers(min_value=-40, max_value=40)), max_size=7)
# the engine strips a divisor's leading zeros first, so b_0 != 0
divisors = st.builds(
    lambda b0, rest: [b0] + rest,
    st.integers(min_value=-40, max_value=40).filter(bool),
    st.lists(st.one_of(st.just(0), st.integers(min_value=-40, max_value=40)), max_size=6),
)


@given(a=integer_lists, b=integer_lists, length=st.integers(min_value=0, max_value=8))
@example(a=[0, 0, 3, 1], b=[0, 5, 2], length=6)
@example(a=[], b=[7], length=3)
def test_mul_matches_schoolbook(a, b, length):
    # _convolve: the first `length` coefficients of a * b, leading zeros and
    # lists shorter than `length` included
    assert laurent._convolve(a, b, length) == _fraction_convolution(a, b, length)


@given(a=integer_lists, b=divisors, length=st.integers(min_value=0, max_value=8))
@example(a=[0, 0, 3, 1], b=[5, 2], length=6)
@example(a=[0, 0, 0, 5], b=[-3, 0, 1, 2], length=4)
def test_div_matches_schoolbook(a, b, length):
    # _divide: as many quotient coefficients as both windows know, over b_0^length
    known = min(length, len(a), len(b))
    xs, scale = laurent._divide(a, b, known)
    assert scale == b[0] ** known
    assert [Fraction(x, scale) for x in xs] == _fraction_long_division(a, b, known)


# ---------------------------------------------------------------------------
# square roots


def _radical(series):
    """The engine's square-root kernel on a series' integer numerators."""
    return laurent._radical(series.lo, *_numerators(series.coeffs))


def _squared(rad):
    """The exact square of a normalized radical, a plain series."""
    return _shift(_scale(_schoolbook_mul(rad.tail, rad.tail), rad.radicand), 2 * rad.shift)


def test_sqrt_normalized_structure_and_square():
    s = S(2, [Fraction(9, 4), 3, 1])
    rad = _radical(s)
    assert rad.radicand == Fraction(9, 4)
    assert rad.shift == 1
    assert rad.tail.coefficient(0) == 1
    assert _agrees(_squared(rad), s)


def test_sqrt_normalized_evaluate():
    rad = _radical(S(0, [4, 4, 1]))  # (2 + rho)^2
    for rho in (0.01, 0.2):
        assert rad.evaluate(rho) == pytest.approx(2.0 + rho, rel=1e-12)


def test_sqrt_normalized_guards():
    with pytest.raises(DomainError):
        _radical(S(1, [1]))  # odd leading exponent
    with pytest.raises(DomainError):
        _radical(S(0, [-1, 2]))
    with pytest.raises(DomainError):
        _radical(S(2, [], order=2))


@given(s=series(min_lo=-1, max_lo=2, min_len=2, max_len=5))
def test_sqrt_square_roundtrip(s):
    doubled = _shift(s, s.lo) if s.lo % 2 else s  # force an even leading exponent
    if doubled.is_zero or doubled.coeffs[0] <= 0:
        return
    assert _agrees(_squared(_radical(doubled)), doubled)


@given(s=series(min_lo=-2, max_lo=2, min_len=1, max_len=6))
def test_sqrt_normalized_matches_schoolbook(s):
    if s.is_zero or s.coeffs[0] <= 0:
        return
    even = _shift(s, s.lo % 2)
    assert _radical(even) == _schoolbook_sqrt(even)


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


def test_expand_F_matches_exp_division():
    # the Bernoulli closed form against 1 / (1 - exp(-2 rho)) by schoolbook
    # division, every order; orders <= -1 give the empty window.  The
    # Bernoulli memo is cleared before each sweep, orders falling and rising.
    expected = {order: S(order, [], order) for order in (-2, -1)}
    for order in range(0, 61):
        g = _add(_constant(1, order + 2), _scale(_exp_series(-2, order + 2), -1))
        expected[order] = _schoolbook_div(_constant(1, order + 1), g)
    for orders in (range(60, -3, -1), range(-2, 61)):
        laurent._bernoulli_pairs.cache_clear()
        for order in orders:
            assert expand_F(order) == expected[order]


def test_bernoulli_pairs_match_mpmath():
    # b_j = 2^j B_j^+ (B_1^+ = +1/2) as reduced integer pairs, every j < 400,
    # and each shorter table is a prefix of the longer one
    expected = []
    for j in range(400):
        p, q = mpmath.bernfrac(j)
        b = Fraction(-p if j == 1 else p, q) * 2**j
        expected.append((b.numerator, b.denominator))
    laurent._bernoulli_pairs.cache_clear()
    assert laurent._bernoulli_pairs(400) == tuple(expected)
    for length in (0, 1, 2, 3, 4, 57, 399):
        assert laurent._bernoulli_pairs(length) == tuple(expected[:length])


def test_expand_F_empty_window_below_pole():
    f = expand_F(-2)
    assert f.is_zero
    assert f.order == -2


def test_expand_s0_n2_is_F():
    assert _agrees(expand_s0(2, 3), expand_F(3))


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
        rhs = _schoolbook_mul(expand_s0(n, 1), expand_F(1))
        assert _agrees(lhs, rhs)


def test_expand_sm_is_derivative_recursion():
    for n in (2, 3, 5):
        for m in (0, 1, 2, 3):
            step = _scale(_differentiate(expand_sm(n, m, 2)), Fraction(-1, 2))
            assert _agrees(expand_sm(n, m + 1, 1), step)


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
            a_direct = _add(_scale(expand_sm(n, 2 * m + 1, order_ab), 2 * inv), expand_sm(n, 2 * m, order_ab))
            assert a_series == a_direct
            b_direct = None
            for j in range(m + 1):
                cmj = math.comb(m, j)
                piece = _add(_scale(expand_sm(n, m + j + 1, order_ab), cmj * inv),
                             _scale(expand_sm(n, m + j, order_ab), cmj))
                b_direct = piece if b_direct is None else _add(b_direct, piece)
            assert b_series == b_direct
            c_direct = _add(_add(_scale(expand_sm(n, 2 * m + 3, order_c), 2 * inv),
                                 _scale(expand_sm(n, 2 * m + 2, order_c), 3)),
                            _scale(expand_sm(n, 2 * m + 1, order_c), n - 1))
            assert c_series == c_direct


# Test-local references: S_0 as the repeated product F * ... * F and S_k by
# the (-1/2 d/drho) chain, independent of the power recurrence and of the
# direct S_k coefficient formula in the engine.


def _product_s0(n_max, order):
    """[S_0(n, order) for n = 2..n_max] as powers of F, one schoolbook product
    per n: S_0(n+1, T-1) = S_0(n, T) F(T+n-2), so one F known through
    order + n_max - 2 serves every power."""
    f = expand_F(order + n_max - 2)
    powers = [f]
    for _ in range(n_max - 2):
        powers.append(_schoolbook_mul(powers[-1], f))
    return [_truncate(p, order) for p in powers]


def _chain_sk(s0, kmax):
    """[S_0, ..., S_kmax], S_k known through s0.order - k."""
    s = [s0]
    for _ in range(kmax):
        s.append(_scale(_differentiate(s[-1]), Fraction(-1, 2)))
    return s


def _reference_ABC(n, m, order=None, s=None):
    """A, B, C from the defining combinations of S_k; s, if given, is a
    _chain_sk of this n known far enough."""
    ell = n + 2 * m
    order_ab = 4 - ell if order is None else order
    order_c = -ell if order is None else order
    if s is None:
        top = max(order_ab + 2 * m + 1, order_c + 2 * m + 3)
        s = _chain_sk(_product_s0(n, top)[-1], 2 * m + 3)
    s_ab = [_truncate(sk, order_ab) for sk in s[: 2 * m + 2]]
    s_c = {k: _truncate(s[k], order_c) for k in range(2 * m + 1, 2 * m + 4)}
    inv = Fraction(1, n - 1)
    a = _add(_scale(s_ab[2 * m + 1], 2 * inv), s_ab[2 * m])
    b = _add(s_ab[m], _scale(s_ab[m + 1], inv))
    for j in range(1, m + 1):
        cmj = math.comb(m, j)
        b = _add(_add(b, _scale(s_ab[m + j], cmj)), _scale(s_ab[m + j + 1], cmj * inv))
    c = _add(_add(_scale(s_c[2 * m + 3], 2 * inv), _scale(s_c[2 * m + 2], 3)), _scale(s_c[2 * m + 1], n - 1))
    return a, b, c


def test_expand_s0_matches_repeated_product():
    # == compares lo, coefficients and order; orders from -n give empty windows.
    # The engine's integers are the reference's over its least common
    # denominator, ([], 1) when the window is empty.
    # One chain of products, narrowed by truncate, keeps this well under a second.
    powers = _product_s0(48, 3)
    for n in (2, 3, 4, 5, 8, 13, 21, 34, 48):
        for order in range(-n, 4):
            reference = _truncate(powers[n - 2], order)
            assert expand_s0(n, order) == reference
            assert laurent._s0_numerators(n, order) == _numerators(reference.coeffs)


def test_expand_sm_and_derive_ABC_match_derivative_chain():
    for n in range(2, 9):
        for m in range(1, 5):
            ell = n + 2 * m
            for order in (None, 0, -ell - 2, 5):
                assert derive_ABC(n, m, order) == _reference_ABC(n, m, order)
                if order is not None:
                    chain = _chain_sk(_product_s0(n, order + 2 * m + 3)[-1], 2 * m + 3)
                    for k, sk in enumerate(chain):
                        assert expand_sm(n, k, order) == _truncate(sk, order)


def test_derive_ABC_matches_derivative_chain_on_benchmark_grid():
    # every (n, m) of the exact-expansions benchmark workload, default windows
    # and order 5; one chain per n, known through order 5 for every m, serves both
    for n, s0 in enumerate(_product_s0(48, 5 + 23), start=2):
        chain = _chain_sk(s0, 23)
        for m in range(1, 11):
            for order in (None, 5):
                assert derive_ABC(n, m, order) == _reference_ABC(n, m, order, chain)


def test_abc_numerators_form_only_the_B_terms_they_read():
    # S_k leads at rho^-(n-1+k), so B's terms below k = 2 - n - order add to
    # no numerator: the full weight table gives the same integers on every
    # benchmark cell, and at the default windows B keeps four terms
    for n in range(2, 49):
        for m in range(1, 11):
            ell = n + 2 * m
            for order in (None, 0, 5, -ell - 2):
                order_ab = 4 - ell if order is None else order
                order_c = -ell if order is None else order
                tables = list(zip(laurent._abc_weights(n, m), (order_ab, order_ab, order_c)))
                assert laurent._abc_numerators(n, m, order) == laurent._s_numerators(n, tables, n - 1)
            trimmed = laurent._abc_weights(n, m, 2 - n - (4 - ell))[1]
            assert [k for k, _ in trimmed] == list(range(max(2 * m - 2, m), 2 * m + 2))


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
    q = _schoolbook_div(_schoolbook_mul(_exp_series(1, 4), a), _scale(b, 2))
    var_space = _add(_schoolbook_mul(q, q), _constant(-1, 4))
    var_momentum = _schoolbook_div(c, a)
    return var_space, var_momentum, _schoolbook_sqrt(_schoolbook_mul(var_space, var_momentum))


def test_expand_variances_matches_series_chain():
    # every (n, m) of the exact-expansions benchmark workload and three far
    # cells; == compares lo, coefficients and order, radicand, shift and tail
    cells = [(n, m) for n in range(2, 49) for m in range(1, 11)] + [(200, 3), (400, 10), (100, 100)]
    for n, m in cells:
        assert expand_variances(n, m) == _reference_variances(n, m), (n, m)


def test_product_slope_is_negative_below_the_minimising_order():
    """The rho^1 coefficient c1 of U's tail is negative exactly when
    m < m* = floor((n - 1) / 2), and never 0.

    The general case of :func:`zonalvar.asymptotics.theorem_expansion` states
    c1 = -2 (n - 1) m Y / ((L - 3)(L - 1)(L + 1) X) with L = n + 2m,
    X = n^2 - 3n + 2(m + 1) and Y = -4m^2 - 4(n - 2)m + 3(n - 1)(n - 3).
    For n >= 2 and m >= 1 every factor but Y is positive (L - 3 >= 1 and
    X >= 2m), so c1 < 0 exactly when Y > 0.  Y decreases in m, as
    dY/dm = -8m - 4(n - 2) < 0, so for n >= 5 the exact integer checks
    Y(n, m* - 1) > 0 > Y(n, m*) give Y > 0 exactly when m < m*, and Y is
    never 0 at an integer m.  For n <= 4, m* <= 1 and Y(n, 1) < 0, so
    c1 > 0 at every m >= 1.  The integer checks below cover n <= 5000;
    this proves the rule for the general-case formula only, and the
    engine loop checks it where the engine is computed.  That the formula
    equals the engine for every n is proved separately.
    """

    def y(n, m):
        return -4 * m * m - 4 * (n - 2) * m + 3 * (n - 1) * (n - 3)

    for n in range(2, 5):
        assert y(n, 1) < 0 and (n - 1) // 2 <= 1, n
    for n in range(5, 5001):
        m_star = (n - 1) // 2
        assert y(n, m_star - 1) > 0 > y(n, m_star), n
    for n in range(2, 41):
        for m in range(1, 2 * n + 1):
            slope = expand_variances(n, m)[2].tail.coefficient(1)
            assert slope != 0 and (slope < 0) == (m < (n - 1) // 2), (n, m, slope)


def test_s_path_polynomials_match_derive_ABC():
    # A = F^(n-1) a(F - 1) / (n-1), and so for B and C, with a, b, c the S
    # path's integer polynomials in w = F - 1 and F^(n-1) a chain of
    # schoolbook products, not the engine's power recurrence
    for n in range(2, 9):
        f = expand_F(n + 15)  # known far enough for every window below
        w = _add(f, _constant(-1, f.order))
        w_powers = [_constant(1, f.order)]  # w^0 .. w^11: a, b, c have 2m + 4 <= 12 coefficients
        for _ in range(11):
            w_powers.append(_schoolbook_mul(w_powers[-1], w))
        s0 = _product_s0(n, f.order - n + 2)[-1]
        for m in range(1, 5):
            polys = variance._wavelet_polynomials(n, m)
            for order in (None, 0, 5):
                for poly, series in zip(polys, derive_ABC(n, m, order)):
                    in_w = _constant(0, f.order)
                    for coeff, power in zip(poly, w_powers):
                        in_w = _add(in_w, _scale(power, coeff))
                    via_s = _scale(_schoolbook_mul(s0, in_w), Fraction(1, n - 1))
                    assert _truncate(via_s, series.order) == series, (n, m, order)


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


def test_benchmark_cells_in_shuffled_order_match_ascending_order():
    # the exact-expansions benchmark visits its 470 cells in a shuffled
    # order, so each S_k table grows from whatever m comes first for its n
    cells = [(n, m) for n in range(2, 49) for m in range(1, 11)]
    _clear_engine_caches()
    ascending = {cell: (expand_variances(*cell), derive_ABC(*cell)) for cell in cells}
    for seed in (3, 29):
        random.Random(seed).shuffle(cells)
        _clear_engine_caches()
        for cell in cells:
            assert (expand_variances(*cell), derive_ABC(*cell)) == ascending[cell], (seed, cell)


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
