"""Closed-form small-rho coefficient tables for the wavelet variances, the
scale-free limit of the uncertainty product, and its minimization over the
wavelet order, together with numeric residual-order fits against the exact
expansion engine.

Everything in this module that is "stated" (the coefficient tables, the
per-case expansion coefficients) is an independent transcription of closed
formulas; the expansion engine in :mod:`zonalvar.laurent` derives the same
quantities from the defining series.  The verification layer compares the
two and treats the engine as authoritative when they disagree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, _require_at_least
from .laurent import expand_variances
from .variance import poisson_uncertainty_via_s
from .zonal import poisson_wavelet_spec

__all__ = [
    "EXPANSION_TARGETS",
    "EXPECTED_PROBE_SIGNS",
    "ExpansionCase",
    "MinimizationResult",
    "ResidualFit",
    "compare_expansion",
    "denominator_coefficient_table",
    "engine_expansion",
    "f_derivative",
    "f_function",
    "f_sign_probes",
    "limit_uncertainty",
    "minimize_limit_over_order",
    "momentum_numerator_coefficient_table",
    "numerator_coefficient_table",
    "residual_order_check",
    "theorem_expansion",
]

EXPANSION_TARGETS = (
    "var_space_rho2",
    "var_space_rho3",
    "var_momentum_rho_minus2",
    "var_momentum_rho_minus1",
    "product_radicand",
    "product_slope",
)


def _check_nm(n: int, m: int, n_min: int = 2) -> tuple[int, int]:
    return _require_at_least("n", n, n_min), _require_at_least("m", m, 1)


def numerator_coefficient_table(n: int, m: int) -> list[Fraction]:
    """Stated leading coefficients of 2^L * A at rho^-L .. rho^(3-L), L = n + 2m.

    The closed forms hold for n >= 5.
    """
    n, m = _check_nm(n, m, n_min=5)
    ell = n + 2 * m
    return [
        Fraction(2 * math.factorial(ell - 1), math.factorial(n - 1)),
        Fraction(2 * (n - 1) * math.factorial(ell - 2), math.factorial(n - 2)),
        Fraction(3 * n * n - 7 * n + 6, 3) * Fraction(math.factorial(ell - 3), math.factorial(n - 3)),
        Fraction((n - 1) * (n * n - 3 * n + 4), 3)
        * Fraction(math.factorial(ell - 4), math.factorial(n - 4)),
    ]


def denominator_coefficient_table(n: int, m: int) -> list[Fraction]:
    """Stated leading coefficients of 2^L * B at rho^-L .. rho^(3-L), n >= 5."""
    n, m = _check_nm(n, m, n_min=5)
    ell = n + 2 * m
    fact_n1 = math.factorial(n - 1)
    b2_poly = (
        3 * n**4 - 10 * n**3 + (12 * m + 9) * n**2 - (12 * m + 2) * n + 12 * m * (m - 1)
    )
    b3_poly = (
        n**6
        - 7 * n**5
        + (6 * m + 17) * n**4
        - (20 * m + 17) * n**3
        + 6 * (2 * m**2 + m + 1) * n**2
        - 4 * (3 * m - 2) * m * n
        + 8 * (m**2 - 3 * m + 2) * m
    )
    return [
        Fraction(math.factorial(ell - 1), fact_n1),
        Fraction((n * n - n + 2 * m) * math.factorial(ell - 2), fact_n1),
        Fraction(b2_poly * math.factorial(ell - 3), 6 * fact_n1),
        Fraction(b3_poly * math.factorial(ell - 4), 6 * fact_n1),
    ]


def momentum_numerator_coefficient_table(n: int, m: int) -> list[Fraction]:
    """Stated leading coefficients of 2^(L+2) * C at rho^-(L+2), rho^-(L+1), n >= 3."""
    n, m = _check_nm(n, m, n_min=3)
    ell = n + 2 * m
    return [
        Fraction(2 * math.factorial(ell + 1), math.factorial(n - 1)),
        Fraction(2 * (n + 1) * math.factorial(ell), math.factorial(n - 2)),
    ]


@dataclass(frozen=True)
class ExpansionCase:
    """Leading expansion coefficients of the variance functionals.

    var_space    = var_space_rho2 rho^2 + var_space_rho3 rho^3 + O(rho^4)
    var_momentum = var_momentum_rho_minus2 rho^-2
                   + var_momentum_rho_minus1 rho^-1 + O(1)
    product      = sqrt(product_radicand) (1 + product_slope rho + O(rho^2))
    """

    case_id: str
    n: int
    m: int
    var_space_rho2: Fraction
    var_space_rho3: Fraction
    var_momentum_rho_minus2: Fraction
    var_momentum_rho_minus1: Fraction
    product_radicand: Fraction
    product_slope: Fraction

    @property
    def coefficients(self) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in EXPANSION_TARGETS}


def theorem_expansion(n: int, m: int) -> ExpansionCase:
    """The stated per-case expansion coefficients (cases n >= 5 with n = 2,
    n = 3, and n = 4 written separately, as in the source tables)."""
    n, m = _check_nm(n, m)
    ell = n + 2 * m
    var_m2 = Fraction(ell * (ell + 1), 4)
    var_m1 = Fraction((n - 1) * m * ell, ell - 1)
    if n == 3:
        case_id = "n=3"
        vs2 = Fraction(1, 2 * m + 1)
        vs3 = Fraction(-2 * (m - 1) * (m + 1) * (m + 5), 3 * (2 * m + 1))
        radicand = Fraction((m + 2) * (2 * m + 3), 2 * (2 * m + 1))
        slope_num = m**5 + 8 * m**4 + 16 * m**3 + 2 * m**2 - 20 * m - 10
        slope = Fraction(-slope_num, 3 * (m + 1) * (m + 2))
    elif n == 4:
        case_id = "n=4"
        vs2 = Fraction(m + 3, 2 * m * m + 5 * m + 3)
        vs3 = Fraction(
            -2 * m * (4 * m * m + 2 * m + 21),
            3 * (2 * m + 3) ** 2 * (2 * m * m + 3 * m + 1),
        )
        radicand = Fraction((m + 3) * (m + 2) * (2 * m + 5), 2 * (m + 1) * (2 * m + 3))
        slope = Fraction(
            -m * (8 * m**3 - 12 * m**2 - 74 * m + 51),
            3 * (m + 3) * (2 * m + 1) * (2 * m + 3) * (2 * m + 5),
        )
    else:
        case_id = "general"
        big_x = n * n - 3 * n + 2 * (m + 1)
        big_y = 3 * n * n - 4 * n * (m + 3) - 4 * m * m + 8 * m + 9
        vs2 = Fraction(n * n - 3 * n + 2 * m + 2, (ell - 1) * (ell - 2))
        vs3 = Fraction(-4 * (n - 1) ** 2 * (n - 3) * m, (ell - 1) ** 2 * (ell - 2) * (ell - 3))
        radicand = Fraction(ell * (ell + 1) * big_x, 4 * (ell - 1) * (ell - 2))
        slope = Fraction(-2 * (n - 1) * m * big_y, (ell - 3) * (ell - 1) * (ell + 1) * big_x)
    return ExpansionCase(case_id, n, m, vs2, vs3, var_m2, var_m1, radicand, slope)


def engine_expansion(n: int, m: int) -> ExpansionCase:
    """The same six coefficients derived by the exact expansion engine."""
    n, m = _check_nm(n, m)
    var_space, var_momentum, product = expand_variances(n, m)
    return ExpansionCase(
        "engine",
        n,
        m,
        var_space.coefficient(2),
        var_space.coefficient(3),
        var_momentum.coefficient(-2),
        var_momentum.coefficient(-1),
        product.radicand,
        product.tail.coefficient(1),
    )


def compare_expansion(n: int, m: int) -> dict[str, dict]:
    """Engine-vs-stated comparison of all six expansion coefficients.

    Returns a mapping target -> {engine, stated, match}; values are exact
    Fractions.  The engine side is authoritative.
    """
    stated = theorem_expansion(n, m).coefficients
    engine = engine_expansion(n, m).coefficients
    return {name: {"engine": engine[name], "stated": stated[name], "match": engine[name] == stated[name]}
            for name in EXPANSION_TARGETS}


def limit_uncertainty(n: int, m: int) -> tuple[Fraction, float]:
    """Scale-free limit of the uncertainty product: returns (U_inf^2, U_inf).

    U_inf^2 = F(m) / 4 with F from :func:`f_function`; it always lies at or
    above the bound (n/2)^2.
    """
    n, m = _check_nm(n, m)
    radicand = f_function(n, m) / 4
    return radicand, math.sqrt(radicand)


def _at_order(n: int, m, terms, name: str):
    """``name`` at order m = p/q from its integer pair terms(n, p, q): a Fraction
    for an integer or Fraction m, else the exact value rounded once.  Integers
    pass ``operator.index``, so numpy integers never compute in int64."""
    n = _require_at_least("n", n, 2)
    try:
        p, q, exact = operator.index(m), 1, True
    except TypeError:
        exact = isinstance(m, Fraction)
        if not (exact or math.isfinite(m := float(m))):
            raise DomainError(f"{name} needs a finite order m, got {m}")
        p, q = m.as_integer_ratio()
    num, den = terms(n, p, q)
    if den == 0:
        raise DomainError(f"{name} has a pole at m = {m}")
    return Fraction(num, den) if exact else num / den


def f_function(n: int, m):
    """F(m) = 4 U_inf^2 as a function of a real (not necessarily integer)
    order parameter m, exact (a Fraction) for an integer or Fraction m, and
    the exact value rounded once for a float m:

        F(m) = L (L+1) (n^2 - 3n + 2(m+1)) / ((L-1)(L-2)),  L = n + 2m.

    Poles sit at m = (1-n)/2 and m = (2-n)/2.
    """
    return _at_order(n, m, _f_terms, "F")


def _f_terms(n: int, p: int, q: int = 1) -> tuple[int, int]:
    """F at m = p/q as the unreduced integer pair (numerator, denominator):
    with ell = (n + 2m) q, ell (ell+q) (q (n^2-3n+2) + 2p) over q (ell-q) (ell-2q)."""
    ell = n * q + 2 * p
    return ell * (ell + q) * (q * (n * n - 3 * n + 2) + 2 * p), q * (ell - q) * (ell - 2 * q)


def f_derivative(n: int, m):
    """Stated closed form of dF/dm, exact or rounded once like :func:`f_function`."""
    return _at_order(n, m, _f_derivative_terms, "F'")


def _f_derivative_terms(n: int, p: int, q: int) -> tuple[int, int]:
    """dF/dm at m = p/q as the unreduced integer pair of the closed form times q^4."""
    num = (
        16 * p**4
        + 16 * p**3 * q * (2 * n - 3)
        + 4 * p**2 * q**2 * (2 * n * n - 2 * n - 5)
        - 4 * p * q**3 * (2 * n**3 - 9 * n * n + 13 * n - 6)
        - q**4 * (n - 2) ** 2 * (3 * n * n - 2 * n - 1)
    )
    return 2 * num, (n * q + 2 * p - q) ** 2 * (n * q + 2 * p - 2 * q) ** 2


_PROBE_OFFSETS = (
    (Fraction(-3, 2), 0),
    (Fraction(-1, 2), -1),
    (Fraction(-1, 2), 0),
    (Fraction(-1, 2), Fraction(3, 4)),
    (Fraction(1, 2), -1),
    (Fraction(1, 2), Fraction(-1, 2)),
)

EXPECTED_PROBE_SIGNS = (1, -1, 1, -1, -1, 1)


def f_sign_probes(n: int) -> list[tuple[Fraction, int]]:
    """Signs of F' at the six probe points m = -3n/2, -n/2 - 1, -n/2,
    -n/2 + 3/4, n/2 - 1, n/2 - 1/2, for n >= 5.

    These six signs pin all four roots of the quartic numerator of F' and
    establish the decrease-then-increase shape on m >= 1.
    """
    if n < 5:
        raise DomainError("the probe table applies for n >= 5")
    probes = []
    for coef, off in _PROBE_OFFSETS:
        mq = coef * n + Fraction(off)
        d = f_derivative(n, mq)
        sign = 0 if d == 0 else (1 if d > 0 else -1)
        probes.append((mq, sign))
    return probes


@dataclass(frozen=True)
class MinimizationResult:
    """Integer order minimizing the scale-free limit for fixed n."""

    n: int
    m_star: int
    radicand: Fraction
    value: float


def minimize_limit_over_order(n: int) -> MinimizationResult:
    """Scan integer orders m = 1..4n for the smallest limit U_inf(n, m).

    4n is past the last critical point of the limit in m, so the scanned
    window provably contains the global integer minimizer.

    The scan checks that the sequence is decreasing up to the minimizer and
    increasing after it, and for n >= 5 verifies the closed-form identities
    m_star = floor((n-1)/2) and 4 U_inf^2(m_star) = n(n-1)(2n-1)/(2n-3).
    It runs on the unreduced integer pairs (numerator, denominator) of
    F = 4 U_inf^2 (see :func:`f_function`), whose denominators
    (L-1)(L-2) are positive, compared cross-multiplied; only the returned
    radicand becomes a ``Fraction``.
    """
    n = _require_at_least("n", n, 2)
    f = [_f_terms(n, m) for m in range(1, 4 * n + 1)]
    best = 0
    for i, (num, den) in enumerate(f):
        if num * f[best][1] < f[best][0] * den:
            best = i
    m_star = best + 1
    for i in range(len(f) - 1):
        m = i + 1
        (num, den), (num_next, den_next) = f[i], f[i + 1]
        if m < m_star and not num * den_next > num_next * den:
            raise RuntimeError(f"limit not decreasing before m_star at n={n}, m={m}")
        if m >= m_star and not num_next * den > num * den_next:
            raise RuntimeError(f"limit not increasing after m_star at n={n}, m={m}")
    num, den = f[best]
    if n >= 5:
        if m_star != (n - 1) // 2:
            raise RuntimeError(f"minimizer mismatch at n={n}: scan found {m_star}")
        if num * (2 * n - 3) != n * (n - 1) * (2 * n - 1) * den:
            raise RuntimeError(f"minimal limit identity failed at n={n}")
    radicand = Fraction(num, 4 * den)
    return MinimizationResult(n, m_star, radicand, math.sqrt(radicand))


_RESIDUAL_GRID = (0.1, 0.05, 0.025, 0.0125, 0.00625)

_RESIDUAL_FLOOR_ULPS = 32.0

_RESIDUAL_QUANTITIES = ("varS", "varM", "U")


@dataclass(frozen=True)
class ResidualFit:
    """Log-log slope of |numeric - expansion| over a grid of rho values.

    If the expansion captures all terms below order k, the residual scales
    like rho^k and the fitted slope approaches k from below as rho shrinks.
    vacuous is set when a residual sits at the rounding floor of the numeric
    value, in which case the slope carries no information at that point.
    """

    quantity: str
    slope: float
    vacuous: bool
    rhos: tuple[float, ...]
    residuals: tuple[float, ...]


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs, from the centred sums."""
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)


@lru_cache(maxsize=64, typed=True)
def _residual_fits(n: int, m: int) -> tuple[ResidualFit, ...]:
    """The :class:`ResidualFit` of each of "varS", "varM" and "U", in that
    order (see :func:`residual_order_check`), from one S-path evaluation
    per rho; memoised, so every quantity of one (n, m) shares one build."""
    n, m = _check_nm(n, m)
    results = [poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho)) for rho in _RESIDUAL_GRID]
    fits = []
    for quantity, field, expansion in zip(
        _RESIDUAL_QUANTITIES, ("var_space", "var_momentum", "product"), expand_variances(n, m)
    ):
        residuals = []
        vacuous = False
        for rho, result in zip(_RESIDUAL_GRID, results):
            numeric = getattr(result, field)
            residual = abs(numeric - expansion.evaluate(rho))
            floor = _RESIDUAL_FLOOR_ULPS * math.ulp(abs(numeric))
            if residual <= floor:
                vacuous = True
                residual = floor
            residuals.append(residual)
        slope = _slope([math.log(rho) for rho in _RESIDUAL_GRID], [math.log(r) for r in residuals])
        fits.append(ResidualFit(quantity, slope, vacuous, _RESIDUAL_GRID, tuple(residuals)))
    return tuple(fits)


def residual_order_check(n: int, m: int, quantity: str) -> ResidualFit:
    """Fit the decay order of the residual between the numeric variance
    functionals and the engine expansion truncated at its default window,
    over rho in ``_RESIDUAL_GRID``.

    quantity is one of "varS" (expected slope near 4), "varM" (the expansion
    ends at O(1), slope near 0), or "U" (expected slope near 2).
    """
    if quantity not in _RESIDUAL_QUANTITIES:
        raise DomainError("quantity must be one of varS, varM, U")
    return _residual_fits(n, m)[_RESIDUAL_QUANTITIES.index(quantity)]
