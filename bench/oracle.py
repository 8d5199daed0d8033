"""High-precision reference values for the Poisson wavelet functionals.

S_k(rho) = sum_l C(l+n-2, l) l^k x^l with x = exp(-2 rho) is evaluated
through the finite Stirling form

    S_k = sum_j S(k, j) (n-1)_j x^j (1-x)^-(n-1+j)

((x d/dx)^k = sum_j S(k, j) x^j (d/dx)^j, with S(k, j) the Stirling numbers
of the second kind and (a)_j the rising factorial), so no series is
truncated.  A, B, C and the three functionals follow the definitions in
``zonalvar.variance.poisson_uncertainty_via_s``.  Only mpmath is used; the
package under test is never imported here.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 60


def _stirling2_row(k: int) -> list[int]:
    row = [1]  # S(0, 0)
    for i in range(1, k + 1):
        nxt = [0] * (i + 1)
        for j in range(1, i + 1):
            nxt[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = nxt
    return row


def s_k(n: int, k: int, rho: float) -> mpmath.mpf:
    """S_k(rho) from the closed Stirling form."""
    with mpmath.workdps(DIGITS):
        x = mpmath.exp(-2 * mpmath.mpf(rho))
        u = -mpmath.expm1(-2 * mpmath.mpf(rho))  # 1 - x without cancellation
        total = mpmath.mpf(0)
        rising = 1
        for j, s in enumerate(_stirling2_row(k)):
            if j:
                rising *= n - 2 + j
            if s:
                total += s * rising * x**j / u ** (n - 1 + j)
        return +total


def s_k_direct(n: int, k: int, rho: float) -> mpmath.mpf:
    """S_k(rho) by direct summation of the series, for the self-check."""
    with mpmath.workdps(DIGITS + 10):
        x = mpmath.exp(-2 * mpmath.mpf(rho))
        eps = mpmath.mpf(10) ** -(DIGITS + 5)
        total = mpmath.mpf(1 if k == 0 else 0)
        xl = mpmath.mpf(1)
        binom = 1
        peak = (n - 2 + k) / (2.0 * rho)
        l = 0
        while True:
            l += 1
            binom = binom * (l + n - 2) // l
            xl *= x
            term = binom * l**k * xl
            total += term
            if l > peak and term < eps * total:
                return +total


def functionals(n: int, m: int, rho: float) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(var_space, var_momentum, product) of the wavelet (n, m, rho)."""
    with mpmath.workdps(DIGITS):
        s = {k: s_k(n, k, rho) for k in range(m, 2 * m + 4)}
        inv = mpmath.mpf(1) / (n - 1)
        a = 2 * inv * s[2 * m + 1] + s[2 * m]
        b = sum(math.comb(m, j) * (s[m + j + 1] * inv + s[m + j]) for j in range(m + 1))
        c = 2 * inv * s[2 * m + 3] + 3 * s[2 * m + 2] + (n - 1) * s[2 * m + 1]
        q = mpmath.exp(mpmath.mpf(rho)) * a / (2 * b)
        var_space = q * q - 1
        var_momentum = c / a
        return var_space, var_momentum, mpmath.sqrt(var_space * var_momentum)


class Oracle:
    """Functionals per (n, m, rho), computed once per point and kept."""

    def __init__(self) -> None:
        self._values: dict[tuple[int, int, float], tuple] = {}

    def values(self, n: int, m: int, rho: float) -> tuple:
        key = (n, m, rho)
        if key not in self._values:
            self._values[key] = functionals(n, m, rho)
        return self._values[key]

    def rel_err(self, n: int, m: int, rho: float, got: tuple[float, float, float]) -> float:
        """Largest relative error of (var_space, var_momentum, product)."""
        with mpmath.workdps(DIGITS):
            return max(
                float(abs(mpmath.mpf(g) - ref) / abs(ref))
                for g, ref in zip(got, self.values(n, m, rho))
            )


SELF_CHECK_POINTS = ((3, 5, 0.1), (2, 1, 1.0), (5, 3, 5.0), (8, 9, 0.3), (12, 11, 0.01))


def self_check(tol: float = 1e-55) -> list[str]:
    """Compare the Stirling form with direct summation; return failures."""
    problems = []
    for n, k, rho in SELF_CHECK_POINTS:
        closed = s_k(n, k, rho)
        direct = s_k_direct(n, k, rho)
        with mpmath.workdps(DIGITS):
            dev = abs(closed - direct) / direct
        if not dev <= tol:
            problems.append(f"oracle S_{k}(n={n}, rho={rho}): closed vs direct {float(dev):.3g}")
    return problems
