"""Zonal functions on S^n: coefficient rules, the Poisson kernel, and the
Poisson multipole wavelets.

A zonal function is represented by its Gegenbauer coefficient rule
l -> f_hat(l) in the expansion f(theta) = sum_l f_hat(l) C_l^lambda(cos theta)
with lambda = (n-1)/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, DomainError, _require_at_least, _require_positive
from .series_s import _TermOutOfRange, _first_block_memoised, _sum_blocks, _weight_rows
from .special_functions import SphereDim, _gegenbauer_recurrence, sphere_dim

__all__ = [
    "PoissonWaveletSpec",
    "ZonalFunction",
    "capped_wavelet_coefficients",
    "poisson_kernel_coefficients",
    "poisson_kernel_eval",
    "poisson_wavelet_coefficients",
    "poisson_wavelet_spec",
    "zonal_eval",
]


@dataclass(frozen=True)
class ZonalFunction:
    """A zonal function given by its Gegenbauer coefficient rule.

    The rule must return a finite float for every degree a summation
    routine uses; they raise :class:`DomainError` naming the first degree
    with a non-finite value and :class:`DegenerateInputError` on a term
    that finite values carry past the double range.  They fetch the
    degrees l0 <= l < l1 of each block (and f_hat(l1) for the coefficient
    sums of a rule without ``log_ratio``); values past the stop degree are
    ignored.  A rule may offer two optional methods:

    - ``block(l0, l1)`` returns the values for l0 <= l < l1 as a float64
      array equal to the scalar calls, instead of one call per degree;
      the coefficient sums and :func:`zonal_eval` use it;
    - ``log_ratio(l0, l1)`` returns, for l0 <= l < l1, an accurate
      log((l + 2 lambda)/(l + lambda + 1) f_hat(l+1)/f_hat(l)) as a float64
      array, so that each N - D term is formed with expm1 of it instead of
      1 minus a ratio of two rounded values; the coefficient sums use it
      (see :func:`zonalvar.variance._coefficient_sums`).
    """

    dim: SphereDim
    coeff: Callable[[int], float]
    label: str = ""


def _block_form(coeff: Callable[[int], float]) -> Callable[[int, int], np.ndarray]:
    """The rule's own ``block(l0, l1)``, or one built from scalar calls.

    The block form is looked up on the rule object itself, so replacing
    ``ZonalFunction.coeff`` can never pair a new scalar rule with a stale
    block form.
    """
    block = getattr(coeff, "block", None)
    if block is not None:
        return block
    return lambda l0, l1: np.fromiter(map(coeff, range(l0, l1)), float, l1 - l0)


def _require_finite_values(fetch: Callable[[int, int], np.ndarray], l0: int, l1: int) -> None:
    """Raise :class:`DomainError` naming the first l0 <= l < l1 with a non-finite f_hat(l)."""
    with np.errstate(all="ignore"):
        finite = np.isfinite(np.asarray(fetch(l0, l1), dtype=float))
    if not finite.all():
        raise DomainError(f"coefficient rule returned a non-finite value at l={l0 + int(finite.argmin())}") from None


@dataclass(frozen=True)
class PoissonWaveletSpec:
    """Parameters of the Poisson multipole wavelet g_rho^m on S^n."""

    dim: SphereDim
    m: int
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _require_at_least("wavelet order m", self.m, 1))
        _require_positive("rho", self.rho)


def poisson_wavelet_spec(n: int, m: int, rho: float) -> PoissonWaveletSpec:
    """Convenience constructor taking the raw dimension."""
    return PoissonWaveletSpec(sphere_dim(n), m, float(rho))


@_first_block_memoised
def _lift_rows(n: int, l0: int, l1: int) -> tuple:
    """The degrees l as floats and the Poisson rule's factor (l + lambda)/lambda."""
    lam = (n - 1) / 2
    ls = np.arange(l0, l1, dtype=float)
    return ls, (ls + lam) / lam


@_first_block_memoised
def _log_rows(n: int, l0: int, l1: int) -> tuple:
    """log1p(lambda/(l + lambda)) and log1p(1/l), inf at l = 0."""
    lam = (n - 1) / 2
    ls = np.arange(l0, l1, dtype=float)
    log_lift = np.log1p(lam / (ls + lam))
    if l0:
        return log_lift, np.log1p(1.0 / ls)
    with np.errstate(divide="ignore"):
        return log_lift, np.log1p(1.0 / ls)


@dataclass(frozen=True)
class _PoissonRule:
    """The coefficient rule l -> scale ((l + lam) / lam) exp(-rho l) (rho l)^m
    on S^n, lam = (n - 1)/2.

    :meth:`block` is its one value formula, for l0 <= l < l1, and a scalar
    call is the block at one degree.  The power is applied by repeated
    multiplication, so the value at l = 0 is exactly 0.0 for m >= 1 and the
    order recursion rule_(m+1)(l) = (rho l) rule_m(l) holds bitwise.
    :meth:`log_ratio` gives the coefficient sums the log ratio of
    consecutive degrees from its closed form.  The rows that depend only on
    n come from :func:`_lift_rows` and :func:`_log_rows` above, which serve
    the engine's first block from the one memo of rows per dimension.
    """

    n: int
    rho: float
    m: int
    scale: float = 1.0

    def __call__(self, l: int) -> float:
        return float(self.block(l, l + 1)[0])

    def block(self, l0: int, l1: int) -> np.ndarray:
        ls, lift = _lift_rows(self.n, l0, l1)
        x = self.rho * ls
        v = self.scale * lift * np.exp(-x)
        for _ in range(self.m):
            v *= x
        return v

    def log_ratio(self, l0: int, l1: int) -> np.ndarray:
        """log((l + 2 lam)/(l + lam + 1) f_hat(l+1)/f_hat(l)) for l0 <= l < l1,
        which is (log1p(lam/(l + lam)) - rho) + m log1p(1/l), +inf at l = 0
        for m >= 1.  Each part is accurate to a few ulps, so the result is
        too, relative to the sum of their magnitudes, whatever the rounding
        of the rule's values.  (Subtracting rho first gave the smallest
        var_space error at rho = 1e-4 of the three orders of the sum.)
        """
        log_lift, log_step = _log_rows(self.n, l0, l1)
        r = log_lift - self.rho
        if self.m:
            r += self.m * log_step
        return r


def poisson_kernel_coefficients(dim: SphereDim, rho: float) -> ZonalFunction:
    """Coefficient rule of the Poisson kernel p_rho on S^n:
    p_hat(l) = (1 / sigma(S^n)) ((l + lambda) / lambda) exp(-rho l).
    """
    _require_positive("rho", rho)
    rule = _PoissonRule(dim.n, rho, 0, scale=1.0 / dim.surface)
    return ZonalFunction(dim, rule, label=f"poisson-kernel(n={dim.n}, rho={rho})")


def poisson_wavelet_coefficients(spec: PoissonWaveletSpec) -> ZonalFunction:
    """Coefficient rule of the wavelet: g_hat(l) = (rho l)^m p_hat(l), zero at l = 0.

    The power is applied by repeated multiplication so that the order
    recursion g_hat_(m+1)(l) = (rho l) g_hat_m(l) holds bitwise.
    """
    dim, m, rho = spec.dim, spec.m, spec.rho
    rule = _PoissonRule(dim.n, rho, m, scale=1.0 / dim.surface)
    return ZonalFunction(dim, rule, label=f"poisson-wavelet(n={dim.n}, m={m}, rho={rho})")


def capped_wavelet_coefficients(spec: PoissonWaveletSpec) -> ZonalFunction:
    """The wavelet's coefficient rule with its factor 1/sigma(S^n) capped at 1:
    f_hat(l) = min(1, 1/sigma(S^n)) ((l + lambda) / lambda) (rho l)^m exp(-rho l).

    It has the wavelet's variances and uncertainty product.  While
    sigma(S^n) >= 1 (n <= 17) it is bitwise the rule of
    :func:`poisson_wavelet_coefficients`; beyond, it drops 1/sigma(S^n),
    which grows without bound in n and would overflow f_hat^2.  It keeps
    rho^m, so its peak, about m^m e^-m times the degree weight, does not
    grow as rho falls (dropping rho^m too would overflow f_hat^2 at small
    rho).
    """
    dim, m, rho = spec.dim, spec.m, spec.rho
    try:
        scale = min(1.0, 1.0 / dim.surface)
    except DegenerateInputError:  # sigma(S^n) is below the normal double range, far below 1
        scale = 1.0
    rule = _PoissonRule(dim.n, rho, m, scale=scale)
    return ZonalFunction(dim, rule, label=f"capped-wavelet(n={dim.n}, m={m}, rho={rho})")


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")


def poisson_kernel_eval(dim: SphereDim, rho: float, theta: float) -> float:
    """Closed-form Poisson kernel value
    p_rho(theta) = (1 / sigma(S^n)) (1 - r^2) / (1 - 2 r cos theta + r^2)^((n+1)/2)
    with r = exp(-rho).

    The denominator is assembled as (1 - r)^2 + 4 r sin^2(theta / 2) and
    1 - r, 1 - r^2 come from expm1, so small rho loses no accuracy to
    cancellation.
    """
    _require_positive("rho", rho)
    _check_theta(theta)
    r = math.exp(-rho)
    one_minus_r = -math.expm1(-rho)
    s = math.sin(0.5 * theta)
    dist2 = one_minus_r * one_minus_r + 4.0 * r * s * s
    return -math.expm1(-2.0 * rho) / (dim.surface * dist2 ** (0.5 * (dim.n + 1)))


def zonal_eval(f: ZonalFunction, theta: float, diagnostics: dict | None = None) -> float:
    """Evaluate f(theta) = sum_l f_hat(l) C_l^lambda(cos theta), 0 <= theta <= pi.

    The two rows of one :func:`zonalvar.series_s._sum_blocks` run are the
    envelope |f_hat(l)| C_l^lambda(1), with C_l^lambda(1) = C(l+n-2, l),
    and the values f_hat(l) C_l^lambda(cos theta), the Gegenbauer factors
    filled block by block from the forward recurrence.  The factor
    oscillates, so only the envelope decides the stop, against the
    accumulated envelope mass rather than the (possibly nearly
    cancelling) partial sum.  The rule is opaque, so the envelope's decay
    rate is estimated from the ratio q of consecutive envelope values, and
    each envelope value is weighted by 2q/(1-q), its estimate of the
    remaining tail (between 1 and 1e9, and 1e9 while the envelope does not
    decay).  The absolute error is then below the stop tolerance of
    :func:`zonalvar.series_s._sum_blocks` times the envelope mass.  The
    rule's values come from its optional ``block`` method, else from
    scalar calls, for exactly the degrees of each block; values fetched
    past the stop degree are ignored.  The series ends at its first
    non-finite term, at l: :class:`DomainError` naming l if f_hat(l) is
    not finite, else :class:`DegenerateInputError`.
    """
    _check_theta(theta)
    n = f.dim.n
    fetch = _block_form(f.coeff)
    gegenbauer = _gegenbauer_recurrence((n - 1) / 2, math.cos(theta))
    env_last = 0.0  # the envelope value at the degree before the block

    def source(l0: int, l1: int):
        nonlocal env_last
        a = np.asarray(fetch(l0, l1), dtype=float)
        c = np.fromiter(itertools.islice(gegenbauer, l1 - l0), float, l1 - l0)
        _, w, _, _ = _weight_rows(n, l0, l1)
        terms = np.array([np.abs(a) * w, a * c])
        env = terms[0]
        prev = np.concatenate(([env_last], env))
        env_last, prev = prev[-1], prev[:-1]
        q = env / prev
        weight = np.where(env < prev, 2.0 * q / (1.0 - q), np.where(prev > 0.0, 1e9, 1.0))
        return terms, (env * np.clip(weight, 1.0, 1e9))[None]

    try:
        (mass, value), _, terms = _sum_blocks(source, f"zonal series for {f.label or 'coefficient rule'}")
    except _TermOutOfRange as exc:
        _require_finite_values(fetch, exc.degree, exc.degree + 1)
        raise
    if diagnostics is not None:
        diagnostics["terms"] = terms
        diagnostics["envelope_mass"] = mass
    return value
