"""Zonal functions on S^n: coefficient rules, the Poisson kernel, and the
Poisson multipole wavelets.

A zonal function is represented by its Gegenbauer coefficient rule
l -> f_hat(l) in the expansion f(theta) = sum_l f_hat(l) C_l^lambda(cos theta)
with lambda = (n-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, DomainError, TruncationError
from .series_s import DEFAULT_TRUNCATION, CompensatedSum, SeriesTruncation, _TailStop
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
    routine uses; they raise :class:`DomainError` on a non-finite value.
    The coefficient sums fetch degrees in blocks and may fetch some past
    the degree where they stop; those values are ignored.  A rule may offer
    two optional methods, which the coefficient sums then use:

    - ``block(l0, l1)`` returns the values for l0 <= l < l1 as a float64
      array equal to the scalar calls, instead of one call per degree;
    - ``log_ratio(l0, l1)`` returns, for l0 <= l < l1, an accurate
      log((l + 2 lambda)/(l + lambda + 1) f_hat(l+1)/f_hat(l)) as a float64
      array, so that each N - D term is formed with expm1 of it instead of
      1 minus a ratio of two rounded values (see
      :func:`zonalvar.variance._coefficient_sums`).
    """

    dim: SphereDim
    coeff: Callable[[int], float]
    label: str = ""


@dataclass(frozen=True)
class PoissonWaveletSpec:
    """Parameters of the Poisson multipole wavelet g_rho^m on S^n.

    The Poisson radius r = exp(-rho) is derived, never passed in.
    """

    dim: SphereDim
    m: int
    rho: float
    r: float = field(init=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("wavelet order m must be >= 1")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise DomainError("rho must be positive and finite")
        object.__setattr__(self, "r", math.exp(-self.rho))


def poisson_wavelet_spec(n: int, m: int, rho: float) -> PoissonWaveletSpec:
    """Convenience constructor taking the raw dimension."""
    return PoissonWaveletSpec(sphere_dim(n), m, float(rho))


@dataclass(frozen=True)
class _PoissonRule:
    """The coefficient rule l -> scale ((l + lam) / lam) exp(-rho l) (step l)^m.

    The power is applied by repeated multiplication, so the value at l = 0
    is exactly 0.0 for m >= 1 and the order recursion
    rule_(m+1)(l) = (step l) rule_m(l) holds bitwise.  :meth:`block` returns
    the values for l0 <= l < l1 as an array through the same formula; both
    forms take exp(-rho l) from ``np.exp``, so they agree bitwise.
    :meth:`log_ratio` gives the coefficient sums the log ratio of
    consecutive degrees from its closed form.
    """

    lam: float
    rho: float
    m: int
    scale: float = 1.0
    step: float = 1.0

    def _values(self, l, e):
        v = self.scale * ((l + self.lam) / self.lam) * e
        x = self.step * l
        for _ in range(self.m):
            v *= x
        return v

    def __call__(self, l: int) -> float:
        return float(self._values(l, np.exp(-self.rho * l)))

    def block(self, l0: int, l1: int) -> np.ndarray:
        ls = np.arange(l0, l1, dtype=float)
        return self._values(ls, np.exp(-self.rho * ls))

    def log_ratio(self, l0: int, l1: int) -> np.ndarray:
        """log((l + 2 lam)/(l + lam + 1) f_hat(l+1)/f_hat(l)) for l0 <= l < l1,
        which is (log1p(lam/(l + lam)) - rho) + m log1p(1/l), +inf at l = 0
        for m >= 1.  Each part is accurate to a few ulps, so the result is
        too, relative to the sum of their magnitudes, whatever the rounding
        of the rule's values.  (Subtracting rho first gave the smallest
        var_space error at rho = 1e-4 of the three orders of the sum.)
        """
        ls = np.arange(l0, l1, dtype=float)
        r = np.log1p(self.lam / (ls + self.lam)) - self.rho
        if self.m:
            with np.errstate(divide="ignore"):
                r += self.m * np.log1p(1.0 / ls)
        return r


def poisson_kernel_coefficients(dim: SphereDim, rho: float) -> ZonalFunction:
    """Coefficient rule of the Poisson kernel p_rho on S^n:
    p_hat(l) = (1 / sigma(S^n)) ((l + lambda) / lambda) exp(-rho l).
    """
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError("rho must be positive and finite")
    rule = _PoissonRule(float(dim.lam), rho, 0, scale=1.0 / dim.surface)
    return ZonalFunction(dim, rule, label=f"poisson-kernel(n={dim.n}, rho={rho})")


def poisson_wavelet_coefficients(spec: PoissonWaveletSpec) -> ZonalFunction:
    """Coefficient rule of the wavelet: g_hat(l) = (rho l)^m p_hat(l), zero at l = 0.

    The power is applied by repeated multiplication so that the order
    recursion g_hat_(m+1)(l) = (rho l) g_hat_m(l) holds bitwise.
    """
    dim, m, rho = spec.dim, spec.m, spec.rho
    rule = _PoissonRule(float(dim.lam), rho, m, scale=1.0 / dim.surface, step=rho)
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
    rule = _PoissonRule(float(dim.lam), rho, m, scale=scale, step=rho)
    return ZonalFunction(dim, rule, label=f"capped-wavelet(n={dim.n}, m={m}, rho={rho})")


def poisson_kernel_eval(dim: SphereDim, rho: float, theta: float) -> float:
    """Closed-form Poisson kernel value
    p_rho(theta) = (1 / sigma(S^n)) (1 - r^2) / (1 - 2 r cos theta + r^2)^((n+1)/2)
    with r = exp(-rho).

    The denominator is assembled as (1 - r)^2 + 4 r sin^2(theta / 2) and
    1 - r, 1 - r^2 come from expm1, so small rho loses no accuracy to
    cancellation.
    """
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError("rho must be positive and finite")
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    r = math.exp(-rho)
    one_minus_r = -math.expm1(-rho)
    s = math.sin(0.5 * theta)
    dist2 = one_minus_r * one_minus_r + 4.0 * r * s * s
    return -math.expm1(-2.0 * rho) / (dim.surface * dist2 ** (0.5 * (dim.n + 1)))


def zonal_eval(
    f: ZonalFunction,
    theta: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    diagnostics: dict | None = None,
) -> float:
    """Evaluate f(theta) = sum_l f_hat(l) C_l^lambda(cos theta).

    The Gegenbauer factor oscillates, so the stop rule watches the envelope
    |f_hat(l)| C_l^lambda(1) against the accumulated envelope mass rather
    than against the (possibly nearly cancelling) partial sum.  The absolute
    error is then below rel_tol times the envelope mass.
    """
    lam = float(f.dim.lam)
    two_lam = 2.0 * lam
    acc = CompensatedSum()
    env_acc = CompensatedSum()
    stop = _TailStop(trunc)
    gegenbauer = _gegenbauer_recurrence(lam, math.cos(theta))
    w = 1.0  # C_l^lambda(1) = C(l + 2 lambda - 1, l), updated multiplicatively
    env_prev = 0.0
    for l, c_l in zip(range(0, trunc.max_terms + 1), gegenbauer):
        if l == 1:
            w = two_lam
        elif l >= 2:
            w *= (l + two_lam - 1.0) / l
        a = f.coeff(l)
        if not math.isfinite(a):
            raise DomainError(f"coefficient rule returned a non-finite value at l={l}")
        acc.add(a * c_l)
        env = abs(a) * w
        env_acc.add(env)
        # The coefficient rule is opaque, so the decay rate of the envelope
        # is estimated from the observed ratio; the remaining tail is then
        # ~q/(1-q) current terms and the stop test charges for all of it.
        if 0.0 < env < env_prev:
            q = env / env_prev
            tail_weight = min(2.0 * q / (1.0 - q), 1e9)
        else:
            tail_weight = 1e9 if env_prev > 0.0 and env >= env_prev else 1.0
        env_prev = env
        if stop.done(l, env * max(1.0, tail_weight), env_acc.value):
            if diagnostics is not None:
                diagnostics["terms"] = l + 1
                diagnostics["envelope_mass"] = env_acc.value
            return acc.value
    raise TruncationError(
        f"zonal series for {f.label or 'coefficient rule'} did not settle "
        f"within {trunc.max_terms} terms"
    )
