"""The radial sums S_m(rho) = sum_{l>=0} C(l+n-2, l) l^m exp(-2 rho l), and
the block summation engine that every series of the package is summed with.

Every S_m is a finite rational function of x = exp(-2 rho).  With
w = x/(1-x) = 1/(e^(2 rho) - 1), S_0 = sum_l C(l+n-2, l) x^l = (1 + w)^(n-1),
and S_(m+1) = -1/2 dS_m/drho = w (1 + w) dS_m/dw keeps that factor:

    S_m(rho) = (1 + w)^(n-1) P_m(w),   [w^j] P_(m+1) = j p_j + (n-2+j) p_(j-1),

from P_0 = 1 (:func:`_p_polynomials`).  P_m has integer coefficients, so
at the float w = num / 2^e it is evaluated exactly in integers
(:func:`_scaled_value`), and :func:`s_m_eval` divides once, with Python's
correctly rounded int / int, for every n, m and rho.  The S path of
:func:`zonalvar.variance.poisson_uncertainty_via_s` evaluates its
polynomials the same way.

:func:`s_m_sum` sums the series directly and is kept as the independent
reference.  It is one of three callers of :func:`_sum_blocks`, with the
coefficient sums of :mod:`zonalvar.variance` and
:func:`zonalvar.zonal.zonal_eval`: rows of terms are formed over blocks of
degrees with numpy, each block is added to the running sums with
math.fsum, after a TwoSum fold to at most 128 columns where it is wider,
and one stop rule is decided degree by degree: over the whole of a block
no wider than the first, else from the first degree in it where a stop
can fall.  The rule has no knob: one relative tolerance, _REL_TOL, one
floor, _MIN_TERMS, and one term budget, _MAX_TERMS, hold for every
series, and a series not stopped by its first non-finite term raises
:class:`DegenerateInputError` naming that degree.  Besides the sums it
returns each row's last two terms, from which
:func:`zonalvar.variance.uncertainty_product` adds back the geometric tail
that the stop cuts off.  The first block is 256 degrees; each later one
is sized from the decay of the stop values in the block before, to end a
little past the predicted stop, and is at most the geometric size (x4 per
block, up to 4096).  The coefficient sums and zonal_eval form terms that do not
depend on where a block starts, so their sums and stop degrees do not
depend on this schedule (nor on the fold width).  For small rho
the terms of S_m climb over many decades before peaking near
l* = (n - 2 + m) / (2 rho), and their binomial weights may pass the double
range, so each block takes its weights relative to its first degree and
that degree's weight enters through its logarithm; the last bits of
:func:`s_m_sum` therefore do depend on the schedule.

Rows that depend only on the dimension n come from row functions of
(n, l0, l1) under :func:`_first_block_memoised`, which serve the first
block from one bounded memo and form every other request directly:
:func:`_weight_rows` here, and each coefficient rule's rows beside it in
:mod:`zonalvar.zonal`.  Memory stays one block per series apart from that
memo.  Short series are summed in the first block, so for them the memo
removes most of the work that does not depend on the rule.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateInputError, TruncationError, _require_at_least, _require_positive

__all__ = [
    "s_m_eval",
    "s_m_sum",
]

# The one stop policy of every summed series (see :func:`_sum_blocks`): a
# degree is small when its stop value is at most _REL_TOL times the running
# sum, no series stops before degree _MIN_TERMS - 1 (so a gap of a few zero
# terms inside a finite rule does not end it), and no stop by degree
# _MAX_TERMS raises TruncationError.
_REL_TOL = 1e-14
_MIN_TERMS = 16
_MAX_TERMS = 10_000_000

# The first block is wide enough to spread a block's fixed cost; a later
# block covers _MARGIN times the degrees predicted still to go plus _SLACK,
# and at most the geometric size, which grows by _BLOCK_GROWTH up to a cap
# that bounds memory.
_FIRST_BLOCK = 256
_BLOCK_GROWTH = 4
_MAX_BLOCK = 4096
_MARGIN = 1.25
_SLACK = 64
_FSUM_WIDTH = 128  # wider blocks are folded to this many columns before math.fsum
_WEIGHT_CHECK = 1.7e308  # float weights from here up are redone exactly
ZERO_RUN = 1024  # a series whose first ZERO_RUN terms are all zero stops
# log 2 split so that e * _LN2_HI is exact for integers e below 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _binomial_weights(n: int, ls: np.ndarray) -> np.ndarray:
    """C(l + n - 2, l) for the degrees ``ls`` (consecutive, ascending) as floats.

    The weight is built as prod_j (l + j) / j, one multiplication and one
    division per factor, so its rounding error is at most about 2 (n - 2)
    ulps whatever l is, and zero while the products stay below 2^53.  The
    values rise with l; those near the top of the double range are redone
    from math.comb, so the first inf is exactly at the first degree where
    float(C(l + n - 2, l)) overflows, and every weight past it is inf.
    """
    if n == 2:
        return np.ones_like(ls)
    w = ls + 1.0  # the factor j = 1, exact
    factor = w.copy()
    for j in range(2, n - 1):
        factor += 1.0  # l + j, exact
        w *= factor
        w /= j
    if w.size and not w[-1] < _WEIGHT_CHECK:
        for i in np.flatnonzero(~(w < _WEIGHT_CHECK)).tolist():
            l = int(ls[i])
            try:
                w[i] = float(math.comb(l + n - 2, l))
            except OverflowError:
                w[i:] = math.inf
                break
    return w


@lru_cache(maxsize=64)
def _first_block_memo(rows: Callable, n: int, width: int) -> tuple:
    """rows(n, 0, width) with read-only arrays: the engine's first block."""
    out = rows(n, 0, width)
    for row in out:
        row.flags.writeable = False
    return out


def _first_block_memoised(rows: Callable) -> Callable:
    """Serve the request for the engine's first block, (0, _FIRST_BLOCK), from
    :func:`_first_block_memo`; every other request is formed directly."""

    @wraps(rows)
    def serve(n: int, l0: int, l1: int) -> tuple:
        if l0 == 0 and l1 == _FIRST_BLOCK:
            return _first_block_memo(rows, n, l1)
        return rows(n, l0, l1)

    return serve


@_first_block_memoised
def _weight_rows(n: int, l0: int, l1: int) -> tuple:
    """The degrees l as floats, C(l + n - 2, l) from :func:`_binomial_weights`
    (inf from the first degree past the double range), the N weight
    lambda/(l + lambda) C(l + n - 2, l) and the M weight l (l + 2 lambda)."""
    lam = (n - 1) / 2
    ls = np.arange(l0, l1, dtype=float)
    weight = _binomial_weights(n, ls)
    return ls, weight, (lam / (ls + lam)) * weight, ls * (ls + 2.0 * lam)


class _TermOutOfRange(DegenerateInputError):
    """A summed series has a non-finite term at ``degree``."""

    def __init__(self, name: str, degree: int) -> None:
        super().__init__(f"{name} left the double range at l={degree}")
        self.degree = degree


def _sum_blocks(
    source: Callable[[int, int], tuple], name: str
) -> tuple[list[float], list[list[float]], int]:
    """Sum the rows of a term source until its stop rows settle.

    ``source(l0, l1)`` returns ``(terms, stop)`` for the whole block
    l0 <= l < l1: the terms as an (r, k) array, k = l1 - l0, and stop
    values for the first s rows as an (s, k) array, each at least |term|.
    The block is cut at its first degree with a non-finite term; unless the
    sums stop before it, :class:`_TermOutOfRange` names it and ``name``.

    The first block is ``_FIRST_BLOCK`` degrees.  After a block the
    degrees still needed are predicted by :func:`_degrees_to_stop`, and
    the next block covers ``_MARGIN`` times them (counting at least those
    up to degree ``_MIN_TERMS``) plus ``_SLACK`` degrees, but never more
    than the geometric size, which grows by ``_BLOCK_GROWTH`` per block up
    to ``_MAX_BLOCK`` and is used alone while the prediction is inf.  The
    schedule decides only where blocks start: a source whose terms do not
    depend on that gets the same stop degree and, the sums being exactly
    rounded, the same sums from any schedule, up to the rounding of the
    in-block partial sums that the stop test reads.

    Degree l is small in a stop row when its stop value is below the
    row's running peak and at most ``_REL_TOL`` times |running sum| of
    the row's terms.  A row stops at the third small degree in a row, or,
    if its first ``ZERO_RUN`` stop values are all zero, at degree
    ``ZERO_RUN`` - 1 (a zero run after a nonzero value is small from its
    first zero on), in either case not before degree ``_MIN_TERMS`` - 1.
    The sums stop at the degree L where the last stop row stops; terms
    fetched past it are ignored.  No stop by degree ``_MAX_TERMS`` raises
    :class:`TruncationError` naming the series ``name``.

    Each block is added to a carried (hi, lo) pair per row by
    :func:`_add_blocks`, so each sum is accurate to about one rounding of
    its terms whatever their number, and memory stays one block, apart
    from the first block's rows per dimension in :func:`_first_block_memo`.
    A block no wider than ``_FIRST_BLOCK`` is scanned whole; a wider one
    is scanned degree by degree only from the first column at which a stop
    row still running can pass the small-degree test (:func:`_scan_start`);
    the degrees before it enter the running sums as one sum and the running
    peaks as one max, and a block with no such column is not scanned.  The
    stop degrees are those of the full scan, up to the rounding of the
    running sums.

    Returns the sums of the rows, exactly rounded unless a block was folded
    (see :func:`_add_blocks`), each row's last two terms summed,
    [t_(L-1), t_L], for a caller that extrapolates the cut tail (the last
    column of each block is carried for a stop in the next block's first
    column), and the number of degrees summed, L + 1.
    """
    last = _MAX_TERMS + 1  # degrees 0 .. _MAX_TERMS are summed
    l0, l1, size = 0, _FIRST_BLOCK, _FIRST_BLOCK
    with np.errstate(all="ignore"):
        while l0 < last:
            l1 = min(l1, last)
            terms, stop = source(l0, l1)
            cut = None  # the first column with a non-finite term
            if not math.isfinite(np.add.reduce(terms, axis=None)):  # one sum decides the common case
                bad = ~np.logical_and.reduce(np.isfinite(terms), axis=0)
                if bad.any():  # else finite terms whose sum overflows
                    cut = int(bad.argmax())
                    if not cut:
                        raise _TermOutOfRange(name, l0)
                    terms, stop = terms[:, :cut], stop[:, :cut]
            s = len(stop)
            if l0 == 0:
                hi = [0.0] * len(terms)  # exactly rounded sums so far ...
                lo = [0.0] * len(terms)  # ... and their rounding residuals
                sums = np.zeros(s)
                peak = np.zeros((s, 1))  # largest stop value so far
                recent = np.zeros((s, 2), dtype=bool)  # small flags of the last two degrees
                done = np.zeros(s, dtype=bool)
            else:
                sums = np.add(hi[:s], lo[:s])
            # a block no wider than the first is scanned whole: the search
            # would cost more than it saves
            start = _scan_start(stop, sums, done) if terms.shape[1] > _FIRST_BLOCK else 0
            if start is None:  # no stop row still running can stop in this block
                peak = np.maximum(peak, np.maximum.reduce(stop, axis=1, keepdims=True))
                recent[:] = False
            else:
                if start:  # the degrees before start enter as one sum and one max
                    sums += np.add.reduce(terms[:s, :start], axis=1)
                    peak = np.maximum(peak, np.maximum.reduce(stop[:, :start], axis=1, keepdims=True))
                    recent[:] = False
                l_start = l0 + start
                scanned = stop[:, start:]
                partial = np.add.accumulate(terms[:s, start:], axis=1)
                partial += sums[:, None]
                running_peak = np.maximum.accumulate(scanned, axis=1)
                np.maximum(running_peak, peak, out=running_peak)
                small = np.concatenate(
                    (recent, (scanned < running_peak) & (scanned <= _REL_TOL * np.abs(partial))), axis=1
                )
                stops = small[:, 2:] & small[:, 1:-1] & small[:, :-2]  # three in a row
                # all-zero rows stop from degree ZERO_RUN - 1 on
                if l0 + terms.shape[1] >= ZERO_RUN and not np.logical_and.reduce(peak, axis=None):
                    first = max(ZERO_RUN - 1 - l_start, 0)
                    stops[:, first:] |= running_peak[:, first:] == 0.0
                if _MIN_TERMS - 1 > l_start:
                    stops[:, : _MIN_TERMS - 1 - l_start] = False
                stopped = np.logical_or.reduce(stops, axis=1)
                if np.logical_and.reduce(done | stopped):
                    end = start + int(np.maximum.reduce(np.where(done, 0, stops.argmax(axis=1)))) + 1
                    _add_blocks(hi, lo, terms[:, :end], name, final=True)
                    if end > 1:
                        ends = terms[:, end - 2 : end].tolist()
                    else:  # t_(L-1) is the last column of the block before
                        ends = [[before, t_last] for before, t_last in zip(carried, terms[:, 0].tolist())]
                    return hi, ends, l0 + end
                peak = running_peak[:, -1:]
                recent = small[:, -2:]
                done |= stopped
            if cut is not None:
                raise _TermOutOfRange(name, l0 + cut)
            _add_blocks(hi, lo, terms, name)
            carried = terms[:, -1].tolist()
            size = min(size * _BLOCK_GROWTH, _MAX_BLOCK)
            ahead = max(_degrees_to_stop(stop, hi, done), _MIN_TERMS - l1)
            l0, l1 = l1, l1 + int(min(_MARGIN * ahead + _SLACK, size))
    raise TruncationError(f"{name} did not settle within {_MAX_TERMS} terms")


def _degrees_to_stop(stop: np.ndarray, hi: list[float], done: np.ndarray) -> float:
    """Degrees past a block until every stop row still running is predicted to stop.

    Each row's stop values are extrapolated on a log scale, from the middle
    to the end of the block, to the degree where they reach _REL_TOL |sum|
    (with the sums ``hi`` after the block).  Unless every such row decays
    there, the prediction is inf.  Two columns are read as Python floats,
    so the prediction costs no numpy pass over the block.
    """
    k = stop.shape[1]
    mid = k // 2
    ahead = 0.0
    for v_mid, v_end, total, finished in zip(
        stop[:, mid].tolist(), stop[:, -1].tolist(), hi, done.tolist()
    ):
        if finished:
            continue
        target = _REL_TOL * abs(total)
        if not (0.0 < v_end < v_mid and target > 0.0):
            return math.inf
        if v_end > target:
            decay = math.log(v_mid / v_end) / (k - 1 - mid)  # per degree
            ahead = max(ahead, math.log(v_end / target) / decay)
    return ahead


def _scan_start(stop: np.ndarray, sums: np.ndarray, done: np.ndarray) -> int | None:
    """First column of a block at which a stop row still running can pass
    the small-degree test, or None if there is none.

    A degree is small only when its stop value v <= _REL_TOL |partial sum|,
    and every running partial sum in the block is at most
    |sums| + sum|t| <= |sums| + sum v up to the rounding of the cumulative
    sum, which the factor 2 covers.  A row whose smallest stop value is
    above its bound has no such column, so one min per row spares it the
    column search.
    """
    bounds = 2.0 * _REL_TOL * (np.abs(sums) + np.add.reduce(stop, axis=1))
    lows = np.minimum.reduce(stop, axis=1)
    starts = [
        int((row <= bound).argmax())
        for row, low, bound, finished in zip(stop, lows.tolist(), bounds.tolist(), done.tolist())
        if not finished and low <= bound
    ]
    return min(starts, default=None)


def _add_blocks(hi: list[float], lo: list[float], terms: np.ndarray, name: str, final: bool = False) -> None:
    """Add each row of ``terms`` to the (hi, lo) sums with math.fsum.

    For a block of at most ``_FSUM_WIDTH`` (128) columns hi becomes the
    exactly rounded total and lo its rounding residual.  A wider block, the
    256-degree first block of a long series too, is first folded
    column-pairwise with TwoSum, which splits a + b exactly into its
    rounded sum s and error e, until at most ``_FSUM_WIDTH`` columns
    remain; an odd last column is set aside, and the errors of every fold
    are summed per row into one extra column.  The folded row has the same
    exact total apart from the rounding of that error column, of order
    log2(B) eps^2 sum|t| for B columns, the order of the residual lo
    itself; hi + lo is then within that of the exact total, and hi is the
    exactly rounded total unless that total lies so close to a rounding
    boundary.  A non-finite fold or an overflowing sum raises
    :class:`DegenerateInputError` naming the series ``name``.  For the
    ``final`` block of a series only hi is updated: nothing reads the
    residual after the stop.
    """
    width = terms.shape[1]
    if width > _FSUM_WIDTH:
        aside, err = [], np.zeros((len(terms), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            while width > _FSUM_WIDTH:
                half = width // 2
                if width % 2:
                    aside.append(terms[:, -1:])
                a, b = terms[:, :half], terms[:, half : 2 * half]
                terms = a + b
                err_b = terms - a  # b_virtual, then b's rounding error
                err_a = terms - err_b  # a_virtual, then a's rounding error
                np.subtract(a, err_a, out=err_a)
                np.subtract(b, err_b, out=err_b)
                err_a += err_b
                err += np.add.reduce(err_a, axis=1, keepdims=True)
                width = half
            terms = np.concatenate((terms, *aside, err), axis=1)
            if not np.logical_and.reduce(np.isfinite(terms), axis=None):
                raise DegenerateInputError(f"{name} left the double range")
    for r, row in enumerate(terms.tolist()):
        row += (hi[r], lo[r])
        try:
            hi[r] = math.fsum(row)
            if not final:
                row.append(-hi[r])
                lo[r] = math.fsum(row)
        except OverflowError:
            raise DegenerateInputError(f"{name} left the double range") from None


def _validate_smn(n: int, m: int, rho: float) -> tuple[int, int, float]:
    return _require_at_least("n", n, 2), _require_at_least("m", m, 0), _require_positive("rho", rho)


def s_m_sum(n: int, m: int, rho: float, diagnostics: dict | None = None) -> float:
    """Sum the series for S_m(rho) directly, by the stop rule of :func:`_sum_blocks`.

    Each block from degree l0 forms its terms as
    exp(log C(l0+n-2, l0) - 2 rho l + m log l) prod_j (l+j)/(l0+j).  The log
    of the exact integer C(l0+n-2, l0) is taken once per block, with its
    multiple of log 2 added in two parts, the first exact, so that the
    rounding all terms of the block share is that of a number below 42,
    not of the whole log (755 at (250, 1, 0.1)).  The in-block ratios rise
    with l and stay linear unless they would overflow; then they are
    folded into the log.  So the terms stay accurate where C(l+n-2, l)
    passes the double range.

    Past the peak the terms decay roughly geometrically with ratio
    e^(-2 rho), so the uncut tail is ~1/(1 - e^(-2 rho)) current terms;
    each term's stop value is the term times 2/(1 - e^(-2 rho)), the
    factor 2 absorbing the slower decay of the polynomial prefactor.
    Raises :class:`DegenerateInputError` naming the first degree whose term
    exceeds the double range, or when the sum does.
    """
    n, m, rho = _validate_smn(n, m, rho)
    two_rho = 2.0 * rho
    tail_weight = 2.0 / -math.expm1(-two_rho)

    def source(l0: int, l1: int):
        ls = np.arange(l0, l1, dtype=float)
        weight = math.comb(l0 + n - 2, l0)
        e = max(weight.bit_length() - 60, 0)  # log weight = log(weight >> e) + e log 2
        log_t = (e * _LN2_HI - two_rho * ls) + (math.log(weight >> e) + e * _LN2_LO)
        if m:
            log_t += m * np.log(ls)  # -inf at l = 0, so that term is 0
        ratio = np.ones_like(ls)
        for j in range(1, n - 1):
            ratio *= ls + j
            ratio /= l0 + j
            if ratio[-1] > 1e300:  # the largest ratio; no factor exceeds 64
                log_t += np.log(ratio)
                ratio[:] = 1.0
        t = np.exp(log_t) * ratio
        return t[None], (t * tail_weight)[None]

    (total,), _, terms = _sum_blocks(source, f"S_{m} series (n={n}, rho={rho})")
    if diagnostics is not None:
        diagnostics["terms"] = terms
    return total


def _p_polynomials(n: int) -> Iterator[tuple[int, ...]]:
    """P_0, P_1, ... of S_k = (1 + w)^(n-1) P_k(w), lowest degree first: from
    S_(k+1) = w (1 + w) dS_k/dw, P_0 = 1 and [w^j] P_(k+1) = j p_j + (n-2+j) p_(j-1)."""
    p = (1,)
    while True:
        yield p
        p = tuple(j * hi + (n - 2 + j) * lo for j, (hi, lo) in enumerate(zip(p + (0,), (0,) + p)))


def _scaled_value(coeffs: tuple[int, ...], num: int, e: int) -> int:
    """2^(e d) p(num / 2^e) for p = sum_j coeffs[j] w^j of degree d, exactly.

    Horner from the top degree on integers: sum_j c_j num^j 2^(e (d - j)).
    """
    acc = 0
    for i, coeff in enumerate(reversed(coeffs)):
        acc = acc * num + (coeff << (e * i))
    return acc


def _w_parts(rho: float) -> tuple[float, int, int]:
    """base = -expm1(-2 rho) and w = exp(-2 rho) / base = num / 2^e as
    (base, num, e); OverflowError where w is inf (rho below about 1e-308)."""
    base = -math.expm1(-2.0 * rho)
    num, den = (math.exp(-2.0 * rho) / base).as_integer_ratio()
    return base, num, den.bit_length() - 1  # den = 2^e


def s_m_eval(n: int, m: int, rho: float) -> float:
    """S_m(rho) = P_m(w) / base^(n-1), correctly rounded, for the floats
    base = -expm1(-2 rho) and w = exp(-2 rho) / base.

    No series is summed: P_m is evaluated exactly in integers at w and the
    quotient is rounded once.  For m = 0, P_0 = 1 and this is the
    geometric-series power (1 - exp(-2 rho))^-(n-1).  Raises
    :class:`DegenerateInputError` when S_m(rho) exceeds the double range.
    """
    n, m, rho = _validate_smn(n, m, rho)
    coeffs = next(islice(_p_polynomials(n), m, None))
    try:
        base, num, e = _w_parts(rho)
        b_num, b_den = base.as_integer_ratio()
        return (_scaled_value(coeffs, num, e) * b_den ** (n - 1)) / (
            b_num ** (n - 1) << (e * (len(coeffs) - 1))
        )
    except OverflowError:
        raise DegenerateInputError(f"S_{m}(rho={rho}) for n={n} exceeds the double range") from None
