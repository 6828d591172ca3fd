"""Series evaluation of the special functions behind the HIB family.

Rising factorials, log-beta (through ``math.lgamma``), and the bivariate
confluent hypergeometric function

    phi1(alpha, beta; gamma; x, y)
        = sum_{m,n >= 0} (alpha)_{m+n} (beta)_n
          / ((gamma)_{m+n} m! n!) * x^m y^n,

which converges for all real x when y < 1.  At x = 0 it is the Gauss
function 2F1(alpha, beta; gamma; y), so the inner 2F1 needs no entry point
of its own.  One dispatch, ``_plan``, maps the arguments to a single series
of 2F1 values: it applies the y < 0 substitution once and picks the
representation for the sign of ``x``, so that, for the parameter patterns
used by the statistical modules, every term is positive and no cancellation
occurs.  The scalar ``phi1``/``log_phi1`` and the vectorized
``log_phi1_batch`` both sum the series ``_plan`` returns.  The batch sorts
its ``|x|`` and sums them in fixed blocks of neighbours.  A block's degree
is the term count at which its own largest element has converged, so its
work follows each element's own term count rather than the largest one's,
and the block's polynomial is evaluated by Horner's rule, two array passes
a term.
The series ratios are built once per call and shared by every block.  It also
takes a 1-D ``gamma``, one output row per value, as the posterior moments
need phi1 at gamma, gamma + 1 and gamma + 2 for the same tilts: each
sign's x are one ascending array of |x| for all rows, every block a slice
of it whose logs go to a slice of the result, and each row is summed on its
own, to the bits of a call with its gamma alone.  An ascending x is
summed in place; any other x is summed as a sorted copy, and each row of
logs is then put back in x's order by one scatter.  Both give the same
bits.

The power series needs about |x| + 12 sqrt(|x|) terms, and at y != 0 each
costs an inner 2F1.  So ``_plan`` also returns, for every y and both signs
of x, a crossover x0 and the coefficients of the expansion of phi1's Euler
integral at its dominant endpoint (Watson's lemma; at y = 0 the Kummer
asymptotic series of 1F1, DLMF 13.7.2).  Its term count is fixed by the
parameters, however large |x| is, and it needs no inner 2F1.  x0 is the
smallest |x| from which the neglected other endpoint and the last summed
term both stay below ``DEFAULT_REL_TOL`` 2^-10 and the terms summed add up
to at most 1/2, so they cannot cancel (see ``_crossover``); where no such
|x| lies within the term budget, the power series is kept.  Scalar and batch
take the expansion at the same x0, each with its own accumulator, and each
x0 is derived once per process.

Below x0, each inner 2F1 takes some 27.6/(1 - y) terms as a series.  A plan
reads them, in ascending n, from its own ``_InnerSeries``, with no cache
across calls: a sum estimated at fewer than ``_BLOCK_MIN_TERMS`` terms sums
each on its own by ``_hyp2f1_series``, and a longer one fills chunks of n at
once.  In the x' >= 0 form with beta = 1, which every HIB family call has,
inner(n) = 2F1(1, alpha + n; gamma + n; y) = 1 + y (alpha + n)/(gamma + n)
inner(n + 1) exactly, so a chunk is one series at its top n and
``_hyp2f1_recurrence`` down from there, which shrinks the seed's error at
every step.  Any other chunk is a ``_hyp2f1_block``, a 2-D array evaluator
(n by rows, the series' terms by columns) whose ratios, running products,
running sums and stop rule are the scalar loop's, so that every value is
the per-n series', bit for bit.

No caller sets how a series is summed: every series stops at the relative
tolerance ``DEFAULT_REL_TOL``, within a term budget that follows from its
largest ``|x|`` (see ``_check_y``).

Large arguments make the function value overflow a float even though ratios
of values stay moderate, so the statistical modules consume ``log_phi1`` and
the vectorized ``log_phi1_batch`` rather than the linear-scale ``phi1``.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, NumericalWarning, check_count, check_real,
                     check_reals)

__all__ = [
    "Phi1Args",
    "SeriesResult",
    "pochhammer",
    "log_beta",
    "phi1",
    "log_phi1",
    "log_phi1_batch",
]

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_TERMS = 100_000

# y in [0.999, 1) makes the inner 2F1 series degenerate slowly; such calls get
# a warning and a hard cap on the work they may spend.
_Y_WARN = 0.999
_Y_WARN_MAX_TERMS = 50_000

# Ceiling on the term budget derived from |x|: the x-series needs about |x|
# terms, and this admits |x| up to about 2e6 (Z = 1e6 sums 5e5 of its 1.1M)
# while refusing larger tilts before a single term is summed.
_MAX_TERMS_CEILING = 2**22

# Scaled accumulation bounds: partial sums are renormalized by 2**512 whenever
# they leave [1e-280, 1e280] so that series ~ exp(x) never overflow.
_SCALE_HI = 1e280
_SCALE_LO = 1e-280
_RESCALE = 2.0**512
_LOG_RESCALE = 512.0 * math.log(2.0)

_EXP_OVERFLOW = 709.782712893384  # log of the largest double

# Elements per block of the batch series, chosen by timing risk curves on two
# threads: a block's working arrays then stay in a 2 MiB L2 cache, while
# half as many elements per block cost more in per-call overhead than they
# save.
_BATCH_BLOCK = 32768

# The |x| of a rescaled series block whose Horner sums lie below this are
# summed again as a block of their own (see _series_row).  Below it,
# log(sum) is negative and cancels against the j 512 log 2 added back for j
# rescales: at a tilt of 0 in a block rescaled once, log phi1 = -1.7e-4
# came out 2.4e-10 off, relatively, that way under a floor of 2^-960.  Above
# it, that sum of logs is at least 355 and keeps its relative precision, and
# the early terms, brought down to the last scale, lose under 2^-1074 each
# to underflow.
_HORNER_FLOOR = 1.0

# Lowest crossover of the large-x expansion (see _crossover).  At y = 0,
# over a, gamma - a in [0.05, 200], its bounds alone never put the crossover
# below 15.7, and from x = 10 up the leading-order estimate of the
# neglected subdominant term stayed within 4.3x of the measured error (the
# bounds keep a 2^10 margin), so this floor only guards parameters outside
# that sweep; below it the power series needs under ~65 terms anyway.  A
# call whose |x| all lie below it looks no crossover up.
_ASYMP_X_MIN = 16.0

# A large-|x| expansion stops at its first term whose bound is at most this,
# 2^-10 below the series tolerance (see _crossover).
_TAIL_TOL = DEFAULT_REL_TOL * 2.0**-10
_NO_TERMS = array("d")

# A plan whose outer sum is estimated at fewer terms than this (see _plan)
# sums each inner 2F1 on its own, by _hyp2f1_series; a longer one fills
# chunks of them at once (see _InnerSeries).  Two reasons keep short sums
# per n.  At x = 0 the sum reads inner(0) alone, where a one-row block took
# 57 us against 21 us per n.  And the prior normalizers' ~25-term sums,
# which the block would take 2-4x faster, run at every density point of the
# exact-fits benchmark, whose driver keeps a record of every finished job:
# with the block on them its runs finished nearly twice the jobs, and its
# peak RSS rose past the benchmark's 15% bound though the library's own
# memory did not grow.  Short sums can leave the per-n call once the driver
# drops those records.
_BLOCK_MIN_TERMS = 64

# Widest column block of _hyp2f1_block, in series terms, and the most
# elements of any of its working arrays: 2^13 doubles (64 KiB) stay below
# glibc's mmap threshold, so the allocator reuses them instead of mapping
# fresh pages for every chunk.
_BLOCK_COLUMNS = 256
_BLOCK_ELEMENTS = 2**13

# From here on in both arguments, _log_gamma_ratio sums Stirling's series
# instead of differencing two lgamma values that each round near z log z:
# for arguments 1-12 apart that difference is off by up to 1.7e-13 at
# 190-300, and by at most 3.3e-14 below 64, where it is kept.
_STIRLING_MIN = 64.0


@dataclass(frozen=True)
class Phi1Args:
    """Arguments of a phi1 evaluation, each stored as the ``float`` that
    ``errors.check_real`` returns for it.

    ``alpha``, ``beta``, ``gamma`` must be positive and finite; ``x`` and
    ``y`` finite, and ``y < 1`` (checked at evaluation time).  The term
    budget follows from ``x`` (see ``_check_y``).
    """

    alpha: float
    beta: float
    gamma: float
    x: float
    y: float

    def __post_init__(self) -> None:
        for name, interval in (("alpha", "positive"), ("beta", "positive"),
                               ("gamma", "positive"), ("x", "finite"), ("y", "finite")):
            object.__setattr__(self, name, check_real(name, getattr(self, name), interval))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a series evaluation together with how it converged."""

    value: float
    terms_used: int
    converged: bool


def pochhammer(c: float, n: int) -> float:
    """Rising factorial ``c (c+1) ... (c+n-1)``; equals 1 when ``n == 0``."""
    c = check_real("c", c)
    out = 1.0
    for k in range(check_count("n", n, 0)):
        out *= c + k
    return out


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function for positive ``a`` and ``b``."""
    a, b = check_real("a", a, "positive"), check_real("b", b, "positive")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _log_gamma_ratio(g: float, a: float) -> float:
    """log(Gamma(g)/Gamma(a)) for positive ``g`` and ``a``.

    Below _STIRLING_MIN this is lgamma(g) - lgamma(a).  From there on, in
    both arguments, the difference is taken inside Stirling's series, where
    nothing large cancels: with d = g - a,

        (g - 1/2) log1p(d/a) + d (log a - 1) + S(g) - S(a),

    S(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5) - 1/(1680z^7), whose first
    omitted term is below 1e-19 at z = 64.
    """
    if min(g, a) < _STIRLING_MIN:
        return math.lgamma(g) - math.lgamma(a)

    def series(z: float) -> float:
        w = 1.0 / (z * z)
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - w / 1680.0) * w) * w) / z

    d = g - a
    return (g - 0.5) * math.log1p(d / a) + d * (math.log(a) - 1.0) + (series(g) - series(a))


def _hyp2f1_series(
    a: float, b: float, c: float, z: float, max_terms: int
) -> tuple[float, int]:
    """Raw 2F1 power series; caller guarantees it converges (|z| < 1).

    Returns ``(value, terms)``.  Raises ConvergenceError past ``max_terms``,
    naming z and the terms the series would need: its terms fall off like
    z^m, so reaching ``DEFAULT_REL_TOL`` takes about 27.6/(1 - |z|) of them
    as |z| nears 1.
    """
    rel_tol = DEFAULT_REL_TOL
    total = 1.0
    term = 1.0
    streak = 0
    for m in range(1, max_terms + 1):
        term *= (a + m - 1.0) * (b + m - 1.0) / ((c + m - 1.0) * m) * z
        total += term
        if abs(term) <= rel_tol * abs(total):
            streak += 1
            if streak >= 3 or term == 0.0:
                return total, m + 1
        else:
            streak = 0
    needed = -math.log(rel_tol) / (1.0 - abs(z))
    raise ConvergenceError(
        f"2F1 series at z = {z!r} did not converge within its budget of"
        f" {max_terms} terms; it needs about {needed:.3g}",
        terms_used=max_terms,
    )


def _hyp2f1_block(
    a: float, b: np.ndarray, c: np.ndarray, z: float, max_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_hyp2f1_series(a, b[i], c[i], z, max_terms)`` for every i, bit for bit.

    Returns ``(values, terms)``, with ``terms[i]`` the scalar's term count,
    or 0 where row i does not converge within ``max_terms`` (its value is
    then unset).  z must lie in [0, 1).

    Rows are the series, columns their terms m.  Each ratio is the scalar's
    expression, in the scalar's order, and ``np.multiply.accumulate`` and
    ``np.add.accumulate`` run along each row strictly in order from a column
    0 that holds the row's carried term or sum, so every entry is the
    scalar loop's running term or sum, bit for bit.  Each row stops at the
    scalar's m: the third relative term in a row at most ``DEFAULT_REL_TOL``,
    or a zero term among them.  The columns come in blocks of about the
    27.6/(1 - z) terms a series needs (see ``_hyp2f1_series``); a row that
    has not stopped carries its term, sum and last two stop tests into the
    next block, and rows come in sub-blocks of at most ``_BLOCK_ELEMENTS``
    entries.
    """
    values = np.empty(b.size)
    terms = np.zeros(b.size, dtype=np.int64)
    width = min(_BLOCK_COLUMNS, max_terms, int(-math.log(DEFAULT_REL_TOL) / (1.0 - z)) + 4)
    rows = max(1, _BLOCK_ELEMENTS // (width + 2))
    with np.errstate(over="ignore", invalid="ignore"):  # as the scalar loop does
        for start in range(0, b.size, rows):
            live = np.arange(start, min(start + rows, b.size))
            bl, cl = b[live, None], c[live, None]
            term, total = np.ones(live.size), np.ones(live.size)
            tests = np.zeros((live.size, 2), dtype=bool)  # each row's last two
            m0 = 1
            while live.size and m0 <= max_terms:
                m = np.arange(m0, m0 + min(width, max_terms + 1 - m0), dtype=float)
                run = np.empty((live.size, m.size + 1))
                run[:, 0] = term
                run[:, 1:] = (a + m - 1.0) * (bl + m - 1.0) / ((cl + m - 1.0) * m) * z
                np.multiply.accumulate(run, axis=1, out=run)
                sums = run.copy()
                sums[:, 0] = total
                np.add.accumulate(sums, axis=1, out=sums)
                small = np.abs(run[:, 1:]) <= DEFAULT_REL_TOL * np.abs(sums[:, 1:])
                tests = np.concatenate((tests, small), axis=1)
                stop = small & ((tests[:, :-2] & tests[:, 1:-1]) | (run[:, 1:] == 0.0))
                hit = stop.any(axis=1)
                at = stop[hit].argmax(axis=1)
                values[live[hit]] = sums[hit, at + 1]
                terms[live[hit]] = m0 + at + 1
                going = ~hit
                live, bl, cl = live[going], bl[going], cl[going]
                term, total, tests = run[going, -1], sums[going, -1], tests[going, -2:]
                m0 += m.size
    return values, terms


def _hyp2f1_recurrence(alpha: float, gamma: float, y: float, lo: int, top: int,
                       seed: float) -> list[float]:
    """F(n) = 2F1(1, alpha + n; gamma + n; y) for n = lo, ..., top, ascending,
    from ``seed``, the value at n = top.

    Runs the exact relation F(n) = 1 + y (alpha + n)/(gamma + n) F(n + 1),
    which is the series of F(n) with its first term split off, downward.
    Every term of F is positive for y in [0, 1), so each step multiplies a
    relative error of F(n + 1) by (F(n) - 1)/F(n) < 1 and adds its own few
    roundings: the seed's truncation error shrinks as n falls, and the
    roundings of all steps add up to a few times F(n) ulps at most.
    """
    f = seed
    values = [f]
    for n in range(top - 1, lo - 1, -1):
        f = 1.0 + (alpha + n) / (gamma + n) * y * f
        values.append(f)
    values.reverse()
    return values


class _InnerSeries:
    """The inner 2F1 values of a plan, inner(n) = 2F1(beta, alpha + shift n;
    gamma + n; y), read by calling it with n = 0, 1, ... in ascending order.

    A plan whose outer sum is estimated at fewer than ``_BLOCK_MIN_TERMS``
    terms sums each inner(n) on its own, by :func:`_hyp2f1_series`.  A
    longer one fills ``chunk`` values at once, first the estimate and then
    twice the last chunk each time a sum reads past it.  In the x' >= 0
    form with beta = 1, the form of every HIB family call, a chunk is one
    :func:`_hyp2f1_series` at its top n and :func:`_hyp2f1_recurrence` down
    from there, which leaves the series' truncation error in that one seed;
    any other chunk is a :func:`_hyp2f1_block`, the per-n series bit for
    bit.  A value left unset, because the block could not converge it or
    its chunk's seed did not converge, is summed on its own when it is
    read, which raises the per-n ConvergenceError where that series does not
    converge; one computed ahead and never read raises nothing.  For
    gamma > alpha a lower n needs fewer terms than the seed's, so no value
    below a converged seed would have raised.
    """

    __slots__ = ("beta", "alpha", "shift", "gamma", "y", "max_terms", "chunk", "values")

    def __init__(self, beta: float, alpha: float, shift: int, gamma: float, y: float,
                 max_terms: int, outer_terms: float) -> None:
        self.beta, self.alpha, self.shift, self.gamma = beta, alpha, shift, gamma
        self.y, self.max_terms = y, max_terms
        # a sum never runs past max_terms, so neither does its first chunk
        long = outer_terms >= _BLOCK_MIN_TERMS
        self.chunk = math.ceil(min(outer_terms, max_terms + 1)) if long else 0
        self.values: list[float | None] = []

    def __call__(self, n: int) -> float:
        if n < len(self.values):
            value = self.values[n]
            if value is not None:
                return value
        elif self.chunk:
            self._fill(n)
            return self(n)
        return _hyp2f1_series(self.beta, self.alpha + self.shift * n, self.gamma + n,
                              self.y, self.max_terms)[0]

    def _fill(self, n: int) -> None:
        while n >= len(self.values):
            lo = len(self.values)
            top = lo + self.chunk - 1
            if self.shift and self.beta == 1.0:
                try:
                    seed = _hyp2f1_series(1.0, self.alpha + top, self.gamma + top, self.y,
                                          self.max_terms)[0]
                except ConvergenceError:
                    self.values += [None] * self.chunk
                else:
                    self.values += _hyp2f1_recurrence(self.alpha, self.gamma, self.y, lo, top,
                                                      seed)
            else:
                ns = np.arange(lo, top + 1)
                values, terms = _hyp2f1_block(self.beta, self.alpha + self.shift * ns,
                                              self.gamma + ns, self.y, self.max_terms)
                self.values += [v if t else None
                                for v, t in zip(values.tolist(), terms.tolist())]
            self.chunk *= 2


def _check_y(y: float, xabs: float) -> int:
    """Domain checks shared by all phi1 entry points; returns the term budget.

    The budget is ``DEFAULT_MAX_TERMS + 2 ceil(xabs)``, with ``xabs`` the
    largest ``|x|`` to be summed; a budget past ``_MAX_TERMS_CEILING`` raises
    ConvergenceError before any term is summed.  y in [0.999, 1) caps the
    budget and warns; every entry point calls this itself, so that the
    warning names the entry point's caller.
    """
    if y >= 1.0:
        raise DomainError(f"phi1 requires y < 1, got {y}")
    # compared as a float first, so NaN and inf fail here too
    if not xabs <= 0.5 * (_MAX_TERMS_CEILING - DEFAULT_MAX_TERMS):
        raise ConvergenceError(
            f"phi1 at |x| = {xabs:g} needs more than {_MAX_TERMS_CEILING} terms",
            terms_used=0,
        )
    max_terms = DEFAULT_MAX_TERMS + 2 * math.ceil(xabs)
    if y >= _Y_WARN:
        warnings.warn(
            f"phi1 argument y={y} lies in [{_Y_WARN}, 1); results this close to "
            "the boundary are unsupported and the term budget is capped",
            NumericalWarning,
            stacklevel=3,
        )
        return min(max_terms, _Y_WARN_MAX_TERMS)
    return max_terms


def _linear(log_abs: float, sign: float, terms: int) -> SeriesResult:
    """Linear-scale result from ``(log|value|, sign, terms)``; overflows to inf."""
    if sign == 0.0:
        value = 0.0
    elif log_abs > _EXP_OVERFLOW:
        value = sign * math.inf
    else:
        value = sign * math.exp(log_abs)
    return SeriesResult(value=value, terms_used=terms, converged=True)


class _Plan(NamedTuple):
    """Single-series form of phi1 for the ``x`` of one sign (see :func:`_plan`)."""

    a: float
    inner: Callable[[int], float]
    log_pref: float
    tilt: float
    x0: float
    coefs: array  # k_s, s = 0..S (see _crossover); never written to
    bounds: array  # K_s >= |k_s|
    tail_log: float


def _plan(
    alpha: float, beta: float, gamma: float, y: float, negative: bool, max_terms: int, xabs: float
) -> _Plan:
    """Single-series form of phi1 for the ``x`` of one sign, and its large-|x| tail.

    Returns the ``_Plan`` ``(a, inner, log_pref, tilt, x0, coefs, bounds,
    tail_log)`` such that, for every ``x`` with ``(x < 0) == negative``
    (``x = 0`` fits both forms),

        phi1(alpha, beta; gamma; x, y)
            = exp(log_pref + tilt x) sum_n (a)_n/(gamma)_n |x|^n/n! inner(n).

    y < 0 is flipped once, into [0, 1), via
        phi1(alpha,beta;gamma;x,y) = e^x (1-y)^(-beta)
            phi1(gamma-alpha, beta; gamma; -x, y/(y-1)),
    after which the series runs in x' = -x.  With 0 <= y < 1, x' >= 0 sums
        (alpha)_n/(gamma)_n x'^n/n! 2F1(beta, alpha+n; gamma+n; y),
    and x' < 0 sums
        e^(x') (gamma-alpha)_n/(gamma)_n (-x')^n/n! 2F1(beta, alpha; gamma+n; y),
    whose terms carry no sign changes from x, avoiding cancellation.  tilt is
    1 for x < 0 and 0 for x >= 0.

    From |x| >= x0 on, the sum is replaced by the expansion at the dominant
    endpoint of the Euler integral (see :func:`_crossover`, which returns x0
    and the k_s in ``coefs`` and K_s in ``bounds``):

        log phi1 = tail_log + (a - gamma) log|x| + log sum_s k_s |x|^-s
                   + (1 - tilt) |x|,

    so the e^|x| of the expansion and the e^x of a tilt of 1 cancel exactly
    instead of in floating point.  The crossover is looked up only when
    ``xabs``, the largest |x| the caller sums, reaches _ASYMP_X_MIN, below
    which x0 never lies; otherwise x0 is inf and coefs and bounds are empty.

    At y = 0 every inner(n) is 1 (``_unit_inner``); otherwise ``inner`` is
    the plan's own :class:`_InnerSeries`, whose outer sum is estimated at
    reach + 8 sqrt(reach) + 8 terms, reach = min(xabs, x0).
    """
    log_pref, tilt, x_sign = 0.0, 0.0, 1.0  # x' = x_sign * x
    a_pos, a_neg = alpha, gamma - alpha
    if y < 0.0:
        log_pref, tilt, x_sign = -beta * math.log1p(-y), 1.0, -1.0
        alpha, y = a_neg, y / (y - 1.0)
        a_pos, a_neg = a_neg, a_pos  # gamma - (gamma - alpha) is alpha; keep it exact
        negative = not negative
    if negative:
        tilt += x_sign
        a, shift = a_neg, 0
    else:
        a, shift = a_pos, 1  # only the x' >= 0 form shifts alpha with n

    x0, coefs, bounds, tail_log = math.inf, _NO_TERMS, _NO_TERMS, 0.0
    if xabs >= _ASYMP_X_MIN:
        x0, coefs, bounds, log_scale = _crossover(a, beta, gamma, y, negative)
        tail_log = log_pref + log_scale

    if y == 0.0:
        return _Plan(a, _unit_inner, log_pref, tilt, x0, coefs, bounds, tail_log)
    reach = min(xabs, x0)  # past x0 the expansion needs no inner 2F1
    outer_terms = reach + 8.0 * math.sqrt(reach) + 8.0
    inner = _InnerSeries(beta, alpha, shift, gamma, y, max_terms, outer_terms)
    return _Plan(a, inner, log_pref, tilt, x0, coefs, bounds, tail_log)


def _unit_inner(n: int) -> float:
    """inner(n) at y = 0, where every inner 2F1 is 1 and phi1 is 1F1."""
    return 1.0


def _phi1_core(args: Phi1Args, max_terms: int) -> tuple[float, float, int]:
    """Scalar phi1 engine returning ``(log|value|, sign, terms)``.

    ``max_terms`` is the budget from ``_check_y``, which each entry point calls.

    Sums the series :func:`_plan` picks for the sign of ``x``, or, from its
    crossover on, the plan's large-|x| expansion (:func:`_tail_log`).  Partial
    sums of the series are rescaled by powers of two so series comparable to
    exp(|x|) never overflow; the log of the accumulated scale is folded into
    the returned log value.
    """
    gamma, x, y, rel_tol = args.gamma, args.x, args.y, DEFAULT_REL_TOL
    xabs = abs(x)
    plan = _plan(args.alpha, args.beta, gamma, y, x < 0.0, max_terms, xabs)
    if xabs >= plan.x0:
        log_abs, n = _tail_log(xabs, gamma, plan)
        return log_abs, 1.0, n
    a, inner = plan.a, plan.inner
    weight = 1.0
    off = 0.0
    total = inner(0)
    streak = 0
    n = 0
    converged = False
    while n < max_terms:
        n += 1
        weight *= (a + n - 1.0) * xabs / ((gamma + n - 1.0) * n)
        term = weight * inner(n) if weight else 0.0  # x = 0 needs no inner(1)
        total += term
        if abs(term) <= rel_tol * abs(total):
            streak += 1
            if streak >= 3 or (term == 0.0 and weight == 0.0):
                converged = True
                break
        else:
            streak = 0
        magnitude = max(abs(total), abs(weight))
        if magnitude > _SCALE_HI:
            total /= _RESCALE
            weight /= _RESCALE
            off += _LOG_RESCALE
        elif 0.0 < magnitude < _SCALE_LO:
            total *= _RESCALE
            weight *= _RESCALE
            off -= _LOG_RESCALE
    if not converged:
        raise ConvergenceError("phi1 series did not converge", terms_used=n)
    if total == 0.0:
        return -math.inf, 0.0, n
    log_abs = math.log(abs(total)) + off + plan.log_pref + plan.tilt * x
    return log_abs, math.copysign(1.0, total), n


def phi1(args: Phi1Args) -> SeriesResult:
    """Evaluate phi1 at ``args`` on the linear scale.

    The value can legitimately overflow to ``inf`` for large positive ``x``
    (the function grows like ``e^x``); callers needing ratios of large values
    should use :func:`log_phi1` instead.  ``terms_used`` counts the terms of
    whichever sum was taken: the series, or past a crossover the large-|x|
    expansion.
    """
    return _linear(*_phi1_core(args, _check_y(args.y, abs(args.x))))


def log_phi1(alpha: float, beta: float, gamma: float, x: float, y: float) -> float:
    """Natural log of phi1 for positive parameters.

    For positive ``alpha``, ``beta``, ``gamma`` (and in particular for every
    argument pattern produced by the HIB posterior formulas) phi1 is strictly
    positive, so the log is well defined for arbitrarily large ``x``.
    """
    args = Phi1Args(alpha, beta, gamma, x, y)
    log_abs, sign, _ = _phi1_core(args, _check_y(args.y, abs(args.x)))
    if sign <= 0.0:
        raise DomainError("phi1 evaluated non-positive; log_phi1 undefined here")
    return log_abs


def _endpoint_coefficients(
    a: float, beta: float, c: float, w: float
) -> Iterator[tuple[float, float]]:
    """Yield (k_s, K_s), s = 0, 1, ..., where

        k_s = (c)_s sum_{j+m=s} (1-a)_j/j! (beta)_m w^m/m!

    is the Cauchy product of the binomial series of (1-u)^(a-1) and
    (1-wu)^(-beta) times (c)_s, and K_s >= |k_s| the same sum over the
    magnitudes of its products.  The products in k_s can alternate in sign,
    so they are summed with ``math.fsum``, and k_s can vanish by cancellation
    (k_1 = 0 when a - 1 = beta w) while later ones do not; K_s cannot, so
    it is K_s that decides when an expansion has converged.  At y = 0
    (w = 0), K_s = |k_s|.
    """
    f, g = [1.0], [1.0]
    poch = 1.0
    yield 1.0, 1.0
    s = 0
    while True:
        s += 1
        f.append(f[-1] * (s - a) / s)
        g.append(g[-1] * (beta + s - 1.0) * w / s)
        poch *= c + s - 1.0
        products = list(map(operator.mul, f, reversed(g)))
        yield poch * math.fsum(products), poch * sum(map(abs, products))


@functools.lru_cache(maxsize=4096)
def _crossover(
    a: float, beta: float, gamma: float, y: float, negative: bool
) -> tuple[float, array, array, float]:
    """Crossover x0 of a plan's large-|x| expansion, and its coefficients.

    ``a``, ``y`` (in [0, 1)) and ``negative`` are those of the plan, after
    its y < 0 flip.  With c = gamma - a > 0 and v = |x|, the plan's sum is
    Gamma(gamma)/(Gamma(a) Gamma(c)) e^v times the Euler integral

        int_0^1 u^(c-1) (1-u)^(a-1) h(u) e^(-v u) du,

    with h(u) = (1-y)^(-beta) (1 - w u)^(-beta), w = -y/(1-y), for x' >= 0
    (the t = 1 endpoint of phi1's own integral, t = 1 - u), and h(u) =
    (1 - w u)^(-beta), w = y, for x' < 0 (the t = 0 endpoint, t = u).  Its
    dominant endpoint is u = 0, where Watson's lemma (Olver 1974, ch. 3; DLMF
    2.3(ii)) gives

        Gamma(gamma)/Gamma(a) h(0) e^v v^(a-gamma) sum_s k_s v^-s

    with the k_s of :func:`_endpoint_coefficients`; at y = 0 this is DLMF
    13.7.2 for 1F1(a; gamma; v).  The other endpoint, u = 1, adds a term of
    relative size about Gamma(a)/Gamma(c) v^(c-a) e^-v h(1)/h(0).  Each
    term k_s v^-s is bounded by K_s v^-s, with the K_s >= |k_s| of the same
    function.  x0 is the smallest v >= max(_ASYMP_X_MIN, c - a), to 2^-10
    relative, at which the endpoint term and the bound of the last summed
    term are both <= _TAIL_TOL, and the bounds of the terms summed add up to
    at most 1/2, which bounds their cancellation.  All three hold at every
    larger v too.  Returns ``(x0, k, K, log_scale)``, with k_s and K_s for
    s = 0..S in two arrays of doubles, S the term count at x0, which bounds
    it at every larger v, and log_scale = log(Gamma(gamma)/Gamma(a) h(0))
    (see :func:`_log_gamma_ratio`); or
    ``(inf, k, K, 0.0)`` with k and K empty when a <= 0 or c <= 0 (there is
    no Euler integral), or when x0 lies past every |x| that ``_check_y``
    admits.  Each argument tuple is derived once per process; its arrays
    are shared by every caller, which only read them.
    """
    c = gamma - a
    if not (a > 0.0 and c > 0.0):
        return math.inf, _NO_TERMS, _NO_TERMS, 0.0
    w = y if negative else -y / (1.0 - y)
    # log(h(1)/h(0)) is -beta log(1-y) for x' < 0 and beta log(1-y) otherwise
    log_h = (-beta if negative else beta) * math.log1p(-y)
    # log(subdominant / (dominant tol)) falls with v from v = c - a on
    k = math.lgamma(a) - math.lgamma(c) + log_h - math.log(_TAIL_TOL)
    coefs: list[tuple[float, float]] = []
    source = _endpoint_coefficients(a, beta, c, w)

    def terms(v: float) -> int:
        """Terms summed at v until a bound is <= _TAIL_TOL, or 0 when the
        bounds add up past 1/2 first (or a coefficient overflows)."""
        inv, power, spent, s = 1.0 / v, 1.0, 0.0, 0
        while True:
            s += 1
            if s == len(coefs):
                coefs.append(next(source))
            power *= inv
            bound = coefs[s][1] * power
            spent += bound
            if not spent <= 0.5:  # also catches an overflowed coefficient
                return 0
            if bound <= _TAIL_TOL:
                return s

    coefs.append(next(source))
    lo = hi = max(_ASYMP_X_MIN, c - a)

    def fits(v: float) -> bool:
        return k + (c - a) * math.log(v) - v <= 0.0 and terms(v) > 0

    while not fits(hi):
        if hi > 0.5 * _MAX_TERMS_CEILING:
            return math.inf, _NO_TERMS, _NO_TERMS, 0.0
        lo, hi = hi, 2.0 * hi
    while hi - lo > 2.0**-10 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    # h(0) is (1-y)^(-beta) for x' >= 0 and 1 for x' < 0
    log_scale = _log_gamma_ratio(gamma, a)
    if not negative:
        log_scale -= beta * math.log1p(-y)
    kept = coefs[: terms(hi) + 1]
    return hi, array("d", [k for k, _ in kept]), array("d", [b for _, b in kept]), log_scale


def _tail_log(v: float, gamma: float, plan: _Plan) -> tuple[float, int]:
    """log phi1 at one |x| = v >= plan.x0, by the plan's large-|x| expansion.

    Returns ``(log phi1, terms)``: the sum stops at the first term whose
    bound is <= _TAIL_TOL, within the plan's coefficients.
    """
    inv, power, total = 1.0 / v, 1.0, 1.0
    coefs, bounds = plan.coefs, plan.bounds
    for s in range(1, len(coefs)):
        power *= inv
        total += coefs[s] * power
        if bounds[s] * power <= _TAIL_TOL:
            log_abs = math.log(total) + (plan.a - gamma) * math.log(v) + plan.tail_log
            return (log_abs if plan.tilt else log_abs + v), s
    terms = len(plan.coefs) - 1
    raise ConvergenceError("phi1 asymptotic series did not converge", terms_used=terms)


def _tail_row(absx: np.ndarray, out: np.ndarray, gamma: float, plan: _Plan) -> None:
    """:func:`_tail_log` at every ascending ``absx``, all at or above ``plan.x0``, into ``out``.

    Sums in blocks of ``_BATCH_BLOCK``.  Each block's degree S is the term
    count that :func:`_tail_log` reports at its smallest |x|, which bounds
    the count of every larger one, and the block evaluates sum_s k_s |x|^-s, s <= S,
    by Horner's rule in 1/|x|, two array passes a term.
    """
    width = min(_BATCH_BLOCK, absx.size)
    buffers = np.empty((2, width))
    coefs = plan.coefs
    for start in range(0, absx.size, _BATCH_BLOCK):
        size = min(_BATCH_BLOCK, absx.size - start)
        inv, acc = buffers[:, :size]
        xb = absx[start : start + size]
        degree = _tail_log(float(xb[0]), gamma, plan)[1]
        np.divide(1.0, xb, out=inv)
        acc.fill(coefs[degree])
        for s in range(degree - 1, -1, -1):
            acc *= inv
            acc += coefs[s]
        np.log(xb, out=inv)
        np.log(acc, out=acc)
        acc += np.multiply(inv, plan.a - gamma, out=inv)
        acc += plan.tail_log
        if not plan.tilt:
            acc += xb
        out[start : start + size] = acc


def _block_terms(
    top: float, q_first: float, ratio: Callable[[int], float], max_terms: int
) -> tuple[list[float], int]:
    """Terms of a series block at its largest |x|, ``top``, and the block's rescale count.

    Sums sum_n q(n) top^n/n!, with q(0) = ``q_first`` and q(n)/(q(n-1) n) =
    ``ratio(n)``, term by term, and stops when the relative term stays below
    ``DEFAULT_REL_TOL`` on 3 checks, 8 terms apart; it raises
    ConvergenceError past ``max_terms`` terms.  Each time the partial sum
    passes _SCALE_HI, it and the term are divided by 2^512.  Returns
    ``(D, j)``: the terms D_0..D_N, all brought to the scale of the last of
    the sum's j rescales, so that sum_n D_n u^n 2^(512 j) is the series at
    |x| = u top.  Every term is nonnegative, so the relative term of ``top``
    is its block's largest, and N is the count at which the whole block has
    converged.
    """
    term = total = q_first
    terms = [q_first]
    marks = []  # indices of the terms at which the sum was rescaled
    streak = 0
    n = 0
    while streak < 3:
        if n == max_terms:
            raise ConvergenceError("phi1 batch series did not converge", terms_used=n)
        n += 1
        term *= top * ratio(n)
        total += term
        # per-step growth can exceed 1e6 when x is huge, so rescale checks
        # cannot be amortized the way the convergence checks are
        if total > _SCALE_HI:
            total /= _RESCALE
            term /= _RESCALE
            marks.append(n)
        terms.append(term)
        if n % 8 == 0:
            streak = 0 if term / total > DEFAULT_REL_TOL else streak + 1
    if marks:
        shifts = np.zeros(len(terms), dtype=np.int64)
        for mark in marks:
            shifts[:mark] -= 512
        terms = np.ldexp(terms, shifts).tolist()
    return terms, len(marks)


def _series_row(
    absx: np.ndarray, out: np.ndarray, gamma: float, plan: _Plan, max_terms: int
) -> None:
    """Power series of one row at the ascending ``absx``, all below ``plan.x0``.

    Writes log_pref - tilt |x| + log of sum_n q(n) |x|^n/n! into ``out``,
    with q(n) = (a)_n/(gamma)_n inner(n) and the ``a``, ``inner``,
    ``log_pref`` and ``tilt`` of ``plan``.  The term ratios are built on
    first use and shared by every block, so each inner(n) is evaluated once
    per term index.

    The series needs more terms the larger |x| is, so the sorted |x| are
    summed in blocks of ``_BATCH_BLOCK`` neighbours.  A block's degree N and
    coefficients D_n are the term count and the terms of its largest |x|,
    summed by :func:`_block_terms`; the block then evaluates sum_n D_n u^n,
    u = |x| / max|x|, by Horner's rule, two array passes a term.  Blocks of
    small |x| thus stop after tens of terms instead of running as long as
    the largest, and each block's two working arrays stay in cache.  If the
    sum at max|x| was rescaled, the block's sums are those of the last
    scale, and the |x| whose sums lie below _HORNER_FLOOR there are summed
    again as a block of their own, with its own largest |x|; the largest,
    where u = 1, never is.
    """
    a, inner = plan.a, plan.inner
    q_first = inner(0)
    if q_first <= 0.0:
        raise DomainError("phi1 batch requires positive series coefficients")
    ratios = [0.0]  # ratios[n] = q(n) / (q(n-1) n); index 0 is unused
    poch_ratio, q_prev = 1.0, q_first

    def ratio(n: int) -> float:
        nonlocal poch_ratio, q_prev
        if n == len(ratios):
            poch_ratio *= (a + n - 1.0) / (gamma + n - 1.0)
            if poch_ratio < _SCALE_LO:
                # (a)_n/(gamma)_n underflows at large gamma (the risk moments
                # from p ~ 1950 on); one power of two in both moves no ratio
                poch_ratio *= _RESCALE
                q_prev *= _RESCALE
            q = poch_ratio * inner(n)
            ratios.append(q / (q_prev * n))
            q_prev = q
        return ratios[n]

    width = min(_BATCH_BLOCK, absx.size)
    buffers = np.empty((2, width))
    # a work list, not recursion, so no closure cycle keeps a row's arrays alive
    blocks = [(start, min(start + _BATCH_BLOCK, absx.size))
              for start in range(0, absx.size, _BATCH_BLOCK)]
    while blocks:
        start, stop = blocks.pop()
        u, acc = buffers[:, : stop - start]
        xb = absx[start:stop]
        top = float(xb[-1])
        coefs, rescales = _block_terms(top, q_first, ratio, max_terms)
        np.divide(xb, top or 1.0, out=u)  # a block of zeros has top 0
        acc.fill(coefs[-1])
        for d in coefs[-2::-1]:
            acc *= u
            acc += d
        # every D_n >= 0, so acc ascends with u, and the top's, at u = 1, is
        # at least the 1e280 / 2^512 of the last rescale: a block of the
        # others sums again, with a smaller top
        done = 0
        if rescales and float(acc[0]) < _HORNER_FLOOR:
            done = int(np.searchsorted(acc, _HORNER_FLOOR))
            blocks.append((start, start + done))
            u, acc, xb = u[done:], acc[done:], xb[done:]
        if not float(acc[0]) > 0.0:
            raise DomainError("phi1 batch accumulated a non-positive partial sum")
        np.log(acc, out=acc)
        if rescales:
            acc += rescales * _LOG_RESCALE
        acc += plan.log_pref
        if plan.tilt:
            acc += np.multiply(xb, -plan.tilt, out=u)
        out[start + done : stop] = acc


def _batch_sum(
    alpha: float,
    beta: float,
    gammas: list[float],
    y: float,
    x: np.ndarray,
    out: np.ndarray,
    max_terms: int,
    largest: float,
) -> None:
    """log phi1 at the ascending 1-D ``x`` for every row r, into ``out[r]``.

    Each sign's x are summed as one ascending array of |x|: the nonnegative
    x as they are, and the negatives, which come first, negated once and
    read backwards, with the matching reversed view of ``out``.  Row r has
    gamma = ``gammas[r]`` and the :func:`_plan` of that gamma and the sign
    (``largest`` is the largest |x| of the call), and is summed on its own,
    exactly as a call with its gamma alone would be: the |x| below its
    crossover x0 by :func:`_series_row`, and those at or above it by the
    plan's large-|x| expansion (:func:`_tail_row`), as on the scalar path.
    Every block is a slice of the |x|, and its logs go to a slice of ``out``.
    """
    k = int(np.searchsorted(x, 0.0))
    signs = ((False, x[k:], out[:, k:]), (True, np.negative(x[:k][::-1]), out[:, :k][:, ::-1]))
    for negative, absx, slots in signs:
        if not absx.size:
            continue
        if negative and min(gammas) <= alpha:
            raise DomainError("log_phi1_batch with negative x requires gamma > alpha")
        for gamma, row in zip(gammas, slots):
            plan = _plan(alpha, beta, gamma, y, negative, max_terms, largest)
            split = int(np.searchsorted(absx, plan.x0))
            if split:
                _series_row(absx[:split], row[:split], gamma, plan, max_terms)
            if split < absx.size:
                _tail_row(absx[split:], row[split:], gamma, plan)


def log_phi1_batch(
    alpha: float, beta: float, gamma: float | np.ndarray, x: np.ndarray, y: float
) -> np.ndarray:
    """Vectorized :func:`log_phi1` over an array of ``x`` and a 1-D ``gamma``.

    ``alpha``, ``beta`` and ``y`` are fixed across the batch, the situation
    that arises when a Monte Carlo risk loop evaluates posterior moments at
    many data draws.  ``gamma`` is a scalar or a 1-D sequence, and the
    result has shape ``np.shape(gamma) + x.shape``: row r holds log phi1 at
    ``gamma[r]``.  Each sign's x are summed, for all rows, as one ascending
    array of |x|, each block a slice of it whose logs go to a slice of the
    result.  An ascending x (one O(n) comparison tells) is that array
    already, or its negatives reversed; any other x is summed as a sorted
    copy, which is freed before one argsort of x puts each row of logs back
    in x's order.  Every value is the same in both cases, bit for bit, so a
    caller that can sort its x for free, as the risk Monte Carlo can,
    should.

    Negative and nonnegative ``x`` entries are each summed with the series
    :func:`_plan` picks for their sign (the same ones ``phi1`` uses), with
    only positive terms, so the results match the scalar path to near
    machine precision for any magnitude of ``x``.  The entries at or above
    the crossover of their sign and gamma take the plan's large-|x|
    expansion instead, as the scalar path does (see :func:`_batch_sum`).
    Rows are summed independently, and each equals the call with its gamma
    alone, bit for bit.  Requires ``gamma > alpha`` when
    negative ``x`` are present (always true for the posterior patterns,
    where gamma - alpha is the posterior shape a').
    """
    alpha, beta = check_real("alpha", alpha, "positive"), check_real("beta", beta, "positive")
    y = check_real("y", y)
    ndim = np.ndim(gamma)
    if ndim > 1:
        raise DomainError("log_phi1_batch takes a scalar or 1-D gamma")
    rows = [check_real("gamma", g, "positive") for g in (gamma if ndim else (gamma,))]
    x = check_reals("x", x)
    xabs = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))  # no |x| array
    max_terms = _check_y(y, xabs)
    flat = x.ravel()
    # tested before out exists, so its n-byte mask never adds to the peak
    ascending = not (flat[1:] < flat[:-1]).any()
    out = np.empty((len(rows), flat.size))
    if not rows:
        return out.reshape(np.shape(gamma) + x.shape)
    if ascending:
        _batch_sum(alpha, beta, rows, y, flat, out, max_terms, xabs)
    else:
        # the sorted copy is freed when the call returns, before the argsort
        _batch_sum(alpha, beta, rows, y, np.sort(flat), out, max_terms, xabs)
        order = np.argsort(flat)
        for row in out:
            row[order] = row.copy()
    return out.reshape(np.shape(gamma) + x.shape)
