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
its ``|x|`` and sums them in fixed blocks of neighbours, each block stopping
as soon as its own largest element has converged, so its work follows each
element's own term count rather than the largest one's; the series
coefficients are built once per call and shared by every block.  It also
takes a 1-D ``gamma``, one output row per value, as the posterior moments
need phi1 at gamma, gamma + 1 and gamma + 2 for the same tilts: each
sign's x are one ascending array of |x| for all rows, every block a slice
of it whose logs go to a slice of the result, and rows close in gamma share
one recursion of the x-dependent part of the terms.  An ascending x is
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

from .errors import ConvergenceError, DomainError, NumericalWarning

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
# threads: a block's working arrays, three plus one per row (1.5 MiB for the
# three rows of the posterior moments), then stay in a 2 MiB L2 cache, while
# half as many elements per block cost more in per-call overhead than they
# save.
_BATCH_BLOCK = 32768

# Largest spread of gamma among batch rows that share one power-series term
# recursion (see _series_rows).  A row's term is the shared one times
# q_r(n)/q_r0(n), which at such a spread moves with n at most like n^16, so
# within 2^22 terms every row stays within about 1e-106 of the largest, far
# inside the range that rescaling by 2^512 leaves.
_ROW_SPAN = 16.0

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

# From here on in both arguments, _log_gamma_ratio sums Stirling's series
# instead of differencing two lgamma values that each round near z log z:
# for arguments 1-12 apart that difference is off by up to 1.7e-13 at
# 190-300, and by at most 3.3e-14 below 64, where it is kept.
_STIRLING_MIN = 64.0


@dataclass(frozen=True)
class Phi1Args:
    """Arguments of a phi1 evaluation.

    ``alpha``, ``beta``, ``gamma`` must be positive; ``x`` is unrestricted and
    ``y`` must satisfy ``y < 1`` (checked at evaluation time).  The term
    budget follows from ``x`` (see ``_check_y``).
    """

    alpha: float
    beta: float
    gamma: float
    x: float
    y: float

    def __post_init__(self) -> None:
        # numpy scalars become floats here, once: _crossover lets a bound
        # overflow to inf by design, which a numpy scalar reports as a warning
        for name in ("alpha", "beta", "gamma", "x", "y"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("x and y must be finite")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a series evaluation together with how it converged."""

    value: float
    terms_used: int
    converged: bool


def pochhammer(c: float, n: int) -> float:
    """Rising factorial ``c (c+1) ... (c+n-1)``; equals 1 when ``n == 0``."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer requires a nonnegative integer n, got {n}")
    out = 1.0
    for k in range(int(n)):
        out *= c + k
    return out


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function for positive ``a`` and ``b``."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"log_beta requires positive finite arguments, got ({a}, {b})")
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

    Returns ``(value, terms)``.  Raises ConvergenceError past ``max_terms``.
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
    raise ConvergenceError("2F1 series did not converge", terms_used=max_terms)


def _check_y(y: float, xabs: float) -> int:
    """Domain checks shared by all phi1 entry points; returns the term budget.

    The budget is ``DEFAULT_MAX_TERMS + 2 ceil(xabs)``, with ``xabs`` the
    largest ``|x|`` to be summed; a budget past ``_MAX_TERMS_CEILING`` raises
    ConvergenceError before any term is summed.  y in [0.999, 1) caps the
    budget.
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

    def inner(n: int) -> float:
        return _hyp2f1_series(beta, alpha + shift * n, gamma + n, y, max_terms)[0]

    return _Plan(a, inner, log_pref, tilt, x0, coefs, bounds, tail_log)


def _unit_inner(n: int) -> float:
    """inner(n) at y = 0, where every inner 2F1 is 1 and phi1 is 1F1."""
    return 1.0


def _phi1_core(args: Phi1Args) -> tuple[float, float, int]:
    """Scalar phi1 engine returning ``(log|value|, sign, terms)``.

    Sums the series :func:`_plan` picks for the sign of ``x``, or, from its
    crossover on, the plan's large-|x| expansion (:func:`_tail_log`).  Partial
    sums of the series are rescaled by powers of two so series comparable to
    exp(|x|) never overflow; the log of the accumulated scale is folded into
    the returned log value.
    """
    gamma, x, y, rel_tol = args.gamma, args.x, args.y, DEFAULT_REL_TOL
    xabs = abs(x)
    max_terms = _check_y(y, xabs)
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
    return _linear(*_phi1_core(args))


def log_phi1(alpha: float, beta: float, gamma: float, x: float, y: float) -> float:
    """Natural log of phi1 for positive parameters.

    For positive ``alpha``, ``beta``, ``gamma`` (and in particular for every
    argument pattern produced by the HIB posterior formulas) phi1 is strictly
    positive, so the log is well defined for arbitrarily large ``x``.
    """
    log_abs, sign, _ = _phi1_core(Phi1Args(alpha, beta, gamma, x, y))
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


def _tail_logs(
    absx: np.ndarray,
    out: np.ndarray,
    gammas: list[float],
    plans: list[_Plan],
    splits: list[int],
) -> None:
    """:func:`_tail_log` for every row r at the ascending ``absx`` from ``splits[r]`` on.

    Those are the |x| at or above the crossover of ``plans[r]``.  Blocks of
    ``_BATCH_BLOCK`` start at the smallest split; in each, the rows share
    the powers of 1/|x| and one log|x|, and each row sums until the bound of
    the term of its own smallest |x|, the row's largest, is <= _TAIL_TOL.
    It gets there within its plan's coefficients.  Row r's logs go to
    ``out[r]``, at the positions of their |x|.
    """
    first = min(splits)
    width = min(_BATCH_BLOCK, absx.size - first)
    buffers, sums = np.empty((3, width)), np.empty((len(splits), width))
    for start in range(first, absx.size, _BATCH_BLOCK):
        size = min(_BATCH_BLOCK, absx.size - start)
        inv, power, term = buffers[:, :size]
        xb = absx[start : start + size]
        np.divide(1.0, xb, out=inv)
        power.fill(1.0)
        rows = []  # (row, offset of its first element in the block, its sum)
        for r, split in enumerate(splits):
            lo = max(split - start, 0)
            if lo < size:
                total = sums[r, lo:size]
                total.fill(1.0)
                rows.append((r, lo, total))
        summing = list(range(len(rows)))
        s = 0
        while summing:
            s += 1
            power *= inv
            for k in list(summing):
                r, lo, total = rows[k]
                plan = plans[r]
                if s == len(plan.coefs):
                    terms = len(plan.coefs) - 1
                    raise ConvergenceError(
                        "phi1 asymptotic series did not converge", terms_used=terms
                    )
                np.multiply(power[lo:], plan.coefs[s], out=term[lo:])
                total += term[lo:]
                if plan.bounds[s] * float(power[lo]) <= _TAIL_TOL:
                    summing.remove(k)
        np.log(xb, out=inv)
        for r, lo, total in rows:
            plan = plans[r]
            np.log(total, out=total)
            total += np.multiply(inv[lo:], plan.a - gammas[r], out=term[lo:])
            total += plan.tail_log
            if not plan.tilt:
                total += xb[lo:]
            out[r, start + lo : start + size] = total


def _row_groups(gammas: list[float]) -> list[list[int]]:
    """Row indices in increasing gamma, cut into runs spanning <= _ROW_SPAN."""
    groups: list[list[int]] = []
    for r in sorted(range(len(gammas)), key=gammas.__getitem__):
        if groups and gammas[r] - gammas[groups[-1][0]] <= _ROW_SPAN:
            groups[-1].append(r)
        else:
            groups.append([r])
    return groups


def _series_rows(
    absx: np.ndarray,
    out: np.ndarray,
    count: int,
    group: list[int],
    gammas: list[float],
    plans: list[_Plan],
    splits: list[int],
    max_terms: int,
) -> None:
    """Power series of the rows ``group`` at the first ``count`` ascending ``absx``.

    Row r sums, at its first ``splits[r]`` elements (those below its
    crossover), log_pref - tilt |x| + log of sum_n q_r(n) |x|^n/n!, with
    q(n) = (a)_n/(gamma)_n inner(n) and the ``a``, ``inner``, ``log_pref``
    and ``tilt`` of ``plans[r]``; the logs go to ``out[r]``.  Only
    |x|^n/n! depends on x, so the rows share one term recursion, that of
    the group's first row r0, the smallest gamma: row r's term is r0's times
    the scalar kappa_r(n) = q_r(n)/q_r0(n).  The term ratios of r0 and the
    kappas are built on first use and shared by every block, so each
    inner(n) is evaluated once per row and term index.

    The series needs more terms the larger |x| is, so the sorted |x| are
    summed in blocks of ``_BATCH_BLOCK`` neighbours.  Each row stops when
    its own largest relative term in the block, over its own elements,
    stays below ``DEFAULT_REL_TOL`` on 3 checks, 8 terms apart, as a row
    summed alone does; its logs are then taken, and its slot is not read
    again.  The block ends when every row has stopped, and raises
    ConvergenceError past ``max_terms`` terms.  Blocks of small |x| thus
    leave after tens of terms instead of running as long as the largest,
    and each block's working arrays stay in cache.  Partial sums are
    rescaled per element, in every row at once, when any row's passes
    _SCALE_HI; a group spans at most _ROW_SPAN in gamma, so no row is then
    pushed out of the float range.  All terms are nonnegative, so the
    streaming rescaled accumulation is stable.
    """
    base = plans[group[0]]
    a0, gamma0 = base.a, gammas[group[0]]
    others = [(plans[r].a, gammas[r], plans[r].inner) for r in group[1:]]
    q_first = [plans[r].inner(0) for r in group]
    if min(q_first) <= 0.0:
        raise DomainError("phi1 batch requires positive series coefficients")
    q_prev = q_first[0]
    poch_ratio = 1.0
    ratios = [0.0]  # ratios[n] = q_r0(n) / (q_r0(n-1) n); index 0 is unused
    kappa_poch = [1.0] * len(others)  # (a_r)_n (gamma0)_n / ((gamma_r)_n (a0)_n)
    kappas: list[list[float]] = [[]]  # kappas[n][k - 1] = kappa of row group[k] at n
    width = min(_BATCH_BLOCK, count)
    buffers, sums = np.empty((3, width)), np.empty((len(group), width))
    for start in range(0, count, _BATCH_BLOCK):
        size = min(_BATCH_BLOCK, count - start)
        term, off, scratch = buffers[:, :size]
        xb = absx[start : start + size]
        cuts = [min(max(splits[r] - start, 0), size) for r in group]
        totals = sums[:, :size]
        totals[:] = np.array(q_first)[:, None]
        rows = list(totals)  # one view per row
        term.fill(q_first[0])
        off.fill(0.0)
        summing = [k for k, cut in enumerate(cuts) if cut]
        streaks = [0] * len(group)
        rescaled = False
        n = 0
        while summing:
            if n == max_terms:
                raise ConvergenceError("phi1 batch series did not converge", terms_used=n)
            n += 1
            if n == len(ratios):
                poch_ratio *= (a0 + n - 1.0) / (gamma0 + n - 1.0)
                if poch_ratio < _SCALE_LO:
                    # (a0)_n/(gamma0)_n underflows at large gamma (the risk moments
                    # from p ~ 1950 on); one power of two in both moves no ratio
                    poch_ratio *= _RESCALE
                    q_prev *= _RESCALE
                inner = base.inner(n)
                q = poch_ratio * inner
                ratios.append(q / (q_prev * n))
                q_prev = q
                column = []
                for k, (a, gamma, inner_r) in enumerate(others):
                    kappa_poch[k] *= (
                        (a + n - 1.0) * (gamma0 + n - 1.0) / ((gamma + n - 1.0) * (a0 + n - 1.0))
                    )
                    column.append(kappa_poch[k] * inner_r(n) / inner)
                kappas.append(column)
            np.multiply(xb, ratios[n], out=scratch)
            term *= scratch
            rows[0] += term
            for row, kappa in zip(rows[1:], kappas[n]):
                row += np.multiply(term, kappa, out=scratch)
            # per-step growth can exceed 1e6 when x is huge, so rescale checks
            # cannot be amortized the way the convergence checks are; every
            # term grows with x, so until the block first rescales each row's
            # largest partial sum is its last
            if float(totals.max() if rescaled else totals[:, -1].max()) > _SCALE_HI:
                rescaled = True
                big = (totals > _SCALE_HI).any(axis=0)
                totals[:, big] /= _RESCALE
                term[big] /= _RESCALE
                off[big] += _LOG_RESCALE
            if n % 8 == 0:
                for k in list(summing):
                    cut = cuts[k]
                    part = scratch[:cut]
                    row_term = np.multiply(term[:cut], kappas[n][k - 1], out=part) if k else term[:cut]
                    # terms are nonnegative, so term / total is the relative term
                    if float(np.divide(row_term, rows[k][:cut], out=part).max()) > DEFAULT_REL_TOL:
                        streaks[k] = 0
                        continue
                    streaks[k] += 1
                    if streaks[k] < 3:
                        continue
                    summing.remove(k)
                    plan = plans[group[k]]
                    logs = rows[k][:cut]
                    if not np.all(logs > 0.0):
                        raise DomainError("phi1 batch accumulated a non-positive partial sum")
                    np.log(logs, out=logs)
                    logs += off[:cut]
                    logs += plan.log_pref
                    if plan.tilt:
                        logs += np.multiply(xb[:cut], -plan.tilt, out=part)
                    out[group[k], start : start + cut] = logs


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
    (``largest`` is the largest |x| of the call).  The |x| below a row's
    crossover x0 take its power series, summed by :func:`_series_rows` for
    each group of rows close in gamma, and those at or above it the plan's
    large-|x| expansion (:func:`_tail_logs`), as on the scalar path.  Every
    block is a slice of the |x|, and its logs go to a slice of ``out``.
    """
    k = int(np.searchsorted(x, 0.0))
    signs = ((False, x[k:], out[:, k:]), (True, np.negative(x[:k][::-1]), out[:, :k][:, ::-1]))
    for negative, absx, slots in signs:
        if not absx.size:
            continue
        if negative and min(gammas) <= alpha:
            raise DomainError("log_phi1_batch with negative x requires gamma > alpha")
        plans = [_plan(alpha, beta, g, y, negative, max_terms, largest) for g in gammas]
        splits = np.searchsorted(absx, [plan.x0 for plan in plans]).tolist()
        for group in _row_groups(gammas):
            count = max(splits[r] for r in group)
            if count:
                _series_rows(absx, slots, count, group, gammas, plans, splits, max_terms)
        if min(splits) < absx.size:
            _tail_logs(absx, slots, gammas, plans, splits)


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
    Rows close in gamma share their power-series work, and each row matches
    a call with its gamma alone to a few ulps; a scalar ``gamma`` returns
    what it always has, bit for bit.  Requires ``gamma > alpha`` when
    negative ``x`` are present (always true for the posterior patterns,
    where gamma - alpha is the posterior shape a').
    """
    alpha, beta, y = float(alpha), float(beta), float(y)  # as in Phi1Args
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1:
        raise DomainError("log_phi1_batch takes a scalar or 1-D gamma")
    rows = gammas.ravel().tolist()
    if not (
        0.0 < alpha < math.inf
        and 0.0 < beta < math.inf
        and all(0.0 < g < math.inf for g in rows)
    ):
        raise DomainError("log_phi1_batch requires positive finite alpha, beta, gamma")
    x = np.asarray(x, dtype=float)
    xabs = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))  # no |x| array
    if not (math.isfinite(xabs) and math.isfinite(y)):
        raise DomainError("x and y must be finite")
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
