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
coefficients are built once per call and shared by every block.

No caller sets how a series is summed: every series stops at the relative
tolerance ``DEFAULT_REL_TOL``, within a term budget that follows from its
largest ``|x|`` (see ``_check_y``).

Large arguments make the function value overflow a float even though ratios
of values stay moderate, so the statistical modules consume ``log_phi1`` and
the vectorized ``log_phi1_batch`` rather than the linear-scale ``phi1``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
# threads: a block's four working arrays then stay in L2 cache, while half as
# many elements per block cost more in per-call overhead than they save.
_BATCH_BLOCK = 32768


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


def _plan(alpha: float, beta: float, gamma: float, y: float, negative: bool, max_terms: int):
    """Single-series form of phi1 for the ``x`` of one sign.

    Returns ``(a, inner, log_pref, tilt)`` such that, for every ``x`` with
    ``(x < 0) == negative`` (``x = 0`` fits both forms),

        phi1(alpha, beta; gamma; x, y)
            = exp(log_pref + tilt x) sum_n (a)_n/(gamma)_n |x|^n/n! inner(n).

    y < 0 is flipped once, into [0, 1), via
        phi1(alpha,beta;gamma;x,y) = e^x (1-y)^(-beta)
            phi1(gamma-alpha, beta; gamma; -x, y/(y-1)),
    after which the series runs in x' = -x.  With 0 <= y < 1, x' >= 0 sums
        (alpha)_n/(gamma)_n x'^n/n! 2F1(beta, alpha+n; gamma+n; y),
    and x' < 0 sums
        e^(x') (gamma-alpha)_n/(gamma)_n (-x')^n/n! 2F1(beta, alpha; gamma+n; y),
    whose terms carry no sign changes from x, avoiding cancellation.
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

    def inner(n: int) -> float:
        if y == 0.0:
            return 1.0
        return _hyp2f1_series(beta, alpha + shift * n, gamma + n, y, max_terms)[0]

    return a, inner, log_pref, tilt


def _phi1_core(args: Phi1Args) -> tuple[float, float, int]:
    """Scalar phi1 engine returning ``(log|value|, sign, outer_terms)``.

    Sums the series :func:`_plan` picks for the sign of ``x``.  Partial sums
    are rescaled by powers of two so series comparable to exp(|x|) never
    overflow; the log of the accumulated scale is folded into the returned
    log value.
    """
    gamma, x, y, rel_tol = args.gamma, args.x, args.y, DEFAULT_REL_TOL
    xabs = abs(x)
    max_terms = _check_y(y, xabs)
    a, inner, log_pref, tilt = _plan(args.alpha, args.beta, gamma, y, x < 0.0, max_terms)
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
    log_abs = math.log(abs(total)) + off + log_pref + tilt * x
    return log_abs, math.copysign(1.0, total), n


def phi1(args: Phi1Args) -> SeriesResult:
    """Evaluate phi1 at ``args`` on the linear scale.

    The value can legitimately overflow to ``inf`` for large positive ``x``
    (the function grows like ``e^x``); callers needing ratios of large values
    should use :func:`log_phi1` instead.
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


def _batch_sum(
    x: np.ndarray, a_param: float, gamma: float, inner, max_terms: int
) -> np.ndarray:
    """log of sum_n (a_param)_n/(gamma)_n x^n/n! inner(n) over an array x >= 0.

    The series needs more terms the larger x is, so x is sorted once and
    summed in blocks of ``_BATCH_BLOCK`` neighbours, each stopping when its
    own largest relative term stays below ``DEFAULT_REL_TOL`` on 3 checks, 8
    terms apart; a block that needs more than ``max_terms`` raises
    ConvergenceError.  Blocks of small x thus leave after tens of terms
    instead of running as long as the largest x, and each block's working
    arrays stay in cache.  The term ratios q(n)/(q(n-1) n), with q(n) =
    (a_param)_n / (gamma)_n inner(n), are built on first use and shared by
    every block, so each inner(n) is evaluated once per call.  All series
    terms are nonnegative, so the streaming rescaled accumulation is stable.
    The logs are scattered back to the order of ``x``.
    """
    q0 = inner(0)
    if q0 <= 0.0:
        raise DomainError("phi1 batch requires positive series coefficients")
    q_prev = q0
    poch_ratio = 1.0
    ratios = [0.0]  # ratios[n] = q(n) / (q(n-1) n); index 0 is unused
    order = np.argsort(x)
    x_sorted = x[order]
    out = np.empty(x.shape, dtype=float)
    for start in range(0, x.size, _BATCH_BLOCK):
        xb = x_sorted[start:start + _BATCH_BLOCK]
        total = np.full(xb.shape, q0)
        term = total.copy()
        off = np.zeros_like(total)
        scratch = np.empty_like(total)
        streak = 0
        rescaled = False
        n = 0
        while n < max_terms:
            n += 1
            if n == len(ratios):
                poch_ratio *= (a_param + n - 1.0) / (gamma + n - 1.0)
                q = poch_ratio * inner(n)
                ratios.append(q / (q_prev * n))
                q_prev = q
            np.multiply(xb, ratios[n], out=scratch)
            term *= scratch
            total += term
            # per-step growth can exceed 1e6 when x is huge, so rescale checks
            # cannot be amortized the way the convergence checks are; every
            # term grows with x, so until the block first rescales its largest
            # partial sum is its last
            if float(total.max() if rescaled else total[-1]) > _SCALE_HI:
                rescaled = True
                big = total > _SCALE_HI
                total[big] /= _RESCALE
                term[big] /= _RESCALE
                off[big] += _LOG_RESCALE
            if n % 8 == 0:
                # terms are nonnegative, so term / total is the relative term
                worst = float(np.divide(term, total, out=scratch).max())
                if worst <= DEFAULT_REL_TOL:
                    streak += 1
                    if streak >= 3:
                        break
                else:
                    streak = 0
        else:
            raise ConvergenceError("phi1 batch series did not converge", terms_used=n)
        if not np.all(total > 0.0):
            raise DomainError("phi1 batch accumulated a non-positive partial sum")
        np.log(total, out=total)
        total += off
        out[order[start:start + _BATCH_BLOCK]] = total
    return out


def log_phi1_batch(
    alpha: float, beta: float, gamma: float, x: np.ndarray, y: float
) -> np.ndarray:
    """Vectorized :func:`log_phi1` over an array of ``x`` values.

    ``alpha``, ``beta``, ``gamma`` and ``y`` are fixed across the batch, the
    situation that arises when a Monte Carlo risk loop evaluates posterior
    moments at many data draws.  Negative and nonnegative ``x`` entries are
    each summed with the series :func:`_plan` picks for their sign (the same
    ones ``phi1`` uses), with only positive terms, so the results match the
    scalar path to near machine precision for any magnitude of ``x``.
    Requires ``gamma > alpha`` when negative ``x`` are present (always true
    for the posterior patterns, where gamma - alpha is the posterior shape
    a').
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf and 0.0 < gamma < math.inf):
        raise DomainError("log_phi1_batch requires positive finite alpha, beta, gamma")
    x = np.asarray(x, dtype=float)
    xabs = float(max(x.max(initial=0.0), -x.min(initial=0.0)))  # no |x| array
    if not (math.isfinite(xabs) and math.isfinite(y)):
        raise DomainError("x and y must be finite")
    max_terms = _check_y(y, xabs)
    out = np.empty(x.shape, dtype=float)
    nonneg = x >= 0.0
    for negative, mask in ((False, nonneg), (True, ~nonneg)):
        if not mask.any():
            continue
        if negative and gamma <= alpha:
            raise DomainError("log_phi1_batch with negative x requires gamma > alpha")
        a, inner, log_pref, tilt = _plan(alpha, beta, gamma, y, negative, max_terms)
        xs = x[mask]
        if negative:
            np.negative(xs, out=xs)
        logs = _batch_sum(xs, a, gamma, inner, max_terms)
        logs += log_pref
        if tilt:
            # xs is free again: reuse it for tilt * x = -tilt * |x|
            logs += np.multiply(xs, -tilt, out=xs)
        out[mask] = logs
    return out
