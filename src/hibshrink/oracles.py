"""Independent references that the tests check the production code against.

The statistical modules compute everything from the single-series form of
phi1 and from the moment identity for the risk.  Each function here
recomputes one of those quantities by a route that shares no summation code
with them:

- ``phi1_double_series`` sums the defining double series of phi1 over a
  truncated rectangle;
- ``risk_direct`` simulates the data and applies the posterior mean, which
  is the definition of the risk;
- ``sure_integrand_by_parts`` evaluates the inner risk expression r(Z)
  through the integration-by-parts identity, with the posterior expectation
  of the log-density bracket taken by quadrature.

Only the ``phi1 --oracle`` command and the tests import this module.  The
quadrature moment oracle ``oracle_hib_moment`` lives with the integrator in
:mod:`hibshrink.quadrature`.
"""

from __future__ import annotations

import functools
import math

from .errors import ConvergenceError
from .posterior import kappa_moment, kappa_moment12_batch, update
from .prior import HIBParams
from .quadrature import _posterior_kernel_integral
from .risk import RiskPoint, _BAYES_TAG, _check_draws, _check_point, _draw_z, _point
from .specfun import (
    DEFAULT_REL_TOL,
    _LOG_RESCALE,
    _RESCALE,
    _SCALE_HI,
    _SCALE_LO,
    Phi1Args,
    SeriesResult,
    _check_y,
    _linear,
)
from .streams import stream

__all__ = ["phi1_double_series", "risk_direct", "sure_integrand_by_parts"]


def _rect_sum(
    alpha: float, beta: float, gamma: float, x: float, y: float, max_terms: int, flipped: bool
) -> tuple[float, float, int]:
    """Rectangle-truncated double series; needs ``x >= 0`` and ``0 <= y < 1``.

    ``flipped=False`` sums the defining series

        sum_{m,n} (alpha)_{m+n} (beta)_n x^m y^n / ((gamma)_{m+n} m! n!),

    ``flipped=True`` sums the exponential-flip rearrangement

        sum_{m,n} (gamma-alpha)_m (alpha)_n (beta)_n x^m y^n
            / ((gamma)_{m+n} m! n!),

    which equals e^{x} phi1(alpha, beta; gamma; -x, y); the caller accounts
    for the prefactor.  Rows are indexed by the power of ``x``, and both
    directions stop after three consecutive negligible contributions.
    Returns ``(log|value|, sign, terms)``.
    """
    rel_tol = DEFAULT_REL_TOL
    row_param = gamma - alpha if flipped else alpha
    total = 0.0
    off = 0.0
    row_head = 1.0  # (row_param)_m / (gamma)_m * x^m / m!
    terms = 0
    row_streak = 0
    m = 0
    converged = False
    while m <= max_terms:
        term = row_head
        row = term
        streak = 0
        n = 0
        while n < max_terms:
            n += 1
            first = alpha + n - 1.0 if flipped else alpha + m + n - 1.0
            term *= first * (beta + n - 1.0) * y / ((gamma + m + n - 1.0) * n)
            row += term
            if abs(term) <= rel_tol * max(abs(row), abs(total)):
                streak += 1
                if streak >= 3 or term == 0.0:
                    break
            else:
                streak = 0
        terms += n + 1
        total += row
        if abs(row) <= rel_tol * abs(total):
            row_streak += 1
            if row_streak >= 3:
                converged = True
                break
        else:
            row_streak = 0
        m += 1
        row_head *= (row_param + m - 1.0) * x / ((gamma + m - 1.0) * m)
        magnitude = max(abs(total), abs(row_head))
        if magnitude > _SCALE_HI:
            total /= _RESCALE
            row_head /= _RESCALE
            off += _LOG_RESCALE
        elif 0.0 < magnitude < _SCALE_LO:
            total *= _RESCALE
            row_head *= _RESCALE
            off -= _LOG_RESCALE
        if row_head == 0.0 and converged is False and m > 3:
            converged = True  # terminating row coefficients
            break
    if not converged:
        raise ConvergenceError("phi1 double series did not converge", terms_used=terms)
    if total == 0.0:
        return -math.inf, 0.0, terms
    return math.log(abs(total)) + off, math.copysign(1.0, total), terms


def phi1_double_series(args: Phi1Args) -> SeriesResult:
    """Sum the phi1 double series directly over a truncated (m, n) rectangle.

    This is the test-oracle counterpart of :func:`phi1`: sign flips first
    move the evaluation into x >= 0, 0 <= y < 1, and the rectangle is then
    summed term by term with no single-series nesting.  Negative ``y`` is
    removed by the substitution identity (the same one :func:`phi1` applies,
    used exactly once); a remaining negative ``x`` is removed by the
    exponential-flip rearrangement, whose rectangle carries the numerator
    (gamma-alpha)_m (alpha)_n in place of (alpha)_{m+n}.  After the flips all
    terms are nonnegative whenever gamma > alpha, so the summation itself is
    cancellation-free for the parameter patterns the tests exercise.
    """
    max_terms = _check_y(args.y, abs(args.x))
    alpha, beta, gamma = args.alpha, args.beta, args.gamma
    x, y = args.x, args.y
    log_pref = 0.0
    if y < 0.0:
        log_pref += x - beta * math.log1p(-y)
        alpha = gamma - alpha
        x = -x
        y = y / (y - 1.0)
    flipped = x < 0.0
    if flipped:
        log_pref += x
        x = -x
    log_abs, sign, terms = _rect_sum(alpha, beta, gamma, x, y, max_terms, flipped)
    return _linear(log_abs + log_pref, sign, terms)


def risk_direct(
    prior: HIBParams,
    p: int,
    beta_norm: float,
    n_mc: int = 200_000,
    seed: int = 0,
) -> RiskPoint:
    """Definitional risk oracle: simulate data, apply the posterior mean.

    With beta on the first axis, the loss only needs the first coordinate
    and the squared norm: |(1-k)y - beta|^2 = (1-k)^2 Z - 2(1-k) |beta| y_1
    + |beta|^2 with k the posterior mean shrinkage weight.
    """
    _check_point(p, beta_norm)
    _check_draws(n_mc, seed)
    rng = stream(seed, "risk-direct", str(p), f"{beta_norm:.17g}")
    y1, z = _draw_z(beta_norm, p, rng, n_mc)
    g1, _ = kappa_moment12_batch(prior, p, z)
    keep = 1.0 - g1
    losses = keep * keep * z - 2.0 * keep * beta_norm * y1 + beta_norm * beta_norm
    return _point(_BAYES_TAG, beta_norm, losses)


def _log_density_derivative_bracket(prior: HIBParams, kappa: float) -> float:
    """2 kappa (1-kappa) d/dkappa log p(kappa), poles cancelled in closed form."""
    inv_tau2 = 1.0 / prior.tau2
    slope = 1.0 - inv_tau2
    return (
        2.0 * (1.0 - kappa) * (prior.a - 1.0)
        - 2.0 * kappa * (prior.b - 1.0)
        - 2.0 * kappa * (1.0 - kappa) * (prior.s + slope / (inv_tau2 + slope * kappa))
    )


def _posterior_bracket_expectation(prior: HIBParams, a_post: float, s_post: float) -> float:
    """Posterior expectation of the log-derivative bracket, by quadrature."""
    bracket = functools.partial(_log_density_derivative_bracket, prior)
    _, den = _posterior_kernel_integral(prior, a_post, s_post)
    _, num = _posterior_kernel_integral(prior, a_post, s_post, bracket)
    return num / den


def sure_integrand_by_parts(prior: HIBParams, p: int, Z: float) -> float:
    """Inner risk expression r(Z) through integration by parts.

    :func:`hibshrink.risk.sure_integrand` computes r = Z E(kappa^2|Z) - p g
    - (Z/2) g^2 with g = E(kappa|Z).  Here the Z E(kappa^2|Z) term is
    replaced by the identity (p+Z+4) g - (p+2) - E[bracket|Z], with the
    bracket expectation computed by quadrature, so the two functions are
    independent evaluations of the same quantity.
    """
    _check_point(p, 0.0)
    state = update(prior, p, Z, 1.0)
    g = kappa_moment(state, 1)
    bracket = _posterior_bracket_expectation(prior, state.a_post, state.s_post)
    lead = (p + Z + 4.0) * g - (p + 2.0) - bracket
    return lead - p * g - 0.5 * Z * g * g
