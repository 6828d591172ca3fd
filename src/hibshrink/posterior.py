"""Exact posterior quantities for the global-scale family under normal data.

For y_i ~ N(beta_i, sigma2) with beta_i | kappa ~ N(0, sigma2 (1-kappa)/kappa),
the shrinkage weight kappa is conjugate in the sense that its posterior stays
inside the same family: only the first power parameter and the exponential
tilt move, via a_post = a + p/2 and s_post = s + Z/(2 sigma2) with Z = sum
y_i^2.  Every posterior functional below reduces to ratios of the family's
normalizing constant, hence to ratios of the two-variable confluent series,
which are evaluated as differences of logs so that correlated truncation
error cancels.  Such a ratio keeps the rounding of logs near s', about
one ulp of s'.  The batch E(kappa) at tau2 = 1 with s >= 0 avoids it:
Kummer's contiguous relation gives it as a'/(c + s'(1 - rho)) from the
ratio rho of the rows at c+1 and c+2, whose rounding enters only through
s' rho, which tends to a'+1 as s' grows (see ``kappa_moment12_batch``).
The marginal likelihood is (2 pi sigma2)^(-p/2) times the kernel moment
m_p(Z/sigma2), the normalizer ratio C(a', s')/C(a, s).  The prior's half
of that ratio is ``prior.log_normalizer``; this module sums only tilted
series.

sigma2 is treated as fixed throughout; callers may plug in an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .prior import HIBParams, _log_normalizer_from_series, log_normalizer
from .specfun import log_phi1, log_phi1_batch, pochhammer

__all__ = [
    "PosteriorState",
    "ShrinkageFit",
    "update",
    "prior_state",
    "kappa_moment",
    "kappa_moment12_batch",
    "shrink",
    "marginal_log_likelihood",
    "mgf_kappa",
    "m_kernel",
    "log_m_kernel",
]


@dataclass(frozen=True)
class PosteriorState:
    """Posterior of the shrinkage weight after observing p squared values.

    a_post and s_post are exact arithmetic images of the prior parameters;
    b and tau2 never move.  p = 0 with Z = 0 denotes the prior itself.
    """

    prior: HIBParams
    a_post: float
    s_post: float
    p: int
    Z: float
    sigma2: float


@dataclass(frozen=True)
class ShrinkageFit:
    """Posterior-mean fit of a mean vector under one family member."""

    post_mean: np.ndarray
    post_var_scalar: float
    kappa_bar: float
    log_marginal: float


def _check_data(p: int, Z: float, sigma2: float) -> None:
    # a bool is an int, and would pass for p = 1
    if not (isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p!r}")
    if not (math.isfinite(Z) and Z >= 0.0):
        raise DomainError(f"Z must be nonnegative and finite, got {Z}")
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")
    # as floats, so a numpy scalar overflows to inf without a warning
    if not math.isfinite(float(Z) / float(sigma2)):
        raise DomainError(f"the tilt Z/sigma2 must be finite, got Z = {Z}, sigma2 = {sigma2}")


def _as_data_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise DomainError("y must be a 1-D vector of length >= 1")
    if np.any(~np.isfinite(y)):
        raise DomainError("y must be finite")
    return y


def update(prior: HIBParams, p: int, Z: float, sigma2: float = 1.0) -> PosteriorState:
    """Condition on p observations with squared norm Z at noise level sigma2."""
    _check_data(p, Z, sigma2)
    return PosteriorState(
        prior=prior,
        a_post=prior.a + 0.5 * p,
        s_post=prior.s + 0.5 * Z / sigma2,
        p=int(p),
        Z=float(Z),
        sigma2=float(sigma2),
    )


def prior_state(prior: HIBParams) -> PosteriorState:
    """The no-data state, so prior moments use the posterior machinery."""
    return PosteriorState(
        prior=prior, a_post=prior.a, s_post=prior.s, p=0, Z=0.0, sigma2=1.0
    )


def kappa_moment(state: PosteriorState, n: int) -> float:
    """n-th posterior moment of the shrinkage weight, in [0, 1].

    E(kappa^n | y) = [(a')_n / (a'+b)_n] * phi1(b,1; a'+b+n; s', y)
                                         / phi1(b,1; a'+b; s', y).
    """
    # a bool is an int, and would pass for n = 1
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0):
        raise DomainError(f"moment order must be a nonnegative integer, got {n!r}")
    if n == 0:
        return 1.0
    pr = state.prior
    c = state.a_post + pr.b
    log_num = log_phi1(pr.b, 1.0, c + n, state.s_post, pr.y)
    log_den = log_phi1(pr.b, 1.0, c, state.s_post, pr.y)
    return _moment_from_logs(state, int(n), log_num, log_den)


def _moment_from_logs(state: PosteriorState, n: int, log_num: float, log_den: float) -> float:
    """E(kappa^n | y) from the log series at a'+b+n (num) and a'+b (den)."""
    c = state.a_post + state.prior.b
    ratio = pochhammer(state.a_post, n) / pochhammer(c, n)
    return ratio * math.exp(log_num - log_den)


def kappa_moment12_batch(
    prior: HIBParams,
    p: int,
    z_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First and second posterior kappa moments over many Z values at once.

    Used by the risk Monte Carlo, where hundreds of thousands of Z draws
    share (prior, p) and differ only in the series tilt argument.  With
    c = a'+b and M(g) the series at g, E(kappa) = a'/c M(c+1)/M(c) and
    E(kappa^2) = rho E(kappa), where rho = (a'+1)/(c+1) M(c+2)/M(c+1).

    At tau2 = 1 the series is Kummer's 1F1(b; g; s'), whose contiguous
    relation (DLMF 13.3.2), (g+1) g M(g) = (g+1)(g+s') M(g+1)
    - s'(g+1-b) M(g+2), gives E(kappa) = a'/(c + s'(1 - rho)) at g = c.
    With s >= 0 every s' >= 0, and tilting only lowers rho below its
    untilted (a'+1)/(c+1), so 1 - rho >= b/(c+1) and the denominator is a
    sum of positive terms.  One ``log_phi1_batch`` call then sums the rows
    at c+1 and c+2 alone.  Any other prior (tau2 != 1, or s < 0, where
    1 - rho cancels as s' falls) sums the rows at c, c+1 and c+2 and takes
    both moments as ratios to the row at c.  Either way the moments are
    formed in place in the last two rows, which are returned.
    """
    z = np.asarray(z_values, dtype=float)
    if z.ndim != 1:
        raise DomainError("z_values must be a 1-D array")
    # two reductions, no masks; a NaN fails both comparisons
    if not (z.min(initial=0.0) >= 0.0 and math.isfinite(z.max(initial=0.0))):
        raise DomainError("z_values: every Z must be nonnegative and finite")
    _check_data(p, 0.0, 1.0)
    a_post = prior.a + 0.5 * p
    c = a_post + prior.b
    s_post = prior.s + 0.5 * z
    if prior.y == 0.0 and prior.s >= 0.0:
        g1, g2 = log_phi1_batch(prior.b, 1.0, (c + 1.0, c + 2.0), s_post, 0.0)
        g2 -= g1
        np.exp(g2, out=g2)
        g2 *= (a_post + 1.0) / (c + 1.0)
        np.subtract(1.0, g2, out=g1)
        g1 *= s_post
        g1 += c
        np.divide(a_post, g1, out=g1)
        g2 *= g1
        return g1, g2
    logs = log_phi1_batch(prior.b, 1.0, (c, c + 1.0, c + 2.0), s_post, prior.y)
    log_den, g1, g2 = logs
    g1 -= log_den
    g2 -= log_den
    np.exp(g1, out=g1)
    np.exp(g2, out=g2)
    g1 *= a_post / c
    g2 *= a_post * (a_post + 1.0) / (c * (c + 1.0))
    return g1, g2


def marginal_log_likelihood(y: np.ndarray, sigma2: float, prior: HIBParams) -> float:
    """Log of p(y) with the mean vector and shrinkage weight integrated out.

    Equals the Gaussian base measure (2 pi sigma2)^(-p/2) times the kernel
    moment m_p(Z/sigma2), since y | kappa ~ N(0, (sigma2/kappa) I).
    """
    y = _as_data_vector(y)
    p, Z = y.size, float(y @ y)
    _check_data(p, Z, sigma2)
    return -0.5 * p * math.log(2.0 * math.pi * sigma2) + log_m_kernel(prior, p, Z / sigma2)


def shrink(y: np.ndarray, sigma2: float, prior: HIBParams) -> ShrinkageFit:
    """Posterior-mean estimate of the mean vector with its shrinkage weight.

    Three series evaluations: the posterior denominator at a'+b is shared by
    E(kappa | y) and the kernel moment of the marginal likelihood, whose
    prior half is ``log_normalizer``, the prior's own series.
    """
    y = _as_data_vector(y)
    state = update(prior, y.size, float(y @ y), sigma2)
    pr = prior
    c = state.a_post + pr.b
    log_num = log_phi1(pr.b, 1.0, c + 1, state.s_post, pr.y)
    log_den = log_phi1(pr.b, 1.0, c, state.s_post, pr.y)
    kappa_bar = _moment_from_logs(state, 1, log_num, log_den)
    return ShrinkageFit(
        post_mean=(1.0 - kappa_bar) * y,
        post_var_scalar=(1.0 - kappa_bar) * sigma2,
        kappa_bar=kappa_bar,
        log_marginal=-0.5 * state.p * math.log(2.0 * math.pi * sigma2)
        + _log_m_from_series(pr, state.a_post, state.s_post, log_den),
    )


def mgf_kappa(state: PosteriorState, t: float) -> float:
    """Moment generating function E(e^{t kappa} | y), always positive.

    Tilting by t shifts the series argument: M(t) = e^t phi1(..., s'-t, y)
    / phi1(..., s', y).
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    pr = state.prior
    c = state.a_post + pr.b
    log_num = log_phi1(pr.b, 1.0, c, state.s_post - t, pr.y)
    log_den = log_phi1(pr.b, 1.0, c, state.s_post, pr.y)
    return math.exp(t + log_num - log_den)


def log_m_kernel(prior: HIBParams, p_eff: int, Z: float) -> float:
    """Log of the kernel moment integral(kappa^{p_eff/2} e^{-Z kappa/2} dP).

    Computed as a log-normalizer difference: the integrand is, up to the
    prior normalizer, the unnormalized weight density with parameters
    (a + p_eff/2, b, tau2, s + Z/2).
    """
    # a bool is an int, and would pass for p_eff = 1
    if not (isinstance(p_eff, (int, np.integer)) and not isinstance(p_eff, bool) and p_eff >= 0):
        raise DomainError(f"p_eff must be a nonnegative integer, got {p_eff!r}")
    if not (math.isfinite(Z) and Z >= 0.0):
        raise DomainError(f"Z must be nonnegative and finite, got {Z}")
    a_tilted = prior.a + 0.5 * p_eff
    s_tilted = prior.s + 0.5 * Z
    log_tilted = log_phi1(prior.b, 1.0, a_tilted + prior.b, s_tilted, prior.y)
    return _log_m_from_series(prior, a_tilted, s_tilted, log_tilted)


def _log_m_from_series(
    prior: HIBParams, a_tilted: float, s_tilted: float, log_tilted: float
) -> float:
    """log C(a_tilted, b, tau2, s_tilted) - log C(prior), from the tilted series log."""
    log_c_tilted = _log_normalizer_from_series(a_tilted, prior.b, s_tilted, log_tilted)
    return log_c_tilted - log_normalizer(prior)


def m_kernel(prior: HIBParams, p_eff: int, Z: float) -> float:
    """Kernel moment m_{p_eff}(Z), a positive real."""
    return math.exp(log_m_kernel(prior, p_eff, Z))
