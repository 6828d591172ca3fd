"""The hypergeometric inverted-beta prior family for a global scale.

A member of the family is described by four numbers (a, b, tau2, s).  The
most convenient parameterization is the shrinkage weight kappa = 1/(1+lambda^2)
in (0, 1), where the density is

    p(kappa) = kappa^(a-1) (1-kappa)^(b-1)
               / (1/tau2 + (1 - 1/tau2) kappa) * exp(-s kappa) / C,

with normalizer C = e^(-s) Be(a, b) phi1(b, 1; a+b; s, 1 - 1/tau2).  The same
distribution expressed for lambda^2 = (1-kappa)/kappa is an inverted-beta
(beta-prime) law when tau2 = 1 and s = 0; ``a`` governs the lambda tail and
``b`` the mass near lambda = 0.  The half-Cauchy prior on lambda is the
member (a=1/2, b=1/2, tau2=1, s=0).

Also provided: the heavier-tailed scale mixture obtained by giving the
half-Cauchy's own scale another half-Cauchy prior (its closed-form density is
ln(lambda) / (lambda^2 - 1) up to normalization), and the hyperbolic secant
density that the half-Cauchy induces on psi = ln lambda^2.  Densities are
computed in log form internally; linear densities are thin wrappers.

The family densities (kappa, lambda^2, lambda, and the log forms of the
first two) take a float or a 1-D array of points and compute the
normalizer C once per call, so a grid costs one series evaluation, not one
per point.  Each point is still checked against the density's domain, and
a float returns a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import integrate_unit  # noqa: F401  uncalled; bench/tracer.py hooks this name
from .specfun import log_beta, log_phi1

__all__ = [
    "HIBParams",
    "half_cauchy",
    "log_normalizer",
    "log_density_kappa",
    "density_kappa",
    "log_density_lambda2",
    "density_lambda2",
    "density_lambda",
    "double_half_cauchy_log_density",
    "double_half_cauchy_density",
    "double_half_cauchy_kappa_kernel",
    "hyperbolic_secant_density",
]


@dataclass(frozen=True)
class HIBParams:
    """Hyperparameters of one family member.

    a: tail-weight parameter (larger a, thinner lambda tails).
    b: origin-mass parameter (smaller b, more mass near lambda = 0).
    tau2: global scale tau^2 of the underlying half-Cauchy-type scale.
    s: exponential tilt in kappa; any real number.
    """

    a: float
    b: float
    tau2: float
    s: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "tau2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.s):
            raise DomainError(f"s must be finite, got {self.s}")

    @property
    def y(self) -> float:
        """Second series argument 1 - 1/tau2 shared by all family formulas."""
        return 1.0 - 1.0 / self.tau2


def half_cauchy() -> HIBParams:
    """Member whose implied prior on lambda is standard half-Cauchy."""
    return HIBParams(a=0.5, b=0.5, tau2=1.0, s=0.0)


def log_normalizer(prior: HIBParams) -> float:
    """Natural log of the normalizing constant C of the kappa density."""
    return (
        -prior.s
        + log_beta(prior.a, prior.b)
        + log_phi1(prior.b, 1.0, prior.a + prior.b, prior.s, prior.y)
    )


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"kappa must lie strictly inside (0, 1), got {kappa}")


def _check_lambda2(lambda2: float) -> None:
    if not (math.isfinite(lambda2) and lambda2 > 0.0):
        raise DomainError(f"lambda2 must be positive and finite, got {lambda2}")


def _check_lambda(lam: float) -> None:
    if lam < 0.0 or not math.isfinite(lam):
        raise DomainError(f"lam must be nonnegative and finite, got {lam}")
    if lam > 0.0:
        # lam^2 must neither underflow to 0 nor overflow
        _check_lambda2(lam * lam)


# a density's argument and result: one float, or a 1-D array of them
Points = float | np.ndarray


def _on_points(prior: HIBParams, values: Points, check, point) -> Points:
    """Evaluate ``point(prior, v, log_c)`` at a float or along a 1-D array.

    Every point is checked before the prior's normalizer is computed, once
    for the whole call; a float returns a float and an array an ndarray.
    """
    scalar = np.ndim(values) == 0
    if scalar:
        points = [float(values)]
    else:
        array = np.asarray(values, dtype=float)
        if array.ndim != 1:
            raise DomainError(f"density grid must be 1-D, got shape {array.shape}")
        points = array.tolist()
    for v in points:
        check(v)
    log_c = log_normalizer(prior)
    if scalar:
        return point(prior, points[0], log_c)
    return np.array([point(prior, v, log_c) for v in points], dtype=float)


def _log_kappa_at(prior: HIBParams, kappa: float, log_c: float) -> float:
    inv_tau2 = 1.0 / prior.tau2
    return (
        (prior.a - 1.0) * math.log(kappa)
        + (prior.b - 1.0) * math.log1p(-kappa)
        - math.log(inv_tau2 + (1.0 - inv_tau2) * kappa)
        - prior.s * kappa
        - log_c
    )


def _kappa_at(prior: HIBParams, kappa: float, log_c: float) -> float:
    return math.exp(_log_kappa_at(prior, kappa, log_c))


def _log_lambda2_at(prior: HIBParams, lambda2: float, log_c: float) -> float:
    inv_tau2 = 1.0 / prior.tau2
    log1p_l2 = math.log1p(lambda2)
    kappa = 1.0 / (1.0 + lambda2)
    return (
        (prior.b - 1.0) * math.log(lambda2)
        - (prior.a + prior.b) * log1p_l2
        - math.log(inv_tau2 + (1.0 - inv_tau2) * kappa)
        - prior.s * kappa
        - log_c
    )


def _lambda2_at(prior: HIBParams, lambda2: float, log_c: float) -> float:
    return math.exp(_log_lambda2_at(prior, lambda2, log_c))


def _lambda_at(prior: HIBParams, lam: float, log_c: float) -> float:
    if lam == 0.0:
        # density ~ (2/C) lam^(2b-1) e^(-s) near 0
        if prior.b > 0.5:
            return 0.0
        if prior.b < 0.5:
            return math.inf
        return 2.0 * math.exp(-prior.s - log_c)
    return math.exp(_log_lambda2_at(prior, lam * lam, log_c) + math.log(2.0 * lam))


def log_density_kappa(prior: HIBParams, kappa: Points) -> Points:
    """Log of the normalized shrinkage-weight density.

    ``kappa`` is a float or a 1-D array; the normalizer is computed once
    per call, and one point outside (0, 1) raises DomainError.
    """
    return _on_points(prior, kappa, _check_kappa, _log_kappa_at)


def density_kappa(prior: HIBParams, kappa: Points) -> Points:
    """Normalized density of the shrinkage weight kappa on (0, 1).

    Takes a float or a 1-D array, like ``log_density_kappa``.
    """
    return _on_points(prior, kappa, _check_kappa, _kappa_at)


def log_density_lambda2(prior: HIBParams, lambda2: Points) -> Points:
    """Log density of lambda^2 = (1-kappa)/kappa on (0, infinity).

    Written directly in the lambda^2 variable (not by delegating to the
    kappa form) so that small and large lambda^2 keep full precision; the
    two forms agree through the Jacobian (1+lambda^2)^(-2) exactly.
    ``lambda2`` is a float or a 1-D array; the normalizer is computed once
    per call.
    """
    return _on_points(prior, lambda2, _check_lambda2, _log_lambda2_at)


def density_lambda2(prior: HIBParams, lambda2: Points) -> Points:
    """Normalized density of lambda^2 on (0, infinity), at a float or a 1-D array."""
    return _on_points(prior, lambda2, _check_lambda2, _lambda2_at)


def density_lambda(prior: HIBParams, lam: Points) -> Points:
    """Implied density of lambda itself: density_lambda2(lam^2) * 2 lam.

    Defined by continuity at lam = 0, where the limit is finite only for
    b = 1/2 (the half-Cauchy case gives 2/pi there).  ``lam`` is a float
    or a 1-D array; the normalizer is computed once per call.
    """
    return _on_points(prior, lam, _check_lambda, _lambda_at)


def _dhc_lambda_kernel(lam: float) -> float:
    """Unnormalized mixture density ln(lam)/(lam^2 - 1), with the removable
    point at lam = 1 filled in by a local expansion."""
    e = lam - 1.0
    if abs(e) < 1e-6:
        return 0.5 * (1.0 - e + (5.0 / 6.0) * e * e)
    return math.log(lam) / (lam * lam - 1.0)


def double_half_cauchy_kappa_kernel(kappa: float) -> float:
    """The same mixture expressed for the shrinkage weight (unnormalized).

    Equal to ln((1-kappa)/kappa) / (1-2 kappa) * kappa^(-1/2) (1-kappa)^(-1/2),
    symmetric about 1/2, where its removable singularity evaluates to 4.
    """
    _check_kappa(kappa)
    e = kappa - 0.5
    if abs(e) < 1e-6:
        ratio = 2.0 + (8.0 / 3.0) * e * e
    else:
        ratio = math.log1p(-kappa) - math.log(kappa)
        ratio /= 1.0 - 2.0 * kappa
    return ratio / math.sqrt(kappa * (1.0 - kappa))


# log of the kernel's integral over lam in (0, inf): pi^2 / 4, by the kappa form
_DHC_LOG_NORM = 2.0 * math.log(0.5 * math.pi)


def double_half_cauchy_log_density(lam: float) -> float:
    """Log of the normalized mixture density of lambda on (0, infinity); past
    lam ~ 1.34e154, where lam^2 overflows, the kernel is taken in log space."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    kernel = _dhc_lambda_kernel(lam)
    if kernel == 0.0:
        log_lam = math.log(lam)
        return math.log(log_lam) - 2.0 * log_lam - math.log1p(-lam**-2.0) - _DHC_LOG_NORM
    return math.log(kernel) - _DHC_LOG_NORM


def double_half_cauchy_density(lam: float) -> float:
    """Normalized mixture density of lambda on (0, infinity)."""
    return math.exp(double_half_cauchy_log_density(lam))


def hyperbolic_secant_density(psi: float) -> float:
    """Density the half-Cauchy induces on psi = ln lambda^2.

    p(psi) = (1/pi) / (e^(psi/2) + e^(-psi/2)), evaluated through the
    decaying exponential only so large |psi| cannot overflow.
    """
    if not math.isfinite(psi):
        raise DomainError(f"psi must be finite, got {psi}")
    h = 0.5 * abs(psi)
    edown = math.exp(-h)
    return edown / (math.pi * (1.0 + edown * edown))
