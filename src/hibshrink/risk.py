"""Frequentist quadratic risk of the family's posterior-mean estimators.

The risk of the posterior mean depends on beta only through its norm, and
reduces to p + 2 E_Z[r(Z)] where Z is noncentral chi-square with p degrees
of freedom and noncentrality |beta|^2, and r(Z) is an expression in the
first two posterior moments of the shrinkage weight, one batch series call
for any number of Z.  E_Z is taken by Monte Carlo by default (honest error
bars at any p), or by a fixed 128-node Gauss-Legendre rule in sqrt(Z), a
cheap deterministic reference for the Monte Carlo curves.  James-Stein,
positive part, and maximum-likelihood comparators are included, plus an
exact Poisson-mixture series for the James-Stein risk.

Risk-curve grid points are independent; they are evaluated on a thread
pool with one dedicated counter-based RNG stream per (estimator, point).
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, NumericalWarning, check_count, check_real,
                     check_reals)
from .posterior import kappa_moment12_batch
from .prior import HIBParams, Points
from .quadrature import integrate_unit  # noqa: F401  uncalled; bench/tracer.py hooks this name
from .specfun import _MAX_TERMS_CEILING
from .streams import check_seed, stream, worker_count

__all__ = [
    "RiskCurveSpec",
    "RiskPoint",
    "COMPARATOR_TAGS",
    "sample_z",
    "sure_integrand",
    "risk_analytic",
    "simulate_estimator_risk",
    "js_risk",
    "js_estimate",
    "js_plus_estimate",
    "mle_estimate",
    "risk_curve",
]

COMPARATOR_TAGS = ("js", "js_plus", "mle")
_BAYES_TAG = "bayes"


@dataclass(frozen=True)
class RiskCurveSpec:
    """One risk-curve run: a norm grid, a prior, and requested comparators."""

    p: int
    beta_norms: tuple[float, ...]
    n_mc: int
    seed: int
    prior: HIBParams
    comparators: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # the counts are stored as ints, the norms as floats and the comparators
        # as a frozenset, so a numpy input leaves no numpy scalar and the spec hashes
        object.__setattr__(self, "p", check_count("p", self.p, 3))
        if len(self.beta_norms) == 0:
            raise DomainError("beta_norms grid must be nonempty")
        grid = tuple(check_real("beta_norms", v, "nonnegative") for v in self.beta_norms)
        if list(grid) != sorted(grid):
            raise DomainError("beta_norms must be ascending")
        object.__setattr__(self, "beta_norms", grid)
        object.__setattr__(self, "n_mc", _check_draws(self.n_mc, self.seed))
        object.__setattr__(self, "seed", check_seed(self.seed))
        tags = self.comparators  # a str is refused, not read as the set of its letters
        if isinstance(tags, str) or not set(tags) <= set(COMPARATOR_TAGS):
            raise DomainError(f"comparators must be a set of {COMPARATOR_TAGS}, got {tags!r}")
        object.__setattr__(self, "comparators", frozenset(tags))


@dataclass(frozen=True)
class RiskPoint:
    """Estimated mean squared error at one grid norm for one estimator."""

    beta_norm: float
    mse: float
    mc_std_err: float
    estimator_tag: str


def _check_draws(n_mc: int, seed: int) -> int:
    """``n_mc`` as an ``int``, once it and the RNG seed pass every simulated risk's checks."""
    n_mc = check_count("n_mc", n_mc, 2)
    check_seed(seed)
    return n_mc


def _check_point(p: int, beta_norm: float, minimum: int = 2) -> tuple[int, float]:
    """``(p, beta_norm)`` as an ``int`` (at least ``minimum``) and a nonnegative
    ``float``, by the count and real rules of ``errors``."""
    return check_count("p", p, minimum), check_real("beta_norm", beta_norm, "nonnegative")


def _check_square(beta_norm: float) -> None:
    """Refuse a norm at which 4 |beta|^2 overflows: the Gauss window's 8 theta
    is the largest multiple of |beta|^2 that any risk route forms."""
    # a float product overflows to inf; ** would raise
    if not math.isfinite(4.0 * beta_norm * beta_norm):
        raise DomainError(f"beta_norm = {beta_norm:g} is too large: 4 beta_norm^2 overflows")


def _draw_z(beta_norm: float, p: int, rng: np.random.Generator, size: int):
    """Draws ``(y_1, Z, V)`` of y ~ N(beta, I_p), beta on the first axis
    without loss of generality.

    y_1 ~ N(|beta|, 1) is the first coordinate, V ~ chi-square(p-1) the
    squared norm of the others, and Z = y_1^2 + V.  A norm that
    ``_check_square`` refuses raises before any draw.
    """
    _check_square(beta_norm)
    y1 = rng.normal(loc=beta_norm, scale=1.0, size=size)
    v = rng.chisquare(p - 1, size=size)
    return y1, y1 * y1 + v, v


def _squared_errors(keep: np.ndarray, shrunk: np.ndarray, y1: np.ndarray, v: np.ndarray,
                    beta_norm: float) -> np.ndarray:
    """|keep y - beta|^2 at each draw ``(y_1, V)`` of ``_draw_z``, shrunk = 1 - keep.

    With e = y_1 - |beta|, exact wherever y_1 is within a factor 2 of
    |beta|, keep y - beta has first coordinate keep e - shrunk |beta| and
    squared norm keep^2 V in the others, so no terms of size |beta|^2
    cancel, as they do in keep^2 Z - 2 keep |beta| y_1 + |beta|^2.  Works
    in place: y1, which is returned, keep and shrunk are overwritten.
    """
    e = y1
    e -= beta_norm
    shrunk *= beta_norm
    e *= keep
    e -= shrunk
    e *= e
    keep *= keep
    keep *= v
    e += keep
    return e


def sample_z(beta_norm: float, p: int, rng: np.random.Generator) -> float:
    """One draw of the squared data norm given the mean norm."""
    p, beta_norm = _check_point(p, beta_norm)
    return float(_draw_z(beta_norm, p, rng, 1)[1][0])


def sure_integrand(prior: HIBParams, p: int, Z: Points) -> Points:
    """Inner risk expression r(Z), so that risk = p + 2 E_Z[r(Z)].

    Uses r = Z E(kappa^2|Z) - p g - (Z/2) g^2 with g = E(kappa|Z), both
    moments from one batch call; Z is a float (giving a float) or a 1-D array.
    r is formed in place in the moments' own rows, with the operations of
    ``z * g2 - p * g1 - 0.5 * z * g1 * g1`` in its order and one temporary.
    """
    p = check_count("p", p, 2)
    z = check_reals("Z: every Z", Z, "nonnegative")
    zs = np.atleast_1d(z)
    g1, g2 = kappa_moment12_batch(prior, p, zs)
    half = np.multiply(0.5, zs)
    half *= g1
    half *= g1
    g2 *= zs
    g1 *= p
    g2 -= g1
    g2 -= half
    return float(g2[0]) if z.ndim == 0 else g2


def _point(tag: str, beta_norm: float, losses: np.ndarray) -> RiskPoint:
    mse = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / math.sqrt(losses.size))
    return RiskPoint(beta_norm=beta_norm, mse=mse, mc_std_err=se, estimator_tag=tag)


def risk_analytic(
    prior: HIBParams,
    p: int,
    beta_norm: float,
    n_mc: int = 200_000,
    seed: int = 0,
    method: str = "mc",
) -> RiskPoint:
    """Risk of the posterior mean via the moment identity.

    method="mc" averages the inner expression over Monte Carlo draws of Z
    and reports the standard error of the resulting mse estimate, which is
    twice that of the mean inner expression.  The draws are sorted first,
    so that the batch series reads them in place; that changes no r(Z), and
    the mean and standard error are summed over ascending Z, which differs
    from summing in draw order by rounding alone.  method="quadrature"
    integrates it against the noncentral chi-square density instead, by a
    fixed 128-node Gauss-Legendre rule in sqrt(Z), and reports zero
    standard error.
    """
    p, beta_norm = _check_point(p, beta_norm)
    n_mc = _check_draws(n_mc, seed)
    if method == "quadrature":
        mse, se = p + 2.0 * _expect_integrand_quadrature(prior, p, beta_norm), 0.0
    elif method == "mc":
        rng = stream(seed, "risk-analytic", str(p), f"{beta_norm:.17g}")
        z = _draw_z(beta_norm, p, rng, n_mc)[1]
        z.sort()  # log_phi1_batch reads an ascending Z in place
        inner = sure_integrand(prior, p, z)
        mse = p + 2.0 * float(np.mean(inner))
        se = 2.0 * float(np.std(inner, ddof=1) / math.sqrt(n_mc))
    else:
        raise DomainError(f"method must be 'mc' or 'quadrature', got {method!r}")
    return RiskPoint(beta_norm=beta_norm, mse=mse, mc_std_err=se, estimator_tag=_BAYES_TAG)


def _poisson_log_weights(theta: float) -> tuple[int, np.ndarray]:
    """Log Poisson(theta) masses over a 12-sigma window around the mean.

    Returns ``(lo, logs)``, a float64 array with ``logs[j]`` the log mass at
    k = lo + j, each term by one Python formula; the window reaches far past
    any 1e-12 tail mass.  theta = 0 is the point mass at k = 0.  A window of
    more than 2^22 terms, the ceiling of the phi1 series (about theta > 3e10),
    raises ConvergenceError before it is built.
    """
    if theta == 0.0:
        return 0, np.zeros(1)
    sd = math.sqrt(theta)
    # about 24 sd + 51 terms before the clip at 0, counted so rather than as
    # hi - lo, which rounds to 0 once theta's ulp dwarfs sd; compared as a
    # float, so an inf or NaN theta fails here too
    if not 24.0 * sd + 51.0 <= _MAX_TERMS_CEILING:
        raise ConvergenceError(
            f"the Poisson window at theta = {theta:g} needs more than "
            f"{_MAX_TERMS_CEILING} terms",
            terms_used=0,
        )
    lo = max(0, int(theta - 12.0 * sd - 20.0))
    hi = int(theta + 12.0 * sd + 30.0)
    log_theta = math.log(theta)
    logs = (k * log_theta - theta - math.lgamma(k + 1.0) for k in range(lo, hi + 1))
    return lo, np.fromiter(logs, dtype=float, count=hi + 1 - lo)


def _noncentral_chi2_log_density(p: int, theta: float, z: np.ndarray) -> np.ndarray:
    """log density of Z ~ noncentral chi-square_p(2 theta) at every z of a 1-D array.

    Z is a Poisson(theta) mixture of central chi-square_(p+2k) laws.  The
    z-free parts of the mixture terms are built once, each log term adds
    the two terms in z in the order of ``oracles._noncentral_chi2_logpdf``,
    and one log-sum-exp over the (z, k) grid gives every log density; z <= 0
    gives -inf.
    """
    lo, log_weights = _poisson_log_weights(theta)
    half = 0.5 * p + np.arange(lo, lo + len(log_weights))
    log_gamma = np.array([math.lgamma(h) for h in half.tolist()])
    out = np.full(z.shape, -math.inf)
    inside = z > 0.0
    zs = z[inside]
    # math.log, not np.log: an ulp of log z here is multiplied by p/2 + k
    log_z = np.array([math.log(v) for v in zs.tolist()])[:, None]
    logs = (
        log_weights + (half - 1.0) * log_z - (0.5 * zs)[:, None]
        - half * math.log(2.0) - log_gamma
    )
    best = logs.max(axis=1, keepdims=True)
    logs -= best
    np.exp(logs, out=logs)
    out[inside] = best[:, 0] + np.log(logs.sum(axis=1))
    return out


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """128 Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(128)


def _expect_integrand_quadrature(prior: HIBParams, p: int, beta_norm: float) -> float:
    """E_Z[r(Z)] by the Gauss-Legendre rule in t = sqrt(Z), dZ = 2t dt, over
    a 12-sigma window of Z widened by 30; the density ~ t^(p-1) is smooth in t."""
    _check_square(beta_norm)
    theta = 0.5 * beta_norm * beta_norm
    mean = p + 2.0 * theta
    margin = 12.0 * math.sqrt(2.0 * p + 8.0 * theta) + 30.0
    lo, hi = math.sqrt(max(0.0, mean - margin)), math.sqrt(mean + margin)
    nodes, weights = _legendre_rule()
    t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    z = t * t
    # r first: a Z the series cannot sum fails before the (z, k) density grid exists
    r = sure_integrand(prior, p, z)
    density = np.exp(_noncentral_chi2_log_density(p, theta, z))
    return (hi - lo) * float(np.sum(weights * t * density * r))


def _shrink_factor(tag: str, z: Points, p: int) -> np.ndarray:
    """Multiplier applied to y by each comparator estimator, a new array."""
    if tag == "mle":
        return np.ones_like(z)
    factor = np.empty_like(z)  # 0-d for a float z, so each step works in place
    with np.errstate(divide="ignore"):
        np.divide(p - 2.0, z, out=factor)
    np.subtract(1.0, factor, out=factor)
    factor[z == 0.0] = 0.0
    if tag == "js":
        return factor
    if tag == "js_plus":
        return np.maximum(factor, 0.0, out=factor)
    raise DomainError(f"unknown estimator tag {tag!r}")


def simulate_estimator_risk(
    tag: str,
    p: int,
    beta_norm: float,
    n_mc: int = 200_000,
    seed: int = 0,
) -> RiskPoint:
    """Direct Monte Carlo risk of a comparator estimator; the loss of each
    draw is formed without cancellation, so it stays accurate at any norm."""
    if tag not in COMPARATOR_TAGS:
        raise DomainError(f"tag must be one of {COMPARATOR_TAGS}, got {tag!r}")
    p, beta_norm = _check_point(p, beta_norm)
    if tag != "mle" and p < 3:
        raise DomainError("James-Stein comparators require p >= 3")
    n_mc = _check_draws(n_mc, seed)
    rng = stream(seed, "risk-sim", tag, str(p), f"{beta_norm:.17g}")
    y1, z, v = _draw_z(beta_norm, p, rng, n_mc)
    factor = _shrink_factor(tag, z, p)
    shrunk = np.subtract(1.0, factor, out=z)  # Z is spent
    losses = _squared_errors(factor, shrunk, y1, v, beta_norm)
    del factor, shrunk, v
    return _point(tag, beta_norm, losses)


def js_risk(p: int, beta_norm: float) -> float:
    """Exact James-Stein risk p - (p-2)^2 E[1/(p-2+2K)], K Poisson.

    The Poisson mean is |beta|^2/2; the sum runs over a 12-sigma window
    around it, far past any 1e-12 tail mass.
    """
    p, beta_norm = _check_point(p, beta_norm, 3)
    theta = 0.5 * beta_norm * beta_norm
    if theta == 0.0:
        return p - (p - 2.0)
    # accumulate E[1/(p-2+2K)] in a numerically flat window around the mode;
    # the builtin sum runs in k order over Python floats read one at a time
    # from the window's memoryview, so no list of the window is built
    lo, log_weights = _poisson_log_weights(theta)
    peak = float(log_weights.max())
    logs = log_weights.data
    total = sum(math.exp(lw - peak) * (1.0 / (p - 2.0 + 2.0 * k)) for k, lw in enumerate(logs, lo))
    expectation = total / sum(math.exp(lw - peak) for lw in logs)
    return p - (p - 2.0) ** 2 * expectation


def _scaled(tag: str, y: np.ndarray) -> np.ndarray:
    """y times the comparator's shrink factor at its own squared norm."""
    y = check_reals("y", y)
    if tag != "mle" and (y.ndim != 1 or y.size < 3):
        raise DomainError("James-Stein estimators require a vector of length >= 3")
    z = float(np.vdot(y, y))
    if z == 0.0 and tag != "mle":
        if tag == "js":
            warnings.warn("James-Stein estimator undefined at zero data norm; returning "
                          "the zero vector", NumericalWarning, stacklevel=3)
        return np.zeros_like(y)
    return _shrink_factor(tag, z, y.size) * y


def js_estimate(y: np.ndarray) -> np.ndarray:
    """James-Stein estimate (1 - (p-2)/|y|^2) y; zero vector (with a
    warning) when the data norm vanishes."""
    return _scaled("js", y)


def js_plus_estimate(y: np.ndarray) -> np.ndarray:
    """Positive-part James-Stein estimate: the shrink factor clamped at 0."""
    return _scaled("js_plus", y)


def mle_estimate(y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood estimate: the data itself, as a new array."""
    return _scaled("mle", y)


def risk_curve(spec: RiskCurveSpec) -> list[RiskPoint]:
    """Risk of the posterior mean (and requested comparators) on a norm grid.

    Points are computed concurrently, each from its own named RNG stream,
    so the output is deterministic in the spec regardless of scheduling.
    Rows are ordered estimator-major ("bayes", then js, js_plus, mle as
    requested), grid-minor.  James-Stein and maximum-likelihood rows are
    exact (zero standard error); positive-part rows are simulated.
    """
    tags = [_BAYES_TAG] + [t for t in COMPARATOR_TAGS if t in spec.comparators]
    tasks: list[tuple[str, float]] = [(t, b) for t in tags for b in spec.beta_norms]

    def solve(task: tuple[str, float]) -> RiskPoint:
        tag, beta_norm = task
        if tag == _BAYES_TAG:
            return risk_analytic(spec.prior, spec.p, beta_norm, spec.n_mc, spec.seed)
        if tag == "js":
            return RiskPoint(beta_norm, js_risk(spec.p, beta_norm), 0.0, "js")
        if tag == "mle":
            return RiskPoint(beta_norm, float(spec.p), 0.0, "mle")
        return simulate_estimator_risk(tag, spec.p, beta_norm, spec.n_mc, spec.seed)

    with ThreadPoolExecutor(max_workers=min(worker_count(), len(tasks))) as pool:
        return list(pool.map(solve, tasks))
