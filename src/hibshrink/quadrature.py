"""Adaptive quadrature over the unit interval, used as a brute-force oracle.

The statistical modules compute posterior quantities through series
representations of a special function; this module recomputes the same
quantities by direct numerical integration over the shrinkage weight
kappa in (0, 1) so the two routes can be compared in tests.  Nothing here
knows about those series: the only shared vocabulary is the integrand.

The integrands of interest behave like kappa^(a-1) (1-kappa)^(b-1) times a
smooth factor, with a or b as small as 0.3, so plain panel rules converge
hopelessly near the endpoints.  Each call splits [0, 1] at 1/2 and applies a
power substitution on each half (kappa = (1/2) t^(1/a) on the left, mirrored
on the right) that removes the endpoint singularity exactly; the transformed
integrands are then handled by adaptive bisection with a 15-point Kronrod
rule nested over 7-point Gauss, the difference of the two serving as the
panel error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import AccuracyError, DomainError

__all__ = ["QuadConfig", "QuadResult", "integrate_unit", "integrate_unit_result", "oracle_hib_moment"]

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric) with the
# embedded 7-point Gauss rule at the odd-indexed nodes.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and recursion budget for adaptive integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise DomainError("quadrature tolerances must lie in (0, 1)")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with its accumulated error bound."""

    value: float
    error_bound: float
    evaluations: int


def _g7k15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Kronrod panel: returns (estimate, |kronrod - gauss|)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    k15 = _WGK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        fs = f(center - dx) + f(center + dx)
        k15 += _WGK[i] * fs
        if i % 2 == 1:
            g7 += _WG[i // 2] * fs
    return k15 * half, abs(k15 - g7) * half


def _adaptive(
    f: Callable[[float], float], cfg: QuadConfig
) -> tuple[float, float, int, bool]:
    """Adaptively integrate f over (0, 1); returns (value, bound, evals, ok)."""
    value0, err0 = _g7k15(f, 0.0, 1.0)
    budget = max(cfg.abs_tol, cfg.rel_tol * abs(value0))
    # panels whose estimated error sits at the rounding noise of the
    # integrand evaluations (about 100 eps of the integral scale) cannot be
    # improved by splitting; accept them rather than recurse forever
    floor = 1.1e-14 * (abs(value0) + cfg.abs_tol)
    total = 0.0
    bound = 0.0
    evals = 15
    ok = True
    stack = [(0.0, 1.0, value0, err0, 0)]
    while stack:
        lo, hi, est, err, depth = stack.pop()
        if err <= budget * (hi - lo) or err <= floor:
            total += est
            bound += err
            continue
        if depth >= cfg.max_depth:
            total += est
            bound += err
            ok = False
            continue
        mid = 0.5 * (lo + hi)
        left = _g7k15(f, lo, mid)
        right = _g7k15(f, mid, hi)
        evals += 30
        stack.append((lo, mid, left[0], left[1], depth + 1))
        stack.append((mid, hi, right[0], right[1], depth + 1))
    return total, bound, evals, ok


def _half_transform(
    f: Callable[[float], float],
    exponent: float,
    mirrored: bool,
    f_complement: Callable[[float], float] | None,
) -> Callable[[float], float]:
    """Map one half of [0,1] onto the t in (0,1) integration variable.

    Left half (mirrored=False): kappa = (1/2) t^(1/exponent), which turns the
    kappa^(exponent-1) endpoint factor into a constant; exponents >= 1 keep
    the affine map.  Right half mirrors the same substitution in 1 - kappa.

    On the mirrored half the integrand is evaluated as ``f_complement(u)``
    with u = 1 - kappa known exactly, whenever the caller supplied that form.
    Going through ``f(1 - u)`` instead loses the low bits of the complement
    to rounding, and for (1-kappa)^(b-1) factors with small b that noise can
    exceed the requested tolerance.  Evaluation points whose kappa collapses
    to an exact endpoint in floating point contribute nothing and are skipped
    rather than handed to ``f``.
    """
    power = 1.0 / exponent if exponent < 1.0 else 1.0

    def g(t: float) -> float:
        u = 0.5 * t**power
        if u <= 0.0:
            return 0.0
        jac = 0.5 * power * t ** (power - 1.0) if power != 1.0 else 0.5
        if mirrored:
            if f_complement is not None:
                return f_complement(u) * jac
            kappa = 1.0 - u
            if kappa >= 1.0:
                return 0.0
            return f(kappa) * jac
        return f(u) * jac

    return g


def integrate_unit_result(
    f: Callable[[float], float],
    a_exp: float,
    b_exp: float,
    cfg: QuadConfig = QuadConfig(),
    *,
    f_complement: Callable[[float], float] | None = None,
) -> QuadResult:
    """Integrate ``f`` over (0, 1), returning the estimate and error bound.

    ``a_exp`` and ``b_exp`` declare the endpoint behavior of ``f``: it may
    blow up like ``kappa^(a_exp-1)`` at 0 and ``(1-kappa)^(b_exp-1)`` at 1.
    Both must be positive (integrable singularities); values >= 1 mean the
    corresponding endpoint is benign.

    ``f_complement``, if given, evaluates the same integrand as a function of
    the complement v = 1 - kappa.  Supplying it is strongly recommended when
    b_exp < 1: it lets the rule probe the right endpoint without the rounding
    noise of forming kappa = 1 - v and recovering v inside ``f``.
    """
    if not (a_exp > 0.0 and b_exp > 0.0):
        raise DomainError("endpoint exponents must be positive for integrability")
    value = 0.0
    bound = 0.0
    evals = 0
    ok = True
    for exponent, mirrored in ((a_exp, False), (b_exp, True)):
        g = _half_transform(f, exponent, mirrored, f_complement)
        v, e, n, good = _adaptive(g, cfg)
        value += v
        bound += e
        evals += n
        ok = ok and good
    if not ok:
        raise AccuracyError(
            "adaptive bisection exhausted max_depth before reaching tolerance",
            estimate=value,
            error_bound=bound,
        )
    return QuadResult(value=value, error_bound=bound, evaluations=evals)


def integrate_unit(
    f: Callable[[float], float],
    a_exp: float,
    b_exp: float,
    cfg: QuadConfig = QuadConfig(),
    *,
    f_complement: Callable[[float], float] | None = None,
) -> float:
    """Integral of ``f`` over (0, 1); see :func:`integrate_unit_result`."""
    return integrate_unit_result(f, a_exp, b_exp, cfg, f_complement=f_complement).value


# multiples of the kernel's width, on either side of its peak, at which the
# unit interval is cut: no piece is much wider than the kernel where the
# kernel is large, and 64 widths from the peak it has fallen below e^-59
_PEAK_CUTS = (-64.0, -16.0, -4.0, -1.0, 1.0, 4.0, 16.0, 64.0)

# narrowest piece of the unit interval: each piece is evaluated both in kappa
# and in 1 - kappa, whose float spacing is 2**-53 near either end, and a
# piece only a few spacings wide collapses onto that end
_MIN_PIECE = 2.0**-50


def _posterior_kernel_integral(
    prior,
    a_post: float,
    s_post: float,
    weight: Callable[[float], float] | None = None,
    cfg: QuadConfig = QuadConfig(),
) -> tuple[float, float]:
    """Integral over (0, 1) of the posterior kappa-kernel, optionally weighted.

    ``prior`` carries the four family parameters (a, b, tau2, s); ``b`` and
    ``tau2`` enter the kernel

        kappa^(a_post - 1) (1 - kappa)^(b - 1)
            / (1/tau2 + (1 - 1/tau2) kappa) * exp(-s_post kappa),

    which is multiplied by ``weight(kappa)`` when given.  Returns
    ``(log_scale, value)`` with the integral equal to exp(log_scale) * value.

    ``log_scale`` is the log of the maximum over [0, 1] of the smooth factor
    kappa^max(a_post - 1, 0) exp(-s_post kappa), divided out of the
    integrand so that its peak is of order one.  A large tilt otherwise makes
    the whole integral smaller than ``cfg.abs_tol``, at which point every
    panel meets the absolute tolerance.

    A large tilt also makes the peak narrow, and the first rule's nodes can
    then step over it.  So (0, 1) is cut at ``peak + k * width`` for each k in
    ``_PEAK_CUTS``, where ``width`` is the scale over which the smooth factor
    falls off from its peak, and each piece is integrated in its own
    rescaled variable.  No piece is narrower than ``_MIN_PIECE``: cuts
    closer than that to an end are dropped, and a narrower peak raises
    AccuracyError.  Only the last piece reaches kappa = 1, so only there is
    the mirrored half of the rule evaluated in 1 - kappa; every other piece
    measures its mirrored half back from its own upper end, which keeps the
    low bits of a kappa near 0.
    """
    b = prior.b
    inv_tau2 = 1.0 / prior.tau2
    slope = 1.0 - inv_tau2
    lead = max(a_post - 1.0, 0.0)
    if s_post > lead:
        peak = lead / s_post
        width = max(math.sqrt(lead), 1.0) / s_post
    else:
        peak = 1.0
        width = 1.0 / max(lead - s_post, math.sqrt(lead), 1.0)
    if width < _MIN_PIECE:
        raise AccuracyError(
            "posterior kernel peak is too narrow to cut out in floating point",
            estimate=math.nan,
            error_bound=math.inf,
        )
    log_scale = (lead * math.log(peak) if lead else 0.0) - s_post * peak

    def f(kappa: float) -> float:
        value = (
            math.exp((a_post - 1.0) * math.log(kappa) - s_post * kappa - log_scale)
            * (1.0 - kappa) ** (b - 1.0)
            / (inv_tau2 + slope * kappa)
        )
        return value if weight is None else value * weight(kappa)

    def fc(v: float) -> float:
        kappa = 1.0 - v
        value = (
            math.exp((a_post - 1.0) * math.log1p(-v) - s_post * kappa - log_scale)
            * v ** (b - 1.0)
            / (inv_tau2 + slope * kappa)
        )
        return value if weight is None else value * weight(kappa)

    cuts = [c for c in (peak + k * width for k in _PEAK_CUTS)
            if _MIN_PIECE < c < 1.0 - _MIN_PIECE]
    edges = [0.0] + cuts + [1.0]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        span = hi - lo
        # only the end pieces carry the endpoint singularities
        value = integrate_unit(
            lambda u: f(lo + span * u),
            a_post if lo == 0.0 else 1.0,
            b if hi == 1.0 else 1.0,
            cfg,
            f_complement=(
                (lambda v: fc(span * v)) if hi == 1.0 else (lambda v: f(hi - span * v))
            ),
        )
        total += span * value
    return log_scale, total


def oracle_hib_moment(prior, n: int, p: int, Z: float, cfg: QuadConfig = QuadConfig()) -> float:
    """Posterior moment E(kappa^n) computed purely by quadrature.

    ``prior`` carries the four family parameters (a, b, tau2, s).  The
    posterior after observing a p-dimensional summary with squared norm Z has
    unnormalized density

        kappa^(a + p/2 - 1) (1 - kappa)^(b - 1)
            / (1/tau2 + (1 - 1/tau2) kappa) * exp(-kappa (s + Z/2)),

    and the moment is the ratio of the n-weighted integral to the plain one.
    Both integrals go through :func:`integrate_unit`, so no series code is
    involved anywhere on this route.
    """
    if n < 0 or p < 0 or Z < 0.0:
        raise DomainError("oracle_hib_moment requires n, p, Z nonnegative")
    a_post = prior.a + 0.5 * p
    s_post = prior.s + 0.5 * Z
    log_den, den = _posterior_kernel_integral(prior, a_post, s_post, cfg=cfg)
    log_num, num = _posterior_kernel_integral(prior, a_post + n, s_post, cfg=cfg)
    return num / den * math.exp(log_num - log_den)
