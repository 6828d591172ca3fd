"""Adaptive unit-interval quadrature and the brute-force moment oracle.

The quadrature layer is the independent cross-check for every series-based
quantity, so these tests pin it against closed forms only: Beta integrals,
elementary antiderivatives, and the error function.
"""

import math

import pytest

from hibshrink.errors import AccuracyError, DomainError
from hibshrink.posterior import kappa_moment, update
from hibshrink.prior import HIBParams, half_cauchy, log_normalizer
from hibshrink.quadrature import (
    QuadConfig,
    integrate_unit,
    integrate_unit_result,
    oracle_hib_moment,
)


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def beta_exact(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---- configuration contract ----------------------------------------------


def test_config_defaults():
    cfg = QuadConfig()
    assert cfg.abs_tol == 1e-12
    assert cfg.rel_tol == 1e-10
    assert cfg.max_depth == 40


def test_config_rejects_bad_fields():
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(rel_tol=1.5)
    with pytest.raises(DomainError):
        QuadConfig(max_depth=0)


# ---- closed-form integrals -------------------------------------------------


def test_constant_integrand():
    assert integrate_unit(lambda k: 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    # exponent hints must not change the answer for a bounded integrand
    assert integrate_unit(lambda k: 1.0, 0.5, 0.7) == pytest.approx(1.0, abs=1e-12)


def test_arcsine_density_integrates_to_pi():
    f = lambda k: k ** -0.5 * (1.0 - k) ** -0.5
    got = integrate_unit(f, 0.5, 0.5, f_complement=f)
    assert rel_err(got, math.pi) < 1e-12


def test_tilted_arcsine_matches_series_normalizer():
    # integral of k^(-1/2) (1-k)^(-1/2) e^(-k) equals the family's
    # normalizing constant at a = b = 1/2, tau2 = 1, s = 1
    f = lambda k: k ** -0.5 * (1.0 - k) ** -0.5 * math.exp(-k)
    fc = lambda v: v ** -0.5 * (1.0 - v) ** -0.5 * math.exp(v - 1.0)
    got = integrate_unit(f, 0.5, 0.5, f_complement=fc)
    expected = math.exp(log_normalizer(HIBParams(0.5, 0.5, 1.0, 1.0)))
    assert rel_err(got, expected) < 1e-10


def test_beta_function_sweep():
    cases = [(0.3, 0.3), (0.5, 0.5), (0.3, 2.0), (1.5, 0.5), (1.0, 1.0), (2.0, 3.0)]
    for a, b in cases:
        f = lambda k, a=a, b=b: k ** (a - 1.0) * (1.0 - k) ** (b - 1.0)
        fc = lambda v, a=a, b=b: (1.0 - v) ** (a - 1.0) * v ** (b - 1.0)
        got = integrate_unit(f, a, b, f_complement=fc)
        assert rel_err(got, beta_exact(a, b)) < 1e-12, (a, b)


def test_smooth_anchors():
    assert rel_err(integrate_unit(lambda k: math.exp(k), 1.0, 1.0), math.e - 1.0) < 1e-13
    assert rel_err(integrate_unit(lambda k: k * k, 1.0, 1.0), 1.0 / 3.0) < 1e-13
    # Gaussian bump against erf
    f = lambda k: math.exp(-8.0 * (k - 0.5) ** 2)
    expected = math.sqrt(math.pi / 8.0) * math.erf(math.sqrt(8.0) * 0.5)
    assert rel_err(integrate_unit(f, 1.0, 1.0), expected) < 1e-12


def test_error_bound_covers_true_error_on_closed_forms():
    cases = [
        (lambda k: math.exp(k), 1.0, 1.0, None, math.e - 1.0),
        (lambda k: k ** -0.5 * (1.0 - k) ** -0.5, 0.5, 0.5,
         lambda v: v ** -0.5 * (1.0 - v) ** -0.5, math.pi),
        (lambda k: k ** 0.5, 1.5, 1.0, None, 2.0 / 3.0),
    ]
    for f, a, b, fc, exact in cases:
        res = integrate_unit_result(f, a, b, f_complement=fc)
        true_err = abs(res.value - exact)
        # allow one ulp of slack for the final rounding of the sum
        assert res.error_bound + 4e-16 * abs(exact) >= true_err
        assert res.evaluations > 0


def test_black_box_singular_integrand_refuses_quietly_wrong_answers():
    # a k^(-0.7)-singular integrand evaluated only through f itself (no
    # complement form) is noise-limited near 1; the integrator must raise
    # rather than return at the default tolerance
    f = lambda k: k ** -0.7 * (1.0 - k) ** -0.7
    with pytest.raises(AccuracyError) as exc:
        integrate_unit(f, 0.3, 0.3)
    err = exc.value
    exact = beta_exact(0.3, 0.3)
    assert abs(err.estimate - exact) / exact < 1e-3  # best estimate still close
    assert err.error_bound > 1e-12

    # the same integrand with a complement form resolves cleanly
    got = integrate_unit(f, 0.3, 0.3, f_complement=f)
    assert rel_err(got, exact) < 1e-12


# ---- posterior-moment oracle ------------------------------------------------


def test_oracle_trivial_cases():
    hc = half_cauchy()
    assert oracle_hib_moment(hc, 0, 0, 0.0) == 1.0
    assert rel_err(oracle_hib_moment(hc, 1, 0, 0.0), 0.5) < 1e-10
    assert rel_err(oracle_hib_moment(HIBParams(1.0, 1.0, 1.0, 0.0), 1, 0, 0.0), 0.5) < 1e-10


def test_oracle_frozen_regression_constants():
    # frozen from the first verified run against the series route
    hc = half_cauchy()
    cases = [
        (hc, 1, 10, 20.0, 0.60053125024977094),
        (hc, 2, 10, 20.0, 0.41085000039961345),
        (hc, 1, 10, 40.0, 0.28655938893011501),
        (HIBParams(0.3, 0.3, 0.25, -1.0), 1, 15, 50.0, 0.36210025169868004),
        (HIBParams(2.0, 2.0, 4.0, 3.0), 2, 7, 5.0, 0.32460546680617852),
    ]
    for prior, n, p, z, expected in cases:
        assert rel_err(oracle_hib_moment(prior, n, p, z), expected) < 1e-10


def test_oracle_moment_ordering_and_bounds():
    prior = HIBParams(0.5, 2.0, 4.0, -1.0)
    m1 = oracle_hib_moment(prior, 1, 7, 5.0)
    m2 = oracle_hib_moment(prior, 2, 7, 5.0)
    assert 0.0 < m2 < m1 < 1.0
    assert m2 > m1 * m1  # variance of kappa is positive


def test_oracle_shrinkage_weight_decreases_with_data_norm():
    hc = half_cauchy()
    values = [oracle_hib_moment(hc, 1, 7, z) for z in (0.0, 2.0, 10.0, 50.0, 200.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo < hi


@pytest.mark.parametrize("prior", [half_cauchy(), HIBParams(1.0, 0.5, 4.0, 0.0)])
def test_oracle_resolves_narrow_peak_of_tiny_kernel_integral(prior):
    # large tilts make the kernel integral far smaller than the absolute
    # tolerance; the oracle must still resolve the posterior peak
    for p, z in ((50, 2000.0), (50, 300.0), (7, 800.0), (200, 20000.0)):
        for n in (1, 2):
            series = kappa_moment(update(prior, p, z), n)
            assert rel_err(oracle_hib_moment(prior, n, p, z), series) <= 1e-8, (p, z, n)


@pytest.mark.parametrize("prior", [half_cauchy(), HIBParams(1.0, 0.5, 4.0, 0.0)])
def test_oracle_resolves_peak_narrower_than_first_panel(prior):
    # at Z = 1e5 the posterior peak sits near kappa = 2e-5, well inside the
    # first Kronrod panel of the whole interval
    for p in (3, 15):
        for n in (1, 2):
            series = kappa_moment(update(prior, p, 1e5), n)
            assert rel_err(oracle_hib_moment(prior, n, p, 1e5), series) <= 1e-8, (p, n)


def test_oracle_refuses_peak_below_float_spacing():
    # a tilt of -1e17 squeezes the kernel against kappa = 1 into less than
    # the float spacing there, which no panel can resolve
    with pytest.raises(AccuracyError):
        oracle_hib_moment(HIBParams(0.5, 0.5, 1.0, -1e17), 1, 3, 0.0)


def test_oracle_refuses_peak_too_narrow_for_the_complement():
    # a tilt this large squeezes the kernel against kappa = 0, where the
    # pieces' complements 1 - kappa collapse onto 1; the oracle must refuse
    # with a typed error, not a math domain error from log1p(-1) or log(0)
    with pytest.raises(AccuracyError):
        oracle_hib_moment(half_cauchy(), 1, 3, 1e300)
    for p in (3, 10, 50):
        for k in range(160, 301, 2):  # Z from 1e16 to 1e30, across the collapse
            if (p, k) == (50, 160):
                continue  # resolved: see test_oracle_is_accurate_at_large_tilt
            with pytest.raises(AccuracyError):
                oracle_hib_moment(half_cauchy(), 1, p, 10.0 ** (k / 10))


def _moment_unit_tau2(mpmath, prior, n, p, z):
    """E(kappa^n) when tau2 = 1, where the posterior is a Beta kernel tilted by
    exp(-s' kappa): (A)_n / (A+b)_n 1F1(A+n; A+b+n; -s') / 1F1(A; A+b; -s')."""
    a_post = mpmath.mpf(prior.a) + mpmath.mpf(p) / 2
    b, s_post = mpmath.mpf(prior.b), mpmath.mpf(prior.s) + mpmath.mpf(z) / 2
    ratio = mpmath.hyp1f1(a_post + n, a_post + b + n, -s_post) / mpmath.hyp1f1(
        a_post, a_post + b, -s_post
    )
    return mpmath.rf(a_post, n) / mpmath.rf(a_post + b, n) * ratio


def _moment_by_mpmath_quad(mpmath, prior, n, p, z):
    """E(kappa^n) by mpmath.quad in t = s' kappa, cut at the kernel's peak."""
    a_post = mpmath.mpf(prior.a) + mpmath.mpf(p) / 2
    b, s_post = mpmath.mpf(prior.b), mpmath.mpf(prior.s) + mpmath.mpf(z) / 2
    inv_tau2 = 1 / mpmath.mpf(prior.tau2)

    def integral(k):
        def g(t):
            if t >= s_post:  # kappa >= 1, where exp(-t) has long vanished
                return mpmath.mpf(0)
            return (t ** (a_post - 1 + k) * (1 - t / s_post) ** (b - 1) * mpmath.exp(-t)
                    / (inv_tau2 + (1 - inv_tau2) * t / s_post))

        return mpmath.quad(g, [0, a_post - 1, mpmath.inf])

    return integral(n) / integral(0) / s_post ** n


def test_oracle_is_accurate_at_large_tilt():
    # near kappa = 0 every piece is evaluated in kappa itself: measured back
    # from 1 it would lose the low bits of kappa, about s' 2^-53 relative
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (prior, n, p, z, _moment_unit_tau2)
        for prior in (half_cauchy(), HIBParams(1.0, 0.5, 1.0, 0.0))
        for p in (3, 10)
        for z in (1e8, 1e10)
        for n in (1, 2)
    ]
    # once refused: the mirrored halves of the pieces collapsed onto kappa = 0
    cases.append((half_cauchy(), 1, 50, 1e16, _moment_unit_tau2))
    cases.append((HIBParams(1.0, 0.5, 4.0, 0.0), 1, 33, 10.0 ** 15.5, _moment_by_mpmath_quad))
    with mpmath.workdps(40):
        for prior, n, p, z, reference in cases:
            expected = reference(mpmath, prior, n, p, z)
            got = oracle_hib_moment(prior, n, p, z)
            assert float(abs(got / expected - 1)) <= 1e-12, (prior, n, p, z)
