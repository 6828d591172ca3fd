"""Prior family densities: parameterization, normalization, and the two
reference densities (double half-Cauchy over the scale, hyperbolic secant
over the log scale) used as overlays and sanity anchors.
"""

import math

import numpy as np
import pytest

from hibshrink.errors import DomainError
from hibshrink.prior import (
    HIBParams,
    density_kappa,
    density_lambda,
    density_lambda2,
    double_half_cauchy_density,
    double_half_cauchy_kappa_kernel,
    double_half_cauchy_log_density,
    half_cauchy,
    hyperbolic_secant_density,
    log_density_kappa,
    log_density_lambda2,
    log_normalizer,
)
from hibshrink.quadrature import integrate_unit

A_GRID = [0.3, 0.5, 1.0, 2.0]
B_GRID = [0.3, 0.5, 1.0, 2.0]
TAU2_GRID = [0.25, 1.0, 4.0]
S_GRID = [-1.0, 0.0, 3.0]


def grid_priors():
    for a in A_GRID:
        for b in B_GRID:
            for tau2 in TAU2_GRID:
                for s in S_GRID:
                    yield HIBParams(a, b, tau2, s)


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


# ---- parameter validation -------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError):
        HIBParams(0.0, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        HIBParams(0.5, -0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        HIBParams(0.5, 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        HIBParams(0.5, 0.5, 1.0, math.inf)
    # s may be any finite real, including negative
    HIBParams(0.5, 0.5, 1.0, -1000.0)


def test_half_cauchy_is_the_standard_member():
    hc = half_cauchy()
    assert (hc.a, hc.b, hc.tau2, hc.s) == (0.5, 0.5, 1.0, 0.0)
    assert hc.y == 0.0


def test_y_property():
    assert HIBParams(1.0, 1.0, 4.0, 0.0).y == 0.75
    assert HIBParams(1.0, 1.0, 0.25, 0.0).y == -3.0


# ---- normalizing constant ---------------------------------------------------


def test_normalizer_half_cauchy_is_pi():
    assert rel_err(log_normalizer(half_cauchy()), math.log(math.pi)) < 1e-12


def test_normalizer_beta_reduction():
    # tau2 = 1 and s = 0 collapse the family to Beta(a, b) on kappa
    got = log_normalizer(HIBParams(2.0, 3.0, 1.0, 0.0))
    assert rel_err(got, math.log(1.0 / 12.0)) < 1e-12


def test_normalizer_against_direct_quadrature():
    prior = HIBParams(0.5, 0.5, 0.5, 1.0)

    def integrand(k: float) -> float:
        bracket = 1.0 / prior.tau2 + prior.y * k
        return k ** -0.5 * (1.0 - k) ** -0.5 * math.exp(-k * prior.s) / bracket

    def integrand_c(v: float) -> float:
        bracket = 1.0 + prior.y * (-v)  # 1/tau2 + y(1-v), rewritten stably
        return (1.0 - v) ** -0.5 * v ** -0.5 * math.exp(-(1.0 - v) * prior.s) / bracket

    direct = integrate_unit(integrand, 0.5, 0.5, f_complement=integrand_c)
    assert rel_err(math.exp(log_normalizer(prior)), direct) < 1e-8


# ---- kappa density -----------------------------------------------------------


def test_density_kappa_domain():
    hc = half_cauchy()
    for bad in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            density_kappa(hc, bad)


def test_density_kappa_half_cauchy_anchor():
    # arcsine density: 1 / (pi sqrt(k(1-k)))
    assert rel_err(density_kappa(half_cauchy(), 0.5), 2.0 / math.pi) < 1e-12
    assert rel_err(density_kappa(half_cauchy(), 0.1), 1.0 / (math.pi * math.sqrt(0.09))) < 1e-12


def test_density_kappa_uniform_anchor():
    prior = HIBParams(1.0, 1.0, 1.0, 0.0)
    for k in (0.1, 0.5, 0.9):
        assert rel_err(density_kappa(prior, k), 1.0) < 1e-12


def test_density_kappa_unnormalized_ratio():
    # ratios cancel the normalizer, isolating the kernel shape
    prior = HIBParams(2.0, 0.7, 1.0, 1.5)
    k0, k1 = 0.2, 0.7
    got = density_kappa(prior, k0) / density_kappa(prior, k1)
    expected = (
        (k0 / k1) ** (prior.a - 1.0)
        * ((1.0 - k0) / (1.0 - k1)) ** (prior.b - 1.0)
        * math.exp(-(k0 - k1) * prior.s)
    )
    assert rel_err(got, expected) < 1e-12


def test_density_kappa_mass_one_over_grid():
    for prior in grid_priors():
        logc = log_normalizer(prior)
        a, b, s, y, tau2 = prior.a, prior.b, prior.s, prior.y, prior.tau2

        def f(k: float) -> float:
            bracket = 1.0 / tau2 + y * k
            return k ** (a - 1.0) * (1.0 - k) ** (b - 1.0) * math.exp(-k * s - logc) / bracket

        def fc(v: float) -> float:
            bracket = 1.0 - y * v  # bracket at kappa = 1 - v
            return (1.0 - v) ** (a - 1.0) * v ** (b - 1.0) * math.exp(-(1.0 - v) * s - logc) / bracket

        mass = integrate_unit(f, a, b, f_complement=fc)
        assert abs(mass - 1.0) < 1e-8, (prior, mass)


def test_log_density_matches_density():
    prior = HIBParams(0.3, 2.0, 4.0, -1.0)
    for k in (1e-6, 0.3, 0.999999):
        assert rel_err(math.exp(log_density_kappa(prior, k)), density_kappa(prior, k)) < 1e-12


# ---- scale-squared and scale densities --------------------------------------


def test_density_lambda2_domain():
    with pytest.raises(DomainError):
        density_lambda2(half_cauchy(), -1.0)


def test_density_lambda2_half_cauchy_anchor():
    # lambda^2 density of the half-Cauchy at 1: 1/(2 pi) after the
    # change of variables from the arcsine kappa density
    assert rel_err(density_lambda2(half_cauchy(), 1.0), 1.0 / (2.0 * math.pi)) < 1e-12


def test_density_lambda2_jacobian_identity_over_grid():
    # kappa = 1/(1 + lambda^2); moderate lambda^2 keeps the conversion
    # loss below the identity tolerance
    for prior in grid_priors():
        for lam2 in (0.25, 1.0, 4.0):
            kappa = 1.0 / (1.0 + lam2)
            expected = density_kappa(prior, kappa) * kappa * kappa
            assert rel_err(density_lambda2(prior, lam2), expected) < 1e-12, (prior, lam2)


def test_density_lambda_half_cauchy_is_standard_half_cauchy():
    hc = half_cauchy()
    for lam in (0.0, 0.5, 1.0, 2.0, 10.0):
        expected = 2.0 / (math.pi * (1.0 + lam * lam))
        assert rel_err(density_lambda(hc, lam), expected) < 1e-12


def test_density_lambda_chain_rule():
    prior = HIBParams(1.0, 2.0, 4.0, 1.0)
    for lam in (0.3, 1.0, 3.0):
        expected = density_lambda2(prior, lam * lam) * 2.0 * lam
        assert rel_err(density_lambda(prior, lam), expected) < 1e-13


def test_density_lambda_origin_limits():
    # behavior at lambda = 0 is controlled by the origin-mass parameter
    assert density_lambda(HIBParams(0.5, 1.0, 1.0, 0.0), 0.0) == 0.0
    assert density_lambda(HIBParams(0.5, 0.3, 1.0, 0.0), 0.0) == math.inf
    assert rel_err(density_lambda(half_cauchy(), 0.0), 2.0 / math.pi) < 1e-12


# ---- array-valued densities ---------------------------------------------------

ARRAY_PRIORS = [
    HIBParams(a, b, tau2, s)
    for a in (0.5, 1.0)
    for b in (0.5, 1.0)
    for tau2 in (0.25, 1.0, 4.0)
    for s in (-1.0, 0.0, 3.0)
]
ARRAY_GRIDS = [
    (density_lambda, np.linspace(0.05, 4.0, 81)),
    (density_lambda2, np.linspace(0.05, 16.0, 81)),
    (log_density_lambda2, np.linspace(0.05, 16.0, 81)),
    (density_kappa, np.linspace(0.01, 0.99, 81)),
    (log_density_kappa, np.linspace(0.01, 0.99, 81)),
]


def test_array_densities_equal_per_point_calls_bitwise():
    for prior in ARRAY_PRIORS:
        for density, grid in ARRAY_GRIDS:
            got = density(prior, grid)
            want = [density(prior, float(v)) for v in grid]
            assert isinstance(got, np.ndarray) and got.shape == grid.shape
            assert all(type(w) is float for w in want)
            assert got.tolist() == want, (density.__name__, prior)


def test_array_density_lambda_origin_matches_scalar():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    for b, origin in ((0.3, math.inf), (0.5, None), (0.7, 0.0)):
        prior = HIBParams(0.5, b, 2.0, 1.0)
        got = density_lambda(prior, grid)
        assert got.tolist() == [density_lambda(prior, float(v)) for v in grid]
        if origin is not None:
            assert got[0] == origin
    assert density_lambda(half_cauchy(), grid)[0] == density_lambda(half_cauchy(), 0.0)


def test_array_density_rejects_one_bad_point():
    hc = half_cauchy()
    for bad in (0.0, 1.0):
        for pos in (0, 2, 4):
            kappa = np.full(5, 0.5)
            kappa[pos] = bad
            with pytest.raises(DomainError):
                density_kappa(hc, kappa)
            with pytest.raises(DomainError):
                log_density_kappa(hc, kappa)
    with pytest.raises(DomainError):
        density_lambda2(hc, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        density_lambda(hc, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        density_lambda(hc, np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        density_kappa(hc, np.full((2, 2), 0.5))


def test_density_grid_computes_normalizer_once(normalizer_calls):
    values = density_kappa(HIBParams(0.5, 1.0, 4.0, 3.0), np.linspace(0.01, 0.99, 81))
    assert values.shape == (81,)
    assert len(normalizer_calls) == 1


# ---- double half-Cauchy reference density -----------------------------------


class TestDoubleHalfCauchy:
    def test_domain(self):
        for bad in (0.0, -2.0):
            with pytest.raises(DomainError):
                double_half_cauchy_density(bad)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                double_half_cauchy_kappa_kernel(bad)

    def test_value_at_one(self):
        # kernel ln(l)/(l^2-1) -> 1/2 at l = 1; normalizer pi^2/4
        assert rel_err(double_half_cauchy_density(1.0), 2.0 / math.pi ** 2) < 1e-12

    def test_kappa_kernel_center_value(self):
        assert rel_err(double_half_cauchy_kappa_kernel(0.5), 4.0) < 1e-12

    def test_kappa_kernel_symmetric_and_positive(self):
        for i in range(1, 100):
            k = i / 100.0
            v = double_half_cauchy_kappa_kernel(k)
            assert v > 0.0
            assert rel_err(v, double_half_cauchy_kappa_kernel(1.0 - k)) < 1e-12

    def test_scale_inversion_symmetry(self):
        # p(1/l) = l^2 p(l)
        for lam in (0.3, 0.7, 2.0, 5.0):
            got = double_half_cauchy_density(1.0 / lam)
            assert rel_err(got, lam * lam * double_half_cauchy_density(lam)) < 1e-12

    def test_guard_band_is_continuous(self):
        # the removable singularity at l = 1 is bridged by a local expansion;
        # points straddling the switchover (2e-12 apart, so the density
        # itself changes by ~4e-13) must agree up to the seam noise of the
        # direct formula, which divides by l^2 - 1 ~ 2e-6 just outside
        for side in (+1.0, -1.0):
            inside = double_half_cauchy_density(1.0 + side * 0.999999e-6)
            outside = double_half_cauchy_density(1.0 + side * 1.000001e-6)
            assert abs(inside - outside) < 1e-9

    def test_log_density_consistency(self):
        for lam in (0.1, 1.0, 4.0):
            got = math.exp(double_half_cauchy_log_density(lam))
            assert rel_err(got, double_half_cauchy_density(lam)) < 1e-12

    def test_scale_inversion_survives_overflow_of_lambda_squared(self):
        # past lam ~ 1.34e154, lam^2 overflows and the kernel rounds to 0;
        # log p(1/l) = log p(l) + 2 ln l must still hold, in log space
        for lam in (1e155, 1e200, 1.7e308):
            small = double_half_cauchy_log_density(1.0 / lam)
            big = double_half_cauchy_log_density(lam)
            assert rel_err(big + 2.0 * math.log(lam), small) < 1e-12, lam
        assert abs(double_half_cauchy_log_density(1e200) + 915.8) < 0.05
        assert double_half_cauchy_density(1e200) == 0.0

    def test_total_mass(self):
        # inversion symmetry folds the integral onto (0, 1]
        mass = 2.0 * integrate_unit(lambda t: double_half_cauchy_density(t), 0.9, 1.0)
        assert abs(mass - 1.0) < 1e-10


# ---- hyperbolic secant reference density -------------------------------------


def test_sech_density_center_and_symmetry():
    assert rel_err(hyperbolic_secant_density(0.0), 1.0 / (2.0 * math.pi)) < 1e-13
    for psi in (0.5, 1.0, 3.0, 700.0):
        assert hyperbolic_secant_density(psi) == hyperbolic_secant_density(-psi)


def test_sech_density_total_mass():
    f = lambda t: hyperbolic_secant_density(t / (1.0 - t)) / (1.0 - t) ** 2
    mass = 2.0 * integrate_unit(f, 1.0, 1.0)
    assert abs(mass - 1.0) < 1e-10


def test_sech_density_no_overflow_in_tails():
    assert hyperbolic_secant_density(1400.0) == 0.0 or hyperbolic_secant_density(1400.0) > 0.0
    assert math.isfinite(hyperbolic_secant_density(-1400.0))


def test_sech_matches_half_cauchy_on_log_scale():
    # psi = 2 ln(lambda) maps the log-scale density back to the standard
    # half-Cauchy on the scale itself
    for lam in (0.5, 1.0, 2.0):
        got = hyperbolic_secant_density(2.0 * math.log(lam)) * 2.0 / lam
        expected = 2.0 / (math.pi * (1.0 + lam * lam))
        assert rel_err(got, expected) < 1e-12
