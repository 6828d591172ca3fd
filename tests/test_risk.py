"""Frequentist risk evaluation: the two analytic routes to the unbiased
risk expression, Monte Carlo and quadrature risk estimates (the fixed Gauss
rule against the adaptive integral it replaced, its vectorized density
against the scalar reference, and the Monte Carlo points against the Gauss
rule and against their own draws summed in draw order), the closed-form
James-Stein risk, and the comparator estimators.

Every stochastic check is pinned to a fixed stream and asserted within
explicit standard-error bounds computed from the sample itself.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hibshrink import oracles, risk, specfun
from hibshrink.errors import ConvergenceError, DomainError, NumericalWarning
from hibshrink.oracles import risk_direct, sure_integrand_by_parts
from hibshrink.posterior import kappa_moment, update
from hibshrink.prior import HIBParams, half_cauchy
from hibshrink.quadrature import integrate_unit, oracle_hib_moment
from hibshrink.risk import (
    RiskCurveSpec,
    js_estimate,
    js_plus_estimate,
    js_risk,
    mle_estimate,
    risk_analytic,
    risk_curve,
    sample_z,
    simulate_estimator_risk,
    sure_integrand,
)
from hibshrink.streams import stream


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def mean_within_3se(draws: np.ndarray, target: float) -> bool:
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    return abs(draws.mean() - target) <= 3.0 * se


def var_within_3se(draws: np.ndarray, target: float) -> bool:
    centered = draws - draws.mean()
    s2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / len(draws))
    return abs(s2 - target) <= 3.0 * se


# ---- data-norm sampling ------------------------------------------------------


def test_sample_z_central_case_mean():
    rng = stream(11, "test", "z-central")
    draws = np.array([sample_z(0.0, 7, rng) for _ in range(100_000)])
    assert mean_within_3se(draws, 7.0)
    assert np.all(draws >= 0.0)


def test_sample_z_noncentral_mean():
    rng = stream(12, "test", "z-mean")
    draws = np.array([sample_z(4.0, 7, rng) for _ in range(100_000)])
    assert mean_within_3se(draws, 23.0)


def test_sample_z_noncentral_variance():
    rng = stream(13, "test", "z-var")
    draws = np.array([sample_z(2.0, 7, rng) for _ in range(100_000)])
    assert var_within_3se(draws, 30.0)


# ---- unbiased-risk integrand ---------------------------------------------------


ROUTE_PRIORS = [
    half_cauchy(),
    HIBParams(0.3, 2.0, 4.0, -1.0),
    HIBParams(2.0, 0.3, 0.25, 3.0),
    HIBParams(1.0, 1.0, 1.0, 0.0),
]


def test_sure_integrand_routes_agree_at_anchor():
    a = sure_integrand(half_cauchy(), 7, 10.0)
    b = sure_integrand_by_parts(half_cauchy(), 7, 10.0)
    assert rel_err(a, b) < 1e-6


def test_sure_integrand_routes_agree_on_grid():
    for prior in ROUTE_PRIORS:
        for p in (3, 7, 15):
            for z in (0.0, 1.0, 10.0, 100.0):
                a = sure_integrand(prior, p, z)
                b = sure_integrand_by_parts(prior, p, z)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (prior, p, z)


def test_sure_integrand_origin_closed_form():
    # at Z=0 the expression collapses to -p * E(kappa); the posterior is an
    # untilted Beta there, so E(kappa) = (a + p/2)/(a + b + p/2) = 8/9
    got = sure_integrand(half_cauchy(), 7, 0.0)
    assert rel_err(got, -56.0 / 9.0) < 1e-10
    # frozen quadrature-only regression value for the same point
    quad = -7.0 * oracle_hib_moment(half_cauchy(), 1, 7, 0.0)
    assert rel_err(quad, -6.2222222222222223) < 1e-10


def test_sure_integrand_vanishes_for_huge_data_norm():
    assert abs(sure_integrand(half_cauchy(), 7, 1e4)) < 1e-2


# ---- risk estimates --------------------------------------------------------------


def test_risk_analytic_matches_direct_simulation():
    prior = half_cauchy()
    for beta_norm in (0.0, 2.0):
        a = risk_analytic(prior, 7, beta_norm, n_mc=20_000, seed=101)
        d = risk_direct(prior, 7, beta_norm, n_mc=20_000, seed=202)
        combined = math.hypot(a.mc_std_err, d.mc_std_err)
        assert abs(a.mse - d.mse) <= 3.0 * combined, (beta_norm, a.mse, d.mse)


def test_risk_analytic_quadrature_route():
    a = risk_analytic(half_cauchy(), 7, 1.0, method="quadrature")
    assert a.mc_std_err == 0.0
    m = risk_analytic(half_cauchy(), 7, 1.0, n_mc=50_000, seed=7, method="mc")
    assert abs(a.mse - m.mse) <= 3.0 * m.mc_std_err
    # the deterministic route is reproducible bit for bit
    again = risk_analytic(half_cauchy(), 7, 1.0, method="quadrature")
    assert again.mse == a.mse


def test_sure_integrand_takes_a_float_or_an_array():
    prior, p = HIBParams(1.0, 0.5, 4.0, 0.0), 15
    z = np.array([0.0, 0.5, 3.0, 14.0, 60.0, 250.0, 1e3, 1e4])
    along = sure_integrand(prior, p, z)
    assert isinstance(along, np.ndarray) and along.shape == z.shape
    for zi, ri in zip(z.tolist(), along.tolist()):
        one = sure_integrand(prior, p, zi)
        assert isinstance(one, float)
        assert abs(one - ri) <= 1e-12 * max(1.0, abs(one)), zi


def _adaptive_risk(prior: HIBParams, p: int, beta_norm: float) -> float:
    """The deterministic route as it was before the Gauss rule: an adaptive
    integral over Z = z_max t, t in (0, 1), with two scalar moments a node."""
    theta = 0.5 * beta_norm * beta_norm
    mean = p + 2.0 * theta
    z_max = mean + 12.0 * math.sqrt(2.0 * p + 8.0 * theta) + 30.0
    logpdf = oracles._noncentral_chi2_logpdf(p, theta)

    def f(t: float) -> float:
        z = z_max * t
        density = math.exp(logpdf(z)) * z_max
        if density == 0.0:
            return 0.0
        state = update(prior, p, z, 1.0)
        g, g2 = kappa_moment(state, 1), kappa_moment(state, 2)
        return density * (z * g2 - p * g - 0.5 * z * g * g)

    return p + 2.0 * integrate_unit(f, 0.5 * p, 1.0)


GAUSS_RULE_POINTS = [
    (half_cauchy(), p, beta_norm) for p in (3, 15, 50) for beta_norm in (0.0, 9.0, 36.0, 100.0)
] + [(HIBParams(1.0, 0.5, 4.0, 0.0), 15, beta_norm) for beta_norm in (0.0, 36.0)]


@pytest.mark.parametrize(
    "prior, p, beta_norm",
    GAUSS_RULE_POINTS,
    ids=[f"tau2={pr.tau2:g}-p{p}-b{b:g}" for pr, p, b in GAUSS_RULE_POINTS],
)
def test_gauss_rule_matches_the_adaptive_route(prior, p, beta_norm):
    # bound fixed before the run
    got = risk_analytic(prior, p, beta_norm, method="quadrature")
    assert got.mc_std_err == 0.0
    assert rel_err(got.mse, _adaptive_risk(prior, p, beta_norm)) <= 1e-11
    assert risk_analytic(prior, p, beta_norm, method="quadrature").mse == got.mse


def test_gauss_rule_is_converged_at_128_nodes(monkeypatch):
    # doubling the nodes moves no point by more than 1e-11, fixed before the run
    fixed = [risk_analytic(*point, method="quadrature").mse for point in GAUSS_RULE_POINTS]
    monkeypatch.setattr(risk, "_legendre_rule", lambda: np.polynomial.legendre.leggauss(256))
    doubled = [risk_analytic(*point, method="quadrature").mse for point in GAUSS_RULE_POINTS]
    for point, a, b in zip(GAUSS_RULE_POINTS, fixed, doubled):
        assert rel_err(a, b) <= 1e-11, point


@pytest.mark.parametrize(
    "p, grid, n_mc",
    [(7, (0.0, 6.0, 13), 200_000), (15, (0.0, 36.0, 13), 50_000)],
    ids=["readme-curve", "bench-curve"],
)
def test_monte_carlo_bayes_points_lie_within_4se_of_the_gauss_rule(p, grid, n_mc):
    # the 4-SE bound is fixed in advance; the Gauss rule is the reference
    spec = RiskCurveSpec(p=p, beta_norms=tuple(np.linspace(*grid).tolist()), n_mc=n_mc,
                         seed=1, prior=half_cauchy())
    for point in risk_curve(spec):
        exact = risk_analytic(half_cauchy(), p, point.beta_norm, method="quadrature").mse
        assert abs(point.mse - exact) <= 4.0 * point.mc_std_err, (point, exact)


# bench-shaped Monte Carlo points, plus a negative tilt whose batch x take
# both signs
MC_ORDER_POINTS = [(half_cauchy(), 15, beta_norm) for beta_norm in (0.0, 9.0, 36.0)] + [
    (HIBParams(0.5, 0.5, 4.0, -1.0), 7, 1.0)
]


def _mc_point_with_draws(monkeypatch, prior, p, beta_norm, seed):
    """A Monte Carlo point, the (Z, r(Z)) it summed, and its Z draws in draw
    order, rebuilt from their named stream."""
    seen = []

    def recording(prior, p, Z):
        inner = sure_integrand(prior, p, Z)
        seen.append((np.array(Z), inner))
        return inner

    with monkeypatch.context() as m:
        m.setattr(risk, "sure_integrand", recording)
        point = risk_analytic(prior, p, beta_norm, n_mc=200_000, seed=seed)
    rng = stream(seed, "risk-analytic", str(p), f"{beta_norm:.17g}")
    (summed,) = seen
    return point, summed, risk._draw_z(beta_norm, p, rng, 200_000)[1]


@pytest.mark.parametrize("prior, p, beta_norm", MC_ORDER_POINTS)
def test_monte_carlo_r_of_z_is_that_of_the_draws_permuted(monkeypatch, prior, p, beta_norm):
    # the draws are sorted before the batch call, which changes no r(Z) bit
    _, (z, inner), draws = _mc_point_with_draws(monkeypatch, prior, p, beta_norm, seed=1)
    order = np.argsort(draws, kind="stable")
    assert np.array_equal(z, draws[order])
    assert np.array_equal(inner, sure_integrand(prior, p, draws)[order])


@pytest.mark.parametrize("prior, p, beta_norm", MC_ORDER_POINTS)
def test_monte_carlo_statistics_are_the_draw_order_ones_to_4_ulp(monkeypatch, prior, p, beta_norm):
    # summing r(Z) over ascending Z instead of in draw order moves the mean
    # of r(Z) and the standard error by rounding alone, <= 4 ulp of each.
    # The ulp of mse = p + 2 mean is taken on the mean: at the origin mse
    # cancels ~4 bits, so an ulp of the mean there is ~16 ulp of mse
    point, (_, inner), draws = _mc_point_with_draws(monkeypatch, prior, p, beta_norm, seed=1)
    in_draw_order = sure_integrand(prior, p, draws)
    mean, draw_mean = float(np.mean(inner)), float(np.mean(in_draw_order))
    assert point.mse == p + 2.0 * mean
    assert abs(mean - draw_mean) <= 4.0 * np.spacing(abs(draw_mean)), (mean, draw_mean)
    draw_se = 2.0 * float(np.std(in_draw_order, ddof=1) / math.sqrt(draws.size))
    assert abs(point.mc_std_err - draw_se) <= 4.0 * np.spacing(draw_se), (point, draw_se)


def test_risk_tail_approaches_mle_risk():
    # ||beta||^2 = 400 with p = 7 sits far in the tail of the shrinkage zone
    point = risk_analytic(half_cauchy(), 7, 20.0, n_mc=100_000, seed=5)
    assert abs(point.mse - 7.0) / 7.0 < 0.02


def test_risk_of_never_shrinking_estimator():
    # an extreme negative tilt pushes kappa to 1, making the Bayes rule
    # collapse toward the zero estimator whose risk is ||beta||^2
    prior = HIBParams(0.5, 0.5, 1.0, -1000.0)
    point = risk_direct(prior, 7, 3.0, n_mc=50_000, seed=31)
    assert abs(point.mse - 9.0) <= 3.0 * point.mc_std_err + 0.05


def test_risk_point_fields():
    point = risk_analytic(half_cauchy(), 7, 1.0, n_mc=5_000, seed=3)
    assert point.estimator_tag == "bayes"
    assert point.beta_norm == 1.0
    assert point.mse > 0.0
    assert point.mc_std_err > 0.0


BAD_DRAWS = [
    dict(n_mc=1),
    dict(n_mc=0),
    dict(n_mc=1000.0),
    dict(seed=-1),
    dict(seed=2**64),
]


@pytest.mark.parametrize("bad", BAD_DRAWS, ids=lambda bad: repr(bad))
@pytest.mark.parametrize("estimate", ["analytic", "direct", "js_plus", "spec"])
def test_point_risk_rejects_bad_draw_count_and_seed(estimate, bad):
    draws = {"n_mc": 100, "seed": 0, **bad}
    with pytest.raises(DomainError):
        if estimate == "analytic":
            risk_analytic(half_cauchy(), 7, 1.0, **draws)
        elif estimate == "direct":
            risk_direct(half_cauchy(), 7, 1.0, **draws)
        elif estimate == "js_plus":
            simulate_estimator_risk("js_plus", 7, 1.0, **draws)
        else:
            RiskCurveSpec(p=7, beta_norms=(1.0,), prior=half_cauchy(), **draws)


# ---- James-Stein closed form -------------------------------------------------------


def test_js_risk_origin_is_exactly_two():
    assert abs(js_risk(7, 0.0) - 2.0) < 1e-9
    assert abs(js_risk(3, 0.0) - 2.0) < 1e-9


def test_js_risk_approaches_p_in_the_tail():
    assert abs(js_risk(7, 100.0) - 7.0) < 1e-2


def test_js_risk_monotone_and_bounded():
    values = [js_risk(7, bn) for bn in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0)]
    for lo, hi in zip(values[:-1], values[1:]):
        assert lo < hi
    for v in values:
        assert 2.0 <= v < 7.0 + 1e-9


def test_js_risk_matches_simulation():
    sim = simulate_estimator_risk("js", 7, 2.0, n_mc=100_000, seed=17)
    assert abs(sim.mse - js_risk(7, 2.0)) <= 3.0 * sim.mc_std_err


def test_js_risk_refuses_an_oversized_poisson_window_before_building_it():
    # |beta| = 1e8 once meant a window of 1.7e9 Python floats, and 1e200
    # (theta = inf) a bare ValueError; the 1 MiB bound is fixed before the run
    tracemalloc.start()
    try:
        for beta_norm in (1e8, 1e200):
            with pytest.raises(ConvergenceError) as exc:
                js_risk(3, beta_norm)
            assert exc.value.terms_used == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


def test_gauss_route_fails_on_the_series_before_the_density_grid(monkeypatch):
    # at |beta| = 1e5 the (node, Poisson term) density grid is 128 x 1.7e6
    # doubles, about 1.7 GB, and r(Z) cannot be summed there at all
    def no_density(p, theta, z):
        raise AssertionError("density grid built before r(Z)")

    monkeypatch.setattr(risk, "_noncentral_chi2_log_density", no_density)
    with pytest.raises(ConvergenceError):
        risk_analytic(half_cauchy(), 15, 1e5, method="quadrature")


def _js_risk_by_hand(p: int, beta_norm: float) -> float:
    """js_risk with its Poisson(|beta|^2/2) window written out in place."""
    theta = 0.5 * beta_norm * beta_norm
    if theta == 0.0:
        return p - (p - 2.0)
    sd = math.sqrt(theta)
    lo = max(0, int(theta - 12.0 * sd - 20.0))
    hi = int(theta + 12.0 * sd + 30.0)
    log_theta = math.log(theta)
    log_weights = []
    values = []
    for k in range(lo, hi + 1):
        log_weights.append(k * log_theta - theta - math.lgamma(k + 1.0))
        values.append(1.0 / (p - 2.0 + 2.0 * k))
    peak = max(log_weights)
    weights = [math.exp(lw - peak) for lw in log_weights]
    expectation = sum(w * v for w, v in zip(weights, values)) / sum(weights)
    return p - (p - 2.0) ** 2 * expectation


def _noncentral_chi2_logpdf_by_hand(z: float, p: int, theta: float) -> float:
    """The noncentral chi-square log density, every mixture term written out."""
    if z <= 0.0:
        return -math.inf
    if theta == 0.0:
        half = 0.5 * p
        return (half - 1.0) * math.log(z) - 0.5 * z - half * math.log(2.0) - math.lgamma(half)
    sd = math.sqrt(theta)
    lo = max(0, int(theta - 12.0 * sd - 20.0))
    hi = int(theta + 12.0 * sd + 30.0)
    log_theta = math.log(theta)
    logs = []
    for k in range(lo, hi + 1):
        half = 0.5 * p + k
        logs.append(
            k * log_theta
            - theta
            - math.lgamma(k + 1.0)
            + (half - 1.0) * math.log(z)
            - 0.5 * z
            - half * math.log(2.0)
            - math.lgamma(half)
        )
    best = max(logs)
    return best + math.log(sum(math.exp(v - best) for v in logs))


def test_poisson_window_matches_written_out_formulas_bitwise():
    z_grid = (0.0, 1e-300, 1e-6, 0.5, 1.0, 2.0, 7.5, 15.0, 40.0, 120.0, 500.0, 1300.0, 3000.0)
    for p in (3, 7, 15, 50):
        for beta_norm in np.linspace(0.0, 36.0, 13):
            assert js_risk(p, beta_norm) == _js_risk_by_hand(p, beta_norm), (p, beta_norm)
            theta = 0.5 * beta_norm * beta_norm
            logpdf = oracles._noncentral_chi2_logpdf(p, theta)
            for z in z_grid:
                assert logpdf(z) == _noncentral_chi2_logpdf_by_hand(z, p, theta), (p, beta_norm, z)


def test_vector_density_matches_the_scalar_reference():
    # the Gauss rule's one log-sum-exp over every node against the scalar
    # reference pinned above, on the same z grid; bound fixed before the run
    z_grid = np.array([0.0, 1e-300, 1e-6, 0.5, 1.0, 2.0, 7.5, 15.0, 40.0, 120.0, 500.0,
                       1300.0, 3000.0])
    for p in (3, 7, 15, 50):
        for beta_norm in np.linspace(0.0, 36.0, 13):
            theta = 0.5 * beta_norm * beta_norm
            logpdf = oracles._noncentral_chi2_logpdf(p, theta)
            got = risk._noncentral_chi2_log_density(p, theta, z_grid)
            for z, value in zip(z_grid.tolist(), got.tolist()):
                ref = logpdf(z)
                if ref == -math.inf:
                    assert value == ref, (p, beta_norm, z)
                else:
                    assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (p, beta_norm, z)


def test_gauss_rule_with_the_scalar_density_moves_no_point(monkeypatch):
    # the vector density moves no Bayes point of the rule by more than
    # 1e-13 relative, fixed before the run
    fixed = [risk_analytic(*point, method="quadrature").mse for point in GAUSS_RULE_POINTS]

    def scalar_density(p, theta, z):
        logpdf = oracles._noncentral_chi2_logpdf(p, theta)
        return np.array([logpdf(v) for v in z.tolist()])

    monkeypatch.setattr(risk, "_noncentral_chi2_log_density", scalar_density)
    for point, got in zip(GAUSS_RULE_POINTS, fixed):
        assert rel_err(got, risk_analytic(*point, method="quadrature").mse) <= 1e-13, point


# ---- comparator estimators ----------------------------------------------------------


def test_js_estimate_shrinks_by_closed_form_factor():
    y = np.array([3.0, 0.0, -1.0, 2.0, 0.5, 0.0, 1.0])
    z = float(np.sum(y * y))
    np.testing.assert_allclose(js_estimate(y), (1.0 - 5.0 / z) * y, rtol=1e-14)


def test_js_estimate_zeroes_exactly_at_critical_norm():
    y = np.zeros(7)
    y[0] = math.sqrt(5.0)
    np.testing.assert_allclose(js_estimate(y), np.zeros(7), atol=1e-15)


def test_js_plus_clamps_where_js_overshoots():
    y = np.full(7, 0.5)  # Z = 1.75 < p - 2
    raw = js_estimate(y)
    assert np.all(raw * y <= 0.0)  # sign flipped
    np.testing.assert_allclose(js_plus_estimate(y), np.zeros(7), atol=1e-15)


def test_js_estimate_zero_vector_warns():
    with pytest.warns(NumericalWarning):
        out = js_estimate(np.zeros(5))
    np.testing.assert_allclose(out, np.zeros(5))


def test_js_plus_never_worse_factor_than_js():
    rng = stream(23, "test", "jsplus")
    for _ in range(20):
        y = rng.normal(0.0, 1.0, size=7)
        plus = js_plus_estimate(y)
        raw = js_estimate(y)
        # either identical or clamped to zero
        assert np.allclose(plus, raw) or np.allclose(plus, 0.0)


def test_mle_estimate_is_identity_copy():
    y = np.array([1.0, -2.0, 0.0])
    out = mle_estimate(y)
    np.testing.assert_array_equal(out, y)
    assert out is not y


def test_mle_simulated_risk_is_dimension():
    sim = simulate_estimator_risk("mle", 7, 1.5, n_mc=50_000, seed=29)
    assert abs(sim.mse - 7.0) <= 3.0 * sim.mc_std_err


def test_simulate_estimator_rejects_unknown_tag():
    with pytest.raises(DomainError):
        simulate_estimator_risk("ridge", 7, 1.0, n_mc=100, seed=0)


# ---- risk curves ----------------------------------------------------------------------


def test_risk_curve_shape_and_order():
    spec = RiskCurveSpec(
        p=7,
        beta_norms=(0.0, 1.0, 3.0),
        n_mc=2_000,
        seed=99,
        prior=half_cauchy(),
        comparators=frozenset({"js", "mle"}),
    )
    points = risk_curve(spec)
    assert len(points) == 9
    tags = [pt.estimator_tag for pt in points]
    assert tags == ["bayes"] * 3 + ["js"] * 3 + ["mle"] * 3
    for pt in points:
        assert pt.mse > 0.0
        assert pt.mc_std_err >= 0.0
    norms = [pt.beta_norm for pt in points[:3]]
    assert norms == [0.0, 1.0, 3.0]


def test_risk_curve_deterministic_given_seed():
    spec = RiskCurveSpec(
        p=7,
        beta_norms=(0.0, 2.0),
        n_mc=1_000,
        seed=42,
        prior=half_cauchy(),
        comparators=frozenset({"js_plus"}),
    )
    first = risk_curve(spec)
    second = risk_curve(spec)
    assert [(a.mse, a.mc_std_err) for a in first] == [(b.mse, b.mc_std_err) for b in second]


def test_risk_curve_spec_validation():
    good = dict(p=7, beta_norms=(0.0, 1.0), n_mc=10, seed=0, prior=half_cauchy())
    RiskCurveSpec(**good)
    with pytest.raises(DomainError):
        RiskCurveSpec(**{**good, "p": 2})
    with pytest.raises(DomainError):
        RiskCurveSpec(**{**good, "beta_norms": (2.0, 1.0)})
    with pytest.raises(DomainError):
        RiskCurveSpec(**{**good, "beta_norms": ()})
    with pytest.raises(DomainError):
        RiskCurveSpec(**{**good, "n_mc": 1})
    with pytest.raises(DomainError):
        RiskCurveSpec(**{**good, "comparators": frozenset({"ridge"})})


def test_risk_inputs_are_checked_once_and_still_rejected():
    # sure_integrand leaves Z to posterior.update, js_risk leaves the norm to
    # _check_point; both still refuse bad input with a DomainError
    for z in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="Z must be nonnegative and finite"):
            sure_integrand(half_cauchy(), 7, z)
    for p, beta_norm in ((2, 1.0), (7.0, 1.0), (7, -1.0), (7, math.nan), (7, math.inf)):
        with pytest.raises(DomainError):
            js_risk(p, beta_norm)


# ---- structural identity between risk and posterior layers ----------------------------


def test_integrand_uses_posterior_shrinkage_weight():
    # the g(Z) inside the risk expression is the posterior mean weight
    prior = HIBParams(1.0, 0.5, 4.0, 0.0)
    p, z = 7, 12.0
    g = kappa_moment(update(prior, p, z, 1.0), 1)
    g2 = kappa_moment(update(prior, p, z, 1.0), 2)
    expected = z * g2 - p * g - 0.5 * z * g * g
    assert rel_err(sure_integrand(prior, p, z), expected) < 1e-12


def test_risk_curve_bitwise_equal_across_thread_counts(monkeypatch):
    # small batch blocks, so every point's draws are summed in several blocks
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 4096)
    spec = RiskCurveSpec(p=7, beta_norms=(0.0, 3.0, 6.0), n_mc=10_000, seed=11,
                         prior=half_cauchy(), comparators=frozenset({"js_plus"}))
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HIBSHRINK_THREADS", threads)
        results.append([(pt.mse, pt.mc_std_err) for pt in risk_curve(spec)])
    assert results[0] == results[1]
