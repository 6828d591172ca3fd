"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (visible under -s; `pytest -v` shows one line per criterion
regardless) and asserting its own runtime budget."""

import math
import time
from contextlib import contextmanager

import numpy as np

from hibshrink.cli import main as cli_main
from hibshrink.posterior import kappa_moment, prior_state, update
from hibshrink.prior import (
    HIBParams,
    density_kappa,
    density_lambda2,
    half_cauchy,
    hyperbolic_secant_density,
)
from hibshrink.quadrature import oracle_hib_moment
from hibshrink.oracles import phi1_double_series, risk_direct
from hibshrink.risk import js_risk, risk_analytic
from hibshrink.sparse import GibbsConfig, horseshoe_gibbs, ig_induced_density, simulate_sparse
from hibshrink.specfun import Phi1Args, phi1
from hibshrink.streams import stream

PRIOR_GRID = [
    HIBParams(a, b, tau2, s)
    for a in (0.3, 0.5, 1.0, 2.0)
    for b in (0.3, 0.5, 1.0, 2.0)
    for tau2 in (0.25, 1.0, 4.0)
    for s in (-1.0, 0.0, 3.0)
]
PZ_PAIRS = [(0, 0.0), (7, 5.0), (15, 50.0)]


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_limit, f"runtime {elapsed:.1f}s exceeds {time_limit:.0f}s budget"
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def rel_err(got: float, expected: float) -> float:
    if expected == 0.0:
        return abs(got)
    return abs(got - expected) / abs(expected)


def test_criterion_01_series_representations_cross_validate():
    with criterion(1, "phi1 vs direct double series, 225-point grid, rel <= 1e-8", 5.0):
        for alpha in (0.5, 1.0, 2.5):
            for gamma in (1.0, 1.5, 3.0):
                for x in (-10.0, -1.0, 0.0, 1.0, 10.0):
                    for y in (-5.0, -0.5, 0.0, 0.5, 0.9):
                        a = phi1(Phi1Args(alpha, 1.0, gamma, x, y)).value
                        b = phi1_double_series(Phi1Args(alpha, 1.0, gamma, x, y)).value
                        assert rel_err(a, b) <= 1e-8, (alpha, gamma, x, y)


def test_criterion_02_moment_formula_vs_quadrature_oracle():
    with criterion(2, "posterior kappa mean vs quadrature oracle, 432 points, rel <= 1e-6", 30.0):
        for prior in PRIOR_GRID:
            for (p, z) in PZ_PAIRS:
                state = prior_state(prior) if p == 0 else update(prior, p, z, 1.0)
                series = kappa_moment(state, 1)
                oracle = oracle_hib_moment(prior, 1, p, z)
                assert rel_err(series, oracle) <= 1e-6, (prior, p, z)


def test_criterion_03_risk_formula_vs_direct_simulation():
    with criterion(3, "analytic-risk route vs direct estimator simulation, 3 combined se", 120.0):
        hc = half_cauchy()
        for p in (7, 15):
            for beta_norm in (0.0, 1.0, 2.0, 4.0):
                a = risk_analytic(hc, p, beta_norm, n_mc=200_000, seed=2026)
                d = risk_direct(hc, p, beta_norm, n_mc=200_000, seed=4052)
                gap = abs(a.mse - d.mse)
                combined = math.hypot(a.mc_std_err, d.mc_std_err)
                assert gap <= 3.0 * combined, (p, beta_norm, a.mse, d.mse, combined)


def test_criterion_04_james_stein_anchors():
    with criterion(4, "James-Stein closed-form risk anchors", 1.0):
        assert abs(js_risk(7, 0.0) - 2.0) <= 1e-9
        # Tail gap is (p-2)^2 E[1/(p-2+2K)], K ~ Poisson(5000): about
        # (p-2)^2/1e4, so the 1e-2 bound is a p=7 statement (2.5e-3);
        # it is arithmetically false for p >= 13.
        assert abs(js_risk(7, 100.0) - 7.0) <= 1e-2


def test_criterion_05_half_cauchy_risk_curve_shape():
    with criterion(5, "half-Cauchy risk below JS at origin, near p in the tail", 120.0):
        hc = half_cauchy()
        for p in (7, 15):
            origin = risk_analytic(hc, p, 0.0, n_mc=200_000, seed=2026)
            assert origin.mse + 3.0 * origin.mc_std_err < 2.0, (p, origin.mse)
            tail = risk_analytic(hc, p, math.sqrt(100.0 * p), n_mc=200_000, seed=2026)
            assert abs(tail.mse - p) <= 0.1 * p, (p, tail.mse)


def test_criterion_06_hyperparameter_direction_tradeoffs():
    with criterion(6, "aggressive variants beat half-Cauchy at origin, lose minimaxity", 180.0):
        hc = half_cauchy()
        variants = [
            HIBParams(0.5, 0.5, 1.0, -2.0),   # stronger tilt toward full shrinkage
            HIBParams(0.5, 0.5, 0.25, 0.0),   # smaller global scale
            HIBParams(4.0, 1.0, 1.0, 0.0),    # heavier origin pull via shape
        ]
        origin_hc = risk_analytic(hc, 7, 0.0, n_mc=200_000, seed=2026)
        for prior in variants:
            origin = risk_analytic(prior, 7, 0.0, n_mc=200_000, seed=2026)
            combined = math.hypot(origin.mc_std_err, origin_hc.mc_std_err)
            assert origin.mse + 3.0 * combined < origin_hc.mse, (prior, origin.mse)

        exceeds = False
        for prior in variants:
            for beta_norm in (2.0, 3.0, 4.0, 5.0, 6.0):
                point = risk_analytic(prior, 7, beta_norm, n_mc=100_000, seed=2026)
                if point.mse - 3.0 * point.mc_std_err > 7.0:
                    exceeds = True
                    break
            if exceeds:
                break
        assert exceeds, "no variant exceeded the MLE risk on the sweep"


def test_criterion_07_random_mean_vector_beats_mle():
    with criterion(7, "seed-fixed 10-dim Gaussian means: direct risk below 10", 30.0):
        rng = stream(2026, "acceptance", "criterion7")
        beta = rng.normal(0.0, 1.0, size=10)
        beta_norm = float(np.linalg.norm(beta))
        point = risk_direct(half_cauchy(), 10, beta_norm, n_mc=100_000, seed=7)
        assert point.mse + 3.0 * point.mc_std_err < 10.0, point.mse


def test_criterion_08_marginal_likelihood_profile_properties():
    with criterion(8, "profile max exactly 1, overlays separate, seeds agree to 0.05", 120.0):
        data = simulate_sparse(0)
        # Chain length frozen after a pilot study of two-seed agreement.
        # The profile value at the smallest grid scales is carried by rare
        # draws with very large local scales on the five signal rows, so
        # the pointwise average there converges slowly: max pointwise
        # disagreement was 0.89 at 20k sweeps, 0.23 at 60k, 0.086 at 150k,
        # and 0.006 at 250k, always at the leftmost grid point.
        cfg = dict(n_iter=250_000, burn_in=10_000)
        first = horseshoe_gibbs(data, GibbsConfig(seed=0, **cfg))
        second = horseshoe_gibbs(data, GibbsConfig(seed=1, **cfg))
        assert float(first.profile.max()) == 1.0
        assert float(second.profile.max()) == 1.0
        assert ig_induced_density(0.01) < 1e-6
        assert 2.0 / (math.pi * (1.0 + 0.01**2)) > 0.6
        assert float(np.max(np.abs(first.profile - second.profile))) <= 0.05


def test_criterion_09_change_of_variables_identities():
    with criterion(9, "scale/log-scale and scale-squared/weight density identities", 1.0):
        for lam in (0.5, 1.0, 2.0):
            log_scale = hyperbolic_secant_density(2.0 * math.log(lam)) * 2.0 / lam
            half_cauchy_val = 2.0 / (math.pi * (1.0 + lam * lam))
            assert rel_err(log_scale, half_cauchy_val) <= 1e-12, lam
        for prior in PRIOR_GRID:
            for lam2 in (0.25, 1.0, 4.0):
                kappa = 1.0 / (1.0 + lam2)
                lhs = density_lambda2(prior, lam2)
                rhs = density_kappa(prior, kappa) * kappa * kappa
                assert rel_err(lhs, rhs) <= 1e-12, (prior, lam2)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every CLI subcommand byte-identical across reruns", 120.0):
        def stdout_of(argv):
            code = cli_main(argv)
            assert code == 0, argv
            return capsys.readouterr().out

        def file_of(argv, path):
            code = cli_main(argv + ["--out", str(path)])
            assert code == 0, argv
            return path.read_bytes()

        phi1_argv = ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1.5",
                     "--x", "-2", "--y", "0.3", "--oracle"]
        assert stdout_of(phi1_argv) == stdout_of(phi1_argv)

        cases = [
            ("prior-density", ["prior-density", "--var", "lambda2", "--prior",
                               "0.5,1,4,-1", "--grid", "0.1:5:40"]),
            ("shrink", None),  # assembled below; needs the input file
            ("risk-curve", ["risk-curve", "--p", "7", "--grid", "0:4:5", "--mc", "400",
                            "--seed", "11", "--compare", "js,js_plus,mle"]),
            ("simulate-sparse", ["simulate-sparse", "--seed", "3", "--pure-noise"]),
            ("marglik-profile", ["marglik-profile", "--seed", "1", "--data-seed", "2",
                                 "--iters", "400", "--burn-in", "100",
                                 "--grid-size", "40"]),
        ]
        src = tmp_path / "y.txt"
        src.write_text("0.5 -1.5 2.0 0.0 3.5 -0.25 1.0\n")
        cases[1] = ("shrink", ["shrink", "--input", str(src), "--sigma2", "2.0"])

        for name, argv in cases:
            first = file_of(list(argv), tmp_path / f"{name}-a.out")
            second = file_of(list(argv), tmp_path / f"{name}-b.out")
            assert first == second, name
