"""Sparse-signal experiment: simulated replicate data, the blocked sampler
for means / local scales / global scale, streaming log-mean-exp profile
accumulation, and the overlay densities."""

import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from hibshrink import sparse
from hibshrink.errors import DomainError, HibshrinkError
from hibshrink.quadrature import integrate_unit
from hibshrink.sparse import (
    GibbsConfig,
    _GlobalScaleDraw,
    _LikelihoodRows,
    LogMeanExpAccumulator,
    SparseDataset,
    conditional_log_likelihood,
    gibbs_update_global_scale,
    gibbs_update_local_scales,
    gibbs_update_means,
    horseshoe_gibbs,
    ig_induced_density,
    simulate_sparse,
)
from hibshrink.streams import stream


# ---- dataset ----------------------------------------------------------------


def test_simulate_sparse_shape_and_signal():
    data = simulate_sparse(3)
    assert data.beta_true.shape == (50,)
    assert data.y.shape == (50, 3)
    assert data.n_rep == 3
    assert data.sigma == 1.0
    # five descending signal coordinates, the rest exactly zero
    np.testing.assert_array_equal(data.beta_true[:5], [5.0, 4.0, 3.0, 2.0, 1.0])
    np.testing.assert_array_equal(data.beta_true[5:], np.zeros(45))


def test_simulate_sparse_replicate_means_near_truth():
    data = simulate_sparse(3)
    row_means = data.y.mean(axis=1)
    # each replicate mean has standard deviation 1/sqrt(3)
    assert np.all(np.abs(row_means - data.beta_true) < 3.0 / math.sqrt(3.0))


def test_simulate_sparse_deterministic_and_seed_sensitive():
    a = simulate_sparse(9)
    b = simulate_sparse(9)
    c = simulate_sparse(10)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_simulate_sparse_pure_noise():
    data = simulate_sparse(3, pure_noise=True)
    np.testing.assert_array_equal(data.beta_true, np.zeros(50))
    # noise draws differ from the signal-case draws
    assert not np.array_equal(data.y, simulate_sparse(3).y)


def test_dataset_validation():
    with pytest.raises(DomainError):
        SparseDataset(np.zeros(3), np.zeros((4, 2)), 2, 1.0)
    with pytest.raises(DomainError):
        SparseDataset(np.zeros(3), np.zeros((3, 2)), 3, 1.0)
    with pytest.raises(DomainError):
        SparseDataset(np.zeros(3), np.zeros((3, 2)), 2, 0.0)
    with pytest.raises(DomainError):
        SparseDataset(np.zeros(3), np.full((3, 2), np.inf), 2, 1.0)
    # n_rep is checked before it is used in the expected shape of y
    for bad_n_rep in (None, "3"):
        with pytest.raises(DomainError, match="n_rep must be a positive integer"):
            SparseDataset(np.zeros(3), np.zeros((3, 3)), bad_n_rep, 1.0)
    for bad_sigma in (None, "1"):
        with pytest.raises(DomainError, match="sigma must be positive"):
            SparseDataset(np.zeros(3), np.zeros((3, 2)), 2, bad_sigma)


def test_dataset_from_lists_runs_likelihood_and_sampler():
    data = SparseDataset([0.0, 0.0], [[0.5], [1.0]], 1, 1.0)
    assert isinstance(data.y, np.ndarray) and data.y.dtype == float
    assert isinstance(data.beta_true, np.ndarray) and data.beta_true.dtype == float
    expected = sum(-0.5 * math.log(2.0 * math.pi * 2.0) - v * v / 4.0 for v in (0.5, 1.0))
    assert abs(conditional_log_likelihood(data, 1.0, 1.0, [1.0, 1.0]) - expected) < 1e-12
    result = horseshoe_gibbs(data, GibbsConfig(n_iter=20, burn_in=5, seed=1))
    assert np.all(np.isfinite(result.profile))
    assert result.profile.max() == 1.0


def test_gibbs_config_validation():
    GibbsConfig(n_iter=100, burn_in=10)
    with pytest.raises(DomainError):
        GibbsConfig(n_iter=100, burn_in=100)
    with pytest.raises(DomainError):
        GibbsConfig(n_iter=0)
    with pytest.raises(DomainError):
        GibbsConfig(lambda_grid=(0.1, 5.0))  # grid must end at the cap
    with pytest.raises(DomainError):
        GibbsConfig(lambda_grid=(5.0, 0.1, 10.0))  # must ascend


# ---- conditional log likelihood ------------------------------------------------


def test_cll_tiny_scale_collapses_to_point_mass_at_zero():
    data = simulate_sparse(3)
    got = conditional_log_likelihood(data, 1e-12, 1.0, np.ones(50))
    expected = -0.5 * data.y.size * math.log(2.0 * math.pi) - float(np.sum(data.y**2)) / 2.0
    assert abs(got - expected) < 1e-6


def test_cll_single_replicate_closed_form():
    y = np.array([[0.7], [-1.1], [2.0]])
    data = SparseDataset(np.zeros(3), y, 1, 1.0)
    u2 = np.array([1.0, 4.0, 0.25])
    lam = 1.5
    got = conditional_log_likelihood(data, lam, 1.0, u2)
    expected = 0.0
    for yi, ui2 in zip(y[:, 0], u2):
        var = 1.0 + lam * lam * ui2
        expected += -0.5 * math.log(2.0 * math.pi * var) - yi * yi / (2.0 * var)
    assert abs(got - expected) < 1e-10


def test_cll_matches_per_row_quadrature():
    # independent route: integrate the row likelihood against the
    # conditional mean prior N(0, lam^2 u_i^2 sigma^2) numerically
    data = simulate_sparse(7)
    rows = 4
    small = SparseDataset(data.beta_true[:rows], data.y[:rows], data.n_rep, data.sigma)
    u2 = np.array([0.5, 1.0, 2.0, 4.0])
    lam, sigma = 1.3, 1.0
    expected = 0.0
    for i in range(rows):
        yrow = small.y[i]
        prior_sd = lam * math.sqrt(u2[i]) * sigma
        half = 10.0 * (prior_sd + sigma)

        def f(t: float, yrow=yrow, prior_sd=prior_sd) -> float:
            b = half * (2.0 * t - 1.0)
            log_lik = sum(
                -0.5 * math.log(2.0 * math.pi * sigma**2) - (yj - b) ** 2 / (2.0 * sigma**2)
                for yj in yrow
            )
            log_prior = -0.5 * math.log(2.0 * math.pi * prior_sd**2) - b * b / (
                2.0 * prior_sd**2
            )
            return 2.0 * half * math.exp(log_lik + log_prior)

        expected += math.log(integrate_unit(f, 1.0, 1.0))
    got = conditional_log_likelihood(small, lam, sigma, u2)
    assert abs(got - expected) < 1e-6


def _reference_rows(data, sigma, lam2, u2):
    # the per-row formula, summed over rows, with no hoisting or buffer reuse
    s1 = data.y.sum(axis=1)
    s2 = (data.y * data.y).sum(axis=1)
    sigma2 = sigma * sigma
    a = lam2[None, :] * u2[:, None]
    denom = 1.0 + data.n_rep * a
    quad = (s2[:, None] - a * (s1 * s1)[:, None] / denom) / sigma2
    rows = -0.5 * np.log(denom) - 0.5 * quad
    base = -0.5 * data.n_rep * math.log(2.0 * math.pi * sigma2) * s1.size
    return rows.sum(axis=0) + base


@pytest.mark.parametrize("sigma", [1.0, 1.7])
def test_likelihood_rows_match_per_row_formula(sigma):
    data = simulate_sparse(2)
    lam = np.linspace(0.05, 10.0, 200)
    rows = _LikelihoodRows(data, sigma, lam * lam)
    rng = stream(12, "test", "rows")
    for _ in range(20):
        u2 = 10.0 ** rng.uniform(-12.0, 12.0, size=50)
        expected = _reference_rows(data, sigma, lam * lam, u2)
        got = rows(u2)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


# ---- streaming log-mean-exp ------------------------------------------------------


class _BranchingAccumulator:
    # the two-branch update: rescale the sum when a row raises the maximum
    def __init__(self, size):
        self.max = np.full(size, -np.inf)
        self.sum = np.zeros(size)

    def add(self, l):
        grow = l > self.max
        self.sum = np.where(
            grow,
            self.sum * np.exp(self.max - l) + 1.0,
            self.sum + np.exp(l - self.max),
        )
        self.max = np.maximum(self.max, l)


@pytest.mark.parametrize("shift", [0.0, 700.0, -700.0])
def test_log_mean_exp_matches_branching_update_bitwise(shift):
    rng = stream(13, "test", "lse-bits")
    rows = rng.normal(0.0, 3.0, size=(5_000, 12)) + shift
    # exact ties with the running maximum
    rows[100:200] = rows[99]
    rows[300, :6] = np.maximum.accumulate(rows[:300], axis=0)[-1, :6]
    acc = LogMeanExpAccumulator(12)
    ref = _BranchingAccumulator(12)
    for row in rows:
        acc.add(row)
        ref.add(row)
    np.testing.assert_array_equal(acc._max, ref.max)
    np.testing.assert_array_equal(acc._sum, ref.sum)
    np.testing.assert_array_equal(
        acc.log_mean(), ref.max + np.log(ref.sum) - math.log(len(rows))
    )




def test_log_mean_exp_matches_naive_on_small_values():
    rng = stream(4, "test", "lse")
    rows = rng.normal(0.0, 1.0, size=(200, 16))
    acc = LogMeanExpAccumulator(16)
    for row in rows:
        acc.add(row)
    naive = np.log(np.mean(np.exp(rows), axis=0))
    np.testing.assert_allclose(acc.log_mean(), naive, atol=1e-12)


def test_log_mean_exp_shift_invariance():
    rng = stream(5, "test", "lse-shift")
    rows = rng.normal(0.0, 2.0, size=(150, 8))
    shift = 700.0  # would overflow exp() if handled naively
    a = LogMeanExpAccumulator(8)
    b = LogMeanExpAccumulator(8)
    for row in rows:
        a.add(row)
        b.add(row + shift)
    np.testing.assert_allclose(b.log_mean(), a.log_mean() + shift, atol=1e-10)


# ---- blocked sampler kernels -------------------------------------------------------


def test_gibbs_means_match_conjugate_posterior():
    # with scales frozen, the mean update is an exact Gaussian draw whose
    # moments are known in closed form
    rng = stream(6, "test", "means")
    s1 = np.array([9.0, -3.0, 0.0])
    n_rep, sigma, lam = 3, 1.0, 2.0
    u2 = np.array([1.0, 4.0, 0.25])
    v = 1.0 / (n_rep / sigma**2 + 1.0 / (lam**2 * sigma**2 * u2))
    target_mean = v * s1 / sigma**2
    draws = np.array([gibbs_update_means(rng, s1, n_rep, sigma, lam, u2) for _ in range(20_000)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target_mean) <= 3.0 * se)
    var_got = draws.var(axis=0, ddof=1)
    assert np.all(np.abs(var_got - v) / v < 0.1)


def test_gibbs_local_scales_stay_calibrated_on_noise():
    # alternate means and local scales on pure-noise data with the global
    # scale pinned at 1; the stationary draws should hover near unit scale
    data = simulate_sparse(11, pure_noise=True)
    s1 = data.y.sum(axis=1)
    rng = stream(7, "test", "locals")
    u2 = np.ones(50)
    lam, sigma = 1.0, 1.0
    kept = []
    for sweep in range(2_000):
        beta = gibbs_update_means(rng, s1, data.n_rep, sigma, lam, u2)
        u2 = gibbs_update_local_scales(rng, beta, sigma, lam, u2)
        if sweep >= 500:
            kept.append(np.sqrt(u2))
    med = float(np.median(np.concatenate(kept)))
    assert 0.5 <= med <= 2.0


def test_gibbs_global_scale_concentrates_on_strong_signal():
    # beta fixed at norm sqrt(50)*5 makes the conditional peak at lam = 5
    rng = stream(8, "test", "global")
    grid = np.linspace(0.05, 10.0, 400)
    draws = [
        gibbs_update_global_scale(rng, np.full(50, 5.0), 1.0, np.ones(50), grid)
        for _ in range(3_000)
    ]
    assert 4.0 <= float(np.median(draws)) <= 6.0
    assert all(grid[0] <= d <= grid[-1] for d in draws)


def _written_out_global_scale(rng, beta, sigma, u2, grid):
    # the update with every constant recomputed per call
    s_stat = float(np.sum(beta * beta / (sigma * sigma * u2)))
    logw = -beta.size * np.log(grid) - 0.5 * s_stat / (grid * grid)
    cdf = np.cumsum(np.exp(logw - logw.max()))
    return float(grid[int(np.searchsorted(cdf, rng.random() * cdf[-1]))])


def test_global_scale_draw_with_hoisted_constants_keeps_every_bit():
    # the chain's private draw builds -p log(grid) and grid^2 once; the same
    # draws through the public update and the written-out formula give the
    # same lambda at every sweep
    data = simulate_sparse(3)
    grid = np.asarray(GibbsConfig().lambda_grid)
    s1 = data.y.sum(axis=1)
    draw = _GlobalScaleDraw(grid, s1.size)
    sequences = []
    for update in (
        lambda rng, beta, u2: _written_out_global_scale(rng, beta, data.sigma, u2, grid),
        lambda rng, beta, u2: gibbs_update_global_scale(rng, beta, data.sigma, u2, grid),
        lambda rng, beta, u2: draw(rng, beta, data.sigma, u2),
    ):
        rng = stream(8, "test", "global-scale")
        u2, lam, lams = np.ones(s1.size), 1.0, []
        for _ in range(2_000):
            beta = gibbs_update_means(rng, s1, data.n_rep, data.sigma, lam, u2)
            u2 = gibbs_update_local_scales(rng, beta, data.sigma, lam, u2)
            lam = update(rng, beta, u2)
            lams.append(lam)
        sequences.append(np.array(lams))
    assert np.unique(sequences[0]).size > 10  # the chain moves
    np.testing.assert_array_equal(sequences[0], sequences[1])
    np.testing.assert_array_equal(sequences[0], sequences[2])


# ---- full sampler and profile --------------------------------------------------------


SMALL_CFG = GibbsConfig(n_iter=1_500, burn_in=500, seed=0)


def test_profile_normalized_to_unit_maximum():
    data = simulate_sparse(0)
    result = horseshoe_gibbs(data, SMALL_CFG)
    assert float(result.profile.max()) == 1.0
    assert np.all(result.profile >= 0.0)
    assert np.all(np.isfinite(result.profile))
    assert result.lambda_grid.shape == result.profile.shape
    assert result.overlay_half_cauchy.shape == result.profile.shape
    assert result.overlay_ig_induced.shape == result.profile.shape


def test_profile_deterministic_given_config():
    data = simulate_sparse(0)
    a = horseshoe_gibbs(data, SMALL_CFG)
    b = horseshoe_gibbs(data, SMALL_CFG)
    np.testing.assert_array_equal(a.profile, b.profile)
    c = horseshoe_gibbs(data, GibbsConfig(n_iter=1_500, burn_in=500, seed=1))
    assert not np.array_equal(a.profile, c.profile)


def test_profile_pure_noise_concentrates_at_small_scale():
    data = simulate_sparse(0, pure_noise=True)
    cfg = GibbsConfig(n_iter=2_000, burn_in=500, seed=0)
    result = horseshoe_gibbs(data, cfg)
    argmax = int(np.argmax(result.profile))
    assert result.lambda_grid[argmax] < 1.0
    at_five = int(np.argmin(np.abs(result.lambda_grid - 5.0)))
    assert result.profile[at_five] < 1e-6


@pytest.mark.parametrize("seed", [0, 1])
def test_profile_matches_reference_sweep(seed):
    # same draws through the public updates, rows from the per-row formula
    # and the two-branch accumulator
    data = simulate_sparse(0)
    cfg = GibbsConfig(n_iter=1_500, burn_in=500, seed=seed)
    grid = np.asarray(cfg.lambda_grid)
    s1 = data.y.sum(axis=1)
    rng = stream(seed, "horseshoe-gibbs")
    u2, lam = np.ones(50), 1.0
    ref = _BranchingAccumulator(grid.size)
    for sweep in range(cfg.n_iter):
        beta = gibbs_update_means(rng, s1, data.n_rep, data.sigma, lam, u2)
        u2 = gibbs_update_local_scales(rng, beta, data.sigma, lam, u2)
        lam = gibbs_update_global_scale(rng, beta, data.sigma, u2, grid)
        if sweep >= cfg.burn_in:
            ref.add(_reference_rows(data, data.sigma, grid * grid, u2))
    log_mean = ref.max + np.log(ref.sum)
    expected = np.exp(log_mean - log_mean.max())
    result = horseshoe_gibbs(data, cfg)
    np.testing.assert_allclose(result.profile, expected, rtol=0.0, atol=1e-12)


def test_overlays_are_the_reference_densities():
    data = simulate_sparse(0)
    result = horseshoe_gibbs(data, SMALL_CFG)
    lam = result.lambda_grid
    np.testing.assert_allclose(
        result.overlay_half_cauchy, 2.0 / (math.pi * (1.0 + lam * lam)), rtol=1e-12
    )
    np.testing.assert_allclose(
        result.overlay_ig_induced,
        np.array([ig_induced_density(float(v)) for v in lam]),
        rtol=1e-12,
    )


def test_overlay_computes_normalizer_once(normalizer_calls):
    horseshoe_gibbs(simulate_sparse(0), GibbsConfig(n_iter=20, burn_in=5, seed=0))
    assert len(normalizer_calls) == 1


# ---- induced inverse-gamma overlay ----------------------------------------------------


def test_ig_induced_density_vanishes_at_origin():
    assert ig_induced_density(0.01) < 1e-6
    assert ig_induced_density(0.05) < 1e-3


def test_ig_induced_density_is_zero_where_lambda_squared_underflows():
    # lam^2 rounds to 0 there; the density's exponential underflowed long before
    for lam in (1e-170, 1e-200, 5e-324):
        assert ig_induced_density(lam) == 0.0


def test_ig_induced_density_mode():
    # closed-form mode of sqrt(2/pi) l^-2 exp(-1/(2 l^2)) is 1/sqrt(2)
    mode = 1.0 / math.sqrt(2.0)
    assert ig_induced_density(mode) > ig_induced_density(mode - 0.05)
    assert ig_induced_density(mode) > ig_induced_density(mode + 0.05)


def test_ig_induced_density_total_mass():
    f = lambda t: ig_induced_density(t / (1.0 - t)) / (1.0 - t) ** 2
    mass = integrate_unit(f, 1.0, 1.0)
    assert abs(mass - 1.0) < 1e-8


# ---- where the likelihood rows are summed ---------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


@pytest.fixture
def helpers_started(monkeypatch):
    """List that gains one entry per likelihood helper process started."""
    started = []

    class Counted(sparse._HelperRows):
        def __init__(self, *args):
            started.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sparse, "_HelperRows", Counted)
    return started


@needs_fork
@pytest.mark.parametrize("seed", [0, 1])
def test_helper_process_and_inline_rows_agree_bitwise(seed, monkeypatch, helpers_started):
    data = simulate_sparse(4)
    cfg = GibbsConfig(n_iter=3_000, burn_in=1_000, seed=seed)
    results = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("HIBSHRINK_THREADS", threads)
        results[threads] = horseshoe_gibbs(data, cfg)
    assert len(helpers_started) == 1  # at 2 workers only
    for name in ("profile", "overlay_half_cauchy", "overlay_ig_induced"):
        np.testing.assert_array_equal(
            getattr(results["1"], name), getattr(results["2"], name)
        )


@pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=needs_fork)])
def test_non_finite_row_raises_the_same_error_on_either_side(
    threads, monkeypatch, helpers_started
):
    # the 100th retained row is NaN; under fork the helper inherits the patch
    calls = []
    real = _LikelihoodRows.__call__

    def poisoned(self, u2):
        row = real(self, u2)
        calls.append(None)
        if len(calls) == 100:
            row[7] = np.nan
        return row

    monkeypatch.setattr(_LikelihoodRows, "__call__", poisoned)
    monkeypatch.setenv("HIBSHRINK_THREADS", threads)
    with pytest.raises(HibshrinkError) as excinfo:
        horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    assert type(excinfo.value) is HibshrinkError
    assert str(excinfo.value) == "non-finite conditional likelihood in sampler"
    assert len(helpers_started) == (threads == "2")
    assert multiprocessing.active_children() == []


class _Boom(Exception):
    pass


@pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=needs_fork)])
def test_chain_exception_propagates_and_ends_the_helper(
    threads, monkeypatch, helpers_started
):
    boom = _Boom("mid-chain")
    calls = []
    real = sparse.gibbs_update_local_scales

    def failing(*args):
        calls.append(None)
        if len(calls) == 900:  # past burn-in, so blocks have gone out
            raise boom
        return real(*args)

    monkeypatch.setattr(sparse, "gibbs_update_local_scales", failing)
    monkeypatch.setenv("HIBSHRINK_THREADS", threads)
    with pytest.raises(_Boom) as excinfo:
        horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    assert excinfo.value is boom
    assert len(helpers_started) == (threads == "2")
    assert multiprocessing.active_children() == []


@needs_fork
def test_helper_that_dies_raises_a_package_error(monkeypatch, helpers_started):
    chain_pid = os.getpid()
    real = _LikelihoodRows.__call__

    def dying(self, u2):
        if os.getpid() != chain_pid:
            os._exit(3)
        return real(self, u2)

    monkeypatch.setattr(_LikelihoodRows, "__call__", dying)
    monkeypatch.setenv("HIBSHRINK_THREADS", "2")
    with pytest.raises(HibshrinkError, match="helper process ended early"):
        horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    assert len(helpers_started) == 1
    assert multiprocessing.active_children() == []


def test_other_live_thread_keeps_the_rows_inline(monkeypatch, helpers_started):
    # a fork copies only the calling thread, so with another thread alive
    # the chain sums its rows itself
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        monkeypatch.setenv("HIBSHRINK_THREADS", "2")
        horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert helpers_started == []
