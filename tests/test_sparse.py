"""Sparse-signal experiment: simulated replicate data, the blocked sampler
for means / local scales / global scale, streaming log-mean-exp profile
accumulation, and the overlay densities."""

import errno
import math
import multiprocessing
import multiprocessing.context
import os
import threading
import warnings

import numpy as np
import pytest

from hibshrink import cli, sparse
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
from hibshrink.streams import check_seed, stream, worker_count


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


def test_simulate_sparse_refuses_a_seed_outside_64_bits():
    # a negative seed was masked to 2**64 - 1 and drew that seed's data
    with pytest.raises(DomainError):
        simulate_sparse(-1)
    with pytest.raises(DomainError):
        simulate_sparse(2**64)
    simulate_sparse(2**64 - 1)
    with pytest.raises(DomainError):
        stream(-1, "test")


def test_check_seed_refuses_a_bool():
    # True and False are ints, and passed as seeds 1 and 0
    for seed in (True, False):
        with pytest.raises(DomainError, match="seed"):
            check_seed(seed)
    assert check_seed(1) == 1


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


def test_dataset_refuses_a_bool_n_rep_or_sigma():
    # True passed for n_rep 1 and for sigma 1.0
    with pytest.raises(DomainError, match="n_rep must be a positive integer"):
        SparseDataset(np.zeros(3), np.zeros((3, 1)), True, 1.0)
    with pytest.raises(DomainError, match="sigma must be positive"):
        SparseDataset(np.zeros(3), np.zeros((3, 1)), 1, True)


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


def test_gibbs_config_refuses_a_bool_count():
    # True and False passed for n_iter 1 and burn_in 0
    with pytest.raises(DomainError, match="n_iter"):
        GibbsConfig(n_iter=True, burn_in=0)
    with pytest.raises(DomainError, match="burn_in"):
        GibbsConfig(n_iter=1, burn_in=False)
    GibbsConfig(n_iter=1, burn_in=0)


def test_gibbs_config_refuses_a_grid_point_the_chain_cannot_use():
    # a NaN point once failed the chain's likelihood check, and a point
    # whose square underflows to 0 made the global-scale draw divide by 0
    for grid in ((0.05, math.nan, 10.0), (math.inf, 10.0), (1e-200, 10.0)):
        with pytest.raises(DomainError, match="lambda_grid"):
            GibbsConfig(lambda_grid=grid)


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


@pytest.mark.parametrize(
    "lam, sigma, u2_value, name",
    [
        (1e160, 1.0, 1.0, "lam"),  # lam^2 overflows: a silent NaN once
        (10.0, 1.0, 1e307, "u2"),  # n lam^2 u^2 overflows: NaN
        (1.0, 1e200, 1.0, "sigma"),  # sigma^2 overflows: -inf, though the value is finite
        (1.0, 1e-200, 1.0, "sigma"),  # sigma^2 underflows to 0: a ZeroDivisionError
    ],
    ids=["lam2-overflow", "u2-overflow", "sigma2-inf", "sigma2-zero"],
)
def test_cll_refuses_arguments_out_of_the_float_range(lam, sigma, u2_value, name):
    data = simulate_sparse(0)
    with pytest.raises(DomainError, match=f"^{name} must"):
        conditional_log_likelihood(data, lam, sigma, np.full(50, u2_value))


@pytest.mark.parametrize("sigma", [1e200, 1e-200, np.float64(1e200)])
def test_dataset_refuses_a_sigma_whose_square_is_zero_or_inf(sigma):
    with pytest.raises(DomainError, match="sigma must be positive, with sigma\\^2"):
        SparseDataset(np.zeros(3), np.zeros((3, 2)), 2, sigma)


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
    u2s = 10.0 ** rng.uniform(-12.0, 12.0, size=(20, 50))
    for start in range(0, len(u2s), sparse._SLAB):
        slab = u2s[start : start + sparse._SLAB]
        for u2, got in zip(slab, rows(slab)):
            expected = _reference_rows(data, sigma, lam * lam, u2)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def _one_row(data, sigma, lam2, u2, logdet="product"):
    # one retained sweep's row, by the operations of a one-row evaluation:
    # d = 1 + n lam^2 u_i^2 as the rank-2 product [u^2, 1] [n lam^2, 1]^T;
    # half the log of the product of the d over the means, or where that
    # product overflows (or with logdet="sum"), half the sum of their logs;
    # and the weights w_i times 1/d taken from a constant that holds sum w
    s1 = data.y.sum(axis=1)
    s2 = (data.y * data.y).sum(axis=1)
    sigma2 = sigma * sigma
    d = np.dot(np.stack([u2, np.ones_like(u2)], axis=1),
               np.stack([data.n_rep * lam2, np.ones_like(lam2)]))
    with np.errstate(over="ignore"):
        half_logdet = 0.5 * np.log(np.multiply.reduce(d, axis=0))
    if logdet == "sum" or not np.isfinite(half_logdet).all():
        half_logdet = np.dot(np.full(s1.size, 0.5), np.log(d))
    weights = 0.5 * s1 * s1 / (sigma2 * data.n_rep)
    const = float(weights.sum()) - 0.5 * float(s2.sum()) / sigma2 - (
        0.5 * data.n_rep * math.log(2.0 * math.pi * sigma2) * s1.size
    )
    row = const - np.dot(weights, 1.0 / d)
    row -= half_logdet
    return row


@pytest.mark.parametrize("sigma", [1.0, 1.7])
@pytest.mark.parametrize("grid_size", [200, 7, 41])
def test_slab_rows_equal_one_row_evaluation_bitwise(sigma, grid_size):
    # 1,003 retained sweeps: 15 full blocks of 64 and one of 43, whose last
    # slab holds 3 rows; the rows stay the chain's buffers, so copy each
    data = simulate_sparse(2)
    lam2 = np.linspace(10.0 / grid_size, 10.0, grid_size) ** 2
    rows = _LikelihoodRows(data, sigma, lam2)
    u2s = 10.0 ** stream(14, "test", "slab-rows").uniform(-12.0, 12.0, size=(1_003, 50))
    got = []
    for start in range(0, len(u2s), sparse._ROW_BLOCK):
        block = u2s[start : start + sparse._ROW_BLOCK]
        got += [slab.copy() for slab in sparse._checked_rows(rows, block)]
    got = np.concatenate(got)
    assert len(got) == len(u2s)
    for u2, row in zip(u2s, got):
        np.testing.assert_array_equal(row, _one_row(data, sigma, lam2, u2))
    # u^2 up to 1e12 overflows the product of many rows: both forms are tested
    with np.errstate(over="ignore"):
        products = [
            np.multiply.reduce(1.0 + np.multiply.outer(u2, data.n_rep * lam2)) for u2 in u2s
        ]
    overflowed = sum(not np.isfinite(product).all() for product in products)
    assert 0 < overflowed < len(u2s)
    # the likelihood at one lambda is a one-row, one-point evaluation
    for lam in (0.05, 1.3, 10.0):
        assert conditional_log_likelihood(data, lam, sigma, u2s[0]) == float(
            _one_row(data, sigma, np.array([lam * lam]), u2s[0])[0]
        )


def test_overflowing_rows_fall_back_alone_to_the_sum_of_logs():
    # a slab of 8 whose rows 2 and 5 have u^2 = 1e12 on every mean: their
    # product of 1 + n lam^2 u^2 passes the float range at every lambda, and
    # they alone take half the sum of the logs, with no RuntimeWarning
    data = simulate_sparse(2)
    lam2 = np.asarray(GibbsConfig().lambda_grid) ** 2
    rows = _LikelihoodRows(data, 1.0, lam2)
    u2s = 10.0 ** stream(15, "test", "overflow-rows").uniform(-2.0, 2.0, size=(8, 50))
    u2s[[2, 5]] = 1e12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slab = rows(u2s).copy()
        alone = [rows(u2[None, :]).copy()[0] for u2 in u2s]
    for u2, row, row_alone in zip(u2s, slab, alone):
        np.testing.assert_array_equal(row, row_alone)
        np.testing.assert_array_equal(row, _one_row(data, 1.0, lam2, u2))
        np.testing.assert_allclose(
            row, _reference_rows(data, 1.0, lam2, u2), rtol=1e-12, atol=0.0
        )
    for r in (2, 5):
        np.testing.assert_array_equal(
            slab[r], _one_row(data, 1.0, lam2, u2s[r], logdet="sum")
        )
    for r in (0, 1, 3, 4, 6, 7):  # the other rows take the product
        product = np.multiply.reduce(1.0 + np.multiply.outer(u2s[r], data.n_rep * lam2))
        assert np.isfinite(product).all()


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


def _tie_laden_rows(shift):
    rng = stream(13, "test", "lse-bits")
    rows = rng.normal(0.0, 3.0, size=(5_000, 12)) + shift
    # exact ties with the running maximum
    rows[100:200] = rows[99]
    rows[300, :6] = np.maximum.accumulate(rows[:300], axis=0)[-1, :6]
    return rows


@pytest.mark.parametrize("shift", [0.0, 700.0, -700.0])
def test_log_mean_exp_matches_branching_update_bitwise(shift):
    rows = _tie_laden_rows(shift)
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


@pytest.mark.parametrize("shift", [0.0, 700.0, -700.0])
def test_slab_adds_agree_with_row_adds_to_a_few_ulp(shift):
    # 5,003 rows: 625 slabs of 8, then a short slab of 3
    rows = _tie_laden_rows(shift)
    rows = np.concatenate([rows, rows[:3]])
    by_row = LogMeanExpAccumulator(12)
    by_slab = LogMeanExpAccumulator(12)
    for row in rows:
        by_row.add(row)
    for start in range(0, len(rows), sparse._SLAB):
        by_slab.add(rows[start : start + sparse._SLAB])
    want = by_row.log_mean()
    got = by_slab.log_mean()
    np.testing.assert_array_equal(by_slab._max, by_row._max)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))


def test_one_row_slab_is_a_row_add_bitwise():
    rows = _tie_laden_rows(700.0)[:500]
    by_row = LogMeanExpAccumulator(12)
    by_slab = LogMeanExpAccumulator(12)
    for row in rows:
        by_row.add(row)
        by_slab.add(row[None, :])
    np.testing.assert_array_equal(by_slab._max, by_row._max)
    np.testing.assert_array_equal(by_slab._sum, by_row._sum)
    np.testing.assert_array_equal(by_slab.log_mean(), by_row.log_mean())


@pytest.mark.parametrize(
    "bad, at", [(-math.inf, 0), (math.nan, 0), (math.nan, 5), (math.inf, 5)]
)
def test_slab_refuses_a_component_it_cannot_define(bad, at):
    # -inf as a component's first value, or NaN or +inf anywhere, with finite
    # values after it in the same slab and in later ones
    slab = np.tile([1.0, 2.0], (8, 1))
    slab[at, 0] = bad
    acc = LogMeanExpAccumulator(2)
    with np.errstate(invalid="ignore"):
        acc.add(slab)
        acc.add(slab[at + 1 :])
    with pytest.raises(DomainError, match="log-mean undefined"):
        acc.log_mean()


def test_slab_takes_minus_inf_after_a_finite_value():
    acc = LogMeanExpAccumulator(2)
    acc.add(np.array([[0.0, 1.0], [-math.inf, 1.0]]))
    np.testing.assert_allclose(acc.log_mean(), [-math.log(2.0), 1.0], rtol=1e-15)


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_log_mean_refuses_a_component_it_cannot_define(bad):
    # -inf first, +inf or NaN anywhere leaves a NaN in the running sum
    acc = LogMeanExpAccumulator(2)
    with np.errstate(invalid="ignore"):
        acc.add(np.array([bad, 0.0]))
        acc.add(np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="log-mean undefined"):
        acc.log_mean()


def test_log_mean_takes_minus_inf_after_a_finite_value():
    acc = LogMeanExpAccumulator(2)
    acc.add(np.array([0.0, 1.0]))
    acc.add(np.array([-math.inf, 1.0]))
    np.testing.assert_allclose(acc.log_mean(), [-math.log(2.0), 1.0], rtol=1e-15)


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


def _written_out_means(rng, s1, n_rep, sigma, lam, u2):
    sigma2 = sigma * sigma
    variance = 1.0 / (n_rep / sigma2 + 1.0 / (lam * lam * sigma2 * u2))
    mean = variance * s1 / sigma2
    return mean + np.sqrt(variance) * rng.standard_normal(s1.size)


def _written_out_local_scales(rng, beta, sigma, lam, u2):
    xi = (1.0 + 1.0 / u2) / rng.standard_exponential(u2.size)
    rate = 1.0 / xi + beta * beta / (2.0 * lam * lam * sigma * sigma)
    return rate / rng.standard_exponential(u2.size)


@pytest.mark.parametrize("sigma", [1.0, 1.7])
def test_in_place_updates_keep_every_bit(sigma):
    # the public updates work in place on the array they return; the
    # written-out formulas, on the same draws, give the same means and scales
    data = simulate_sparse(3)
    grid = np.asarray(GibbsConfig().lambda_grid)
    s1 = data.y.sum(axis=1)
    runs = []
    for means, local in (
        (_written_out_means, _written_out_local_scales),
        (gibbs_update_means, gibbs_update_local_scales),
    ):
        rng = stream(9, "test", "in-place")
        u2, lam, seen = np.ones(s1.size), 1.0, []
        for _ in range(2_000):
            beta = means(rng, s1, data.n_rep, sigma, lam, u2)
            u2_next = local(rng, beta, sigma, lam, u2)
            assert u2_next is not u2
            u2 = u2_next
            lam = gibbs_update_global_scale(rng, beta, sigma, u2, grid)
            seen.append(np.concatenate([beta, u2, [lam]]))
        runs.append(np.array(seen))
    assert np.unique(runs[0][:, -1]).size > 10  # the chain moves
    np.testing.assert_array_equal(runs[0], runs[1])


def test_one_draw_of_2p_exponentials_keeps_every_bit():
    # the local-scale update draws e1 and e2 as the halves of one call; from
    # the same state, the Philox stream gives the scales, and leaves the
    # stream where, the written-out form's two calls of p do, at every sweep
    # a chain's sweep object, drawing into the same 2p buffer every sweep, too
    data = simulate_sparse(3)
    grid = np.asarray(GibbsConfig().lambda_grid)
    s1 = data.y.sum(axis=1)
    sweep = sparse._Sweep(s1.size, data.sigma)
    for local in (
        lambda rng, beta, lam, u2: gibbs_update_local_scales(rng, beta, data.sigma, lam, u2),
        sweep.local_scales,
    ):
        rng, twin = stream(16, "test", "two-draws"), stream(16, "test", "two-draws")
        u2, lam = np.ones(s1.size), 1.0
        for _ in range(500):
            beta = gibbs_update_means(rng, s1, data.n_rep, data.sigma, lam, u2)
            twin.bit_generator.state = rng.bit_generator.state
            expected = _written_out_local_scales(twin, beta, data.sigma, lam, u2)
            u2 = local(rng, beta, lam, u2)
            np.testing.assert_array_equal(u2, expected)
            assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()
            lam = gibbs_update_global_scale(rng, beta, data.sigma, u2, grid)


@pytest.mark.parametrize("sigma", [1.0, 1.7])
def test_sweep_object_keeps_every_bit(sigma):
    # a chain's sweep reuses its work arrays and two u^2 buffers, forms
    # beta^2 once for the local and global updates, and skips the sigma^2
    # steps at sigma = 1; from one stream, the written-out formulas, the
    # public updates and the sweep give the same beta, u^2 and lambda at
    # every sweep, and leave the stream at the same place
    data = simulate_sparse(3)
    grid = np.asarray(GibbsConfig().lambda_grid)
    s1 = data.y.sum(axis=1)
    sweep = sparse._Sweep(s1.size, sigma, grid)

    def written_out(rng, lam, u2):
        beta = _written_out_means(rng, s1, data.n_rep, sigma, lam, u2)
        u2 = _written_out_local_scales(rng, beta, sigma, lam, u2)
        return beta, u2, _written_out_global_scale(rng, beta, sigma, u2, grid)

    def public(rng, lam, u2):
        beta = gibbs_update_means(rng, s1, data.n_rep, sigma, lam, u2)
        u2 = gibbs_update_local_scales(rng, beta, sigma, lam, u2)
        return beta, u2, gibbs_update_global_scale(rng, beta, sigma, u2, grid)

    def chain(rng, lam, u2):
        lam, u2 = sweep(rng, s1, data.n_rep, lam, u2)
        return sweep._beta, u2, lam

    runs, ends = [], []
    for update in (written_out, public, chain):
        rng = stream(17, "test", "sweep")
        u2, lam, seen = np.ones(s1.size), 1.0, []
        for _ in range(2_000):
            beta, u2, lam = update(rng, lam, u2)
            seen.append(np.concatenate([beta, u2, [lam]]))
        runs.append(np.array(seen))
        ends.append(rng.bit_generator.random_raw(4))
    assert np.unique(runs[0][:, -1]).size > 10  # the chain moves
    for run, end in zip(runs[1:], ends[1:]):
        np.testing.assert_array_equal(run, runs[0])
        np.testing.assert_array_equal(end, ends[0])


def test_global_scale_draw_gives_an_overflowing_point_no_weight():
    # S / (2 lambda^2) passes the float range at lambda = 1e-160, where a
    # RuntimeWarning once escaped; that point can no longer be drawn
    grid = np.array([1e-160, 1.0, 10.0])
    draw = _GlobalScaleDraw(grid, 3)
    rng = stream(10, "test", "overflow")
    beta, u2 = np.full(3, 2.0), np.ones(3)
    assert {draw(rng, beta, 1.0, u2) for _ in range(200)} <= {1.0, 10.0}
    # no point overflows at S = 0, where the tiny point has the most weight
    assert draw(rng, np.zeros(3), 1.0, u2) == 1e-160
    result = horseshoe_gibbs(
        simulate_sparse(0), GibbsConfig(n_iter=50, burn_in=5, lambda_grid=(1e-160, 10.0))
    )
    assert np.all(np.isfinite(result.profile))
    assert result.profile.max() == 1.0
    assert result.overlay_ig_induced[0] == 0.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_global_scale_draw_refuses_a_non_finite_statistic(bad):
    draw = _GlobalScaleDraw(np.asarray(GibbsConfig().lambda_grid), 3)
    beta = np.array([1.0, bad, 0.5])
    with pytest.raises(HibshrinkError, match="non-finite global-scale statistic"):
        draw(stream(10, "test", "non-finite"), beta, 1.0, np.ones(3))


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


@pytest.fixture
def threads(request, monkeypatch):
    """``HIBSHRINK_THREADS`` for the chain; a (threads, backlog) pair also sets
    the helper backlog at which the chain evaluates a block's rows itself."""
    if isinstance(request.param, tuple):
        count, backlog = request.param
        monkeypatch.setattr(sparse, "_SHARE_BACKLOG", backlog)
        return count
    return request.param


@pytest.mark.parametrize(
    "threads",
    [
        "1",
        pytest.param("2", marks=needs_fork),
        pytest.param(("2", 0), marks=needs_fork, id="2-chain-rows"),
    ],
    indirect=True,
)
def test_non_finite_row_raises_the_same_error_on_either_side(
    threads, monkeypatch, helpers_started
):
    # the 100th retained row is NaN; under fork the helper inherits the patch
    calls = []
    real = _LikelihoodRows.__call__

    def poisoned(self, block):
        rows = real(self, block)
        before = len(calls)
        calls.extend([None] * len(block))
        if before < 100 <= len(calls):
            rows[99 - before, 7] = np.nan
        return rows

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
    real = sparse._Sweep.__call__

    def failing(self, *args):
        calls.append(None)
        if len(calls) == 900:  # past burn-in, so blocks have gone out
            raise boom
        return real(self, *args)

    monkeypatch.setattr(sparse._Sweep, "__call__", failing)
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

    def dying(self, block):
        if os.getpid() != chain_pid:
            os._exit(3)
        return real(self, block)

    monkeypatch.setattr(_LikelihoodRows, "__call__", dying)
    monkeypatch.setenv("HIBSHRINK_THREADS", "2")
    with pytest.raises(HibshrinkError, match="helper process ended early"):
        horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    assert len(helpers_started) == 1
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("backlog, chain_rows", [(0, 2_000), (10**9, 0)],
                         ids=["chain-evaluates-all", "helper-evaluates-all"])
def test_rows_keep_their_bits_whoever_evaluates_them(
    seed, backlog, chain_rows, monkeypatch, helpers_started
):
    # calls made in the helper append to the helper's copy of the list
    data = simulate_sparse(4)
    cfg = GibbsConfig(n_iter=3_000, burn_in=1_000, seed=seed)
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")
    inline = horseshoe_gibbs(data, cfg)
    calls = []
    real = _LikelihoodRows.__call__

    def counted(self, block):
        calls.extend([None] * len(block))
        return real(self, block)

    monkeypatch.setattr(_LikelihoodRows, "__call__", counted)
    monkeypatch.setattr(sparse, "_SHARE_BACKLOG", backlog)
    monkeypatch.setenv("HIBSHRINK_THREADS", "2")
    shared = horseshoe_gibbs(data, cfg)
    assert len(helpers_started) == 1
    assert len(calls) == chain_rows
    np.testing.assert_array_equal(shared.profile, inline.profile)


def test_retained_blocks_hold_copies_of_each_sweeps_u2(monkeypatch):
    # the sweep writes u^2 into its two buffers in turn; each retained block
    # must hold every sweep's own u^2, so its rows are the rows of copies
    data = simulate_sparse(0)
    grid = np.asarray(SMALL_CFG.lambda_grid)
    s1 = data.y.sum(axis=1)
    rng = stream(SMALL_CFG.seed, "horseshoe-gibbs")
    u2, lam, copies = np.ones(50), 1.0, []
    for index in range(SMALL_CFG.n_iter):
        beta = gibbs_update_means(rng, s1, data.n_rep, data.sigma, lam, u2)
        u2 = gibbs_update_local_scales(rng, beta, data.sigma, lam, u2)
        lam = gibbs_update_global_scale(rng, beta, data.sigma, u2, grid)
        if index >= SMALL_CFG.burn_in:
            copies.append(u2.copy())
    copies = np.array(copies)

    sent = []
    real_send = sparse._InlineRows.send

    def recording(self, block):
        sent.append(block.copy())
        real_send(self, block)

    monkeypatch.setattr(sparse._InlineRows, "send", recording)
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")
    result = horseshoe_gibbs(data, SMALL_CFG)
    np.testing.assert_array_equal(np.concatenate(sent), copies)
    rows = _LikelihoodRows(data, data.sigma, grid * grid)
    acc = LogMeanExpAccumulator(grid.size)
    for start in range(0, len(copies), sparse._ROW_BLOCK):
        sparse._add_rows(rows, acc, copies[start : start + sparse._ROW_BLOCK])
    log_mean = acc.log_mean()
    np.testing.assert_array_equal(result.profile, np.exp(log_mean - log_mean.max()))


def test_one_cpu_in_the_affinity_set_starts_no_helper(monkeypatch, helpers_started):
    # the default worker count is the CPUs this process may run on
    monkeypatch.delenv("HIBSHRINK_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count() == 1
    horseshoe_gibbs(simulate_sparse(0), SMALL_CFG)
    assert helpers_started == []


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


@needs_fork
@pytest.mark.parametrize("failing", ["start", "Pipe"])
def test_a_failed_fork_sums_the_rows_inline(failing, monkeypatch, tmp_path):
    # EAGAIN from the helper's fork once escaped cli.main as a traceback
    data = simulate_sparse(4)
    cfg = GibbsConfig(n_iter=3_000, burn_in=1_000, seed=0)
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")
    inline = horseshoe_gibbs(data, cfg)

    pipes = []
    real_pipe = multiprocessing.context.BaseContext.Pipe

    def recorded_pipe(self, *args):
        pipes.extend(ends := real_pipe(self, *args))
        return ends

    def refuse(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    if failing == "start":
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pipe", recorded_pipe)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse)
    else:
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pipe", refuse)
    monkeypatch.setenv("HIBSHRINK_THREADS", "2")
    shared = horseshoe_gibbs(data, cfg)
    np.testing.assert_array_equal(shared.profile, inline.profile)
    assert multiprocessing.active_children() == []
    assert len(pipes) == (2 if failing == "start" else 0)
    assert all(end.closed for end in pipes)
    argv = ["marglik-profile", "--iters", "300", "--burn-in", "100",
            "--out", str(tmp_path / "profile.csv")]
    assert cli.main(argv) == 0
    assert multiprocessing.active_children() == []


FD_DIR = next((d for d in ("/proc/self/fd", "/dev/fd") if os.path.isdir(d)), None)


@needs_fork
@pytest.mark.skipif(FD_DIR is None, reason="no listing of open descriptors")
def test_failed_forks_leave_no_descriptor_open(monkeypatch, helpers_started):
    # the standard library opens two pipes before os.fork, and a fork that
    # raised once left all four descriptors open, chain after chain
    data = simulate_sparse(4)
    cfg = GibbsConfig(n_iter=3_000, burn_in=1_000, seed=0)
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")
    inline = horseshoe_gibbs(data, cfg)

    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setenv("HIBSHRINK_THREADS", "2")
    before = len(os.listdir(FD_DIR))
    for _ in range(3):
        shared = horseshoe_gibbs(data, cfg)
        np.testing.assert_array_equal(shared.profile, inline.profile)
    assert len(os.listdir(FD_DIR)) == before
    assert len(helpers_started) == 3  # each chain tried its fork
    assert multiprocessing.active_children() == []
