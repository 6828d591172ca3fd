"""Posterior layer: conjugate-style updating, shrinkage-weight moments,
marginal likelihood, the moment generating function, and the kernel-moment
ratios tying them together.

Oracle values were produced by the independent quadrature route and frozen;
closed forms cover the untilted special cases, and at tau2 = 1 a 40-digit
mpmath 1F1 checks the marginal likelihood at large tilts.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hibshrink import posterior as posterior_module
from hibshrink import prior as prior_module
from hibshrink import specfun
from hibshrink.errors import ConvergenceError, DomainError
from hibshrink.posterior import (
    kappa_moment,
    kappa_moment12_batch,
    log_m_kernel,
    m_kernel,
    marginal_log_likelihood,
    mgf_kappa,
    prior_state,
    shrink,
    update,
)
from hibshrink.prior import HIBParams, density_kappa, half_cauchy
from hibshrink.quadrature import integrate_unit
from hibshrink.specfun import Phi1Args, log_beta, log_phi1, phi1

PRIOR_GRID = [
    HIBParams(a, b, tau2, s)
    for a in (0.3, 0.5, 1.0, 2.0)
    for b in (0.3, 0.5, 1.0, 2.0)
    for tau2 in (0.25, 1.0, 4.0)
    for s in (-1.0, 0.0, 3.0)
]
PZ_PAIRS = [(0, 0.0), (7, 5.0), (15, 50.0)]


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def state_for(prior: HIBParams, p: int, z: float):
    if p == 0:
        assert z == 0.0
        return prior_state(prior)
    return update(prior, p, z, 1.0)


# ---- update ------------------------------------------------------------------


def test_update_arithmetic_examples():
    st = update(half_cauchy(), 10, 20.0, 1.0)
    assert st.a_post == 5.5
    assert st.s_post == 10.0
    st = update(half_cauchy(), 7, 14.0, 2.0)
    assert st.a_post == 4.0
    assert st.s_post == 3.5
    st = update(HIBParams(0.7, 0.4, 2.0, 1.0), 2, 0.0, 1.0)
    assert st.a_post == 0.7 + 1.0
    assert st.s_post == 1.0


def test_update_validation():
    hc = half_cauchy()
    with pytest.raises(DomainError):
        update(hc, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        update(hc, 5, -1.0, 1.0)
    with pytest.raises(DomainError):
        update(hc, 5, 1.0, 0.0)


def test_an_overflowed_tilt_is_refused_by_name():
    # Z = 1 is finite, but Z/sigma2 at sigma2 = 5e-324 is not
    y = np.array([1.0])
    calls = (
        lambda: marginal_log_likelihood(y, 5e-324, half_cauchy()),
        lambda: shrink(y, 5e-324, half_cauchy()),
        lambda: update(half_cauchy(), 1, 1.0, 5e-324),
    )
    for call in calls:
        with pytest.raises(DomainError, match="tilt Z/sigma2 must be finite"):
            call()


def test_a_bool_count_is_refused():
    # True is an int equal to 1; as a count of observations it is a mistake
    z = np.array([0.5, 2.0])
    for call in (lambda p: update(half_cauchy(), p, 2.0),
                 lambda p: kappa_moment12_batch(half_cauchy(), p, z)):
        for p in (True, False):
            with pytest.raises(DomainError, match="p must be a positive integer"):
                call(p)
        call(1)
        call(np.int64(1))


def test_a_bool_moment_order_or_kernel_count_is_refused():
    # True would give E(kappa) and p_eff = 1, False the order or count 0
    state = update(half_cauchy(), 3, 2.0)
    for flag in (True, False):
        with pytest.raises(DomainError, match="moment order must be a nonnegative integer"):
            kappa_moment(state, flag)
        for call in (log_m_kernel, m_kernel):
            with pytest.raises(DomainError, match="p_eff must be a nonnegative integer"):
                call(half_cauchy(), flag, 2.0)
    assert kappa_moment(state, np.int64(1)) == kappa_moment(state, 1)
    assert log_m_kernel(half_cauchy(), np.int64(1), 2.0) == log_m_kernel(half_cauchy(), 1, 2.0)


def test_moment_batch_refuses_a_nan_inf_or_negative_z():
    for bad in (math.nan, math.inf, -math.inf, -1e-300):
        for where in (0, 2):
            z = np.array([0.5, 2.0, 40.0])
            z[where] = bad
            with pytest.raises(DomainError, match="every Z must be nonnegative and finite"):
                kappa_moment12_batch(half_cauchy(), 7, z)
    g1, g2 = kappa_moment12_batch(half_cauchy(), 7, np.array([]))
    assert g1.shape == g2.shape == (0,)


def test_update_composes_exactly():
    # two-block updating must land on the same parameters bit for bit
    prior = HIBParams(0.5, 0.5, 4.0, 1.0)
    st_once = update(prior, 12, 20.0, 1.0)
    st_first = update(prior, 4, 8.0, 1.0)
    carried = HIBParams(st_first.a_post, prior.b, prior.tau2, st_first.s_post)
    st_two = update(carried, 8, 12.0, 1.0)
    assert st_two.a_post == st_once.a_post
    assert st_two.s_post == st_once.s_post


def test_prior_state_round_trip():
    prior = HIBParams(1.2, 0.4, 0.5, -2.0)
    st = prior_state(prior)
    assert st.p == 0 and st.Z == 0.0
    assert st.a_post == prior.a
    assert st.s_post == prior.s


# ---- kappa_moment ---------------------------------------------------------------


def test_kappa_moment_n_zero_is_exactly_one():
    st = update(half_cauchy(), 10, 20.0, 1.0)
    assert kappa_moment(st, 0) == 1.0


def test_kappa_moment_prior_mean():
    assert rel_err(kappa_moment(prior_state(half_cauchy()), 1), 0.5) < 1e-12


def test_kappa_moment_frozen_oracle_anchors():
    # frozen from quadrature.oracle_hib_moment
    st = update(half_cauchy(), 10, 20.0, 1.0)
    assert rel_err(kappa_moment(st, 1), 0.60053125024977094) < 1e-9
    assert rel_err(kappa_moment(st, 2), 0.41085000039961345) < 1e-9
    st = update(HIBParams(0.3, 0.3, 0.25, -1.0), 15, 50.0, 1.0)
    assert rel_err(kappa_moment(st, 1), 0.36210025169868004) < 1e-9
    st = update(HIBParams(2.0, 2.0, 4.0, 3.0), 7, 5.0, 1.0)
    assert rel_err(kappa_moment(st, 2), 0.32460546680617852) < 1e-9


def test_kappa_moment_bounds_and_ordering():
    for prior in (half_cauchy(), HIBParams(0.3, 2.0, 4.0, -1.0)):
        for (p, z) in ((1, 0.0), (7, 5.0), (15, 200.0)):
            st = update(prior, p, z, 1.0)
            m1 = kappa_moment(st, 1)
            m2 = kappa_moment(st, 2)
            m3 = kappa_moment(st, 3)
            assert 0.0 < m3 <= m2 <= m1 <= 1.0
            assert m2 >= m1 * m1 - 1e-15  # Jensen


def test_kappa_moment_strictly_decreasing_in_data_norm():
    z_grid = np.arange(0.0, 101.0)
    for prior in PRIOR_GRID:
        g1, _ = kappa_moment12_batch(prior, 7, z_grid)
        assert np.all(np.diff(g1) < 0.0), prior


def test_kappa_moment_batch_matches_scalar():
    z_values = np.array([0.0, 1.0, 10.0, 77.5, 400.0])
    for prior in (half_cauchy(), HIBParams(2.0, 0.3, 0.25, 3.0)):
        g1, g2 = kappa_moment12_batch(prior, 9, z_values)
        for z, m1, m2 in zip(z_values, g1, g2):
            st = update(prior, 9, float(z), 1.0)
            assert rel_err(m1, kappa_moment(st, 1)) < 1e-11
            assert rel_err(m2, kappa_moment(st, 2)) < 1e-11


def test_kappa_moment_batch_matches_scalar_past_the_pochhammer_underflow():
    # with Z near p the batch's running (a)_n/(gamma)_n fell below the
    # smallest double from about p = 1950 on (half-Cauchy) and a division
    # by it raised ZeroDivisionError; the bound was fixed before the run
    for prior in (half_cauchy(), HIBParams(0.5, 0.5, 0.25, 0.0), HIBParams(0.5, 0.5, 4.0, 0.0)):
        for p in (2000, 5000):
            z = np.array([0.5 * p, float(p), 2.0 * p])
            g1, _ = kappa_moment12_batch(prior, p, z)
            for zi, m1 in zip(z.tolist(), g1.tolist()):
                assert rel_err(m1, kappa_moment(update(prior, p, zi, 1.0), 1)) <= 1e-11, (prior, p, zi)


def test_kappa_moment_batch_across_the_large_x_crossover_matches_scalar(monkeypatch):
    # at tau2 = 1 the batch sums the tilts past a crossover by the asymptotic
    # series and the rest by the power series; blocks of 5 make some blocks
    # straddle it.  s = -500 puts half the tilts below 0, where the crossover
    # is that of the other series.  1e-9 is the benchmark's probe bound.
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    p = 15
    for prior in (half_cauchy(), HIBParams(0.5, 0.5, 1.0, -500.0)):
        c = prior.a + 0.5 * p + prior.b
        x0s = [specfun._crossover(prior.b, 1.0, c + n, 0.0, False)[0] for n in (0, 1, 2)]
        x0s += [-specfun._crossover(c - prior.b, 1.0, c, 0.0, True)[0]]
        tilts = [x * f for x in x0s for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
        tilts += list(np.geomspace(1.0, 1e5, 9)) + list(-np.geomspace(1.0, 400.0, 5))
        z = np.array([2.0 * (t - prior.s) for t in tilts if t >= prior.s])
        g1, g2 = kappa_moment12_batch(prior, p, z)
        for zi, m1, m2 in zip(z, g1, g2):
            st = update(prior, p, float(zi), 1.0)
            assert rel_err(m1, kappa_moment(st, 1)) <= 1e-9, (prior, zi)
            assert rel_err(m2, kappa_moment(st, 2)) <= 1e-9, (prior, zi)


def test_moment_batch_sums_two_rows_only_at_tau2_one_and_a_nonnegative_tilt(monkeypatch):
    # Kummer's contiguous relation gives E(kappa) from the rows at c+1 and
    # c+2 when tau2 = 1 and every s' >= 0; any other prior keeps the three
    # rows and their ratios to the row at c, bit for bit
    rows = []
    real = posterior_module.log_phi1_batch

    def recording(alpha, beta, gamma, x, y):
        rows.append(len(gamma))
        return real(alpha, beta, gamma, x, y)

    monkeypatch.setattr(posterior_module, "log_phi1_batch", recording)
    p = 15
    z = np.array([0.0, 0.5, 14.0, 60.0, 400.0, 1300.0, 2e4])
    two_rows = (half_cauchy(), HIBParams(2.0, 0.05, 1.0, 3.0))
    three_rows = (
        HIBParams(0.5, 0.5, 4.0, 0.0), HIBParams(0.5, 0.5, 0.25, 0.0),
        HIBParams(0.5, 0.5, 1.0, -500.0),
    )
    for prior in two_rows + three_rows:
        rows.clear()
        g1, g2 = kappa_moment12_batch(prior, p, z)
        assert rows == [2 if prior in two_rows else 3], prior
        if prior in two_rows:
            continue
        a_post = prior.a + 0.5 * p
        c = a_post + prior.b
        logs = specfun.log_phi1_batch(
            prior.b, 1.0, (c, c + 1.0, c + 2.0), prior.s + 0.5 * z, prior.y
        )
        m1 = np.exp(logs[1] - logs[0]) * (a_post / c)
        m2 = np.exp(logs[2] - logs[0]) * (a_post * (a_post + 1.0) / (c * (c + 1.0)))
        assert np.array_equal(g1, m1) and np.array_equal(g2, m2), prior


def test_two_row_moment_batch_matches_mpmath():
    # at tau2 = 1 each moment is a ratio of Kummer functions 1F1(b; g; s')
    # with a 40-digit reference; E(kappa) no longer carries the ulp of
    # log phi1 near s' that a difference of logs does.  The grid and the
    # bounds were fixed before the run.
    mpmath = pytest.importorskip("mpmath")
    z = np.array([0.0, 0.5, 3.0, 30.0, 300.0, 3e3, 3e4, 2e5, 6e5, 2e6])

    def reference(a_post, b, s_post):
        c = a_post + b
        with mpmath.workdps(40):
            m0, m1, m2 = (mpmath.hyp1f1(b, c + n, s_post) for n in (0, 1, 2))
            g1 = mpmath.mpf(a_post) / c * m1 / m0
            return g1, g1 * (a_post + 1) / (c + 1) * m2 / m1

    grid = itertools.product(
        (0.05, 0.5, 2.0, 50.0), (0.05, 0.5, 2.0, 50.0), (0.0, 3.0), (1, 3, 15, 2000)
    )
    for a, b, s, p in grid:
        g1, g2 = kappa_moment12_batch(HIBParams(a, b, 1.0, s), p, z)
        for zi, m1, m2 in zip(z.tolist(), g1.tolist(), g2.tolist()):
            s_post = s + 0.5 * zi
            ref1, ref2 = reference(a + 0.5 * p, b, s_post)
            case = (a, b, s, p, zi)
            assert rel_err(m1, float(ref1)) <= 1e-12, case
            assert rel_err(m2, float(ref2)) <= max(1e-13, 8 * 2.0**-52 * s_post), case
    z = np.geomspace(2e5, 2e6, 12)
    for p in (10, 15):
        g1, _ = kappa_moment12_batch(half_cauchy(), p, z)
        for zi, m1 in zip(z.tolist(), g1.tolist()):
            ref1, _ = reference(0.5 + 0.5 * p, 0.5, 0.5 * zi)
            assert rel_err(m1, float(ref1)) <= 1e-13, (p, zi)


def test_kappa_moment_batch_peak_memory_stays_at_seven_draw_arrays():
    # the risk Monte Carlo holds several of these calls at once, one per
    # thread; summing three series in one call must not cost more than the
    # seven float arrays of n_mc that three separate calls peaked at
    # (10.68 MiB), with s_post, the three rows of logs and the sort order
    # of s_post among them.  At tau2 = 1 and s >= 0 the call sums two rows,
    # so five such arrays (7.63 MiB) bound it.
    p, n = 15, 200_000
    rng = np.random.default_rng(12)
    u = 6.0 + rng.standard_normal(n)
    z = u * u + rng.chisquare(p - 1, n)
    for prior, bound_mib in ((HIBParams(0.5, 0.5, 4.0, 0.0), 10.7), (half_cauchy(), 7.7)):
        kappa_moment12_batch(prior, p, z[:1000])
        tracemalloc.start()
        try:
            kappa_moment12_batch(prior, p, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (prior, peak / 2**20)


def test_tau2_four_moment_work_stops_growing_with_the_tilt(monkeypatch):
    # tau2 = 4 (y = 0.75) once summed ~|x| + 12 sqrt|x| outer terms with a
    # fresh inner 2F1 each (4 s at Z = 1e5); past the crossover, which lies
    # near s' = 170 here, the expansion's term count falls as Z grows, and
    # it needs no inner 2F1 at all (every recurrence starts from a series)
    prior = HIBParams(0.5, 0.5, 4.0, 0.0)
    p = 15
    calls = []
    real = specfun._hyp2f1_series

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_hyp2f1_series", counting)
    terms, inner_calls = [], []
    for Z in (1e3, 1e4, 1e5):
        state = update(prior, p, Z, 1.0)
        c = state.a_post + prior.b
        calls.clear()
        kappa_moment(state, 1)
        inner_calls.append(len(calls))
        terms.append([phi1(Phi1Args(prior.b, 1.0, c + n, state.s_post, prior.y)).terms_used
                      for n in (0, 1)])
    assert inner_calls == [0, 0, 0]
    for earlier, later in zip(terms, terms[1:]):
        assert all(t_late <= t_early for t_early, t_late in zip(earlier, later)), terms


def test_kappa_moment_huge_tilt_needs_longer_series():
    # the power series would need ~5e5 terms here; past the crossover the
    # large-x expansion takes a few, so this pins that path's bits.  The
    # exact value is 1.10000110001540e-05 (mpmath, 40 digits).  This value
    # and the power series' 1.1000011000209332e-05 lie 5.3e-11 and 5.0e-12
    # from it: each log phi1 is near s' = 5e5, where one ulp is 5.8e-11.
    st = update(half_cauchy(), 10, 1e6, 1.0)
    val = kappa_moment(st, 1)
    assert val == 1.1000010999569048e-05
    assert 0.0 < val < 1e-4


def test_absurd_tilt_fails_before_summing():
    # Z = 1.4e121 would need ~1e121 terms; an overflowing series must not
    # pass a NaN shrinkage weight off as converged
    with pytest.raises(ConvergenceError) as exc:
        shrink(np.array([1e60, 2e60, 3e60]), 1.0, half_cauchy())
    assert exc.value.terms_used == 0


# ---- score identity -------------------------------------------------------------


def test_kernel_moment_ratio_equals_posterior_mean():
    for prior in PRIOR_GRID:
        for (p, z) in PZ_PAIRS:
            ratio = m_kernel(prior, p + 2, z) / m_kernel(prior, p, z)
            expected = kappa_moment(state_for(prior, p, z), 1)
            assert rel_err(ratio, expected) < 1e-10, (prior, p, z)


def _log_m_kernel_by_hand(prior: HIBParams, p_eff: int, Z: float) -> float:
    """The two prior normalizers written out term by term."""
    a_num = prior.a + 0.5 * p_eff
    s_num = prior.s + 0.5 * Z
    log_c_num = (
        -s_num
        + log_beta(a_num, prior.b)
        + log_phi1(prior.b, 1.0, a_num + prior.b, s_num, prior.y)
    )
    log_c_den = (
        -prior.s
        + log_beta(prior.a, prior.b)
        + log_phi1(prior.b, 1.0, prior.a + prior.b, prior.s, prior.y)
    )
    return log_c_num - log_c_den


def test_log_m_kernel_equals_written_out_normalizers_bitwise():
    for prior in PRIOR_GRID:
        for (p_eff, z) in PZ_PAIRS + [(2, 0.0), (4, 120.0)]:
            assert log_m_kernel(prior, p_eff, z) == _log_m_kernel_by_hand(prior, p_eff, z), (
                prior, p_eff, z)


def test_m_kernel_anchors():
    hc = half_cauchy()
    assert rel_err(m_kernel(hc, 0, 0.0), 1.0) < 1e-12
    assert rel_err(m_kernel(hc, 2, 0.0), 0.5) < 1e-12
    assert rel_err(m_kernel(hc, 4, 0.0), 0.375) < 1e-12


# ---- shrink ----------------------------------------------------------------------


def test_shrink_zero_vector():
    fit = shrink(np.zeros(7), 1.0, half_cauchy())
    assert np.all(fit.post_mean == 0.0)
    st = update(half_cauchy(), 7, 0.0, 1.0)
    assert rel_err(fit.kappa_bar, kappa_moment(st, 1)) < 1e-12
    assert rel_err(fit.post_var_scalar, (1.0 - fit.kappa_bar)) < 1e-12


def test_shrink_constant_vector_frozen_anchor():
    y = np.full(10, 2.0)
    fit = shrink(y, 1.0, half_cauchy())
    assert rel_err(fit.kappa_bar, 0.28655938893011501) < 1e-9
    np.testing.assert_allclose(fit.post_mean, (1.0 - fit.kappa_bar) * y, rtol=1e-14)
    assert rel_err(
        fit.log_marginal, marginal_log_likelihood(y, 1.0, half_cauchy())
    ) < 1e-12


def test_shrink_huge_signal_barely_shrinks():
    y = np.full(10, math.sqrt(1e5))
    fit = shrink(y, 1.0, half_cauchy())
    assert fit.kappa_bar < 1e-4
    assert np.all(np.abs(fit.post_mean - y) / y < 1e-4)


# ---- marginal likelihood ----------------------------------------------------------


def test_shrink_matches_moment_and_marginal_bitwise():
    rng = np.random.default_rng(11)
    for prior in PRIOR_GRID[::5]:
        for p, z in ((1, 0.0), (5, 0.3), (20, 40.0), (50, 2000.0)):
            g = rng.standard_normal(p)
            y = g * (math.sqrt(z) / math.sqrt(float(g @ g)))
            fit = shrink(y, 1.0, prior)
            assert fit.kappa_bar == kappa_moment(update(prior, p, float(y @ y)), 1)
            assert fit.log_marginal == marginal_log_likelihood(y, 1.0, prior)


def test_shrink_evaluates_three_series(monkeypatch):
    # counted in posterior and prior together: the prior's own series is
    # summed by prior.log_normalizer, the two tilted ones by posterior
    calls = []
    real = posterior_module.log_phi1

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(posterior_module, "log_phi1", counting)
    monkeypatch.setattr(prior_module, "log_phi1", counting)
    shrink(np.array([1.0, -2.0, 0.5, 3.0]), 1.0, HIBParams(0.5, 1.0, 4.0, -1.0))
    assert len(calls) == 3


def test_marginal_scalar_uniform_closed_form():
    got = marginal_log_likelihood(np.zeros(1), 1.0, HIBParams(1.0, 1.0, 1.0, 0.0))
    assert rel_err(got, math.log(math.sqrt(2.0 / math.pi) / 3.0)) < 1e-12


def test_marginal_sigma_rescaling_identity():
    y = np.array([0.3, -1.2, 2.5, 0.0, 4.0])
    prior = HIBParams(0.5, 1.0, 4.0, -1.0)
    for sigma2 in (0.25, 2.0, 9.0):
        sigma = math.sqrt(sigma2)
        lhs = marginal_log_likelihood(y, sigma2, prior)
        rhs = marginal_log_likelihood(y / sigma, 1.0, prior) - len(y) * math.log(sigma)
        assert abs(lhs - rhs) < 1e-10


def test_marginal_matches_mixture_quadrature():
    # independent route: integrate prod_i N(y_i | 0, 1/kappa) against the
    # prior kappa density
    rng = np.random.default_rng(12345)
    y = rng.normal(0.0, 1.5, size=10)
    z = float(np.sum(y * y))
    p = len(y)
    for prior in (half_cauchy(), HIBParams(1.0, 2.0, 4.0, 1.0)):
        def f(k: float) -> float:
            return density_kappa(prior, k) * k ** (p / 2.0) * math.exp(-0.5 * k * z)

        mix = integrate_unit(f, prior.a + p / 2.0, prior.b)
        expected = -0.5 * p * math.log(2.0 * math.pi) + math.log(mix)
        got = marginal_log_likelihood(y, 1.0, prior)
        assert rel_err(math.exp(got), math.exp(expected)) < 1e-6


def test_marginal_scalar_density_integrates_to_one():
    # a thin-tailed member keeps the truncation error of the finite data
    # window below the tolerance (tail decays like |y|^-6 here)
    prior = HIBParams(2.0, 1.0, 1.0, 0.0)
    half_width = 100.0

    def f(t: float) -> float:
        y = np.array([half_width * t])
        return half_width * math.exp(marginal_log_likelihood(y, 1.0, prior))

    mass = 2.0 * integrate_unit(f, 1.0, 1.0)
    assert abs(mass - 1.0) < 1e-6


def test_marginal_is_the_gaussian_base_times_the_kernel_moment_bitwise():
    rng = np.random.default_rng(29)
    for prior in PRIOR_GRID[::7]:
        for p, sigma2 in ((1, 1.0), (6, 2.5), (40, 0.3)):
            y = rng.normal(0.0, 3.0, size=p)
            z = float(y @ y)
            base = -p / 2 * math.log(2.0 * math.pi * sigma2)
            expected = base + log_m_kernel(prior, p, z / sigma2)
            assert marginal_log_likelihood(y, sigma2, prior) == expected, (prior, p, sigma2)


def test_marginal_at_large_tilts_matches_mpmath():
    # at tau2 = 1 the series is Kummer's 1F1, so log C = -s + log B(a, b)
    # + log 1F1(b; a+b; s) has a direct 40-digit reference; the bound
    # 5e-14 max(1, s') was fixed before the run
    mpmath = pytest.importorskip("mpmath")

    def log_c(a, b, s):
        a, b, s = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(s)
        return -s + mpmath.log(mpmath.beta(a, b)) + mpmath.log(mpmath.hyp1f1(b, a + b, s))

    grid = itertools.product(
        (0.3, 0.5, 1.0, 2.0), (0.3, 0.5, 1.0, 2.0), (-1.0, 0.0, 3.0), (1, 5, 20, 50),
        (0.0, 3.0, 400.0, 2e5), (1.0, 2.5),
    )
    for a, b, s, p, z_target, sigma2 in grid:
        prior = HIBParams(a, b, 1.0, s)
        y = np.full(p, math.sqrt(z_target / p))
        s_post = s + 0.5 * float(y @ y) / sigma2
        with mpmath.workdps(40):
            ref = (
                -mpmath.mpf(p) / 2 * mpmath.log(2 * mpmath.pi * sigma2)
                + log_c(a + 0.5 * p, b, s_post)
                - log_c(a, b, s)
            )
        bound = 5e-14 * max(1.0, s_post)
        case = (prior, p, z_target, sigma2)
        assert abs(marginal_log_likelihood(y, sigma2, prior) - ref) <= bound, case
        assert abs(shrink(y, sigma2, prior).log_marginal - ref) <= bound, case


# ---- moment generating function ----------------------------------------------------


def test_mgf_at_zero_is_one():
    st = update(half_cauchy(), 5, 3.0, 1.0)
    assert mgf_kappa(st, 0.0) == 1.0


def test_mgf_derivative_matches_first_moment():
    st = update(half_cauchy(), 10, 20.0, 1.0)
    h = 1e-5
    deriv = (mgf_kappa(st, h) - mgf_kappa(st, -h)) / (2.0 * h)
    assert abs(deriv - kappa_moment(st, 1)) < 1e-6


def test_mgf_uniform_prior_closed_form():
    st = prior_state(HIBParams(1.0, 1.0, 1.0, 0.0))
    assert rel_err(mgf_kappa(st, 1.0), math.e - 1.0) < 1e-10
    assert rel_err(mgf_kappa(st, -1.0), 1.0 - math.exp(-1.0)) < 1e-10
