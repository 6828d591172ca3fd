"""Special-function layer: log-beta, Gauss 2F1 (phi1 at x = 0), and the confluent
two-variable series behind every posterior quantity in this package.

Expected values come from closed forms, from an inline brute-force double
series written independently here, or from cross-checking the two in-repo
representations against each other; a property-based suite compares
``log_phi1`` and ``log_phi1_batch`` with mpmath at 40 digits.
"""

import hashlib
import math
import struct
import tracemalloc
import warnings

import pytest

from hibshrink import specfun
from hibshrink.errors import ConvergenceError, DomainError, NumericalWarning
from hibshrink.oracles import phi1_double_series
from hibshrink.posterior import shrink
from hibshrink.prior import HIBParams, half_cauchy, log_normalizer
from hibshrink.specfun import (
    Phi1Args,
    log_beta,
    log_phi1,
    log_phi1_batch,
    phi1,
    pochhammer,
)


def rel_err(got: float, expected: float) -> float:
    if expected == 0.0:
        return abs(got)
    return abs(got - expected) / abs(expected)


# ---- inline oracles, kept deliberately naive ----------------------------


def raw_2f1(a: float, b: float, c: float, y: float, n_terms: int = 400) -> float:
    term = 1.0
    total = 1.0
    for n in range(n_terms):
        term *= (a + n) * (b + n) * y / ((c + n) * (n + 1.0))
        total += term
    return total


def raw_phi1_double_sum(
    alpha: float,
    beta: float,
    gamma: float,
    x: float,
    y: float,
    m_max: int = 120,
    n_max: int = 120,
) -> float:
    """Direct (m, n) rectangle of the defining double series.

    Only trustworthy for small |x| and |y| < 1; used to anchor one point,
    not as a general oracle.
    """
    total = 0.0
    row_start = 1.0  # term at m=0 for the current n
    for n in range(n_max):
        term = row_start
        for m in range(m_max):
            total += term
            term *= (alpha + m + n) * x / ((gamma + m + n) * (m + 1.0))
        row_start *= (alpha + n) * (beta + n) * y / ((gamma + n) * (n + 1.0))
    return total


def raw_confluent_1f1(alpha: float, gamma: float, x: float, n_terms: int = 400) -> float:
    term = 1.0
    total = 1.0
    for n in range(n_terms):
        term *= (alpha + n) * x / ((gamma + n) * (n + 1.0))
        total += term
    return total


# ---- pochhammer / log_beta ---------------------------------------------


def test_pochhammer_basics():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 3.0 * 4.0 * 5.0 * 6.0
    assert rel_err(pochhammer(0.5, 3), 0.5 * 1.5 * 2.5) < 1e-15


def test_log_beta_symmetry_and_anchor():
    assert log_beta(2.0, 3.0) == log_beta(3.0, 2.0)
    # Be(1/2, 1/2) = pi
    assert rel_err(math.exp(log_beta(0.5, 0.5)), math.pi) < 1e-13
    assert rel_err(math.exp(log_beta(2.0, 3.0)), 1.0 / 12.0) < 1e-13
    for bad in [(0.0, 1.0), (1.0, -2.0)]:
        with pytest.raises(DomainError):
            log_beta(*bad)


# ---- 2F1 as phi1 at x = 0 -------------------------------------------------


def test_2f1_at_zero_is_one():
    assert phi1(Phi1Args(1.3, 0.7, 2.1, 0.0, 0.0)).value == 1.0


def test_2f1_log_closed_form():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    got = phi1(Phi1Args(1.0, 1.0, 2.0, 0.0, 0.5)).value
    assert rel_err(got, 2.0 * math.log(2.0)) < 1e-12


def test_2f1_binomial_closed_form():
    # 2F1(a,b;b;z) = (1-z)^(-a), here via the symmetric argument order;
    # the term-ratio stop leaves a ~2e-12 truncation tail at y = 0.75
    got = phi1(Phi1Args(1.0, 0.5, 1.0, 0.0, 0.75)).value
    assert rel_err(got, 2.0) < 1e-10


def test_2f1_argument_symmetry():
    for (a, b, c, y) in [
        (0.5, 2.5, 1.5, 0.6),
        (1.0, 0.3, 2.0, -0.8),
        (2.0, 0.7, 3.5, 0.9),
    ]:
        got = phi1(Phi1Args(a, b, c, 0.0, y)).value
        assert rel_err(got, phi1(Phi1Args(b, a, c, 0.0, y)).value) < 1e-12


def test_2f1_negative_argument_matches_direct_series():
    # |y| < 1 keeps the naive alternating series usable as an oracle
    for (a, b, c) in [(0.5, 1.0, 1.5), (1.0, 1.0, 2.5), (2.0, 0.5, 3.0)]:
        for y in (-0.5, -0.9):
            got = phi1(Phi1Args(a, b, c, 0.0, y)).value
            assert rel_err(got, raw_2f1(a, b, c, y)) < 1e-11


def test_2f1_far_negative_argument_is_finite_and_positive():
    # the direct series diverges here; the implementation must transform
    r = phi1(Phi1Args(0.5, 1.0, 1.5, 0.0, -40.0))
    assert r.converged
    assert 0.0 < r.value < 1.0


def test_phi1_x_zero_sums_one_inner_series(monkeypatch):
    # at x = 0 every outer weight past the first is zero, so inner(1) is skipped
    calls = []
    real = specfun._hyp2f1_series

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_hyp2f1_series", counting)
    r = phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.75))
    assert len(calls) == 1
    # the truncated 2F1 value; skipping inner(1) must not move its bits
    assert r.value == 1.9999999999967915 and r.terms_used == 1


def test_term_budget_follows_the_tilt():
    ceiling = specfun._MAX_TERMS_CEILING
    widest = 0.5 * (ceiling - specfun.DEFAULT_MAX_TERMS)
    assert specfun._check_y(0.3, 0.0) == specfun.DEFAULT_MAX_TERMS
    assert specfun._check_y(0.3, 5e5) == specfun.DEFAULT_MAX_TERMS + 1_000_000
    assert specfun._check_y(0.3, widest) == ceiling
    with pytest.warns(NumericalWarning):
        assert specfun._check_y(0.9995, 5e5) == specfun._Y_WARN_MAX_TERMS
    for xabs in (math.nextafter(widest, math.inf), math.inf, math.nan):
        with pytest.raises(ConvergenceError) as exc:
            specfun._check_y(0.3, xabs)
        assert exc.value.terms_used == 0


def test_absurd_tilt_raises_before_summing():
    # the series would overflow here; inf must not pass for a converged value
    np = pytest.importorskip("numpy")
    for x in (1e31, -1e31):
        with pytest.raises(ConvergenceError) as exc:
            log_phi1(0.5, 1.0, 2.0, x, 0.0)
        assert exc.value.terms_used == 0
    with pytest.raises(ConvergenceError) as exc:
        log_phi1_batch(0.5, 1.0, 2.0, np.array([0.0, 3.0, 1e31]), 0.0)
    assert exc.value.terms_used == 0
    with pytest.raises(ConvergenceError) as exc:
        phi1_double_series(Phi1Args(0.5, 1.0, 2.0, 1e31, 0.0))
    assert exc.value.terms_used == 0


def test_2f1_convergence_error_carries_terms(monkeypatch):
    # at x = 0 the derived budget is DEFAULT_MAX_TERMS itself
    monkeypatch.setattr(specfun, "DEFAULT_MAX_TERMS", 50)
    with pytest.raises(ConvergenceError) as exc:
        phi1(Phi1Args(1.0, 0.5, 1.0, 0.0, 0.99))
    assert exc.value.terms_used == 50


# ---- phi1: closed forms and spec anchors ---------------------------------


def test_phi1_at_origin():
    r = phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.0))
    assert r.value == 1.0
    assert r.converged


def test_phi1_x_zero_reduces_to_2f1():
    # (0.5, 1, 1, 0, 0.75): collapses to 2F1(1, 0.5; 1; 0.75) = 2
    r = phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.75))
    assert rel_err(r.value, 2.0) < 1e-10


def test_phi1_y_zero_alpha_equals_gamma_is_exponential():
    # with y = 0 the series is sum_m (alpha)_m/(gamma)_m x^m/m!,
    # which is e^x whenever alpha = gamma
    for alpha in (0.5, 1.0):
        r = phi1(Phi1Args(alpha, 1.0, alpha, 5.0, 0.0))
        assert rel_err(r.value, math.exp(5.0)) < 1e-12


def test_phi1_y_zero_matches_confluent_series():
    for (alpha, gamma) in [(0.5, 1.0), (1.0, 2.5), (2.5, 1.5)]:
        for x in (-2.0, -1.0, 1.0, 10.0):
            got = phi1(Phi1Args(alpha, 1.0, gamma, x, 0.0)).value
            assert rel_err(got, raw_confluent_1f1(alpha, gamma, x)) < 1e-10


def test_phi1_gamma_equals_alpha_factorizes():
    # alpha = gamma makes the double series factor into e^x (1-y)^(-beta)
    for (beta, x, y) in [(1.0, 2.0, 0.5), (0.5, -3.0, 0.7), (2.0, 1.0, -1.5)]:
        got = phi1(Phi1Args(1.5, beta, 1.5, x, y)).value
        expected = math.exp(x) * (1.0 - y) ** (-beta)
        assert rel_err(got, expected) < 1e-11


def test_phi1_negative_x_anchor_against_raw_double_sum():
    got = phi1(Phi1Args(0.5, 1.0, 1.5, -2.0, 0.3)).value
    oracle = raw_phi1_double_sum(0.5, 1.0, 1.5, -2.0, 0.3)
    assert rel_err(got, oracle) < 1e-11


def test_phi1_double_series_cross_check_anchor():
    a = Phi1Args(0.5, 1.0, 1.5, 2.0, 0.3)
    assert rel_err(phi1_double_series(a).value, phi1(a).value) < 1e-10


def test_phi1_double_series_trivial():
    assert phi1_double_series(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.0)).value == 1.0


# ---- phi1: cross-representation grid -------------------------------------


PARAM_GRID = [0.5, 1.0, 2.5]
X_GRID = [-10.0, -1.0, 0.0, 1.0, 10.0]
Y_GRID = [-5.0, -0.5, 0.0, 0.5, 0.9]


def test_phi1_agrees_with_double_series_on_full_grid():
    """Both representations must agree to 1e-8 relative across the grid.

    Near a genuine zero of the function (possible when gamma - alpha is a
    negative integer, making one series factor a polynomial) the relative
    scale collapses, so tiny values are compared absolutely instead.
    """
    worst = 0.0
    for alpha in PARAM_GRID:
        for beta in PARAM_GRID:
            for gamma in PARAM_GRID:
                for x in X_GRID:
                    for y in Y_GRID:
                        a = phi1(Phi1Args(alpha, beta, gamma, x, y)).value
                        b = phi1_double_series(Phi1Args(alpha, beta, gamma, x, y)).value
                        if abs(b) < 1e-8:
                            assert abs(a - b) < 1e-10, (alpha, beta, gamma, x, y)
                            continue
                        err = rel_err(a, b)
                        worst = max(worst, err)
                        assert err < 1e-8, (alpha, beta, gamma, x, y, err)
    assert worst < 1e-8


def test_phi1_positive_for_unit_beta_patterns():
    # the statistical layers always call with beta = 1 and gamma > alpha
    # (gamma - alpha is a positive shape parameter there); positivity is
    # only claimed for that pattern
    for alpha in PARAM_GRID:
        for gamma in PARAM_GRID:
            if gamma <= alpha:
                continue
            for x in (-10.0, 1.0, 10.0):
                for y in (-5.0, 0.0, 0.9):
                    assert phi1(Phi1Args(alpha, 1.0, gamma, x, y)).value > 0.0


def test_phi1_negative_y_transform_self_consistency():
    # applying value = e^x (1-y)^(-beta) * phi1(gamma-alpha, beta, gamma,
    # -x, y/(y-1)) twice lands back on the original arguments
    for (alpha, beta, gamma) in [(0.5, 1.0, 1.5), (1.0, 0.5, 2.5)]:
        for x in (-1.0, 2.0):
            for y in (-5.0, -0.5):
                direct = phi1(Phi1Args(alpha, beta, gamma, x, y)).value

                def flip(al, be, ga, xx, yy):
                    inner = phi1(Phi1Args(ga - al, be, ga, -xx, yy / (yy - 1.0))).value
                    return math.exp(xx) * (1.0 - yy) ** (-be) * inner

                once_args = (gamma - alpha, beta, gamma, -x, y / (y - 1.0))
                once_pref = math.exp(x) * (1.0 - y) ** (-beta)
                twice = once_pref * flip(*once_args)
                assert rel_err(twice, direct) < 1e-10


# ---- phi1: error and warning contracts -----------------------------------


def test_phi1_rejects_y_at_or_above_one():
    with pytest.raises(DomainError):
        phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 1.5))


def test_phi1_rejects_nonpositive_parameters():
    with pytest.raises(DomainError):
        Phi1Args(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Phi1Args(0.5, -1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Phi1Args(0.5, 1.0, 0.0, 0.0, 0.0)


def test_phi1_warns_close_to_unit_y():
    with pytest.warns(NumericalWarning):
        r = phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.9995))
    # truncation tail scales like rel_tol * y / (1 - y), so only ~2e-9 here
    assert rel_err(r.value, (1.0 - 0.9995) ** -0.5) < 1e-7


def test_unit_y_warning_names_the_callers_line():
    # each entry point attributes the warning to its caller, so Python's
    # once-per-location filter shows it once per calling line
    calls = (
        lambda: phi1(Phi1Args(0.5, 1.0, 1.0, 0.0, 0.9995)),
        lambda: log_phi1(0.5, 1.0, 1.0, 0.0, 0.9995),
        lambda: log_phi1_batch(0.5, 1.0, 1.0, [0.0, 1.0], 0.9995),
    )
    for call in calls:
        with pytest.warns(NumericalWarning) as record:
            call()
        assert len(record) == 1
        assert record[0].filename == __file__


def test_phi1_convergence_error_carries_terms(monkeypatch):
    # a budget of 1 + 2 * 30 terms is too few for the x-series at x = 30
    monkeypatch.setattr(specfun, "DEFAULT_MAX_TERMS", 1)
    with pytest.raises(ConvergenceError) as exc:
        phi1(Phi1Args(0.5, 1.0, 1.5, 30.0, 0.3))
    assert exc.value.terms_used == 61


# ---- log variants and batching --------------------------------------------


def test_log_phi1_consistent_with_linear_scale():
    for (alpha, gamma, x, y) in [(0.5, 1.0, 3.0, 0.5), (2.5, 3.0, -4.0, -2.0)]:
        lin = phi1(Phi1Args(alpha, 1.0, gamma, x, y)).value
        assert rel_err(math.exp(log_phi1(alpha, 1.0, gamma, x, y)), lin) < 1e-12


def test_log_phi1_survives_huge_argument():
    # e^700-scale values overflow the linear scale but not the log scale
    val = log_phi1(0.5, 1.0, 1.0, 700.0, 0.0)
    assert math.isfinite(val)
    assert val > 600.0


def test_log_phi1_batch_matches_scalar():
    np = pytest.importorskip("numpy")
    xs = np.array([-6.0, -1.0, 0.0, 0.5, 3.0, 25.0])
    for y in (-1.5, 0.0, 0.6):
        batch = log_phi1_batch(0.5, 1.0, 1.5, xs, y)
        for x, got in zip(xs, batch):
            assert rel_err(got, log_phi1(0.5, 1.0, 1.5, float(x), y)) < 1e-11


def test_numpy_scalar_arguments_warn_nothing_and_give_the_float_bits():
    # a numpy-scalar y once let a large-x coefficient bound overflow with a
    # RuntimeWarning, which "error" turns into an untyped failure; the prior
    # (a, b, tau2, s) = (1, 1/2, 3 * 3.75^2, 20) makes log_normalizer take
    # the same phi1(1/2, 1; 3/2; 20, y)
    np = pytest.importorskip("numpy")
    from hibshrink.prior import HIBParams, log_normalizer

    tau2 = 3.0 * 3.75**2
    args = (0.5, 1.0, 1.5, 20.0, 1.0 - 1.0 / tau2)
    xs = np.array([-20.0, 20.0])
    specfun._crossover.cache_clear()  # each numpy-scalar call derives its own bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = log_phi1(*map(np.float64, args))
        batch = log_phi1_batch(*map(np.float64, args[:3]), xs, np.float64(args[4]))
        specfun._crossover.cache_clear()
        normalizer = log_normalizer(HIBParams(*map(np.float64, (1.0, 0.5, tau2, 20.0))))
    assert type(scalar) is float and scalar == log_phi1(*args)
    assert batch.tolist() == log_phi1_batch(*args[:3], xs, args[4]).tolist()
    assert normalizer == log_normalizer(HIBParams(1.0, 0.5, tau2, 20.0))


def test_log_phi1_batch_negative_x_requires_gamma_above_alpha():
    np = pytest.importorskip("numpy")
    with pytest.raises(DomainError):
        log_phi1_batch(2.5, 1.0, 1.0, np.array([-1.0, 2.0]), 0.5)


def test_log_phi1_batch_rejects_non_finite_arguments():
    # a domain error, as on the scalar path, not a term budget it cannot meet
    np = pytest.importorskip("numpy")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            log_phi1(0.5, 1.0, 1.5, bad, 0.3)
        for y in (-1.5, 0.0, 0.6):
            with pytest.raises(DomainError):
                log_phi1_batch(0.5, 1.0, 1.5, np.array([-6.0, bad, 0.0, 3.0]), y)
        with pytest.raises(DomainError):
            log_phi1_batch(0.5, 1.0, 1.5, np.array([-6.0, 0.0, 3.0]), bad)
    for params in ((math.inf, 1.0, 1.5), (0.5, math.inf, 1.5), (0.5, 1.0, math.inf)):
        with pytest.raises(DomainError):
            log_phi1_batch(*params, np.array([-6.0, 0.0, 3.0]), 0.3)


def _spread_xs(np):
    """60 distinct x of both signs with |x| from 0 up to 800."""
    rng = np.random.default_rng(20)
    mags = np.concatenate([rng.uniform(0.0, 5.0, 20), rng.uniform(5.0, 100.0, 20),
                           rng.uniform(100.0, 800.0, 18), [0.0, 800.0]])
    signs = np.where(np.arange(mags.size) % 2 == 0, 1.0, -1.0)
    return signs * mags


def test_log_phi1_batch_small_blocks_match_scalar(monkeypatch):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    xs = _spread_xs(np)
    for y in (-1.5, 0.0, 0.6):
        batch = log_phi1_batch(0.5, 1.0, 1.5, xs, y)
        for x, got in zip(xs, batch):
            assert rel_err(got, log_phi1(0.5, 1.0, 1.5, float(x), y)) < 1e-11, (x, y)


def test_log_phi1_batch_is_equivariant_under_permutation(monkeypatch):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    xs = _spread_xs(np)
    assert np.unique(xs).size == xs.size
    perm = np.random.default_rng(21).permutation(xs.size)
    for y in (-1.5, 0.0, 0.6):
        whole = log_phi1_batch(0.5, 1.0, 1.5, xs, y)
        assert np.array_equal(log_phi1_batch(0.5, 1.0, 1.5, xs[perm], y), whole[perm])


def test_log_phi1_batch_edge_sizes(monkeypatch):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    empty = log_phi1_batch(0.5, 1.0, 1.5, np.array([]), 0.6)
    assert empty.shape == (0,)
    one = log_phi1_batch(0.5, 1.0, 1.5, np.array([7.0]), 0.6)
    assert one.shape == (1,)
    assert rel_err(one[0], log_phi1(0.5, 1.0, 1.5, 7.0, 0.6)) < 1e-11
    negatives = -np.linspace(0.5, 60.0, 13)
    for y in (-1.5, 0.0, 0.6):
        batch = log_phi1_batch(0.5, 1.0, 1.5, negatives, y)
        for x, got in zip(negatives, batch):
            assert rel_err(got, log_phi1(0.5, 1.0, 1.5, float(x), y)) < 1e-11, (x, y)


def _x0(alpha: float, gamma: float, y: float, negative: bool) -> float:
    """|x| from which phi1(alpha, 1; gamma; x, y), for the x of one sign,
    takes the large-|x| expansion instead of the power series."""
    max_terms = specfun.DEFAULT_MAX_TERMS
    return specfun._plan(alpha, 1.0, gamma, y, negative, max_terms, math.inf).x0


def _crossing_xs(np, alpha, gamma):
    """x of both signs at y = 0, across both crossovers of the large-x branch.

    Nonnegative x sum 1F1(alpha; gamma; x), crossing over at x0(alpha,
    gamma); negative x sum e^x 1F1(gamma - alpha; gamma; -x), crossing over
    at x0(gamma - alpha, gamma).  Each crossover gets the points just below,
    at and just above it, and |x| runs geometrically on either side up to
    1e5.  Past its crossover the scalar path takes the same expansion as the
    batch, so its error no longer builds up in rescale offsets at large
    negative x (3.3e-11 relative at x = -1e5 on the power series).
    """
    xs = [0.0, 1.0]
    for sign in (1.0, -1.0):
        x0 = _x0(alpha, gamma, 0.0, sign < 0.0)
        assert 16.0 <= x0 < 1e3, (alpha, gamma, sign, x0)
        near = [x0 * (1.0 - 1e-3), x0, x0 * (1.0 + 1e-3)]
        xs += [sign * v for v in near + list(np.geomspace(2.0, 1e5, 13))]
    return np.array(xs)


@pytest.mark.parametrize("alpha, gamma", [(0.5, 8.5), (1.0, 50.0), (2.5, 3.0)])
def test_log_phi1_batch_blocks_straddling_the_crossover_match_scalar(monkeypatch, alpha, gamma):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    xs = _crossing_xs(np, alpha, gamma)
    batch = log_phi1_batch(alpha, 1.0, gamma, xs, 0.0)
    for x, got in zip(xs, batch):
        assert rel_err(got, log_phi1(alpha, 1.0, gamma, float(x), 0.0)) < 1e-11, (x, alpha, gamma)


def test_log_phi1_batch_across_the_crossover_is_equivariant_under_permutation(monkeypatch):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    for alpha, gamma in ((0.5, 8.5), (1.0, 50.0), (2.5, 3.0)):
        xs = _crossing_xs(np, alpha, gamma)
        assert np.unique(xs).size == xs.size
        perm = np.random.default_rng(22).permutation(xs.size)
        whole = log_phi1_batch(alpha, 1.0, gamma, xs, 0.0)
        assert np.array_equal(log_phi1_batch(alpha, 1.0, gamma, xs[perm], 0.0), whole[perm])


@pytest.mark.parametrize("y", [-1.5, 0.0, 0.6, 0.99])
def test_each_x_takes_the_branch_of_its_crossover(monkeypatch, y):
    """Scalar and batch sum the power series below the crossover of their y
    and sign of x, and the large-|x| expansion from it on, at every y.

    Each branch is pinned by stubs that refuse the other one: below the
    crossover the expansion's evaluators refuse, and from it on the power
    series' inner terms do, by either inner evaluator.  No |x| < 16 looks a crossover up at all.  At
    y = 0.99 the crossover of x >= 0 lies past 5e3, so x = 40 and 200 stay
    on the power series (x just below that crossover would take seconds).
    """
    np = pytest.importorskip("numpy")

    def refuse(*args):
        raise AssertionError("branch refused here was taken")

    alpha, gamma = 0.5, 8.5
    x0 = {sign: _x0(alpha, gamma, y, sign < 0.0) for sign in (1.0, -1.0)}
    if y == 0.99:
        assert x0[1.0] > 5e3
    small = [0.0, 2.0, -2.0, 15.9, -15.9]
    below = [sign * v for sign in (1.0, -1.0)
             for v in (40.0, 200.0, x0[sign] * (1.0 - 1e-3)) if v < x0[sign] and v < 1e3]
    above = [sign * v for sign in (1.0, -1.0) for v in (x0[sign], x0[sign] * (1.0 + 1e-3), 1e5)]
    values = {}
    for xs, refused in ((small, ("_crossover",)), (below, ("_tail_log", "_tail_row")),
                        (above, ("_hyp2f1_series", "_hyp2f1_block", "_unit_inner"))):
        with monkeypatch.context() as m:
            for name in refused:
                m.setattr(specfun, name, refuse)
            batch = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), y)
            for x, got in zip(xs, batch):
                values[x] = (got, log_phi1(alpha, 1.0, gamma, x, y))
    assert len(values) == len(small) + len(below) + len(above)
    for x, (got_batch, got) in values.items():
        assert rel_err(got_batch, got) < 1e-11, (x, y)


def test_each_crossover_is_derived_once(monkeypatch):
    # a scalar call costs tens of microseconds, less than deriving a
    # crossover, so repeated calls with the same parameters must reuse it
    np = pytest.importorskip("numpy")
    derived = []
    real = specfun._endpoint_coefficients

    def counting(*args):
        derived.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_endpoint_coefficients", counting)
    specfun._crossover.cache_clear()
    xs = np.array([-300.0, 300.0])
    for _ in range(3):
        log_phi1(0.5, 1.0, 8.5, 300.0, 0.3)
        log_phi1(0.5, 1.0, 8.5, -300.0, 0.3)
        log_phi1_batch(0.5, 1.0, 8.5, xs, 0.3)
    assert len(derived) == 2  # one per sign of x


def _count_inner_evaluations(monkeypatch):
    """Record the 2F1 arguments (a, b, c, z) of every inner evaluation for
    the rest of the test, in three lists: the series summed one by one by
    _hyp2f1_series (a recurrence's seeds among them), each step of a
    _hyp2f1_recurrence below its seed, and each row of a _hyp2f1_block."""
    single, steps, block = [], [], []
    series = specfun._hyp2f1_series
    recurrence, rows = specfun._hyp2f1_recurrence, specfun._hyp2f1_block

    def counting_series(a, b, c, z, max_terms):
        single.append((a, b, c, z))
        return series(a, b, c, z, max_terms)

    def counting_recurrence(alpha, gamma, y, lo, top, seed):
        steps.extend((1.0, alpha + n, gamma + n, y) for n in range(lo, top))
        return recurrence(alpha, gamma, y, lo, top, seed)

    def counting_block(a, b, c, z, max_terms):
        block.extend((a, bn, cn, z) for bn, cn in zip(b.tolist(), c.tolist()))
        return rows(a, b, c, z, max_terms)

    monkeypatch.setattr(specfun, "_hyp2f1_series", counting_series)
    monkeypatch.setattr(specfun, "_hyp2f1_recurrence", counting_recurrence)
    monkeypatch.setattr(specfun, "_hyp2f1_block", counting_block)
    return single, steps, block


def test_log_phi1_batch_blocks_share_inner_series(monkeypatch):
    # every inner 2F1 is evaluated at most once per gamma and term index, as
    # a seed, a recurrence step or a block row, however many blocks and rows
    # reach that index; these rows reach |x| = 800, so every sum is long: the
    # x >= 0 values come from a few seeds and their recurrences, and the
    # x < 0 values from the block
    np = pytest.importorskip("numpy")
    xs = _spread_xs(np)
    single, steps, block = _count_inner_evaluations(monkeypatch)
    whole = log_phi1_batch(0.5, 1.0, 1.5, xs, 0.6)
    assert steps and block and len(single) <= 3
    whole_calls = len(single) + len(steps) + len(block)
    for calls in (single, steps, block):
        calls.clear()
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    blocked = log_phi1_batch(0.5, 1.0, 1.5, xs, 0.6)
    assert 0 < len(single) + len(steps) + len(block) <= whole_calls
    assert np.allclose(blocked, whole, rtol=1e-12, atol=0.0)
    # gammas with distinct fractional parts give each (gamma, n) its own
    # 2F1 arguments in both forms of the series; one sign of x per call,
    # since both signs start from the same 2F1 at n = 0
    gammas = [1.5, 2.25, 3.125]
    for negative, part in ((False, xs[xs >= 0.0]), (True, xs[xs < 0.0])):
        for calls in (single, steps, block):
            calls.clear()
        rows = log_phi1_batch(0.5, 1.0, gammas, part, 0.6)
        calls = single + steps + block
        if negative:
            assert block and not steps and not single
        else:
            assert steps and not block and len(single) <= 3 * len(gammas)
        assert len(set(calls)) == len(calls)
        for gamma, row in zip(gammas, rows):
            assert np.allclose(row, log_phi1_batch(0.5, 1.0, gamma, part, 0.6), rtol=1e-12, atol=0.0)


# sha256 prefixes of scalar-gamma log_phi1_batch outputs over the mixed-sign
# x of the test below and over their |x|, at four (alpha, gamma), in blocks
# of 5 and of the default size, recorded from the rows summed by Horner's
# rule, after test_horner_rows_match_the_forward_oracle had held them to the
# forward sums, with numpy 2.4 on x86-64 (whose log may round differently
# elsewhere).  The y != 0 digests were recorded again once long x' >= 0
# sums read their inner 2F1 from the recurrence, after the largest error
# against mpmath of the values that moved had fallen at every y
_SINGLE_GAMMA_DIGESTS = {
    -3.0: "c4356903d85625ab",
    0.0: "c7b2e7afff30f9ba",
    0.25: "83e1505cda154576",
    0.75: "84055c35bcf24667",
    0.9: "10b7411e419f0772",
}


_DIGEST_PARAMS = ((0.5, 1.5), (0.5, 8.5), (1.0, 50.0), (2.5, 3.0))


def _digest_xs(np):
    """Mixed-sign x from 0 to 3e3, across the crossovers, and their |x|."""
    mags = np.concatenate([np.linspace(0.0, 5.0, 11), np.geomspace(5.5, 3e3, 25),
                           [16.0, 56.9, 126.1]])
    return np.where(np.arange(mags.size) % 3 == 0, -mags, mags), mags


@pytest.mark.parametrize("y", sorted(_SINGLE_GAMMA_DIGESTS))
def test_single_gamma_batch_is_bitwise_unchanged(monkeypatch, y):
    np = pytest.importorskip("numpy")
    xs, mags = _digest_xs(np)
    digest = hashlib.sha256()
    for alpha, gamma in _DIGEST_PARAMS:
        for block in (5, specfun._BATCH_BLOCK):
            with monkeypatch.context() as m:
                m.setattr(specfun, "_BATCH_BLOCK", block)
                digest.update(log_phi1_batch(alpha, 1.0, gamma, xs, y).tobytes())
                digest.update(log_phi1_batch(alpha, 1.0, gamma, mags, y).tobytes())
    assert digest.hexdigest()[:16] == _SINGLE_GAMMA_DIGESTS[y]


# the 36 priors of the exact-fits benchmark
_EXACT_FIT_PRIORS = tuple(HIBParams(a, b, tau2, s) for a in (0.5, 1.0) for b in (0.5, 1.0)
                          for tau2 in (0.25, 1.0, 4.0) for s in (-1.0, 0.0, 3.0))

# sha256 prefix of the scalar path: the shrink fields (kappa_bar and the log
# marginal, then the posterior mean's bytes) of every exact-fits prior at
# p in {5, 50} and ||y||^2 in {10, 100, 500, 2000}, then scalar log_phi1 at
# the mixed-sign x of the digest test above, at its four (alpha, gamma) and
# y in {-3, 0.25, 0.75, 0.9}; recorded once long x' >= 0 sums read their
# inner 2F1 from the recurrence, after the largest error against mpmath of
# the log_phi1 values that moved (those of the fits included) had fallen at
# every y, with numpy 2.4 on x86-64 (whose log may round differently
# elsewhere)
_SCALAR_DIGEST = "9b73236d2ced28ee"


def test_scalar_path_is_bitwise_unchanged():
    np = pytest.importorskip("numpy")
    digest = hashlib.sha256()
    for prior in _EXACT_FIT_PRIORS:
        for p in (5, 50):
            for z in (10.0, 100.0, 500.0, 2000.0):
                fit = shrink(np.full(p, math.sqrt(z / p)), 1.0, prior)
                digest.update(struct.pack("<2d", fit.kappa_bar, fit.log_marginal))
                digest.update(fit.post_mean.tobytes())
    xs, _ = _digest_xs(np)
    for y in (-3.0, 0.25, 0.75, 0.9):
        for alpha, gamma in _DIGEST_PARAMS:
            for x in xs.tolist():
                digest.update(struct.pack("<d", log_phi1(alpha, 1.0, gamma, x, y)))
    assert digest.hexdigest()[:16] == _SCALAR_DIGEST


# ---- the inner 2F1 block ----------------------------------------------------


def _series_or_error(a, b, c, z, max_terms):
    """``_hyp2f1_series``'s (value, terms), or (None, 0) where it raises."""
    try:
        return specfun._hyp2f1_series(a, b, c, z, max_terms)
    except ConvergenceError:
        return None, 0


def _assert_block_is_the_series(np, a, alpha, shift, gamma, z, ns, max_terms):
    b, c = alpha + shift * ns, gamma + ns
    values, terms = specfun._hyp2f1_block(a, b, c, z, max_terms)
    for n, value, used in zip(ns.tolist(), values.tolist(), terms.tolist()):
        want = _series_or_error(a, alpha + shift * n, gamma + n, z, max_terms)
        assert (value if used else None, used) == want, (a, alpha, shift, gamma, z, n)


def test_inner_block_equals_the_scalar_series_bit_for_bit(monkeypatch):
    """Every value and term count of _hyp2f1_block is _hyp2f1_series's, by ==.

    Rows n in [start, start + count) of both forms of a plan's inner 2F1: b
    and c growing with n (shift 1, the x' >= 0 form) and c alone (shift 0).
    alpha reaches non-positive integers, whose rows hit a zero term.  Half
    the draws shrink the blocks to 5 columns and 3 rows, so that rows cross
    many sub-block and column-block edges; the default blocks cross them
    from y ~ 0.9 on, where a series needs more than 256 terms.  The scalar
    oracle's cost limits rows to 8 from y = 0.99 on.
    """
    np = pytest.importorskip("numpy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        a=st.sampled_from([1.0, 0.5, 1.7]) | st.floats(0.05, 4.0),
        alpha=st.floats(0.05, 60.0) | st.sampled_from([-4.0, -1.0, 0.0]),
        shift=st.sampled_from([0, 1]),
        gamma=st.floats(0.05, 60.0),
        z=st.floats(0.0, 0.999, exclude_max=True),
        start=st.integers(0, 400),
        count=st.integers(1, 300),
        narrow=st.booleans(),
    )
    def check(a, alpha, shift, gamma, z, start, count, narrow):
        if z >= 0.99:
            count = min(count, 8)
        with monkeypatch.context() as m:
            if narrow:
                m.setattr(specfun, "_BLOCK_COLUMNS", 5)
                m.setattr(specfun, "_BLOCK_ELEMENTS", 21)
            ns = np.arange(start, start + count)
            _assert_block_is_the_series(np, a, alpha, shift, gamma, z, ns, 100_000)

    check()


def test_inner_block_stops_at_a_zero_term_and_at_the_budget(monkeypatch):
    # alpha = -3 puts a zero term at m = 4 of every shift-0 row and of the
    # shift-1 rows n <= 3; a budget of 90 terms leaves the shift-1 rows of
    # y = 0.75 from n ~ 11 on unconverged (they need 78-98), and 2 columns
    # make the streak of three passing tests span column blocks
    np = pytest.importorskip("numpy")
    ns = np.arange(0, 90)
    for columns in (2, specfun._BLOCK_COLUMNS):
        monkeypatch.setattr(specfun, "_BLOCK_COLUMNS", columns)
        for shift in (0, 1):
            _assert_block_is_the_series(np, 1.0, -3.0, shift, 2.5, 0.75, ns, 100_000)
            _assert_block_is_the_series(np, 1.7, 0.5, shift, 2.5, 0.75, ns, 90)
        values, terms = specfun._hyp2f1_block(1.7, 0.5 + ns, 2.5 + ns, 0.75, 90)
        assert terms.min() == 0 < terms.max()


def test_inner_values_past_the_budget_raise_when_read_and_only_then():
    # a budget between the term counts of n = 0 and n = 63 at y = 0.9: the
    # first chunk computes all 64 values, but only a value that did not
    # converge raises, when it is read, with the scalar's text and terms_used
    need = [specfun._hyp2f1_series(1.7, 0.5 + n, 20.5 + n, 0.9, 10**5)[1] for n in (0, 63)]
    budget = (need[0] + need[1]) // 2
    assert need[0] < budget < need[1] and budget >= specfun._BLOCK_MIN_TERMS
    inner = specfun._InnerSeries(1.7, 0.5, 1, 20.5, 0.9, budget, 64.0)
    assert inner(0) == specfun._hyp2f1_series(1.7, 0.5, 20.5, 0.9, budget)[0]
    assert len(inner.values) == 64
    with pytest.raises(ConvergenceError) as want:
        specfun._hyp2f1_series(1.7, 63.5, 83.5, 0.9, budget)
    with pytest.raises(ConvergenceError) as got:
        inner(63)
    assert str(got.value) == str(want.value)
    assert got.value.terms_used == want.value.terms_used == budget


def test_unit_beta_values_past_a_failed_seed_raise_when_read_and_only_then():
    # the beta = 1 twin of the test above: the chunk's seed, at n = 63,
    # does not converge within the budget, so the chunk is left unset and
    # every value is summed on its own when read; inner(0) converges, and
    # inner(63) raises the scalar's text and terms_used, when it is read
    need = [specfun._hyp2f1_series(1.0, 0.5 + n, 8.5 + n, 0.9, 10**5)[1] for n in (0, 63)]
    budget = (need[0] + need[1]) // 2
    assert need[0] < budget < need[1] and budget >= specfun._BLOCK_MIN_TERMS
    inner = specfun._InnerSeries(1.0, 0.5, 1, 8.5, 0.9, budget, 64.0)
    assert inner(0) == specfun._hyp2f1_series(1.0, 0.5, 8.5, 0.9, budget)[0]
    assert inner.values == [None] * 64
    assert inner(1) == specfun._hyp2f1_series(1.0, 1.5, 9.5, 0.9, budget)[0]
    with pytest.raises(ConvergenceError) as want:
        specfun._hyp2f1_series(1.0, 63.5, 71.5, 0.9, budget)
    with pytest.raises(ConvergenceError) as got:
        inner(63)
    assert str(got.value) == str(want.value)
    assert got.value.terms_used == want.value.terms_used == budget


def test_inner_values_near_y_one_keep_the_capped_error():
    # at y = 0.99995 every inner 2F1 needs ~5.5e5 terms against the capped
    # budget of 50,000: the sum of |x| = 60 fills a chunk of 130, whose
    # seed fails, reads inner(0) on its own and raises the scalar's error
    # for it, as the per-n call did
    with pytest.warns(NumericalWarning):
        max_terms = specfun._check_y(0.99995, 60.0)
    with pytest.raises(ConvergenceError) as want:
        specfun._hyp2f1_series(1.0, 0.5, 1.5, 0.99995, max_terms)
    plan = specfun._plan(0.5, 1.0, 1.5, 0.99995, False, max_terms, 60.0)
    assert plan.inner.chunk >= specfun._BLOCK_MIN_TERMS
    with pytest.warns(NumericalWarning), pytest.raises(ConvergenceError) as got:
        log_phi1(0.5, 1.0, 1.5, 60.0, 0.99995)
    assert str(got.value) == str(want.value)
    assert got.value.terms_used == want.value.terms_used == specfun._Y_WARN_MAX_TERMS


def test_a_failed_seed_costs_one_series_before_the_error(monkeypatch):
    # the same call spends one 50,000-term series on its chunk's seed and
    # one on inner(0), which raises; it sums no block and no recurrence
    single, steps, block = _count_inner_evaluations(monkeypatch)
    with pytest.warns(NumericalWarning), pytest.raises(ConvergenceError) as got:
        log_phi1(0.5, 1.0, 1.5, 60.0, 0.99995)
    assert got.value.terms_used == specfun._Y_WARN_MAX_TERMS
    assert len(single) <= 2 and not steps and not block


def test_long_sums_take_the_recurrence_or_the_block_and_short_ones_do_not(monkeypatch):
    """The slowest exact-fits fits (tau2 = 4, Z near 500) once summed ~690
    inner 2F1 one at a time.  Their long sums, in the x' >= 0 form with
    beta = 1, now take the recurrence from a few seeds; long sums of the
    x' < 0 form, or with beta != 1, take the block; and only the short
    ones, as the prior normalizer's, keep the per-n call.  Every normalizer
    of the 36 exact-fits priors sums under 64 terms, so none of them
    reaches either."""
    np = pytest.importorskip("numpy")
    single, steps, block = _count_inner_evaluations(monkeypatch)
    shrink(np.full(50, math.sqrt(10.0)), 1.0, HIBParams(0.5, 0.5, 4.0, 0.0))
    assert len(single) <= 3 and len(steps) >= 500 and not block
    for beta, x in ((1.0, -25.0), (2.0, 50.0)):
        single.clear()
        log_phi1(0.5, beta, 8.5, x, 0.75)
        assert len(block) >= 64 and not single
        block.clear()

    def refuse(*args):
        raise AssertionError("a short sum left the per-n series")

    monkeypatch.setattr(specfun, "_hyp2f1_block", refuse)
    monkeypatch.setattr(specfun, "_hyp2f1_recurrence", refuse)
    single.clear()
    for prior in _EXACT_FIT_PRIORS:
        log_normalizer(prior)
    assert single


# ---- forward-summation oracle of the batch rows ------------------------------
#
# The batch rows once summed term by term, one array pass per operation: the
# forward loops below, kept here as the oracle of the Horner rows that
# replaced them.  Each records, under (kind, gamma, tilt, |x| that fixed the
# count), the term count at which each of its blocks stopped.


def _forward_tail_row(absx, out, gamma, plan, counts):
    np = pytest.importorskip("numpy")
    width = min(specfun._BATCH_BLOCK, absx.size)
    buffers = np.empty((4, width))
    for start in range(0, absx.size, specfun._BATCH_BLOCK):
        size = min(specfun._BATCH_BLOCK, absx.size - start)
        inv, power, term, total = buffers[:, :size]
        xb = absx[start : start + size]
        np.divide(1.0, xb, out=inv)
        power.fill(1.0)
        total.fill(1.0)
        s = 0
        while True:
            s += 1
            if s == len(plan.coefs):
                raise ConvergenceError("oracle asymptotic series did not converge", terms_used=s)
            power *= inv
            np.multiply(power, plan.coefs[s], out=term)
            total += term
            if plan.bounds[s] * float(power[0]) <= specfun._TAIL_TOL:
                break
        counts[("tail", gamma, plan.tilt, float(xb[0]))] = s
        np.log(xb, out=inv)
        np.log(total, out=total)
        total += np.multiply(inv, plan.a - gamma, out=term)
        total += plan.tail_log
        if not plan.tilt:
            total += xb
        out[start : start + size] = total


def _forward_series_row(absx, out, gamma, plan, max_terms, counts):
    np = pytest.importorskip("numpy")
    a, inner = plan.a, plan.inner
    q_first = q_prev = inner(0)
    poch_ratio = 1.0
    ratios = [0.0]
    width = min(specfun._BATCH_BLOCK, absx.size)
    buffers = np.empty((4, width))
    for start in range(0, absx.size, specfun._BATCH_BLOCK):
        size = min(specfun._BATCH_BLOCK, absx.size - start)
        term, off, scratch, total = buffers[:, :size]
        xb = absx[start : start + size]
        total.fill(q_first)
        term.fill(q_first)
        off.fill(0.0)
        streak = 0
        rescaled = False
        n = 0
        while streak < 3:
            if n == max_terms:
                raise ConvergenceError("oracle series did not converge", terms_used=n)
            n += 1
            if n == len(ratios):
                poch_ratio *= (a + n - 1.0) / (gamma + n - 1.0)
                if poch_ratio < specfun._SCALE_LO:
                    poch_ratio *= specfun._RESCALE
                    q_prev *= specfun._RESCALE
                q = poch_ratio * inner(n)
                ratios.append(q / (q_prev * n))
                q_prev = q
            np.multiply(xb, ratios[n], out=scratch)
            term *= scratch
            total += term
            if float(total.max() if rescaled else total[-1]) > specfun._SCALE_HI:
                rescaled = True
                big = total > specfun._SCALE_HI
                total[big] /= specfun._RESCALE
                term[big] /= specfun._RESCALE
                off[big] += specfun._LOG_RESCALE
            if n % 8 == 0:
                relative = float(term[-1]) / float(total[-1])
                streak = 0 if relative > specfun.DEFAULT_REL_TOL else streak + 1
        counts[("series", gamma, plan.tilt, float(xb[-1]))] = n
        np.log(total, out=total)
        total += off
        total += plan.log_pref
        if plan.tilt:
            total += np.multiply(xb, -plan.tilt, out=scratch)
        out[start : start + size] = total


def _oracle_log_phi1_batch(monkeypatch, alpha, gamma, x, y, counts):
    """log_phi1_batch with its rows summed by the forward oracle."""
    with monkeypatch.context() as m:
        m.setattr(specfun, "_series_row",
                  lambda *args: _forward_series_row(*args, counts=counts))
        m.setattr(specfun, "_tail_row", lambda *args: _forward_tail_row(*args, counts=counts))
        return log_phi1_batch(alpha, 1.0, gamma, x, y)


def _record_degrees(monkeypatch, degrees):
    """Record each Horner block's degree in ``degrees``, keyed as the oracle keys
    its term counts, for the rest of the test."""
    series_row, tail_row = specfun._series_row, specfun._tail_row
    block_terms, tail_log = specfun._block_terms, specfun._tail_log
    row = []

    def series(absx, out, gamma, plan, max_terms):
        row[:] = [gamma, plan.tilt]
        series_row(absx, out, gamma, plan, max_terms)

    def tail(absx, out, gamma, plan):
        row[:] = [gamma, plan.tilt]
        tail_row(absx, out, gamma, plan)

    def terms(top, *args):
        coefs, rescales = block_terms(top, *args)
        degrees[("series", *row, top)] = len(coefs) - 1
        return coefs, rescales

    def tail_degree(v, gamma, plan):
        log_abs, degree = tail_log(v, gamma, plan)
        degrees[("tail", *row, v)] = degree
        return log_abs, degree

    monkeypatch.setattr(specfun, "_series_row", series)
    monkeypatch.setattr(specfun, "_tail_row", tail)
    monkeypatch.setattr(specfun, "_block_terms", terms)
    monkeypatch.setattr(specfun, "_tail_log", tail_degree)


def _assert_matches_oracle(monkeypatch, alpha, gamma, x, y):
    np = pytest.importorskip("numpy")
    counts, degrees = {}, {}
    expected = _oracle_log_phi1_batch(monkeypatch, alpha, gamma, x, y, counts)
    with monkeypatch.context() as m:
        _record_degrees(m, degrees)
        got = log_phi1_batch(alpha, 1.0, gamma, x, y)
    gap = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    assert float(gap.max(initial=0.0)) <= 1e-13, (alpha, gamma, y, float(gap.max()))
    assert counts and {key: degrees.get(key) for key in counts} == counts, (alpha, gamma, y)


@pytest.mark.parametrize("y", sorted(_SINGLE_GAMMA_DIGESTS))
def test_horner_rows_match_the_forward_oracle(monkeypatch, y):
    """On the inputs of the digest test above, in blocks of 5 and of the
    default size, every batch value is within 1e-13 max(1, |log phi1|) of
    the forward oracle, and every block's Horner degree is the oracle's term
    count for that block."""
    np = pytest.importorskip("numpy")
    xs, mags = _digest_xs(np)
    for alpha, gamma in _DIGEST_PARAMS:
        for block in (5, specfun._BATCH_BLOCK):
            with monkeypatch.context() as m:
                m.setattr(specfun, "_BATCH_BLOCK", block)
                for x in (xs, mags):
                    _assert_matches_oracle(monkeypatch, alpha, gamma, x, y)


def test_production_size_horner_rows_match_the_forward_oracle(monkeypatch):
    """The same checks on the three rows of a p = 15 posterior moment over
    200k sorted draws, several default blocks of series and of expansion."""
    np = pytest.importorskip("numpy")
    alpha, gammas, x = _production_rows(np)
    for gamma in gammas:
        _assert_matches_oracle(monkeypatch, alpha, gamma, x, 0.0)


# (gamma, y) at which the power series of alpha = 1/2 runs to |x| in the
# thousands before its crossover, with one to eight rescales of its sum
_LARGE_TILT_CASES = [(1000.5, 0.0), (1000.5, -0.5), (1500.5, 0.0), (1500.5, -0.5),
                     (8.5, 0.9), (200.5, 0.75)]


def _large_tilt_xs(np, gamma, y):
    """40 |x| of each sign from 0 up to just below its crossover."""
    below = [math.nextafter(_x0(0.5, gamma, y, negative), 0.0) for negative in (False, True)]
    return np.concatenate([np.linspace(0.0, below[0], 40), -np.linspace(0.0, below[1], 40)])


@pytest.mark.parametrize("gamma, y", _LARGE_TILT_CASES)
def test_large_tilt_series_rows_match_scalar_and_mpmath(monkeypatch, gamma, y):
    """Power-series rows whose sums are rescaled one or more times, in
    default blocks and in blocks of 5, against the scalar path, to
    1e-11 max(1, |scalar|).  At gamma = 1500.5 the scalar is itself 5.6e-12
    from mpmath just inside -x0, where log phi1 is -0.51, so the relative
    form of that bound fails for any batch route.

    Where the scalar power series costs milliseconds a point, mpmath checks
    the |x| just below both crossovers at gamma = 1000.5 and at the two
    small-gamma cases, to the bound 1e-12 max(1, |ref|) fixed before
    running.  Just inside -x0 at gamma = 1500.5 the e^x tilt cancels a log
    of the sum near 2698, whose ulp is 4.5e-13, and batch and scalar alike
    are 1.0e-12 from mpmath there.
    """
    mpmath = pytest.importorskip("mpmath")
    np = pytest.importorskip("numpy")
    xs = _large_tilt_xs(np, gamma, y)
    if (gamma, y) == (1000.5, 0.0):
        # a block whose smaller sums fall far below its largest one's rescales
        mags = np.random.default_rng(27).uniform(0.0, 1800.0, 3000)
        xs = np.concatenate([xs, np.where(np.arange(mags.size) % 2 == 0, mags, -mags)])
    scalar = {float(x): log_phi1(0.5, 1.0, gamma, float(x), y) for x in xs[::25]}
    scalar.update((float(x), log_phi1(0.5, 1.0, gamma, float(x), y)) for x in xs[:80])
    for block in (5, specfun._BATCH_BLOCK):
        monkeypatch.setattr(specfun, "_BATCH_BLOCK", block)
        batch = dict(zip(xs.tolist(), log_phi1_batch(0.5, 1.0, gamma, xs, y).tolist()))
        for x, expected in scalar.items():
            assert abs(batch[x] - expected) <= 1e-11 * max(1.0, abs(expected)), (block, x)
    if gamma == 1500.5:
        return
    for x in (float(xs[39]), float(xs[79])):
        ref = _mpmath_log_phi1(mpmath, 0.5, gamma, x, y)
        assert abs(batch[x] - ref) <= 1e-12 * max(1.0, abs(ref)), (x, batch[x] - ref)


def test_rescaled_block_sums_its_low_values_again(monkeypatch):
    """A block of |x| up to 1797 at gamma = 1000.5 and x < 0 rescales its
    sum at its largest |x| four times.  The |x| whose Horner sums fall below
    the floor are summed again as blocks of their own, each with its own
    largest |x| and degree; the first block's degree is still the oracle's
    term count, and every value matches the scalar path."""
    np = pytest.importorskip("numpy")
    mags = np.sort(np.random.default_rng(27).uniform(0.0, 1800.0, 3000))
    x = -mags[mags < _x0(0.5, 1000.5, 0.0, True)][::-1]
    counts, degrees = {}, {}
    _oracle_log_phi1_batch(monkeypatch, 0.5, 1000.5, x, 0.0, counts)
    _record_degrees(monkeypatch, degrees)
    got = log_phi1_batch(0.5, 1.0, 1000.5, x, 0.0)
    assert len(counts) == 1 and len(degrees) > 1
    assert {key: degrees[key] for key in counts} == counts
    for v, value in zip(x[::50].tolist(), got[::50].tolist()):
        expected = log_phi1(0.5, 1.0, 1000.5, v, 0.0)
        assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected)), v
    # the smallest |x|, whose log phi1 is near -2.5e-4, keep their relative
    # precision: no log of a sum far below 1 cancels against the rescales
    for v, value in zip(x[-5:].tolist(), got[-5:].tolist()):
        assert rel_err(value, log_phi1(0.5, 1.0, 1000.5, v, 0.0)) < 1e-11, v


# (alpha, gammas): the three series of a posterior moment, and four gammas
# far apart, given out of order
_ROW_CASES = [(0.5, [8.5, 9.5, 10.5]), (1.0, [51.0, 3.0, 20.0, 50.0])]


def _rows_xs(np, alpha, gammas, y):
    """_spread_xs plus, for every gamma and sign, |x| just below, at and
    just above its crossover."""
    xs = list(_spread_xs(np))
    for gamma in gammas:
        for sign in (1.0, -1.0):
            x0 = _x0(alpha, gamma, y, sign < 0.0)
            xs += [sign * x0 * f for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
    return np.array(xs)


@pytest.mark.parametrize("y", [-3.0, 0.0, 0.25, 0.75, 0.9])
def test_log_phi1_batch_rows_match_single_gamma_calls(monkeypatch, y):
    """Each row of a multi-gamma call is the call with its gamma alone, bit
    for bit, in one block and in blocks of 5 that straddle every crossover.

    Rows are summed independently, each over its own slices of the one
    ascending |x|: the power series below its own crossover and the
    large-|x| expansion from it on, in blocks that start where its own
    series and expansion start.
    """
    np = pytest.importorskip("numpy")
    for block in (5, specfun._BATCH_BLOCK):
        monkeypatch.setattr(specfun, "_BATCH_BLOCK", block)
        for alpha, gammas in _ROW_CASES:
            xs = _rows_xs(np, alpha, gammas, y)
            assert max(xs) > 0.0 > min(xs)
            rows = log_phi1_batch(alpha, 1.0, gammas, xs, y)
            assert rows.shape == (len(gammas), xs.size)
            for gamma, row in zip(gammas, rows):
                ref = log_phi1_batch(alpha, 1.0, gamma, xs, y)
                assert np.array_equal(row, ref), (block, alpha, gamma, y)


def _production_rows(np):
    """``(alpha, gammas, x)`` of a p = 15 posterior moment over 200k sorted
    draws, as a risk point sums them."""
    assert specfun._BATCH_BLOCK == 32768
    prior = half_cauchy()
    alpha, c = prior.b, prior.a + 7.5 + prior.b  # the b and a' + b of p = 15
    # tilts Z/2 at |beta|^2 = 100, about half of them past each crossover
    rng = np.random.default_rng(26)
    x = np.sort(0.5 * rng.noncentral_chisquare(15, 100.0, 200_000))
    return alpha, [c, c + 1.0, c + 2.0], x


def test_production_size_rows_match_single_gamma_calls():
    """The three gammas of a posterior moment at p = 15 over 200k sorted
    draws, as a risk point sums them: several default blocks, with each
    row's large-|x| expansion spread over more than one of them; every row
    is its single-gamma call, bit for bit."""
    np = pytest.importorskip("numpy")
    alpha, gammas, x = _production_rows(np)
    for gamma in gammas:
        split = int(np.searchsorted(x, _x0(alpha, gamma, 0.0, False)))
        assert min(split, x.size - split) > specfun._BATCH_BLOCK, (gamma, split)
    rows = log_phi1_batch(alpha, 1.0, gammas, x, 0.0)
    for gamma, row in zip(gammas, rows):
        assert np.array_equal(row, log_phi1_batch(alpha, 1.0, gamma, x, 0.0)), gamma


def test_log_phi1_batch_rows_are_equivariant_under_permutation(monkeypatch):
    # permuting x permutes the columns and permuting gamma the rows, bit for bit
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    alpha, gammas = _ROW_CASES[1]
    rng = np.random.default_rng(23)
    for y in (-1.5, 0.0, 0.6):
        xs = _rows_xs(np, alpha, gammas, y)
        assert np.unique(xs).size == xs.size
        px, pg = rng.permutation(xs.size), rng.permutation(len(gammas))
        whole = log_phi1_batch(alpha, 1.0, gammas, xs, y)
        permuted = log_phi1_batch(alpha, 1.0, np.array(gammas)[pg], xs[px], y)
        assert np.array_equal(permuted, whole[pg][:, px])


def test_mixed_sign_batch_sorts_x_once():
    # one sorted copy of x serves both signs and all rows, and is freed
    # before the argsort that puts the three rows of logs (4.58 MiB) back in
    # x's order; an implementation that gathered and sorted each sign apart
    # peaked at 8.88 MiB here
    np = pytest.importorskip("numpy")
    x = 40.0 * np.random.default_rng(7).standard_normal(200_000)
    gammas = [8.5, 9.5, 10.5]
    log_phi1_batch(0.5, 1.0, gammas, x[:1000], 0.0)
    tracemalloc.start()
    try:
        log_phi1_batch(0.5, 1.0, gammas, x, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.6 * 2**20, peak / 2**20


def _in_place_xs(np, mixed: bool):
    """3 blocks and one element of x, with ties and signed zeros, across
    every crossover of the three rows below (the highest, 186.4, is that of
    gamma = 10.5 at y = 0.75 for x >= 0)."""
    x = 40.0 * np.random.default_rng(24).standard_normal(3 * 32768 + 1)
    x[:40] = np.repeat([0.0, -0.0, 2.5, 150.0, 400.0], 8)
    return x if mixed else np.abs(x)


@pytest.mark.parametrize("y", [0.0, 0.25, 0.75, -3.0])
def test_ascending_x_is_summed_in_place_to_the_same_bits(y):
    # an ascending x is read and written in place, with no argsort, gather
    # or scatter; each value keeps the bits of the call on shuffled x
    np = pytest.importorskip("numpy")
    assert specfun._BATCH_BLOCK == 32768
    for mixed in (False, True):
        x = np.sort(_in_place_xs(np, mixed))
        assert (x < 0.0).any() == mixed
        perm = np.random.default_rng(25).permutation(x.size)
        for gamma in (8.5, [8.5, 9.5, 10.5]):
            ascending = log_phi1_batch(0.5, 1.0, gamma, x, y)
            shuffled = log_phi1_batch(0.5, 1.0, gamma, x[perm], y)
            back = np.empty_like(shuffled)
            back[..., perm] = shuffled
            assert np.array_equal(ascending, back), (y, mixed, gamma)


def test_ascending_x_is_never_argsorted(monkeypatch):
    np = pytest.importorskip("numpy")

    def refuse(*args, **kwargs):
        raise AssertionError("an ascending x was sorted, argsorted or gathered")

    x = np.sort(_in_place_xs(np, True))
    expected = log_phi1_batch(0.5, 1.0, [8.5, 9.5, 10.5], x, 0.25)
    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "take", refuse)
    assert np.array_equal(log_phi1_batch(0.5, 1.0, [8.5, 9.5, 10.5], x, 0.25), expected)


def test_unsorted_x_is_summed_sorted_and_put_back(monkeypatch):
    # x out of order is summed as one sorted copy, with no gather, and each
    # row of logs is put back through one argsort of x
    np = pytest.importorskip("numpy")
    x = _in_place_xs(np, True)
    assert (x < 0.0).any() and (np.diff(x) < 0.0).any()
    gammas = [8.5, 9.5, 10.5]
    order = np.argsort(x)
    expected = np.empty((3, x.size))
    expected[:, order] = log_phi1_batch(0.5, 1.0, gammas, x[order], 0.25)
    calls = []

    def counted(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    def refuse(*args, **kwargs):
        raise AssertionError("x was gathered")

    monkeypatch.setattr(np, "sort", counted("sort"))
    monkeypatch.setattr(np, "argsort", counted("argsort"))
    monkeypatch.setattr(np, "take", refuse)
    assert np.array_equal(log_phi1_batch(0.5, 1.0, gammas, x, 0.25), expected)
    assert sorted(calls) == ["argsort", "sort"]


def test_mixed_sign_ascending_batch_holds_only_its_arrays():
    # three rows of logs (4.58 MiB), the negated negatives (about half of
    # the 1.53 MiB of x) and the block buffers (1.0 MiB), with no sorted
    # copy or sort order of x
    np = pytest.importorskip("numpy")
    x = np.sort(40.0 * np.random.default_rng(7).standard_normal(200_000))
    gammas = [8.5, 9.5, 10.5]
    log_phi1_batch(0.5, 1.0, gammas, x[:1000], 0.0)
    tracemalloc.start()
    try:
        log_phi1_batch(0.5, 1.0, gammas, x, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.6 * 2**20, peak / 2**20


def test_ascending_x_holding_a_nan_is_refused():
    np = pytest.importorskip("numpy")
    x = np.linspace(-50.0, 50.0, 101)
    for where in (0, 50, 100):
        bad = x.copy()
        bad[where] = math.nan
        with pytest.raises(DomainError):
            log_phi1_batch(0.5, 1.0, [8.5, 9.5, 10.5], bad, 0.25)


def test_ascending_moment_batch_holds_only_its_arrays():
    # the rows of logs (three at tau2 = 4, 4.58 MiB; two at tau2 = 1 and
    # s >= 0, 3.05 MiB), s_post (1.53 MiB) and the block buffers (1.25 MiB),
    # with no sort order of s_post beside them
    np = pytest.importorskip("numpy")
    from hibshrink.posterior import kappa_moment12_batch
    from hibshrink.prior import HIBParams

    p, n = 15, 200_000
    rng = np.random.default_rng(12)
    u = 6.0 + rng.standard_normal(n)
    z = np.sort(u * u + rng.chisquare(p - 1, n))
    for prior, bound_mib in ((HIBParams(0.5, 0.5, 4.0, 0.0), 8.6), (half_cauchy(), 5.9)):
        kappa_moment12_batch(prior, p, z[:1000])
        tracemalloc.start()
        try:
            kappa_moment12_batch(prior, p, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (prior, peak / 2**20)


def test_log_phi1_batch_gamma_shapes():
    np = pytest.importorskip("numpy")
    xs = np.array([[-3.0, 0.0], [2.0, 40.0]])
    assert log_phi1_batch(0.5, 1.0, 1.5, xs, 0.3).shape == (2, 2)
    assert log_phi1_batch(0.5, 1.0, np.float64(1.5), xs, 0.3).shape == (2, 2)
    one = log_phi1_batch(0.5, 1.0, [1.5], xs, 0.3)
    assert one.shape == (1, 2, 2)
    assert np.array_equal(one[0], log_phi1_batch(0.5, 1.0, 1.5, xs, 0.3))
    rows = log_phi1_batch(0.5, 1.0, (1.5, 2.5), xs, 0.3)
    assert rows.shape == (2, 2, 2)
    assert np.allclose(rows[1], log_phi1_batch(0.5, 1.0, 2.5, xs, 0.3), rtol=1e-14, atol=1e-14)
    assert log_phi1_batch(0.5, 1.0, [1.5, 2.5], np.array([]), 0.3).shape == (2, 0)
    assert log_phi1_batch(0.5, 1.0, [], xs, 0.3).shape == (0, 2, 2)
    for bad in ([[1.5, 2.5]], [1.5, 0.0], [1.5, math.inf], [1.5, math.nan]):
        with pytest.raises(DomainError):
            log_phi1_batch(0.5, 1.0, bad, xs, 0.3)
    with pytest.raises(DomainError, match="gamma > alpha"):
        log_phi1_batch(2.0, 1.0, [3.0, 1.5], xs, 0.3)


# ---- differential suite against mpmath --------------------------------------


def _mpmath_log_phi1(mpmath, alpha: float, gamma: float, x: float, y: float) -> float:
    """log phi1(alpha, 1; gamma; x, y) from its Euler integral at 40 digits.

    phi1 = Gamma(gamma) / (Gamma(alpha) Gamma(b))
        * int_0^1 t^(alpha-1) (1-t)^(b-1) e^(xt) / (1-yt) dt,  b = gamma - alpha,

    uses none of the series rewrites under test.  The integral is split at
    t = 1/2 and, on the side of the dominant endpoint (t = 0 for x < 0,
    t = 1 for x > 0), at distances 8^k/|x| (k >= 0) from it, so that the
    peak of s^(p-1) e^(-|x| s), at a distance s = (p-1)/|x|, lies between
    nearby cuts however large |x| is.  Each endpoint power s^(p-1) with
    p < 1 is substituted away (v = s^p), because tanh-sinh nodes next to
    t = 1 lose 1 - t to cancellation, and the integrand is scaled to about 1
    at its peak.  ``mpmath.hyper2d`` is not
    used: for integer alpha and y <= -1.3 it takes seconds per point and can
    return a wrong value (-6.1 for log phi1 = -1.02 at alpha = 1,
    gamma = 18.1, x = -29.7, y = -1.4999).
    """
    with mpmath.workdps(40):
        a, g, x, y = map(mpmath.mpf, (alpha, gamma, x, y))
        b = g - a
        half = mpmath.mpf(1) / 2
        scale = 1 / max(abs(x), 1)
        steps = sorted({half} | {scale * 8**k for k in range(20) if scale * 8**k < half})
        # the dominant endpoint is t = 0 for x < 0 and t = 1 for x > 0
        cuts = {True: steps, False: [half]}

        def log_weight(t):
            log = mpmath.log
            return (a - 1) * log(t) + (b - 1) * log(1 - t) - log(1 - y * t) + x * t

        shift = max(log_weight(t) for s in steps for t in (s, 1 - s))

        def piece(p, q, t_of, dominant):
            # int_0^(1/2) s^(p-1) (1-s)^(q-1) e^(xt - shift) / (1 - yt) ds with
            # t = t_of(s), in v = s^e, e = min(p, 1): s^(p-1) ds = v^(p/e-1) dv / e
            e = min(p, 1)

            def integrand(v):
                s = v ** (1 / e)
                t = t_of(s)
                weight = v ** (p / e - 1) * (1 - s) ** (q - 1) / e
                return weight * mpmath.exp(x * t - shift) / (1 - y * t)

            return mpmath.quad(integrand, [0] + [s**e for s in cuts[dominant]], error=True)

        lo, lo_err = piece(a, b, lambda s: s, x < 0)
        hi, hi_err = piece(b, a, lambda s: 1 - s, x > 0)
        value = lo + hi
        assert lo_err + hi_err <= 1e-25 * value, (alpha, gamma, x, y)
        log_norm = mpmath.loggamma(g) - mpmath.loggamma(a) - mpmath.loggamma(b)
        return float(mpmath.log(value) + shift + log_norm)


def test_log_phi1_matches_mpmath_on_unit_beta_domain():
    """Scalar and batch log phi1 against mpmath over the statistical domain.

    beta = 1 and gamma - alpha > 0 is the pattern every posterior formula
    produces.  Hypothesis draws are derandomized, so reruns check the same
    points; the worst error on these draws is 1.2e-11, at y = 0.95, where the
    truncation tail grows like rel_tol * y / (1 - y).
    """
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    np = pytest.importorskip("numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        alpha=st.floats(0.3, 3.0),
        shape=st.floats(0.3, 30.0),
        xs=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
        y=st.floats(-5.0, 0.95),
    )
    def check(alpha, shape, xs, y):
        gamma = alpha + shape
        batch = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), y)
        for x, got_batch in zip(xs, batch):
            ref = _mpmath_log_phi1(mpmath, alpha, gamma, x, y)
            bound = 1e-10 * max(1.0, abs(ref))
            assert abs(log_phi1(alpha, 1.0, gamma, x, y) - ref) <= bound, (alpha, gamma, x, y)
            assert abs(got_batch - ref) <= bound, (alpha, gamma, x, y)

    check()


def test_log_phi1_batch_rows_match_mpmath():
    """The three rows of a posterior-moment call, gamma, gamma + 1 and
    gamma + 2, against mpmath on the statistical domain, to the 1e-10 bound
    of test_log_phi1_matches_mpmath_on_unit_beta_domain."""
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    np = pytest.importorskip("numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        alpha=st.floats(0.3, 3.0),
        shape=st.floats(0.3, 30.0),
        xs=st.lists(st.floats(-40.0, 120.0), min_size=1, max_size=3),
        y=st.floats(-5.0, 0.95),
    )
    def check(alpha, shape, xs, y):
        gammas = [alpha + shape + k for k in (0.0, 1.0, 2.0)]
        rows = log_phi1_batch(alpha, 1.0, gammas, np.array(xs), y)
        for gamma, row in zip(gammas, rows):
            for x, got in zip(xs, row):
                ref = _mpmath_log_phi1(mpmath, alpha, gamma, x, y)
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (alpha, gamma, x, y)

    check()


# (alpha, gamma) of the long-sum nets: the digest parameters and a
# half-Cauchy-like (1/2, 3)
_LONG_SUM_PARAMS = _DIGEST_PARAMS + ((0.5, 3.0),)


@pytest.mark.parametrize("y", [0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
def test_long_unit_beta_sums_match_mpmath(y):
    """log phi1 at x >= 0 below the crossover, with beta = 1 and a sum long
    enough to read its inner 2F1 from the recurrence, against mpmath, to
    bounds fixed before running: 1e-13 max(1, |ref|) up to y = 0.9, and
    1e-11 max(1, |ref|) up to y = 0.99.

    The batch holds small x too, 0 to 5, whose values come from the low
    end of a chunk that the largest x of the call made long; the scalar is
    checked where its own sum is long, from x = 27 on (x + 8 sqrt(x) + 8 >=
    64).  Summed per n, the same values were up to 8.3e-11 off at y = 0.99
    (small x) and 2.0e-13 at (1/2, 17/2, 0.9, 40): each per-n value keeps
    its own truncation tail, about 1e-12 y/(1 - y) of it, where the
    recurrence keeps only the seed's, and shrinks it down the chunk.
    """
    mpmath = pytest.importorskip("mpmath")
    np = pytest.importorskip("numpy")
    bound = 1e-13 if y <= 0.9 else 1e-11
    for alpha, gamma in _LONG_SUM_PARAMS:
        x0 = _x0(alpha, gamma, y, False)
        xs = sorted({x for x in (0.0, 0.5, 5.0, 40.0, min(100.0, x0 * (1.0 - 1e-3))) if x < x0})
        batch = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), y)
        for x, got in zip(xs, batch.tolist()):
            ref = _mpmath_log_phi1(mpmath, alpha, gamma, x, y)
            assert abs(got - ref) <= bound * max(1.0, abs(ref)), (alpha, gamma, x, got - ref)
            if x >= 27.0:
                got = log_phi1(alpha, 1.0, gamma, x, y)
                assert abs(got - ref) <= bound * max(1.0, abs(ref)), (alpha, gamma, x, got - ref)


@pytest.mark.parametrize("y", [0.0, -0.5])
def test_tilt_cancellation_at_large_gamma_stays_within_its_ulp_bound(y):
    """log phi1 just inside -x0 at gamma = 1500.5, where |x| = 2698, against
    mpmath, to absolute bounds in ulps of |x| fixed before running: 6 on the
    batch and 24 on the scalar.

    There the sum S is about e^|x| and log phi1 = log S - |x| is -0.51, so
    every absolute error of log S is one of the result.  Two kinds add up:
    - roundings of numbers near |x|: log S, and the j = 6 multiples of
      512 log 2 that undo the rescales of S.  The batch adds them in one
      product and one sum, at most 3 ulps with the log; the scalar adds
      each to a running offset, at most 3 + j/2.
    - the relative error of S, which is the tail the stop rule leaves.  The
      scalar stops at its third term below 1e-12 S, where the term ratio
      rho is 0.88, and the rest is at most 1e-12 rho/(1 - rho) = 7.5e-12,
      16.5 ulps.  The batch stops 16 terms after its first check below
      1e-12 S, which leaves rho^16 of that, 2.2 ulps.
    Neither path sums the x' < 0 form so that nothing cancels, and the
    scalar's longer tail is that of its stop rule, three terms in a row.
    """
    mpmath = pytest.importorskip("mpmath")
    np = pytest.importorskip("numpy")
    gamma = 1500.5
    xs = _large_tilt_xs(np, gamma, y)
    x = float(xs[-1])  # just inside -x0
    ulp = math.ulp(-x)
    ref = _mpmath_log_phi1(mpmath, 0.5, gamma, x, y)
    batch = log_phi1_batch(0.5, 1.0, gamma, xs, y)[-1]
    assert abs(batch - ref) <= 6 * ulp, (batch - ref) / ulp
    scalar = log_phi1(0.5, 1.0, gamma, x, y)
    assert abs(scalar - ref) <= 24 * ulp, (scalar - ref) / ulp


def test_large_gamma_expansion_at_negative_x_matches_mpmath():
    """Scalar and batch log phi1 at gamma in [188, 300], x < 0 past the
    crossover, against mpmath, to the bound 1e-13 max(1, |ref|) fixed
    before running.

    At x < 0 the expansion's a is gamma - alpha, and its scale log
    Gamma(gamma)/Gamma(a) is near alpha log gamma while lgamma(gamma) and
    lgamma(a) are near 1.4e3: their plain difference was off by up to
    2.2e-13 here, and missed this bound by up to 2.1x.
    """
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    np = pytest.importorskip("numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        alpha=st.floats(0.3, 12.0),
        gamma=st.floats(188.0, 300.0),
        y=st.floats(-3.0, 0.9),
        u=st.floats(0.0, 1.0),
    )
    def check(alpha, gamma, y, u):
        x0 = _x0(alpha, gamma, y, True)
        assert x0 < 1e4, (alpha, gamma, y)
        # |x| = x0 (1e4/x0)^u runs from the crossover to 1e4
        xs = [-x0, -x0 * (1e4 / x0) ** u]
        batch = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), y)
        for x, got_batch in zip(xs, batch):
            ref = _mpmath_log_phi1(mpmath, alpha, gamma, x, y)
            bound = 1e-13 * max(1.0, abs(ref))
            assert abs(log_phi1(alpha, 1.0, gamma, x, y) - ref) <= bound, (alpha, gamma, x, y)
            assert abs(got_batch - ref) <= bound, (alpha, gamma, x, y)

    check()


@pytest.mark.parametrize("y", [-3.0, 0.25, 0.75, 0.9])
def test_large_x_expansion_matches_mpmath(y):
    """Scalar and batch log phi1(alpha, 1; gamma; x, y) against mpmath at
    40 digits, across the crossover of each sign of x and up to |x| = 1e5.

    Every draw checks, on both signs, |x| just below, at and just above the
    crossover, one |x| drawn between it and 1e5, and 1e5.  From each
    crossover on, scalar and batch take the expansion at the dominant
    endpoint of the Euler integral, and both are held to the bound
    1e-13 max(1, |ref|), fixed before any result was seen, and to each
    other within it.  Just below a crossover both sum the power series,
    held here to the 1e-10 bound it has on the statistical domain (see
    test_log_phi1_matches_mpmath_on_unit_beta_domain): each inner 2F1 stops
    at a relative term of 1e-12 and leaves a tail of about 1e-12 y/(1-y),
    which reaches 1.3e-12 of max(1, |ref|) just inside -x0 at y = -3 (flipped
    to y = 0.75).  On the power series, the scalar path missed the 1e-13
    bound past x = -1e3 at y = 0.25, 0.75 and 0.9 (by 1e-12 at (0.5, 8.5),
    and at y = 0.25 by 3.1e-11 at x = -1e5).
    """
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    np = pytest.importorskip("numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=2, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        alpha=st.one_of(st.floats(0.3, 3.0), st.sampled_from([0.5, 1.0, 2.0])),
        shape=st.floats(0.3, 30.0),
        u=st.floats(0.0, 1.0),
    )
    @hypothesis.example(alpha=0.5, shape=8.0, u=0.5)
    def check(alpha, shape, u):
        gamma = alpha + shape
        xs, past = [], []
        for sign in (1.0, -1.0):
            x0 = _x0(alpha, gamma, y, sign < 0.0)
            assert x0 < 1e5, (alpha, gamma, y, sign)
            # |x| = x0 (1e5/x0)^u runs from the crossover to 1e5
            for v, tail in ((x0 * (1.0 - 1e-3), False), (x0, True), (x0 * (1.0 + 1e-3), True),
                            (x0 * (1e5 / x0) ** u, True), (1e5, True)):
                xs.append(sign * v)
                past.append(tail)
        batch = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), y)
        for x, tail, got_batch in zip(xs, past, batch):
            ref = _mpmath_log_phi1(mpmath, alpha, gamma, x, y)
            got = log_phi1(alpha, 1.0, gamma, x, y)
            bound = (1e-13 if tail else 1e-10) * max(1.0, abs(ref))
            assert abs(got - ref) <= bound, (alpha, gamma, x, y, got - ref)
            assert abs(got_batch - ref) <= bound, (alpha, gamma, x, y, got_batch - ref)
            if tail:
                assert abs(got - got_batch) <= bound, (alpha, gamma, x, y)

    check()


def test_log_phi1_batch_large_x_branch_matches_mpmath():
    """Batch log phi1 at y = 0, i.e. log 1F1, against mpmath on both sides of
    the crossover to the asymptotic series, and the scalar past it.

    alpha covers [0.3, 3] and the integers 1 and 2, whose (1 - a)_s ends the
    dominant series early; gamma - alpha covers [0.3, 60].  |x| runs from
    half the crossover of its sign to 1e5, and every draw also checks x
    exactly at both crossovers.  The bound 1e-13 max(1, |ref|) was fixed
    before the results were seen.  The power series alone meets it on these
    draws for 0 <= x <= 1e4 and -3e3 <= x < 0, but misses it by up to 6.4x
    at the three in [-1e4, -3e3], where its e^x tilt cancels a log near |x|.
    From each crossover on the scalar path takes the same expansion, and is
    held to the same bound.
    """
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    np = pytest.importorskip("numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        alpha=st.one_of(st.floats(0.3, 3.0), st.sampled_from([1.0, 2.0])),
        shape=st.floats(0.3, 60.0),
        spots=st.lists(
            st.tuples(st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=3
        ),
    )
    def check(alpha, shape, spots):
        gamma = alpha + shape
        x0 = {sign: _x0(alpha, gamma, 0.0, sign < 0.0) for sign in (1.0, -1.0)}
        xs = [x0[1.0], -x0[-1.0]]
        # |x| = x0/2 (2e5/x0)^u runs from x0/2 to 1e5
        xs += [sign * 0.5 * x0[sign] * (2e5 / x0[sign]) ** u for sign, u in spots]
        got = log_phi1_batch(alpha, 1.0, gamma, np.array(xs), 0.0)
        with mpmath.workdps(40):
            for x, value in zip(xs, got):
                ref = float(mpmath.log(mpmath.hyp1f1(alpha, gamma, x)))
                bound = 1e-13 * max(1.0, abs(ref))
                assert abs(value - ref) <= bound, (alpha, gamma, x)
                if abs(x) >= x0[math.copysign(1.0, x)]:  # the scalar's expansion too
                    scalar = log_phi1(alpha, 1.0, gamma, x, 0.0)
                    assert abs(scalar - ref) <= bound, (alpha, gamma, x)

    check()
