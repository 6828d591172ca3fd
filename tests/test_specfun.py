"""Special-function layer: log-beta, Gauss 2F1 (phi1 at x = 0), and the confluent
two-variable series behind every posterior quantity in this package.

Expected values come from closed forms, from an inline brute-force double
series written independently here, or from cross-checking the two in-repo
representations against each other; a property-based suite compares
``log_phi1`` and ``log_phi1_batch`` with mpmath at 40 digits.
"""

import math

import pytest

from hibshrink import specfun
from hibshrink.errors import ConvergenceError, DomainError, NumericalWarning
from hibshrink.oracles import phi1_double_series
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


def test_log_phi1_batch_blocks_share_inner_series(monkeypatch):
    # every inner 2F1 is evaluated at most once per term index, however many
    # blocks reach that index
    np = pytest.importorskip("numpy")
    xs = _spread_xs(np)
    calls = []
    real = specfun._hyp2f1_series

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_hyp2f1_series", counting)
    single = log_phi1_batch(0.5, 1.0, 1.5, xs, 0.6)
    single_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(specfun, "_BATCH_BLOCK", 5)
    blocked = log_phi1_batch(0.5, 1.0, 1.5, xs, 0.6)
    assert 0 < len(calls) <= single_calls
    assert np.allclose(blocked, single, rtol=1e-12, atol=0.0)


# ---- differential suite against mpmath --------------------------------------


def _mpmath_log_phi1(mpmath, alpha: float, gamma: float, x: float, y: float) -> float:
    """log phi1(alpha, 1; gamma; x, y) from its Euler integral at 40 digits.

    phi1 = Gamma(gamma) / (Gamma(alpha) Gamma(b))
        * int_0^1 t^(alpha-1) (1-t)^(b-1) e^(xt) / (1-yt) dt,  b = gamma - alpha,

    uses none of the series rewrites under test.  The integral is split at
    t = 1/2 and each endpoint power is substituted away, because tanh-sinh
    nodes next to t = 1 lose 1 - t to cancellation.  ``mpmath.hyper2d`` is
    not used: for integer alpha and y <= -1.3 it takes seconds per point and
    can return a wrong value (-6.1 for log phi1 = -1.02 at alpha = 1,
    gamma = 18.1, x = -29.7, y = -1.4999).
    """
    with mpmath.workdps(40):
        a, g, x, y = map(mpmath.mpf, (alpha, gamma, x, y))
        b = g - a

        def smooth(t):
            return mpmath.exp(x * t) / (1 - y * t)

        def lower(u):  # t = u^(1/a), so t^(a-1) dt = du / a
            t = u ** (1 / a)
            return (1 - t) ** (b - 1) * smooth(t) / a

        def upper(v):  # 1 - t = v^(1/b), so (1-t)^(b-1) dt = dv / b
            t = 1 - v ** (1 / b)
            return t ** (a - 1) * smooth(t) / b

        lo, lo_err = mpmath.quad(lower, [0, mpmath.mpf(2) ** -a], error=True)
        hi, hi_err = mpmath.quad(upper, [0, mpmath.mpf(2) ** -b], error=True)
        value = lo + hi
        assert lo_err + hi_err <= 1e-25 * value, (alpha, gamma, x, y)
        log_norm = mpmath.loggamma(g) - mpmath.loggamma(a) - mpmath.loggamma(b)
        return float(mpmath.log(value) + log_norm)


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
