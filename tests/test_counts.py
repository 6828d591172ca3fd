"""Every integer count of the package is read by one rule, ``errors.check_count``.

Each entry point below takes a count (a dimension, a moment order, a Monte
Carlo size, a sweep count or a seed).  A Python ``int`` and the same value
as a numpy integer give identical results and streams, and whatever stores
the count stores an ``int``; a ``bool``, a float, a value below the count's
minimum, a string and ``None`` raise ``DomainError`` with the count's message.
"""

import re

import numpy as np
import pytest

from hibshrink.errors import DomainError, check_count
from hibshrink.posterior import kappa_moment, kappa_moment12_batch, log_m_kernel, m_kernel, update
from hibshrink.prior import half_cauchy
from hibshrink.risk import (
    RiskCurveSpec,
    js_risk,
    risk_analytic,
    risk_curve,
    sample_z,
    simulate_estimator_risk,
    sure_integrand,
)
from hibshrink.sparse import GibbsConfig, SparseDataset, horseshoe_gibbs, simulate_sparse
from hibshrink.specfun import pochhammer
from hibshrink.streams import check_seed, stream

Z = np.array([0.5, 2.0, 30.0])
STATE = update(half_cauchy(), 3, 2.0)
DATA = SparseDataset(np.zeros(4), np.arange(8.0).reshape(4, 2) / 4.0, 2, 1.0)


def _spec(**counts):
    return RiskCurveSpec(**{"p": 5, "n_mc": 10, "seed": 3, "beta_norms": (0.0, 2.0),
                            "prior": half_cauchy(), "comparators": frozenset({"js_plus"}),
                            **counts})


def _curve(**counts):
    spec = _spec(**counts)
    stored = tuple(type(getattr(spec, name)) for name in ("p", "n_mc", "seed"))
    return stored, tuple(risk_curve(spec))


def _config(**counts):
    config = GibbsConfig(**{"n_iter": 40, "burn_in": 10, "seed": 2, **counts})
    stored = tuple(type(getattr(config, name)) for name in ("n_iter", "burn_in", "seed"))
    return stored, horseshoe_gibbs(DATA, config).profile.tobytes()


def _dataset(n_rep):
    data = SparseDataset(np.zeros(3), np.ones((3, 2)), n_rep, 1.0)
    return type(data.n_rep), data.y.tobytes()


def _typed(value):
    return type(value), value


# (entry point, its count's valid value, minimum, message before ", got")
COUNTS = [
    ("update.p", lambda p: update(half_cauchy(), p, 2.0), 3, 1, "p must be a positive integer"),
    ("kappa_moment12_batch.p", lambda p: b"".join(g.tobytes() for g in
                                                 kappa_moment12_batch(half_cauchy(), p, Z)),
     3, 1, "p must be a positive integer"),
    ("kappa_moment.n", lambda n: _typed(kappa_moment(STATE, n)), 2, 0,
     "moment order must be a nonnegative integer"),
    ("log_m_kernel.p_eff", lambda p: _typed(log_m_kernel(half_cauchy(), p, 2.0)), 3, 0,
     "p_eff must be a nonnegative integer"),
    ("m_kernel.p_eff", lambda p: _typed(m_kernel(half_cauchy(), p, 2.0)), 3, 0,
     "p_eff must be a nonnegative integer"),
    ("RiskCurveSpec.p", lambda p: _curve(p=p), 5, 3, "p must be an integer >= 3"),
    ("RiskCurveSpec.n_mc", lambda n: _curve(n_mc=n), 10, 2, "n_mc must be an integer >= 2"),
    ("RiskCurveSpec.seed", lambda s: _curve(seed=s), 3, 0, "seed must be a nonnegative integer"),
    ("risk_analytic.p", lambda p: risk_analytic(half_cauchy(), p, 1.0, n_mc=20, seed=1),
     5, 2, "p must be an integer >= 2"),
    ("risk_analytic.p quadrature", lambda p: risk_analytic(half_cauchy(), p, 1.0,
                                                          method="quadrature"),
     5, 2, "p must be an integer >= 2"),
    ("risk_analytic.n_mc", lambda n: risk_analytic(half_cauchy(), 5, 1.0, n_mc=n, seed=1),
     20, 2, "n_mc must be an integer >= 2"),
    ("risk_analytic.seed", lambda s: risk_analytic(half_cauchy(), 5, 1.0, n_mc=20, seed=s),
     1, 0, "seed must be a nonnegative integer"),
    ("simulate_estimator_risk.p",
     lambda p: simulate_estimator_risk("mle", p, 1.0, n_mc=20, seed=1),
     5, 2, "p must be an integer >= 2"),
    ("simulate_estimator_risk.n_mc",
     lambda n: simulate_estimator_risk("js_plus", 5, 1.0, n_mc=n, seed=1),
     20, 2, "n_mc must be an integer >= 2"),
    ("sample_z.p", lambda p: _typed(sample_z(1.0, p, stream(0, "counts"))), 5, 2,
     "p must be an integer >= 2"),
    ("sure_integrand.p", lambda p: sure_integrand(half_cauchy(), p, Z).tobytes(), 5, 2,
     "p must be an integer >= 2"),
    ("js_risk.p", lambda p: _typed(js_risk(p, 1.0)), 5, 3, "p must be an integer >= 3"),
    ("SparseDataset.n_rep", _dataset, 2, 1, "n_rep must be a positive integer"),
    ("GibbsConfig.n_iter", lambda n: _config(n_iter=n), 40, 1,
     "n_iter must be a positive integer"),
    ("GibbsConfig.burn_in", lambda n: _config(burn_in=n), 10, 0,
     "burn_in must be a nonnegative integer"),
    ("GibbsConfig.seed", lambda s: _config(seed=s), 2, 0, "seed must be a nonnegative integer"),
    ("simulate_sparse.seed", lambda s: simulate_sparse(s).y.tobytes(), 3, 0,
     "seed must be a nonnegative integer"),
    ("stream.seed", lambda s: stream(s, "counts").random(4).tobytes(), 3, 0,
     "seed must be a nonnegative integer"),
    ("check_seed", lambda s: _typed(check_seed(s)), 3, 0, "seed must be a nonnegative integer"),
    ("pochhammer.n", lambda n: _typed(pochhammer(2.5, n)), 3, 0,
     "n must be a nonnegative integer"),
]
IDS = [row[0] for row in COUNTS]


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    # the chains here are short: no helper process is worth its fork
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")


@pytest.mark.parametrize("name, call, good, minimum, message", COUNTS, ids=IDS)
def test_numpy_integers_give_the_results_of_an_int(name, call, good, minimum, message):
    kinds = [np.int64, np.int32] + ([np.uint64] if "seed" in name else [])
    expected = call(good)
    for kind in kinds:
        assert call(kind(good)) == expected, (name, kind)


@pytest.mark.parametrize("name, call, good, minimum, message", COUNTS, ids=IDS)
def test_a_non_integer_or_a_small_count_is_refused(name, call, good, minimum, message):
    for bad in (True, False, float(good), minimum - 1, np.int64(minimum - 1), str(good), None):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}, got {re.escape(repr(bad))}$"):
            call(bad)


def test_check_count_returns_an_int():
    for value in (3, np.int64(3), np.int32(3), np.uint64(3), np.int8(3)):
        assert type(check_count("k", value, 3)) is int
    with pytest.raises(DomainError, match=r"^k must be an integer >= 4, got np.int64\(3\)$"):
        check_count("k", np.int64(3), 4)
    for value in (np.bool_(True), 3.0, np.float64(3.0), "3", None, np.array(3)):
        with pytest.raises(DomainError, match="k must be a positive integer"):
            check_count("k", value, 1)


def test_a_comparator_reads_its_p_before_comparing_it():
    # a str p once reached "p < 3" and raised TypeError
    for tag in ("js", "js_plus"):
        with pytest.raises(DomainError, match="^p must be an integer >= 2, got '7'$"):
            simulate_estimator_risk(tag, "7", 1.0)
        with pytest.raises(DomainError, match="James-Stein comparators require p >= 3"):
            simulate_estimator_risk(tag, np.int64(2), 1.0)


def test_risk_values_are_python_floats_for_a_numpy_p():
    # js_risk once returned an np.float64 for an np.int64 p
    for p in (np.int64(15), np.int32(15)):
        assert type(js_risk(p, 1.0)) is float and js_risk(p, 1.0) == js_risk(15, 1.0)
        assert type(js_risk(p, 0.0)) is float
        for method in ("mc", "quadrature"):
            point = risk_analytic(half_cauchy(), p, 1.0, n_mc=50, seed=2, method=method)
            assert type(point.mse) is float and type(point.mc_std_err) is float
