"""Every scalar real argument of the package is read by one rule, ``errors.check_real``.

Each entry point below takes a real hyperparameter or data summary.  An
``int``, a numpy integer, a numpy float32 or float64 scalar and a
``Fraction`` of the same value give the bits of the Python ``float``, and
whatever stores the argument stores a ``float``; a ``bool``, a string,
``None``, NaN, +-inf and a value outside the argument's interval raise
``DomainError`` with the argument's message.
"""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hibshrink.cli import main
from hibshrink.errors import DomainError, check_real
from hibshrink.posterior import (
    log_m_kernel,
    m_kernel,
    marginal_log_likelihood,
    mgf_kappa,
    shrink,
    update,
)
from hibshrink.prior import (
    HIBParams,
    double_half_cauchy_density,
    double_half_cauchy_kappa_kernel,
    double_half_cauchy_log_density,
    half_cauchy,
    hyperbolic_secant_density,
    log_normalizer,
)
from hibshrink.quadrature import integrate_unit_result, oracle_hib_moment
from hibshrink.risk import (
    RiskCurveSpec,
    js_risk,
    risk_analytic,
    risk_curve,
    sample_z,
    simulate_estimator_risk,
)
from hibshrink.sparse import SparseDataset, conditional_log_likelihood, ig_induced_density
from hibshrink.specfun import Phi1Args, log_beta, log_phi1, log_phi1_batch, phi1, pochhammer
from hibshrink.streams import stream

HC = half_cauchy()
STATE = update(HC, 3, 2.0)
Y = np.array([0.5, -1.0, 2.0, 0.25])
X = np.array([-3.0, 0.5, 40.0])
DATA = SparseDataset(np.zeros(4), np.arange(8.0).reshape(4, 2) / 4.0, 2, 1.0)

# each interval's message words, and one value outside it (None: no finite one)
INTERVALS = {
    "finite": ("be finite", None),
    "nonnegative": ("be nonnegative and finite", -0.5),
    "positive": ("be positive and finite", 0.0),
    "unit": ("lie strictly inside (0, 1)", 1.0),
}


def _prior(**fields):
    return HIBParams(**{"a": 1.5, "b": 0.5, "tau2": 2.0, "s": -1.0, **fields})


def _phi1(**args):
    return phi1(Phi1Args(**{"alpha": 1.0, "beta": 1.5, "gamma": 2.5, "x": 3.0, "y": 0.25,
                            **args}))


def _log_phi1(**args):
    args = {"alpha": 1.0, "beta": 1.5, "gamma": 2.5, "x": 3.0, "y": 0.25, **args}
    return log_phi1(args["alpha"], args["beta"], args["gamma"], args["x"], args["y"])


def _batch(**args):
    args = {"alpha": 1.0, "beta": 1.5, "gamma": 4.0, "y": 0.25, **args}
    return log_phi1_batch(args["alpha"], args["beta"], args["gamma"], X, args["y"])


def _with_prior(**fields):
    prior = _prior(**fields)
    return prior, log_normalizer(prior)


def _spec(norm):
    spec = RiskCurveSpec(5, (0.0, norm), 10, 3, HC, frozenset({"js", "mle"}))
    return spec, risk_curve(spec)


# (entry point, its argument's valid value, the argument's name and interval)
REALS = [
    ("Phi1Args.alpha", lambda v: _phi1(alpha=v), 2, "alpha", "positive"),
    ("Phi1Args.beta", lambda v: _phi1(beta=v), 2, "beta", "positive"),
    ("Phi1Args.gamma", lambda v: _phi1(gamma=v), 3, "gamma", "positive"),
    ("Phi1Args.x", lambda v: _phi1(x=v), -2, "x", "finite"),
    ("Phi1Args.y", lambda v: _phi1(y=v), -1, "y", "finite"),
    ("Phi1Args fields", lambda v: Phi1Args(v, v, v, v, 0.5), 2, "alpha", "positive"),
    ("log_phi1.gamma", lambda v: _log_phi1(gamma=v), 3, "gamma", "positive"),
    ("log_phi1.x", lambda v: _log_phi1(x=v), 5, "x", "finite"),
    ("log_phi1.y", lambda v: _log_phi1(y=v), 0, "y", "finite"),
    ("log_phi1_batch.alpha", lambda v: _batch(alpha=v).tobytes(), 2, "alpha", "positive"),
    ("log_phi1_batch.beta", lambda v: _batch(beta=v).tobytes(), 2, "beta", "positive"),
    ("log_phi1_batch.gamma", lambda v: _batch(gamma=v).tobytes(), 3, "gamma", "positive"),
    ("log_phi1_batch.gammas", lambda v: _batch(gamma=(4.0, v)).tobytes(), 3, "gamma",
     "positive"),
    ("log_phi1_batch.y", lambda v: _batch(y=v).tobytes(), -1, "y", "finite"),
    ("log_beta.a", lambda v: log_beta(v, 2.5), 2, "a", "positive"),
    ("log_beta.b", lambda v: log_beta(1.5, v), 3, "b", "positive"),
    ("pochhammer.c", lambda v: pochhammer(v, 3), -2, "c", "finite"),
    ("HIBParams.a", lambda v: _with_prior(a=v), 2, "a", "positive"),
    ("HIBParams.b", lambda v: _with_prior(b=v), 1, "b", "positive"),
    ("HIBParams.tau2", lambda v: _with_prior(tau2=v), 4, "tau2", "positive"),
    ("HIBParams.s", lambda v: _with_prior(s=v), -3, "s", "finite"),
    ("double_half_cauchy_log_density.lam", double_half_cauchy_log_density, 3, "lam",
     "positive"),
    ("double_half_cauchy_density.lam", double_half_cauchy_density, 3, "lam", "positive"),
    ("double_half_cauchy_kappa_kernel.kappa", double_half_cauchy_kappa_kernel, 0.25, "kappa",
     "unit"),
    ("hyperbolic_secant_density.psi", hyperbolic_secant_density, -3, "psi", "finite"),
    ("update.Z", lambda v: update(HC, 3, v, 0.5), 5, "Z", "nonnegative"),
    ("update.sigma2", lambda v: update(HC, 3, 5.0, v), 2, "sigma2", "positive"),
    ("shrink.sigma2", lambda v: shrink(Y, v, _prior()), 2, "sigma2", "positive"),
    ("marginal_log_likelihood.sigma2", lambda v: marginal_log_likelihood(Y, v, _prior()), 2,
     "sigma2", "positive"),
    ("mgf_kappa.t", lambda v: mgf_kappa(STATE, v), -2, "t", "finite"),
    ("log_m_kernel.Z", lambda v: log_m_kernel(HC, 3, v), 6, "Z", "nonnegative"),
    ("m_kernel.Z", lambda v: m_kernel(HC, 3, v), 6, "Z", "nonnegative"),
    ("RiskCurveSpec.beta_norms", _spec, 2, "beta_norms", "nonnegative"),
    ("risk_analytic.beta_norm", lambda v: risk_analytic(HC, 5, v, n_mc=20, seed=1), 2,
     "beta_norm", "nonnegative"),
    ("risk_analytic.beta_norm quadrature",
     lambda v: risk_analytic(HC, 5, v, method="quadrature"), 2, "beta_norm", "nonnegative"),
    ("simulate_estimator_risk.beta_norm",
     lambda v: simulate_estimator_risk("js_plus", 5, v, n_mc=20, seed=1), 2, "beta_norm",
     "nonnegative"),
    ("js_risk.beta_norm", lambda v: js_risk(5, v), 3, "beta_norm", "nonnegative"),
    ("sample_z.beta_norm", lambda v: sample_z(v, 5, stream(0, "reals")), 2, "beta_norm",
     "nonnegative"),
    ("SparseDataset.sigma", lambda v: SparseDataset(np.zeros(3), np.ones((3, 2)), 2, v), 2,
     "sigma", "positive"),
    ("conditional_log_likelihood.lam",
     lambda v: conditional_log_likelihood(DATA, v, 1.0, np.ones(4)), 2, "lam", "positive"),
    ("conditional_log_likelihood.sigma",
     lambda v: conditional_log_likelihood(DATA, 0.5, v, np.ones(4)), 2, "sigma", "positive"),
    ("ig_induced_density.lam", ig_induced_density, 2, "lam", "positive"),
    ("integrate_unit_result.a_exp",
     lambda v: integrate_unit_result(lambda k: k, v, 1.0).value, 2, "a_exp", "positive"),
    ("integrate_unit_result.b_exp",
     lambda v: integrate_unit_result(lambda k: k, 1.0, v).value, 2, "b_exp", "positive"),
    ("oracle_hib_moment.Z", lambda v: oracle_hib_moment(HC, 1, 3, v), 2, "Z", "nonnegative"),
]
IDS = [row[0] for row in REALS]


def _bits(value):
    """A comparable image of a result: every float by its bits and type, every
    array by its dtype, shape and bytes, and a record field by field."""
    if type(value) is float:
        return "float", value.hex()
    if isinstance(value, (int, str, type(None))):
        return type(value).__name__, value
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list, frozenset)):
        return type(value).__name__, tuple(_bits(item) for item in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (field.name, _bits(getattr(value, field.name))) for field in dataclasses.fields(value)
        )
    # a numpy scalar, or anything else, never matches a float
    return type(value).__name__, repr(value)


def _kinds(good):
    """The non-float types that hold ``good`` exactly."""
    kinds = [np.float32, np.float64, Fraction]
    return kinds + ([int, np.int64] if float(good).is_integer() else [])


@pytest.mark.parametrize("entry, call, good, name, interval", REALS, ids=IDS)
def test_every_real_type_gives_the_bits_of_a_float(entry, call, good, name, interval):
    expected = _bits(call(float(good)))
    for kind in _kinds(good):
        assert _bits(call(kind(good))) == expected, (entry, kind)


@pytest.mark.parametrize("entry, call, good, name, interval", REALS, ids=IDS)
def test_a_non_real_or_a_value_outside_the_interval_is_refused(entry, call, good, name,
                                                               interval):
    words, outside = INTERVALS[interval]
    bad_values = [True, False, "1", None, math.nan, math.inf, -math.inf, np.float64(math.nan)]
    if outside is not None:
        bad_values += [outside, np.float32(outside), Fraction(outside)]
    for bad in bad_values:
        message = f"^{re.escape(name)} must {re.escape(words)}, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            call(bad)


def test_stored_reals_are_floats():
    fields = [
        (_prior(a=2, b=np.float32(0.5), tau2=Fraction(4), s=np.int64(-3)),
         ("a", "b", "tau2", "s")),
        (Phi1Args(1, np.float32(2), Fraction(3), np.int64(-1), np.float64(0.5)),
         ("alpha", "beta", "gamma", "x", "y")),
        (update(HC, 3, np.float32(2), Fraction(1, 2)), ("a_post", "s_post", "Z", "sigma2")),
        (SparseDataset(np.zeros(3), np.ones((3, 2)), 2, np.float32(2)), ("sigma",)),
        (RiskCurveSpec(5, (0, np.float32(1.5), Fraction(5, 2)), 10, 3, HC), ("beta_norms",)),
    ]
    for record, names in fields:
        for name in names:
            value = getattr(record, name)
            for item in value if isinstance(value, tuple) else (value,):
                assert type(item) is float, (type(record).__name__, name, item)
    fit = shrink(Y, np.float32(2), _prior())
    assert type(fit.post_var_scalar) is float and type(fit.log_marginal) is float


def test_a_float32_prior_computes_in_float64():
    # the float32 fields once kept kappa_bar and log_marginal in float32,
    # 4.9e-9 and 1.3e-7 off, relatively
    y = np.linspace(-1.0, 2.0, 7)
    fields = (np.float32(0.3), 0.5, np.float32(2.0), np.float32(0.7))
    fit = shrink(y, 1, HIBParams(*fields))
    twin = shrink(y, 1.0, HIBParams(*(float(v) for v in fields)))
    assert type(fit.kappa_bar) is float and type(fit.log_marginal) is float
    assert _bits(fit) == _bits(twin)


def test_a_float32_tilt_does_not_overflow():
    # Z/sigma2 = 3e68 once overflowed float32 to inf, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = update(HC, 5, np.float32(3e38), np.float32(1e-30))
    assert type(state.s_post) is float and math.isfinite(state.s_post)
    assert state.s_post == 0.5 * float(np.float32(3e38)) / float(np.float32(1e-30))


def test_a_bool_is_refused_where_it_was_stored():
    # both once stored True
    with pytest.raises(DomainError, match="^a must be positive and finite, got True$"):
        HIBParams(True, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError, match="^beta_norms must be nonnegative and finite, got True$"):
        RiskCurveSpec(5, (True,), 10, 0, HC)


def test_check_real_returns_a_float():
    for value in (3, np.int64(3), np.int8(3), np.uint64(3), 3.0, np.float64(3.0),
                  np.float32(3.0), np.float16(3.0), Fraction(3)):
        got = check_real("r", value, "positive")
        assert type(got) is float and got == 3.0, value
    assert check_real("r", -0.0, "nonnegative") == 0.0
    assert check_real("r", 0.5, "unit") == 0.5
    assert check_real("r", -1e308) == -1e308
    for value in (np.bool_(True), np.array(3.0), 3j, "3", b"3", [3.0], 10**400, -(10**400)):
        with pytest.raises(DomainError, match="^r must be finite, got "):
            check_real("r", value)
    for value, interval in ((-1e-300, "nonnegative"), (0.0, "unit"), (1.0, "unit"),
                            (-0.0, "positive"), (0, "positive")):
        with pytest.raises(DomainError, match=f"^r must {re.escape(INTERVALS[interval][0])}, "):
            check_real("r", value, interval)


@pytest.mark.parametrize("grid, message", [
    ("nan:1:3", "grid lo must be finite, got nan"),
    ("0:inf:3", "grid hi must be finite, got inf"),
    ("-inf:1:3", "grid lo must be finite, got -inf"),
])
def test_a_cli_grid_end_is_read_by_the_real_rule(capsys, tmp_path, grid, message):
    out = tmp_path / "density.csv"
    code = main(["prior-density", "--var", "lambda", f"--grid={grid}", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()
