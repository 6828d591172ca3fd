"""Every real array argument of the package is read by one rule, ``errors.check_reals``.

Each entry point below takes a real array (or a float the density grids and
``sure_integrand`` read as a one-point array).  A float64 array, a Python
list, a tuple, an integer array and a float32 array of the same values give
the same result bits; a ``bool``, string, complex or object array raises
``DomainError`` with the argument's message, and so do NaN, +-inf and a value
outside the argument's interval, named by the minimum or maximum they make.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from hibshrink.errors import DomainError, check_reals
from hibshrink.posterior import kappa_moment12_batch, marginal_log_likelihood, shrink
from hibshrink.prior import (
    density_kappa,
    density_lambda,
    density_lambda2,
    half_cauchy,
    log_density_kappa,
    log_density_lambda2,
)
from hibshrink.risk import (
    COMPARATOR_TAGS,
    RiskCurveSpec,
    js_estimate,
    js_plus_estimate,
    mle_estimate,
    sure_integrand,
)
from hibshrink.sparse import (
    GibbsConfig,
    SparseDataset,
    conditional_log_likelihood,
    horseshoe_gibbs,
)
from hibshrink.specfun import log_phi1_batch

HC = half_cauchy()
DATA = SparseDataset(np.zeros(4), np.arange(8.0).reshape(4, 2) / 4.0, 2, 1.0)

# each interval's message words
WORDS = {
    "finite": "be finite",
    "nonnegative": "be nonnegative and finite",
    "positive": "be positive and finite",
    "unit": "lie strictly inside (0, 1)",
}


def _dataset_y(v):
    return SparseDataset(np.zeros(2), v, 2, 1.0)


# (entry point, call, valid values, the argument's name, its interval)
ARRAYS = [
    ("log_phi1_batch.x", lambda v: log_phi1_batch(0.5, 1.0, (1.5, 2.5), v, 0.25),
     [-3.0, 0.5, 40.0], "x", "finite"),
    ("log_density_kappa.kappa", lambda v: log_density_kappa(HC, v), [0.25, 0.5, 0.75], "kappa",
     "unit"),
    ("density_kappa.kappa", lambda v: density_kappa(HC, v), [0.25, 0.5, 0.75], "kappa", "unit"),
    ("log_density_lambda2.lambda2", lambda v: log_density_lambda2(HC, v), [0.5, 1.0, 4.0],
     "lambda2", "positive"),
    ("density_lambda2.lambda2", lambda v: density_lambda2(HC, v), [0.5, 1.0, 4.0], "lambda2",
     "positive"),
    ("density_lambda.lam", lambda v: density_lambda(HC, v), [0.0, 0.5, 2.0], "lam",
     "nonnegative"),
    ("shrink.y", lambda v: shrink(v, 1.0, HC), [0.5, -1.0, 2.0, 0.25], "y", "finite"),
    ("marginal_log_likelihood.y", lambda v: marginal_log_likelihood(v, 1.0, HC),
     [0.5, -1.0, 2.0, 0.25], "y", "finite"),
    ("kappa_moment12_batch.z_values", lambda v: kappa_moment12_batch(HC, 7, v),
     [0.0, 1.0, 10.0], "z_values: every Z", "nonnegative"),
    ("sure_integrand.Z", lambda v: sure_integrand(HC, 7, v), [0.0, 2.0, 7.0], "Z: every Z",
     "nonnegative"),
    ("js_estimate.y", js_estimate, [1.0, -2.0, 3.0], "y", "finite"),
    ("js_plus_estimate.y", js_plus_estimate, [1.0, -2.0, 3.0], "y", "finite"),
    ("mle_estimate.y", mle_estimate, [1.0, -2.0, 3.0], "y", "finite"),
    ("SparseDataset.beta_true", lambda v: SparseDataset(v, np.ones((3, 2)), 2, 1.0),
     [0.0, 1.0, 2.5], "beta_true", "finite"),
    ("SparseDataset.y", _dataset_y, [[0.5, 1.0], [-2.0, 3.0]], "y", "finite"),
    ("conditional_log_likelihood.u2", lambda v: conditional_log_likelihood(DATA, 0.5, 1.0, v),
     [1.0, 2.0, 0.5, 4.0], "u2", "positive"),
]
IDS = [row[0] for row in ARRAYS]


def _bits(value):
    """A comparable image of a result: every float by its bits, every array by
    its dtype, shape and bytes, and a tuple or record item by item."""
    if type(value) is float:
        return "float", value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, field.name)) for field in dataclasses.fields(value))
    return type(value).__name__, repr(value)


def _forms(good):
    """The same values as a list, a tuple, a float32 array and, where every
    value is a whole number, an int64 array and a list of ints."""
    array = np.array(good)
    forms = [good, tuple(map(tuple, good)) if array.ndim == 2 else tuple(good),
             array.astype(np.float32)]
    if (array == np.round(array)).all():
        forms += [array.astype(np.int64), array.astype(int).tolist()]
    return forms


@pytest.mark.parametrize("entry, call, good, name, interval", ARRAYS, ids=IDS)
def test_every_real_array_form_gives_the_bits_of_float64(entry, call, good, name, interval):
    expected = _bits(call(np.array(good, dtype=float)))
    for form in _forms(good):
        assert _bits(call(form)) == expected, (entry, form)


def _with(good, value, where):
    """``good`` as float64 with its entry at flat index ``where`` set to ``value``."""
    array = np.array(good, dtype=float)
    array.flat[where] = value
    return array


@pytest.mark.parametrize("entry, call, good, name, interval", ARRAYS, ids=IDS)
def test_a_non_real_dtype_or_an_entry_outside_the_interval_is_refused(entry, call, good, name,
                                                                      interval):
    words = re.escape(WORDS[interval])
    array = np.array(good, dtype=float)
    for bad in (array.astype(str), array.astype(str).tolist(), np.ones(array.shape, bool),
                array.astype(complex), array.astype(object)):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must {words}, got values of "
                                              f"dtype {re.escape(str(np.asarray(bad).dtype))}$"):
            call(bad)
    bad_entries = [(math.nan, "minimum nan"), (-math.inf, "minimum -inf"),
                   (math.inf, "maximum inf")]
    bad_entries += {"finite": [], "nonnegative": [(-0.5, "minimum -0.5")],
                    "positive": [(0.0, "minimum 0.0"), (-1.0, "minimum -1.0")],
                    "unit": [(0.0, "minimum 0.0"), (1.0, "maximum 1.0")]}[interval]
    for value, got in bad_entries:
        for where in (0, array.size - 1):
            with pytest.raises(DomainError, match=f"^{re.escape(name)} must {words}, got {got}$"):
                call(_with(good, value, where))


# the examples that once returned values: each names the argument it refuses
ONCE_ACCEPTED = [
    ("density_kappa '0.5'", lambda: density_kappa(HC, "0.5"), "kappa"),
    ("density_kappa strings", lambda: density_kappa(HC, ["0.25", "0.5"]), "kappa"),
    ("density_lambda True", lambda: density_lambda(HC, True), "lam"),
    ("sure_integrand '2'", lambda: sure_integrand(HC, 7, "2"), "Z: every Z"),
    ("log_phi1_batch strings",
     lambda: log_phi1_batch(0.5, 1, 1.5, np.array(["1", "2"]), 0), "x"),
    ("shrink strings", lambda: shrink(["1", "2", "3"], 1, HC), "y"),
    ("SparseDataset strings",
     lambda: SparseDataset(["0", "1"], [["1", "2"], ["3", "4"]], 2, 1.0), "beta_true"),
    ("SparseDataset string y", lambda: _dataset_y([["1", "2"], ["3", "4"]]), "y"),
    ("conditional_log_likelihood strings",
     lambda: conditional_log_likelihood(DATA, 0.5, 1.0, ["1", "2", "3", "4"]), "u2"),
]


@pytest.mark.parametrize("entry, call, name", ONCE_ACCEPTED,
                         ids=[row[0] for row in ONCE_ACCEPTED])
def test_strings_and_bools_are_refused_by_name(entry, call, name):
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must .*, got values of dtype "):
        call()


@pytest.mark.parametrize("estimate", [js_estimate, js_plus_estimate, mle_estimate])
def test_comparator_estimates_refuse_non_finite_data(estimate):
    # [inf, 1, 2] once came back as itself, and [nan, 1, 2] as all NaN
    with pytest.raises(DomainError, match=r"^y must be finite, got maximum inf$"):
        estimate([math.inf, 1.0, 2.0])
    with pytest.raises(DomainError, match=r"^y must be finite, got minimum nan$"):
        estimate([math.nan, 1.0, 2.0])


def test_density_lambda_refuses_a_lam_whose_square_leaves_the_float_range():
    # the derived check on lam^2 stays after the grid is read
    for lam, got in (([0.0, 1e-200], "minimum 0.0"), ([1.0, 1e200], "maximum inf"),
                     (1e-170, "minimum 0.0")):
        with pytest.raises(DomainError, match=rf"^lam\^2 must be positive and finite, got {got}$"):
            density_lambda(HC, lam)
    assert np.isfinite(density_lambda(HC, [0.0, 1e-150, 1e150])).all()


def test_check_reals_returns_float64_and_copies_no_float64_array():
    values = np.array([0.5, 2.0])
    assert check_reals("v", values, "positive") is values
    for given in (np.array([3, 1], dtype=np.int8), np.array([3, 1], dtype=np.uint64),
                  np.array([3.0, 1.0], dtype=np.float16), [3, 1], (3.0, 1)):
        got = check_reals("v", given, "positive")
        assert got.dtype == np.float64 and got.tolist() == [3.0, 1.0], given
    assert check_reals("v", 2).shape == () and check_reals("v", np.empty((0, 3))).shape == (0, 3)
    assert check_reals("v", [-0.0, 2.0], "nonnegative").tolist() == [0.0, 2.0]
    for given in (np.bool_(True), None, "1", b"1", [1, None], [1j], [10**400]):
        with pytest.raises(DomainError, match="^v must be finite, got values of dtype "):
            check_reals("v", given)


def test_a_dataset_keeps_a_float64_array_as_given():
    beta, y = np.zeros(3), np.ones((3, 2))
    data = SparseDataset(beta, y, 2, 1.0)
    assert data.beta_true is beta and data.y is y
    stored = SparseDataset([0, 1, 2], np.ones((3, 2), dtype=np.int32), 2, 1.0)
    assert stored.beta_true.dtype == stored.y.dtype == np.float64


def test_gibbs_config_reads_each_grid_point_by_the_real_rule():
    # (True, 10.0) was once stored as given
    with pytest.raises(DomainError, match=r"^lambda_grid must be positive and finite, got True$"):
        GibbsConfig(100, 10, 0, (True, 10.0))
    with pytest.raises(DomainError, match=r"^lambda_grid must be positive and finite, got '1'$"):
        GibbsConfig(100, 10, 0, ("1", 10.0))
    for bad in (5.0, np.ones((2, 2)), (10.0,)):
        with pytest.raises(DomainError, match=r"^lambda_grid must hold at least two points$"):
            GibbsConfig(lambda_grid=bad)
    grid = np.linspace(0.05, 10.0, 200)
    config = GibbsConfig(lambda_grid=grid)
    assert config.lambda_grid == GibbsConfig().lambda_grid == tuple(grid.tolist())
    assert all(type(lam) is float for lam in config.lambda_grid)
    float32 = GibbsConfig(50, 5, 3, np.array([0.5, 1.0, 10.0], dtype=np.float32))
    assert float32.lambda_grid == (0.5, 1.0, 10.0)
    as_floats = horseshoe_gibbs(DATA, GibbsConfig(50, 5, 3, (0.5, 1.0, 10.0)))
    assert _bits(horseshoe_gibbs(DATA, float32)) == _bits(as_floats)
    assert _bits(horseshoe_gibbs(DATA, GibbsConfig(50, 5, 3, [0.5, 1, 10]))) == _bits(as_floats)


def test_risk_curve_spec_stores_its_comparators_as_a_frozenset():
    spec = RiskCurveSpec(5, (0.0, 1.0), 10, 0, HC, ["js", "mle"])
    assert spec.comparators == frozenset({"js", "mle"}) and type(spec.comparators) is frozenset
    assert hash(spec) == hash(RiskCurveSpec(5, (0.0, 1.0), 10, 0, HC, frozenset({"js", "mle"})))
    # "js" once failed as "unknown comparators: ['j', 's']"
    for bad in ("js", "js_plus", ["js", "ridge"]):
        with pytest.raises(DomainError, match=re.escape(
                f"comparators must be a set of {COMPARATOR_TAGS}, got {bad!r}")):
            RiskCurveSpec(5, (0.0, 1.0), 10, 0, HC, bad)
