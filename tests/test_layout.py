"""The package's import graph keeps test oracles out of production modules.

Every module under ``src/hibshrink`` is parsed with ``ast`` (nothing is
executed), and the ``hibshrink`` modules each one imports are checked
against the intended layering: ``specfun`` and ``quadrature`` sit at the
bottom above ``errors`` only, and ``oracles`` sits on top, imported by the
CLI alone.  ``specfun`` alone decides how a series is summed: no public
function, in it or above it, and no field of ``Phi1Args`` takes ``rel_tol``
or ``max_terms``.
"""

import ast
import inspect
from pathlib import Path

import hibshrink
from hibshrink import oracles, posterior, prior, risk, sparse, specfun

PACKAGE = Path(hibshrink.__file__).resolve().parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}

# names that live in hibshrink.oracles, plus the quadrature oracle and its
# integrator, none of which belongs to the package's top-level API
ORACLE_NAMES = (
    "phi1_double_series",
    "_rect_sum",
    "risk_direct",
    "sure_integrand_by_parts",
    "_log_density_derivative_bracket",
    "_posterior_bracket_expectation",
)
TOP_LEVEL_EXCLUDED = ORACLE_NAMES + ("oracle_hib_moment", "integrate_unit", "QuadConfig", "QuadResult")


def _imported_modules(name: str) -> set[str]:
    """hibshrink modules that module ``name`` imports, by their short names."""
    tree = ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "hibshrink" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("hibshrink"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]  # drop the leading "hibshrink"
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import x": x may name a module
                found.update(alias.name for alias in node.names if alias.name in MODULES)
    return found


def test_only_the_cli_imports_oracles():
    importers = {name for name in MODULES if "oracles" in _imported_modules(name)}
    assert importers == {"cli"}


def test_bottom_modules_import_only_errors():
    assert _imported_modules("specfun") <= {"errors"}
    assert _imported_modules("quadrature") <= {"errors"}


def test_no_oracle_name_in_production_api():
    assert not set(TOP_LEVEL_EXCLUDED) & set(hibshrink.__all__)
    for module in (specfun, risk):
        defined = {
            node.name
            for node in ast.parse(Path(module.__file__).read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in ORACLE_NAMES:
            assert name not in defined, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)


def _series_callers():
    """Every function of the statistical modules, the public oracles, and
    ``specfun``'s public functions and its ``Phi1Args`` record."""
    functions = [
        obj
        for module in (prior, posterior, risk, sparse)
        for obj in vars(module).values()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]
    functions += [getattr(oracles, name) for name in oracles.__all__]
    functions += [obj for name in specfun.__all__ if callable(obj := getattr(specfun, name))]
    assert risk._expect_integrand_quadrature in functions and risk.risk_analytic in functions
    assert posterior.shrink in functions
    assert specfun.log_phi1_batch in functions and specfun.Phi1Args in functions
    return functions


def test_no_caller_sets_the_series_tolerance():
    for fn in _series_callers():
        assert "rel_tol" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "DEFAULT_REL_TOL" not in specfun.__all__
    assert not hasattr(specfun, "gauss_2f1")
    assert "gauss_2f1" not in specfun.__all__


def test_no_caller_sets_the_term_budget():
    # the budget follows from each series' own tilt
    for fn in _series_callers():
        assert "max_terms" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "DEFAULT_MAX_TERMS" not in specfun.__all__
