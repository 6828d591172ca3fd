"""The package's import graph keeps test oracles out of production modules.

Every module under ``src/hibshrink`` is parsed with ``ast`` (nothing is
executed), and the ``hibshrink`` modules each one imports are checked
against the intended layering: ``specfun`` and ``quadrature`` sit at the
bottom above ``errors`` only, and ``oracles`` sits on top, imported by the
CLI alone.  The series tolerance and term budget belong to ``specfun``
alone: no public function above it takes ``rel_tol`` or ``max_terms``.
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


def test_only_specfun_takes_the_series_tolerance():
    # every function of the statistical modules, and the public oracles
    # (``_rect_sum`` sums phi1 itself, at the tolerance its Phi1Args carries)
    functions = [
        obj
        for module in (prior, posterior, risk, sparse)
        for obj in vars(module).values()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]
    functions += [getattr(oracles, name) for name in oracles.__all__]
    assert risk._expect_integrand_quadrature in functions
    for fn in functions:
        assert "rel_tol" not in inspect.signature(fn).parameters, fn.__qualname__
    assert not hasattr(specfun, "gauss_2f1")
    assert "gauss_2f1" not in specfun.__all__


def test_only_specfun_takes_a_term_budget():
    # the budget follows from each series' own tilt, so no function of the
    # statistical modules, and no public oracle, passes one on
    functions = [
        obj
        for module in (prior, posterior, risk, sparse)
        for obj in vars(module).values()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]
    functions += [getattr(oracles, name) for name in oracles.__all__]
    assert posterior.shrink in functions and risk.risk_analytic in functions
    for fn in functions:
        assert "max_terms" not in inspect.signature(fn).parameters, fn.__qualname__
