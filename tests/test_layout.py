"""The package's import graph keeps test oracles out of production modules.

Every module under ``src/hibshrink`` is parsed with ``ast`` (nothing is
executed), and the ``hibshrink`` modules each one imports are checked
against the intended layering: ``specfun`` and ``quadrature`` sit at the
bottom above ``errors`` only, and ``oracles`` sits on top, imported by the
CLI alone.  ``specfun`` alone decides how a series is summed: no public
function, in it or above it, and no field of ``Phi1Args`` takes ``rel_tol``
or ``max_terms``, and the crossover of the large-x expansion that the scalar
and batch paths share is private: no public name, no parameter of
``phi1``, ``log_phi1``, ``log_phi1_batch`` or of any function that reaches
them, and no ``hibshrink`` flag names it.  Likewise ``quadrature`` alone
decides how an integral is taken: no function or class of the package
takes ``cfg``, ``abs_tol``, ``rel_tol`` or ``max_depth``.  And no production
module uses the adaptive integrator at all: outside ``quadrature`` and
``oracles`` nothing calls or passes on ``integrate_unit``, and each module
that still imports it (``risk`` and ``prior``, whose names
``bench/tracer.py`` hooks) says so on the import line.  The deterministic
risk route's Gauss-Legendre nodes are built on first use, not at import,
and ``multiprocessing`` is not loaded until a Gibbs chain needs its helper.
And the batch phi1 keeps one layout: ``specfun`` defines no ``_Run``,
imports no ``bisect`` and calls ``np.take`` nowhere.  The family densities
of ``prior`` are one numpy pass over their grid: ``prior`` defines none of
the old per-point helpers, and neither a density nor any ``prior``
function it reaches loops or comprehends over points.  Every name a
production module imports is used there, or re-exported through its
``__all__``; the two ``integrate_unit`` lines above are the only
exceptions.  The marginal likelihood has one log-normalizer formula, that
of ``prior``: ``posterior`` neither defines ``_marginal_from_logs`` nor
imports ``log_beta``.  And a member's normalizer has one home: the untilted
series, whose x is a member's own tilt ``s``, is summed in
``prior.log_normalizer`` alone, and ``shrink`` and ``log_m_kernel`` reach
that function for the prior's half of a kernel moment.  The batch's
power-series rows have one summation, Horner's rule over the terms of each
block's largest |x|: ``_series_row`` keeps no per-element rescale state.
The large-|x| expansion has one degree rule, that of the scalar
``_tail_log``: ``_tail_row`` takes each block's degree from it, and no
``_tail_terms`` returns beside it.  And an integer count has one home,
``errors.check_count``: no other production module calls ``isinstance``
with ``int``, ``np.integer`` or ``numbers.Integral``, and ``sparse``
defines no ``_is_int``.  A scalar real argument has one home too,
``errors.check_real``: no other production module imports ``numbers`` or
names ``Real``, and no function there passes one of its own parameters to
``math.isfinite``.  And a real array argument has one home,
``errors.check_reals``: no other production function passes one of its own
parameters, or a field of ``self``, to ``np.asarray`` or ``np.array`` with
``dtype=float``, except ``LogMeanExpAccumulator.add``.  The README's module
table has one row per module of the package.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import hibshrink
from hibshrink import oracles, posterior, prior, quadrature, risk, sparse, specfun

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
TOP_LEVEL_EXCLUDED = ORACLE_NAMES + ("oracle_hib_moment", "integrate_unit", "QuadResult")


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


def test_batch_phi1_has_one_layout():
    # every block of the batch is a slice of one ascending |x| array; no
    # per-block gather through a sort order (np.take) or run class returns
    tree = ast.parse(MODULES["specfun"].read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            assert node.name != "_Run", node.lineno
        elif isinstance(node, ast.Import):
            assert "bisect" not in {alias.name for alias in node.names}, node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "bisect", node.lineno
        elif isinstance(node, ast.Attribute):
            assert node.attr != "take", node.lineno
    assert not hasattr(specfun, "_Run") and not hasattr(specfun, "bisect")


def test_batch_rows_share_no_series():
    # each gamma row sums its own series; no row grouping or shared term
    # recursion returns
    tree = ast.parse(MODULES["specfun"].read_text())
    defined = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("_row_groups", "_ROW_SPAN", "_series_rows", "_tail_logs"):
        assert name not in defined and not hasattr(specfun, name), name


def test_batch_series_rows_are_summed_by_horner_alone():
    # a block's degree and terms come from the scalar stop rule at its
    # largest |x|, and the row is evaluated by Horner's rule; no per-element
    # rescale state of the forward sum returns beside it as a second path
    tree = ast.parse(MODULES["specfun"].read_text())
    (row,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_series_row"]
    names = {node.id for node in ast.walk(row) if isinstance(node, ast.Name)}
    for name in ("off", "rescaled", "big", "term", "total"):
        assert name not in names, name
    called = {node.func.id for node in ast.walk(row)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_block_terms" in called


def test_the_tail_expansion_has_one_degree_rule():
    # a block of the batch takes its degree from the scalar sum at its
    # smallest |x|; no second loop over the same bounds returns beside it
    tree = ast.parse(MODULES["specfun"].read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_tail_terms" not in functions and not hasattr(specfun, "_tail_terms")
    called = {node.func.id for node in ast.walk(functions["_tail_row"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_tail_log" in called


# the types an integer-count test names: int, np.integer, numbers.Integral
COUNT_TYPES = {"int", "integer", "Integral"}


def test_the_count_rule_has_one_home():
    for name, path in MODULES.items():
        if name == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"):
                continue
            types = node.args[1]
            for kind in types.elts if isinstance(types, ast.Tuple) else [types]:
                named = kind.id if isinstance(kind, ast.Name) else getattr(kind, "attr", "")
                assert named not in COUNT_TYPES, (name, node.lineno, named)
    tree = ast.parse(MODULES["sparse"].read_text())
    assert "_is_int" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not hasattr(sparse, "_is_int")
    assert "check_count" not in hibshrink.__all__


def _parameters(node: ast.FunctionDef | ast.Lambda) -> set[str]:
    """Names of every parameter of a function, method or lambda."""
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {arg.arg for arg in params if arg}


def test_the_real_rule_has_one_home():
    # no production function reads a scalar real argument by hand: none passes
    # one of its own parameters to math.isfinite, and none names numbers.Real
    for name, path in MODULES.items():
        if name == "errors":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "Real", (name, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id != "Real", (name, node.lineno)
            elif isinstance(node, ast.alias):
                assert node.name != "numbers", (name, "import numbers")
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            params = _parameters(node)
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "isfinite"
                        and getattr(call.func.value, "id", "") == "math"):
                    continue
                for arg in call.args:
                    assert not (isinstance(arg, ast.Name) and arg.id in params), (
                        name, getattr(node, "name", "lambda"), call.lineno, arg.id)
    assert "check_real" not in hibshrink.__all__


# functions that read a real array by hand on purpose, with the reason: an
# accumulator's rows may hold +-inf or NaN, which it keeps for ``log_mean``
ARRAY_RULE_EXEMPT = {("sparse", "LogMeanExpAccumulator.add")}


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and method under ``node``."""
    for child in node.body:
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            name = f"{prefix}{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, f"{name}.")


def _reads_floats(call: ast.AST) -> bool:
    """Whether ``call`` is ``np.asarray`` or ``np.array`` with ``dtype=float``."""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("asarray", "array")
            and getattr(call.func.value, "id", "") == "np"):
        return False
    dtypes = [kw.value for kw in call.keywords if kw.arg == "dtype"] + call.args[1:2]
    return any(getattr(dtype, "id", "") == "float" for dtype in dtypes)


def test_the_array_rule_has_one_home():
    # no production function reads a real array argument by hand: none passes
    # one of its own parameters, or a field of self set from one, to
    # np.asarray or np.array with dtype=float
    exempt_seen = set()
    for name, path in MODULES.items():
        if name == "errors":
            continue
        for qualname, function in _functions(ast.parse(path.read_text(), filename=str(path))):
            params = _parameters(function)
            for call in ast.walk(function):
                if not (_reads_floats(call) and call.args):
                    continue
                arg = call.args[0]
                by_hand = (isinstance(arg, ast.Name) and arg.id in params) or (
                    isinstance(arg, ast.Attribute) and getattr(arg.value, "id", "") == "self")
                if by_hand and (name, qualname) in ARRAY_RULE_EXEMPT:
                    exempt_seen.add((name, qualname))
                    continue
                assert not by_hand, (name, qualname, call.lineno)
    assert exempt_seen == ARRAY_RULE_EXEMPT
    assert "check_reals" not in hibshrink.__all__


def test_the_readme_lists_every_module_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`\s*\|", table, re.MULTILINE)
    assert sorted(rows) == sorted(set(MODULES) - {"__init__", "__main__"})


# parameter names through which a caller would set a tolerance or a budget
SETTING_NAMES = {"cfg", "abs_tol", "rel_tol", "max_depth"}


def test_no_caller_sets_how_an_integral_is_taken():
    # every function, method and lambda in the package, and every field of
    # its classes (dataclass and NamedTuple fields are annotated names)
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                taken = _parameters(node)
            elif isinstance(node, ast.ClassDef):
                taken = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
            else:
                continue
            assert not taken & SETTING_NAMES, (name, getattr(node, "name", "lambda"), taken)
    assert not hasattr(quadrature, "QuadConfig")
    assert "QuadConfig" not in quadrature.__all__


# the comment every remaining production import of the integrator carries
TRACER_HOOK_COMMENT = "uncalled; bench/tracer.py hooks this name"


def test_no_production_function_calls_the_integrator():
    importers = set()
    for name, path in MODULES.items():
        if name in ("quadrature", "oracles"):
            continue
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "integrate_unit" for alias in node.names
            ):
                importers.add(name)
                assert TRACER_HOOK_COMMENT in lines[node.lineno - 1], (name, node.lineno)
            if isinstance(node, ast.Name):
                assert node.id != "integrate_unit", (name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "integrate_unit", (name, node.lineno)
    assert importers <= {"risk", "prior"}


def test_gauss_nodes_are_not_built_at_import():
    # nor is multiprocessing loaded: only a Gibbs chain's helper needs it
    code = ("import sys, hibshrink; "
            "print('numpy.polynomial' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False False"


def test_no_caller_sets_the_term_budget():
    # the budget follows from each series' own tilt
    for fn in _series_callers():
        assert "max_terms" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "DEFAULT_MAX_TERMS" not in specfun.__all__


# words that would name the crossover of the large-x expansion or its tail
CROSSOVER_WORDS = re.compile(r"crossover|x0|x_0|asymp|kummer|watson|tail", re.IGNORECASE)


def _functions_reaching(target: str) -> dict[str, set[str]]:
    """Module-level functions of the package that call ``target``, directly or
    through another such function, by module short name."""
    trees = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}
    reaching = {target}
    found: dict[str, set[str]] = {}
    grew = True
    while grew:
        grew = False
        for module, tree in trees.items():
            for node in tree.body:
                if not isinstance(node, ast.FunctionDef) or node.name in found.get(module, ()):
                    continue
                used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if used & reaching:
                    found.setdefault(module, set()).add(node.name)
                    reaching.add(node.name)
                    grew = True
    return found


def test_the_large_x_crossover_is_private():
    # the private names this guards
    for name in ("_crossover", "_endpoint_coefficients", "_tail_log", "_tail_row", "_plan"):
        assert callable(getattr(specfun, name)), name
        assert name not in specfun.__all__ and name not in hibshrink.__all__, name
    for name in specfun.__all__ + hibshrink.__all__:
        assert not CROSSOVER_WORDS.search(name), name
    callers = {}
    for entry in ("log_phi1_batch", "log_phi1", "phi1"):
        for module, names in _functions_reaching(entry).items():
            callers.setdefault(module, set()).update(names)
    assert "kappa_moment12_batch" in callers["posterior"] and callers.get("risk")
    assert "kappa_moment" in callers["posterior"] and "log_normalizer" in callers["prior"]
    functions = [specfun.phi1, specfun.log_phi1, specfun.log_phi1_batch]
    for module, names in callers.items():
        if module != "specfun":
            imported = __import__(f"hibshrink.{module}", fromlist=["_"])
            functions += [getattr(imported, name) for name in names]
    for fn in functions:
        for param in inspect.signature(fn).parameters:
            assert not CROSSOVER_WORDS.search(param), (fn.__qualname__, param)
    cli_tree = ast.parse(MODULES["cli"].read_text())
    flags = [
        arg.value
        for node in ast.walk(cli_tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]
    assert "--x" in flags
    for flag in flags:
        assert not CROSSOVER_WORDS.search(flag), flag


# the per-point helpers the family densities once called, one Python call a point
PER_POINT_HELPERS = (
    "_on_points",
    "_log_kappa_at",
    "_kappa_at",
    "_log_lambda2_at",
    "_lambda2_at",
    "_lambda_at",
    "_check_lambda2",
    "_check_lambda",
)
FAMILY_DENSITIES = (
    "log_density_kappa",
    "density_kappa",
    "log_density_lambda2",
    "density_lambda2",
    "density_lambda",
)
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_family_densities_are_one_numpy_pass():
    tree = ast.parse(MODULES["prior"].read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in PER_POINT_HELPERS:
        assert name not in functions and not hasattr(prior, name), name
    reached, todo = set(), list(FAMILY_DENSITIES)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        body = functions[name]
        for node in ast.walk(body):
            assert not isinstance(node, LOOPS), (name, node.lineno)
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    assert {"log_normalizer", "_grid"} <= reached


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every import of module ``path`` whose name the module
    neither uses nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_production_module_imports_an_unused_name():
    for name, path in MODULES.items():
        lines = path.read_text().splitlines()
        for line, imported in _unused_imports(path):
            hooked = imported == "integrate_unit" and TRACER_HOOK_COMMENT in lines[line - 1]
            assert hooked, (name, line, imported)


def test_the_marginal_has_one_log_normalizer_formula():
    tree = ast.parse(MODULES["posterior"].read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_marginal_from_logs" not in defined and not hasattr(posterior, "_marginal_from_logs")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "log_beta" not in {alias.name for alias in node.names}, node.lineno
    assert not hasattr(posterior, "log_beta")


# the entry points through which a module sums a phi1 series, x in 4th place
SERIES_ENTRIES = {"phi1", "log_phi1", "log_phi1_batch", "Phi1Args"}


def test_the_untilted_series_is_summed_in_log_normalizer_alone():
    # the untilted series of a member passes the member's own tilt, an
    # attribute ``.s``, as x; every tilted series passes s' or s + Z/2
    untilted = set()
    for name, path in MODULES.items():
        if name == "oracles":
            continue
        for function in ast.parse(path.read_text()).body:
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call) or len(node.args) < 4:
                    continue
                callee = node.func.id if isinstance(node.func, ast.Name) else None
                x = node.args[3]
                if callee in SERIES_ENTRIES and isinstance(x, ast.Attribute) and x.attr == "s":
                    untilted.add((name, function.name))
    assert untilted == {("prior", "log_normalizer")}
    reaching = _functions_reaching("log_normalizer")
    assert {"shrink", "log_m_kernel"} <= reaching.get("posterior", set())
