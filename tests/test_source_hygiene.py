"""Source hygiene of the package modules, read from their syntax trees.

Every module-level import must be used, and every module-level private
``_name`` must be referenced, in its own module outside its own definition or
from another package module.  A fold that moves a table or a helper otherwise
leaves the old import or the old private table behind without any test noticing.
No function body imports a package module: the package has no import cycle to
break, so such an import only hides a dependency from the module header.
``__init__`` only re-exports, so it is left out.  The suites call only public
functions of the other modules, the paths a caller and a tracer of those
functions see.  No function casts a scalar (a ``complex`` call, a
``complex128`` name, a ``dtype=complex`` keyword or a LAPACK ``linalg`` call)
but the named double-only ones, so the labels' type, decided only by
``algebra.label_scalar`` and ``graded.as_entries``, runs through every other
builder and report.  ``suites`` and ``cli`` reach Hopf data only through
``coproduct.ALGEBRAS``: they name no coproduct table constant and no
per-algebra Hopf checker, so replacing one registry entry reaches every check
they run.
"""
import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sl11kit"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _loads(node) -> set[str]:
    """Names read anywhere under ``node``."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _imports(tree):
    """(bound name, line) of every module-level import but ``__future__``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], stmt.lineno) for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            yield from ((a.asname or a.name, stmt.lineno) for a in stmt.names)


def _private_definitions(tree):
    """(name, defining statement) of every module-level private name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _external_references(module: str) -> set[str]:
    """Attribute names and imported names that the other package modules read."""
    out = set()
    for other, tree in TREES.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
    return out


def _unused_imports(tree) -> list[str]:
    used = _loads(tree)
    return [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]


def _unreferenced_privates(tree, external: set[str]) -> list[str]:
    loads = {id(stmt): _loads(stmt) for stmt in tree.body}
    return [f"{name} (line {definition.lineno})"
            for name, definition in _private_definitions(tree)
            if name not in external and not any(
                name in names for key, names in loads.items() if key != id(definition))]


def _function_imports(tree) -> list[str]:
    """(function, line) of every relative import inside a function body, by line."""
    found = sorted((node.lineno, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level > 0)
    return [f"{name} (line {line})" for line, name in found]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_module_level_import_is_used(module):
    unused = _unused_imports(TREES[module])
    assert not unused, f"{module}: unused imports {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_module_level_private_name_is_referenced(module):
    dead = _unreferenced_privates(TREES[module], _external_references(module))
    assert not dead, f"{module}: unreferenced private names {dead}"


def test_the_checks_see_an_unused_import_and_a_dead_private_table():
    tree = ast.parse("import numpy as np\nfrom .graded import bracket_table, max_abs\n"
                     "_OLD = (1, 2)\n_USED = 3\n_SELF = 4\n\n"
                     "def _rec(n):\n    return _rec(n - 1)\n\n"
                     "def f():\n    return max_abs(_USED)\n")
    assert _unused_imports(tree) == ["np (line 1)", "bracket_table (line 2)"]
    assert _unreferenced_privates(tree, {"_SELF"}) == ["_OLD (line 3)", "_rec (line 7)"]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_body_imports_a_package_module(module):
    local = _function_imports(TREES[module])
    assert not local, f"{module}: package imports inside functions {local}"


def test_the_check_sees_a_package_import_in_a_method_body():
    tree = ast.parse("import json\n\nclass R:\n    def to_dict(self):\n"
                     "        from .report import c2j\n        import numpy\n"
                     "        return c2j(1)\n\n"
                     "def f():\n    from . import graded\n    return graded\n")
    assert _function_imports(tree) == ["to_dict (line 5)", "f (line 10)"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_calls(tree) -> list[str]:
    """(callee, line) of every call of a private function of another package
    module: ``module._name(...)`` on a module imported with ``from . import``,
    or a ``_name`` imported with ``from .module import``."""
    modules, names = set(), set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level > 0:
            bound = {a.asname or a.name for a in stmt.names
                     if stmt.module is None or _private(a.name)}
            (modules if stmt.module is None else names).update(bound)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in modules and _private(f.attr)):
            found.append((node.lineno, f"{f.value.id}.{f.attr}"))
        elif isinstance(f, ast.Name) and f.id in names:
            found.append((node.lineno, f.id))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_suites_call_no_private_function_of_another_module():
    private = _private_calls(TREES["suites"])
    assert not private, f"suites: calls of private functions {private}"


def test_the_check_sees_a_private_call_through_a_module_and_an_imported_name():
    tree = ast.parse("from . import qaffine, yangian as y\nfrom .algebra import _words as w, "
                     "atypical_rep\nfrom .report import Report\n\n"
                     "def _draw(rng):\n    return rng\n\n"
                     "def suite(la, lb):\n    r = y._pair_intertwine(la, lb)\n"
                     "    qaffine.affine_intertwine(la, lb, _draw(0))\n"
                     "    r.__len__()\n    w(atypical_rep(la))\n"
                     "    return qaffine._l_word\n")
    assert _private_calls(tree) == ["y._pair_intertwine (line 9)", "w (line 12)"]


def _name(node) -> str | None:
    """The name a Name or an Attribute node reads."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _cast(node) -> str | None:
    """The scalar cast ``node`` is, if any: a ``complex(...)`` call, a ``linalg`` call
    (numpy's LAPACK steps), a ``dtype=complex`` keyword or a ``complex128`` name."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "complex":
            return "complex(...)"
        if isinstance(node.func, ast.Attribute) and _name(node.func.value) == "linalg":
            return f"linalg.{node.func.attr}"
    elif isinstance(node, ast.keyword):
        if node.arg == "dtype" and isinstance(node.value, ast.Name) and node.value.id == "complex":
            return "dtype=complex"
    elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "complex128":
        return "complex128"
    return None


def _scalar_casts(tree) -> list[str]:
    """(cast, line) of every :func:`_cast` under ``tree``, by line."""
    found = sorted((node.lineno, cast) for node in ast.walk(tree) if (cast := _cast(node)))
    return [f"{name} (line {line})" for line, name in found]


def _casts_by_function(module: str, tree) -> dict[str, list[str]]:
    """``module.function`` (``module.Class.method``; ``module`` for the other
    module-level statements) -> its :func:`_scalar_casts`, for each one that casts."""
    units = {module: []}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            units[f"{module}.{stmt.name}"] = [stmt]
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                key = f"{module}.{stmt.name}.{item.name}" \
                    if isinstance(item, ast.FunctionDef) else f"{module}.{stmt.name}"
                units.setdefault(key, []).append(item)
        else:
            units[module].append(stmt)
    casts = {key: _scalar_casts(ast.Module(body=body, type_ignores=[]))
             for key, body in units.items()}
    return {key: found for key, found in casts.items() if found}


#: The functions that keep a double-precision step, each with the reason.  Everything
#: else in the package runs in the labels' scalar type, which ``algebra.label_scalar``
#: (scalars) and ``graded.as_entries`` (arrays) decide.
_DOUBLE_ONLY = {
    "algebra.label_scalar": "decides the scalar type of labels",
    "graded.as_entries": "decides the scalar type of arrays",
    "algebra.require_complex128": "the type check in front of the LAPACK steps",
    **dict.fromkeys(["graded.unit", "graded.identity", "graded.zeros"],
                    "unit, identity and zero matrices for callers; the package reads only "
                    "integer layouts from them"),
    **dict.fromkeys(["rmatrix.solve_intertwiner", "rmatrix.r_solve"], "the SVD solver"),
    "algebra.fusion_report": "fusion's LAPACK basis inverse",
    **dict.fromkeys(["qalgebra.q_typical_rep", "qalgebra._shortening_roots",
                     "qalgebra.qbracket"], "constructors that take exponents (numpy's log)"),
    "qalgebra.reject_root_of_unity": "the root-of-unity test, decided in double",
    **dict.fromkeys(["algebra.gl2_twist", "algebra._scalar_part"],
                    "the GL(2) twist, whose matrices are given as doubles"),
    "coproduct.memoised_by_labels": "the memo key: the bits of double labels",
    **dict.fromkeys(["report.c2j", "graded.SuperMatrix.from_dict",
                     "algebra.GeneratorImage.from_dict", "algebra.singlet_lines"],
                    "serialization: JSON numbers and a report's eigenvalue parameter"),
    "cli._complex": "the CLI reads complex flags",
    **dict.fromkeys(["zhukovski._principal_root", "zhukovski.q_zhukovski_point",
                     "zhukovski.q_labels_from_x", "zhukovski.dispersion"],
                    "the Zhukovski map: principal roots and logarithms"),
    "yangian._series_inverse": "LAPACK only for a constant term other than exactly 1, "
                               "which H(z) of the antipode report never has",
}


@pytest.mark.parametrize("module", sorted(TREES))
def test_scalar_casts_stay_in_the_double_only_functions(module):
    casts = {key: found for key, found in _casts_by_function(module, TREES[module]).items()
             if key not in _DOUBLE_ONLY}
    assert not casts, f"{module}: scalar casts outside the double-only functions {casts}"


def test_every_double_only_function_still_casts():
    casting = {key for module, tree in TREES.items() for key in _casts_by_function(module, tree)}
    assert set(_DOUBLE_ONLY) <= casting, sorted(set(_DOUBLE_ONLY) - casting)


def test_the_check_sees_a_complex_call_and_a_complex128_name():
    tree = ast.parse("import numpy as np\nfrom numpy import complex128\n\n"
                     "def f(x: complex) -> complex:\n    y = complex(x)\n"
                     "    return np.zeros(2, dtype=np.complex128) + complex128(y)\n")
    assert _scalar_casts(tree) == ["complex(...) (line 5)", "complex128 (line 6)",
                                   "complex128 (line 6)"]


def test_the_check_sees_a_dtype_keyword_and_a_lapack_call_by_function():
    tree = ast.parse("import numpy as np\n_ONE = np.eye(2, dtype=complex)\n\n"
                     "def embed(r):\n    return np.asarray(r, dtype=complex) @ _ONE\n\n"
                     "class Series:\n    order: int = 2\n\n    def inverse(self, c):\n"
                     "        return np.linalg.inv(c[0]), np.asarray(c, dtype=int)\n\n"
                     "def det(a):\n    return linalg.det(a)\n")
    assert _casts_by_function("m", tree) == {"m": ["dtype=complex (line 2)"],
                                             "m.embed": ["dtype=complex (line 5)"],
                                             "m.Series.inverse": ["linalg.inv (line 11)"],
                                             "m.det": ["linalg.det (line 14)"]}


#: Names that bind one algebra's Hopf data outside the registry.
_TABLE_CONSTANTS = frozenset({"COPRODUCT", "Q_COPRODUCT", "AFFINE_COPRODUCT"})
_PER_ALGEBRA_CHECKER = re.compile(
    r"\w+_checker|(q|affine)_(coassociativity|counit_antipode|cocommutativity)_report")
_HOPF_REPORTS = frozenset({"coassociativity_report", "counit_antipode_report",
                           "cocommutativity_report"})


def _hopf_bindings(tree) -> list[str]:
    """(name, line) of every coproduct table constant and per-algebra Hopf checker
    named in ``tree``, and of every Hopf report read from a module but ``coproduct``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named = [(node.id, node.id)]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            named = [(node.attr, f"{owner}.{node.attr}")]
            if node.attr in _HOPF_REPORTS and owner != "coproduct":
                found.append((node.lineno, f"{owner}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            named = [(a.name, a.name) for a in node.names]
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in _HOPF_REPORTS and node.module != "coproduct"]
        else:
            continue
        found += [(node.lineno, shown) for name, shown in named
                  if name in _TABLE_CONSTANTS or _PER_ALGEBRA_CHECKER.fullmatch(name)]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("module", ["suites", "cli"])
def test_the_suites_and_the_cli_reach_hopf_data_only_through_the_registry(module):
    bound = _hopf_bindings(TREES[module])
    assert not bound, f"{module}: per-algebra Hopf data {bound}"


def test_the_check_sees_table_constants_and_per_algebra_checkers():
    tree = ast.parse("from . import algebra, coproduct, qalgebra\n"
                     "from .qalgebra import Q_COPRODUCT\n"
                     "from .algebra import counit_antipode_report\n\n"
                     "def suite(reps):\n    coproduct.coassociativity_report(*reps)\n"
                     "    algebra.cocommutativity_report(*reps[:2])\n"
                     "    qalgebra.affine_counit_antipode_report(reps[0])\n"
                     "    check = algebra.hopf_checker(algebra.COPRODUCT, 's')\n"
                     "    return check, coproduct.ALGEBRAS[reps[0].kind].coproduct\n")
    assert _hopf_bindings(tree) == [
        "Q_COPRODUCT (line 2)", "counit_antipode_report (line 3)",
        "algebra.cocommutativity_report (line 7)",
        "qalgebra.affine_counit_antipode_report (line 8)",
        "algebra.COPRODUCT (line 9)", "algebra.hopf_checker (line 9)"]
