"""Layering guards.

No module imports another module's private names: a name with a leading
underscore belongs to the module that defines it. The ``minctrl._kernels``
package is private to the package as a whole, so its path may be imported
from anywhere.

No module but ``matrices`` flattens a matrix's entries by hand: a
comprehension over ``<x>.data`` that then iterates each row is how a
rational matrix gets cleared to integers or made from them, and
``matrices`` is the one place that does it: ``integer_form`` for a whole
matrix, ``scale_to_integers`` for one row, and
``RationalMatrix.from_integers`` back.

No module but ``linalg`` uses ``rank_exact``: exact ranks go through the
rank oracles, and ``rank_exact(controllability_matrix(A, B))``, with the
builder in ``tests/helpers.py``, stays an independent reference for the tests.

No module but ``linalg`` reads ``DEFAULT_ORTH_TOL_SCALE``: the PBH
threshold is ``linalg.pbh_reached``, and every PBH count counts its mask.

Only ``linalg.left_eigensystem`` builds an ``EigenSystem``, right after it
compares the smallest eigenvalue gap with its threshold: every decomposition
has a distinct spectrum, so no PBH count and not the experiment harness's
accept test read or compare a gap of their own. No module but ``linalg``
calls ``np.linalg.eig`` or ``np.linalg.eigvals``, so no second
decomposition or pre-pass outside it can decide a graph or a spectrum.

No module but ``matrices`` parses JSON: ``load_matrix`` reads a matrix
file and ``load_json_object`` every other JSON input, an instance or an
experiment config, with one set of error messages.

No module imports numpy when it is imported itself: ``minctrl.np``, made in
the package's ``__init__`` by its one lazy loader, is the one binding of
numpy, which runs numpy on its first attribute use, so ``reduce`` and
``oracle`` never execute it. An import inside a function body runs only when
the function does, and is allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "minctrl"
MODULES = sorted(SRC.rglob("*.py"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("minctrl"):
                continue
            names = [alias.name for alias in node.names]
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            modules = [m for m in modules if m.startswith("minctrl")]
            names = []
        else:
            continue
        for module in modules:
            parts = [p for p in module.split(".") if p != "_kernels"]
            if any(p.startswith("_") for p in parts):
                found.append(f"line {node.lineno}: module {module}")
        found += [
            f"line {node.lineno}: {name} from {node.module}"
            for name in names
            if name.startswith("_")
        ]
    return found


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _row_flattening(path: Path) -> list[str]:
    """Comprehensions that iterate ``<x>.data`` and then each of its rows."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, _COMPREHENSIONS):
            continue
        rows = {
            gen.target.id
            for gen in node.generators
            if isinstance(gen.iter, ast.Attribute)
            and gen.iter.attr == "data"
            and isinstance(gen.target, ast.Name)
        }
        if any(
            isinstance(inner, ast.comprehension)
            and isinstance(inner.iter, ast.Name)
            and inner.iter.id in rows
            for inner in ast.walk(node)
        ):
            found.append(f"line {node.lineno}")
    return found


def test_modules_found():
    assert SRC / "greedy.py" in MODULES and SRC / "_kernels" / "pure.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path) == []


def test_guard_flags_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from minctrl.greedy import SolveResult, _PbhOracle\n"
        "from .linalg import _cluster_multiplicities\n"
        "import minctrl._private\n"
        "from minctrl._kernels.pure import integer_rank\n"
        "from os import _exit\n"
    )
    assert _private_imports(bad) == [
        "line 1: _PbhOracle from minctrl.greedy",
        "line 2: _cluster_multiplicities from linalg",
        "line 3: module minctrl._private",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "matrices.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_matrix_flattened_outside_matrices(path):
    assert _row_flattening(path) == []


def test_guard_flags_row_flattening(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "flat = [x for row in A.data for x in row]\n"
        "U = tuple(tuple(f(x) for x in r) for r in self.data)\n"
        "ok = all(any(row[j] for j in idx) for row in V.data)\n"
        "scaled = [scale(row) for row in M.data]\n"
        "pairs = {i: x for row in rows for i, x in enumerate(row)}\n"
    )
    assert _row_flattening(bad) == ["line 1", "line 2"]


def _eigensystem_builds(path: Path) -> list[str]:
    """Calls of ``EigenSystem``, bare or as an attribute, with the top-level
    definition that makes each."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "module level")
        found += [
            (node.lineno, f"line {node.lineno} in {owner}")
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "EigenSystem")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "EigenSystem")
            )
        ]
    return [where for _, where in sorted(found)]


def _name_uses(path: Path, name: str) -> list[str]:
    """Reads of ``name``, bare or as an attribute."""
    lines = sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    )
    return [f"line {line}" for line in lines]


_OUTSIDE_LINALG = pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "linalg.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)


@_OUTSIDE_LINALG
def test_rank_exact_used_only_in_linalg(path):
    assert _name_uses(path, "rank_exact") == []


@_OUTSIDE_LINALG
def test_orth_tol_scale_read_only_in_linalg(path):
    assert _name_uses(path, "DEFAULT_ORTH_TOL_SCALE") == []


@_OUTSIDE_LINALG
def test_eigenvalue_gap_read_only_in_linalg(path):
    assert _eigensystem_builds(path) == []


def test_only_left_eigensystem_builds_an_eigensystem():
    builds = _eigensystem_builds(SRC / "linalg.py")
    assert [where.split(" in ")[1] for where in builds] == ["left_eigensystem"]


def test_guard_flags_eigensystem_builds(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "eig = EigenSystem(values, rows)\n"
        "def left_eigensystem(A):\n"
        "    return linalg.EigenSystem(values, rows)\n"
        "class Oracle:\n"
        "    def __init__(self, eig: EigenSystem):\n"
        "        self.ok = isinstance(eig, EigenSystem)\n"
        "        self.eig = EigenSystem(eig.eigenvalues, rows)\n"
    )
    assert _eigensystem_builds(bad) == [
        "line 1 in module level",
        "line 3 in left_eigensystem",
        "line 7 in Oracle",
    ]


_EIGENSOLVERS = ("eig", "eigvals")


def _eigensolver_calls(path: Path) -> list[str]:
    """Calls of numpy's ``eig`` or ``eigvals``, as ``<x>.linalg.eig(...)``,
    ``linalg.eig(...)`` or a name imported from ``numpy.linalg``, with the
    top-level definition that makes each."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
        for alias in node.names
        if alias.name in _EIGENSOLVERS
    }

    def is_eigensolver(func) -> bool:
        if isinstance(func, ast.Name):
            return func.id in imported
        owner = getattr(func, "value", None)  # ``linalg`` or ``<x>.linalg``
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _EIGENSOLVERS
            and getattr(owner, "attr", getattr(owner, "id", None)) == "linalg"
        )

    found = []
    for top in tree.body:
        owner = getattr(top, "name", "module level")
        found += [
            (node.lineno, f"line {node.lineno} in {owner}")
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and is_eigensolver(node.func)
        ]
    return [where for _, where in sorted(found)]


@_OUTSIDE_LINALG
def test_eigensolver_called_only_in_linalg(path):
    assert _eigensolver_calls(path) == []


def test_eigensolver_calls_in_linalg():
    calls = _eigensolver_calls(SRC / "linalg.py")
    assert [where.split(" in ")[1] for where in calls] == [
        "left_eigensystem",
        "certified_left_eigenbasis",
    ]


def test_guard_flags_eigensolver_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "values = np.linalg.eigvals(A.array)\n"
        "def pre_pass(A):\n"
        "    return numpy.linalg.eig(A)\n"
        "from numpy.linalg import eigvals as spectrum\n"
        "gaps = spectrum(A)\n"
        "w, v = linalg.eig(A)\n"
        "ok = left_eigensystem(A)\n"
        "s = np.linalg.eigh(A)\n"
        "e = eig(A)\n"
    )
    assert _eigensolver_calls(bad) == [
        "line 1 in module level",
        "line 3 in pre_pass",
        "line 5 in module level",
        "line 6 in module level",
    ]


def test_guard_flags_rank_exact_uses(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from minctrl.linalg import rank_exact\n"
        "r = rank_exact(C)\n"
        "r = linalg.rank_exact(C)\n"
        "f = rank_exact\n"
        "r = rank_exact_like(C)\n"
        '__all__ = ["rank_exact"]\n'
    )
    assert _name_uses(bad, "rank_exact") == ["line 2", "line 3", "line 4"]


def test_guard_flags_orth_tol_scale_reads(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from minctrl.linalg import DEFAULT_ORTH_TOL_SCALE\n"
        "tol = DEFAULT_ORTH_TOL_SCALE * norm\n"
        "tol = linalg.DEFAULT_ORTH_TOL_SCALE * norm\n"
        "mask = pbh_reached(products, norm)\n"
    )
    assert _name_uses(bad, "DEFAULT_ORTH_TOL_SCALE") == ["line 2", "line 3"]


def _json_parsing(path: Path) -> list[str]:
    """Calls of ``json.loads`` or ``json.load``, also when imported by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("load", "loads")
    }
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            )
            or (isinstance(node.func, ast.Name) and node.func.id in names)
        )
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "matrices.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_json_parsed_only_in_matrices(path):
    assert _json_parsing(path) == []


def test_json_parsing_found_in_matrices():
    assert len(_json_parsing(SRC / "matrices.py")) == 2


def test_guard_flags_json_parsing(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "obj = json.loads(text)\n"
        "obj = json.load(handle)\n"
        "from json import loads as parse\n"
        "obj = parse(text)\n"
        "text = json.dumps(obj)\n"
        "obj = matrices.load_json_object(path, 'object')\n"
        "obj = yaml.load(text)\n"
    )
    assert _json_parsing(bad) == ["line 1", "line 2", "line 4"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_level_numpy_imports(path: Path) -> list[str]:
    """Imports of numpy that run when the module itself is imported."""
    found = []

    def visit(node):
        if isinstance(node, _FUNCTIONS):
            return
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Call) and _is_import_call(node.func) and node.args:
            modules = [getattr(node.args[0], "value", None)]
        else:
            modules = []
        if any(isinstance(m, str) and m.split(".")[0] == "numpy" for m in modules):
            found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def _is_import_call(func) -> bool:
    """``__import__(...)`` or ``<x>.import_module(...)``."""
    return (isinstance(func, ast.Name) and func.id in ("__import__", "import_module")) or (
        isinstance(func, ast.Attribute) and func.attr == "import_module"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_numpy_not_imported_at_module_level(path):
    assert _module_level_numpy_imports(path) == []


def test_guard_flags_module_level_numpy_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "import os, numpy.random\n"
        "np = importlib.import_module('numpy')\n"
        "if True:\n"
        "    import numpy\n"
        "class C:\n"
        "    from numpy import ndarray\n"
        "def f():\n"
        "    import numpy\n"
        "    return importlib.import_module('numpy')\n"
        "g = lambda: __import__('numpy')\n"
        "import numpyish\n"
        "from minctrl.matrices import np\n"
        "spec = importlib.util.find_spec('numpy')\n"
    )
    assert _module_level_numpy_imports(bad) == [
        "line 1", "line 2", "line 3", "line 4", "line 6", "line 8",
    ]
