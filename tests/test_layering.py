"""Layering guard: no module imports another module's private names.

A name with a leading underscore belongs to the module that defines it. The
``minctrl._kernels`` package is private to the package as a whole, so its
path may be imported from anywhere.
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
