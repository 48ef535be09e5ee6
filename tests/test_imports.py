"""No module-level import in the package or the tests goes unused.

A stdlib ``ast`` scan: every name a module-level import binds must be read
somewhere in the module. ``relalg/__init__.py`` is exempt, since its imports
are the public surface. Annotations are parsed code here (the modules use
``from __future__ import annotations`` rather than quoted annotations). The
statement evaluator, ``relalg/terms.py``, imports no other module of the
package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "relalg").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: (p.parent.name, p.name),
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports (not __future__), with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom json import dumps, loads\nx: dumps = 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "loads"}


def test_the_statement_evaluator_imports_no_other_module_of_the_package():
    """relalg.terms parses and evaluates statements on planes alone: it
    shares no operation with the kernel it checks."""
    path = ROOT / "src" / "relalg" / "terms.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [name for name in names if name.startswith(".") or name.split(".")[0] == "relalg"]
    assert found == []
