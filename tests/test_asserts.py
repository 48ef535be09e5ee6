"""No assert in the package checks input or a result.

``python -O`` drops assert statements, so a check on input or on a computed
result must raise instead. A stdlib ``ast`` scan lists every assert in
``src/relalg/*.py`` with its module and enclosing function; only the two
internal invariants in INVARIANTS may stay.
"""

import ast
from pathlib import Path

FILES = sorted((Path(__file__).resolve().parents[1] / "src" / "relalg").glob("*.py"))

# (module, function): the policy dispatch in indexcore._representative and the
# transport equations in isomorph.verify_witness.
INVARIANTS = {("indexcore.py", "_representative"), ("isomorph.py", "verify_witness")}


def _asserts(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function or "<module>", line) of every assert statement."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((func, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_asserts_are_only_internal_invariants():
    stray = [
        (path.name, func, line)
        for path in FILES
        for func, line in _asserts(ast.parse(path.read_text(), filename=str(path)))
        if (path.name, func) not in INVARIANTS
    ]
    assert not stray, f"asserts that python -O drops: {stray}"


def test_the_scan_sees_nested_asserts():
    tree = ast.parse("def f():\n    def g():\n        assert x\n    assert y\nassert z\n")
    assert _asserts(tree) == [("g", 3), ("f", 4), ("<module>", 5)]
