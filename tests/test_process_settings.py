"""Process-wide settings have one owner: no module reads the environment, and
only `syntax` touches the recursion limit."""

import ast
from pathlib import Path

import proofforge

MODULES = sorted(Path(proofforge.__file__).resolve().parent.glob("*.py"))


def _dotted_names(tree: ast.AST) -> list[str]:
    """`module.name` for every `module.name` attribute and `from module import
    name` in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def test_no_module_reads_the_environment():
    readers = {
        path.name: name
        for path in MODULES
        for name in _dotted_names(ast.parse(path.read_text()))
        if name in ("os.environ", "os.getenv", "os.environb")
    }
    assert readers == {}


def test_only_syntax_sets_the_recursion_limit():
    calls = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "setrecursionlimit"
    ]
    assert calls == ["syntax.py"]
