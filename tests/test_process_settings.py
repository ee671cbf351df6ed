"""Importing proofforge changes no process-wide setting: no module reads the
environment, touches the recursion limit (no walk recurses) or switches the
garbage collector."""

import ast
import os
import subprocess
import sys
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


def test_no_module_sets_the_recursion_limit():
    calls = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "setrecursionlimit"
    ]
    assert calls == []


_IMPORT_ALL = """
import importlib
import sys

default = sys.getrecursionlimit()
for name in sys.argv[1:]:
    importlib.import_module("proofforge." + name)
print(sys.getrecursionlimit() == default, default)
"""


def test_importing_every_module_keeps_the_default_recursion_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    names = [path.stem for path in MODULES if path.stem != "__main__"]
    res = subprocess.run([sys.executable, "-c", _IMPORT_ALL, *names], env=env, capture_output=True, text=True, timeout=120)
    assert res.stdout.split() == ["True", "1000"], res.stderr[-2000:]


def test_no_module_calls_into_the_garbage_collector():
    # the collector's cost is kept down by allocating less (the parser shares
    # equal subtrees), not by gc.disable, gc.freeze or gc.set_threshold
    users = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imports = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        names = [name for name in _dotted_names(tree) if name.startswith("gc.")]
        if "gc" in imports or names:
            users[path.name] = names
    assert users == {}
