"""Evaluation work is charged in one place: `EvalBudget.charge`.

Every evaluator charges through it, so a change of price (by bit length,
say) is made there alone.  No code outside `EvalBudget` writes a budget's
`used`, and inside it only `__init__` starts it and `charge` adds to it."""

import ast
from pathlib import Path

import proofforge

MODULES = sorted(Path(proofforge.__file__).resolve().parent.glob("*.py"))


def _writes_of_used(tree: ast.AST):
    """(class, function, statement kind) of every write to an attribute
    `used`: an assignment, an augmented or annotated one, a `del`, or a
    `setattr`/`__setattr__` call naming it."""
    out = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Attribute) and sub.attr == "used":
                    out.append((cls, fn, type(node).__name__))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value == "used" for a in node.args
            ):
                out.append((cls, fn, name))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return out


def test_only_the_budget_writes_its_used_count():
    writes = {path.name: _writes_of_used(ast.parse(path.read_text())) for path in MODULES}
    writes = {name: w for name, w in writes.items() if w}
    assert writes == {
        "calculus.py": [("EvalBudget", "__init__", "Assign"), ("EvalBudget", "charge", "AugAssign")],
    }


def test_the_guard_sees_writes_of_every_kind():
    code = (
        "def f(b):\n    b.used += 1\n"
        "def g(b):\n    b.used = 0\n"
        "def h(b):\n    setattr(b, 'used', 3)\n"
        "def k(b):\n    object.__setattr__(b, 'used', 3)\n"
        "def m(b):\n    x = b.used\n"
    )
    assert _writes_of_used(ast.parse(code)) == [
        (None, "f", "AugAssign"),
        (None, "g", "Assign"),
        (None, "h", "setattr"),
        (None, "k", "__setattr__"),
    ]
