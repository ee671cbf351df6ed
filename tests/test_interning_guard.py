"""Every term and formula node is built through the intern table of `syntax`.

A node made with `object.__new__`, or changed with `object.__setattr__`,
skips the table, and then two equal trees are two objects and `==`, which
is identity, calls them different.  The guard cannot tell from the source
whether such a call is given a node, so no module but `syntax` makes one at
all, and inside `syntax` only the constructors build a node and set its
fields, and only `_fill` sets its caches."""

import ast
from pathlib import Path

import proofforge
from proofforge import syntax

MODULES = sorted(Path(proofforge.__file__).resolve().parent.glob("*.py"))
NODE_CLASSES = {cls.__name__ for cls in syntax._TERM_TYPES | syntax._FORMULA_TYPES}


def _bypasses(tree: ast.AST):
    """(function, call) of every call of `object.__new__` or
    `object.__setattr__`, and of `__new__`, `__init__` or `__setattr__`
    read off a node class by name."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, attr = node.func.value, node.func.attr
            name = getattr(owner, "id", None)
            if (name == "object" and attr in ("__new__", "__setattr__")) or (
                name in NODE_CLASSES and attr in ("__new__", "__init__", "__setattr__")
            ):
                out.append((fn, f"{name}.{attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_no_module_but_syntax_builds_a_node_past_the_table():
    calls = {path.name: _bypasses(ast.parse(path.read_text())) for path in MODULES}
    calls = {name: c for name, c in calls.items() if c}
    assert calls.keys() == {"syntax.py"}
    # the constructors build and set a node, and `_fill` sets its caches
    assert set(calls["syntax.py"]) == {
        ("__new__", "object.__new__"),
        ("__new__", "object.__setattr__"),
        ("_left_right", "object.__new__"),
        ("_left_right", "object.__setattr__"),
        ("_bounded", "object.__new__"),
        ("_bounded", "object.__setattr__"),
        ("_fill", "object.__setattr__"),
    }


def test_the_guard_sees_every_kind_of_call():
    code = (
        "def f(cls):\n    return object.__new__(cls)\n"
        "def g(x):\n    object.__setattr__(x, 'arg', 0)\n"
        "def h():\n    return Succ.__new__(Succ)\n"
        "def k(x):\n    Var.__init__(x, 'y')\n"
        "def m(x):\n    Eq.__setattr__(x, 'left', 0)\n"
        "def n(x):\n    return Succ(x), other.__new__(x), Foo.__init__(x)\n"
    )
    assert _bypasses(ast.parse(code)) == [
        ("f", "object.__new__"),
        ("g", "object.__setattr__"),
        ("h", "Succ.__new__"),
        ("k", "Var.__init__"),
        ("m", "Eq.__setattr__"),
    ]
