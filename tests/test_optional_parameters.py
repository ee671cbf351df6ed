"""Every optional parameter of a function in the package is set by some call
in `src/`, `tests/` or `perfbench/`, by keyword or by position; a default
that no caller overrides is a constant, and is written as one.

Calls are matched to definitions by name, as `f(...)` or `obj.f(...)`; a
call to a class counts for its `__init__`, and a method's positions start
after `self`.  A call that unpacks `*args` or `**kwargs` sets every
parameter of the functions it may reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proofforge"
CALLERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _options(tree: ast.Module) -> list[tuple[str, int, list[str], list[str]]]:
    """(name, line, the parameters a call can fill by position, the optional
    ones) for each function with a default, named for its class if it is an
    `__init__`."""
    out = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            optional = positional[len(positional) - len(a.defaults) :]
            optional += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if not optional:
                continue
            name = node.name
            if isinstance(owner, ast.ClassDef):
                positional = positional[1:]
                if name == "__init__":
                    name = owner.name
            out.append((name, node.lineno, positional, optional))
    return out


def _calls(tree: ast.Module) -> list[tuple[str, int, set[str] | None]]:
    """(name, positional arguments, keywords) for each call by name; keywords
    is None where the call unpacks arguments."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        keywords = {k.arg for k in node.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            keywords = None
        out.append((name, len(node.args), keywords))
    return out


def unset_options(definitions: dict[str, str], callers: list[str]) -> list[str]:
    """`module:line name(parameter)` for each optional parameter of the
    definitions (module name -> source) that no caller's call sets."""
    calls: dict[str, list] = {}
    for source in callers:
        for name, n, keywords in _calls(ast.parse(source)):
            calls.setdefault(name, []).append((n, keywords))
    unset = []
    for module, source in definitions.items():
        for name, line, positional, optional in _options(ast.parse(source)):
            for p in optional:
                if not any(kw is None or p in kw or p in positional[:n] for n, kw in calls.get(name, ())):
                    unset.append(f"{module}:{line} {name}({p})")
    return unset


def test_every_optional_parameter_is_set_by_some_call():
    definitions = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unset_options(definitions, [p.read_text() for p in CALLERS]) == []


def test_an_option_no_call_sets_is_seen():
    source = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n    def m(self, y=0):\n        pass\n"
    )
    every = ["f(0, 1, c=3)", "K(1)", "k.m(1)"]
    assert unset_options({"m.py": source}, every) == []
    assert unset_options({"m.py": source}, ["f(0, c=3)", "K(x=1)", "k.m(y=1)"]) == ["m.py:1 f(b)"]
    assert unset_options({"m.py": source}, ["f(0, 1)", "K()", "m(*args)"]) == ["m.py:1 f(c)", "m.py:4 K(x)"]
    assert unset_options({"m.py": source}, ["f(**kw)", "K(1)", "k.m()"]) == ["m.py:6 m(y)"]
