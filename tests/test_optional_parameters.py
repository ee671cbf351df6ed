"""Every optional parameter of a function in the package is set by some call
in `src/`, `tests/` or `perfbench/`, by keyword or by position, to something
other than its default; a default that no caller overrides is a constant,
and is written as one.

Calls are matched to definitions by name, as `f(...)` or `obj.f(...)`; a
call to a class counts for its `__init__`, and a method's positions start
after `self`.  An argument written as the parameter's default expression
(`var="x"` where the default is `"x"`) does not set it.  A call that
unpacks `*args` or `**kwargs` sets every parameter of the functions it may
reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proofforge"
CALLERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _options(tree: ast.Module) -> list[tuple[str, int, list[str], dict[str, str]]]:
    """(name, line, the parameters a call can fill by position, the optional
    ones with their default expressions dumped) for each function with a
    default, named for its class if it is an `__init__`."""
    out = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            optional = dict(zip(positional[len(positional) - len(a.defaults) :], map(ast.dump, a.defaults)))
            optional |= {x.arg: ast.dump(d) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            if not optional:
                continue
            name = node.name
            if isinstance(owner, ast.ClassDef):
                positional = positional[1:]
                if name == "__init__":
                    name = owner.name
            out.append((name, node.lineno, positional, optional))
    return out


def _calls(tree: ast.Module) -> list[tuple[str, list[str], dict[str, str] | None]]:
    """(name, positional arguments, keyword arguments), each argument's
    expression dumped, for each call by name; keywords is None where the
    call unpacks arguments."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        keywords = {k.arg: ast.dump(k.value) for k in node.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            keywords = None
        out.append((name, [ast.dump(a) for a in node.args], keywords))
    return out


def _sets(p: str, default: str, positional: list[str], args: list[str], keywords: dict[str, str] | None) -> bool:
    """Whether a call with these arguments gives parameter p a value other
    than its default."""
    if keywords is None:
        return True
    if p in keywords:
        return keywords[p] != default
    i = positional.index(p) if p in positional else len(args)
    return i < len(args) and args[i] != default


def unset_options(definitions: dict[str, str], callers: list[str]) -> list[str]:
    """`module:line name(parameter)` for each optional parameter of the
    definitions (module name -> source) that no caller's call sets to
    anything but its default."""
    calls: dict[str, list] = {}
    for source in callers:
        for name, args, keywords in _calls(ast.parse(source)):
            calls.setdefault(name, []).append((args, keywords))
    unset = []
    for module, source in definitions.items():
        for name, line, positional, optional in _options(ast.parse(source)):
            for p, default in optional.items():
                if not any(_sets(p, default, positional, args, kw) for args, kw in calls.get(name, ())):
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
    every = ["f(0, 5, c=3)", "K(1)", "k.m(1)"]
    assert unset_options({"m.py": source}, every) == []
    assert unset_options({"m.py": source}, ["f(0, c=3)", "K(x=1)", "k.m(y=1)"]) == ["m.py:1 f(b)"]
    assert unset_options({"m.py": source}, ["f(0, 5)", "K()", "m(*args)"]) == ["m.py:1 f(c)", "m.py:4 K(x)"]
    assert unset_options({"m.py": source}, ["f(**kw)", "K(1)", "k.m()"]) == ["m.py:6 m(y)"]
    # the default written out sets nothing, by position or by keyword
    assert unset_options({"m.py": source}, ["f(0, 1, c=2)", "f(0, b=1, c=3)", "f(0, 1, 2)", "K(0)", "K(x=0)", "k.m(y=5)"]) == [
        "m.py:1 f(b)",
        "m.py:4 K(x)",
    ]
