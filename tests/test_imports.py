"""Every name a module imports is read in that module (`__init__` re-exports
and is left out), the package imports nothing outside the standard
library, and every source file parses as Python 3.10, the oldest version
`pyproject.toml` admits."""

import ast
import sys
from pathlib import Path

import proofforge

PACKAGE = sorted(Path(proofforge.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def _annotations(tree: ast.Module) -> list[ast.expr]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.returns is not None:
            out.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the tree, including inside string annotations."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= _read(ast.parse(n.value, mode="eval"))
    return out


def test_every_imported_name_is_read():
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        names = sorted(_imported(tree) - _read(tree))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_the_package_imports_only_the_standard_library():
    outside = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.setdefault(path.name, []).append(name)
    assert outside == {}


def test_every_source_file_parses_as_python_3_10():
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 40
    newer = {}
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as e:
            newer[str(path.relative_to(ROOT))] = f"line {e.lineno}: {e.msg}"
    assert newer == {}
