"""Every search that `forge` and the suite start runs under the configured
caps: each call in `cli.py` and `suite.py` to a function that searches
passes `limits=`, so a new command cannot fall back to the defaults."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proofforge"
SEARCHES = {"l_k_membership", "enumerate_proofs", "shortest_proof_length", "regeneration_chain"}


def search_calls(source: str) -> list[tuple[int, str, bool]]:
    """(line, name, whether it passes `limits=`) for each call to a search,
    as `f(...)` or `obj.f(...)`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name in SEARCHES:
            out.append((node.lineno, name, any(k.arg == "limits" for k in node.keywords)))
    return sorted(out)


def test_every_search_of_forge_and_the_suite_passes_its_caps():
    calls = {module: search_calls((PACKAGE / module).read_text()) for module in ("cli.py", "suite.py")}
    assert {module: [(line, name) for line, name, capped in c if not capped] for module, c in calls.items()} == {
        "cli.py": [],
        "suite.py": [],
    }
    # every search is started from one of the two
    assert {name for c in calls.values() for _, name, _ in c} == SEARCHES


def test_a_search_without_caps_is_seen():
    source = "l_k_membership(t, p, 1, limits=x)\nb.enumerate_proofs(t, p, 3)\nregeneration_chain(**kw)\nf(t)\n"
    assert search_calls(source) == [
        (1, "l_k_membership", True),
        (2, "enumerate_proofs", False),
        (3, "regeneration_chain", False),
    ]
