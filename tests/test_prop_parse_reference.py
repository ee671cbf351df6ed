"""parse_prop is one binding-power loop over the connective table.

It is compared with the parser it replaced, kept here verbatim as a
reference: a loop with one hand-written block for each of `&`, `|` and
`->`.  On seeded and deeply nested inputs, both must give equal trees or
the same ValueError message."""

import random

import pytest

from proofforge.propositional import (
    _PROP_TOKEN,
    FALSE,
    MAX_PROP_NESTING,
    TRUE,
    PAnd,
    PConst,
    PImp,
    PNot,
    POr,
    PropFormula,
    PVar,
    parse_prop,
)

# --- the parser as it was --------------------------------------------------------


def reference_parse_prop(text: str) -> PropFormula:
    """x<i>, T, F, !, &, |, ->, parentheses.  -> loosest and right-assoc.

    Input nested deeper than MAX_PROP_NESTING levels raises ValueError.
    Without recursion: the stack holds each open `!` and `(`, and each
    operator waiting for its right operand with its left one and that
    one's depth.
    """
    toks: list[str] = []
    i = 0
    while i < len(text):
        m = _PROP_TOKEN.match(text, i)
        if m is None:
            if text[i:].strip() == "":
                break
            raise ValueError(f"bad character {text[i:].lstrip()[0]!r} in propositional formula")
        i = m.end()
        toks.append(next(g for g in m.groups() if g is not None))
    toks.append("")
    pos = 0
    level = 0  # open parentheses, `!` and `->` around the current token

    def too_deep(depth: int) -> int:
        if depth > MAX_PROP_NESTING:
            raise ValueError(f"nesting deeper than {MAX_PROP_NESTING} levels at token {pos}")
        return depth

    stack: list = []
    while True:
        # an atom, after the `!` and `(` that open before it
        t = toks[pos]
        while t == "!" or t == "(":
            pos += 1
            level = too_deep(level + 1)
            stack.append(t)
            t = toks[pos]
        if t == "T" or t == "F":
            f: PropFormula = TRUE if t == "T" else FALSE
        elif t.startswith("x"):
            f = PVar(int(t[1:]))
        else:
            raise ValueError(f"unexpected token {t or None!r}")
        pos += 1
        d = 0  # the depth of f
        # hand f up until an operator waits for its right operand
        while True:
            top = stack[-1] if stack else None
            if top == "!":
                stack.pop()
                level -= 1
                f, d = PNot(f), too_deep(1 + d)
                continue
            # f is an operand of `&`
            if type(top) is tuple and top[0] == "&":
                stack.pop()
                f, d = PAnd(top[1], f), too_deep(1 + max(top[2], d))
                top = stack[-1] if stack else None
            if toks[pos] == "&":
                pos += 1
                stack.append(("&", f, d))
                break
            # f is an operand of `|`
            if type(top) is tuple and top[0] == "|":
                stack.pop()
                f, d = POr(top[1], f), too_deep(1 + max(top[2], d))
            if toks[pos] == "|":
                pos += 1
                stack.append(("|", f, d))
                break
            if toks[pos] == "->":
                pos += 1
                level = too_deep(level + 1)
                stack.append(("->", f, d))
                break
            # f is a whole implication
            while stack and type(stack[-1]) is tuple:
                _, a, da = stack.pop()
                level -= 1
                f, d = PImp(a, f), too_deep(1 + max(da, d))
            if not stack:
                if pos != len(toks) - 1:
                    raise ValueError(f"trailing tokens after formula: {toks[pos:-1]}")
                return f
            # the `(` around it
            if toks[pos] != ")":
                raise ValueError(f"expected ')' at token {pos}")
            pos += 1
            stack.pop()
            level -= 1


# --- inputs ------------------------------------------------------------------------

TOKENS = ("x0", "x1", "x12", "T", "F", "!", "!", "&", "|", "->", "(", "(", ")", ")")
NOISE = "x01TF!&|-<>() $y"


def _formula(rng: random.Random, d: int) -> str:
    r = rng.randrange(8 if d > 0 else 1)
    if r == 0:
        return rng.choice(("x0", "x1", "x2", "x17", "T", "F"))
    if r == 1:
        return "!" + _formula(rng, d - 1)
    if r == 2:
        return "(" + _formula(rng, d - 1) + ")"
    op = rng.choice((" & ", " | ", " -> ", "&", "|", "->"))
    return _formula(rng, d - 1) + op + _formula(rng, d - 1)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(text) + 1)
        r = rng.randrange(3)
        if r == 0:
            text = text[:k] + rng.choice(NOISE) + text[k:]
        elif r == 1:
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + rng.choice(NOISE) + text[k + 1 :]
    return text


def random_inputs(seed: int, n: int) -> list[str]:
    """n texts: well-formed formulas, mutated ones, and token soup."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        r = rng.randrange(5)
        if r == 4:
            sep = rng.choice(("", " "))
            text = sep.join(rng.choice(TOKENS) for _ in range(rng.randrange(1, 12)))
        else:
            text = _formula(rng, rng.randrange(6))
            if r >= 2:
                text = _mutate(rng, text)
        out.append(text)
    return out


def _side_by_side(n: int) -> str:
    """n groups `(!x0 -> x1)` joined by `&` in a balanced tree: shallow as
    written and in the tree, though n `!`, `(` and `->` open in turn."""
    parts = ["(!x0 -> x1)"] * n
    while len(parts) > 1:
        parts = [f"({a} & {b})" for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0]


def nested_inputs(n: int) -> list[str]:
    """Ten shapes nested n deep, as written or in the tree built, and one
    that opens n levels one after another."""
    return [
        _side_by_side(n),
        "!" * n + "x0",
        "(" * n + "x0" + ")" * n,
        "!(" * (n // 2) + "x0" + ")" * (n // 2),
        " & ".join(["x0"] * (n + 1)),
        " | ".join(["x1", "x0"] * (n // 2) + ["x0"]),
        " -> ".join(["x0"] * (n + 1)),
        "(x0 -> " * n + "x0" + ")" * n,
        "!x0 & " * n + "x0",
        "(" * n + "x0" + " & x1)" * n,
        "x0 | " * (n // 2) + "(" * (n // 2) + "x0" + ")" * (n // 2),
    ]


# --- comparison --------------------------------------------------------------------


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


def _assert_same_tree(a: PropFormula, b: PropFormula) -> None:
    """The trees are equal, walked without recursion (`==` recurses)."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b)
        if type(a) is PVar:
            assert a.index == b.index
        elif type(a) is PConst:
            assert a.value == b.value
        elif type(a) is PNot:
            stack.append((a.body, b.body))
        else:
            stack += ((a.left, b.left), (a.right, b.right))


def compare(texts: list[str]) -> tuple[int, int]:
    """Parse every text with both parsers; return how many parses succeeded
    and how many were refused, each with the same message."""
    ok = refused = 0
    for text in texts:
        want = _outcome(reference_parse_prop, text)
        got = _outcome(parse_prop, text)
        if type(want) is str:
            assert got == want, text
            refused += 1
        else:
            assert type(got) is not str, (text, got)
            _assert_same_tree(want, got)
            ok += 1
    return ok, refused


def test_parser_agrees_with_the_reference_on_random_inputs():
    ok, refused = compare(random_inputs(2026, 50_000))
    # both the trees and the error paths are exercised
    assert ok > 20_000 and refused > 20_000


@pytest.mark.parametrize("n", range(MAX_PROP_NESTING - 2, MAX_PROP_NESTING + 3))
def test_parser_agrees_with_the_reference_at_the_nesting_cap(n):
    ok, refused = compare(nested_inputs(n))
    # both paths are exercised around the cap
    assert refused if n > MAX_PROP_NESTING else ok


def test_a_mismatch_is_seen():
    # the comparison itself: a different tree fails it
    with pytest.raises(AssertionError):
        _assert_same_tree(PAnd(PVar(0), PVar(1)), POr(PVar(0), PVar(1)))
    with pytest.raises(AssertionError):
        _assert_same_tree(PImp(PVar(0), PNot(TRUE)), PImp(PVar(0), PNot(FALSE)))
    with pytest.raises(AssertionError):
        _assert_same_tree(PNot(PVar(1)), PNot(PVar(2)))
    _assert_same_tree(PImp(PVar(0), PNot(TRUE)), PImp(PVar(0), PNot(TRUE)))
