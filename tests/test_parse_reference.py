"""The parser is a precedence-climbing loop over a table of binding powers.

It is compared with the parser it replaced, kept here verbatim as a
reference: a loop that hands each value up through seven string-tagged
levels.  On seeded inputs, both entry points under two arity tables must
give equal trees with the same sharing, or the same message at the same
offset."""

import random

import pytest

from proofforge import syntax
from proofforge.syntax import (
    DEFFN_ARITIES,
    MAX_NESTING,
    ZERO,
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Formula,
    Implies,
    Not,
    Plus,
    Succ,
    SyntaxErrorWithPos,
    Term,
    Times,
    Var,
    _EOF,
    _IDENT,
    _token_span,
    _tokenize,
    free_variables,
)

# --- the parser as it was --------------------------------------------------------


class _ParseError(Exception):
    """A parse failure at a token index; the character offset is computed
    only when it leaves the parser as a SyntaxErrorWithPos."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


def _too_deep(index: int) -> _ParseError:
    return _ParseError(f"nesting deeper than {MAX_NESTING} levels", index)


# The parser's stack holds one frame per construct that is open: a tuple
# whose first item names what the construct waits for.
#   a unary formula: the body of "!" ("!",), of "forall v" ("all", v), of
#     "exists v" ("ex", v) or of a bounded quantifier ("body", ctor, v,
#     bound), or the right operand of "&" ("&", left, depth before it);
#   a conjunct: the right operand of "|" ("|", left, depth before it);
#   a formula: the right side of "->" ("->", left), or a group known to hold
#     a formula, up to its ")" ("group",);
#   a unary formula or a factor: a group's first item ("first",), or a
#     group where an atom can start ("ugroup",), whose term is an atom's
#     left side;
#   a factor: a bounded quantifier's bound ("bound", ctor, v), or the right
#     operand of "*" ("*", left, depth before it);
#   a product: the right operand of "+" ("+", left, depth before it);
#   a term: an atom's left side ("atom",) or right side ("=", left), a group
#     known to hold a term ("gterm",), a parenthesized term ("(",), the next
#     argument of the application at token h ("args", h, arguments so far),
#     or the argument of the innermost open head of a run of one-argument
#     heads from token `first` to token h ("heads", h, first).
# A value read is handed to the frame on top at its level: factor, product,
# term, unary formula, conjunct, disjunct or formula.  A frame that waits
# for a higher level than the value's lets the operators that follow build
# the value up first, as the grammar's own loops do.


def _found(toks: list[str], what: str, index: int) -> _ParseError:
    return _ParseError(f"expected {what}, found {toks[index] or 'end of input'!r}", index)


def _shared(share: dict, ctor, *parts) -> Formula:
    """The share table's node for `ctor(*parts)`, for the abbreviations."""
    key = (ctor, *[p if type(p) is str else id(p) for p in parts])
    return share.get(key) or share.setdefault(key, ctor(*parts))


def _parse(text: str, deffn_arities: dict[str, int] | None, share: dict | None, formula: bool) -> Term | Formula:
    """The formula or term `text` spells, read without recursion, each token
    once: a "(" where an atom can start opens a group that learns from what
    it reads whether it holds a formula or a term.  Nesting is counted, and
    errors are raised at the token they name, as a recursive descent over
    the grammar would.  Every node built other than ZERO is looked up first
    in the share table `share` (see share_tree), so equal subtrees are one
    object: within the text, and across every text parsed with the same
    table."""
    toks, kinds = _tokenize(text)
    arities = DEFFN_ARITIES if deffn_arities is None else deffn_arities
    if share is None:
        share = {}
    get = share.get
    put = share.setdefault
    i = depth = 0
    stack: list = [("root",)]
    push = stack.append
    pop = stack.pop
    unary = formula  # whether a unary formula starts at token i, else a factor
    try:
        while True:
            # the prefixes of a unary formula, up to its first factor
            while unary:
                k = kinds[i]
                if k == "!":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise _too_deep(i)
                    push(("!",))
                    i += 1
                elif k == "forall" or k == "exists":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise _too_deep(i)
                    bounded = kinds[i + 1] == "<="
                    i += 2 if bounded else 1
                    if kinds[i] != _IDENT:
                        raise _found(toks, "a variable", i)
                    v = toks[i]
                    i += 1
                    if not bounded:
                        push(("all" if k == "forall" else "ex", v))
                        continue
                    ctor = BoundedForAll if k == "forall" else BoundedExists
                    # the bound comes right before the body, so a bare
                    # identifier before "(" is a variable, unless it names a
                    # function symbol
                    name = toks[i]
                    if kinds[i] == _IDENT and name not in arities:
                        i += 1
                        if name == v:
                            raise _ParseError(f"bound of {ctor.__name__} mentions its own variable {v!r}", i)
                        push(("body", ctor, v, get(name) or put(name, Var(name))))
                    else:
                        push(("bound", ctor, v))
                        unary = False
                elif k == "(":
                    # a group that starts with "!" or a quantifier holds a
                    # formula; any other may turn out an atom's left side
                    push(("ugroup",))
                    while True:
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                        i += 1
                        k = kinds[i]
                        if k == "!" or k == "forall" or k == "exists":
                            if stack[-1][0] == "ugroup":
                                stack[-1] = ("group",)
                            else:
                                push(("group",))
                            break
                        push(("first",))
                        if k != "(":
                            unary = False
                            break
                else:
                    push(("atom",))
                    unary = False

            # a factor, opening the parentheses and applications before it
            while True:
                k = kinds[i]
                if k == "0":
                    i += 1
                    v = ZERO
                    break
                if k == _IDENT and kinds[i + 1] != "(":
                    name = toks[i]
                    if name in arities:
                        raise _ParseError(f"{name!r} is a function symbol, not a variable", i)
                    i += 1
                    v = get(name) or put(name, Var(name))
                    break
                if (k == "S" or k == _IDENT and arities.get(toks[i]) == 1) and kinds[i + 1] == "(":
                    first = i
                    while (k == "S" or k == _IDENT and arities.get(toks[i]) == 1) and kinds[i + 1] == "(":
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                        i += 2
                        k = kinds[i]
                    push(("heads", i - 2, first))
                    continue
                if k != "S" and k != _IDENT and k != "(":
                    raise _found(toks, "a term", i)
                depth += 1
                if depth > MAX_NESTING:
                    raise _too_deep(i)
                if k == "S":
                    raise _ParseError("expected '('", i + 1)
                if k == "(":
                    push(("(",))
                    i += 1
                else:
                    push(("args", i, []))
                    i += 2

            # hand the value up until a frame waits for more input
            level = "factor"
            while True:
                top = stack[-1]
                tag = top[0]
                if level == "factor":
                    if tag == "bound":
                        if top[2] in free_variables(v):
                            raise _ParseError(f"bound of {top[1].__name__} mentions its own variable {top[2]!r}", i)
                        stack[-1] = ("body", top[1], top[2], v)
                        unary = True
                        break
                    if tag == "first":
                        stack[-1] = top = ("gterm",)
                        tag = "gterm"
                    elif tag == "ugroup":
                        stack[-1] = top = ("atom",)
                        tag = "atom"
                elif level == "unary":
                    while tag == "!" or tag == "all" or tag == "body" or tag == "ex" or tag == "ugroup":
                        pop()
                        if tag != "ugroup":
                            depth -= 1
                            if tag == "!":
                                key = (Not, id(v))
                                v = get(key) or put(key, Not(v))
                            elif tag == "all":
                                key = (ForAll, top[1], id(v))
                                v = get(key) or put(key, ForAll(top[1], v))
                            elif tag == "body":
                                key = (top[1], top[2], id(top[3]), id(v))
                                v = get(key) or put(key, top[1](top[2], top[3], v))
                            else:
                                v = _shared(share, Not, _shared(share, ForAll, top[1], _shared(share, Not, v)))
                        top = stack[-1]
                        tag = top[0]
                    if tag == "first":
                        stack[-1] = top = ("group",)
                        tag = "group"
                # the left-associative chains: * over factors, + over
                # products, & over unary formulas, | over conjuncts.  A
                # chain's frame keeps the depth before its first operator;
                # each operator nests one level more, as the grammar's loops
                # do.
                while True:
                    if level == "factor":
                        op, up = "*", "product"
                    elif level == "product":
                        op, up = "+", "term"
                    elif level == "unary":
                        op, up = "&", "conjunct"
                    elif level == "conjunct":
                        op, up = "|", "disjunct"
                    else:
                        break
                    if tag == op:
                        a = top[1]
                        if op == "*" or op == "+":
                            ctor = Times if op == "*" else Plus
                            key = (ctor, id(a), id(v))
                            v = get(key) or put(key, ctor(a, v))
                        elif op == "&":
                            v = _shared(share, Not, _shared(share, Implies, a, _shared(share, Not, v)))
                        else:
                            v = _shared(share, Implies, _shared(share, Not, a), v)
                        if kinds[i] != op:
                            pop()
                            depth = top[2]
                            level = up
                            top = stack[-1]
                            tag = top[0]
                            continue
                        stack[-1] = (op, v, top[2])
                    elif kinds[i] == op:
                        push((op, v, depth))
                    else:
                        level = up
                        continue
                    depth += 1
                    if depth > MAX_NESTING:
                        raise _too_deep(i)
                    i += 1
                    unary = op == "&" or op == "|"
                    level = None
                    break
                if level is None:
                    break
                if level == "term":
                    if tag == "heads":
                        h, first = top[1], top[2]
                        while kinds[i] == ")":
                            i += 1
                            depth -= 1
                            if kinds[h] == "S":
                                key = (Succ, id(v))
                                v = get(key) or put(key, Succ(v))
                            else:
                                key = (toks[h], id(v))
                                v = get(key) or put(key, DefFn(toks[h], (v,)))
                            if h == first:
                                pop()
                                break
                            h -= 2
                            k = kinds[i]
                            if k == "*" or k == "+":
                                stack[-1] = ("heads", h, first)
                                break
                        else:
                            # more arguments of a one-argument symbol: read,
                            # then refused by their count
                            if kinds[h] == "S" or kinds[i] != ",":
                                raise _ParseError("expected ')'", i)
                            if h == first:
                                pop()
                            else:
                                stack[-1] = ("heads", h - 2, first)
                            push(("args", h, [v]))
                            i += 1
                            break
                        level = "factor"
                        continue
                    if tag == "=":
                        pop()
                        key = (Eq, id(top[1]), id(v))
                        v = get(key) or put(key, Eq(top[1], v))
                        level = "unary"
                        continue
                    if tag == "args":
                        args = top[2]
                        args.append(v)
                        if kinds[i] == ",":
                            i += 1
                            break
                    elif tag == "atom" or tag == "gterm" and kinds[i] != ")":
                        if kinds[i] != "=":
                            raise _found(toks, "'='", i)
                        i += 1
                        if tag == "atom":
                            stack[-1] = ("=", v)
                        else:
                            stack[-1] = ("group",)
                            push(("=", v))
                        break
                    if tag != "root":
                        # "args", "(" or "gterm": the ")" that closes it
                        if kinds[i] != ")":
                            raise _ParseError("expected ')'", i)
                        i += 1
                        depth -= 1
                        pop()
                        if tag == "args":
                            name = toks[top[1]]
                            if name not in arities:
                                raise _ParseError(f"unknown function symbol {name!r}", top[1])
                            if arities[name] != len(args):
                                raise _ParseError(f"{name!r} expects {arities[name]} arguments, got {len(args)}", top[1])
                            key = (name, *map(id, args))
                            v = get(key) or put(key, DefFn(name, tuple(args)))
                        level = "factor"
                        continue
                    level = "formula"
                if level == "disjunct":
                    if kinds[i] == "->":
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                        i += 1
                        push(("->", v))
                        unary = True
                        break
                    level = "formula"
                if level == "formula":
                    if tag == "->":
                        pop()
                        depth -= 1
                        key = (Implies, id(top[1]), id(v))
                        v = get(key) or put(key, Implies(top[1], v))
                        continue
                    if tag == "group":
                        if kinds[i] != ")":
                            raise _ParseError("expected ')'", i)
                        i += 1
                        depth -= 1
                        pop()
                        level = "unary"
                        continue
                    # the root
                    if kinds[i] != _EOF:
                        raise _ParseError(f"trailing input {toks[i]!r}", i)
                    return v
    except _ParseError as e:
        raise SyntaxErrorWithPos(e.message, _token_span(text, e.index)[0]) from None


# --- inputs ------------------------------------------------------------------------

# a second arity table: some symbols of one argument by default take two or
# three here and some of two take one; fst takes none, f and g are new
CHANGED_ARITIES = {"sub": 1, "dbl": 2, "pair": 1, "len": 3, "fst": 0, "f": 1, "g": 2}
TABLES = (None, CHANGED_ARITIES)
SYMBOLS = sorted(set(DEFFN_ARITIES) | set(CHANGED_ARITIES) | {"foo"})
VARS = ("x", "y", "z", "x'", "f", "le")
TOKENS = ("0", "x", "y", "S", "(", "(", ")", ")", "+", "*", "=", "!", "&", "|", "->", ",", "forall", "exists", "<=", *SYMBOLS)
NOISE = "()!=+*&|-<>,0Sxy fdp$"


def _term(rng: random.Random, d: int) -> str:
    r = rng.randrange(9 if d > 0 else 3)
    if r == 0:
        return "0"
    if r == 1:
        return rng.choice(VARS)
    if r == 2:
        return "S(" + _term(rng, d - 1) + ")"
    if r == 3:
        f = rng.choice(SYMBOLS)
        n = rng.choice((1, 1, 2, 3))
        return f + "(" + ", ".join(_term(rng, d - 1) for _ in range(n)) + ")"
    if r in (4, 5):
        return _term(rng, d - 1) + rng.choice((" + ", " * ", "+", "*")) + _term(rng, d - 1)
    if r == 6:
        return "(" + _term(rng, d - 1) + ")"
    # a run of one-argument heads
    heads = [rng.choice(("S", "dbl", "len", "f", "sub")) for _ in range(rng.randrange(1, 5))]
    return "(".join(heads) + "(" + _term(rng, d - 1) + ")" * len(heads)


def _formula(rng: random.Random, d: int) -> str:
    r = rng.randrange(11 if d > 0 else 1)
    if r == 0:
        return _term(rng, max(d - 1, 0)) + rng.choice((" = ", "=")) + _term(rng, max(d - 1, 0))
    if r == 1:
        return "!" + _formula(rng, d - 1)
    if r in (2, 3):
        q = rng.choice(("forall", "exists"))
        v = rng.choice(VARS[:4])
        if r == 2:
            return f"{q} {v} " + _formula(rng, d - 1)
        bound = rng.choice((rng.choice(VARS), _term(rng, 1)))
        return f"{q}<= {v} {bound} " + _formula(rng, d - 1)
    if r in (4, 5):
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
    """n texts: well-formed formulas and terms, mutated ones, and token soup."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        r = rng.randrange(5)
        if r == 4:
            sep = rng.choice(("", " "))
            text = sep.join(rng.choice(TOKENS) for _ in range(rng.randrange(1, 12)))
        else:
            text = _formula(rng, rng.randrange(4)) if rng.randrange(3) else _term(rng, rng.randrange(4))
            if r >= 2:
                text = _mutate(rng, text)
        out.append(text)
    return out


def nested_inputs(n: int) -> list[str]:
    """Each construct nested n deep."""
    return [
        "!" * n + "0 = 0",
        "(" * n + "0 = 0" + ")" * n,
        "(" * n + "0" + ")" * n + " = 0",
        "(" * n + "(0) = 0" + ")" * n,
        "!(" * (n // 2) + "0 = 0" + ")" * (n // 2),
        "(!" * (n // 2) + "0 = 0" + ")" * (n // 2),
        "S(" * n + "0" + ")" * n + " = 0",
        "dbl(" * n + "0" + ")" * n + " = 0",
        "dbl(S(" * (n // 2) + "0" + "))" * (n // 2) + " = 0",
        "pair(" * n + "0" + ", 0)" * n + " = 0",
        "S(" * n + "0, 0" + ")" * n + " = 0",
        "forall x " * n + "0 = 0",
        "exists x " * n + "0 = 0",
        "forall<= x y " * n + "0 = 0",
        "exists<= x S(0) " * n + "0 = 0",
        " + ".join(["0"] * (n + 1)) + " = 0",
        " * ".join(["x"] * (n + 1)) + " = 0",
        "0 = " + "0 + (" * n + "0" + ")" * n,
        " & ".join(["0 = 0"] * (n + 1)),
        " | ".join(["0 = 0"] * (n + 1)),
        " -> ".join(["0 = 0"] * (n + 1)),
        "(0 = 0 -> " * n + "0 = 0" + ")" * n,
    ]


# --- comparison --------------------------------------------------------------------


def _outcome(parse, text: str, *args):
    try:
        return parse(text, *args)
    except SyntaxErrorWithPos as e:
        return (str(e), e.pos)


def _assert_same_dag(refs: list, news: list) -> None:
    """The trees are equal and share alike: each distinct node of one side
    stands for one distinct node of the other.  Walked without recursion."""
    fwd: dict[int, object] = {}
    back: dict[int, object] = {}
    stack = list(zip(refs, news))
    while stack:
        a, b = stack.pop()
        if type(a) is tuple or type(b) is tuple:
            assert a == b
            continue
        seen = fwd.get(id(a))
        if seen is not None or id(b) in back:
            assert seen is b and back[id(b)] is a
            continue
        fwd[id(a)] = b
        back[id(b)] = a
        assert type(a) is type(b)
        cls = type(a)
        if cls is Var:
            assert a.name == b.name
        elif cls is DefFn:
            assert a.symbol == b.symbol and len(a.args) == len(b.args)
        elif cls in (ForAll, BoundedForAll, BoundedExists):
            assert a.var == b.var
        stack += zip(syntax._children(a), syntax._children(b))


def compare(texts: list[str]) -> tuple[int, int]:
    """Parse every text with both parsers, as a formula and as a term, under
    both arity tables, one share table per run for the reference, as a
    proof text once kept one; return how many parses succeeded and how many
    were refused.  The parser builds interned nodes, so its trees are the
    reference's, object for object."""
    ok = refused = 0
    for arities in TABLES:
        for formula in (True, False):
            ref_share: dict = {}
            refs, news = [], []
            for text in texts:
                refs.append(_outcome(_parse, text, arities, ref_share, formula))
                news.append(_outcome(syntax._parse, text, arities, formula))
                assert news[-1] is refs[-1] or type(news[-1]) is tuple and news[-1] == refs[-1], text
                if type(news[-1]) is tuple:
                    refused += 1
                else:
                    ok += 1
            _assert_same_dag(refs, news)
    return ok, refused


def test_parser_agrees_with_the_reference_on_random_inputs():
    ok, refused = compare(random_inputs(2025, 6_000))
    # both the trees and the error paths are exercised
    assert ok > 3_000 and refused > 12_000


@pytest.mark.parametrize("n", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_parser_agrees_with_the_reference_at_the_nesting_cap(n):
    compare(nested_inputs(n))


def test_a_mismatch_is_seen():
    # the comparison itself: a different tree fails it; equal trees are one
    # object, so their sharing cannot differ
    a, b = Eq(ZERO, ZERO), Eq(ZERO, ZERO)
    assert a is b
    with pytest.raises(AssertionError):
        _assert_same_dag([Eq(Var("x"), ZERO)], [Eq(Var("y"), ZERO)])
    with pytest.raises(AssertionError):
        _assert_same_dag([Implies(a, a)], [Implies(a, Eq(ZERO, Succ(ZERO)))])
    _assert_same_dag([Implies(a, a)], [Implies(b, b)])
