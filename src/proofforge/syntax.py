"""First-order arithmetic syntax: terms, formulas, parsing, printing, substitution.

The language is that of Robinson arithmetic plus registered definitional
function symbols:

    terms     t ::= 0 | x | S(t) | t + t | t * t | f(t, ..., t)
    formulas  A ::= t = t | !A | A -> A | forall x A
                  | forall<= x b A | exists<= x b A

Bounded quantifiers are primitive constructors (a formula is Delta0 iff it
contains no unbounded forall).  Conjunction, disjunction and unbounded exists
are accepted by the parser as abbreviations and expanded immediately:

    A & B   ==  !(A -> !B)
    A | B   ==  !A -> B
    exists x A  ==  !forall x !A

The biconditional is not part of the input language: its expansion holds
each side twice, so a chain of them would grow exponentially.  `iff` builds
it for code that needs one.

Canonical printing puts single spaces around binary operators, always
parenthesizes negation bodies and quantifier bodies, and never emits the
abbreviations.  The size of a formula is the number of tokens in the
canonical print, *not counting* parentheses and commas — equivalently, the
length of the prefix (Polish) token sequence the encoder uses.  Examples:
size("0 = 0") = 3, size(S(S(0))) = 3, size(!A) = size(A) + 1.

Operator binding, loosest to tightest:  ->  (right associative), then
| then & (parse-time sugar, left associative), then ! / quantifiers,
then =, then + then * (left associative).  The parser reads this table of
binding powers by precedence climbing; & | -> take formulas, = + * terms.

No walk recurses: parsing, printing, counted equality, sizes, free
variables and substitution are loops over explicit stacks, as are the walks
of the other modules, so deep input needs no raised recursion limit and no
module touches it.

Equal nodes are one object.  Every constructor interns: it looks its node
up in one module-wide table, keyed by class, payload and the ids of the
children, which are interned before it, and builds the node only if it is
missing; an entry leaves the table when its node dies.  So `==` on nodes
is `is`, and every tree, however it was built (a parse, a derivation, a
substitution, a search candidate, an lru-cached pool of `bounded`), is
shared with every equal one.  A node caches three values of its tree,
each computed on first use without recursion: `node_count` (`_n`), hash
(`_h`) and size (`_s`).  `hash(node)` is the hash of its class name and
fields, never of an id, so no output depends on the order of a set of
nodes.  `equal` is identity; with a cost it also counts the nodes a walk
of both trees up to their first mismatch compares, descending only into
pairs that differ.

`calculus.print_proof_text` prints each atom object once per proof; it
memoizes atoms only, as a memo of whole implications is quadratic in the
depth of a right-nested chain.  `calculus.parse_proof_text` parses each
distinct atom text once per proof text, reading a line without quantifiers
and with at most MAX_NESTING nesting tokens as its `_skeleton`; other lines,
and any it refuses, are read token by token.  Both memos save text work;
interning saves node work.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from itertools import repeat
from operator import is_ as _is
from typing import Iterable, Iterator, Union

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# The intern table maps (class, payload, ids of the children) to a weak
# reference to the node built from them; the entry leaves when its node
# dies.  A node keeps its children, so their ids in a live key are not
# reused, and the key is shallow: building a node is one lookup, whatever
# the size of its tree.  Each constructor returns the live node of its key,
# or enters a new one and sets its fields.
_TABLE: dict = {}
_get = _TABLE.get


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    # a node may already have taken the key while this one was dying
    if _get(entry.key) is entry:
        del _TABLE[entry.key]


def _enter(node: Term | Formula, key: tuple) -> Term | Formula:
    entry = _TABLE[key] = _Entry(node, _drop)
    entry.key = key
    return node


@dataclass(frozen=True, eq=False, init=False)
class Var:
    name: str

    def __new__(cls, name: str) -> Var:
        key = (cls, name)
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "name", name)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Zero:
    def __new__(cls) -> Zero:
        key = (cls,)
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Succ:
    arg: "Term"

    def __new__(cls, arg: Term) -> Succ:
        key = (cls, id(arg))
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "arg", arg)
        return node


def _left_right(cls, left: Term, right: Term) -> Plus | Times | Eq:
    """The constructor of Plus, Times and Eq."""
    key = (cls, id(left), id(right))
    entry = _get(key)
    if entry is None or (node := entry()) is None:
        node = _enter(object.__new__(cls), key)
        object.__setattr__(node, "left", left)
        object.__setattr__(node, "right", right)
    return node


@dataclass(frozen=True, eq=False, init=False)
class Plus:
    left: "Term"
    right: "Term"
    __new__ = _left_right


@dataclass(frozen=True, eq=False, init=False)
class Times:
    left: "Term"
    right: "Term"
    __new__ = _left_right


@dataclass(frozen=True, eq=False, init=False)
class DefFn:
    """Application of a registered definitional function symbol."""

    symbol: str
    args: tuple["Term", ...]

    def __new__(cls, symbol: str, args: Iterable[Term]) -> DefFn:
        args = tuple(args)
        key = (cls, symbol, *map(id, args))
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "symbol", symbol)
            object.__setattr__(node, "args", args)
        return node


Term = Union[Var, Zero, Succ, Plus, Times, DefFn]


@dataclass(frozen=True, eq=False, init=False)
class Eq:
    left: Term
    right: Term
    __new__ = _left_right


@dataclass(frozen=True, eq=False, init=False)
class Not:
    body: "Formula"

    def __new__(cls, body: Formula) -> Not:
        key = (cls, id(body))
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "body", body)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"

    def __new__(cls, antecedent: Formula, consequent: Formula) -> Implies:
        key = (cls, id(antecedent), id(consequent))
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "antecedent", antecedent)
            object.__setattr__(node, "consequent", consequent)
        return node


@dataclass(frozen=True, eq=False, init=False)
class ForAll:
    var: str
    body: "Formula"

    def __new__(cls, var: str, body: Formula) -> ForAll:
        key = (cls, var, id(body))
        entry = _get(key)
        if entry is None or (node := entry()) is None:
            node = _enter(object.__new__(cls), key)
            object.__setattr__(node, "var", var)
            object.__setattr__(node, "body", body)
        return node


def _bounded(cls, var: str, bound: Term, body: Formula) -> BoundedForAll | BoundedExists:
    """The constructor of BoundedForAll and BoundedExists."""
    key = (cls, var, id(bound), id(body))
    entry = _get(key)
    if entry is None or (node := entry()) is None:
        node = _enter(object.__new__(cls), key)
        object.__setattr__(node, "var", var)
        object.__setattr__(node, "bound", bound)
        object.__setattr__(node, "body", body)
    return node


@dataclass(frozen=True, eq=False, init=False)
class BoundedForAll:
    """forall<= var bound body — var ranges over 0..bound inclusive.

    The bound is evaluated in the enclosing scope: occurrences of `var`
    inside `bound` are rejected by the parser and by well-formedness checks.
    """

    var: str
    bound: Term
    body: "Formula"
    __new__ = _bounded


@dataclass(frozen=True, eq=False, init=False)
class BoundedExists:
    var: str
    bound: Term
    body: "Formula"
    __new__ = _bounded


Formula = Union[Eq, Not, Implies, ForAll, BoundedForAll, BoundedExists]

_TERM_TYPES = frozenset((Var, Zero, Succ, Plus, Times, DefFn))
_FORMULA_TYPES = frozenset((Eq, Not, Implies, ForAll, BoundedForAll, BoundedExists))

ZERO = Zero()


# ---------------------------------------------------------------------------
# Per-node caches
# ---------------------------------------------------------------------------

# The caches of the module docstring are set on a node with
# object.__setattr__; its class holds None for a value not computed yet.


def _hash(node: Term | Formula) -> int:
    h = node._h
    return _fill(node, "_h", _own_hash) if h is None else h


def _own_hash(x: Term | Formula, parts: tuple) -> int:
    # its class name and fields, whose nodes' hashes are cached
    return hash((type(x).__name__, *[getattr(x, name) for name in x.__match_args__]))


for _cls in _TERM_TYPES | _FORMULA_TYPES:
    _cls._n = _cls._h = _cls._s = None
    _cls.__hash__ = _hash


def _children(x: Term | Formula) -> tuple:
    cls = type(x)
    if cls is Succ:
        return (x.arg,)
    if cls is DefFn:
        return x.args
    if cls is Plus or cls is Times or cls is Eq:
        return (x.left, x.right)
    if cls is Implies:
        return (x.antecedent, x.consequent)
    if cls is Not or cls is ForAll:
        return (x.body,)
    if cls is BoundedForAll or cls is BoundedExists:
        return (x.bound, x.body)
    if cls is Var or cls is Zero:
        return ()
    raise TypeError(f"not a term or formula: {x!r}")


def _fill(root: Term | Formula, attr: str, value):
    """Cache value(x, children of x) as `attr` on every node x of root's tree
    that lacks it, children first, so that value reads the children's cached
    values; return root's.  Without recursion: a node is expanded into an
    entry (node, children) and the children above it, and the entry is
    computed once they are.  A node met again after its value is set is
    skipped, so a shared subtree is computed once."""
    stack: list = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        x = pop()
        if type(x) is tuple:
            node, parts = x
            object.__setattr__(node, attr, value(node, parts))
        elif getattr(x, attr) is None:
            parts = _children(x)
            push((x, parts))
            stack += parts
    return getattr(root, attr)


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------


def equal(a: Term | Formula, b: Term | Formula, cost=None) -> bool:
    """Whether two terms or formulas are equal, that is, one object.

    With `cost`, its `symbol_comparisons` gets the node pairs one walk of
    both trees compares up to and including the first mismatch, in
    right-first preorder (the consequent before the antecedent, the right
    operand of + and * before the left, function arguments last to first,
    the left side of = before the right, a bounded quantifier's bound before
    its body).  A pair of one object counts its `node_count` without a walk,
    so the walk, which does not recurse, descends only into pairs that
    differ."""
    if a is b:
        if cost is not None:
            cost.symbol_comparisons += node_count(a)
        return True
    if cost is None:
        return False
    # a node's first child in visit order is compared next, its others
    # wait on the stack in pairs
    n = 0
    stack: list = []
    pop = stack.pop
    x, y = a, b
    while True:
        if x is y:
            n += x._n or node_count(x)
        else:
            n += 1
            cls = type(x)
            if cls is not type(y):
                break
            if cls is Plus or cls is Times:
                stack += (x.left, y.left)
                x, y = x.right, y.right
                continue
            elif cls is DefFn:
                xs, ys = x.args, y.args
                if x.symbol != y.symbol or len(xs) != len(ys):
                    break
                if len(xs) > 1:
                    for k in range(len(xs) - 1):
                        stack += (xs[k], ys[k])
                if xs:
                    x, y = xs[-1], ys[-1]
                    continue
            elif cls is Succ:
                x, y = x.arg, y.arg
                continue
            elif cls is Var:
                if x.name != y.name:
                    break
            elif cls is Eq:
                stack += (x.right, y.right)
                x, y = x.left, y.left
                continue
            elif cls is Implies:
                stack += (x.antecedent, y.antecedent)
                x, y = x.consequent, y.consequent
                continue
            elif cls is Not:
                x, y = x.body, y.body
                continue
            elif cls is ForAll or cls is BoundedForAll or cls is BoundedExists:
                if x.var != y.var:
                    break
                if cls is ForAll:
                    x, y = x.body, y.body
                else:
                    stack += (x.body, y.body)
                    x, y = x.bound, y.bound
                continue
            elif cls is not Zero:
                raise TypeError(f"not a term or formula: {x!r}")
        if not stack:
            break
        y = pop()
        x = pop()
    cost.symbol_comparisons += n
    return False


class SyntaxErrorWithPos(ValueError):
    """Parse error carrying a character offset into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Numerals
# ---------------------------------------------------------------------------


def numeral(n: int) -> Term:
    """The unary numeral S(S(...S(0)...)) with n applications of S."""
    if n < 0:
        raise ValueError("numeral of a negative integer")
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> int | None:
    """Inverse of numeral(); None if t is not a pure S-chain over 0."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Free variables and substitution
# ---------------------------------------------------------------------------


def free_variables(root: Term | Formula) -> frozenset[str]:
    """The variables that occur free in a term or formula."""
    return frozenset(_free_names(root))


def is_sentence(f: Term | Formula) -> bool:
    """Whether f has no free variable; the walk stops at the first one."""
    return not _free_names(f, first=True)


def _free_names(root: Term | Formula, bound: Iterable[str] = frozenset(), first: bool = False) -> set[str]:
    """The names of the variables that occur free in a term or formula and
    are not in `bound`; with `first`, only the first one found, the walk
    stopping there.  Without recursion: below a quantifier's body the stack
    holds the set of variables bound outside it, which is restored when the
    body is done; a bounded quantifier's bound is visited before its
    variable is bound."""
    found: set[str] = set()
    bound = frozenset(bound)
    stack: list = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        x = pop()
        # descend into the child visited next, stacking the others
        while True:
            cls = type(x)
            if cls is Succ:
                x = x.arg
            elif cls is DefFn:
                args = x.args
                if len(args) != 1:
                    stack += args
                    break
                x = args[0]
            elif cls is Plus or cls is Times or cls is Eq:
                push(x.left)
                x = x.right
            elif cls is Implies:
                push(x.antecedent)
                x = x.consequent
            elif cls is Not:
                x = x.body
            elif cls is ForAll:
                push(bound)
                bound = bound | {x.var}
                x = x.body
            elif cls is BoundedForAll or cls is BoundedExists:
                stack += (bound, x.body, bound | {x.var})
                x = x.bound
            else:
                if cls is Var:
                    if x.name not in bound:
                        found.add(x.name)
                        if first:
                            return found
                elif cls is frozenset:
                    bound = x
                elif cls is not Zero:
                    raise TypeError(f"not a term or formula: {x!r}")
                break
    return found


def is_delta0(f: Formula) -> bool:
    """True iff f contains no unbounded quantifier.  Without recursion: the
    subformulas are visited in preorder, antecedent first, up to the first
    unbounded quantifier or the first node that is not a formula."""
    stack = [f]
    while stack:
        g = stack.pop()
        cls = type(g)
        if cls is Implies:
            stack += (g.consequent, g.antecedent)
        elif cls is Not or cls is BoundedForAll or cls is BoundedExists:
            stack.append(g.body)
        elif cls is ForAll:
            return False
        elif cls is not Eq:
            raise TypeError(f"not a formula: {g!r}")
    return True


def fresh_variable(base: str, taken: frozenset[str] | set[str]) -> str:
    """base with the minimal number of primes appended that avoids `taken`."""
    name = base
    while name in taken:
        name += "'"
    return name


def substitute(root: Term | Formula, var: str, replacement: Term) -> Term | Formula:
    """Capture-avoiding substitution root[var := replacement], in a term or
    a formula.

    A bound variable is renamed deterministically (minimal prime count) when
    the replacement would put a free variable of that name under it: in the
    body, or in a bounded quantifier's bound, which may not mention its own
    variable.  E.g. substitute(forall y (x = y), x, y) = forall y' (y = y').
    The fresh name avoids the replacement's variables, the free variables of
    body and bound, and `var`.

    Without recursion: the walk keeps the current map from variable names to
    (replacement, its free variables), which a renamed binder extends with
    its old name for its body, and rebuilds a node, once its parts are done,
    only if one of them changed."""
    m = {var: (replacement, free_variables(replacement))}
    out: list = []  # the results of the parts done, in order
    stack: list = [root]
    push = stack.append
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is Var:
            hit = m.get(x.name)
            out.append(x if hit is None else hit[0])
        elif cls is Zero:
            out.append(x)
        elif cls is dict:
            m = x
        elif cls is tuple:
            # x's parts are done: the last len(parts) results
            x, name = x
            parts = _children(x)
            k = len(out) - len(parts)
            new = out[k:]
            del out[k:]
            cls = type(x)
            if name is None:
                out.append(x if all(map(_is, new, parts)) else DefFn(x.symbol, tuple(new)) if cls is DefFn else cls(*new))
            else:
                out.append(x if name == x.var and all(map(_is, new, parts)) else cls(name, *new))
        elif cls is ForAll or cls is BoundedForAll or cls is BoundedExists:
            v, body = x.var, x.body
            inner = m
            if v in m:
                inner = {k: hit for k, hit in m.items() if k != v}
            name = v
            if any(v in hit[1] for hit in m.values()):
                # a replacement mentions v: rename v where it would land in
                # the body or the bound
                body_fv = free_variables(body)
                bound_fv = free_variables(x.bound) if cls is not ForAll else frozenset()
                if any(v in inner[k][1] for k in body_fv & inner.keys()) or any(v in m[k][1] for k in bound_fv & m.keys()):
                    taken = set(inner).union(
                        body_fv, bound_fv, *(hit[1] for hit in inner.values()), *(m[k][1] for k in bound_fv & m.keys())
                    )
                    name = fresh_variable(v, taken)
                    inner = {**inner, v: (Var(name), frozenset((name,)))}
            push((x, name))
            push(m)
            push(body)
            push(inner)
            if cls is not ForAll:
                push(x.bound)
        else:
            parts = _children(x)
            push((x, None))
            stack += reversed(parts)
    return out[0]


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def print_term(t: Term) -> str:
    if type(t) not in _TERM_TYPES:
        raise TypeError(f"not a term: {t!r}")
    return _print(t, None)


def print_formula(f: Formula) -> str:
    if type(f) not in _FORMULA_TYPES:
        raise TypeError(f"not a formula: {f!r}")
    return _print(f, None)


def _print(root: Term | Formula, memo: dict | None) -> str:
    """Canonical text of a term or formula, built without recursion.

    The stack holds nodes still to print and literal strings, in reverse
    output order.  A `memo` maps the id of each `Eq` printed to its text, the
    same wherever it stands, as `=` never nests; a new atom's (node, start)
    marker under its parts stores the output from `start`.  Parenthesization,
    by position:
      * left of + and arguments of S, functions and =: never;
      * right of + and left of *: a Plus;
      * right of * and a quantifier bound: a Plus or a Times;
      * left of ->: an Implies.
    """
    out: list[str] = []
    emit = out.append
    stack: list = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        x = pop()
        cls = type(x)
        if cls is str:
            emit(x)
        elif cls is DefFn:
            emit(x.symbol + "(")
            push(")")
            args = x.args
            for k in range(len(args) - 1, 0, -1):
                push(args[k])
                push(", ")
            if args:
                push(args[0])
        elif cls is Succ:
            depth = 0
            while cls is Succ:
                depth += 1
                x = x.arg
                cls = type(x)
            emit("S(" * depth)
            push(")" * depth)
            push(x)
        elif cls is Var:
            emit(x.name)
        elif cls is Zero:
            emit("0")
        elif cls is Eq:
            if memo is not None:
                text = memo.get(id(x))
                if text is not None:
                    emit(text)
                    continue
                push((x, len(out)))
            push(x.right)
            push(" = ")
            push(x.left)
        elif cls is Implies:
            push(x.consequent)
            a = x.antecedent
            if type(a) is Implies:
                push(") -> ")
                push(a)
                emit("(")
            else:
                push(" -> ")
                push(a)
        elif cls is Not:
            emit("!(")
            push(")")
            push(x.body)
        elif cls is Plus:
            b = x.right
            if type(b) is Plus:
                push(")")
                push(b)
                push(" + (")
            else:
                push(b)
                push(" + ")
            push(x.left)
        elif cls is Times:
            b = x.right
            if type(b) is Plus or type(b) is Times:
                push(")")
                push(b)
                push(" * (")
            else:
                push(b)
                push(" * ")
            a = x.left
            if type(a) is Plus:
                push(")")
                push(a)
                emit("(")
            else:
                push(a)
        elif cls is ForAll:
            emit(f"forall {x.var} (")
            push(")")
            push(x.body)
        elif cls is BoundedForAll or cls is BoundedExists:
            emit(f"forall<= {x.var} " if cls is BoundedForAll else f"exists<= {x.var} ")
            push(")")
            push(x.body)
            b = x.bound
            if type(b) is Plus or type(b) is Times:
                push(") (")
                push(b)
                emit("(")
            else:
                push(" (")
                push(b)
        elif cls is tuple:
            memo[id(x[0])] = "".join(out[x[1] :])
        else:
            raise TypeError(f"not a term or formula: {x!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Size metric
# ---------------------------------------------------------------------------


def term_size(t: Term) -> int:
    if type(t) not in _TERM_TYPES:
        raise TypeError(f"not a term: {t!r}")
    return _size(t)


def formula_size(f: Formula) -> int:
    """Number of symbols in the canonical print, parentheses/commas excluded."""
    if type(f) not in _FORMULA_TYPES:
        raise TypeError(f"not a formula: {f!r}")
    return _size(f)


def _size(root: Term | Formula) -> int:
    s = root._s
    return _fill(root, "_s", _own_size_plus_parts) if s is None else s


def _own_size_plus_parts(x: Term | Formula, parts: tuple) -> int:
    cls = type(x)
    if cls is Var:
        own = 1 + x.name.count("'")
    elif cls is ForAll or cls is BoundedForAll or cls is BoundedExists:
        own = 2 + x.var.count("'")
    else:
        own = 1
    for p in parts:
        own += p._s
    return own


# ---------------------------------------------------------------------------
# Node count
# ---------------------------------------------------------------------------


def node_count(root: Term | Formula) -> int:
    """The number of nodes of a tree, a shared subtree counted at each of its
    occurrences: what `equal` compares on two equal trees.  Counted without
    recursion and cached on every node counted, so a shared tree costs one
    step per distinct node."""
    n = root._n
    return _fill(root, "_n", _one_plus_parts) if n is None else n


def _one_plus_parts(x: Term | Formula, parts: tuple) -> int:
    n = 1
    for p in parts:
        n += p._n
    return n


# ---------------------------------------------------------------------------
# Derived connectives (expanded at parse time, usable programmatically)
# ---------------------------------------------------------------------------


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Implies(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Every non-space character starts a token; the last alternative catches
# characters that start no valid token, so findall skips only whitespace.
_TOKEN_RE = re.compile(r"->|<=|[a-z][a-z0-9']*|[S0()+*=!&|,]|\S")

_IDENT = "ident"
_EOF = "eof"

# Token kind by token text: fixed tokens are their own kind, any other token
# is an identifier.  One-letter identifiers are listed so that a one-character
# token missing here is a character that starts no token.
_KINDS = {tok: tok for tok in ("->", "<=", "S", "0", "(", ")", "+", "*", "=", "!", "&", "|", ",")}
_KINDS.update({kw: kw for kw in ("forall", "exists")})
_KINDS.update({c: _IDENT for c in "abcdefghijklmnopqrstuvwxyz"})


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """Token texts and kinds, each closed by an end-of-input entry."""
    toks = _TOKEN_RE.findall(text)
    kinds = list(map(_KINDS.get, toks, repeat(_IDENT)))
    bad = [tok for tok in set(toks).difference(_KINDS) if len(tok) == 1]
    if bad:
        i = min(map(toks.index, bad))
        end = _token_span(text, i - 1)[1] if i else 0
        raise SyntaxErrorWithPos(f"unexpected character {toks[i]!r}", end)
    toks.append("")
    kinds.append(_EOF)
    return toks, kinds


def _token_span(text: str, index: int) -> tuple[int, int]:
    """Start and end offsets of token `index`; the end-of-input token sits at
    len(text).  Only error paths need offsets, so they rescan the text."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == index:
            return m.span()
    return len(text), len(text)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Deepest nesting the parser accepts.  Each parenthesis, function
# application, S(...), ! and quantifier around a token counts one level, and
# so does each binary operator but = before it in one chain: c is two levels
# deep in a -> b -> c and in a + b + c.  The fixed-point certificates of
# corpus.diagonal_shapes nest at most 1,318 levels (x + x = x * x); about
# three times that leaves room for them.  No walk recurses, so the cap does
# not guard the stack: it keeps what one hostile line can ask of the walks
# that are quadratic in its depth, such as the derivation builder's lift, to
# a clean usage error.
MAX_NESTING = 4_000

# Arity of every definitional function symbol the parser accepts.  The
# standard registry in `goedel` gives each one its meaning and its token id.
DEFFN_ARITIES: dict[str, int] = {
    "sub": 2,
    "diag": 1,
    "len": 1,
    "le": 2,
    "bnd": 1,
    "dbl": 1,
    "dbl1": 1,
    "pair": 2,
    "fst": 1,
    "snd": 1,
    "prft": 2,
    "prft1": 2,
    "prft2": 2,
    "prft3": 2,
    "prft4": 2,
}


class _ParseError(Exception):
    """A parse failure at a token index; the character offset is computed
    only when it leaves the parser as a SyntaxErrorWithPos."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


def _too_deep(index: int) -> _ParseError:
    return _ParseError(f"nesting deeper than {MAX_NESTING} levels", index)


def _found(toks: list[str], what: str, index: int) -> _ParseError:
    return _ParseError(f"expected {what}, found {toks[index] or 'end of input'!r}", index)


# Binding power of each binary operator, by the sort it takes on its left.
# An operator applies to the value before it when that value fills a slot
# of lower power, and its right operand is a slot of its own power, or of
# power 0 after ->, which nests to the right.
_FORMULA_OPS = {"->": 1, "|": 2, "&": 3}
_TERM_OPS = {"=": 5, "+": 6, "*": 7}
_UNARY = 4  # the operand of ! and of a quantifier
_TERM = 5  # a slot that holds only a term, so = does not apply there
_FACTOR = 8  # a bounded quantifier's bound, where no operator applies
_BINARY = {"->": Implies, "=": Eq, "+": Plus, "*": Times, "&": None, "|": None}

# The parser's stack holds one frame per open slot, a list [kind, power,
# ...]; a slot of power below _TERM holds a formula or an atom's left side.
#   ["root", 0 or _TERM]: the whole text;
#   ["(", 0 or _TERM]: a group up to its ")", 0 where a formula may stand;
#   ["!", _UNARY], ["all", _UNARY, v], ["ex", _UNARY, v]: a body, and for a
#     bounded quantifier ["bound", _FACTOR, v, ctor], then ["body",
#     _UNARY, v, ctor, bound];
#   [op, power, left, depth before op]: a binary operator's right operand;
#   ["args", _TERM, h, arguments so far]: the next argument of the
#     application at token h;
#   ["heads", _TERM, h, first]: the argument of the innermost open head of a
#     run of one-argument heads from token `first` to token h.
# A value read is handed to the frame on top: an operator that applies to
# it opens a frame, else the frame takes it as its operand and closes,
# handing its own value on, or waits for more input.


def _parse(text: str, deffn_arities: dict[str, int] | None, formula: bool, atoms: dict | None = None) -> Term | Formula:
    """The formula or term `text` spells, read by precedence climbing
    without recursion, each token once: a "(" where a formula may stand is a
    group that holds whichever it reads.  Nesting is counted, and errors are
    raised at the token they name, as a recursive descent over the grammar
    would.  With `atoms` a formula is read as its _skeleton where it has one, and token
    by token if that is refused, so that errors are a plain reading's."""
    arities = DEFFN_ARITIES if deffn_arities is None else deffn_arities
    skeleton = atoms is not None and _skeleton(text, arities, atoms)
    toks, kinds = skeleton or _tokenize(text)
    i = depth = 0
    top = ["root", 0 if formula else _TERM]
    stack = [top]
    push = stack.append
    pop = stack.pop
    try:
        while True:
            # where a formula may stand, the "!", quantifiers and "(" before
            # an operand, each one level deeper
            while top[1] < _TERM:
                k = kinds[i]
                if k != "!" and k != "(" and k != "forall" and k != "exists":
                    break
                depth += 1
                if depth > MAX_NESTING:
                    raise _too_deep(i)
                i += 1
                if k == "!" or k == "(":
                    top = [k, _UNARY if k == "!" else 0]
                else:
                    bounded = kinds[i] == "<="
                    i += bounded
                    if kinds[i] != _IDENT:
                        raise _found(toks, "a variable", i)
                    v = toks[i]
                    i += 1
                    ctor = BoundedForAll if k == "forall" else BoundedExists
                    name = toks[i]
                    if not bounded:
                        top = ["all" if k == "forall" else "ex", _UNARY, v]
                    elif kinds[i] == _IDENT and name not in arities:
                        # the bound comes right before the body, so a bare
                        # identifier before "(" is a variable, unless it
                        # names a function symbol
                        i += 1
                        if name == v:
                            raise _ParseError(f"bound of {ctor.__name__} mentions its own variable {v!r}", i)
                        top = ["body", _UNARY, v, ctor, Var(name)]
                    else:
                        top = ["bound", _FACTOR, v, ctor]
                push(top)

            # a factor, opening the parentheses and applications before it
            while True:
                k = kinds[i]
                if k == _ATOM:
                    v = atoms[toks[i]][1]
                    i += 1
                    break
                if k == "0":
                    i += 1
                    v = ZERO
                    break
                if k == _IDENT and kinds[i + 1] != "(":
                    name = toks[i]
                    if name in arities:
                        raise _ParseError(f"{name!r} is a function symbol, not a variable", i)
                    i += 1
                    v = Var(name)
                    break
                if (k == "S" or k == _IDENT and arities.get(toks[i]) == 1) and kinds[i + 1] == "(":
                    first = i
                    while (k == "S" or k == _IDENT and arities.get(toks[i]) == 1) and kinds[i + 1] == "(":
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                        i += 2
                        k = kinds[i]
                    top = ["heads", _TERM, i - 2, first]
                else:
                    if k != "S" and k != _IDENT and k != "(":
                        raise _found(toks, "a term", i)
                    depth += 1
                    if depth > MAX_NESTING:
                        raise _too_deep(i)
                    if k == "S":
                        raise _ParseError("expected '('", i + 1)
                    if k == "(":
                        top = ["(", _TERM]
                        i += 1
                    else:
                        top = ["args", _TERM, i, []]
                        i += 2
                push(top)
            is_formula = k == _ATOM

            # hand the value up until a frame waits for more input
            while True:
                k = kinds[i]
                p = (_FORMULA_OPS if is_formula else _TERM_OPS).get(k)
                if p is not None and p > top[1]:
                    top = [k, 0 if k == "->" else p, v, depth]
                    push(top)
                    if k != "=":
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                    i += 1
                    break
                kind = top[0]
                if top[1] < _TERM and not is_formula and (kind != "(" or k != ")"):
                    # a term where a formula may stand is an atom's left
                    # side, unless the ")" of its group follows
                    raise _found(toks, "'='", i)
                if kind == "heads":
                    h = top[2]
                    if k != ")":
                        # more arguments of a one-argument symbol: read,
                        # then refused by their count
                        if kinds[h] == "S" or k != ",":
                            raise _ParseError("expected ')'", i)
                        if h == top[3]:
                            pop()
                        else:
                            top[2] = h - 2
                        top = ["args", _TERM, h, [v]]
                        push(top)
                        i += 1
                        break
                    # close the run's heads from the inside out, up to one
                    # that other than ")" follows
                    while True:
                        i += 1
                        depth -= 1
                        v = Succ(v) if kinds[h] == "S" else DefFn(toks[h], (v,))
                        if h == top[3] or kinds[i] != ")":
                            break
                        h -= 2
                    if h != top[3]:
                        top[2] = h - 2
                        continue
                elif kind in _BINARY:
                    a = top[2]
                    if kind == "&":
                        v = Not(Implies(a, Not(v)))
                    elif kind == "|":
                        v = Implies(Not(a), v)
                    else:
                        v = _BINARY[kind](a, v)
                    if k == kind and kind != "=":
                        # a chain of one operator keeps its frame, and the
                        # depth from before its first operator
                        top[2] = v
                        depth += 1
                        if depth > MAX_NESTING:
                            raise _too_deep(i)
                        i += 1
                        break
                    depth = top[3]
                    is_formula = is_formula or kind == "="
                elif top[1] == _UNARY:
                    depth -= 1
                    if kind == "!":
                        v = Not(v)
                    elif kind == "all":
                        v = ForAll(top[2], v)
                    elif kind == "body":
                        v = top[3](top[2], top[4], v)
                    else:
                        v = Not(ForAll(top[2], Not(v)))
                elif kind == "(":
                    if k != ")":
                        raise _ParseError("expected ')'", i)
                    i += 1
                    depth -= 1
                elif kind == "args":
                    args = top[3]
                    args.append(v)
                    if k == ",":
                        i += 1
                        break
                    if k != ")":
                        raise _ParseError("expected ')'", i)
                    i += 1
                    depth -= 1
                    name = toks[top[2]]
                    if name not in arities:
                        raise _ParseError(f"unknown function symbol {name!r}", top[2])
                    if arities[name] != len(args):
                        raise _ParseError(f"{name!r} expects {arities[name]} arguments, got {len(args)}", top[2])
                    v = DefFn(name, args)
                elif kind == "bound":
                    if top[2] in free_variables(v):
                        raise _ParseError(f"bound of {top[3].__name__} mentions its own variable {top[2]!r}", i)
                    stack[-1] = top = ["body", _UNARY, top[2], top[3], v]
                    break
                else:
                    if k != _EOF:
                        raise _ParseError(f"trailing input {toks[i]!r}", i)
                    return v
                pop()
                top = stack[-1]
    except _ParseError as e:
        if skeleton:
            return _parse(text, deffn_arities, formula)
        raise SyntaxErrorWithPos(e.message, _token_span(text, e.index)[0]) from None


_ATOM = "atom"
_CONNECTIVE_RE = re.compile(r"([-!&|]>?)")  # a class first splits fastest
_CONNECTIVES = frozenset(("->", "!", "&", "|"))
_NESTING = ("(", "!", "->", "+", "*", "&", "|")  # each opens at most one level


def _skeleton(text: str, arities: dict[str, int], atoms: dict) -> tuple[list[str], list[str]] | None:
    """The tokens and kinds of formula `text` read as its skeleton, the
    connectives and formula parentheses around its atoms, each atom one
    token of kind _ATOM; None for a text with a quantifier, with more
    nesting tokens than MAX_NESTING (so no atom first parsed shallow passes
    the cap deeper) or not split so.  `atoms` maps the text of each segment
    between connectives that holds an atom, the atom's own text among them,
    to its tokens and the atom's node, so each is parsed once."""
    if "forall" in text or "exists" in text or sum(map(text.count, _NESTING)) > MAX_NESTING:
        return None
    toks: list[str] = []
    for n, seg in enumerate(_CONNECTIVE_RE.split(text)):
        if n % 2:
            if seg not in _CONNECTIVES:
                return None
            toks.append(seg)
            continue
        got = atoms.get(seg)
        if got is not None:
            toks += got[0]
            continue
        left, eq, right = seg.partition("=")
        if not eq:
            # formula parentheses alone
            if seg.strip(" ()"):
                return None
            toks += seg.replace(" ", "")
            continue
        # the leading "(" its left side leaves open are the formula's, as
        # are the trailing ")" its right side does not open
        core = left.lstrip(" (")
        lead = left.count("(", 0, len(left) - len(core))
        opens = left.count("(") - left.count(")")
        tail = right.rstrip(" )")
        trail = right.count(")", len(tail))
        closes = right.count(")") - right.count("(")
        if not (0 <= opens <= lead and 0 <= closes <= trail):
            return None
        atom = "(" * (lead - opens) + core + "=" + tail + ")" * (trail - closes)
        if atom not in atoms:
            try:
                atoms[atom] = (atom,), _parse(atom, arities, True)
            except SyntaxErrorWithPos:
                return None
        got = atoms[seg] = ("(",) * opens + (atom,) + (")",) * closes, atoms[atom][1]
        toks += got[0]
    return toks + [""], [*map(_KINDS.get, toks, repeat(_ATOM)), _EOF]


def parse_formula(text: str, deffn_arities: dict[str, int] | None = None) -> Formula:
    """Parse a formula; raises SyntaxErrorWithPos with an offset on bad input.
    Function symbols and their arities come from `deffn_arities`, by default
    DEFFN_ARITIES."""
    return _parse(text, deffn_arities, True)


def parse_term(text: str, deffn_arities: dict[str, int] | None = None) -> Term:
    return _parse(text, deffn_arities, False)


# ---------------------------------------------------------------------------
# Structural iteration helper (used by matchers and generators)
# ---------------------------------------------------------------------------


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm occurrence of t in preorder, left to right."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        stack += reversed(_children(cur))
