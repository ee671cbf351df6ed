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
then atoms.  In terms, * binds tighter than +; both are left associative.

Every node caches three values of its tree on itself, each computed on
first use without recursion: `node_count` (`_n`), hash (`_h`) and size
(`_s`).  `hash(node)` is the hash of the node's fields salted by its
class, so that `+`, `*` and `=` over the same children hash apart; no
output depends on the order of a set of nodes.
Equality is `equal`, one walk without recursion that can also count the
nodes it compares; every node's `==` calls it.

Equal subtrees within one proof text or Builder are one object: the
parser and `share_tree` key every node through a share table, which
`calculus.parse_proof_text` keeps for a whole text and a
`derivations.Builder` for its whole proof.  A numeral repeated from line
to line is then built once, and comparing it with itself is an identity
test (`equal` charges its cached `node_count`).  A table dies
with its parse or Builder; none is module-wide, so the lru-cached pools of
`bounded` are never interned.  Nodes still compare by value, so nothing may
rely on two equal nodes being distinct objects, nor on them being one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import is_ as _is
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    arg: "Term"


@dataclass(frozen=True)
class Plus:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Times:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class DefFn:
    """Application of a registered definitional function symbol."""

    symbol: str
    args: tuple["Term", ...]


Term = Union[Var, Zero, Succ, Plus, Times, DefFn]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class BoundedForAll:
    """forall<= var bound body — var ranges over 0..bound inclusive.

    The bound is evaluated in the enclosing scope: occurrences of `var`
    inside `bound` are rejected by the parser and by well-formedness checks.
    """

    var: str
    bound: Term
    body: "Formula"


@dataclass(frozen=True)
class BoundedExists:
    var: str
    bound: Term
    body: "Formula"


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
    if h is None:
        # a node built on hashed children (a generalization over a search
        # line, say) hashes its fields at once; any other walks its tree
        for part in _children(node):
            if part._h is None:
                return _fill(node, "_h", _field_hash)
        h = node._dataclass_hash() ^ node._salt
        object.__setattr__(node, "_h", h)
    return h


def _field_hash(x: Term | Formula, parts: tuple) -> int:
    # the generated hash of x's fields (its children's are cached), salted
    return x._dataclass_hash() ^ x._salt


def _eq(self: Term | Formula, other: object) -> bool:
    # as the generated __eq__: a node of another class is not compared here
    if type(other) is not type(self):
        return NotImplemented
    return equal(self, other)


for _cls in _TERM_TYPES | _FORMULA_TYPES:
    _cls._n = _cls._h = _cls._s = None
    _cls._dataclass_hash = _cls.__hash__
    _cls._salt = hash(_cls.__name__)  # so that classes over equal fields hash apart
    _cls.__hash__ = _hash
    _cls.__eq__ = _eq


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
    """Whether two terms or formulas are equal: one walk of both trees in
    right-first preorder (the consequent before the antecedent, the right
    operand of + and * before the left, function arguments last to first,
    the left side of = before the right, a bounded quantifier's bound before
    its body), without recursion, up to the first mismatch.

    `cost`, when given, gets the number of node pairs compared, the mismatch
    included, added to its `symbol_comparisons`; a pair of one object is
    equal without a walk and counts its `node_count`.  Without `cost` nothing
    is counted, so no subtree is walked to count it."""
    if a is b:
        if cost is not None:
            cost.symbol_comparisons += node_count(a)
        return True
    if type(a) is not type(b):
        # most comparisons of the proof search stop here
        if cost is not None:
            cost.symbol_comparisons += 1
        return False
    # a node's first child in visit order is compared next, its others
    # wait on the stack in pairs
    n = 0
    same = False
    stack: list = []
    pop = stack.pop
    x, y = a, b
    while True:
        if x is y:
            if cost is not None:
                # the count cached on x, or node_count's, which caches it
                n += x._n or node_count(x)
        else:
            n += 1
            cls = type(x)
            if cls is not type(y):
                break
            if cls is Plus or cls is Times:
                if x.right is y.right:
                    # left-folded chains that share their right operands
                    # step straight to the left ones
                    if cost is not None:
                        n += x.right._n or node_count(x.right)
                    x, y = x.left, y.left
                else:
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
            same = True
            break
        y = pop()
        x = pop()
    if cost is not None:
        cost.symbol_comparisons += n
    return same


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
    return frozenset(_free_occurrences(root))


def is_sentence(f: Term | Formula) -> bool:
    """Whether f has no free variable; the walk stops at the first one."""
    for _ in _free_occurrences(f):
        return False
    return True


def _free_occurrences(root: Term | Formula) -> Iterator[str]:
    """The name at each free occurrence of a variable in a term or formula,
    found without recursion.  Below a quantifier's body the stack holds the
    set of variables bound outside it, which is restored when the body is
    done; a bounded quantifier's bound is visited before its variable is
    bound."""
    bound: frozenset[str] = frozenset()
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
                        yield x.name
                elif cls is frozenset:
                    bound = x
                elif cls is not Zero:
                    raise TypeError(f"not a term or formula: {x!r}")
                break


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


def substitute_term(t: Term, var: str, replacement: Term) -> Term:
    match t:
        case Var(name):
            return replacement if name == var else t
        case Zero():
            return t
        case Succ(arg):
            return Succ(substitute_term(arg, var, replacement))
        case Plus(a, b):
            return Plus(substitute_term(a, var, replacement), substitute_term(b, var, replacement))
        case Times(a, b):
            return Times(substitute_term(a, var, replacement), substitute_term(b, var, replacement))
        case DefFn(sym, args):
            return DefFn(sym, tuple(substitute_term(a, var, replacement) for a in args))
    raise TypeError(f"not a term: {t!r}")


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution f[var := replacement].

    Bound variables that would capture a free variable of the replacement
    are renamed deterministically (minimal prime count), e.g.
    substitute(forall y (x = y), x, y) = forall y' (y = y').
    """
    return _subst(f, var, replacement, free_variables(replacement))


def _subst(f: Formula, var: str, rep: Term, rep_vars: frozenset[str]) -> Formula:
    match f:
        case Eq(a, b):
            return Eq(substitute_term(a, var, rep), substitute_term(b, var, rep))
        case Not(body):
            return Not(_subst(body, var, rep, rep_vars))
        case Implies(a, b):
            return Implies(_subst(a, var, rep, rep_vars), _subst(b, var, rep, rep_vars))
        case ForAll(v, body):
            if v == var:
                return f
            if v in rep_vars and var in free_variables(body):
                v2 = fresh_variable(v, rep_vars | free_variables(body) | {var})
                body = _subst(body, v, Var(v2), frozenset((v2,)))
                return ForAll(v2, _subst(body, var, rep, rep_vars))
            return ForAll(v, _subst(body, var, rep, rep_vars))
        case BoundedForAll(v, bound, body) | BoundedExists(v, bound, body):
            ctor = BoundedForAll if isinstance(f, BoundedForAll) else BoundedExists
            new_bound = substitute_term(bound, var, rep)
            if v == var:
                return ctor(v, new_bound, body)
            if v in rep_vars and var in free_variables(body):
                v2 = fresh_variable(v, rep_vars | free_variables(body) | {var})
                body = _subst(body, v, Var(v2), frozenset((v2,)))
                return ctor(v2, new_bound, _subst(body, var, rep, rep_vars))
            return ctor(v, new_bound, _subst(body, var, rep, rep_vars))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def print_term(t: Term) -> str:
    if type(t) not in _TERM_TYPES:
        raise TypeError(f"not a term: {t!r}")
    return _print(t)


def print_formula(f: Formula) -> str:
    if type(f) not in _FORMULA_TYPES:
        raise TypeError(f"not a formula: {f!r}")
    return _print(f)


def _print(root: Term | Formula) -> str:
    """Canonical text of a term or formula, built without recursion.

    The stack holds nodes still to print and literal strings, in reverse
    output order.  Parenthesization, by position:
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
# Shared nodes
# ---------------------------------------------------------------------------

# A share table makes equal subtrees one object.  It is a dict that maps
#   * a variable's name to the table's Var of that name;
#   * (constructor, payload, ids of the children) to the node built from
#     them, where a function application's constructor is its symbol and a
#     quantifier's payload is its variable; Zero is always ZERO;
#   * the id of a node to the node, for the nodes share_tree has handed
#     out, and the id of a root share_tree was given to the table's node
#     equal to it, with (id,) of that root to the root, which keeps it alive.
# Every id among its keys belongs to a node the table keeps alive (or to
# ZERO), so no id is reused while the table lives.  The parser and
# share_tree key nodes alike, and a table serves one proof text or one
# derivation: no table is module-wide.


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


def share_tree(root: Term | Formula, table: dict) -> Term | Formula:
    """The table's node equal to `root`, entering the subtrees it lacks.  A
    node whose children are the table's enters as it is; any other is
    rebuilt on the table's children.  The table remembers the id of every
    node it hands out and of `root`, so sharing a subtree already shared, or
    a tree handed in before, is one lookup.  Walks without recursion: a node
    stays on the stack until its children are the table's, and one met
    twice is looked up in the table the second time."""
    get = table.get
    got = get(id(root))
    if got is not None:
        return got
    memo: dict[int, Term | Formula] = {}  # id of a node of this walk the table lacks -> the table's node
    mget = memo.get
    stack = [root]
    push = stack.append
    while stack:
        x = stack[-1]
        cls = type(x)
        if cls is Succ or cls is Not:
            a = x.arg if cls is Succ else x.body
            ia = id(a)
            ca = get(ia) or mget(ia)
            if ca is None:
                push(a)
                continue
            key = (cls, id(ca))
            got = get(key)
            if got is None:
                got = x if ca is a else cls(ca)
                table[key] = table[id(got)] = got
        elif cls is Plus or cls is Times or cls is Eq or cls is Implies:
            a, b = (x.antecedent, x.consequent) if cls is Implies else (x.left, x.right)
            ia, ib = id(a), id(b)
            ca = get(ia) or mget(ia)
            cb = get(ib) or mget(ib)
            if ca is None or cb is None:
                if ca is None:
                    push(a)
                if cb is None:
                    push(b)
                continue
            key = (cls, id(ca), id(cb))
            got = get(key)
            if got is None:
                got = x if ca is a and cb is b else cls(ca, cb)
                table[key] = table[id(got)] = got
        elif cls is Var:
            got = get(x.name)
            if got is None:
                got = table[x.name] = x
        elif cls is Zero:
            got = ZERO
        else:
            parts = _children(x)
            shared = [get(id(p)) or mget(id(p)) for p in parts]
            todo = [p for p, q in zip(parts, shared) if q is None]
            if todo:
                stack += todo
                continue
            ids = map(id, shared)
            key = (x.symbol, *ids) if cls is DefFn else (cls, x.var, *ids)
            got = get(key)
            if got is None:
                if all(map(_is, shared, parts)):
                    got = x
                elif cls is DefFn:
                    got = DefFn(x.symbol, tuple(shared))
                else:
                    got = cls(x.var, *shared)
                table[key] = table[id(got)] = got
        stack.pop()
        if got is x:
            table[id(x)] = x
        else:
            memo[id(x)] = got
    got = get(id(root)) or memo[id(root)]
    if got is not root:
        table[id(root)] = got
        table[(id(root),)] = root
    return got


# ---------------------------------------------------------------------------
# Derived connectives (expanded at parse time, usable programmatically)
# ---------------------------------------------------------------------------


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Implies(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))


def exists(var: str, body: Formula) -> Formula:
    return Not(ForAll(var, Not(body)))


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
# Parser (recursive descent)
# ---------------------------------------------------------------------------

# Deepest nesting the parser accepts.  Each parenthesis, function
# application, S(...), !, quantifier and binary operator around a token
# counts one level.  The fixed-point certificates of corpus.diagonal_shapes
# nest at most 1,318 levels (x + x = x * x); about three times that leaves
# room for them while input nested at the cap still checks without running
# the walks that still recurse, such as substitution and term evaluation, out
# of stack; equality, hashing, sizes and free variables do not recurse.
MAX_NESTING = 4_000

# Input nested MAX_NESTING deep, and the deeper formulas that decoding large
# Goedel codes and the derivation builder produce, recurse past CPython's
# default limit in the tree walks over the AST.  Raised once, here, for the
# whole process; never lowered.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

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


class _Parser:
    """Recursive descent over one text, reading each token once: a "(" where
    an atom can start is read by `group`, which learns from what it reads
    whether the group holds a formula or a term.  Every node it builds other
    than ZERO is looked up first in the share table `share` (see
    share_tree), so equal subtrees are one object: within the text, and
    across every text parsed with the same table."""

    __slots__ = ("text", "toks", "kinds", "i", "depth", "arities", "share")

    def __init__(self, text: str, deffn_arities: dict[str, int] | None, share: dict | None):
        self.text = text
        self.toks, self.kinds = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.arities = DEFFN_ARITIES if deffn_arities is None else deffn_arities
        self.share: dict = {} if share is None else share

    def parse(self, rule) -> Term | Formula:
        """Run `rule` over the whole input."""
        try:
            result = rule()
            i = self.i
            if self.kinds[i] != _EOF:
                raise _ParseError(f"trailing input {self.toks[i]!r}", i)
        except _ParseError as e:
            raise SyntaxErrorWithPos(e.message, _token_span(self.text, e.index)[0]) from None
        return result

    def found(self, what: str, index: int) -> _ParseError:
        return _ParseError(f"expected {what}, found {self.toks[index] or 'end of input'!r}", index)

    def nest(self, index: int) -> None:
        """Enter one nesting level at token `index`."""
        depth = self.depth + 1
        if depth > MAX_NESTING:
            raise _too_deep(index)
        self.depth = depth

    def close(self) -> None:
        """Read the ")" that closes the innermost level."""
        i = self.i
        if self.kinds[i] != ")":
            raise _ParseError("expected ')'", i)
        self.i = i + 1
        self.depth -= 1

    def variable(self) -> str:
        i = self.i
        if self.kinds[i] != _IDENT:
            raise self.found("a variable", i)
        self.i = i + 1
        return self.toks[i]

    # -- formulas, loosest first; formula, disjunct and conjunct take as `a`
    # a first operand that group has already read

    def formula(self, a: Formula | None = None) -> Formula:
        a = self.disjunct(a)
        if self.kinds[self.i] == "->":
            self.nest(self.i)
            self.i += 1
            b = self.formula()
            self.depth -= 1
            key = (Implies, id(a), id(b))
            return self.share.get(key) or self.share.setdefault(key, Implies(a, b))
        return a

    def disjunct(self, a: Formula | None = None) -> Formula:
        a = self.conjunct(a)
        if self.kinds[self.i] == "|":
            depth = self.depth
            while self.kinds[self.i] == "|":
                self.nest(self.i)
                self.i += 1
                b = self.conjunct()
                a = self.shared(Implies, self.shared(Not, a), b)
            self.depth = depth
        return a

    def conjunct(self, a: Formula | None = None) -> Formula:
        if a is None:
            a = self.unary()
        if self.kinds[self.i] == "&":
            depth = self.depth
            while self.kinds[self.i] == "&":
                self.nest(self.i)
                self.i += 1
                b = self.unary()
                a = self.shared(Not, self.shared(Implies, a, self.shared(Not, b)))
            self.depth = depth
        return a

    def shared(self, ctor, *parts) -> Formula:
        """The table's node for `ctor(*parts)`, for the abbreviations; the
        grammar's own construction sites inline the same lookup."""
        key = (ctor, *[p if type(p) is str else id(p) for p in parts])
        return self.share.get(key) or self.share.setdefault(key, ctor(*parts))

    def unary(self) -> Formula:
        i = self.i
        k = self.kinds[i]
        if k == "!":
            self.nest(i)
            self.i = i + 1
            body = self.unary()
            key = (Not, id(body))
            f: Formula = self.share.get(key) or self.share.setdefault(key, Not(body))
        elif k == "forall" or k == "exists":
            self.nest(i)
            if self.kinds[i + 1] == "<=":
                self.i = i + 2
                f = self.bounded(BoundedForAll if k == "forall" else BoundedExists)
            else:
                self.i = i + 1
                v = self.variable()
                body = self.unary()
                if k == "forall":
                    key = (ForAll, v, id(body))
                    f = self.share.get(key) or self.share.setdefault(key, ForAll(v, body))
                else:
                    f = self.shared(Not, self.shared(ForAll, v, self.shared(Not, body)))
        else:
            return self.atom_or_group()
        self.depth -= 1
        return f

    def bounded(self, ctor) -> Formula:
        v = self.variable()
        bound = self.bound_term()
        if v in free_variables(bound):
            raise _ParseError(f"bound of {ctor.__name__} mentions its own variable {v!r}", self.i)
        body = self.unary()
        key = (ctor, v, id(bound), id(body))
        return self.share.get(key) or self.share.setdefault(key, ctor(v, bound, body))

    def atom_or_group(self) -> Formula:
        """An atom or a parenthesized formula.  A "(" here is read by group;
        a term it returns is the first factor of the atom's left side."""
        if self.kinds[self.i] != "(":
            return self.atom(self.term())
        g = self.group()
        return g if type(g) in _FORMULA_TYPES else self.atom(self.term_rest(g))

    def group(self) -> Term | Formula:
        """The group opened by a "(" where an atom can start, up to its ")".
        It holds a formula if "!" or a quantifier comes first.  Otherwise
        its first factor (a "(" read by group again) and that factor's term
        are read: a term closed by ")" is returned, any other term is an
        atom's left side.  A formula read so far is the first operand of the
        formula the group holds."""
        i = self.i
        self.nest(i)
        self.i = i + 1
        k = self.kinds[i + 1]
        if k == "!" or k == "forall" or k == "exists":
            f = self.formula()
        else:
            a = self.group() if k == "(" else self.term_primary()
            if type(a) in _FORMULA_TYPES:
                f = self.formula(a)
            else:
                a = self.term_rest(a)
                f = a if self.kinds[self.i] == ")" else self.formula(self.atom(a))
        self.close()
        return f

    def atom(self, left: Term) -> Formula:
        """The atom whose left side `left` has been read."""
        i = self.i
        if self.kinds[i] != "=":
            raise self.found("'='", i)
        self.i = i + 1
        right = self.term()
        key = (Eq, id(left), id(right))
        return self.share.get(key) or self.share.setdefault(key, Eq(left, right))

    # -- terms

    def term(self) -> Term:
        return self.term_rest(self.term_primary())

    def term_rest(self, a: Term) -> Term:
        """The term whose first factor is `a`, already read: the rest of its
        product, then any "+" operands."""
        kinds = self.kinds
        share = self.share
        if kinds[self.i] == "*":
            a = self.product_rest(a)
        if kinds[self.i] == "+":
            depth = self.depth
            while kinds[self.i] == "+":
                self.nest(self.i)
                self.i += 1
                b = self.term_primary()
                if kinds[self.i] == "*":
                    b = self.product_rest(b)
                key = (Plus, id(a), id(b))
                a = share.get(key) or share.setdefault(key, Plus(a, b))
            self.depth = depth
        return a

    def product_rest(self, a: Term) -> Term:
        """The product whose first factor is `a`, already read."""
        kinds = self.kinds
        share = self.share
        depth = self.depth
        while kinds[self.i] == "*":
            self.nest(self.i)
            self.i += 1
            b = self.term_primary()
            key = (Times, id(a), id(b))
            a = share.get(key) or share.setdefault(key, Times(a, b))
        self.depth = depth
        return a

    def bound_term(self) -> Term:
        # A quantifier bound is immediately followed by the body, so a bare
        # identifier before "(" is the bound variable's limit, not a function
        # application — unless the name is a registered function symbol.
        i = self.i
        name = self.toks[i]
        if self.kinds[i] == _IDENT and name not in self.arities:
            self.i = i + 1
            return self.share.get(name) or self.share.setdefault(name, Var(name))
        return self.term_primary()

    def term_primary(self) -> Term:
        """A factor: 0 and variables here, runs of one-argument heads in
        head_run, anything else in factor."""
        i = self.i
        kinds = self.kinds
        k = kinds[i]
        if k == "0":
            self.i = i + 1
            return ZERO
        if k == _IDENT and kinds[i + 1] != "(":
            name = self.toks[i]
            if name in self.arities:
                raise _ParseError(f"{name!r} is a function symbol, not a variable", i)
            self.i = i + 1
            return self.share.get(name) or self.share.setdefault(name, Var(name))
        if (k == "S" or k == _IDENT and self.arities.get(self.toks[i]) == 1) and kinds[i + 1] == "(":
            return self.head_run()
        return self.factor()

    def head_run(self) -> Term:
        """A run of one-argument heads, S( and f( for an f of arity 1, read
        in a loop: enter every level, read the innermost factor, then close
        the levels from the inside out, finishing each level's argument term
        where an operator follows it.  Nesting is counted and errors are
        raised as if each level were read by its own call."""
        kinds = self.kinds
        toks = self.toks
        arities = self.arities
        share = self.share
        i = first = self.i
        depth = self.depth
        k = kinds[i]
        while (k == "S" or k == _IDENT and arities.get(toks[i]) == 1) and kinds[i + 1] == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise _too_deep(i)
            i += 2
            k = kinds[i]
        heads = range(i - 2, first - 1, -2)  # token index of each head, innermost first
        self.i = i
        self.depth = depth
        t = self.term_primary()
        i = self.i
        # i and depth are kept in locals here, and handed over around calls
        for h in heads:
            k = kinds[i]
            if k == "*" or k == "+":
                self.i = i
                self.depth = depth
                t = self.term_rest(t)
                i = self.i
                k = kinds[i]
            if k != ")":
                if kinds[h] == "S":
                    raise _ParseError("expected ')'", i)
                self.i = i
                self.depth = depth
                t = self.arguments(h, t)
                i = self.i
                depth = self.depth
                continue
            i += 1
            depth -= 1
            if kinds[h] == "S":
                key = (Succ, id(t))
                t = share.get(key) or share.setdefault(key, Succ(t))
            else:
                key = (toks[h], id(t))
                t = share.get(key) or share.setdefault(key, DefFn(toks[h], (t,)))
        self.i = i
        self.depth = depth
        return t

    def factor(self) -> Term:
        """A factor other than 0, a variable or a run of one-argument heads:
        a parenthesized term, an application of another arity, or an error."""
        i = self.i
        k = self.kinds[i]
        if k == "S":
            self.nest(i)
            raise _ParseError("expected '('", i + 1)
        if k == _IDENT:
            self.nest(i)
            self.i = i + 2
            return self.arguments(i, self.term())
        if k != "(":
            raise self.found("a term", i)
        self.nest(i)
        self.i = i + 1
        t = self.term()
        self.close()
        return t

    def arguments(self, i: int, first: Term) -> Term:
        """The application whose head is token i and whose first argument
        has been read: the remaining arguments, the ")" and the checks of
        the symbol and its arity, in that order."""
        args = [first]
        while self.kinds[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.close()
        name = self.toks[i]
        arities = self.arities
        if name not in arities:
            raise _ParseError(f"unknown function symbol {name!r}", i)
        if arities[name] != len(args):
            raise _ParseError(f"{name!r} expects {arities[name]} arguments, got {len(args)}", i)
        key = (name, *map(id, args))
        return self.share.get(key) or self.share.setdefault(key, DefFn(name, tuple(args)))


def parse_formula(text: str, deffn_arities: dict[str, int] | None = None, share: dict | None = None) -> Formula:
    """Parse a formula; raises SyntaxErrorWithPos with an offset on bad input.
    Function symbols and their arities come from `deffn_arities`, by default
    DEFFN_ARITIES.  Nodes are shared through the share table `share`, by
    default one for this text alone."""
    p = _Parser(text, deffn_arities, share)
    return p.parse(p.formula)


def parse_term(text: str, deffn_arities: dict[str, int] | None = None, share: dict | None = None) -> Term:
    p = _Parser(text, deffn_arities, share)
    return p.parse(p.term)


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
