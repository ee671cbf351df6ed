"""Propositional layer: tautologies, resolution, translations, proof length.

Formulas are variable-indexed (PVar(0), PVar(1), ...) with constants, so a
formula over n variables uses indices dense in [0, n).  The binary
connectives are one table, `_CONNECTIVES`, of their texts, binding powers
and constructors: parse_prop reads it in one binding-power loop, and
print_prop writes each connective's text from it.  The brute-force
tautology oracle, the SAT oracle and the truth-table proof system share one
bit-parallel sweep of the truth table (at most 24 variables): each chunk of
2**18 rows is a Python integer per variable, bit j holding the variable's
value in the chunk's row j, and a formula evaluates to one integer mask per
chunk.

Clauses are frozensets of DIMACS-style literals: variable i appears as i+1
positively and -(i+1) negatively.  Resolution proofs are step lists:

    Input(k)              cite clause k of the clause set under refutation
    Resolve(i, j, v)      resolve derived clauses i and j on pivot variable v
                          (v positive in i, negative in j)

Indices count derived clauses from 0 in order, one per step.  A refutation
must end with the empty clause.  The line-oriented text format uses 1-based
DIMACS variable numbers:

    i <idx>
    r <i> <j> <pivot>

Tautology proofs refute the Tseitin clausification of the negated formula.
The Delta0 translation maps an arithmetic formula with one free variable x
to a propositional formula over selector variables x_0..x_n guarded by an
exactly-one constraint; bounded quantifiers expand to finite conjunctions
and disjunctions, and ground atoms collapse to constants.  Constants are
folded as each node is built (`_not`, `_and`, `_or`, `_imp`), so no subtree
is walked twice; the selector variables, their disjunctions and the guard of
each n are built once and shared between results, which is safe because
nodes are immutable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, Union

from .bench import loglog_slope
from .calculus import TheorySpec, eval_term_in
from .syntax import (
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
    Term,
    Times,
    Var,
    Zero,
    free_variables,
    is_delta0,
)

# ---------------------------------------------------------------------------
# propositional formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PVar:
    index: int


@dataclass(frozen=True)
class PConst:
    value: bool


@dataclass(frozen=True)
class PNot:
    body: "PropFormula"


@dataclass(frozen=True)
class PAnd:
    left: "PropFormula"
    right: "PropFormula"


@dataclass(frozen=True)
class POr:
    left: "PropFormula"
    right: "PropFormula"


@dataclass(frozen=True)
class PImp:
    left: "PropFormula"
    right: "PropFormula"


PropFormula = Union[PVar, PConst, PNot, PAnd, POr, PImp]

TRUE = PConst(True)
FALSE = PConst(False)


def prop_vars(f: PropFormula) -> set[int]:
    # the walk steps into a node's left part in place; right parts wait
    out: set[int] = set()
    add = out.add
    stack = [f]
    pop = stack.pop
    push = stack.append
    while stack:
        g = pop()
        t = type(g)
        while t is not PVar:
            if t is PNot:
                g = g.body
            elif t is PAnd or t is POr or t is PImp:
                push(g.right)
                g = g.left
            else:
                break
            t = type(g)
        else:
            add(g.index)
    return out


def _n_vars(f: PropFormula) -> int:
    """Width of f's truth table: one past its highest variable index."""
    vs = prop_vars(f)
    return max(vs) + 1 if vs else 0


def prop_size(f: PropFormula) -> int:
    """Connective-and-atom count (parentheses don't count)."""
    return _dag_fold(f, _one_plus)


def _one_plus(x: PropFormula, a: int | None, b: int | None) -> int:
    return 1 + (a or 0) + (b or 0)


def _dag_fold(root: PropFormula, combine: Callable) -> object:
    """combine(x, a, b) for every distinct node object x of root, children
    first and left to right, in the order a recursive walk first finishes
    them; a and b are the values of x's children (None where it has fewer).
    Returns root's value.  Without recursion: a node stays on the stack
    until its children's values are in, and a node met again is not walked
    again, so a shared subtree costs one visit.  Values must not be None."""
    done: dict[int, object] = {}
    get = done.get
    stack = [root]
    push = stack.append
    while stack:
        x = stack[-1]
        t = type(x)
        if t is PVar or t is PConst:
            a = b = None
        elif t is PNot:
            a, b = get(id(x.body)), None
            if a is None:
                push(x.body)
                continue
        elif t is PAnd or t is POr or t is PImp:
            a, b = get(id(x.left)), get(id(x.right))
            if a is None or b is None:
                if b is None:
                    push(x.right)
                if a is None:
                    push(x.left)
                continue
        else:
            raise TypeError(f"not a propositional formula: {x!r}")
        stack.pop()
        if id(x) not in done:
            done[id(x)] = combine(x, a, b)
    return done[id(root)]


def big_and(parts: Iterable[PropFormula]) -> PropFormula:
    acc: PropFormula | None = None
    for p in parts:
        acc = p if acc is None else PAnd(acc, p)
    return acc if acc is not None else TRUE


def big_or(parts: Iterable[PropFormula]) -> PropFormula:
    acc: PropFormula | None = None
    for p in parts:
        acc = p if acc is None else POr(acc, p)
    return acc if acc is not None else FALSE


# The binary connectives and their binding powers, loosest first: parse_prop
# reads the table, and print_prop writes each connective's text from it.
_CONNECTIVES = {"->": (1, PImp), "|": (2, POr), "&": (3, PAnd)}
_INFIX = {ctor: (f" {op} ",) for op, (_, ctor) in _CONNECTIVES.items()}


def print_prop(f: PropFormula) -> str:
    """The text of a propositional formula, written into one buffer without
    recursion: the stack holds formulas and literal texts (1-tuples) still
    to print, in reverse output order."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is tuple:
            out.append(x[0])
        elif cls is PVar:
            out.append(f"x{x.index}")
        elif cls is PConst:
            out.append("T" if x.value else "F")
        elif cls is PNot:
            stack += ((")",), x.body, ("!(",))
        elif cls in _INFIX:
            stack += ((")",), x.right, _INFIX[cls], x.left, ("(",))
        else:
            raise TypeError(f"not a propositional formula: {x!r}")
    return "".join(out)


_PROP_TOKEN = re.compile(r"\s*(?:(x\d+)|(T|F)|(->)|([!&|()]))")

# Deepest nesting parse_prop accepts.  Each parenthesis, `!` and binary
# operator counts one level, both as written and in the formula built (a
# chain of n `&` builds a tree n deep).  No walk recurses; the cap bounds the
# depth, not the stack, of what a formula can ask of the translations and
# the brute force, whose time grows with the formula's size alone.
MAX_PROP_NESTING = 1_000


def parse_prop(text: str) -> PropFormula:
    """x<i>, T, F, !, parentheses and the connectives of _CONNECTIVES: `&`
    binds tightest, `->` loosest and nests to the right.

    Input nested deeper than MAX_PROP_NESTING levels raises ValueError.
    One loop, without recursion: the stack holds each open `!` and `(`, and
    each connective waiting for its right operand with its left one and
    that one's depth.  A complete operand takes the `!` before it, then
    every waiting connective that binds at least as tightly as the next.
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
        while True:
            connective = _CONNECTIVES.get(toks[pos])
            power = connective[0] if connective else 0
            while stack:
                top = stack[-1]
                if top == "!":
                    f, d = PNot(f), too_deep(1 + d)
                    level -= 1
                # `->` waits for a whole implication: it nests to the right
                elif type(top) is tuple and (top[0] > power or top[0] == power > 1):
                    f, d = top[1](top[2], f), too_deep(1 + max(top[3], d))
                    level -= top[0] == 1
                else:
                    break
                stack.pop()
            if connective:
                pos += 1
                if power == 1:
                    level = too_deep(level + 1)
                stack.append((*connective, f, d))
                break
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


# ---------------------------------------------------------------------------
# brute-force tautology oracle
# ---------------------------------------------------------------------------

MAX_BRUTE_VARS = 24
_CHUNK_BITS = 18


class TooManyVariables(ValueError):
    pass


def _sweep(n: int) -> Iterator[tuple[int, int, list[int]]]:
    """The truth table over n variables, chunk by chunk, in row order.

    Per chunk of 2**_CHUNK_BITS rows (one chunk if n is smaller): the
    chunk's first row, the all-ones mask of the chunk, and one integer
    column per variable, whose bit j is the variable's value in row
    first + j.
    """
    if n > MAX_BRUTE_VARS:
        raise TooManyVariables(f"{n} variables exceeds the brute-force cap of {MAX_BRUTE_VARS}")
    low = min(n, _CHUNK_BITS)
    width = 1 << low
    full = (1 << width) - 1
    low_cols = []
    for i in range(low):
        # 2**i zeros then 2**i ones, doubled until it fills the chunk
        block, size = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while size < width:
            block |= block << size
            size <<= 1
        low_cols.append(block)
    for first in range(0, 1 << n, width):
        yield first, full, low_cols + [full if (first >> i) & 1 else 0 for i in range(low, n)]


def _eval_mask(f: PropFormula, cols: list[int], full: int) -> int:
    """f over a chunk of rows: bit j is f's value in the chunk's row j.

    Without recursion, over the tree: the stack holds the connectives
    waiting on their first operand, and as (node, mask) those waiting on
    their right one; a right operand that is a variable is read in place."""
    stack: list = []
    push = stack.append
    pop = stack.pop
    x = f
    while True:
        t = type(x)
        if t is PVar:
            v = cols[x.index]
        elif t is PAnd or t is POr or t is PImp:
            push(x)
            x = x.left
            continue
        elif t is PNot:
            push(x)
            x = x.body
            continue
        elif t is PConst:
            v = full if x.value else 0
        else:
            raise TypeError(f"not a propositional formula: {x!r}")
        while stack:
            p = pop()
            t = type(p)
            if t is PNot:
                v = full ^ v
                continue
            if t is tuple:
                p, a = p
                t = type(p)
            else:
                r = p.right
                if type(r) is not PVar:
                    push((p, v))
                    x = r
                    break
                a, v = v, cols[r.index]
            if t is PAnd:
                v = a & v
            elif t is POr:
                v = a | v
            else:
                v = (full ^ a) | v
        else:
            return v


def eval_prop(f: PropFormula, assignment: dict[int, bool]) -> bool:
    """f's truth value under `assignment`, written apart from the brute
    force's masks so that each checks the other.  Without recursion, and
    short-circuiting as `and`, `or` and `->` do: the stack holds the
    connectives waiting on their left operand, and a right operand that
    decides its connective is entered in its place."""
    stack: list = []
    while True:
        t = type(f)
        if t is PNot or t is PAnd or t is POr or t is PImp:
            stack.append(f)
            f = f.body if t is PNot else f.left
            continue
        if t is PVar:
            r = assignment[f.index]
        elif t is PConst:
            r = f.value
        else:
            raise TypeError(f"not a propositional formula: {f!r}")
        while stack:
            g = stack.pop()
            t = type(g)
            if t is PNot:
                r = not r
            elif (not r) if t is POr else r:
                f = g.right
                break
            else:
                # decided by the left operand: `or` true, `and` false, `->` true
                r = t is not PAnd
        else:
            return r


def falsifying_assignment(f: PropFormula) -> dict[int, bool] | None:
    """First assignment (row order) making f false, or None if f is a tautology."""
    n = _n_vars(f)
    for first, full, cols in _sweep(n):
        bad = full ^ _eval_mask(f, cols, full)
        if bad:
            row = first + (bad & -bad).bit_length() - 1
            return {i: bool((row >> i) & 1) for i in range(n)}
    return None


def is_tautology_bruteforce(f: PropFormula) -> bool:
    return falsifying_assignment(f) is None


# ---------------------------------------------------------------------------
# clauses
# ---------------------------------------------------------------------------

Clause = frozenset  # of int literals: variable i is +(i+1) / -(i+1)


def lit(var: int, positive: bool) -> int:
    return (var + 1) if positive else -(var + 1)


def lit_var(literal: int) -> int:
    return abs(literal) - 1


def is_tautological_clause(c: Clause) -> bool:
    return any(-l in c for l in c)


@dataclass(frozen=True)
class ClauseSet:
    clauses: tuple[Clause, ...]
    n_vars: int

    def __post_init__(self) -> None:
        for c in self.clauses:
            for l in c:
                if l == 0 or lit_var(l) >= self.n_vars:
                    raise ValueError(f"literal {l} out of range for {self.n_vars} variables")


def to_dimacs(cs: ClauseSet) -> str:
    lines = [f"p cnf {cs.n_vars} {len(cs.clauses)}"]
    for c in cs.clauses:
        lines.append(" ".join(str(l) for l in sorted(c, key=abs)) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> ClauseSet:
    n_vars = 0
    clauses: list[Clause] = []
    declared: int | None = None
    pending: list[int] = []
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n_vars, declared = int(parts[2]), int(parts[3])
            if n_vars < 0 or declared < 0:
                raise ValueError(f"negative count in problem line: {line!r}")
            continue
        for tok in line.split():
            v = int(tok)
            if v == 0:
                clauses.append(frozenset(pending))
                pending = []
            else:
                pending.append(v)
                n_vars = max(n_vars, abs(v))
    if pending:
        raise ValueError("last clause not terminated by 0")
    if declared is not None and declared != len(clauses):
        raise ValueError(f"header declares {declared} clauses, found {len(clauses)}")
    return ClauseSet(tuple(clauses), n_vars)


def brute_force_satisfiable(cs: ClauseSet) -> bool:
    for _, full, cols in _sweep(cs.n_vars):
        ok = full
        for c in cs.clauses:
            sat = 0
            for l in c:
                sat |= cols[l - 1] if l > 0 else full ^ cols[-l - 1]
            ok &= sat
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# resolution proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    index: int


@dataclass(frozen=True)
class Resolve:
    left: int
    right: int
    pivot: int  # variable index; positive in `left`, negative in `right`


ResolutionStep = Union[Input, Resolve]


@dataclass(frozen=True)
class ResolutionProof:
    steps: tuple[ResolutionStep, ...]


@dataclass(frozen=True)
class ResolutionCheck:
    ok: bool
    reason: str = ""
    derived: tuple[Clause, ...] = ()


def check_resolution(cs: ClauseSet, proof: ResolutionProof) -> ResolutionCheck:
    """Validate a refutation.  Invalid proofs report a reason, never raise."""
    derived: list[Clause] = []
    for n, step in enumerate(proof.steps):
        match step:
            case Input(k):
                if not 0 <= k < len(cs.clauses):
                    return ResolutionCheck(False, f"step {n}: input index {k} out of range", tuple(derived))
                derived.append(cs.clauses[k])
            case Resolve(i, j, p):
                if not (0 <= i < len(derived) and 0 <= j < len(derived)):
                    return ResolutionCheck(False, f"step {n}: clause index out of range", tuple(derived))
                pos, neg = lit(p, True), lit(p, False)
                ci, cj = derived[i], derived[j]
                if pos not in ci:
                    return ResolutionCheck(False, f"step {n}: pivot variable {p + 1} not positive in clause {i}", tuple(derived))
                if neg not in cj:
                    return ResolutionCheck(False, f"step {n}: pivot variable {p + 1} not negative in clause {j}", tuple(derived))
                derived.append((ci - {pos}) | (cj - {neg}))
            case _:
                return ResolutionCheck(False, f"step {n}: unknown step kind", tuple(derived))
    if not derived:
        return ResolutionCheck(False, "empty proof", ())
    if derived[-1] != frozenset():
        return ResolutionCheck(False, "final clause is not empty", tuple(derived))
    return ResolutionCheck(True, "", tuple(derived))


def print_resolution_text(proof: ResolutionProof) -> str:
    out: list[str] = []
    for step in proof.steps:
        match step:
            case Input(k):
                out.append(f"i {k}")
            case Resolve(i, j, p):
                out.append(f"r {i} {j} {p + 1}")
    return "\n".join(out) + "\n"


def parse_resolution_text(text: str) -> ResolutionProof:
    steps: list[ResolutionStep] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            match parts:
                case ["i", k]:
                    steps.append(Input(int(k)))
                case ["r", i, j, p]:
                    pv = int(p)
                    if pv < 1:
                        raise ValueError("pivot must be a positive variable number")
                    steps.append(Resolve(int(i), int(j), pv - 1))
                case _:
                    raise ValueError(f"unrecognized step {line!r}")
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
    return ResolutionProof(tuple(steps))


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

# One level of folding each, for children that are already folded: the
# result is a constant or a formula without constants.


def _not(b: PropFormula) -> PropFormula:
    if type(b) is PConst:
        return FALSE if b.value else TRUE
    return PNot(b)


def _and(a: PropFormula, b: PropFormula) -> PropFormula:
    if type(a) is PConst:
        return b if a.value else FALSE
    if type(b) is PConst:
        return a if b.value else FALSE
    return PAnd(a, b)


def _or(a: PropFormula, b: PropFormula) -> PropFormula:
    if type(a) is PConst:
        return TRUE if a.value else b
    if type(b) is PConst:
        return TRUE if b.value else a
    return POr(a, b)


def _imp(a: PropFormula, b: PropFormula) -> PropFormula:
    if type(a) is PConst:
        return b if a.value else TRUE
    if type(b) is PConst:
        return TRUE if b.value else PNot(a)
    return PImp(a, b)


def _fold(f: PropFormula) -> PropFormula:
    """f rebuilt bottom-up through the folding constructors."""
    return _dag_fold(f, _fold_step)


def _fold_step(x: PropFormula, a: PropFormula | None, b: PropFormula | None) -> PropFormula:
    t = type(x)
    if t is PAnd:
        return _and(a, b)
    if t is POr:
        return _or(a, b)
    if t is PImp:
        return _imp(a, b)
    if t is PNot:
        return _not(a)
    return x


# ---------------------------------------------------------------------------
# Tseitin clausification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TseitinResult:
    clause_set: ClauseSet
    root_literal: int | None  # None when the formula folded to a constant
    n_input_vars: int


# The three defining clauses of v <-> (a op b), by connective.
_GATES = {
    PAnd: lambda v, a, b: ((-v, a), (-v, b), (v, -a, -b)),
    POr: lambda v, a, b: ((-v, a, b), (v, -a), (v, -b)),
    PImp: lambda v, a, b: ((-v, -a, b), (v, a), (v, -b)),
}


def tseitin(f: PropFormula) -> TseitinResult:
    """CNF asserting f, via one definitional variable per connective node.

    Deterministic: auxiliary variables are numbered in first-visit postorder
    after the input variables; identical subformulas share a definition.
    Each node object gets a structure number from its type and its payload
    or its children's numbers, so no lookup hashes a whole subformula.
    """
    g = _fold(f)
    n_inputs = _n_vars(g)
    if isinstance(g, PConst):
        if g.value:
            return TseitinResult(ClauseSet((), n_inputs), None, n_inputs)
        return TseitinResult(ClauseSet((frozenset(),), n_inputs), None, n_inputs)
    clauses: list[Clause] = []
    numbers: dict[tuple, int] = {}  # (type, payload or children's numbers) -> structure number
    lits: list[int] = []  # structure number -> equivalent literal
    counter = [n_inputs]

    def define(node: PropFormula, a: tuple | None, b: tuple | None) -> tuple[int, int]:
        """Structure number of the node, and a literal equivalent to it,
        given its children's."""
        t = type(node)
        if t is PVar:
            key, l = (PVar, node.index), lit(node.index, True)
        elif t is PNot:
            key, l = (PNot, a[0]), -a[1]
        elif t is PConst:
            raise AssertionError("constants were folded away")
        else:
            key = (t, a[0], b[0])
        k = numbers.setdefault(key, len(numbers))
        if k < len(lits):
            return k, lits[k]
        gate = _GATES.get(t)
        if gate is not None:
            l = lit(counter[0], True)
            counter[0] += 1
            clauses.extend(map(frozenset, gate(l, a[1], b[1])))
        lits.append(l)
        return k, l

    _, root = _dag_fold(g, define)
    clauses.append(frozenset({root}))
    return TseitinResult(ClauseSet(tuple(clauses), counter[0]), root, n_inputs)


def negation_clauses(f: PropFormula) -> TseitinResult:
    """Clause set satisfiable iff f is falsifiable; refuting it certifies f."""
    return tseitin(PNot(f))


# ---------------------------------------------------------------------------
# Davis–Putnam refutation builder (the workhorse translator)
# ---------------------------------------------------------------------------


def dp_refutation(cs: ClauseSet) -> ResolutionProof | None:
    """Resolution refutation by variable elimination, or None if satisfiable.

    Complete: eliminating every variable of an unsatisfiable set must surface
    the empty clause.  The next variable eliminated is the one with the
    fewest resolvents, |pos|*|neg| - |pos| - |neg| over the live clauses,
    ties to the lower index (the min-degree order of directional
    resolution); a variable no live clause mentions would eliminate
    nothing, so only mentioned ones are candidates.  The proof cites every
    input clause first, then records each non-tautological resolvent; it is
    pruned afterwards to the steps the empty clause actually uses.
    """
    steps: list[ResolutionStep] = [Input(k) for k in range(len(cs.clauses))]
    index_of: dict[Clause, int] = {}
    alive: dict[Clause, int] = {}
    for k, c in enumerate(cs.clauses):
        if c not in index_of:
            index_of[c] = k
        if not is_tautological_clause(c) and c not in alive:
            alive[c] = index_of[c]
        if c == frozenset():
            return _prune_refutation(cs, ResolutionProof(tuple(steps[: index_of[c] + 1])))
    while alive:
        occurrences: dict[int, int] = {}
        for c in alive:
            for l in c:
                occurrences[l] = occurrences.get(l, 0) + 1

        def resolvent_bound(v: int) -> tuple[int, int]:
            p, n = occurrences.get(v + 1, 0), occurrences.get(-v - 1, 0)
            return p * n - p - n, v

        v = min({lit_var(l) for l in occurrences}, key=resolvent_bound)
        pos_l, neg_l = lit(v, True), lit(v, False)
        pos = [(c, c - {pos_l}, i) for c, i in alive.items() if pos_l in c]
        neg = [(c, c - {neg_l}, i) for c, i in alive.items() if neg_l in c]
        negated = [frozenset(-l for l in b) for _, b, _ in neg]
        for _, a, ip in pos:
            for (_, b, jn), nb in zip(neg, negated):
                if not a.isdisjoint(nb):
                    continue  # tautological: a and b clash outside the pivot
                r = a | b
                if r in index_of:
                    continue
                steps.append(Resolve(ip, jn, v))
                idx = len(steps) - 1
                index_of[r] = idx
                alive[r] = idx
                if not r:
                    return _prune_refutation(cs, ResolutionProof(tuple(steps)))
        for c, _, _ in pos:
            del alive[c]
        for c, _, _ in neg:
            del alive[c]
    return None


def _prune_refutation(cs: ClauseSet, proof: ResolutionProof) -> ResolutionProof:
    """Keep only steps reachable from the final (empty-clause) step."""
    steps = proof.steps
    needed: set[int] = set()
    stack = [len(steps) - 1]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        s = steps[i]
        if isinstance(s, Resolve):
            stack.append(s.left)
            stack.append(s.right)
    order = sorted(needed)
    remap = {old: new for new, old in enumerate(order)}
    out: list[ResolutionStep] = []
    for old in order:
        s = steps[old]
        if isinstance(s, Resolve):
            out.append(Resolve(remap[s.left], remap[s.right], s.pivot))
        else:
            out.append(s)
    return ResolutionProof(tuple(out))


# ---------------------------------------------------------------------------
# proof systems as handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SPMeasure:
    """Minimal accepted proof size, or the cap it exceeded.

    A search-based measure also says what ended the search: `nodes` is the
    number of search nodes it visited, up to and including the first one
    past its node cap, and `node_capped` says that the node cap, not the
    step cap `cap`, ended it.  Measures that do not search keep the
    defaults.
    """

    value: int | None
    exceeds_cap: bool
    cap: int
    nodes: int = 0
    node_capped: bool = False


@dataclass(frozen=True)
class ProofSystemHandle:
    """Cook–Reckhow style: a total verifier plus a proof-length functional."""

    name: str
    verify: Callable[[bytes, PropFormula], bool]
    s_p: Callable[[PropFormula, int], SPMeasure]


def _resolution_verify(proof_bytes: bytes, alpha: PropFormula) -> bool:
    try:
        proof = parse_resolution_text(proof_bytes.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError):
        return False
    return check_resolution(negation_clauses(alpha).clause_set, proof).ok


class _NodeCapReached(Exception):
    """Unwinds the refutation search at the first node past its node cap."""


def min_refutation_steps(cs: ClauseSet, cap: int, node_cap: int = 250_000) -> SPMeasure:
    """Minimal refutation step count by iterative-deepening enumeration.

    A node is a list of distinct derived clauses.  Its children, in order,
    append each input clause not yet derived, then each resolvent
    (ci - {l}) | (cj - {-l}) not yet derived, over the ordered pairs (i, j)
    of derived clauses and the positive literals l of ci with -l in cj (the
    same resolvent counts once per pair and literal).  A node whose last
    clause is empty is a refutation; every node counts toward `node_cap`.

    The search walks that tree in that order, but walks the subtree below
    a *set* of derived clauses once per depth: a subtree walked in full is
    stored under the set's bitmask, in a table per depth, and a later child
    with the same set adds the stored node count instead of being visited.
    The count is exactly that of a visit to every node:
    - the multiset of a node's children depends only on its set of derived
      clauses: the inputs not yet derived, duplicates included, and one
      resolvent per ordered pair and pivot.  So the size of a subtree with
      no refutation depends only on the set and the steps left, and within
      one depth the set's size fixes the steps left.
    - a subtree that holds a refutation ends the search, so it is never
      stored, and the path to the refutation is walked in the order above.
    - counts only grow, so the node cap still fires at node cap + 1.
    The tables live and die with one call.
    """
    entries: dict[Clause, tuple[int, Clause]] = {}  # clause -> (its bit, the clause)

    def entry(c: Clause) -> tuple[int, Clause]:
        e = entries.get(c)
        if e is None:
            e = entries[c] = (1 << len(entries), c)
        return e

    inputs = [entry(c) for c in cs.clauses]
    pair_resolvents: dict[tuple[Clause, Clause], list[tuple[int, Clause]]] = {}
    derived: list[Clause] = []
    nodes = 0

    def children(mask: int) -> list[tuple[int, Clause]]:
        """The current node's children, as (bit, clause), up to an empty one."""
        # the pairs without the last clause got their resolvents when the
        # parent's children were listed
        if derived:
            c = derived[-1]
            for d in derived:
                for ci, cj in ((d, c), (c, d)):
                    if (ci, cj) not in pair_resolvents:
                        pair_resolvents[ci, cj] = [entry((ci - {l}) | (cj - {-l})) for l in ci if l > 0 and -l in cj]
        out = [e for e in inputs if not mask & e[0]]
        out += [e for ci in derived for cj in derived for e in pair_resolvents[ci, cj] if not mask & e[0]]
        empty = entries.get(frozenset())
        if empty in out:
            del out[out.index(empty) + 1:]
        return out

    def count(k: int) -> None:
        nonlocal nodes
        nodes += k
        if nodes > node_cap:
            raise _NodeCapReached

    def below(mask: int, steps_left: int, done: dict[int, int]) -> bool:
        """Count the nodes below the current one; True at a refutation."""
        ks = children(mask)
        if steps_left == 1:
            count(len(ks))
            return bool(ks) and not ks[-1][1]
        for b, c in ks:
            if not c:
                count(1)
                return True
            child = mask | b
            size = done.get(child)
            if size is not None:
                count(size)
                continue
            start = nodes
            count(1)
            derived.append(c)
            found = below(child, steps_left - 1, done)
            derived.pop()
            if found:
                return True
            done[child] = nodes - start
        return False

    try:
        for depth in range(1, cap + 1):
            count(1)
            if below(0, depth, {}):
                return SPMeasure(depth, False, cap, nodes)
    except _NodeCapReached:
        return SPMeasure(None, True, cap, node_cap + 1, True)
    return SPMeasure(None, True, cap, nodes)


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"the size cap must be >= 1, not {cap}")


def _resolution_s_p(alpha: PropFormula, cap: int) -> SPMeasure:
    """s_p of resolution: the minimal refutation of the negation's clauses."""
    _check_cap(cap)
    return min_refutation_steps(negation_clauses(alpha).clause_set, cap)


def resolution_system() -> ProofSystemHandle:
    return ProofSystemHandle("resolution", _resolution_verify, _resolution_s_p)


def truth_table_system() -> ProofSystemHandle:
    """Proof = the serialized full truth table: one '<bits> <0|1>' row per line."""

    def verify(proof_bytes: bytes, alpha: PropFormula) -> bool:
        try:
            text = proof_bytes.decode("utf-8", errors="strict")
        except UnicodeDecodeError:
            return False
        rows = [ln for ln in text.split("\n") if ln.strip()]
        n = _n_vars(alpha)
        # the row count first: a short proof never builds a large table
        if n > MAX_BRUTE_VARS or len(rows) != (1 << n) or not is_tautology_bruteforce(alpha):
            return False
        return all(row.split() == line.split() for row, line in zip(rows, _table_lines(alpha)))

    def s_p(alpha: PropFormula, cap: int) -> SPMeasure:
        _check_cap(cap)
        # the sweep refuses more than MAX_BRUTE_VARS variables before the
        # table size below is computed
        if not is_tautology_bruteforce(alpha):
            return SPMeasure(None, False, cap)
        n = _n_vars(alpha)
        size = (1 << n) * (max(n, 1) + 1)
        return SPMeasure(size, size > cap, cap)

    return ProofSystemHandle("truth-table", verify, s_p)


def _table_lines(alpha: PropFormula) -> Iterator[str]:
    """The rows of alpha's truth table, '<bits> <0|1>' each, in row order."""
    n = _n_vars(alpha)
    for first, full, cols in _sweep(n):
        width = full.bit_length()
        values = format(_eval_mask(alpha, cols, full), f"0{width}b")[::-1]
        for j in range(width):
            bits = format(first + j, f"0{n}b")[::-1] if n else "-"
            yield f"{bits} {values[j]}"


def print_truth_table_proof(alpha: PropFormula) -> str:
    return "\n".join(_table_lines(alpha)) + "\n"


# ---------------------------------------------------------------------------
# Delta0 translation
# ---------------------------------------------------------------------------


class TranslationError(ValueError):
    pass


_Cases = Sequence[tuple[int, PropFormula]]


def _term_value_cases(t: Term, x: str, selectors: _Cases, env: dict[str, int]) -> _Cases:
    """Possible values of t with their selector conditions (TRUE if forced).

    `selectors` holds x's cases: (i, x_i) for each i in 0..n.  Without
    recursion: t's nodes are visited in preorder, left to right, and each
    operator waits on the stack as (class, count of S or None) until the
    cases of its operands are in; a run of S over a leaf, the common case,
    needs no stack.
    """
    if type(t) is Var and t.name == x:
        return selectors
    stack: list = [t]
    cases: list = []  # the cases of the operands done, in order
    while stack:
        y = stack.pop()
        n = 0
        while type(y) is Succ:
            n += 1
            y = y.arg
        k = type(y)
        if k is Var:
            if y.name == x:
                leaf = selectors
            elif y.name in env:
                leaf = [(env[y.name], TRUE)]
            else:
                raise TranslationError(f"unbound variable {y.name!r} in translation")
        elif k is Zero:
            leaf = [(0, TRUE)]
        elif k is Plus or k is Times:
            if n:
                stack.append((Succ, n))
            stack += ((k, None), y.right, y.left)
            continue
        elif k is tuple:
            k, m = y
            if k is Succ:
                cases[-1] = [(v + m, c) for v, c in cases[-1]]
            else:
                right = cases.pop()
                cases[-1] = _combine(cases[-1], right, operator.add if k is Plus else operator.mul)
            continue
        elif k is DefFn:
            raise TranslationError(f"definitional symbol {y.symbol!r} has no propositional translation")
        else:
            raise TypeError(f"not a term: {y!r}")
        cases.append([(v + n, c) for v, c in leaf] if n else leaf)
    return cases[0]


def _combine(left: _Cases, right: _Cases, op: Callable[[int, int], int]) -> _Cases:
    byval: dict[int, PropFormula] = {}
    for v1, c1 in left:
        for v2, c2 in right:
            v = op(v1, v2)
            cond = _and(c1, c2)
            prev = byval.get(v)
            byval[v] = cond if prev is None else _or(prev, cond)
    return sorted(byval.items())


# The guard has O(n^2) nodes; callers sweep a few small bounds (criterion 8
# and the benchmark use n = 1..6), so a few entries suffice.
@lru_cache(maxsize=8)
def _selector_nodes(n: int) -> tuple[_Cases, tuple[PropFormula, ...], PropFormula]:
    """The nodes every translation at bound n shares.

    x's cases (i, x_i) for i in 0..n; for each i the disjunction
    x_i | ... | x_n; and the guard (x_0 | ... | x_n) & (no two x_i).
    """
    xs = [PVar(i) for i in range(n + 1)]
    at_least = tuple(big_or(xs[i:]) for i in range(n + 1))
    guard_one = big_and([PNot(PAnd(xs[i], xs[j])) for i in range(n + 1) for j in range(i + 1, n + 1)])
    return tuple(enumerate(xs)), at_least, PAnd(big_or(xs), guard_one)


# the base language: no definitional symbols, so a quantifier bound that
# mentions one is refused like any other untranslatable bound
_BASE = TheorySpec("base")


def translate_delta0(A: Formula, x: str | None = None, n: int = 1) -> PropFormula:
    """The selector-variable translation at bound n.

    x is represented by selector variables x_0..x_n (indices 0..n); the
    result is (exactly-one guard) -> expansion, a tautology iff A holds at
    every x in {0..n}.  Bounds inside A must be closed terms, the variable x
    itself, or a previously bound variable.

    The expansion is folded as it is built: each node goes through one of
    the folding constructors once, over children already folded.  Its
    conjunctions and disjunctions nest to the left, in case order.  The
    selector variables, the disjunctions x_i | ... | x_n and the guard are
    built once per n and shared by every result at that n.
    """
    if n < 0:
        raise TranslationError(f"the bound n must be >= 0, got {n}")
    if not is_delta0(A):
        raise TranslationError("formula is not Delta0")
    fv = free_variables(A)
    if x is None:
        if len(fv) != 1:
            raise TranslationError(f"need exactly one free variable, got {sorted(fv)}")
        x = next(iter(fv))
    elif fv != {x}:
        raise TranslationError(f"free variables {sorted(fv)} are not exactly {{{x!r}}}")
    selectors, at_least, guard = _selector_nodes(n)

    # Without recursion: the stack holds the connectives waiting on a part's
    # translation, each as [node, env] and, for an implication whose
    # antecedent is done, that translation; a bounded quantifier as [node,
    # env, expansion so far, value of its variable, last value, whether the
    # bound is x].
    stack: list = []
    g, env = A, {}
    while True:
        t = type(g)
        if t is Eq:
            lcases = _term_value_cases(g.left, x, selectors, env)
            rmap = dict(_term_value_cases(g.right, x, selectors, env))
            r = FALSE
            for v, c1 in lcases:
                c2 = rmap.get(v)
                if c2 is not None:
                    r = _or(r, _and(c1, c2))
        elif t is Implies or t is Not:
            stack.append([g, env])
            g = g.antecedent if t is Implies else g.body
            continue
        elif t is BoundedForAll or t is BoundedExists:
            bound = g.bound
            if type(bound) is Var and bound.name == x:
                # value i admissible when i <= x: guarded by the selectors x_i..x_n
                last, guarded = n, True
            else:
                try:
                    last, guarded = eval_term_in(_BASE, bound, env=env), False
                except (KeyError, ValueError) as e:
                    raise TranslationError(f"untranslatable quantifier bound: {e.args[0]}") from None
            stack.append([g, env, FALSE if t is BoundedExists else TRUE, 0, last, guarded])
            env = {**env, g.var: 0}
            g = g.body
            continue
        elif t is ForAll:
            raise TranslationError("unbounded quantifier in a Delta0 formula")
        else:
            raise TypeError(f"not a formula: {g!r}")
        # r translates g: hand it to the connectives waiting on it
        while stack:
            frame = stack[-1]
            node = frame[0]
            t = type(node)
            if t is Not:
                stack.pop()
                r = _not(r)
            elif t is Implies:
                if len(frame) == 2:
                    frame.append(r)
                    g, env = node.consequent, frame[1]
                    break
                stack.pop()
                r = _imp(frame[2], r)
            else:
                _, env, out, i, last, guarded = frame
                exists = t is BoundedExists
                if guarded:
                    r = (_and if exists else _imp)(at_least[i], r)
                out = (_or if exists else _and)(out, r)
                if i < last:
                    frame[2] = out
                    frame[3] = i = i + 1
                    g, env = node.body, {**env, node.var: i}
                    break
                stack.pop()
                r = out
        else:
            return PImp(guard, r)


# ---------------------------------------------------------------------------
# p-simulation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationItem:
    alpha: PropFormula
    original_ok: bool
    translated_ok: bool
    original_size: int
    translated_size: int


@dataclass(frozen=True)
class SimulationReport:
    items: tuple[SimulationItem, ...]
    all_ok: bool
    growth_exponent: float | None


def p_simulation_check(
    target: ProofSystemHandle,
    source: ProofSystemHandle,
    translator: Callable[[bytes, PropFormula], bytes],
    corpus: list[tuple[PropFormula, bytes]],
) -> SimulationReport:
    """Verify translator maps source-proofs to accepted target-proofs.

    Efficiency is reported as a fitted log-log growth exponent of translated
    size vs original size — a measurement, never an asymptotic claim.
    """
    items: list[SimulationItem] = []
    for alpha, proof_bytes in corpus:
        src_ok = source.verify(proof_bytes, alpha)
        translated = translator(proof_bytes, alpha)
        tgt_ok = target.verify(translated, alpha)
        items.append(SimulationItem(alpha, src_ok, tgt_ok, len(proof_bytes), len(translated)))
    ok = all(i.original_ok and i.translated_ok for i in items)
    pts = [(i.original_size, i.translated_size) for i in items if i.original_size > 1 and i.translated_size > 1]
    exponent: float | None = None
    if len({x for x, _ in pts}) >= 2:
        exponent = loglog_slope([x for x, _ in pts], [y for _, y in pts])
    return SimulationReport(tuple(items), ok, exponent)


def table_to_resolution_translator(proof_bytes: bytes, alpha: PropFormula) -> bytes:
    """Naive translator: rebuild a refutation of the negation by elimination.

    The truth table certifies tautologyhood; the translated proof re-derives
    it as a Davis-Putnam refutation of the Tseitin clauses (dp_refutation).
    Its size is whatever that elimination produces, measured by
    p_simulation_check and not bounded here.
    """
    cs = negation_clauses(alpha).clause_set
    proof = dp_refutation(cs)
    if proof is None:
        return b""
    return print_resolution_text(proof).encode()
