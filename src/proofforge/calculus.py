"""Hilbert-style proof calculus for first-order arithmetic.

Lines of a proof are formulas; a line is justified when it is an instance of
an axiom schema, a theory axiom, or follows from earlier lines by modus
ponens or (bounded) generalization.  The schema basis:

    P1       A -> (B -> A)
    P2       (A -> (B -> C)) -> ((A -> B) -> (A -> C))
    P3       (!A -> !B) -> (B -> A)
    Q1       forall x A -> A[x := t]          (capture-avoiding)
    Q2       forall x (A -> B) -> (forall x A -> forall x B)
    BQ2A     forall<= x b (A -> B) -> (forall<= x b A -> forall<= x b B)
    BQ2E     forall<= x b (A -> B) -> (exists<= x b A -> exists<= x b B)
    BCONGA   b = b' -> (forall<= x b A -> forall<= x b' A)
    BCONGE   b = b' -> (exists<= x b A -> exists<= x b' A)
    EQREFL   t = t
    EQSUBST  s = u -> (A -> A')   for atomic A, A' = A with some
             occurrences of s replaced by u
    QAX i    the i-th Robinson axiom (i in 1..7)
    IND      A[x:=0] -> (forall x (A -> A[x:=S(x)]) -> forall x A)
             (only when the theory enables induction)
    COMPUTE  t = u   for closed t, u with equal values under the theory's
             definitional-extension evaluators

plus the rules

    MP    from A -> B and A infer B
    GEN   from A infer forall x A
    BGEN  from A infer forall<= x b A

Every schema instance is true in the standard model under every variable
assignment, theory axioms are closed, and the rules preserve that property,
so everything provable is true in N.  Matching any single schema against a
candidate line is linear in the line size.

Nine schemata, P1-P3, Q2, BQ2A-BCONGE and EQREFL, are a shape alone: rows
of one table, `_PATTERNS`, each its line above, checked by one matcher,
`_schema_matcher`.  Q1, EQSUBST, QAX, IND and COMPUTE are written by hand.
Each matcher returns the justification it proves, or None.  The
justification search lives here: `find_axiom_justification` tries, in a
fixed order, the matchers that accept the formula's root class (QAX is
tried on every root and turns down all but `forall` at once), then the
theory's axioms; a `LineIndex` of the earlier lines, keyed by formula,
finds modus ponens or (bounded) generalization by lookups.  The searching
verifier and the exhaustive proof search both use the two.  Of the
schemata, only IND and COMPUTE read the theory, so `could_be_axiom` tells
without one which formulas some theory accepts as axiom lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Union

from .syntax import (
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
    Term,
    Times,
    Var,
    Zero,
    _FORMULA_TYPES,
    _parse,
    _print,
    equal,
    formula_size,
    free_variables,
    is_sentence,
    node_count,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    substitute,
)

# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class Cost:
    """Mutable counter for deterministic work measures.

    symbol_comparisons counts syntax nodes compared, in the right-first
    preorder of `syntax.equal` up to and including the first mismatch.  The
    count is the walk's, but a pair of equal subtrees, which are one object,
    costs its node_count without a walk.  lines_scanned and pair_searches
    count positions: the earlier lines a scan for `LineIndex.justify`'s
    first match passes over, singly and as modus ponens antecedents, read
    off the index's lookups.  A
    function given no Cost counts nothing, so an unmeasured check never
    walks a subtree to count it."""

    __slots__ = ("symbol_comparisons", "lines_scanned", "pair_searches")

    def __init__(self) -> None:
        self.symbol_comparisons = 0
        self.lines_scanned = 0
        self.pair_searches = 0


# ---------------------------------------------------------------------------
# Definitional extensions and theories
# ---------------------------------------------------------------------------


class EvalBudgetExceeded(RuntimeError):
    pass


class EvalBudget:
    """Operation counter shared across one evaluation; raises when spent."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = 10_000_000):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise EvalBudgetExceeded(f"evaluation budget of {self.limit} operations exceeded")


@dataclass(frozen=True)
class DefExtension:
    """A definitional function symbol: total evaluator plus its defining story.

    `support(c, bound)`, where a binary symbol has one, yields in increasing
    order every p <= bound at which `evaluator(p, c)` can be nonzero; it may
    yield more, never fewer.  `goedel.eval_delta0` sweeps only these points
    in a bounded exists whose body is `symbol(p, c) = r` with r nonzero.
    """

    symbol: str
    arity: int
    evaluator: Callable[..., int]
    description: str
    support: Callable[[int, int], Iterator[int]] | None = None


@dataclass(frozen=True)
class TheorySpec:
    """A theory: Robinson arithmetic plus extra closed axioms and definitional symbols.

    `induction` switches the full arithmetic mode (IND schema available).
    Immutable after construction; `goedel.extend_with_axiom` builds an extension.
    """

    name: str
    extra_axioms: tuple[Formula, ...] = ()
    def_extensions: Mapping[str, DefExtension] = field(default_factory=dict)
    induction: bool = False

    def __post_init__(self) -> None:
        for i, ax in enumerate(self.extra_axioms):
            if not is_sentence(ax):
                raise ValueError(f"theory axiom {i + 1} of {self.name!r} is not a sentence: {print_formula(ax)}")

    def arities(self) -> dict[str, int]:
        return {s: d.arity for s, d in self.def_extensions.items()}


@lru_cache(maxsize=1)
def robinson_axioms() -> tuple[Formula, ...]:
    """The seven closed axioms of Robinson arithmetic, in fixed order."""
    texts = (
        "forall x !(S(x) = 0)",
        "forall x forall y (S(x) = S(y) -> x = y)",
        "forall x (!(x = 0) -> exists y x = S(y))",
        "forall x x + 0 = x",
        "forall x forall y x + S(y) = S(x + y)",
        "forall x x * 0 = 0",
        "forall x forall y x * S(y) = x * y + x",
    )
    return tuple(parse_formula(t, deffn_arities={}) for t in texts)


def eval_term_in(
    theory: TheorySpec,
    t: Term,
    budget: EvalBudget | None = None,
    env: Mapping[str, int] | None = None,
) -> int:
    """Value of a term in N under the theory's definitional evaluators.

    `env` gives the values of the term's variables.  Closed subterms are
    evaluated once per call.  Raises ValueError on a variable missing from
    `env`, EvalBudgetExceeded when the budget runs out, KeyError on an
    unregistered symbol.
    """
    if budget is None:
        budget = EvalBudget()
    return _eval_term(theory, t, budget, env or {}, {})


def _eval_term(theory: TheorySpec, t: Term, budget: EvalBudget, env: Mapping[str, int], memo: dict[int, int]) -> int:
    """The one term evaluator.  `memo` maps id(node) to the value of a
    variable-free node: a node goes in once all its children are in, and a
    hit costs no budget.  Ids are reused after garbage collection, so a memo
    serves one top-level call, whose term keeps every keyed node alive, and
    is never shared across calls.  It holds no Var, so `env` may change
    between evaluations that share it.  Equal nodes are one object (see
    `syntax`), so every repeated closed subterm is evaluated and charged
    once, however the term was built.

    Without recursion, charging as a recursive walk would: a node is charged
    when it is entered, then its children are evaluated left to right, each
    entered in place of its parent; the stack holds the nodes waiting on a
    child, with the values of their children so far.
    """
    v = memo.get(id(t))
    if v is not None:
        return v
    charge = budget.charge
    get = memo.get
    stack: list = []
    x = t
    while True:
        v = get(id(x))
        if v is None:
            charge()
            cls = type(x)
            if cls is Succ:
                inner, n = x.arg, 1
                while type(inner) is Succ:
                    n += 1
                    inner = inner.arg
                charge(n)
                stack.append((x, n, inner))
                x = inner
                continue
            if cls is Plus or cls is Times:
                stack.append((x,))
                x = x.left
                continue
            if cls is DefFn:
                ext = theory.def_extensions.get(x.symbol)
                if ext is None:
                    raise KeyError(f"function symbol {x.symbol!r} not registered in theory {theory.name!r}")
                args = x.args
                if args:
                    # a one-argument symbol waits as (node, ext), any other
                    # as (node, ext, values of its arguments so far)
                    stack.append((x, ext) if len(args) == 1 else (x, ext, []))
                    x = args[0]
                    continue
                charge(4)
                v = memo[id(x)] = ext.evaluator(budget=budget)
            elif cls is Var:
                name = x.name
                if name not in env:
                    raise ValueError(f"cannot evaluate open term (free variable {name!r})")
                v = env[name]
            elif cls is Zero:
                v = memo[id(x)] = 0
            else:
                raise TypeError(f"not a term: {x!r}")
        # v is x's value: hand it to the nodes waiting on it
        while stack:
            frame = stack[-1]
            node = frame[0]
            cls = type(node)
            if cls is Succ:
                stack.pop()
                v += frame[1]
                if id(frame[2]) in memo:
                    memo[id(node)] = v
            elif cls is DefFn:
                args = node.args
                if len(frame) == 2:
                    stack.pop()
                    charge(4)
                    v = frame[1].evaluator(v, budget=budget)
                    if id(args[0]) in memo:
                        memo[id(node)] = v
                    continue
                vals = frame[2]
                vals.append(v)
                if len(vals) < len(args):
                    x = args[len(vals)]
                    break
                stack.pop()
                charge(4)
                v = frame[1].evaluator(*vals, budget=budget)
                for a in args:
                    if id(a) not in memo:
                        break
                else:
                    memo[id(node)] = v
            elif len(frame) == 1:
                stack[-1] = (node, v)
                x = node.right
                break
            else:
                stack.pop()
                a = frame[1]
                if cls is Plus:
                    v = a + v
                else:
                    charge(max(a.bit_length() + v.bit_length(), 1) // 8)
                    v = a * v
                if id(node.left) in memo and id(node.right) in memo:
                    memo[id(node)] = v
        else:
            return v


# ---------------------------------------------------------------------------
# Justifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomJust:
    schema: str
    index: int | None = None  # QAX index, 1-based
    term: Term | None = None  # Q1 / EQREFL instantiation payload


@dataclass(frozen=True)
class TheoryAxiomJust:
    index: int  # 1-based position in extra_axioms


@dataclass(frozen=True)
class MPJust:
    implication: int  # 0-based line index of A -> B
    antecedent: int  # 0-based line index of A


@dataclass(frozen=True)
class GenJust:
    source: int
    var: str


@dataclass(frozen=True)
class BGenJust:
    source: int
    var: str
    bound: Term


@dataclass(frozen=True)
class ComputeJust:
    value: int | None = None


Justification = Union[AxiomJust, TheoryAxiomJust, MPJust, GenJust, BGenJust, ComputeJust]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification | None = None


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof has no conclusion")
        return self.lines[-1].formula


def proof_size(proof: Proof) -> int:
    """Sum of line sizes plus one separator between consecutive lines."""
    if not proof.lines:
        return 0
    return sum(formula_size(ln.formula) for ln in proof.lines) + len(proof.lines) - 1


# ---------------------------------------------------------------------------
# Schema matchers
# ---------------------------------------------------------------------------
#
# Each matcher takes (theory, f, cost) and returns the justification that
# makes f an instance of its schema -- AxiomJust("Q1", term=t),
# AxiomJust("QAX", index=i), ComputeJust(value=v), AxiomJust(name) -- or None.

Matcher = Callable[[TheorySpec, Formula, Cost | None], Union[AxiomJust, ComputeJust, None]]

# The schemata that are a shape alone, each its line of the module docstring.
# A pattern's leaves are metavariables, Var nodes: upper case stands for a
# formula, lower case for a term (`t` goes into the justification).  A
# quantifier's variable matches any variable, one variable per name.
_A, _B, _C, _b, _b2, _t = (Var(name) for name in ("A", "B", "C", "b", "b'", "t"))
_PATTERNS: dict[str, Formula] = {
    "EQREFL": Eq(_t, _t),
    "P1": Implies(_A, Implies(_B, _A)),
    "P2": Implies(Implies(_A, Implies(_B, _C)), Implies(Implies(_A, _B), Implies(_A, _C))),
    "P3": Implies(Implies(Not(_A), Not(_B)), Implies(_B, _A)),
    "Q2": Implies(ForAll("x", Implies(_A, _B)), Implies(ForAll("x", _A), ForAll("x", _B))),
    "BQ2A": Implies(BoundedForAll("x", _b, Implies(_A, _B)), Implies(BoundedForAll("x", _b, _A), BoundedForAll("x", _b, _B))),
    "BQ2E": Implies(BoundedForAll("x", _b, Implies(_A, _B)), Implies(BoundedExists("x", _b, _A), BoundedExists("x", _b, _B))),
    "BCONGA": Implies(Eq(_b, _b2), Implies(BoundedForAll("x", _b, _A), BoundedForAll("x", _b2, _A))),
    "BCONGE": Implies(Eq(_b, _b2), Implies(BoundedExists("x", _b, _A), BoundedExists("x", _b2, _A))),
}


def _reader(base: Callable | None, fields: tuple[str, ...]) -> Callable | None:
    """Reader of the part of f reached by `base` (none: f), then `fields`."""
    read = attrgetter(".".join(fields)) if fields else None
    if base is None or read is None:
        return base or read
    return lambda f: read(base(f))


def _application(read: Callable, symbol: str, arity: int, f: Formula) -> DefFn | None:
    x = read(f)
    return x if type(x) is DefFn and x.symbol == symbol and len(x.args) == arity else None


def _read_pattern(pattern: Formula) -> tuple[list, list, list, Callable | None]:
    """A pattern read once, in preorder and syntax._children order, into
    readers of an instance's parts: (reader, class) of each node below the
    root; pairs of quantifier variables of one name; each metavariable's
    (first occurrence, later occurrence), terms before formulas; and t."""
    shape: list = []
    binders: list = []
    terms: list = []
    formulas: list = []
    first: dict[str, Callable] = {}
    first_var: dict[str, Callable] = {}
    stack: list = [(pattern, None, ())]
    while stack:
        node, base, fields = stack.pop()
        cls = type(node)
        read = _reader(base, fields)
        if cls is Var:
            if node.name in first:
                (formulas if node.name[0].isupper() else terms).append((first[node.name], read))
            first.setdefault(node.name, read)
            continue
        if cls is DefFn:  # reads None, failing the class check, for another symbol or arity
            check = partial(_application, read, node.symbol, len(node.args))
            kids = [(a, lambda f, r=read, k=k: r(f).args[k], ()) for k, a in enumerate(node.args)]
        else:
            check = read
            kids = [(getattr(node, name), base, fields + (name,)) for name in cls.__match_args__ if name != "var"]
        if read is not None:  # the root's class is checked apart
            shape.append((check, cls))
        if cls is ForAll or cls is BoundedForAll or cls is BoundedExists:
            read_var = _reader(base, fields + ("var",))
            if node.var in first_var:
                binders.append((first_var[node.var], read_var))
            first_var.setdefault(node.var, read_var)
        stack += reversed(kids)
    return shape, binders, terms + formulas, first.get("t")


def _schema_matcher(name: str, pattern: Formula) -> Matcher:
    """The matcher of a shape schema: every class and quantifier variable is
    checked, counting nothing, before the metavariables are compared."""
    root = type(pattern)
    shape, binders, pairs, read_t = _read_pattern(pattern)

    def match(theory: TheorySpec, f: Formula, cost: Cost | None) -> AxiomJust | None:
        if type(f) is not root:
            return None
        for read, cls in shape:
            if type(read(f)) is not cls:
                return None
        for read, again in binders:
            if read(f) != again(f):
                return None
        for read, again in pairs:
            if not equal(read(f), again(f), cost):
                return None
        return AxiomJust(name) if read_t is None else AxiomJust(name, term=read_t(f))

    return match


def _leftmost_instance(phi: Formula, psi: Formula, x: str) -> Term | None:
    """Subterm of psi at the position of the leftmost free occurrence of x in phi.

    The walk follows phi's structure without recursion, left to right, and
    skips the parts where psi's shape differs and the body of every
    quantifier that binds x.  Binder names may differ between the two sides
    (canonical renaming), which the walk tolerates — the caller verifies the
    candidate by substitution, so leniency here is harmless.
    """
    stack = [(phi, psi)]
    while stack:
        p, q = stack.pop()
        cls = type(p)
        if cls is Var:
            if p.name == x:
                return q
        elif cls is not type(q):
            pass
        elif cls is Succ or cls is Not:
            stack.append((p.arg, q.arg) if cls is Succ else (p.body, q.body))
        elif cls is Plus or cls is Times or cls is Eq:
            stack += ((p.right, q.right), (p.left, q.left))
        elif cls is Implies:
            stack += ((p.consequent, q.consequent), (p.antecedent, q.antecedent))
        elif cls is DefFn:
            if len(p.args) == len(q.args):
                stack += reversed(tuple(zip(p.args, q.args)))
        elif cls is not Zero:
            if p.var != x:
                stack.append((p.body, q.body))
            if cls is not ForAll:
                stack.append((p.bound, q.bound))
    return None


def _match_q1(theory: TheorySpec, f: Formula, cost: Cost | None) -> AxiomJust | None:
    # forall x A -> A[x := t]
    if not (isinstance(f, Implies) and isinstance(f.antecedent, ForAll)):
        return None
    x, phi, psi = f.antecedent.var, f.antecedent.body, f.consequent
    if cost is not None:
        cost.symbol_comparisons += 1
    if x not in free_variables(phi):
        if equal(phi, psi, cost):
            return AxiomJust("Q1", term=ZERO)
        return None
    t = _leftmost_instance(phi, psi, x)
    if t is None:
        return None
    if cost is not None:
        cost.symbol_comparisons += formula_size(phi)
    if equal(substitute(phi, x, t), psi, cost):
        return AxiomJust("Q1", term=t)
    return None


def _replaceable_term(a: Term, b: Term, s: Term, u: Term, cost: Cost | None) -> bool:
    """b arises from a by replacing some (possibly zero) occurrences of s by u.

    The pairs of parts still to compare wait on a stack, left before right,
    and the first pair that fails ends the walk."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if equal(a, b, cost) or equal(a, s, cost) and equal(b, u, cost):
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Succ:
            stack.append((a.arg, b.arg))
        elif cls is Plus or cls is Times:
            stack += ((a.right, b.right), (a.left, b.left))
        elif cls is DefFn and a.symbol == b.symbol and len(a.args) == len(b.args):
            stack += reversed(tuple(zip(a.args, b.args)))
        else:
            return False
    return True


def _match_eqsubst(theory: TheorySpec, f: Formula, cost: Cost | None) -> AxiomJust | None:
    # s = u -> (A -> A'), A and A' atomic
    if not (isinstance(f, Implies) and isinstance(f.antecedent, Eq) and isinstance(f.consequent, Implies)):
        return None
    s, u = f.antecedent.left, f.antecedent.right
    a, b = f.consequent.antecedent, f.consequent.consequent
    if not (isinstance(a, Eq) and isinstance(b, Eq)):
        return None
    if _replaceable_term(a.left, b.left, s, u, cost) and _replaceable_term(a.right, b.right, s, u, cost):
        return AxiomJust("EQSUBST")
    return None


def _match_qax(theory: TheorySpec, f: Formula, cost: Cost | None) -> AxiomJust | None:
    """The Robinson axiom that f is, by its 1-based index, or None.

    Every axiom is a `forall`, so f of another root class is none of them;
    it is charged the one root comparison `equal` makes with each axiom."""
    axioms = robinson_axioms()
    if type(f) is not ForAll:
        if cost is not None:
            cost.symbol_comparisons += len(axioms)
        return None
    for i, ax in enumerate(axioms, start=1):
        if equal(f, ax, cost):
            return AxiomJust("QAX", index=i)
    return None


def _match_ind(theory: TheorySpec, f: Formula, cost: Cost | None) -> AxiomJust | None:
    # A[x:=0] -> (forall x (A -> A[x:=S(x)]) -> forall x A)
    if not (theory.induction and isinstance(f, Implies) and isinstance(f.consequent, Implies)):
        return None
    base = f.antecedent
    mid, tail = f.consequent.antecedent, f.consequent.consequent
    if not (isinstance(mid, ForAll) and isinstance(mid.body, Implies) and isinstance(tail, ForAll)):
        return None
    x = tail.var
    if mid.var != x:
        return None
    a = tail.body
    if not equal(mid.body.antecedent, a, cost):
        return None
    if not equal(base, substitute(a, x, ZERO), cost):
        return None
    if not equal(mid.body.consequent, substitute(a, x, Succ(Var(x))), cost):
        return None
    return AxiomJust("IND")


# The budget of COMPUTE's first evaluation, in operations.  No closed
# equation that `forge suite` or perfbench's certify and decide workloads
# (seed 1) evaluate costs more than 8,306.
_COMPUTE_PROBE = 65_536


def _match_compute(theory: TheorySpec, f: Formula, cost: Cost | None) -> ComputeJust | None:
    """A closed equation whose sides evaluate equal.  A closed equation is
    charged its size, an open one nothing.  The evaluator raises on a free
    variable, so only an equation whose evaluation raises is walked to tell
    which it is.  The first evaluation runs under a probe budget of
    `_COMPUTE_PROBE` operations: an equation that runs it out is walked,
    refused if open and evaluated again in full if closed.  So an open
    equation with a costly closed side is refused at the price of the
    probe, and one that the probe finishes gets the value that a full
    evaluation would give."""
    if not isinstance(f, Eq):
        return None
    probe = EvalBudget(_COMPUTE_PROBE)
    try:
        try:
            lv = eval_term_in(theory, f.left, probe)
            rv = eval_term_in(theory, f.right, probe)
        except EvalBudgetExceeded:
            if not is_sentence(f):
                return None
            lv = eval_term_in(theory, f.left)
            rv = eval_term_in(theory, f.right)
    except (EvalBudgetExceeded, KeyError, ValueError):
        if cost is not None and is_sentence(f):
            cost.symbol_comparisons += formula_size(f)
        return None
    if cost is not None:
        cost.symbol_comparisons += formula_size(f)
    if lv == rv:
        return ComputeJust(value=lv)
    return None


# every schema, in search order: cheap structural matchers first, COMPUTE
# last.  The order is part of the count: a matcher tried earlier adds its
# comparisons to it.
_MATCHERS: dict[str, Matcher] = {
    **{name: _schema_matcher(name, _PATTERNS[name]) for name in ("EQREFL", "P1", "P3", "P2")},
    "Q1": _match_q1,
    **{name: _schema_matcher(name, _PATTERNS[name]) for name in ("Q2", "BQ2A", "BQ2E", "BCONGA", "BCONGE")},
    "EQSUBST": _match_eqsubst,
    "QAX": _match_qax,
    "IND": _match_ind,
    "COMPUTE": _match_compute,
}

# the matchers that can accept a formula of each root class, in _MATCHERS
# order; QAX is in every list, as a measured search charges it the root
# comparison with each Robinson axiom
_ROOTS = {name: type(p) for name, p in _PATTERNS.items()} | {"Q1": Implies, "EQSUBST": Implies, "IND": Implies, "COMPUTE": Eq}
_BY_ROOT: dict[type, tuple[Matcher, ...]] = {
    cls: tuple(m for name, m in _MATCHERS.items() if _ROOTS.get(name, cls) is cls)
    for cls in (Eq, Not, Implies, ForAll, BoundedForAll, BoundedExists)
}

# the matchers that can accept an open formula: every one but QAX and
# COMPUTE, whose instances, like a theory's axioms, are sentences.  Of these
# only IND reads the theory, and only its `induction`.
_OPEN_BY_ROOT = {cls: tuple(m for m in ms if m is not _match_qax and m is not _match_compute) for cls, ms in _BY_ROOT.items()}
_INDUCTIVE = TheorySpec("induction", induction=True)


def could_be_axiom(f: Formula) -> bool:
    """Whether some theory justifies f by `find_axiom_justification`: f is a
    sentence (an axiom of some theory), or an instance of a schema that can
    have open instances, IND included."""
    if is_sentence(f):
        return True
    for matcher in _OPEN_BY_ROOT.get(type(f), ()):
        if matcher(_INDUCTIVE, f, None) is not None:
            return True
    return False


# the schemata an AxiomJust may name, each printed bare without its payload;
# COMPUTE's justification is a ComputeJust
_AXIOM_SCHEMATA = frozenset(_MATCHERS) - {"COMPUTE"}


def match_schema(theory: TheorySpec, schema: str, f: Formula) -> Justification | None:
    """The justification that makes f an instance of the named schema, or None."""
    matcher = _MATCHERS.get(schema)
    if matcher is None:
        raise ValueError(f"unknown schema {schema!r}")
    return matcher(theory, f, None)


def find_axiom_justification(theory: TheorySpec, f: Formula, cost: Cost | None = None) -> Justification | None:
    """Search the schemata and the theory's extra axioms for a justification of f."""
    for matcher in _BY_ROOT.get(type(f), (_match_qax,)):
        just = matcher(theory, f, cost)
        if just is not None:
            return just
    for i, ax in enumerate(theory.extra_axioms, start=1):
        if equal(f, ax, cost):
            return TheoryAxiomJust(i)
    return None


class LineIndex:
    """The lines of a proof so far, keyed by formula (one object each):
    the first line of each formula, and each consequent's implications in
    line order.  `pop` undoes the last `add`, so one index serves a whole
    search path."""

    __slots__ = ("lines", "first", "implications")

    def __init__(self) -> None:
        self.lines, self.first, self.implications = [], {}, {}

    def add(self, f: Formula) -> None:
        self.first.setdefault(f, len(self.lines))
        if type(f) is Implies:
            self.implications.setdefault(f.consequent, []).append(len(self.lines))
        self.lines.append(f)

    def pop(self) -> None:
        f = self.lines.pop()
        if self.first[f] == len(self.lines):
            del self.first[f]
        if type(f) is Implies:
            js = self.implications[f.consequent]
            js.pop()
            if not js:
                del self.implications[f.consequent]

    def justify(self, f: Formula, cost: Cost | None) -> Justification | None:
        """The first rule justification of f from the lines, as a scan finds
        it: modus ponens from the first implication into f whose antecedent
        is a line (its first), else (bounded) generalization from the first
        line equal to f's body.  Counted: the scan's positions (see `Cost`),
        and per dict hit what `equal` counts, the equal trees' node count."""
        i = len(self.lines)
        scanned, pairs, found = i, 0, None
        implications = self.implications.get(f, ())
        hits = [f] if implications else []
        for j in implications:
            a = self.lines[j].antecedent
            k = self.first.get(a)
            if k is not None:
                scanned, pairs, found = j + 1, pairs + k + 1, MPJust(j, k)
                hits.append(a)
                break
            pairs += i
        if found is None and (type(f) is ForAll or type(f) is BoundedForAll):
            k = self.first.get(f.body)
            scanned += i if k is None else k + 1
            if k is not None:
                hits.append(f.body)
                found = GenJust(k, f.var) if type(f) is ForAll else BGenJust(k, f.var, f.bound)
        if cost is not None:
            cost.symbol_comparisons += sum(map(node_count, hits))
            cost.lines_scanned += scanned
            cost.pair_searches += pairs
        return found


# ---------------------------------------------------------------------------
# Stored-justification checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineCheck:
    """A checker's verdict, and for a rejection the reason, naming the line.

    It has no truth value: a caller reads `ok`, so one that tests the check
    itself fails at once instead of accepting every proof."""

    ok: bool
    reason: str = ""
    proof: Proof | None = field(default=None, compare=False, repr=False)  # a search's elaborated proof

    def __bool__(self) -> bool:
        raise TypeError("read LineCheck.ok, not the check's truth value")


def check_line(theory: TheorySpec, proof: Proof, i: int) -> LineCheck:
    """Validate line i of the proof against its *stored* justification.

    A None justification is rejected here (the search-based verifier in the
    verifier module accepts any line that could be justified somehow).
    """
    if not 0 <= i < len(proof.lines):
        return LineCheck(False, f"line index {i} out of range")
    line = proof.lines[i]
    f = line.formula
    j = line.justification
    match j:
        case None:
            return LineCheck(False, "no stored justification")
        case AxiomJust(schema, index, term):
            if schema not in _AXIOM_SCHEMATA:
                return LineCheck(False, f"no axiom schema {schema}")
            if (index is not None and schema != "QAX") or (term is not None and schema not in ("Q1", "EQREFL")):
                return LineCheck(False, f"{schema} takes no such payload")
            if schema == "Q1" and term is not None:
                if isinstance(f, Implies) and isinstance(f.antecedent, ForAll):
                    expected = substitute(f.antecedent.body, f.antecedent.var, term)
                    if expected is f.consequent:
                        return LineCheck(True)
                return LineCheck(False, "not the stated Q1 instance")
            if schema == "EQREFL" and term is not None:
                if isinstance(f, Eq) and f.left is term and f.right is term:
                    return LineCheck(True)
                return LineCheck(False, "not the stated EQREFL instance")
            if schema == "IND" and not theory.induction:
                return LineCheck(False, "induction not enabled for this theory")
            if index is not None:
                axioms = robinson_axioms()
                found = 1 <= index <= len(axioms) and f is axioms[index - 1]
            else:
                found = match_schema(theory, schema, f) is not None
            if not found:
                return LineCheck(False, f"not an instance of {schema}")
            return LineCheck(True)
        case TheoryAxiomJust(index):
            if 1 <= index <= len(theory.extra_axioms) and f is theory.extra_axioms[index - 1]:
                return LineCheck(True)
            return LineCheck(False, f"not theory axiom {index}")
        case MPJust(imp, ant):
            if not (0 <= imp < i and 0 <= ant < i):
                return LineCheck(False, "modus ponens premises must precede the line")
            big = proof.lines[imp].formula
            if not isinstance(big, Implies):
                return LineCheck(False, f"line {imp + 1} is not an implication")
            if big.antecedent is not proof.lines[ant].formula:
                return LineCheck(False, "antecedent mismatch")
            if big.consequent is not f:
                return LineCheck(False, "consequent mismatch")
            return LineCheck(True)
        case GenJust(src, var):
            if not 0 <= src < i:
                return LineCheck(False, "generalization source must precede the line")
            if isinstance(f, ForAll) and f.var == var and f.body is proof.lines[src].formula:
                return LineCheck(True)
            return LineCheck(False, "not a generalization of the source line")
        case BGenJust(src, var, bound):
            if not 0 <= src < i:
                return LineCheck(False, "generalization source must precede the line")
            if (
                isinstance(f, BoundedForAll)
                and f.var == var
                and f.bound is bound
                and f.body is proof.lines[src].formula
            ):
                return LineCheck(True)
            return LineCheck(False, "not a bounded generalization of the source line")
        case ComputeJust(value):
            found = _match_compute(theory, f, None)
            if found is None:
                return LineCheck(False, "not a valid Compute step")
            if value is not None and found.value != value:
                return LineCheck(False, f"stored value {value} differs from computed {found.value}")
            return LineCheck(True)
    return LineCheck(False, f"unknown justification {j!r}")


def check_stored_proof(theory: TheorySpec, proof: Proof, found: Proof | None = None) -> LineCheck:
    """Check each line by its stored justification.  Given `found`, the
    search's elaborated proof, a line whose stored justification is `?`, the
    found one or a bare COMPUTE the search computed is not checked again."""
    for i, line in enumerate(proof.lines):
        if found is not None:
            j, k = line.justification, found.lines[i].justification
            if j is None or j == k or (j == ComputeJust() and type(k) is ComputeJust):
                continue
        res = check_line(theory, proof, i)
        if not res.ok:
            return LineCheck(False, f"line {i + 1}: {res.reason}")
    if not proof.lines:
        return LineCheck(False, "empty proof")
    return LineCheck(True)


# ---------------------------------------------------------------------------
# Proof text format
# ---------------------------------------------------------------------------
#
#   <idx>. <formula> ; <justification>
#
# indices are 1-based; justifications:
#   <schema>     any schema but COMPUTE, bare: P1 | Q1 | EQREFL | QAX | ...
#   Q1[t=<term>] | EQREFL[t=<term>]
#   QAX <i> | THAX <i> | MP <i> <j> | GEN <i> <var> | BGEN <i> <var> <bound>
#   COMPUTE | COMPUTE[v=<int>]
# MP <i> <j>: line i is the implication, line j its antecedent.


_JUST_LINE_RE = re.compile(r"^(\d+)\.\s(.*)\s;\s(.*)$")


def _print_justification(j: Justification | None) -> str:
    match j:
        case None:
            return "?"
        case AxiomJust("QAX", index, _) if index is not None:
            return f"QAX {index}"
        case AxiomJust(schema, _, term) if term is not None and schema in ("Q1", "EQREFL"):
            return f"{schema}[t={print_term(term)}]"
        case AxiomJust(schema, _, _):
            return schema
        case TheoryAxiomJust(index):
            return f"THAX {index}"
        case MPJust(imp, ant):
            return f"MP {imp + 1} {ant + 1}"
        case GenJust(src, var):
            return f"GEN {src + 1} {var}"
        case BGenJust(src, var, bound):
            return f"BGEN {src + 1} {var} {print_term(bound)}"
        case ComputeJust(None):
            return "COMPUTE"
        case ComputeJust(value):
            return f"COMPUTE[v={value}]"
    raise ValueError(f"unprintable justification {j!r}")


def print_proof_text(proof: Proof) -> str:
    """One `<i>. <formula> ; <justification>` line per proof line.  One atom
    memo serves the proof, whose lines keep every node it keys alive."""
    memo: dict = {}
    out = []
    for i, line in enumerate(proof.lines, start=1):
        if type(line.formula) not in _FORMULA_TYPES:
            raise TypeError(f"not a formula: {line.formula!r}")
        out.append(f"{i}. {_print(line.formula, memo)} ; {_print_justification(line.justification)}")
    return "\n".join(out) + "\n"


_COMPUTE_RE = re.compile(r"COMPUTE\[v=(\d+)\]")
_TERM_AXIOM_RE = re.compile(r"(Q1|EQREFL)\[t=(.*)\]")
_QAX_RE = re.compile(r"QAX (\d+)")
_THAX_RE = re.compile(r"THAX (\d+)")
_MP_RE = re.compile(r"MP (\d+) (\d+)")
_GEN_RE = re.compile(r"GEN (\d+) ([a-z][a-z0-9']*)")
_BGEN_RE = re.compile(r"BGEN (\d+) ([a-z][a-z0-9']*) (.*)")


def _parse_justification(text: str, arities: dict[str, int] | None) -> Justification | None:
    text = text.strip()
    if text == "?":
        return None
    if text in _AXIOM_SCHEMATA:
        return AxiomJust(text)
    if text == "COMPUTE":
        return ComputeJust()
    m = _COMPUTE_RE.fullmatch(text)
    if m:
        return ComputeJust(value=int(m.group(1)))
    m = _TERM_AXIOM_RE.fullmatch(text)
    if m:
        return AxiomJust(m.group(1), term=parse_term(m.group(2), arities))
    m = _QAX_RE.fullmatch(text)
    if m:
        return AxiomJust("QAX", index=int(m.group(1)))
    m = _THAX_RE.fullmatch(text)
    if m:
        return TheoryAxiomJust(int(m.group(1)))
    m = _MP_RE.fullmatch(text)
    if m:
        return MPJust(int(m.group(1)) - 1, int(m.group(2)) - 1)
    m = _GEN_RE.fullmatch(text)
    if m:
        return GenJust(int(m.group(1)) - 1, m.group(2))
    m = _BGEN_RE.fullmatch(text)
    if m:
        return BGenJust(int(m.group(1)) - 1, m.group(2), parse_term(m.group(3), arities))
    raise ValueError(f"unparsable justification {text!r}")


def parse_proof_text(text: str, deffn_arities: dict[str, int] | None = None) -> Proof:
    """Parse the proof text format; raises ValueError with the offending line.
    Only a newline ends a line.  One atom memo serves the whole text, so
    each distinct atom text is parsed once (see syntax._skeleton for the
    lines read so).  Errors are those of `parse_formula`."""
    atoms: dict = {}
    lines: list[ProofLine] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        m = _JUST_LINE_RE.match(raw)
        if m is None:
            raise ValueError(f"proof line {lineno}: expected '<idx>. <formula> ; <justification>'")
        idx = int(m.group(1))
        if idx != len(lines) + 1:
            raise ValueError(f"proof line {lineno}: index {idx} out of order (expected {len(lines) + 1})")
        try:
            formula = _parse(m.group(2), deffn_arities, True, atoms)
            just = _parse_justification(m.group(3), deffn_arities)
        except ValueError as e:
            raise ValueError(f"proof line {lineno}: {e}") from e
        lines.append(ProofLine(formula, just))
    if not lines:
        raise ValueError("empty proof text")
    return Proof(tuple(lines))
