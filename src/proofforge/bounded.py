"""Exhaustive proof search at desk scale, and the language levels it decides.

A proof here is a sequence of formulas, each an axiom instance or obtained
from earlier lines by modus ponens or (bounded) generalization, with total
size = sum of line sizes plus one separator between lines.  `enumerate_proofs`
runs a depth-first search over all such sequences ending in a target formula,
within a total-size budget, and reports one of three outcomes:

  found             -- a proof within budget was constructed (definitive yes);
  none              -- the search space was covered completely (definitive no);
  budget_exhausted  -- an internal cap was hit, so absence proves nothing.

Definitive "none" claims are what make the miniature language levels
L_k = {phi : some proof of phi has size <= size(phi)^k} decidable at small
sizes, so the engine is deliberately conservative about them.  Candidate
lines are drawn from complete pools of axiom instances, plus the closure of
existing lines under the inference rules.  A pool is built in two stages.
The first reads no theory and runs once per size: it lists every sentence
and every instance of a schema other than COMPUTE, with IND on.  Its
equations are generated directly -- each closed left term with every closed
right term, each open one only with itself (EQREFL) -- and the formulas of
the other root classes are built from the smaller pools and filtered
through the axiom matchers.  The second, per theory, runs
find_axiom_justification on what the first listed.  It loses nothing, as
only IND and COMPUTE read the theory, and COMPUTE instances and theory
axioms are sentences.  The cap counts every formula of the size, candidate
or not, without building them; when a pool would exceed it the outcome
degrades to budget_exhausted rather than silently narrowing the space.  Two
further soundness notes:

  * Variables range over the fixed 16-name pool (no primes).  Any proof
    within budget B uses fewer than B distinct variables, and renaming its
    variables injectively into the pool (fixing the target's variables)
    preserves validity line by line, so the restriction loses nothing as
    long as prefix budget + target variables <= 16.  The guard below
    downgrades "none" to budget_exhausted outside that regime.
  * Relevance heuristics (axiom instances assembled from the target's own
    subformulas and subterms) are added to speed up "found"; they never
    shrink the exhaustive pools, so they cannot corrupt a "none".

Lines are justified by the verifier's own search: axiom lines by
calculus.find_axiom_justification, the target by the same function (once,
at the root: the target and theory never change) and otherwise by
`LineIndex.justify` over the lines above it: one index holds the current
path, which also gives modus ponens closures their antecedents.  Axiom pools
are cached by the theory's content and the variable pool, not its name.

Almost every node is a leaf: its newest line leaves no room (fewer than 3
symbols) for another.  A parent visits each child in its own loop: it
counts the child against the node cap, checks the target on it, and calls
itself on the child only when the child is inner.  The child's line is on
the index while the child is checked or expanded.  A leaf costs its own
line only, and most leaves are counted without being built (below).  The
target is checked on a child only where the child's newest line f can be
cited.  A child checks the target only if its parent did (its prefix is
longer), and the parent's check found nothing, or the search would have
stopped there; so a justification on the child cites f.  That needs one of:

  (a) f is an implication whose consequent is the target (f is MP's major
      premise);
  (b) f is the antecedent of an earlier line whose consequent is the target
      (f is the minor premise; the parent collects these antecedents once);
  (c) f is the body of a `forall` or `forall<=` target (GEN or BGEN).

When one holds, the index is asked about the target over all the lines, so
the justification found is the one a check of every child would find.

For a line g and a bound size b, the bounded generalizations
`forall<= v t g`, one per pool variable v and pool term t of size b, are
distinct, and if one is a leaf all are.  No later candidate of the node
equals one of them: it generalizes another line, or over a bound of another
size.  One of them can equal a path line or an earlier candidate F, or be
checked, only if F, an antecedent of (b) or the body of (c) is a `forall<=`
whose body is g.  So each node keeps the bodies of the `forall<=` formulas
among its path lines, the candidates it met before its generalizations, its
(b) antecedents and the (c) body; a block of leaves over a g that is none
of them is counted by its length and never built, and any other block is
visited one candidate at a time.  The node's own generalizations stay out
of that set, as no later block can equal them.  A block that takes the
count past the node cap stops the search at the cap plus one, as counting
one by one would.

Every line and candidate carries its size, so no node walks a formula to
size it: a pool of size s holds formulas of size s, relevance instances are
sized once per search, a generalization adds two symbols (pool variables
are unprimed) and a bounded one its bound's size more, and a modus ponens
consequent reads the size cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .calculus import (
    BGenJust,
    GenJust,
    Justification,
    LineIndex,
    MPJust,
    Proof,
    ProofLine,
    TheoryAxiomJust,
    TheorySpec,
    check_stored_proof,
    could_be_axiom,
    find_axiom_justification,
    proof_size,
)
from .goedel import (
    DEFFN_ARITIES,
    PROVER_CHAIN,
    VAR_POOL,
    con_bounded,
    encode_formula,
    extend_with_axiom,
    standard_theory,
)
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
    formula_size,
    free_variables,
    is_sentence,
    print_formula,
    substitute,
    subterms,
    term_size,
)
from .verifier import power_capped, proof_of

FOUND = "found"
NONE = "none"
BUDGET_EXHAUSTED = "budget_exhausted"

_UNARY_FNS = tuple(s for s, a in DEFFN_ARITIES.items() if a == 1)
_BINARY_FNS = tuple(s for s, a in DEFFN_ARITIES.items() if a == 2)


# Largest axiom-pool line size the search builds; a prefix line that could
# be larger makes the outcome budget_exhausted.
MAX_POOL_LINE_SIZE = 6


class PoolCapExceeded(Exception):
    pass


@dataclass(frozen=True)
class SearchLimits:
    """Caps that bound the work; hitting one degrades the outcome honestly."""

    pool_cap: int = 600_000
    node_cap: int = 300_000


# What can make a search's outcome budget_exhausted, in the order
# `SearchReport.stopped_by` lists them: a prefix line could be larger than
# MAX_POOL_LINE_SIZE, a pool was refused by its cap, the node cap was hit, or
# the target has too many variables for the renaming argument.
STOP_CAUSES = ("line_size", "pool_cap", "node_cap", "var_pool")


@dataclass(frozen=True)
class SearchReport:
    """`stopped_by` names the causes in `STOP_CAUSES` that the search met;
    it is empty unless the outcome is budget_exhausted."""

    outcome: str
    proof: Proof | None
    budget: int
    nodes: int
    definitive: bool
    stopped_by: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


# ---------------------------------------------------------------------------
# canonical enumeration of terms and formulas by exact token size
# ---------------------------------------------------------------------------


def terms_of_size(size: int, cap: int = 600_000) -> tuple[Term, ...]:
    """Every term of exactly `size` tokens over the variable pool `VAR_POOL`."""
    return _terms_of_size(size, cap, tuple(VAR_POOL))


def formulas_of_size(size: int, cap: int = 600_000) -> tuple[Formula, ...]:
    """Every formula of exactly `size` tokens over the variable pool `VAR_POOL`."""
    return _formulas_of_size(size, cap, tuple(VAR_POOL))


# The pools are cached by the variable pool they are built over, as well as
# by size and cap, so a pool built under one `VAR_POOL` is never served
# under another.  A pool larger than its cap is refused by its count, before
# anything of it is built (the 1-token term pool never is).


@lru_cache(maxsize=None)
def _term_count(size: int, n: int) -> int:
    """How many terms of `size` tokens `_terms_of_size` builds over n names."""
    if size < 2:
        return 1 + n if size == 1 else 0
    pairs = sum(_term_count(a, n) * _term_count(size - 1 - a, n) for a in range(1, size - 1))
    return _term_count(size - 1, n) * (1 + len(_UNARY_FNS)) + pairs * (2 + len(_BINARY_FNS))


@lru_cache(maxsize=None)
def _formula_count(size: int, n: int) -> int:
    """How many formulas of `size` tokens `_formulas_of_size` builds over n
    names: equations, negations, implications, `forall`s, then bounded
    quantifiers."""
    if size < 3:
        return 0
    t, f = _term_count, _formula_count
    return (
        sum(t(a, n) * t(size - 1 - a, n) for a in range(1, size - 1))
        + f(size - 1, n)
        + sum(f(a, n) * f(size - 1 - a, n) for a in range(3, size - 3))
        + n * f(size - 2, n)
        + 2 * n * sum(t(b, n) * f(size - 2 - b, n) for b in range(1, size - 4))
    )


def _check_formula_cap(size: int, cap: int, names: tuple[str, ...]) -> None:
    if _formula_count(size, len(names)) > cap:
        raise PoolCapExceeded(f"formula pool at size {size}")


@lru_cache(maxsize=None)
def _terms_of_size(size: int, cap: int, names: tuple[str, ...]) -> tuple[Term, ...]:
    if size < 1:
        return ()
    if size == 1:
        return (ZERO, *(Var(v) for v in names))
    if _term_count(size, len(names)) > cap:
        raise PoolCapExceeded(f"term pool at size {size}")
    out: list[Term] = []
    for inner in _terms_of_size(size - 1, cap, names):
        out.append(Succ(inner))
        for sym in _UNARY_FNS:
            out.append(DefFn(sym, (inner,)))
    for left_size in range(1, size - 1):
        rights = _terms_of_size(size - 1 - left_size, cap, names)
        for a in _terms_of_size(left_size, cap, names):
            for b in rights:
                out.append(Plus(a, b))
                out.append(Times(a, b))
                for sym in _BINARY_FNS:
                    out.append(DefFn(sym, (a, b)))
    return tuple(out)


@lru_cache(maxsize=None)
def _formulas_of_size(size: int, cap: int, names: tuple[str, ...]) -> tuple[Formula, ...]:
    if size < 3:
        return ()
    _check_formula_cap(size, cap, names)
    equations = (
        Eq(a, b)
        for left_size in range(1, size - 1)
        for a in _terms_of_size(left_size, cap, names)
        for b in _terms_of_size(size - 1 - left_size, cap, names)
    )
    return (*equations, *_compound_formulas(size, cap, names))


def _compound_formulas(size: int, cap: int, names: tuple[str, ...]) -> Iterator[Formula]:
    """The formulas of `_formulas_of_size` whose root is not `=`, in its
    order, built from the pools of smaller sizes."""
    for body in _formulas_of_size(size - 1, cap, names):
        yield Not(body)
    for a_size in range(3, size - 3):
        consequents = _formulas_of_size(size - 1 - a_size, cap, names)
        for a in _formulas_of_size(a_size, cap, names):
            for b in consequents:
                yield Implies(a, b)
    for body in _formulas_of_size(size - 2, cap, names):
        for v in names:
            yield ForAll(v, body)
    for bound_size in range(1, size - 4):
        bounds = _terms_of_size(bound_size, cap, names)
        for body in _formulas_of_size(size - 2 - bound_size, cap, names):
            for v in names:
                for bt in bounds:
                    yield BoundedForAll(v, bt, body)
                    yield BoundedExists(v, bt, body)


@lru_cache(maxsize=None)
def _axiom_candidates(size: int, cap: int, names: tuple[str, ...]) -> tuple[Formula, ...]:
    """The formulas of `_formulas_of_size` that some theory takes as axiom
    lines (`calculus.could_be_axiom`), in that order, built without building
    that pool.

    An equation is a candidate iff it is a sentence or an EQREFL instance:
    EQREFL is the only schema with open instances whose root is `=`.  So a
    closed left term pairs with every closed term of the right size (the
    closed pool, which lists the named pool's closed terms in its order), an
    open one only with itself.  The other root classes are built from the
    pools of smaller sizes and filtered.  The cap counts every formula of
    the size, as `_formulas_of_size` does."""
    if size < 3:
        return ()
    _check_formula_cap(size, cap, names)
    out: list[Formula] = []
    for left_size in range(1, size - 1):
        right_size = size - 1 - left_size
        closed_rights = _terms_of_size(right_size, cap, ())
        for a in _terms_of_size(left_size, cap, names):
            if is_sentence(a):
                out.extend(Eq(a, b) for b in closed_rights)
            elif left_size == right_size:
                out.append(Eq(a, a))
    out.extend(f for f in _compound_formulas(size, cap, names) if could_be_axiom(f))
    return tuple(out)


_AXIOM_POOLS: dict[tuple, tuple[tuple[Formula, Justification], ...]] = {}


def axiom_pool(theory: TheorySpec, size: int, cap: int) -> tuple[tuple[Formula, Justification], ...]:
    """All axiom lines of exactly `size` tokens (schema instances + theory axioms).

    A pool is built in two stages.  The first reads no theory and runs once
    per size, cap and variable pool (`_axiom_candidates`): it lists, in the
    order of `_formulas_of_size`, the formulas some theory could justify --
    every sentence, and every instance of a schema other than COMPUTE, with
    IND on.  It generates the equations among them directly and filters the
    rest from the smaller pools.  It raises `PoolCapExceeded` when all the
    formulas of the size, candidates or not, number more than `cap`; that
    count is computed, not built.  The second runs
    `find_axiom_justification(theory, f)` on those candidates only.  This
    is exact: of the schemata only IND reads the theory (`induction`, which
    the first stage turns on) and COMPUTE (the evaluators), every COMPUTE
    and QAX instance is a sentence, and so is every theory axiom.

    Pools are cached by what decides them -- the theory's extra axioms, its
    (symbol, arity) table, `induction` and the variable pool -- never by its
    name, which two different extensions can share.  This assumes that a
    function symbol of a theory with given axioms has one evaluator meaning,
    so COMPUTE accepts the same equations wherever the key is the same.
    """
    names = tuple(VAR_POOL)
    key = (theory.extra_axioms, tuple(sorted(theory.arities().items())), theory.induction, names, size, cap)
    hit = _AXIOM_POOLS.get(key)
    if hit is not None:
        return hit
    pool: list[tuple[Formula, Justification]] = []
    for f in _axiom_candidates(size, cap, names):
        j = find_axiom_justification(theory, f)
        if j is not None:
            pool.append((f, j))
    result = tuple(pool)
    _AXIOM_POOLS[key] = result
    return result


# ---------------------------------------------------------------------------
# relevance heuristics: instances assembled from the target's own material
# ---------------------------------------------------------------------------


def _subformulas(f: Formula) -> set[Formula]:
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        match g:
            case Not(body):
                stack.append(body)
            case Implies(a, b):
                stack.append(a)
                stack.append(b)
            case ForAll(_, body):
                stack.append(body)
            case BoundedForAll(_, _, body) | BoundedExists(_, _, body):
                stack.append(body)
    return out


def _relevance_instances(theory: TheorySpec, target: Formula, max_size: int) -> list[tuple[Formula, Justification, int]]:
    subf = sorted(_subformulas(target), key=print_formula)
    subt: set[Term] = set()
    for g in subf:
        match g:
            case Eq(a, b):
                subt.update(subterms(a))
                subt.update(subterms(b))
            case BoundedForAll(_, bt, _) | BoundedExists(_, bt, _):
                subt.update(subterms(bt))
    terms = sorted(subt, key=lambda t: (term_size(t), str(t)))
    cands: list[Formula] = []
    for t in terms:
        cands.append(Eq(t, t))
    for a in subf:
        for b in subf:
            cands.append(Implies(a, Implies(b, a)))
            na, nb = Not(a), Not(b)
            cands.append(Implies(Implies(na, nb), Implies(b, a)))
            for c in subf:
                cands.append(
                    Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))
                )
    for g in subf:
        if isinstance(g, ForAll):
            for t in terms:
                cands.append(Implies(g, substitute(g.body, g.var, t)))
    out: list[tuple[Formula, Justification, int]] = []
    seen: set[Formula] = set()
    for f in cands:
        size = formula_size(f)
        if f in seen or size > max_size:
            continue
        seen.add(f)
        j = find_axiom_justification(theory, f)
        if j is not None:
            out.append((f, j, size))
    return out


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------


class _NodeCapHit(Exception):
    pass


def enumerate_proofs(
    theory: TheorySpec,
    target: Formula,
    size_budget: int,
    limits: SearchLimits | None = None,
) -> SearchReport:
    """Search every proof of `target` with total size <= size_budget."""
    limits = limits or SearchLimits()
    tsize = formula_size(target)
    state = {"nodes": 0}
    stopped: set[str] = set()

    if tsize > size_budget:
        return SearchReport(NONE, None, size_budget, 0, True)

    max_prefix_line = size_budget - tsize - 1
    # Lines and candidates are (formula, justification, size) triples.
    # Complete axiom pools, one per admissible prefix-line size:
    pools: dict[int, tuple[tuple[Formula, Justification, int], ...]] = {}
    for s in range(3, max_prefix_line + 1):
        if s > MAX_POOL_LINE_SIZE:
            stopped.add("line_size")
            continue
        try:
            pools[s] = tuple((f, j, s) for f, j in axiom_pool(theory, s, limits.pool_cap))
        except PoolCapExceeded:
            stopped.add("pool_cap")

    rel = _relevance_instances(theory, target, max_prefix_line)

    def closures(lines: list[tuple[Formula, Justification, int]], max_size: int, bodies: set[Formula]):
        for i, (g, _, _) in enumerate(lines):
            if isinstance(g, Implies) and formula_size(g.consequent) <= max_size:
                k = index.first.get(g.antecedent)
                if k is not None:
                    yield g.consequent, MPJust(i, k), formula_size(g.consequent)
        for i, (g, _, gsize) in enumerate(lines):
            if gsize + 2 > max_size:
                continue
            for v in VAR_POOL:
                yield ForAll(v, g), GenJust(i, v), gsize + 2
            room = max_size - gsize - 2
            for bsize in range(1, room + 1):
                try:
                    bts = terms_of_size(bsize, limits.pool_cap)
                except PoolCapExceeded:
                    stopped.add("pool_cap")
                    continue
                if gsize + 2 + bsize > max_size - 4 and g not in bodies:
                    # a block of leaves, counted and not built (see above)
                    yield None, len(bts) * len(VAR_POOL), gsize + 2 + bsize
                    continue
                for bt in bts:
                    for v in VAR_POOL:
                        yield BoundedForAll(v, bt, g), BGenJust(i, v, bt), gsize + 2 + bsize

    # the target and the theory are the same at every node, so the target is
    # checked against the axioms once, at the root; every other node tries
    # only the rules, and only when its newest line can be cited (see above)
    target_axiom = find_axiom_justification(theory, target)
    body = target.body if isinstance(target, (ForAll, BoundedForAll)) else None
    target_bodies = {body.body} if type(body) is BoundedForAll else set()
    check_limit = size_budget - tsize - 1  # a child with more used cannot fit the target
    leaf_limit = size_budget - tsize - 5  # a child with more used has no room for a line
    found: list[Proof] = []
    index = LineIndex()  # the current path's formulas, which never repeat

    def expand(lines: list[tuple[Formula, Justification, int]], used: int) -> bool:
        """Visit every child of the inner node the index holds: count it,
        check the target on it, and expand it in turn unless it is a leaf."""
        sep = 1 if lines else 0
        room = size_budget - used - sep - (tsize + 1)
        cites = {index.lines[j].antecedent for j in index.implications.get(target, ())}
        # the bodies g for which a `forall<= v b g` may equal a line met
        # before the generalizations, or be checked; the loop adds those met
        bodies = {g.body for g in (*index.first, *cites) if type(g) is BoundedForAll} | target_bodies

        def candidates():
            # cheap, targeted material first so a "found" surfaces quickly;
            # closure lines last (they fan out widest).  Order never affects
            # the definitive outcomes, only how fast a witness is reached.
            for line in rel:
                if line[2] <= room:
                    yield line
            for s in range(3, room + 1):
                yield from pools.get(s, ())
            yield from closures(lines, room, bodies)

        seen = set(index.first)
        for line in candidates():
            f = line[0]
            if f is None:
                state["nodes"] += line[1]
                if state["nodes"] > limits.node_cap:
                    state["nodes"] = limits.node_cap + 1
                    raise _NodeCapHit
                continue
            if f in seen:
                continue
            seen.add(f)
            if type(f) is BoundedForAll and type(line[1]) is not BGenJust:
                bodies.add(f.body)
            state["nodes"] += 1
            if state["nodes"] > limits.node_cap:
                raise _NodeCapHit
            cused = used + sep + line[2]
            check = cused <= check_limit and (
                (type(f) is Implies and f.consequent == target) or f in cites or (body is not None and f == body)
            )
            if check or cused <= leaf_limit:
                index.add(f)
                j = index.justify(target, None) if check else None
                if j is not None:
                    prefix = tuple(ProofLine(g, jj) for g, jj, _ in lines)
                    found.append(Proof(prefix + (ProofLine(f, line[1]), ProofLine(target, j))))
                    return True
                if cused <= leaf_limit and expand(lines + [line], cused):
                    return True
                index.pop()
        return False

    try:
        # the root: no lines, no separator, and the target fits the budget
        state["nodes"] += 1
        if state["nodes"] > limits.node_cap:
            raise _NodeCapHit
        if target_axiom is not None:
            found.append(Proof((ProofLine(target, target_axiom),)))
            ok = True
        else:
            ok = size_budget - (tsize + 1) >= 3 and expand([], 0)
    except _NodeCapHit:
        ok = False
        stopped.add("node_cap")

    if ok:
        return SearchReport(FOUND, found[0], size_budget, state["nodes"], True)
    # variable-pool guard: renaming into 16 names must be possible
    if max_prefix_line + len(free_variables(target)) > len(VAR_POOL):
        stopped.add("var_pool")
    if stopped:
        causes = tuple(c for c in STOP_CAUSES if c in stopped)
        return SearchReport(BUDGET_EXHAUSTED, None, size_budget, state["nodes"], False, causes)
    return SearchReport(NONE, None, size_budget, state["nodes"], True)


# ---------------------------------------------------------------------------
# language levels and shortest proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    """Decision for `phi in L_k` (proof of size <= size(phi)^k exists); the
    bound size^k is computed in full on each read of `bound`.  Unless phi is
    a member, `stopped_by` is the search's, after "desk_cap" when the search
    ran below the bound."""

    member: bool | None
    definitive: bool
    outcome: str
    size: int
    k: int
    effective_bound: int
    proof: Proof | None = None
    stopped_by: tuple[str, ...] = ()

    @property
    def bound(self) -> int:
        return self.size**self.k


def l_k_membership(
    theory: TheorySpec,
    phi: Formula,
    k: int,
    desk_cap: int = 24,
    limits: SearchLimits | None = None,
) -> MembershipReport:
    """Decide phi in L_k, honestly degrading when the bound exceeds the desk cap.

    found            -> member True (a witness proof is returned)
    none at full bound -> member False
    anything else    -> member None (the desk could not decide)
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    size = formula_size(phi)
    bound = power_capped(size, k, desk_cap)  # desk_cap + 1 past the cap
    effective = min(bound, desk_cap)
    r = enumerate_proofs(theory, phi, effective, limits=limits)
    if r.outcome == FOUND:
        return MembershipReport(True, True, r.outcome, size, k, effective, r.proof)
    if r.outcome == NONE and effective == bound:
        return MembershipReport(False, True, r.outcome, size, k, effective)
    stopped_by = (("desk_cap",) if effective < bound else ()) + r.stopped_by
    return MembershipReport(None, False, r.outcome, size, k, effective, stopped_by=stopped_by)


def shortest_proof_length(
    theory: TheorySpec,
    phi: Formula,
    max_budget: int,
    limits: SearchLimits | None = None,
) -> tuple[int | None, bool]:
    """(length of a shortest proof within max_budget or None, definitive flag).

    Iterative deepening: budgets below a found proof that all came back
    `none` make the length exact; any budget_exhausted along the way keeps
    the result honest but non-definitive.
    """
    if max_budget < 1:
        raise ValueError("the size cap must be >= 1")
    definitive = True
    for budget in range(formula_size(phi), max_budget + 1):
        r = enumerate_proofs(theory, phi, budget, limits=limits)
        if r.outcome == FOUND:
            assert r.proof is not None
            return proof_size(r.proof), definitive
        if r.outcome == BUDGET_EXHAUSTED:
            definitive = False
    return None, definitive


# ---------------------------------------------------------------------------
# consistency regeneration chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLevel:
    theory_name: str
    con_sentence: Formula
    con_code: int
    con_size: int
    next_level_one_line_ok: bool
    self_search: SearchReport


SELF_SEARCH_MARGIN = 6


def regeneration_chain(depth: int = 3, m: int = 8, limits: SearchLimits | None = None) -> list[ChainLevel]:
    """Climb depth levels: T_{i+1} = T_i + Con_{T_i}(m), with receipts.

    At each level: the consistency sentence for the current theory (its own
    provability symbol), a one-line proof of it accepted at the next level,
    and an exhaustive search showing the current level has no proof of its
    own sentence within size(con) + SELF_SEARCH_MARGIN.  `chain_holds`
    judges the result.
    """
    if not 1 <= depth < len(PROVER_CHAIN):
        raise ValueError(f"depth must be in 1..{len(PROVER_CHAIN) - 1}")
    levels: list[ChainLevel] = []
    theory = standard_theory()
    for i in range(depth):
        sym = PROVER_CHAIN[i]
        con = con_bounded(theory, m, symbol=sym)
        csize = formula_size(con)
        self_search = enumerate_proofs(theory, con, csize + SELF_SEARCH_MARGIN, limits=limits)
        nxt = extend_with_axiom(theory, con, PROVER_CHAIN[i + 1], name=f"{theory.name}+c{i + 1}")
        one_line = Proof((ProofLine(con, TheoryAxiomJust(len(nxt.extra_axioms))),))
        ok = proof_of(nxt, one_line, con).ok and check_stored_proof(nxt, one_line).ok
        levels.append(ChainLevel(theory.name, con, encode_formula(con), csize, ok, self_search))
        theory = nxt
    return levels


def chain_holds(levels: list[ChainLevel]) -> bool:
    """The chain's verdict: its consistency sentences are pairwise distinct,
    each is accepted at the next level by a one-line proof, and each level's
    search for a proof of its own sentence ends `none`, definitively."""
    return (
        len({lv.con_code for lv in levels}) == len(levels)
        and all(lv.next_level_one_line_ok for lv in levels)
        and all(lv.self_search.outcome == NONE and lv.self_search.definitive for lv in levels)
    )
