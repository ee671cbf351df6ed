"""Seeded corpora: random formulas, machine-derived theorems, clause sets.

Everything here is driven by an explicit random.Random instance so suites are
reproducible run to run.  Generators are deliberately small-valued: corpus
items are meant for exhaustive cross-checking (truth tables, bounded search,
naive evaluation), not for stress size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .calculus import TheorySpec, robinson_axioms
from .derivations import Builder
from .goedel import provability_formula
from .propositional import ClauseSet, Input, Resolve, ResolutionProof
from .reference import closed_term_value
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
    ZERO,
    free_variables,
    numeral,
    substitute,
)
from .verifier import Proof

_FRESH_POOL = ("y", "z", "u", "v", "w", "p")


def random_closed_term(rng: random.Random, depth: int = 2, value_cap: int = 60) -> Term:
    """Closed base term (no definitional symbols) with a small value."""
    for _ in range(50):
        t = _rand_term(rng, depth, scope=())
        if closed_term_value(t) <= value_cap:
            return t
    return numeral(rng.randrange(0, 3))


def _rand_term(rng: random.Random, depth: int, scope: tuple[str, ...]) -> Term:
    choices = ["zero", "num", "succ"]
    if scope:
        choices += ["var", "var"]
    if depth > 0:
        choices += ["plus", "times", "succ"]
    match rng.choice(choices):
        case "zero":
            return ZERO
        case "num":
            return numeral(rng.randrange(0, 4))
        case "var":
            return Var(rng.choice(scope))
        case "succ":
            return Succ(_rand_term(rng, depth - 1, scope))
        case "plus":
            return Plus(_rand_term(rng, depth - 1, scope), _rand_term(rng, depth - 1, scope))
        case "times":
            return Times(_rand_term(rng, depth - 1, scope), _rand_term(rng, depth - 1, scope))
    raise AssertionError


def random_delta0_sentence(rng: random.Random, depth: int = 3, bound_cap: int = 4) -> Formula:
    """Closed Delta0 sentence over the base language (no definitional symbols)."""
    return _rand_delta0(rng, depth, scope=(), bound_cap=bound_cap)


def _rand_delta0(rng: random.Random, depth: int, scope: tuple[str, ...], bound_cap: int) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return Eq(_rand_term(rng, 1, scope), _rand_term(rng, 1, scope))
    match rng.choice(["not", "imp", "imp", "ball", "bex"]):
        case "not":
            return Not(_rand_delta0(rng, depth - 1, scope, bound_cap))
        case "imp":
            return Implies(
                _rand_delta0(rng, depth - 1, scope, bound_cap),
                _rand_delta0(rng, depth - 1, scope, bound_cap),
            )
        case kind:
            fresh = next((v for v in _FRESH_POOL if v not in scope), None)
            if fresh is None:
                return Eq(_rand_term(rng, 1, scope), _rand_term(rng, 1, scope))
            bound: Term = numeral(rng.randrange(0, bound_cap + 1))
            body = _rand_delta0(rng, depth - 1, scope + (fresh,), bound_cap)
            ctor = BoundedForAll if kind == "ball" else BoundedExists
            return ctor(fresh, bound, body)


def random_delta0_single_var(rng: random.Random) -> Formula:
    """Delta0 formula of depth at most 2 whose free variables are exactly
    {x}; bounds are the numerals 0..3 or the variable x itself (the shape
    the propositional translation accepts)."""
    for _ in range(200):
        f = _rand_delta0_x(rng, 2, ("x",))
        if free_variables(f) == {"x"}:
            return f
    return Eq(Var("x"), Var("x"))


def _rand_delta0_x(rng: random.Random, depth: int, scope: tuple[str, ...]) -> Formula:
    if depth <= 0 or rng.random() < 0.45:
        return Eq(_rand_term(rng, 1, scope), _rand_term(rng, 1, scope))
    match rng.choice(["not", "imp", "ball", "bex"]):
        case "not":
            return Not(_rand_delta0_x(rng, depth - 1, scope))
        case "imp":
            return Implies(_rand_delta0_x(rng, depth - 1, scope), _rand_delta0_x(rng, depth - 1, scope))
        case kind:
            fresh = next((v for v in _FRESH_POOL if v not in scope and v != "x"), None)
            if fresh is None:
                return Eq(_rand_term(rng, 1, scope), _rand_term(rng, 1, scope))
            if rng.random() < 0.4:
                bound: Term = Var("x")
            else:
                bound = numeral(rng.randrange(0, 4))
            body = _rand_delta0_x(rng, depth - 1, scope + (fresh,))
            ctor = BoundedForAll if kind == "ball" else BoundedExists
            return ctor(fresh, bound, body)


# ---------------------------------------------------------------------------
# machine-derived theorems (all conclusions closed Delta0 truths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremSample:
    formula: Formula
    proof: Proof
    strategy: str


def _closed_axiom_instance(b: Builder, rng: random.Random) -> int:
    """Pick a base arithmetic axiom and strip its quantifiers at random
    closed terms (each step: universal-instantiation axiom + detachment)."""
    axs = robinson_axioms()
    idx = rng.choice([0, 1, 3, 4, 5, 6])  # axiom 2 instantiates to a non-Delta0 shape
    cur = b.axiom("QAX", axs[idx])
    f = b.formula_at(cur)
    while isinstance(f, ForAll):
        t = random_closed_term(rng, depth=1, value_cap=20)
        inst = substitute(f.body, f.var, t)
        ax = b.axiom("Q1", Implies(f, inst), term=t)
        cur = b.mp(ax, cur)
        f = b.formula_at(cur)
    return cur


def _true_equation(rng: random.Random) -> Eq:
    t = random_closed_term(rng, depth=2)
    v = closed_term_value(t)
    if rng.random() < 0.5:
        return Eq(t, numeral(v))
    u = random_closed_term(rng, depth=1, value_cap=20)
    return Eq(Plus(t, u), numeral(v + closed_term_value(u)))


def derived_theorem_corpus(theory: TheorySpec, rng: random.Random, count: int) -> list[TheoremSample]:
    """Forward-derived proofs whose conclusions are closed Delta0 sentences.

    Every sample's proof is built by the derivation templates, so each one
    exercises the checker on a different mix of rule applications."""
    out: list[TheoremSample] = []
    strategies = ["compute", "eqrefl", "robinson", "identity", "dne", "conj", "chain"]
    while len(out) < count:
        b = Builder(theory)
        strat = rng.choice(strategies)
        match strat:
            case "compute":
                i = b.compute(_true_equation(rng))
            case "eqrefl":
                t = random_closed_term(rng, depth=2)
                i = b.axiom("EQREFL", Eq(t, t), term=t)
            case "robinson":
                i = _closed_axiom_instance(b, rng)
            case "identity":
                phi = random_delta0_sentence(rng, depth=2)
                i = b.identity(phi)
            case "dne":
                phi = random_delta0_sentence(rng, depth=1)
                i = b.dne(phi)
            case "conj":
                p = b.compute(_true_equation(rng))
                q = b.compute(_true_equation(rng))
                i = b.and_intro(p, q)
            case "chain":
                # psi, psi -> (phi -> psi), detach: conclusion phi -> psi
                p = b.compute(_true_equation(rng))
                q = b.compute(_true_equation(rng))
                ax = b.axiom("P1", Implies(b.formula_at(q), Implies(b.formula_at(p), b.formula_at(q))))
                i = b.mp(ax, q)
            case _:
                raise AssertionError
        out.append(TheoremSample(b.formula_at(i), b.proof(i), strat))
    return out


# ---------------------------------------------------------------------------
# membership-query corpus (small formulas, quick definitive verdicts)
# ---------------------------------------------------------------------------


def membership_formula_corpus(rng: random.Random, count: int) -> list[Formula]:
    """Small formulas for proof-size-class queries: a mix of instant theorems
    (axiom instances), small falsities, and small non-axiom truths."""
    out: list[Formula] = []
    while len(out) < count:
        match rng.choice(["taut", "eqrefl", "false_eq", "true_eq", "imp", "neg"]):
            case "taut":
                t = random_closed_term(rng, depth=0)
                a = Eq(t, t)
                out.append(Implies(a, a))
            case "eqrefl":
                t = random_closed_term(rng, depth=1, value_cap=8)
                out.append(Eq(t, t))
            case "false_eq":
                n = rng.randrange(0, 3)
                out.append(Eq(numeral(n), numeral(n + rng.randrange(1, 3))))
            case "true_eq":
                n = rng.randrange(0, 3)
                m = rng.randrange(0, 2)
                out.append(Eq(Plus(numeral(n), numeral(m)), numeral(n + m)))
            case "imp":
                t = random_closed_term(rng, depth=0)
                u = random_closed_term(rng, depth=0)
                out.append(Implies(Eq(t, t), Eq(u, u)))
            case "neg":
                n = rng.randrange(0, 2)
                out.append(Not(Eq(numeral(n), numeral(n + 1))))
    return out


# ---------------------------------------------------------------------------
# diagonalization shapes
# ---------------------------------------------------------------------------


def diagonal_shapes(theory: TheorySpec) -> list[Formula]:
    """Formulas whose one free variable is x, suitable as fixed-point
    inputs; includes the bounded-provability shape and its negation."""
    x = Var("x")
    shapes: list[Formula] = [
        Eq(x, x),
        Eq(x, ZERO),
        Eq(Succ(x), x),
        Eq(Plus(x, x), Times(x, x)),
        Eq(Plus(x, numeral(1)), Succ(x)),
        Not(Eq(x, ZERO)),
        Not(Not(Eq(x, x))),
        Implies(Eq(x, ZERO), Eq(x, x)),
        Implies(Eq(x, x), Eq(ZERO, ZERO)),
        Implies(Not(Eq(x, ZERO)), Eq(x, x)),
        BoundedForAll("y", x, Eq(Var("y"), Var("y"))),
        BoundedExists("y", x, Eq(Plus(Var("y"), Var("y")), x)),
        BoundedForAll("y", numeral(2), Eq(Times(Var("y"), x), Times(x, Var("y")))),
        BoundedExists("y", Plus(x, numeral(1)), Eq(Var("y"), x)),
        Eq(DefFn("len", (x,)), x),
        Eq(DefFn("sub", (x, x)), DefFn("diag", (x,))),
        Eq(DefFn("dbl", (x,)), Plus(x, x)),
        Not(Eq(DefFn("le", (x, numeral(3))), Succ(ZERO))),
    ]
    shapes += [provability_formula(theory, m) for m in (1, 2, 4, 6)]
    shapes += [Not(provability_formula(theory, m)) for m in (2, 6)]
    for s in shapes:
        assert free_variables(s) == {"x"}, s
    return shapes


# ---------------------------------------------------------------------------
# clause sets and resolution-proof mutation
# ---------------------------------------------------------------------------


def random_clause_set(rng: random.Random, max_vars: int = 6, max_clauses: int = 8) -> ClauseSet:
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(n), width)
        clauses.append(frozenset((v + 1) if rng.random() < 0.5 else -(v + 1) for v in vs))
    return ClauseSet(tuple(clauses), n)


def mutate_resolution_proof(rng: random.Random, proof: ResolutionProof) -> ResolutionProof:
    """One random structural mutation; the result is usually invalid, and an
    independent replay decides which (callers must re-validate)."""
    steps = list(proof.steps)
    if not steps:
        return ResolutionProof((Resolve(0, 0, 0),))
    match rng.choice(["pivot", "swap", "index", "drop", "input", "truncate"]):
        case "pivot":
            idx = rng.randrange(len(steps))
            s = steps[idx]
            if isinstance(s, Resolve):
                steps[idx] = Resolve(s.left, s.right, s.pivot + rng.randint(1, 3))
            else:
                steps[idx] = Resolve(0, 0, 99)
        case "swap":
            idx = rng.randrange(len(steps))
            s = steps[idx]
            if isinstance(s, Resolve):
                steps[idx] = Resolve(s.right, s.left, s.pivot)
            else:
                steps.insert(idx, Resolve(idx, idx, 0))
        case "index":
            idx = rng.randrange(len(steps))
            s = steps[idx]
            if isinstance(s, Resolve):
                steps[idx] = Resolve(s.left + len(steps), s.right, s.pivot)
            else:
                steps[idx] = Input(10_000 + idx)
        case "drop":
            steps.pop(rng.randrange(len(steps)))
        case "input":
            steps.insert(rng.randrange(len(steps) + 1), Input(rng.randrange(-3, 50)))
        case "truncate":
            steps = steps[: rng.randrange(len(steps))]
    return ResolutionProof(tuple(steps))
