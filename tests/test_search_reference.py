"""The proof search checks leaves in their parent's loop and looks for the
target only where the newest line can be cited.

`enumerate_proofs` is compared with the search it replaced, kept here as a
reference: one `dfs` call per node, each rebuilding its line list and
looking for the target over every line by the scan that `LineIndex`
replaced (`test_rule_index_reference._counting_scan`).  Both must visit the same nodes in the same order, so outcome,
node count and proof are compared.

The reference takes its relevance instances from `bounded`, so
`_relevance_instances` is compared on its own with the version that built
every candidate and then dropped those too large."""

import random

from test_rule_index_reference import _counting_scan

from proofforge import bounded
from proofforge.bounded import SearchLimits, SearchReport, enumerate_proofs
from proofforge.calculus import (
    BGenJust,
    GenJust,
    MPJust,
    Proof,
    ProofLine,
    find_axiom_justification,
    print_proof_text,
)
from proofforge.corpus import membership_formula_corpus, random_delta0_sentence
from proofforge.goedel import extend_with_axiom, refutation_target, standard_theory
from proofforge.syntax import (
    BoundedExists,
    BoundedForAll,
    Eq,
    ForAll,
    Implies,
    Not,
    formula_size,
    free_variables,
    parse_formula,
    print_formula,
    substitute,
    subterms,
    term_size,
)

Q = standard_theory()
DESK_LIMITS = SearchLimits(node_cap=4_000)


# --- the search as it was ------------------------------------------------------


class _NodeCapHit(Exception):
    pass


def reference_search(theory, target, size_budget, limits=None):
    limits = limits or SearchLimits()
    tsize = formula_size(target)
    state = {"nodes": 0, "capped": False}

    if tsize > size_budget:
        return SearchReport(bounded.NONE, None, size_budget, 0, True)

    max_prefix_line = size_budget - tsize - 1
    pools = {}
    for s in range(3, max_prefix_line + 1):
        if s > bounded.MAX_POOL_LINE_SIZE:
            state["capped"] = True
            continue
        try:
            pools[s] = tuple((f, j, s) for f, j in bounded.axiom_pool(theory, s, limits.pool_cap))
        except bounded.PoolCapExceeded:
            state["capped"] = True

    rel = bounded._relevance_instances(theory, target, max_prefix_line)

    def closures(lines, max_size):
        for i, (g, _, _) in enumerate(lines):
            if isinstance(g, Implies) and formula_size(g.consequent) <= max_size:
                for k, (h, _, _) in enumerate(lines):
                    if h == g.antecedent:
                        yield g.consequent, MPJust(i, k), formula_size(g.consequent)
        for i, (g, _, gsize) in enumerate(lines):
            if gsize + 2 > max_size:
                continue
            for v in bounded.VAR_POOL:
                yield ForAll(v, g), GenJust(i, v), gsize + 2
            room = max_size - gsize - 2
            for bsize in range(1, room + 1):
                try:
                    bts = bounded.terms_of_size(bsize, limits.pool_cap)
                except bounded.PoolCapExceeded:
                    state["capped"] = True
                    continue
                for bt in bts:
                    for v in bounded.VAR_POOL:
                        yield BoundedForAll(v, bt, g), BGenJust(i, v, bt), gsize + 2 + bsize

    target_axiom = find_axiom_justification(theory, target)
    found = []

    def dfs(lines, used):
        state["nodes"] += 1
        if state["nodes"] > limits.node_cap:
            raise _NodeCapHit
        sep = 1 if lines else 0
        formulas = [f for f, _, _ in lines]
        if used + sep + tsize <= size_budget:
            j = target_axiom or _counting_scan(target, formulas)[0]
            if j is not None:
                all_lines = tuple(ProofLine(f, jj) for f, jj, _ in lines) + (ProofLine(target, j),)
                found.append(Proof(all_lines))
                return True
        room = size_budget - used - sep - (tsize + 1)
        if room < 3:
            return False

        def candidates():
            for line in rel:
                if line[2] <= room:
                    yield line
            for s in range(3, room + 1):
                yield from pools.get(s, ())
            yield from closures(lines, room)

        seen = set(formulas)
        for line in candidates():
            f = line[0]
            if f in seen:
                continue
            seen.add(f)
            if dfs(lines + [line], used + sep + line[2]):
                return True
        return False

    try:
        ok = dfs([], 0)
    except _NodeCapHit:
        ok = False
        state["capped"] = True

    if ok:
        return SearchReport(bounded.FOUND, found[0], size_budget, state["nodes"], True)
    if state["capped"]:
        return SearchReport(bounded.BUDGET_EXHAUSTED, None, size_budget, state["nodes"], False)
    if max_prefix_line + len(free_variables(target)) > len(bounded.VAR_POOL):
        return SearchReport(bounded.BUDGET_EXHAUSTED, None, size_budget, state["nodes"], False)
    return SearchReport(bounded.NONE, None, size_budget, state["nodes"], True)


def reference_relevance_candidates(target):
    """Every candidate `_relevance_instances` considers for the target, of
    any size, in its order."""
    subf = sorted(bounded._subformulas(target), key=print_formula)
    subt = set()
    for g in subf:
        match g:
            case Eq(a, b):
                subt.update(subterms(a))
                subt.update(subterms(b))
            case BoundedForAll(_, bt, _) | BoundedExists(_, bt, _):
                subt.update(subterms(bt))
    terms = sorted(subt, key=lambda t: (term_size(t), str(t)))
    cands = [Eq(t, t) for t in terms]
    for a in subf:
        for b in subf:
            cands.append(Implies(a, Implies(b, a)))
            cands.append(Implies(Implies(Not(a), Not(b)), Implies(b, a)))
            for c in subf:
                cands.append(Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c))))
    for g in subf:
        if isinstance(g, ForAll):
            for t in terms:
                cands.append(Implies(g, substitute(g.body, g.var, t)))
    return cands


def reference_relevance_instances(theory, cands, max_size):
    out, seen = [], set()
    for f in cands:
        size = formula_size(f)
        if f in seen or size > max_size:
            continue
        seen.add(f)
        j = find_axiom_justification(theory, f)
        if j is not None:
            out.append((f, j, size))
    return out


# --- the comparison ------------------------------------------------------------


def _seen(r):
    return (r.outcome, r.definitive, r.nodes, r.proof and print_proof_text(r.proof))


QUANTIFIED_TARGETS = [
    "forall x (x = x)",
    "forall y (x = x)",
    "forall x (0 = 0)",
    "forall x !(0 = S(0))",
    "forall<= x 0 (x = x)",
    "forall<= x S(0) (0 = 0)",
    "forall y forall x (x = x)",
    "exists<= x 0 (x = 0)",
]


def _searches():
    rng = random.Random(18_061)
    targets = membership_formula_corpus(rng, 40) + [parse_formula(t) for t in QUANTIFIED_TARGETS]
    for phi in targets:
        for budget in range(formula_size(phi), 14):
            yield phi, budget, DESK_LIMITS
    for budget in range(3, 12):
        yield refutation_target(), budget, SearchLimits()
    # the first budget at which a modus ponens proof fits is 23
    for budget in range(14, 25):
        yield parse_formula("0 = 0 -> 0 = 0"), budget, DESK_LIMITS


def test_the_search_matches_the_search_it_replaced():
    compared = found = 0
    for phi, budget, limits in _searches():
        new = enumerate_proofs(Q, phi, budget, limits=limits)
        old = reference_search(Q, phi, budget, limits=limits)
        assert _seen(new) == _seen(old), (phi, budget)
        compared += 1
        found += new.outcome == bounded.FOUND
    assert compared >= 300 and found >= 60


def test_a_leaf_may_be_cited_by_an_earlier_implication(monkeypatch):
    # The P1 line is tried first and cites S(0) = 0, which only the pool
    # line after it supplies.  That child is a leaf whose line is neither an
    # implication into the target nor the target's body, so the search must
    # look for the target because an earlier line cites it; otherwise it
    # goes on to THAX 1 and P1 in the other order.
    theory = extend_with_axiom(Q, parse_formula("S(0) = 0"), "prft1")
    target = parse_formula("0 = 0 -> S(0) = 0")
    axiom = parse_formula("S(0) = 0")
    p1 = parse_formula("S(0) = 0 -> 0 = 0 -> S(0) = 0")
    pool_line = (axiom, find_axiom_justification(theory, axiom))
    p1_line = (p1, find_axiom_justification(theory, p1), formula_size(p1))
    monkeypatch.setattr(bounded, "axiom_pool", lambda th, size, cap: (pool_line,) if size == 4 else ())
    monkeypatch.setattr(bounded, "_relevance_instances", lambda th, t, max_size: [p1_line])
    r = enumerate_proofs(theory, target, 27)
    text = "1. S(0) = 0 -> 0 = 0 -> S(0) = 0 ; P1\n2. S(0) = 0 ; THAX 1\n3. 0 = 0 -> S(0) = 0 ; MP 1 2\n"
    assert (r.outcome, r.nodes, print_proof_text(r.proof)) == ("found", 3, text)
    assert _seen(reference_search(theory, target, 27)) == _seen(r)



def test_leaf_generalizations_are_counted_as_the_reference_builds_them(monkeypatch):
    # With no axiom pool and three variable names the search reaches blocks
    # of leaf `forall<=` candidates that hold a path line (budget 30, and
    # !(0 = 0) at 22) or the body that the target's check needs (budgets
    # 19-22): blocks that must be visited one by one.
    monkeypatch.setattr(bounded, "axiom_pool", lambda th, size, cap: ())
    monkeypatch.setattr(bounded, "VAR_POOL", ("x", "y", "z"))
    searches = [("forall z forall y forall<= x 0 0 = 0", 30), ("!(0 = 0)", 22)]
    searches += [("forall y forall<= x 0 (x = x)", budget) for budget in range(19, 23)]
    for text, budget in searches:
        phi = parse_formula(text)
        assert _seen(enumerate_proofs(Q, phi, budget)) == _seen(reference_search(Q, phi, budget)), (text, budget)


def test_a_leaf_generalization_may_equal_a_modus_ponens_consequent(monkeypatch):
    # Below THAX 1 and 0 = 0 the consequent forall<= x 0 (0 = 0) is met
    # first, so the block of leaves forall<= v t (0 = 0) with t of size 1
    # holds a formula already counted.  The node has no room for the last
    # relevance line, which its parent then uses to prove the target.
    imp = parse_formula("0 = 0 -> forall<= x 0 (0 = 0)")
    theory = extend_with_axiom(Q, imp, "prft1")
    lines = (imp, parse_formula("0 = 0"), parse_formula("S(S(S(0))) = S(S(S(0)))"))
    rel = [(f, find_axiom_justification(theory, f), formula_size(f)) for f in lines]
    monkeypatch.setattr(bounded, "axiom_pool", lambda th, size, cap: ())
    monkeypatch.setattr(bounded, "_relevance_instances", lambda th, t, max_size: [ln for ln in rel if ln[2] <= max_size])
    monkeypatch.setattr(bounded, "VAR_POOL", ("x", "y", "z"))
    target = parse_formula("forall y (S(S(S(0))) = S(S(S(0))))")
    for budget in (33, 34, 35):
        r = enumerate_proofs(theory, target, budget)
        assert r.outcome == "found" and _seen(r) == _seen(reference_search(theory, target, budget)), budget


def test_a_closure_candidate_may_equal_a_counted_pool_line():
    # forall x (x = x) is a THAX line of the size-5 pool.  Below the path
    # line x = x that pool is all leaves, so it is counted in blocks, and
    # the generalization of x = x over x is that counted line again
    theory = extend_with_axiom(Q, parse_formula("forall x (x = x)"), "prft1")
    target = parse_formula("0 = S(0)")
    r = enumerate_proofs(theory, target, 14, SearchLimits(node_cap=20_000))
    assert (r.outcome, r.stopped_by, r.nodes) == ("budget_exhausted", ("line_size", "pool_cap"), 10_248)
    assert _seen(r) == _seen(reference_search(theory, target, 14, SearchLimits(node_cap=20_000)))


def test_relevance_instances_match_building_every_candidate():
    rng = random.Random(3_801)
    targets = membership_formula_corpus(rng, 40) + [parse_formula(t) for t in QUANTIFIED_TARGETS]
    targets += [random_delta0_sentence(rng, depth=3, bound_cap=3) for _ in range(40)]
    found = 0
    for target in targets:
        cands = reference_relevance_candidates(target)
        for max_size in range(30):
            got = bounded._relevance_instances(Q, target, max_size)
            assert got == reference_relevance_instances(Q, cands, max_size), (print_formula(target), max_size)
            found += len(got)
    assert found >= 10_000
