"""The line index against the scan it replaced.

`calculus.LineIndex` finds modus ponens and (bounded) generalization by
dict lookups; the scan it replaced went over the earlier lines, and pairs
of them, for the same rule.  Line by line, on every prefix of each proof
below, the index must return the scan's justification and count the scan's
`lines_scanned` and `pair_searches`: the positions its first-match rule
passes over.  `_counting_scan` is that scan, kept verbatim here with the
two counts as their reference; `test_search_reference` searches by it too.  `LineIndex.pop` must leave the index it
would be if built afresh from the lines left."""

import random

import pytest
from test_print_reference import CERTIFY_CHAIN_POINTS

from proofforge.bench import mp_chain
from proofforge.calculus import BGenJust, Cost, GenJust, LineIndex, MPJust
from proofforge.corpus import derived_theorem_corpus, diagonal_shapes
from proofforge.goedel import diagonalize, refutation_target, standard_theory
from proofforge.syntax import (
    ZERO,
    BoundedForAll,
    Eq,
    ForAll,
    Implies,
    Not,
    Succ,
    Var,
    equal,
    numeral,
)

THEORY = standard_theory()


def _counting_scan(f, earlier):
    """(justification, lines_scanned, pair_searches) of the scan."""
    scanned = pairs = 0
    for j, big in enumerate(earlier):
        scanned += 1
        if isinstance(big, Implies) and equal(big.consequent, f):
            for k, g in enumerate(earlier):
                pairs += 1
                if equal(g, big.antecedent):
                    return MPJust(j, k), scanned, pairs
    if isinstance(f, (ForAll, BoundedForAll)):
        for j, g in enumerate(earlier):
            scanned += 1
            if equal(g, f.body):
                return (GenJust(j, f.var) if isinstance(f, ForAll) else BGenJust(j, f.var, f.bound)), scanned, pairs
    return None, scanned, pairs


def _assert_index_is_the_scan(formulas):
    __tracebackhide__ = True
    index = LineIndex()
    for i, f in enumerate(formulas):
        earlier = formulas[:i]
        want = _counting_scan(f, earlier)
        cost = Cost()
        assert (index.justify(f, cost), cost.lines_scanned, cost.pair_searches) == want, i
        assert index.justify(f, None) == want[0], i
        index.add(f)


def _formulas(proof):
    return [ln.formula for ln in proof.lines]


def _mutations(rng, formulas, count):
    """Seeded copies of the lines with one line dropped, one duplicated to
    another position, or two swapped."""
    out = []
    for _ in range(count):
        fs = list(formulas)
        i, j = rng.randrange(len(fs)), rng.randrange(len(fs))
        kind = rng.choice(("drop", "duplicate", "swap"))
        if kind == "drop" and len(fs) > 1:
            del fs[i]
        elif kind == "duplicate":
            fs.insert(j, fs[i])
        else:
            fs[i], fs[j] = fs[j], fs[i]
        out.append(fs)
    return out


@pytest.fixture(scope="module")
def derived():
    return [_formulas(s.proof) for s in derived_theorem_corpus(THEORY, random.Random(31), 300)]


@pytest.fixture(scope="module")
def certificates():
    return [_formulas(diagonalize(THEORY, psi).equivalence) for psi in diagonal_shapes(THEORY)]


def test_index_is_the_scan_on_the_certify_chains_and_rejects():
    for k, m in CERTIFY_CHAIN_POINTS:
        chain = _formulas(mp_chain(THEORY, k, m)[0])
        _assert_index_is_the_scan(chain)
        _assert_index_is_the_scan(chain + [refutation_target()])


def test_index_is_the_scan_on_derived_proofs(derived):
    assert len(derived) == 300
    for formulas in derived:
        _assert_index_is_the_scan(formulas)


def test_index_is_the_scan_on_the_fixed_point_certificates(certificates):
    assert len(certificates) == 24
    for formulas in certificates:
        _assert_index_is_the_scan(formulas)


def test_index_is_the_scan_on_mutated_proofs(derived, certificates):
    rng = random.Random(3131)
    for formulas in derived + certificates:
        for mutated in _mutations(rng, formulas, 3):
            _assert_index_is_the_scan(mutated)


def test_index_takes_the_scans_first_match_on_hand_built_proofs():
    a, b, c = Eq(ZERO, ZERO), Eq(numeral(1), numeral(1)), Eq(numeral(2), ZERO)
    ab, cb = Implies(a, b), Implies(c, b)
    x = Var("x")
    body = Eq(x, x)
    cases = [
        # the implication before its antecedent
        ([ab, a, b], MPJust(0, 1), 1, 2),
        # the first consequent match lacks its antecedent, so the next one
        # is taken: lines_scanned is its position, and the miss costs a
        # full pass of pair searches before the hit's
        ([cb, ab, a, b], MPJust(1, 2), 2, 3 + 3),
        # duplicate lines: the first of each is taken
        ([a, a, ab, ab, b], MPJust(2, 0), 3, 1),
        ([cb, ab, cb, a, a, b], MPJust(1, 3), 2, 5 + 4),
        # an antecedent that is the line itself is not earlier
        ([Implies(a, a), a], None, 1, 1),
        # no implication matches: a full pass, then generalization's
        ([body, a, body, ForAll("x", body)], GenJust(0, "x"), 3 + 1, 0),
        ([a, Not(a), BoundedForAll("x", Succ(x), body)], None, 2 + 2, 0),
        ([a, body, body, BoundedForAll("x", Succ(x), body)], BGenJust(1, "x", Succ(x)), 3 + 2, 0),
        # modus ponens first, though generalization would also hold
        ([body, Implies(a, ForAll("x", body)), a, ForAll("x", body)], MPJust(1, 2), 2, 3),
    ]
    for lines, justification, scanned, pairs in cases:
        _assert_index_is_the_scan(lines)
        index = LineIndex()
        for f in lines[:-1]:
            index.add(f)
        cost = Cost()
        assert (index.justify(lines[-1], cost), cost.lines_scanned, cost.pair_searches) == (justification, scanned, pairs)


def _assert_pop_undoes_add(rng, formulas):
    """A seeded walk of adds and pops over the formulas: after every step
    the index is the one built afresh from its lines, and justifies as the
    scan does over them."""
    __tracebackhide__ = True
    index = LineIndex()
    for _ in range(3 * len(formulas)):
        if index.lines and rng.random() < 0.4:
            index.pop()
        else:
            index.add(rng.choice(formulas))
        fresh = LineIndex()
        for g in index.lines:
            fresh.add(g)
        assert (index.lines, index.first, index.implications) == (fresh.lines, fresh.first, fresh.implications)
        f = rng.choice(formulas)
        cost = Cost()
        want = _counting_scan(f, index.lines)
        assert (index.justify(f, cost), cost.lines_scanned, cost.pair_searches) == want
    while index.lines:
        index.pop()
    assert (index.first, index.implications) == ({}, {})


def test_pop_undoes_add(derived):
    rng = random.Random(3232)
    for k, m in CERTIFY_CHAIN_POINTS:
        _assert_pop_undoes_add(rng, _formulas(mp_chain(THEORY, k, m)[0]))
    for formulas in derived:
        _assert_pop_undoes_add(rng, formulas)
    a, b = Eq(ZERO, ZERO), Eq(numeral(1), numeral(1))
    ab = Implies(a, b)
    x = Var("x")
    body = Eq(x, x)
    _assert_pop_undoes_add(rng, [a, a, ab, ab, b, body, ForAll("x", body), Implies(body, b), Implies(body, b)])
