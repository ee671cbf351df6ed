"""Mechanical construction of Hilbert-style derivations.

A Builder accumulates proof lines with stored justifications, deduplicating
repeated formulas so shared lemmas (identity, double negation) are derived
once.  Each combinator returns the 0-based index of its conclusion line.
Every added axiom line is matched against its schema eagerly, so a bug in a
template raises at construction time rather than at verification time.

Equal nodes are one object (see `syntax`), so a line is found again by
the id of its formula, and modus ponens checks its premise with `is`.

The centerpiece is `lift`: given closed terms s and u with the same value,
it derives  phi[x:=s] -> phi[x:=u]  along phi's structure — EQSUBST at
atoms, contraposition under negation, monotone composition under
implication, Q2/BQ2A/BQ2E distribution plus (bounded) generalization under
quantifiers, and bound-congruence when the substituted variable occurs in a
quantifier bound.  `equivalence` packages both directions into the
conjunction  !((A -> B) -> !(B -> A)),  the canonical expansion of A <-> B.
"""

from __future__ import annotations

from .calculus import (
    AxiomJust,
    BGenJust,
    GenJust,
    Justification,
    MPJust,
    Proof,
    ProofLine,
    TheorySpec,
    eval_term_in,
    match_schema,
)
from .syntax import (
    BoundedExists,
    BoundedForAll,
    Eq,
    ForAll,
    Formula,
    Implies,
    Not,
    Term,
    free_variables,
    print_formula,
    substitute,
)


class DerivationError(ValueError):
    pass


class Builder:
    """Accumulates a proof; all combinators return line indices."""

    def __init__(self, theory: TheorySpec):
        self.theory = theory
        self._lines: list[ProofLine] = []
        self._index: dict[int, int] = {}  # id of a line's formula -> the line

    # -- line-level primitives ------------------------------------------------

    def _add(self, f: Formula, just: Justification) -> int:
        """Append f unless it is a line already."""
        existing = self._index.get(id(f))
        if existing is not None:
            return existing
        self._lines.append(ProofLine(f, just))
        idx = len(self._lines) - 1
        self._index[id(f)] = idx
        return idx

    def formula_at(self, i: int) -> Formula:
        return self._lines[i].formula

    def axiom(self, schema: str, f: Formula, term: Term | None = None) -> int:
        just = match_schema(self.theory, schema, f)
        if just is None:
            raise DerivationError(f"not an instance of {schema}: {print_formula(f)}")
        if term is not None and schema in ("Q1", "EQREFL"):
            # the caller's instantiation: Q1 holds for any t when x is not free
            just = AxiomJust(schema, term=term)
        return self._add(f, just)

    def compute(self, f: Formula) -> int:
        just = match_schema(self.theory, "COMPUTE", f)
        if just is None:
            raise DerivationError(f"Compute line is not a true closed equation: {print_formula(f)}")
        return self._add(f, just)

    def mp(self, i_impl: int, i_ant: int) -> int:
        big = self.formula_at(i_impl)
        if not isinstance(big, Implies):
            raise DerivationError(f"line {i_impl} is not an implication")
        if big.antecedent is not self.formula_at(i_ant):
            raise DerivationError("modus ponens premise mismatch")
        return self._add(big.consequent, MPJust(i_impl, i_ant))

    def gen(self, i: int, var: str) -> int:
        return self._add(ForAll(var, self.formula_at(i)), GenJust(i, var))

    def bgen(self, i: int, var: str, bound: Term) -> int:
        return self._add(BoundedForAll(var, bound, self.formula_at(i)), BGenJust(i, var, bound))

    def proof(self, conclusion_index: int) -> Proof:
        """Finish, making the conclusion the last line (re-stating it if needed)."""
        if not 0 <= conclusion_index < len(self._lines):
            raise DerivationError("conclusion index out of range")
        if conclusion_index != len(self._lines) - 1:
            src = self._lines[conclusion_index]
            self._lines.append(src)
        return Proof(tuple(self._lines))

    # -- propositional templates ----------------------------------------------

    def identity(self, a: Formula) -> int:
        """|- A -> A"""
        aa = Implies(a, a)
        l1 = self.axiom("P1", Implies(a, Implies(aa, a)))
        l2 = self.axiom("P2", Implies(Implies(a, Implies(aa, a)), Implies(Implies(a, aa), aa)))
        l3 = self.mp(l2, l1)
        l4 = self.axiom("P1", Implies(a, aa))
        return self.mp(l3, l4)

    def prefix_impl(self, c: Formula, i_ab: int) -> int:
        """from |- A -> B:  |- (C -> A) -> (C -> B)"""
        ab = self.formula_at(i_ab)
        if not isinstance(ab, Implies):
            raise DerivationError("prefix_impl needs an implication")
        a, b = ab.antecedent, ab.consequent
        p1 = self.axiom("P1", Implies(ab, Implies(c, ab)))
        l1 = self.mp(p1, i_ab)
        p2 = self.axiom("P2", Implies(Implies(c, ab), Implies(Implies(c, a), Implies(c, b))))
        return self.mp(p2, l1)

    def syl(self, i_ab: int, i_bc: int) -> int:
        """from |- A -> B and |- B -> C:  |- A -> C"""
        ab = self.formula_at(i_ab)
        if not isinstance(ab, Implies):
            raise DerivationError("syl needs implications")
        p = self.prefix_impl(ab.antecedent, i_bc)
        return self.mp(p, i_ab)

    def app_under(self, i_xyz: int, i_y: int) -> int:
        """from |- X -> (Y -> Z) and |- Y:  |- X -> Z"""
        xyz = self.formula_at(i_xyz)
        if not (isinstance(xyz, Implies) and isinstance(xyz.consequent, Implies)):
            raise DerivationError("app_under needs X -> (Y -> Z)")
        x, y, z = xyz.antecedent, xyz.consequent.antecedent, xyz.consequent.consequent
        pa = self.axiom("P1", Implies(y, Implies(x, y)))
        la = self.mp(pa, i_y)
        pb = self.axiom("P2", Implies(Implies(x, Implies(y, z)), Implies(Implies(x, y), Implies(x, z))))
        lb = self.mp(pb, i_xyz)
        return self.mp(lb, la)

    def suffix_impl(self, b: Formula, i_a2a1: int) -> int:
        """from |- A2 -> A1:  |- (A1 -> B) -> (A2 -> B)"""
        f = self.formula_at(i_a2a1)
        if not isinstance(f, Implies):
            raise DerivationError("suffix_impl needs an implication")
        a2, a1 = f.antecedent, f.consequent
        a1b = Implies(a1, b)
        t3 = self.axiom("P1", Implies(a1b, Implies(a2, a1b)))
        t2 = self.axiom("P2", Implies(Implies(a2, a1b), Implies(Implies(a2, a1), Implies(a2, b))))
        s1 = self.syl(t3, t2)  # (A1->B) -> ((A2->A1) -> (A2->B))
        return self.app_under(s1, i_a2a1)

    def dne(self, a: Formula) -> int:
        """|- !!A -> A"""
        na, nna = Not(a), Not(Not(a))
        n3, n4 = Not(Not(Not(a))), Not(Not(Not(Not(a))))
        h1 = self.axiom("P1", Implies(nna, Implies(n4, nna)))
        h2 = self.axiom("P3", Implies(Implies(n4, nna), Implies(na, n3)))
        s1 = self.syl(h1, h2)  # !!A -> (!A -> !!!A)
        h3 = self.axiom("P3", Implies(Implies(na, n3), Implies(nna, a)))
        s2 = self.syl(s1, h3)  # !!A -> (!!A -> A)
        h4 = self.axiom("P2", Implies(Implies(nna, Implies(nna, a)), Implies(Implies(nna, nna), Implies(nna, a))))
        l = self.mp(h4, s2)
        i = self.identity(nna)
        return self.mp(l, i)

    def dni(self, a: Formula) -> int:
        """|- A -> !!A"""
        d = self.dne(Not(a))  # !!!A -> !A
        p3 = self.axiom("P3", Implies(Implies(Not(Not(Not(a))), Not(a)), Implies(a, Not(Not(a)))))
        return self.mp(p3, d)

    def contrapose(self, i_ab: int) -> int:
        """from |- A -> B:  |- !B -> !A"""
        ab = self.formula_at(i_ab)
        if not isinstance(ab, Implies):
            raise DerivationError("contrapose needs an implication")
        a, b = ab.antecedent, ab.consequent
        s1 = self.syl(self.dne(a), i_ab)  # !!A -> B
        s2 = self.syl(s1, self.dni(b))  # !!A -> !!B
        p3 = self.axiom("P3", Implies(Implies(Not(Not(a)), Not(Not(b))), Implies(Not(b), Not(a))))
        return self.mp(p3, s2)

    def imp_mono(self, i_a2a1: int, i_b1b2: int) -> int:
        """from |- A2 -> A1 and |- B1 -> B2:  |- (A1 -> B1) -> (A2 -> B2)"""
        fb = self.formula_at(i_b1b2)
        if not isinstance(fb, Implies):
            raise DerivationError("imp_mono needs implications")
        fa = self.formula_at(i_a2a1)
        if not isinstance(fa, Implies):
            raise DerivationError("imp_mono needs implications")
        s = self.suffix_impl(fb.antecedent, i_a2a1)  # (A1->B1) -> (A2->B1)
        p = self.prefix_impl(fa.antecedent, i_b1b2)  # (A2->B1) -> (A2->B2)
        return self.syl(s, p)

    def and_intro(self, i_p: int, i_q: int) -> int:
        """from |- P and |- Q:  |- !(P -> !Q)"""
        p = self.formula_at(i_p)
        q = self.formula_at(i_q)
        x = Implies(p, Not(q))
        idx = self.identity(x)  # X -> (P -> !Q)
        xq = self.app_under(idx, i_p)  # X -> !Q
        c = self.contrapose(xq)  # !!Q -> !X
        nn = self.mp(self.dni(q), i_q)  # !!Q
        return self.mp(c, nn)

    # -- equality lifting -------------------------------------------------------

    def lift(self, phi: Formula, x: str, s: Term, u: Term) -> int:
        """|- phi[x:=s] -> phi[x:=u]  for closed, equal-valued s and u."""
        if free_variables(s) or free_variables(u):
            raise DerivationError("lift requires closed replacement terms")
        if eval_term_in(self.theory, s) != eval_term_in(self.theory, u):
            raise DerivationError("lift requires equal-valued replacement terms")
        return self._lift(phi, x, s, u)

    def _lift(self, phi: Formula, x: str, s: Term, u: Term) -> int:
        """The line of  phi[x:=s] -> phi[x:=u], built without recursion: the
        stack holds the lifts still to do as (phi, s, u), and below them, as
        [phi, s, u], each connective whose parts they are; its lines are
        built once its parts' lines are, so lines come in the order of a
        recursive walk, parts left to right."""
        todo: list = [(phi, s, u)]
        done: list[int] = []  # the lines of the lifts done, in order
        while todo:
            item = todo.pop()
            phi, s, u = item
            cls = type(phi)
            if type(item) is list:
                if cls is Not:
                    done.append(self.contrapose(done.pop()))
                elif cls is Implies:
                    ib = done.pop()
                    done.append(self.imp_mono(done.pop(), ib))
                elif cls is ForAll:
                    v, body = phi.var, phi.body
                    g = self.gen(done.pop(), v)
                    body_s = substitute(body, x, s)
                    body_u = substitute(body, x, u)
                    q2 = self.axiom(
                        "Q2",
                        Implies(
                            ForAll(v, Implies(body_s, body_u)),
                            Implies(ForAll(v, body_s), ForAll(v, body_u)),
                        ),
                    )
                    done.append(self.mp(q2, g))
                else:
                    done.append(self._lift_bounded(phi, x, s, u, done.pop()))
            elif x not in free_variables(phi):
                done.append(self.identity(phi))
            elif cls is Eq:
                a_s = substitute(phi, x, s)
                a_u = substitute(phi, x, u)
                eq = self.compute(Eq(s, u))
                ax = self.axiom("EQSUBST", Implies(Eq(s, u), Implies(a_s, a_u)))
                done.append(self.mp(ax, eq))
            elif cls is Not:
                todo += ([phi, s, u], (phi.body, u, s))
            elif cls is Implies:
                todo += ([phi, s, u], (phi.consequent, s, u), (phi.antecedent, u, s))
            elif cls is ForAll:
                todo += ([phi, s, u], (phi.body, s, u))
            elif cls is BoundedForAll or cls is BoundedExists:
                if free_variables(phi.bound) - {x}:
                    raise DerivationError(
                        f"quantifier bound {print_formula(phi)} mentions variables other than {x!r}; lift unsupported"
                    )
                if x in free_variables(phi.body):
                    todo += ([phi, s, u], (phi.body, s, u))
                else:
                    done.append(self._lift_bounded(phi, x, s, u, None))
            else:
                raise DerivationError(f"cannot lift through {cls.__name__}")
        return done[0]

    def _lift_bounded(self, phi: Formula, x: str, s: Term, u: Term, r: int | None) -> int:
        """The lift through a bounded quantifier whose bound mentions no
        variable but x, given the line r of its body's lift (None when x is
        not free in the body)."""
        ctor = type(phi)
        exists_form = ctor is BoundedExists
        dist_schema = "BQ2E" if exists_form else "BQ2A"
        cong_schema = "BCONGE" if exists_form else "BCONGA"
        v, bound, body = phi.var, phi.bound, phi.body
        b_s = substitute(bound, x, s)
        b_u = substitute(bound, x, u)
        body_s = substitute(body, x, s)
        body_u = substitute(body, x, u)
        if r is not None:
            g = self.bgen(r, v, b_s)
            ax = self.axiom(
                dist_schema,
                Implies(
                    BoundedForAll(v, b_s, Implies(body_s, body_u)),
                    Implies(ctor(v, b_s, body_s), ctor(v, b_s, body_u)),
                ),
            )
            cur = self.mp(ax, g)  # Q<= v b_s body_s -> Q<= v b_s body_u
        else:
            cur = None
        if b_s != b_u:
            eqb = self.compute(Eq(b_s, b_u))
            cong = self.axiom(
                cong_schema,
                Implies(Eq(b_s, b_u), Implies(ctor(v, b_s, body_u), ctor(v, b_u, body_u))),
            )
            step = self.mp(cong, eqb)  # Q<= v b_s body_u -> Q<= v b_u body_u
            return step if cur is None else self.syl(cur, step)
        if cur is None:
            # x occurs in neither bound nor body — unreachable (handled by _lift)
            return self.identity(ctor(v, b_s, body_s))
        return cur


def equivalence_proof(theory: TheorySpec, phi: Formula, x: str, s: Term, u: Term) -> Proof:
    """Proof of the expanded biconditional phi[x:=s] <-> phi[x:=u]."""
    b = Builder(theory)
    fwd = b.lift(phi, x, s, u)
    bwd = b.lift(phi, x, u, s)
    return b.proof(b.and_intro(fwd, bwd))
