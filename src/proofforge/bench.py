"""Checker-cost measurement on synthetic proof families.

The workhorse family is the detachment chain: k lines alternating
implication axioms and detachments, with every formula padded to roughly m
symbols.  Cost counters come from the checker itself (symbol comparisons,
lines scanned, pair searches); fits are ordinary least squares on log-log
points, reported as measured exponents — measurements, not asymptotic
claims.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .calculus import TheorySpec
from .config import K_LADDER, M_LADDER, parse_points
from .derivations import Builder
from .syntax import Eq, Formula, Implies, Plus, Succ, Term, Times, ZERO, formula_size
from .verifier import CostReport, Proof, proof_of_with_cost


def _operator_chains(size: int, limit: int) -> list[Term]:
    """Zero-valued left-folded chains 0 op 0 op ... op 0 (op in {+, *}) of the
    given odd size; 2^(links) distinct shapes, emitted in mask order."""
    if size % 2 == 0 or size < 1:
        return []
    links = (size - 1) // 2
    out: list[Term] = []
    for mask in range(min(1 << links, limit)):
        t: Term = ZERO
        for bit in range(links):
            t = Plus(t, ZERO) if (mask >> bit) & 1 else Times(t, ZERO)
        out.append(t)
    return out


def _equal_value_atoms(m: int, count: int) -> list[Eq]:
    """Pairwise-distinct true closed equations of size close to m, each
    (size split, left chain, right chain) built once.

    Both sides evaluate to 0, so every atom is a computation axiom; distinct
    shapes keep the checker's scan from short-circuiting on repeats."""
    atoms: list[Eq] = []

    def emit(a: Eq) -> bool:
        atoms.append(a)
        return len(atoms) >= count

    top = m if m % 2 else m - 1
    for eq_size in range(top, 4, -2):
        total = eq_size - 1
        # zero = zero over operator chains (odd/odd split)
        for lsize in range(total - 1, 0, -2):
            for t in _operator_chains(lsize, count + 1):
                for u in _operator_chains(total - lsize, count + 1):
                    if emit(Eq(t, u)):
                        return atoms
        # S(zero) = S(zero) (even/even split)
        for lsize in range(total - 2, 1, -2):
            for t in _operator_chains(lsize - 1, count + 1):
                for u in _operator_chains(total - lsize - 1, count + 1):
                    if emit(Eq(Succ(t), Succ(u))):
                        return atoms
    # degenerate m: cycle what exists rather than fail
    return [atoms[i % len(atoms)] for i in range(count)] if atoms else []


def mp_chain(theory: TheorySpec, k: int, m: int) -> tuple[Proof, Formula]:
    """~k-line detachment chain with every atom of size ~m: for k >= 4,
    1 + 3 * ((k - 1) // 3) lines.

    Unit i contributes three lines: the atom A_i (a computation axiom), the
    padding axiom A_i -> (A_{i-1} -> A_i), and the detachment A_{i-1} -> A_i.
    Atoms are pairwise distinct, so at each detachment the scan's positions
    (`lines_scanned`, `pair_searches`) cover the whole prefix and grow with
    k^2; the checker's index finds the line by lookups."""
    b = Builder(theory)
    units = max(1, (k - 1) // 3)
    atoms = _equal_value_atoms(m, units + 1)
    prev = b.compute(atoms[0])
    cur = prev
    for i in range(1, units + 1):
        e = b.compute(atoms[i])
        pad = b.axiom("P1", Implies(atoms[i], Implies(atoms[i - 1], atoms[i])))
        cur = b.mp(pad, e)
    proof = b.proof(cur)
    return proof, b.formula_at(cur)


@dataclass(frozen=True)
class BenchPoint:
    k: int
    m: int
    lines: int
    target_size: int
    cost: CostReport


def loglog_slope(xs: list[int], ys: list[int]) -> float:
    """Least-squares slope of log(y) vs log(x), y clamped to at least 1."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@dataclass(frozen=True)
class ChainSweep:
    """The chain measured along k at a fixed m and along m at a fixed k; a
    slope is None where its axis has fewer than two distinct values."""

    k_points: list[BenchPoint]
    m_points: list[BenchPoint]
    slope_k: float | None
    slope_m: float | None


def chain_sweep(theory: TheorySpec, k_spec: str, m_spec: str, fixed_k: int, fixed_m: int) -> ChainSweep:
    """The detachment chain's checking cost over k_spec at fixed_m and over
    m_spec at fixed_k (each spec as `config.parse_points` reads it), with
    the log-log slopes of symbol comparisons against k and against m.

    A spec of one value pins its axis instead: the other axis sweeps at that
    value, and two pinned axes name the one point measured."""
    ks = parse_points(k_spec, K_LADDER)
    ms = parse_points(m_spec, M_LADDER)
    k_sweep = [(k, ms[0] if len(ms) == 1 else fixed_m) for k in ks] if len(ks) > 1 else []
    m_sweep = [(ks[0] if len(ks) == 1 else fixed_k, m) for m in ms] if len(ms) > 1 else []
    grid = k_sweep + m_sweep or [(ks[0], ms[0])]
    low = min(k for k, _ in grid)
    if low < 4:  # mp_chain's shortest chain is four lines, whatever k asks
        raise ValueError(f"k = {low} is below 4, the shortest detachment chain")
    low = min(m for _, m in grid)
    if low < 5:  # _equal_value_atoms builds no equation below five symbols
        raise ValueError(f"m = {low} is below 5, the smallest atom of the detachment chain")
    points = []
    for k, m in grid:
        proof, phi = mp_chain(theory, k, m)
        ok, cost = proof_of_with_cost(theory, proof, phi)
        assert ok
        points.append(BenchPoint(k, m, len(proof.lines), formula_size(phi), cost))
    k_points, m_points = points[: len(k_sweep)], points[len(k_sweep) :]

    def slope(pts: list[BenchPoint], axis: str) -> float | None:
        xs = [getattr(p, axis) for p in pts]
        return loglog_slope(xs, [p.cost.symbol_comparisons for p in pts]) if len(set(xs)) > 1 else None

    return ChainSweep(k_points, m_points, slope(k_points, "k"), slope(m_points, "m"))


def points_to_csv(points: list[BenchPoint], deterministic: bool = False) -> str:
    """CSV with one row per measurement; deterministic mode zeroes wall time
    so repeated runs of the same configuration are byte-identical."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "m", "lines", "target_size", "symbol_comparisons", "lines_scanned", "pair_searches", "wall_ns"])
    for p in points:
        w.writerow(
            [
                p.k,
                p.m,
                p.lines,
                p.target_size,
                p.cost.symbol_comparisons,
                p.cost.lines_scanned,
                p.cost.pair_searches,
                0 if deterministic else p.cost.wall_ns,
            ]
        )
    return buf.getvalue()
