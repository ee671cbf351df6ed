"""The `forge` command: one entry point over every module's operations.

Exit codes: 0 = success / positive verdict, 1 = negative verdict (invalid
proof, non-member, non-tautology, failed suite), 2 = usage error (bad
arguments, unreadable or unparsable inputs).

Configuration comes from an optional `--config` key=value file (see
`config.RunConfig`) with per-command flags layered on top.  No environment
variable is read.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable

from . import __version__
from . import bench as benchmod
from . import config as cfgmod
from . import propositional as prop
from . import suite as suitemod
from .bounded import chain_holds, l_k_membership, shortest_proof_length
from .calculus import EvalBudget, check_stored_proof, parse_proof_text, print_proof_text
from .goedel import THEORIES, con_bounded, diagonalize, encode_formula, eval_delta0
from .syntax import formula_size, parse_formula, print_formula
from .verifier import proof_of

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad input that argparse cannot catch (unreadable file, parse failure);
    `main` turns it, like every ValueError, into exit 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from e


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e


def _parse_formula_arg(text: str):
    try:
        return parse_formula(text)
    except ValueError as e:
        raise UsageError(f"cannot parse formula {text!r}: {e}") from e


def _parse_prop_arg(text: str) -> prop.PropFormula:
    try:
        return prop.parse_prop(text)
    except ValueError as e:
        raise UsageError(f"cannot parse propositional formula {text!r}: {e}") from e


def _int_text(n: int) -> str:
    """n in decimal when str() converts it (see sys.get_int_max_str_digits),
    else in hexadecimal, which needs no decimal conversion."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n.bit_length() * math.log10(2) >= limit - 1:
        return f"{n:#x} (hexadecimal)"
    return str(n)


def _emit(out: str, text: str) -> None:
    """Write `text` to the file `out`, or to stdout when `out` is empty or `-`."""
    if out and out != "-":
        _write_text(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    theory = THEORIES[cfg.theory]()
    text = _read_text(args.proof_file)
    try:
        proof = parse_proof_text(text, theory.arities())
    except ValueError as e:
        raise UsageError(f"{args.proof_file}: {e}") from e
    phi = _parse_formula_arg(args.formula)
    check = proof_of(theory, proof, phi)
    print(f"{'valid' if check.ok else 'INVALID'}: {len(proof.lines)} lines, conclusion {print_formula(phi)}")
    if not check.ok:
        print(f"  {check.reason}")
    elif not (stored := check_stored_proof(theory, proof, check.proof)).ok:
        # the search justified a line its stored justification does not
        print(f"  stored justification does not hold: {stored.reason}")
    return EXIT_OK if check.ok else EXIT_VERDICT


def cmd_bench(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    k_spec = args.k if args.k is not None else cfg.bench_k
    m_spec = args.m if args.m is not None else cfg.bench_m
    sweep = benchmod.chain_sweep(THEORIES[cfg.theory](), k_spec, m_spec, cfg.fixed_k, cfg.fixed_m)
    _emit(args.csv or cfg.out, benchmod.points_to_csv(sweep.k_points + sweep.m_points, deterministic=cfg.deterministic))
    if sweep.slope_k is not None and sweep.slope_m is not None:
        print(f"slope vs k: {sweep.slope_k:.3f}   slope vs m: {sweep.slope_m:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_diagonalize(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    theory = THEORIES[cfg.theory]()
    result = diagonalize(theory, _parse_formula_arg(args.psi))
    delta = result.sentence
    print(f"fixed point: {print_formula(delta)}")
    print(f"code: {_int_text(result.code)}")
    print(f"size: {formula_size(delta)}")
    # every line the Builder writes carries its justification, so checking
    # those suffices: a proof valid by them is valid under proof_of's search
    proof = result.equivalence
    check = check_stored_proof(theory, proof)
    ok = check.ok and proof.conclusion is result.biconditional
    print(f"equivalence proof: {len(proof.lines)} lines, {'accepted' if ok else 'REJECTED'}")
    if not ok:
        print(f"  {check.reason or 'the conclusion is not the biconditional'}")
    if args.out:
        _write_text(args.out, print_proof_text(result.equivalence))
        print(f"wrote {args.out}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_con(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    theory = THEORIES[cfg.theory]()
    sentence = con_bounded(theory, args.m, numeral_mode=args.numerals or cfg.numeral_mode)
    print(f"con({args.m}): {print_formula(sentence)}")
    print(f"size: {formula_size(sentence)}")
    print(f"code: {_int_text(encode_formula(sentence))}")
    if args.no_eval:
        return EXIT_OK
    # The sweep visits only the codes that end in the refutation target: the
    # target alone up to m = 7, then also every run of whole lines before it
    # (289 at m = 8, 179,079 at m = 10), 20 to 30 times more per token;
    # m <= 10 takes seconds, beyond that --no-eval is the sane path.
    verdict = eval_delta0(theory, sentence, budget=EvalBudget(10**10))
    print(f"eval: {'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_member(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    theory = THEORIES[cfg.theory]()
    phi = _parse_formula_arg(args.formula)
    report = l_k_membership(theory, phi, args.k, desk_cap=cfg.desk_cap, limits=suitemod.search_limits(cfg))
    verdict = "member" if report.member else ("non-member" if report.member is False else "unknown")
    print(f"L_{args.k} membership of {print_formula(phi)}: {verdict}")
    print(f"outcome: {report.outcome}  definitive: {report.definitive}")
    if report.stopped_by:
        print(f"stopped by: {', '.join(report.stopped_by)}")
    # size^k where the bound has more digits than str() converts, told from k
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = f"{report.size}^{args.k}" if limit and args.k * math.log10(report.size) >= limit else report.bound
    print(f"size bound: {bound} (searched up to {report.effective_bound})")
    if report.proof is not None:
        print(f"witness proof ({len(report.proof.lines)} lines):")
        sys.stdout.write(print_proof_text(report.proof))
    return EXIT_OK if report.member else EXIT_VERDICT


def cmd_shortest(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    theory = THEORIES[cfg.theory]()
    phi = _parse_formula_arg(args.formula)
    length, definitive = shortest_proof_length(theory, phi, args.cap, limits=suitemod.search_limits(cfg))
    if length is None:
        print(f"no proof of {print_formula(phi)} within size {args.cap} (definitive: {definitive})")
        return EXIT_VERDICT
    print(f"shortest proof of {print_formula(phi)}: size {length} (definitive: {definitive})")
    return EXIT_OK


def cmd_regen(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    levels = suitemod.chain_levels(cfg, args.depth, args.m)
    rows = []
    for i, lvl in enumerate(levels, start=1):
        rows.append(
            {
                "level": i,
                "theory": lvl.theory_name,
                "con": print_formula(lvl.con_sentence),
                "code": lvl.con_code,
                "size": lvl.con_size,
                "next_level_one_line_ok": lvl.next_level_one_line_ok,
                "self_proof_outcome": lvl.self_search.outcome,
                "self_proof_definitive": lvl.self_search.definitive,
            }
        )
        print(
            f"level {i}: {lvl.theory_name}  size={lvl.con_size}  "
            f"one-line-at-next={'ok' if lvl.next_level_one_line_ok else 'FAIL'}  "
            f"self-search={lvl.self_search.outcome}"
        )
    ok = chain_holds(levels)
    if args.report:
        payload = {"schema": "forge-regen/1", "depth": args.depth, "m": args.m, "ok": ok, "levels": rows}
        _write_text(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_demo(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    levels = suitemod.chain_levels(cfg, args.depth, args.m)
    print("Consistency regeneration walkthrough")
    print("====================================")
    print()
    print("Each level states: 'no refutation of 0 = 0 in at most m tokens'.")
    print("The statement is checkable arithmetic — every quantifier is bounded —")
    print("so its truth is decided by finite sweep, yet the theory it speaks of")
    print("cannot prove it at desk scale, while the next theory up proves it in")
    print("one line because it adopted the statement as an axiom.")
    print()
    for i, lvl in enumerate(levels, start=1):
        print(f"level {i} — theory {lvl.theory_name}")
        print(f"  statement size {lvl.con_size}, code {lvl.con_code}")
        print(f"  adopted by the next theory, where a one-line proof "
              f"{'passes' if lvl.next_level_one_line_ok else 'FAILS'} the checker")
        print(f"  exhaustive search for a self-proof (size <= {lvl.self_search.budget}): "
              f"{lvl.self_search.outcome}"
              f"{' (definitive)' if lvl.self_search.definitive else ''}")
        print()
    distinct = len({lvl.con_code for lvl in levels})
    print(f"{len(levels)} levels, {distinct} pairwise distinct consistency statements.")
    return EXIT_OK if chain_holds(levels) else EXIT_VERDICT


def cmd_suite(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    report = suitemod.run_suite(cfg)
    out = args.report or cfg.out or "report.json"
    _write_text(out, suitemod.report_to_json(report))
    print(f"wrote {out}")
    return EXIT_OK if report["passed"] else EXIT_VERDICT


# --- prop subcommands -------------------------------------------------------


def cmd_prop_check(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    cs = prop.from_dimacs(_read_text(args.cnf_file))
    rp = prop.parse_resolution_text(_read_text(args.proof_file))
    result = prop.check_resolution(cs, rp)
    if result.ok:
        print(f"valid resolution refutation: {len(rp.steps)} steps, {len(result.derived)} clauses derived")
        return EXIT_OK
    print(f"INVALID resolution refutation: {result.reason}")
    return EXIT_VERDICT


def cmd_prop_taut(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    alpha = _parse_prop_arg(args.formula)
    witness = prop.falsifying_assignment(alpha)
    if witness is None:
        print(f"tautology: {prop.print_prop(alpha)}")
        return EXIT_OK
    shown = " ".join(f"x{i}={'1' if v else '0'}" for i, v in sorted(witness.items()))
    print(f"NOT a tautology, falsified by: {shown if shown else '(empty assignment)'}")
    return EXIT_VERDICT


def cmd_prop_translate(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    phi = _parse_formula_arg(args.formula)
    # the translation at bound n has n + 1 variables, and its guard O(n^2)
    # nodes: past the brute-force cap it is refused before it is built
    if args.n + 1 > prop.MAX_BRUTE_VARS:
        raise UsageError(f"--n {args.n}: {args.n + 1} variables exceeds the brute-force cap of {prop.MAX_BRUTE_VARS}")
    alpha = prop.translate_delta0(phi, x=args.x, n=args.n)
    # decided before printing: a formula past the brute-force cap is refused
    # without writing it out
    verdict = prop.is_tautology_bruteforce(alpha)
    print(prop.print_prop(alpha))
    print(f"tautology at n={args.n}: {'yes' if verdict else 'no'}", file=sys.stderr)
    return EXIT_OK if verdict else EXIT_VERDICT


_SYSTEMS: dict[str, Callable[[], prop.ProofSystemHandle]] = {
    "resolution": prop.resolution_system,
    "table": prop.truth_table_system,
}


def cmd_prop_sp(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    formulas = [_parse_prop_arg(args.formula)] if args.formula else []
    if args.file:
        formulas.extend(_parse_prop_arg(line) for line in _read_text(args.file).split("\n") if line.strip())
    if not formulas:
        raise UsageError("give a formula or --file with one formula per line")
    names = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not names:
        raise UsageError(f"--systems {args.systems!r} names no proof system (choose from {sorted(_SYSTEMS)})")
    for name in names:
        if name not in _SYSTEMS:
            raise UsageError(f"unknown proof system {name!r} (choose from {sorted(_SYSTEMS)})")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["system", "formula", "size", "s_p", "exceeds_cap", "cap", "nodes", "node_capped"])
    for name in names:
        system = _SYSTEMS[name]()
        for alpha in formulas:
            m = system.s_p(alpha, args.cap)
            value = m.value if m.value is not None else ""
            w.writerow([name, prop.print_prop(alpha), prop.prop_size(alpha), value, m.exceeds_cap, m.cap, m.nodes, m.node_capped])
    _emit(args.csv or cfg.out, buf.getvalue())
    return EXIT_OK


def _psim_corpus(n_max: int) -> list[prop.PropFormula]:
    texts = [
        "x0 -> x0",
        "x0 -> (x1 -> x0)",
        "((x0 -> x1) -> x0) -> x0",
        "x0 | !x0",
        "(x0 & x1) -> x0",
        "!(x0 & !x0)",
        "(x0 & (x0 -> x1)) -> x1",
    ]
    out = [prop.parse_prop(t) for t in texts]
    reflexive = parse_formula("x = x")
    for n in range(1, n_max + 1):
        out.append(prop.translate_delta0(reflexive, x="x", n=n))
    return out


def cmd_prop_psim(args: argparse.Namespace, cfg: cfgmod.RunConfig) -> int:
    if args.n_max < 0:
        raise UsageError(f"--n-max {args.n_max} is negative; 0 leaves the translations out")
    # the translation at bound n has n + 1 variables; past the truth-table
    # limit no table proof is accepted, and building the tables never ends
    if args.n_max + 1 > prop.MAX_BRUTE_VARS:
        raise UsageError(f"--n-max {args.n_max} exceeds {prop.MAX_BRUTE_VARS - 1}, the largest bound with a checkable truth table")
    corpus = [(a, prop.print_truth_table_proof(a).encode()) for a in _psim_corpus(args.n_max)]
    report = prop.p_simulation_check(
        prop.resolution_system(), prop.truth_table_system(), prop.table_to_resolution_translator, corpus
    )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["formula", "original_ok", "translated_ok", "original_size", "translated_size"])
    for item in report.items:
        w.writerow([prop.print_prop(item.alpha), item.original_ok, item.translated_ok, item.original_size, item.translated_size])
    _emit(args.csv or cfg.out, buf.getvalue())
    exp = f"{report.growth_exponent:.3f}" if report.growth_exponent is not None else "n/a"
    print(f"{len(report.items)} items, all accepted: {report.all_ok}, growth exponent: {exp}", file=sys.stderr)
    return EXIT_OK if report.all_ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

# Operation → subcommand coverage map.  Every public operation of every
# module must appear here; the test suite walks this table and checks each
# subcommand path actually parses.
OPERATION_MAP: dict[str, str] = {
    "calculus.parse_proof_text": "check",
    "verifier.proof_of": "check",
    "verifier.proof_of_with_cost": "bench",
    "bench.chain_sweep": "bench",
    "bench.points_to_csv": "bench",
    "goedel.diagonalize": "diagonalize",
    "goedel.encode_formula": "diagonalize",
    "goedel.con_bounded": "con",
    "goedel.eval_delta0": "con",
    "bounded.l_k_membership": "member",
    "bounded.shortest_proof_length": "shortest",
    "bounded.regeneration_chain": "regen",
    "propositional.check_resolution": "prop check",
    "propositional.from_dimacs": "prop check",
    "propositional.parse_resolution_text": "prop check",
    "propositional.is_tautology_bruteforce": "prop taut",
    "propositional.translate_delta0": "prop translate",
    "propositional.min_refutation_steps": "prop sp",
    "propositional.p_simulation_check": "prop psim",
    "suite.run_suite": "suite",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="forge", description="proof-verifier workbench")
    p.add_argument("--version", action="version", version=f"forge {__version__}")
    p.add_argument("--config", metavar="FILE", help="key=value run configuration file")
    p.add_argument("--seed", type=int, help="override the configured random seed")
    p.add_argument("--theory", choices=tuple(THEORIES), help="override the configured theory")
    p.add_argument("--deterministic", action="store_true", help="zero wall-clock fields for byte-identical outputs")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    sp = sub.add_parser("check", help="verify a first-order proof file against a conclusion")
    sp.add_argument("theory_arg", metavar="theory", choices=tuple(THEORIES))
    sp.add_argument("proof_file")
    sp.add_argument("formula")
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("bench", help="measure checker cost on the detachment-chain proof family")
    sp.add_argument("--k", help="proof-length sweep, 'lo:hi' or 'a,b,c' or single value")
    sp.add_argument("--m", help="formula-size sweep, 'lo:hi' or 'a,b,c' or single value")
    sp.add_argument("--csv", metavar="FILE", help="write CSV here instead of stdout")
    sp.set_defaults(handler=cmd_bench)

    sp = sub.add_parser("diagonalize", help="fixed point of a one-free-variable formula")
    sp.add_argument("theory_arg", metavar="theory", choices=tuple(THEORIES))
    sp.add_argument("--psi", required=True, help="formula with one free variable")
    sp.add_argument("--out", metavar="FILE", help="write the equivalence proof file here")
    sp.set_defaults(handler=cmd_diagonalize)

    sp = sub.add_parser("con", help="bounded consistency statement and its truth value")
    sp.add_argument("theory_arg", metavar="theory", choices=tuple(THEORIES))
    sp.add_argument("--m", type=int, required=True, help="proof-size bound (tokens)")
    sp.add_argument("--numerals", choices=("binary", "unary"), help="numeral mode (default: the configured numeral_mode)")
    sp.add_argument("--no-eval", action="store_true", help="print the statement without sweeping for its truth value")
    sp.set_defaults(handler=cmd_con)

    sp = sub.add_parser("member", help="bounded-provability language membership")
    sp.add_argument("theory_arg", metavar="theory", choices=tuple(THEORIES))
    sp.add_argument("formula")
    sp.add_argument("--k", type=int, required=True, help="exponent: proof size bound is size(phi)^k")
    sp.set_defaults(handler=cmd_member)

    sp = sub.add_parser("shortest", help="shortest-proof length by iterative deepening")
    sp.add_argument("theory_arg", metavar="theory", choices=tuple(THEORIES))
    sp.add_argument("formula")
    sp.add_argument("--cap", type=int, required=True, help="largest proof size to try")
    sp.set_defaults(handler=cmd_shortest)

    sp = sub.add_parser("regen", help="consistency regeneration chain with receipts")
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--m", type=int, default=8)
    sp.add_argument("--report", metavar="FILE", help="write a JSON report here")
    sp.set_defaults(handler=cmd_regen)

    sp = sub.add_parser("suite", help="run the full acceptance suite, write report.json")
    sp.add_argument("--report", metavar="FILE", help="report path (default report.json)")
    sp.set_defaults(handler=cmd_suite)

    sp = sub.add_parser("demo", help="guided tour of the regeneration chain")
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--m", type=int, default=8)
    sp.set_defaults(handler=cmd_demo)

    pp = sub.add_parser("prop", help="propositional layer operations")
    psub = pp.add_subparsers(dest="prop_command", metavar="OP")

    sp = psub.add_parser("check", help="check a resolution refutation of a DIMACS clause set")
    sp.add_argument("cnf_file")
    sp.add_argument("proof_file")
    sp.set_defaults(handler=cmd_prop_check)

    sp = psub.add_parser("taut", help="brute-force tautology check")
    sp.add_argument("formula")
    sp.set_defaults(handler=cmd_prop_taut)

    sp = psub.add_parser("translate", help="bounded arithmetic formula -> propositional instance")
    sp.add_argument("formula")
    sp.add_argument("--n", type=int, default=1, help="numeric bound for the free variable")
    sp.add_argument("--x", help="the free variable (inferred when unique)")
    sp.set_defaults(handler=cmd_prop_translate)

    sp = psub.add_parser("sp", help="minimal accepted-proof size per system")
    sp.add_argument("formula", nargs="?", help="propositional formula")
    sp.add_argument("--file", metavar="FILE", help="formulas, one per line")
    sp.add_argument("--systems", default="resolution,table", help="comma list: resolution,table")
    sp.add_argument("--cap", type=int, default=12)
    sp.add_argument("--csv", metavar="FILE")
    sp.set_defaults(handler=cmd_prop_sp)

    sp = psub.add_parser("psim", help="p-simulation of truth tables by resolution on a small built-in corpus")
    sp.add_argument("--n-max", type=int, default=3, help="largest translation bound in the corpus")
    sp.add_argument("--csv", metavar="FILE")
    sp.set_defaults(handler=cmd_prop_psim)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help/--version already.
        return int(e.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return EXIT_USAGE
    if args.command == "prop" and getattr(args, "prop_command", None) is None:
        print("usage: forge prop {check,taut,translate,sp,psim} ...", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = cfgmod.loads(_read_text(args.config)) if args.config else cfgmod.RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        # the theory a command names must agree with the global --theory
        theory = getattr(args, "theory_arg", None) or args.theory
        if args.theory not in (None, theory):
            raise UsageError(f"--theory {args.theory} contradicts the command's theory {theory}")
        if theory is not None:
            cfg.theory = theory
        if args.deterministic:
            cfg.deterministic = True
        cfg.validate()
        return args.handler(args, cfg)
    except ValueError as e:
        print(f"forge: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
