"""The forge command: exit codes, dispatch coverage, and reproducible outputs."""

import argparse
import dataclasses
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from proofforge import calculus, cli
from proofforge import config as cfgmod
from proofforge import goedel
from proofforge import propositional as prop
from proofforge import suite as suitemod
from proofforge.calculus import MPJust, Proof, ProofLine
from proofforge.corpus import random_clause_set
from proofforge.suite import CriterionResult
from proofforge.syntax import MAX_NESTING, print_formula

VALID_PROOF = "1. 0 = 0 ; COMPUTE\n"


@pytest.fixture()
def proof_file(tmp_path):
    p = tmp_path / "proof.fp"
    p.write_text(VALID_PROOF)
    return str(p)


# --- exit code contract ----------------------------------------------------------


def test_check_valid_proof_exits_zero(proof_file, capsys):
    assert cli.main(["check", "q", proof_file, "0 = 0"]) == 0
    assert "valid" in capsys.readouterr().out


def test_check_wrong_conclusion_exits_one(proof_file, capsys):
    assert cli.main(["check", "q", proof_file, "S(0) = 0"]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_check_names_the_line_it_rejects(tmp_path, capsys):
    p = tmp_path / "proof.fp"
    p.write_text("1. 0 = 0 ; COMPUTE\n2. S(0) = 0 ; ?\n")
    assert cli.main(["check", "q", str(p), "S(0) = 0"]) == 1
    assert capsys.readouterr().out == "INVALID: 2 lines, conclusion S(0) = 0\n  line 2: no justification found\n"


def test_missing_file_is_a_usage_error(capsys):
    assert cli.main(["check", "q", "/nonexistent/proof.fp", "0 = 0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_file_is_a_usage_error_naming_it(tmp_path, capsys):
    p = tmp_path / "bad.fp"
    p.write_bytes(b"1. 0 = 0 ; COMPUTE\xff\n")
    assert cli.main(["check", "q", str(p), "0 = 0"]) == 2
    assert capsys.readouterr().err.startswith(f"forge: cannot read {p}: 'utf-8' codec can't decode byte 0xff")


def test_check_names_a_stored_justification_that_does_not_hold(tmp_path, capsys):
    # the search justifies the line as COMPUTE; its stored modus ponens cites itself
    p = tmp_path / "self.fp"
    p.write_text("1. 0 = 0 ; MP 1 1\n")
    assert cli.main(["check", "q", str(p), "0 = 0"]) == 0
    assert capsys.readouterr().out == (
        "valid: 1 lines, conclusion 0 = 0\n"
        "  stored justification does not hold: line 1: modus ponens premises must precede the line\n"
    )
    # a proof whose stored justifications hold prints one line
    p.write_text(VALID_PROOF)
    assert cli.main(["check", "q", str(p), "0 = 0"]) == 0
    assert capsys.readouterr().out == "valid: 1 lines, conclusion 0 = 0\n"


def _readme_proof_example() -> str:
    """The first-order proof example in the README's "File formats" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("First-order proofs (`forge check`)", 1)[1].split("```\n", 2)[1]


@pytest.mark.parametrize("justify", [False, True], ids=["as-written", "question-marks"])
def test_the_readme_proof_example_checks(tmp_path, capsys, justify):
    text = _readme_proof_example()
    if justify:
        # every justification left to the search: a `?` line takes the one found
        text = re.sub(r" ; .*", " ; ?", text)
    p = tmp_path / "readme.fp"
    p.write_text(text)
    conclusion = print_formula(calculus.parse_proof_text(text).conclusion)
    assert cli.main(["check", "q", str(p), conclusion]) == 0
    assert capsys.readouterr().out == f"valid: {len(text.splitlines())} lines, conclusion {conclusion}\n"


def test_check_evaluates_each_compute_line_once(tmp_path, monkeypatch, capsys):
    # eval_term_in evaluates one side of an equation.  The search computes
    # lines 1 and 2, and the stored check reads their written COMPUTE off the
    # search's record; line 3 the search justifies by EQREFL, so the stored
    # check computes it.
    calls = []
    real = calculus.eval_term_in
    monkeypatch.setattr(calculus, "eval_term_in", lambda *args: calls.append(args) or real(*args))
    p = tmp_path / "compute.fp"
    p.write_text("1. S(0) + S(0) = S(S(0)) ; COMPUTE\n2. S(0) * S(S(0)) = S(S(0)) ; COMPUTE[v=2]\n3. 0 = 0 ; COMPUTE\n")
    assert cli.main(["check", "q", str(p), "0 = 0"]) == 0
    assert capsys.readouterr().out == "valid: 3 lines, conclusion 0 = 0\n"
    assert len(calls) == 2 * 3


def test_unparsable_formula_is_a_usage_error(proof_file, capsys):
    assert cli.main(["check", "q", proof_file, "0 = ="]) == 2


@pytest.mark.parametrize(
    "formula, offset",
    [
        ("S(" * 40_000 + "0" + ")" * 40_000 + " = 0", 2 * MAX_NESTING),
        ("dbl(" * 40_000 + "0" + ")" * 40_000 + " = 0", 4 * MAX_NESTING),
        ("!" * 40_000 + "0 = 0", MAX_NESTING),
        ("0 = 0 -> " * 40_000 + "0 = 0", 9 * MAX_NESTING + 6),
        ("forall x " * 40_000 + "0 = 0", 9 * MAX_NESTING),
        ("(!" * 40_000 + "0 = 0" + ")" * 40_000, MAX_NESTING),
        ("!(" * 40_000 + "0 = 0" + ")" * 40_000, MAX_NESTING),
        ("pair(" * 40_000 + "0" + ", 0)" * 40_000 + " = 0", 5 * MAX_NESTING),
    ],
    ids=["S", "dbl", "not", "implies", "forall", "group-not", "not-group", "pair"],
)
def test_deeply_nested_proof_line_is_a_usage_error(tmp_path, capsys, formula, offset):
    p = tmp_path / "deep.fp"
    p.write_text(f"1. {formula} ; COMPUTE\n")
    assert cli.main(["check", "q", str(p), "0 = 0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"proof line 1: nesting deeper than {MAX_NESTING} levels (at offset {offset})" in err


_UNDER_CAP = MAX_NESTING - 8


@pytest.mark.parametrize(
    "formula",
    [
        "0 = 0 -> " * _UNDER_CAP + "0 = 0",
        "forall x " * _UNDER_CAP + "0 = 0",
        "(!" * (_UNDER_CAP // 2) + "0 = 0" + ")" * (_UNDER_CAP // 2),
        "!(" * (_UNDER_CAP // 2) + "0 = 0" + ")" * (_UNDER_CAP // 2),
        "S(" * _UNDER_CAP + "0" + ")" * _UNDER_CAP + " = dbl(0)",
    ],
    ids=["implies", "forall", "group-not", "not-group", "S"],
)
def test_proof_line_nested_just_under_the_cap_is_checked(tmp_path, capsys, formula):
    # parsed and searched for a justification at the default recursion limit;
    # no schema justifies these lines, so the verdict is INVALID
    p = tmp_path / "deep.fp"
    p.write_text(f"1. {formula} ; COMPUTE\n")
    assert cli.main(["check", "q", str(p), formula]) == 1
    assert capsys.readouterr().out.startswith("INVALID: 1 lines")


def test_eqsubst_through_a_deep_nest_is_checked(tmp_path, capsys):
    deep = "dbl(" * 3_990 + "{}" + ")" * 3_990
    formula = f"x = y -> ({deep.format('x')} = 0 -> {deep.format('y')} = 0)"
    p = tmp_path / "eqsubst.fp"
    p.write_text(f"1. {formula} ; EQSUBST\n")
    assert cli.main(["check", "q", str(p), formula]) == 0
    assert capsys.readouterr().out.startswith("valid: 1 lines")


def test_no_arguments_prints_help_and_exits_two(capsys):
    assert cli.main([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_version_flag_exits_zero(capsys):
    assert cli.main(["--version"]) == 0
    assert "forge" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [(["prop", "taut", "x0 | !x0"], 0), (["frobnicate"], 2)], ids=["taut", "usage"])
def test_python_dash_m_runs_the_command(argv, code):
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "proofforge", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr


def test_prop_without_operation_exits_two(capsys):
    assert cli.main(["prop"]) == 2


# --- verdict-style commands ---------------------------------------------------------


def test_member_verdicts(capsys):
    assert cli.main(["member", "q", "0 = 0", "--k", "1"]) == 0
    assert cli.main(["member", "q", "0 = 0 -> 0 = 0", "--k", "1"]) == 1
    capsys.readouterr()
    assert cli.main(["member", "q", "0 = 0", "--k", "3"]) == 0
    assert "size bound: 27 (searched up to 24)" in capsys.readouterr().out
    # 3^99999 has 47,712 digits, past what str() converts by default
    assert cli.main(["member", "q", "0 = 0", "--k", "99999"]) == 0
    out = capsys.readouterr().out
    assert "size bound: 3^99999 (searched up to 24)" in out and "witness proof" in out


def test_member_names_the_caps_that_stopped_its_search(capsys):
    assert cli.main(["member", "q", "0 = S(S(0))", "--k", "2"]) == 1
    out = capsys.readouterr().out
    assert "definitive: False\nstopped by: desk_cap, line_size, pool_cap, node_cap, var_pool\nsize bound: 25" in out
    assert cli.main(["member", "q", "0 = 0 -> 0 = 0", "--k", "1"]) == 1
    assert "stopped by" not in capsys.readouterr().out


def test_member_answers_at_once_for_any_k(capsys):
    # 3^30000000 is computed neither to compare it with the desk cap nor to
    # tell how to print it
    start = time.perf_counter()
    assert cli.main(["member", "q", "0 = 0", "--k", "30000000"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "size bound: 3^30000000 (searched up to 24)" in capsys.readouterr().out


def test_biconditional_chain_is_a_usage_error(capsys):
    # `<->` expanded each side twice, so a 20-term chain was an 18 MB formula
    chain = " <-> ".join(["0 = 0"] * 20)
    start = time.perf_counter()
    assert cli.main(["member", "q", chain, "--k", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "unexpected character '<'" in capsys.readouterr().err


def test_global_theory_must_agree_with_the_commands_theory(capsys):
    assert cli.main(["--theory", "pa", "member", "q", "0 = 0", "--k", "1"]) == 2
    assert "contradicts" in capsys.readouterr().err
    assert cli.main(["--theory", "q", "member", "q", "0 = 0", "--k", "1"]) == 0
    assert cli.main(["member", "pa", "0 = 0", "--k", "1"]) == 0


def test_shortest_verdicts(capsys):
    assert cli.main(["shortest", "q", "0 = 0", "--cap", "6"]) == 0
    assert cli.main(["shortest", "q", "0 = 0 -> 0 = 0", "--cap", "6"]) == 1
    capsys.readouterr()
    for cap in ("-1", "0"):
        assert cli.main(["shortest", "q", "0 = 0", "--cap", cap]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "size cap must be >= 1" in err


def test_prop_taut_verdicts(capsys):
    assert cli.main(["prop", "taut", "x0 | !x0"]) == 0
    assert cli.main(["prop", "taut", "x0 & x1"]) == 1
    out = capsys.readouterr().out
    assert "falsified" in out


def test_prop_translate_verdicts(capsys):
    assert cli.main(["prop", "translate", "x = x", "--n", "2"]) == 0
    assert cli.main(["prop", "translate", "x = x", "--n", "0"]) == 0
    assert cli.main(["prop", "translate", "x = 0", "--n", "2"]) == 1
    capsys.readouterr()
    # refused before anything is printed: two free variables, a negative
    # bound, more selector variables than brute force takes
    cap = prop.MAX_BRUTE_VARS
    refused = [
        ("x = y", 2, "need exactly one free variable"),
        ("x = x", -3, "bound n must be >= 0"),
        ("x = x", cap, f"{cap + 1} variables exceeds the brute-force cap"),
    ]
    for formula, n, message in refused:
        assert cli.main(["prop", "translate", formula, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err, n


def test_prop_translate_refuses_a_bound_past_the_cap_before_translating(capsys):
    # the translation at bound n has n + 1 variables and an O(n^2) guard, so
    # a bound past the brute-force cap is refused before anything is built:
    # one line naming --n, nothing on stdout, and no time or memory to speak
    # of even at n = 10**6
    cap = prop.MAX_BRUTE_VARS
    assert cli.main(["prop", "translate", "x = x", "--n", str(cap)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"--n {cap}:" in err
    assert cli.main(["prop", "translate", "x = x", "--n", str(cap - 1)]) == 0
    capsys.readouterr()
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [sys.executable, "-m", "proofforge", "prop", "translate", "x = x", "--n", str(10**6)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30, preexec_fn=limit_memory)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"forge: --n {10**6}: {10**6 + 1} variables exceeds the brute-force cap of {cap}\n"


def test_prop_check_verdicts(tmp_path, capsys):
    cnf = tmp_path / "c.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    good = tmp_path / "good.rp"
    good.write_text("i 0\ni 1\nr 0 1 1\n")
    bad = tmp_path / "bad.rp"
    bad.write_text("i 0\ni 1\nr 1 0 1\n")
    assert cli.main(["prop", "check", str(cnf), str(good)]) == 0
    assert cli.main(["prop", "check", str(cnf), str(bad)]) == 1
    garbled = tmp_path / "garbled.rp"
    garbled.write_text("z z z\n")
    assert cli.main(["prop", "check", str(cnf), str(garbled)]) == 2
    clause_import = tmp_path / "import.rp"
    clause_import.write_text("a 1 0\ni 1\nr 0 1 1\n")
    assert cli.main(["prop", "check", str(cnf), str(clause_import)]) == 2
    # the extension rule is not a step of the format, nor an option
    capsys.readouterr()
    extension = tmp_path / "extension.rp"
    extension.write_text("i 0\ni 1\ne 3 1 -2\nr 0 1 1\n")
    assert cli.main(["prop", "check", str(cnf), str(extension)]) == 2
    assert capsys.readouterr() == ("", "forge: line 3: unrecognized step 'e 3 1 -2'\n")
    assert cli.main(["prop", "check", str(cnf), str(good), "--extended"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("depth", [500, 2_000])
def test_diagonalize_prints_a_long_code_without_decimal_conversion(capsys, depth):
    # the code of the fixed point has more digits than str() converts
    # (4,300 by default); it is printed in hexadecimal, and the exit code is
    # the equivalence check's.  At depth 2,000 the evaluator and the
    # builder's lift walk past the default recursion limit.
    psi = "x = " + "S(" * depth + "0" + ")" * depth
    assert cli.main(["diagonalize", "q", "--psi", psi]) == 0
    out = capsys.readouterr().out
    code = next(line for line in out.splitlines() if line.startswith("code: "))
    assert code.startswith("code: 0x") and code.endswith(" (hexadecimal)")
    assert out.endswith(", accepted\n")


def test_diagonalize_checks_a_long_proof_by_its_justifications(capsys):
    # 300 negations give a proof of about 20,000 lines; the search verifier
    # took minutes on it, checking the stored justifications about a second
    start = time.perf_counter()
    assert cli.main(["diagonalize", "q", "--psi", "!" * 300 + "x = 0"]) == 0
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().out.endswith(" lines, accepted\n")


def test_diagonalize_names_the_line_it_rejects(monkeypatch, capsys):
    def broken(theory, psi):
        result = goedel.diagonalize(theory, psi)
        lines = list(result.equivalence.lines)
        lines[1] = ProofLine(lines[1].formula, MPJust(1, 1))
        return dataclasses.replace(result, equivalence=Proof(tuple(lines)))

    monkeypatch.setattr(cli, "diagonalize", broken)
    assert cli.main(["diagonalize", "q", "--psi", "x = x"]) == 1
    out = capsys.readouterr().out
    assert " lines, REJECTED\n  line 2: " in out


def test_con_prints_statement_and_verdict(capsys):
    assert cli.main(["con", "q", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "con(2):" in out and "size: 32" in out and "eval: true" in out


def test_con_evaluates_past_the_brute_force_range(capsys):
    # a sweep of every code up to bnd(8) would visit 44**8 of them
    start = time.perf_counter()
    assert cli.main(["con", "q", "--m", "8"]) == 0
    assert time.perf_counter() - start < 30
    assert "eval: true" in capsys.readouterr().out


def test_con_no_eval_skips_the_sweep(capsys):
    assert cli.main(["con", "q", "--m", "64", "--no-eval"]) == 0
    assert "eval" not in capsys.readouterr().out


def test_diagonalize_writes_an_accepted_proof_file(tmp_path, capsys):
    out = tmp_path / "eq.fp"
    assert cli.main(["diagonalize", "q", "--psi", "x = x", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "accepted" in text
    assert out.exists() and out.read_text().startswith("1. ")


def test_diagonalize_rejects_wrong_variable(capsys):
    # psi's one free variable is the one diagonalized; none or several is a
    # usage error, and there is no flag to name another
    for psi in ("0 = 0", "x = y"):
        assert cli.main(["diagonalize", "q", "--psi", psi]) == 2
        assert "need exactly one free variable" in capsys.readouterr().err
    assert cli.main(["diagonalize", "q", "--psi", "x = x", "--var", "y"]) == 2


def test_diagonalize_infers_the_free_variable(capsys):
    assert cli.main(["diagonalize", "q", "--psi", "y = 0"]) == 0
    assert capsys.readouterr().out.endswith(" lines, accepted\n")


def test_prop_sp_emits_csv(tmp_path):
    out = tmp_path / "sp.csv"
    assert cli.main(["prop", "sp", "x0 | !x0", "--cap", "8", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "system,formula,size,s_p,exceeds_cap,cap,nodes,node_capped"
    assert len(lines) == 3  # resolution + table rows


@pytest.mark.parametrize("systems", ["resolution,table", "resolution", "table"])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_prop_sp_refuses_a_cap_below_one(capsys, systems, cap):
    assert cli.main(["prop", "sp", "x0 -> x0", "--systems", systems, "--cap", cap]) == 2
    assert capsys.readouterr() == ("", f"forge: the size cap must be >= 1, not {cap}\n")


def test_prop_sp_refuses_a_huge_variable_index_before_sizing_its_table(capsys):
    # the table of x99999999999 would have 2**100000000000 rows; its size is
    # never computed, so no memory limit is needed to see the usage error
    assert cli.main(["prop", "sp", "x99999999999 | !x99999999999", "--cap", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "forge: 100000000000 variables exceeds the brute-force cap of 24\n"


def test_prop_sp_file_lines_end_at_newline_alone(tmp_path, capsys):
    plain, odd = tmp_path / "plain.txt", tmp_path / "odd.txt"
    plain.write_text("x0 -> x0\n(x0 & x1) -> x0\n")
    # a form feed, NEL or line separator inside a line is whitespace
    odd.write_bytes("x0 ->\x0c x0\r\n(x0 & x1)\x85->\u2028x0\n".encode())
    assert cli.main(["prop", "sp", "--file", str(plain), "--cap", "8"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["prop", "sp", "--file", str(odd), "--cap", "8"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("systems", [",", "", " , "])
def test_prop_sp_refuses_an_empty_system_list(tmp_path, capsys, systems):
    out = tmp_path / "sp.csv"
    assert cli.main(["prop", "sp", "x0 -> x0", "--systems", systems, "--csv", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--systems" in err


@pytest.mark.parametrize(
    "argv, header",
    [
        (["prop", "sp", "x0 | !x0", "--cap", "8"], "system,formula,size"),
        (["prop", "psim", "--n-max", "1"], "formula,original_ok"),
        (["--deterministic", "bench", "--k", "10,20", "--m", "8"], "k,m"),
    ],
    ids=["sp", "psim", "bench"],
)
def test_csv_dash_writes_to_stdout(tmp_path, monkeypatch, capsys, argv, header):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--csv", "-"]) == 0
    assert capsys.readouterr().out.startswith(header)
    assert list(tmp_path.iterdir()) == []


def test_prop_sp_says_which_cap_ended_the_search(tmp_path):
    out = tmp_path / "sp.csv"
    assert cli.main(["prop", "sp", "x0 -> (x1 -> x0)", "--cap", "13", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    # the node cap, not the step cap, ends the resolution search
    assert rows[0] == "resolution,(x0 -> (x1 -> x0)),5,,True,13,250001,True"
    # the table measure does not search
    assert rows[1] == "table,(x0 -> (x1 -> x0)),5,12,False,13,0,False"


def test_removed_proof_systems_are_usage_errors(tmp_path, capsys):
    assert cli.main(["prop", "sp", "x0 | !x0", "--systems", "er"]) == 2
    assert "unknown proof system" in capsys.readouterr().err
    assert cli.main(["prop", "psim", "--pair", "table:resolution", "--csv", str(tmp_path / "p.csv")]) == 2


def test_prop_psim_reports_growth(tmp_path, capsys):
    out = tmp_path / "psim.csv"
    assert cli.main(["prop", "psim", "--n-max", "1", "--csv", str(out)]) == 0
    assert "all accepted: True" in capsys.readouterr().err
    header = out.read_text().splitlines()[0]
    assert header == "formula,original_ok,translated_ok,original_size,translated_size"


def test_prop_psim_refuses_a_bound_past_the_truth_table_limit(tmp_path, capsys):
    out = tmp_path / "psim.csv"
    assert cli.main(["prop", "psim", "--n-max", "24", "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--n-max 24" in err
    assert not out.exists()


def test_prop_psim_refuses_a_negative_bound(tmp_path, capsys):
    out = tmp_path / "psim.csv"
    assert cli.main(["prop", "psim", "--n-max", "-1", "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--n-max -1" in err
    assert not out.exists()


def test_prop_psim_table_to_resolution_completes_at_its_default_bound(tmp_path, capsys):
    out = tmp_path / "psim.csv"
    assert cli.main(["prop", "psim", "--csv", str(out)]) == 0
    assert "10 items, all accepted: True" in capsys.readouterr().err
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 10 and all(",True,True," in row for row in rows)


# --- hostile propositional input ------------------------------------------------------


@pytest.mark.parametrize("op", ["taut", "sp"])
@pytest.mark.parametrize("formula", ["!" * 5_000 + "x0", "(" * 3_000 + "x0" + ")" * 3_000], ids=["not", "parens"])
def test_deeply_nested_prop_formula_is_a_usage_error(capsys, op, formula):
    assert cli.main(["prop", op, formula]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"nesting deeper than {prop.MAX_PROP_NESTING} levels" in err


@pytest.mark.parametrize("op", ["taut", "sp"])
@pytest.mark.parametrize(
    "formula",
    [
        "(" * (prop.MAX_PROP_NESTING - 1) + "x0 | !x0" + ")" * (prop.MAX_PROP_NESTING - 1),
        "x0 | " * prop.MAX_PROP_NESTING + "!x0",
    ],
    ids=["parens", "or-chain"],
)
def test_prop_formula_at_the_nesting_cap_is_measured(capsys, op, formula):
    assert cli.main(["prop", op, formula]) == 0
    if op == "taut":
        assert capsys.readouterr().out.startswith("tautology")


def test_deeply_nested_translation_is_linear(capsys):
    # 2,400 nested connectives, under MAX_NESTING.  A translation that folds
    # every subtree again at each connective is quadratic in the nesting:
    # about 21 s on this input on a 2-core x86-64 host.
    formula = "x = x"
    for _ in range(1_200):
        formula = "!(x = x -> " + formula + ")"
    assert len(formula) == 14_405
    start = time.perf_counter()
    assert cli.main(["prop", "translate", formula, "--n", "2"]) == 0
    assert time.perf_counter() - start < 5.0
    assert "tautology at n=2: yes" in capsys.readouterr().err


def test_dimacs_negative_count_is_a_usage_error(tmp_path, capsys):
    cnf, rp = tmp_path / "neg.cnf", tmp_path / "neg.rp"
    cnf.write_text("p cnf -3 0\n")
    rp.write_text("i 0\n")
    assert cli.main(["prop", "check", str(cnf), str(rp)]) == 2
    assert "negative count" in capsys.readouterr().err


def _mutate(rng, text, alphabet):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(len(chars) + 1)
        match rng.randrange(4):
            case 0 if chars:
                del chars[min(k, len(chars) - 1)]
            case 1:
                chars.insert(k, rng.choice(alphabet))
            case 2 if chars:
                chars[min(k, len(chars) - 1)] = rng.choice(alphabet)
            case _:
                j = rng.randrange(len(chars) + 1)
                chars[k:k] = chars[min(j, k) : max(j, k)]
    return "".join(chars)


def _assert_clean_exit(code, capsys):
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert "Traceback" not in err and err.strip()


def test_fuzzed_prop_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(8301)
    pairs = []
    while len(pairs) < 12:
        cs = random_clause_set(rng)
        proof = prop.dp_refutation(cs)
        if proof is not None:
            pairs.append((prop.to_dimacs(cs), prop.print_resolution_text(proof)))
    cnf, rp = tmp_path / "f.cnf", tmp_path / "f.rp"
    codes = set()
    for _ in range(150):
        cnf_text, rp_text = rng.choice(pairs)
        if rng.random() < 0.7:
            cnf_text = _mutate(rng, cnf_text, "0123456789- \npcnf")
        if rng.random() < 0.7:
            rp_text = _mutate(rng, rp_text, "0123456789- \nirea#")
        cnf.write_text(cnf_text)
        rp.write_text(rp_text)
        code = cli.main(["prop", "check", str(cnf), str(rp)])
        _assert_clean_exit(code, capsys)
        codes.add(code)
    texts = ["x0 -> (x1 -> x0)", "((x0 -> x1) -> x0) -> x0", "(x0 & x1) -> x0", "!(x0 & !x0)", "x0 | !x1"]
    for _ in range(150):
        text = _mutate(rng, rng.choice(texts), "x01!&|->() TF#")
        for argv in (["prop", "taut", text], ["prop", "sp", text, "--cap", "4"]):
            code = cli.main(argv)
            _assert_clean_exit(code, capsys)
            codes.add(code)
    assert codes == {0, 1, 2}


# --- configuration ----------------------------------------------------------


def test_config_dumps_loads_round_trip():
    cfg = cfgmod.RunConfig(seed=7, theory="pa", deterministic=True, bench_k="10,20")
    again = cfgmod.loads(cfgmod.dumps(cfg))
    assert again == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown key"):
        cfgmod.loads("not_a_field = 3\n")
    with pytest.raises(ValueError, match="theory"):
        cfgmod.loads("theory = zf\n")


@pytest.mark.parametrize("value", ["abc", "1e3", "3.0", ""])
def test_config_names_the_line_and_key_of_a_bad_integer(value):
    with pytest.raises(ValueError) as e:
        cfgmod.loads(f"theory = q\nseed = {value}\n")
    assert str(e.value) == f"line 2: seed must be an integer, got {value!r}"


def test_config_lines_end_at_newline_alone():
    with pytest.raises(ValueError, match="line 2: unknown key"):
        cfgmod.loads("seed = 3\x0c\nnot_a_field = 3\r\n")
    # one line, whose value is not a number
    with pytest.raises(ValueError, match="line 1: seed must be an integer"):
        cfgmod.loads("seed = 3\u2028seed = 4\n")


def test_bench_csv_is_byte_identical_in_deterministic_mode(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgmod.dumps(cfgmod.RunConfig(deterministic=True)))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli.main(["--config", str(cfgfile), "bench", "--k", "10:40", "--m", "16", "--csv", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header.split(",")[:2] == ["k", "m"]
    assert "symbol_comparisons" in header and "wall_ns" in header


def test_bench_symbol_comparisons_column_is_monotone_in_k(tmp_path):
    out = tmp_path / "mono.csv"
    assert cli.main(["--deterministic", "bench", "--k", "10:100", "--m", "16", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    comparisons = [int(r.split(",")[4]) for r in rows]
    assert comparisons == sorted(comparisons)


def test_global_deterministic_flag_zeroes_bench_wall_time(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["--deterministic", "bench", "--k", "10,20", "--m", "8", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",")[-1] == "wall_ns"
    assert [r.split(",")[-1] for r in rows[1:]] == ["0"] * (len(rows) - 1)
    # the flag belongs to the top-level parser only
    assert cli.main(["bench", "--k", "10,20", "--m", "8", "--deterministic"]) == 2


@pytest.mark.parametrize(
    "argv, config, m",
    [
        (["bench", "--m", "3"], "", 3),
        (["bench", "--m", "0:16"], "", 0),
        (["bench"], "fixed_m = 4\n", 4),
        (["suite"], "fixed_m = 4\n", 4),
    ],
    ids=["one-m", "m-range", "fixed-m", "suite"],
)
def test_a_chain_too_small_for_its_atoms_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, config, m):
    # the chain's atoms are equations of at least five symbols
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(config)
    assert cli.main(["--config", "run.cfg", *argv]) == 2
    assert capsys.readouterr().err == f"forge: m = {m} is below 5, the smallest atom of the detachment chain\n"


@pytest.mark.parametrize(
    "argv, k",
    [(["--deterministic", "bench", "--k", "-3", "--m", "8"], -3), (["bench", "--k", "0:20", "--m", "8:16"], 0)],
    ids=["one-k", "k-range"],
)
def test_a_chain_shorter_than_four_lines_is_a_usage_error(capsys, argv, k):
    # mp_chain builds at least one unit, four lines, whatever k asks for
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"forge: k = {k} is below 4, the shortest detachment chain\n")


def test_the_shortest_chain_is_measured(capsys):
    assert cli.main(["--deterministic", "bench", "--k", "4,7", "--m", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["4", "8", "4"], ["7", "8", "7"]]


@pytest.mark.parametrize("key, spec", [("bench_k", "50"), ("bench_m", "16"), ("bench_k", "10,10")])
def test_the_suite_refuses_a_sweep_with_no_slope(tmp_path, capsys, key, spec):
    # criterion 1 fits a slope on each axis, which takes two distinct points;
    # `forge bench` takes one value as pinning its axis
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {spec}\n")
    assert cli.main(["--config", str(cfgfile), "suite", "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"forge: {key} = {spec!r} has fewer than two distinct points to fit a slope over\n"
    assert cli.main(["--config", str(cfgfile), "bench", "--csv", str(tmp_path / "b.csv")]) == 0


def test_con_numerals_override_the_configured_mode(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgmod.dumps(cfgmod.RunConfig(numeral_mode="binary")))
    sizes = {}
    for mode in ("binary", "unary"):
        assert cli.main(["--config", str(cfgfile), "con", "q", "--m", "3", "--numerals", mode, "--no-eval"]) == 0
        sizes[mode] = capsys.readouterr().out.splitlines()[1]
    assert sizes == {"binary": "size: 32", "unary": "size: 33"}
    assert cli.main(["con", "q", "--m", "1", "--numerals", "octal", "--no-eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: forge con")
    assert "invalid choice: 'octal'" in err


def test_config_file_unreadable_is_usage_error():
    assert cli.main(["--config", "/nonexistent/run.cfg", "member", "q", "0 = 0", "--k", "1"]) == 2


# --- dispatch coverage -------------------------------------------------------------


def collect_subcommands():
    parser = cli.build_parser()
    subs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                subs[name] = sp
    return subs


def test_every_module_operation_maps_to_a_real_subcommand():
    subs = collect_subcommands()
    prop_ops = set()
    for action in subs["prop"]._actions:
        if isinstance(action, argparse._SubParsersAction):
            prop_ops = set(action.choices)
    assert prop_ops == {"check", "taut", "translate", "sp", "psim"}
    for op, path in cli.OPERATION_MAP.items():
        head, *rest = path.split()
        assert head in subs, f"{op} maps to unknown subcommand {path!r}"
        if rest:
            assert head == "prop" and rest[0] in prop_ops or head == "bench", path


def test_operation_map_covers_every_documented_module():
    modules = {op.split(".")[0] for op in cli.OPERATION_MAP}
    assert modules == {"calculus", "verifier", "bench", "goedel", "bounded", "propositional", "suite"}


def test_every_subcommand_has_a_handler():
    subs = collect_subcommands()
    for name, sp in subs.items():
        if name == "prop":
            continue
        assert sp.get_default("handler") is not None, name


# --- the suite runner ---------------------------------------------------------------


def _stub_criteria(flags):
    def make(i, ok):
        def run(cfg):
            return CriterionResult(i, f"stub_{i}", ok, {"note": "stub"})

        return run

    return tuple(make(i + 1, ok) for i, ok in enumerate(flags))


def test_suite_writes_versioned_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(suitemod, "ALL_CRITERIA", _stub_criteria([True, True]))
    out = tmp_path / "report.json"
    assert cli.main(["suite", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "forge-report/1"
    assert report["passed"] is True
    assert [c["id"] for c in report["criteria"]] == [1, 2]
    printed = capsys.readouterr().out
    assert "criterion 1 (stub_1): PASS" in printed


def test_suite_failure_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(suitemod, "ALL_CRITERIA", _stub_criteria([True, False]))
    out = tmp_path / "report.json"
    assert cli.main(["suite", "--report", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_suite_report_is_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(suitemod, "ALL_CRITERIA", _stub_criteria([True]))
    blobs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(["--deterministic", "suite", "--report", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_deterministic_suite_report_is_pinned(suite_run):
    code, report = suite_run
    assert code == 0
    digest = hashlib.sha256(report).hexdigest()
    assert digest == "a7534d13b7807d7075daeb8b4103e84cfce855fe669d35ff18b07390a6b6619a"


def _self_proving(levels):
    found = dataclasses.replace(levels[0].self_search, outcome="found")
    return [dataclasses.replace(levels[0], self_search=found), *levels[1:]]


def _repeating(levels):
    return [levels[0], dataclasses.replace(levels[1], con_code=levels[0].con_code), *levels[2:]]


@pytest.mark.parametrize("command", ["regen", "demo"])
@pytest.mark.parametrize("damage", [_self_proving, _repeating], ids=["self-proof", "repeated-code"])
def test_a_failing_chain_exits_one(monkeypatch, command, damage):
    real = suitemod.regeneration_chain
    monkeypatch.setattr(suitemod, "regeneration_chain", lambda **kw: damage(real(**kw)))
    assert cli.main([command, "--depth", "2", "--m", "8"]) == 1


@pytest.mark.parametrize("argv", [["--depth", "9"], ["--m", "0"]], ids=["depth", "m"])
def test_a_demo_usage_error_prints_nothing_to_stdout(capsys, argv):
    assert cli.main(["demo", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, marker",
    [
        (["member", "q", "x = 0", "--k", "2"], "definitive: False"),
        (["shortest", "q", "x = 0", "--cap", "9"], "(definitive: False)"),
        (["regen", "--depth", "1"], "self-search=budget_exhausted"),
        (["demo", "--depth", "1"], "): budget_exhausted\n"),
    ],
    ids=["member", "shortest", "regen", "demo"],
)
def test_the_configured_node_cap_binds_every_search(tmp_path, capsys, argv, marker):
    # at the default caps each of these searches ends definitively, after
    # more than five nodes
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("node_cap = 5\n")
    cli.main(argv)
    assert marker not in capsys.readouterr().out
    assert cli.main(["--config", str(cfgfile), *argv]) == 1
    assert marker in capsys.readouterr().out


@pytest.mark.parametrize(
    "criterion",
    [suitemod.criterion_5_bounded_consistency, suitemod.criterion_6_regeneration, suitemod.criterion_9_witness],
    ids=["5", "6", "9"],
)
def test_the_configured_node_cap_binds_the_suite_s_searches(criterion):
    # criterion 9's searches end within 1 and 3 nodes, so a cap of 2 cuts them
    assert criterion(cfgmod.RunConfig(node_cap=2)).passed is False


def test_criterion_2_checks_the_membership_witness(monkeypatch):
    real_corpus, real_membership = suitemod.membership_formula_corpus, suitemod.l_k_membership
    forged = []

    def forge_first_witness(*args, **kwargs):
        report = real_membership(*args, **kwargs)
        if report.member and not forged:
            forged.append(report)
            return dataclasses.replace(report, proof=Proof(()))
        return report

    monkeypatch.setattr(suitemod, "membership_formula_corpus", lambda rng, n: real_corpus(rng, n)[:20])
    monkeypatch.setattr(suitemod, "l_k_membership", forge_first_witness)
    result = suitemod.criterion_2_membership_agreement(cfgmod.RunConfig())
    assert forged and result.passed is False
    assert result.details["disagreements"] == 1


def test_regen_report_schema(tmp_path):
    out = tmp_path / "regen.json"
    assert cli.main(["regen", "--depth", "1", "--m", "8", "--report", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "forge-regen/1"
    assert data["ok"] is True
    assert len(data["levels"]) == 1
