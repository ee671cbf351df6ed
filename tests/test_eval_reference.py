"""The term evaluator and `eval_delta0` dispatch on the node's type.

`calculus._eval_term`, `goedel.eval_delta0`, `goedel._exists_points` and the
COMPUTE matcher are compared with the versions they replaced, kept here as
references: they chose each case with a class-pattern `match`, and found
free variables with the walk `syntax.free_variables` had before it descended
in place.  Both sides must give the same value or the same exception (type
and message), charge the budget the same total, and run out of it at the
same `used`, at every limit in LIMITS."""

import random
from dataclasses import replace

from proofforge.calculus import (
    ComputeJust,
    Cost,
    EvalBudget,
    EvalBudgetExceeded,
    Proof,
    ProofLine,
    _match_compute,
    eval_term_in,
)
from proofforge.corpus import _rand_delta0, derived_theorem_corpus, random_delta0_sentence
from proofforge.goedel import (
    _exists_points,
    binary_numeral,
    con_bounded,
    diagonalize,
    encode_formula,
    encode_proof,
    eval_delta0,
    standard_theory,
)
from proofforge.syntax import (
    ZERO,
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Implies,
    Not,
    Plus,
    Succ,
    Times,
    Var,
    Zero,
    _children,
    formula_size,
    free_variables,
    is_sentence,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
)

Q = standard_theory()
LIMITS = (5, 20, 10_000_000, 10**10)


# --- the evaluator as it was ---------------------------------------------------


def reference_free_variables(root):
    found = set()
    bound = frozenset()
    stack = [root]
    pop = stack.pop
    while stack:
        x = pop()
        cls = type(x)
        while cls is Succ:
            x = x.arg
            cls = type(x)
        if cls is Var:
            if x.name not in bound:
                found.add(x.name)
        elif cls is DefFn:
            stack += x.args
        elif cls is frozenset:
            bound = x
        elif cls is ForAll:
            stack += (bound, x.body)
            bound = bound | {x.var}
        elif cls is BoundedForAll or cls is BoundedExists:
            stack += (bound, x.body, bound | {x.var}, x.bound)
        else:
            stack += _children(x)
    return frozenset(found)


def reference_eval_term(theory, t, budget, env, memo):
    v = memo.get(id(t))
    if v is not None:
        return v
    budget.charge()
    match t:
        case Var(name):
            if name not in env:
                raise ValueError(f"cannot evaluate open term (free variable {name!r})")
            return env[name]
        case Zero():
            v = 0
        case Succ(_):
            inner, n = t, 0
            while isinstance(inner, Succ):
                n += 1
                inner = inner.arg
            budget.charge(n)
            v = n + reference_eval_term(theory, inner, budget, env, memo)
            if id(inner) not in memo:
                return v
        case Plus(a, b):
            v = reference_eval_term(theory, a, budget, env, memo) + reference_eval_term(theory, b, budget, env, memo)
            if id(a) not in memo or id(b) not in memo:
                return v
        case Times(a, b):
            va = reference_eval_term(theory, a, budget, env, memo)
            vb = reference_eval_term(theory, b, budget, env, memo)
            budget.charge(max(va.bit_length() + vb.bit_length(), 1) // 8)
            v = va * vb
            if id(a) not in memo or id(b) not in memo:
                return v
        case DefFn(sym, args):
            ext = theory.def_extensions.get(sym)
            if ext is None:
                raise KeyError(f"function symbol {sym!r} not registered in theory {theory.name!r}")
            vals = [reference_eval_term(theory, a, budget, env, memo) for a in args]
            budget.charge(4)
            v = ext.evaluator(*vals, budget=budget)
            for a in args:
                if id(a) not in memo:
                    return v
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = v
    return v


def reference_eval_term_in(theory, t, budget=None, env=None):
    if budget is None:
        budget = EvalBudget()
    return reference_eval_term(theory, t, budget, env or {}, {})


def reference_exists_points(theory, var, body, n, b, scope, memo):
    match body:
        case Eq(DefFn(sym, (Var(v), t)), r) if v == var:
            ext = theory.def_extensions.get(sym)
            if (
                ext is not None
                and ext.support is not None
                and var not in reference_free_variables(t) | reference_free_variables(r)
                and reference_eval_term(theory, r, b, scope, memo) != 0
            ):
                return ext.support(reference_eval_term(theory, t, b, scope, memo), n)
    return range(n + 1)


def reference_eval_delta0(theory, f, env=None, budget=None):
    b = EvalBudget() if budget is None else budget
    scope = dict(env) if env else {}
    missing = reference_free_variables(f) - scope.keys()
    if missing:
        raise ValueError(f"free variables {sorted(missing)} have no value")
    memo = {}

    def ev(g):
        b.charge()
        match g:
            case Eq(left, right):
                return reference_eval_term(theory, left, b, scope, memo) == reference_eval_term(
                    theory, right, b, scope, memo
                )
            case Not(body):
                return not ev(body)
            case Implies(a, c):
                return (not ev(a)) or ev(c)
            case BoundedForAll(var, bound, body) | BoundedExists(var, bound, body):
                stop = isinstance(g, BoundedExists)
                n = reference_eval_term(theory, bound, b, scope, memo)
                saved = scope.get(var)
                try:
                    for i in reference_exists_points(theory, var, body, n, b, scope, memo) if stop else range(n + 1):
                        b.charge()
                        scope[var] = i
                        if ev(body) is stop:
                            return stop
                    return not stop
                finally:
                    if saved is None:
                        scope.pop(var, None)
                    else:
                        scope[var] = saved
            case ForAll(_, _):
                raise ValueError(f"not a bounded formula: {print_formula(g)}")
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


def reference_match_compute(theory, f, cost):
    if not isinstance(f, Eq):
        return None
    if reference_free_variables(f):
        return None
    if cost is not None:
        cost.symbol_comparisons += formula_size(f)
    try:
        lv = reference_eval_term_in(theory, f.left)
        rv = reference_eval_term_in(theory, f.right)
    except (EvalBudgetExceeded, KeyError, ValueError):
        return None
    if lv == rv:
        return ComputeJust(value=lv)
    return None


# --- the comparison ------------------------------------------------------------


def _outcome(run, limit):
    """What a call does at a budget limit: its value or its exception, and
    the budget used when it returned or raised."""
    budget = EvalBudget(limit)
    try:
        value = run(budget)
    except (EvalBudgetExceeded, KeyError, ValueError, TypeError) as e:
        return type(e).__name__, str(e), budget.used
    return "value", value, budget.used


def _compare(new, old):
    """Compare two calls at every limit; return how many outcomes were
    compared and how many of them ran out of budget."""
    exceeded = 0
    for limit in LIMITS:
        got, want = _outcome(new, limit), _outcome(old, limit)
        assert got == want, limit
        exceeded += got[0] == "EvalBudgetExceeded"
    return len(LIMITS), exceeded


def _sentence_pair(theory, f, env=None):
    return (
        lambda budget: eval_delta0(theory, f, env=env, budget=budget),
        lambda budget: reference_eval_delta0(theory, f, env=env, budget=budget),
    )


def _term_pair(theory, t, env=None):
    return (
        lambda budget: eval_term_in(theory, t, budget, env),
        lambda budget: reference_eval_term_in(theory, t, budget, env),
    )


def _without_support(theory):
    exts = dict(theory.def_extensions)
    exts["prft"] = replace(exts["prft"], support=None)
    return replace(theory, def_extensions=exts)


def test_random_sentences_evaluate_and_charge_as_before():
    rng = random.Random(3)
    compared = exceeded = true = 0
    for _ in range(10_000):
        f = random_delta0_sentence(rng, depth=3, bound_cap=3)
        n, x = _compare(*_sentence_pair(Q, f))
        compared += n
        exceeded += x
        true += eval_delta0(Q, f)
    # criterion 3's sentences: 4,545 of 10,000 are true; 8,829 run out of
    # budget at limit 5 and 1,835 at limit 20
    assert (compared, exceeded, true) == (40_000, 10_664, 4_545)


def test_free_variables_and_sentences_are_found_as_before():
    rng = random.Random(3)
    open_bodies = 0
    for _ in range(2_000):
        stack = [random_delta0_sentence(rng, depth=3, bound_cap=3)]
        while stack:
            g = stack.pop()
            want = reference_free_variables(g)
            assert free_variables(g) == want
            assert is_sentence(g) is not want
            open_bodies += bool(want)
            if isinstance(g, (Not, BoundedForAll, BoundedExists)):
                stack.append(g.body)
            elif isinstance(g, Implies):
                stack += (g.antecedent, g.consequent)
    assert open_bodies > 1_000
    x, y = Var("x"), Var("y")
    for f in (ForAll("x", Eq(x, y)), ForAll("x", Implies(Eq(x, x), ForAll("y", Eq(x, y)))), BoundedForAll("x", x, Eq(x, ZERO))):
        assert free_variables(f) == reference_free_variables(f)
        assert is_sentence(f) is not reference_free_variables(f)


def test_consistency_sweeps_evaluate_and_charge_as_before():
    # m = 3 without its support sweeps about 1.1M codes, so it runs at the
    # limits that stop it early and at one that does not
    compared = exceeded = 0
    for theory in (Q, _without_support(Q)):
        for m in (1, 2, 3):
            for mode in ("binary", "unary"):
                f = con_bounded(theory, m, numeral_mode=mode)
                new, old = _sentence_pair(theory, f)
                limits = (5, 20, 200_000, 10**10) if theory is not Q and m == 3 else LIMITS
                for limit in limits:
                    got, want = _outcome(new, limit), _outcome(old, limit)
                    assert got == want, (m, mode, limit)
                    compared += 1
                    exceeded += got[0] == "EvalBudgetExceeded"
    assert (compared, exceeded) == (48, 26)


def test_arithmetized_operators_evaluate_and_charge_as_before():
    # the sub, diag and prft terms of test_goedel
    c = encode_formula(parse_formula("x = x"))
    f_code = encode_formula(parse_formula("0 = 0"))
    p_code = encode_proof(Proof((ProofLine(parse_formula("0 = 0"), ComputeJust()),)))
    terms = [DefFn("sub", (binary_numeral(c), binary_numeral(d))) for d in (0, 1, 7)]
    terms.append(DefFn("diag", (binary_numeral(c),)))
    wrong = encode_formula(parse_formula("S(0) = 0"))
    for p, target in ((p_code, f_code), (p_code, wrong), (12345, f_code)):
        terms.append(DefFn("prft", (binary_numeral(p), binary_numeral(target))))
    compared = 0
    for t in terms:
        compared += _compare(*_term_pair(Q, t))[0]
        # and inside a sentence, whose memo serves both sides
        compared += _compare(*_sentence_pair(Q, Eq(t, Plus(t, ZERO))))[0]
    assert compared == 2 * len(terms) * len(LIMITS)


def test_open_terms_unknown_symbols_and_unbounded_quantifiers_fail_as_before():
    x, y = Var("x"), Var("y")
    shared = Plus(numeral(2), Times(numeral(3), numeral(2)))
    terms = [
        (Plus(x, numeral(3)), None),
        (Plus(x, numeral(3)), {"x": 4}),
        (Times(Plus(shared, x), Plus(x, shared)), {"x": 5}),
        (Times(Plus(shared, x), Plus(x, shared)), {"y": 5}),
        (Succ(Succ(Plus(x, y))), {"x": 1}),
        (Succ(Succ(Plus(x, y))), {"x": 1, "y": 2}),
        (Plus(shared, shared), None),
        (DefFn("nope", (ZERO,)), None),
        (DefFn("dbl", (DefFn("nope", (x,)),)), None),
        (DefFn("pair", (shared, DefFn("dbl", (x,)))), {"x": 9}),
        (Times(numeral(2**10), parse_term("dbl(dbl(dbl(S(S(S(0))))))")), None),
        (Plus(Not(Eq(ZERO, ZERO)), ZERO), None),
    ]
    sentences = [
        (parse_formula("forall x (x = x)"), None),
        (parse_formula("forall<= y S(S(0)) forall x (x = y)"), None),
        (parse_formula("forall<= y S(S(0)) (y = 0 -> forall x (x = y))"), None),
        (parse_formula("x = x"), None),
        (parse_formula("x = y -> z = x"), {"y": 1}),
        (parse_formula("forall<= y x (x + y = y + x)"), {"x": 3}),
        (parse_formula("exists<= y x (y * y = x)"), {"x": 9}),
        (BoundedForAll("x", numeral(2), Eq(DefFn("nope", (Var("x"),)), ZERO)), None),
        (parse_formula("exists<= p bnd(S(0)) prft(p, 0) = S(0)"), None),
        (parse_formula("exists<= p bnd(S(S(0))) prft(p, S(0)) = 0"), None),
        (BoundedExists("y", numeral(2), Eq(DefFn("nope", (Var("y"), ZERO)), numeral(1))), None),
        (Eq(ZERO, Not(Eq(ZERO, ZERO))), None),
        (Implies(Eq(ZERO, ZERO), ZERO), None),
        (ZERO, None),
    ]
    compared = 0
    for t, env in terms:
        compared += _compare(*_term_pair(Q, t, env))[0]
    for f, env in sentences:
        compared += _compare(*_sentence_pair(Q, f, env))[0]
    # a non-term hidden below a variable-free subterm fails alike in the
    # free-variable pre-check
    for f in (Eq(ZERO, Succ("junk")), Not(Eq(DefFn("dbl", ("junk",)), ZERO))):
        compared += _compare(*_sentence_pair(Q, f))[0]
    assert compared == (len(terms) + len(sentences) + 2) * len(LIMITS)


def _compare_open(f, env):
    """Compare like _compare; where f has a free variable that env gives no
    value, the ValueError leaves the caller's budget untouched.  Returns how
    many outcomes were that ValueError."""
    new, old = _sentence_pair(Q, f, env)
    missing = 0
    for limit in LIMITS:
        got, want = _outcome(new, limit), _outcome(old, limit)
        assert got == want, (print_formula(f), env, limit)
        if got[0] == "ValueError" and got[1].startswith("free variables"):
            assert got[2] == 0, (print_formula(f), env, limit)
            missing += 1
    return missing


def test_open_formulas_fail_and_charge_as_before():
    rng = random.Random(11)
    compared = missing = 0
    for _ in range(1_000):
        f = _rand_delta0(rng, 3, ("x",), 3)
        k = rng.randrange(4)
        for env in (None, {"x": k}, {"y": k}):
            missing += _compare_open(f, env)
            compared += len(LIMITS)
    # 775 of the 1,000 formulas have x free; "y" is also the first bound
    # variable the generator picks, so {"y": k} is shadowed inside a sweep
    assert (compared, missing) == (12_000, 6_200)


def test_free_variables_and_junk_in_skipped_parts_fail_as_before():
    x, y = Var("x"), Var("y")
    false = Eq(ZERO, Succ(ZERO))
    missing, value, bad = "free variables", "value", "not a "
    cases = [
        # the only free variable sits in a consequent after a false antecedent
        (parse_formula("0 = S(0) -> x = 0"), None, missing),
        (parse_formula("0 = S(0) -> x = 0"), {"x": 0}, value),
        (parse_formula("0 = S(0) -> forall<= y x (y = 0)"), {"y": 2}, missing),
        (parse_formula("!(0 = S(0) -> (S(0) = 0 -> z = 0))"), None, missing),
        # in a consequent that one iteration of a sweep evaluates and another skips
        (parse_formula("forall<= y S(0) (y = 0 -> z = y)"), None, missing),
        (parse_formula("forall<= y S(0) (y = S(0) -> z = y)"), None, missing),
        (parse_formula("forall<= y S(0) (y = S(0) -> z = y)"), {"y": 7}, missing),
        (parse_formula("exists<= y S(S(0)) !(y = S(0) -> z = y)"), {"z": 1}, value),
        # in the body of a sweep with no points
        (parse_formula("forall<= y x (y = z)"), {"x": -1}, missing),
        (parse_formula("exists<= y x (y = z)"), {"x": -1}, missing),
        (parse_formula("forall<= y x (y = z)"), {"x": -1, "z": 0}, value),
        (parse_formula("exists<= p 0 (prft(p, 0) = S(0))"), None, value),
        # an unbounded quantifier fails only where the evaluation reaches it
        (parse_formula("0 = S(0) -> forall x (x = x)"), None, value),
        (parse_formula("0 = 0 -> forall x (x = x)"), None, bad),
        (parse_formula("0 = S(0) -> forall x (x = z)"), None, missing),
        # an object that is not a term, only in a skipped part
        (Implies(false, Eq(Succ("junk"), ZERO)), None, bad),
        (Implies(false, Eq(Succ("junk"), Var("z"))), None, bad),
        (BoundedForAll("y", x, Eq(DefFn("dbl", ("junk",)), y)), {"x": -1}, bad),
    ]
    found = 0
    for f, env, want in cases:
        kind, message, _ = _outcome(_sentence_pair(Q, f, env)[0], 10**10)
        assert (kind if kind == value else message).startswith(want), print_formula(f)
        found += _compare_open(f, env)
    assert found == 9 * len(LIMITS)


def test_exists_points_visit_and_charge_as_before():
    c = binary_numeral(encode_formula(parse_formula("0 = 0")))
    p, q = Var("p"), Var("q")
    bodies = [
        Eq(DefFn("prft", (p, c)), Succ(ZERO)),
        Eq(DefFn("prft", (p, c)), ZERO),
        Eq(DefFn("prft", (p, Plus(c, p))), Succ(ZERO)),
        Eq(DefFn("prft", (p, c)), Plus(p, Succ(ZERO))),
        Eq(DefFn("prft", (q, c)), Succ(ZERO)),
        Eq(DefFn("dbl", (p,)), Succ(ZERO)),
        Eq(DefFn("pair", (p, c)), Succ(ZERO)),
        Eq(DefFn("prft", (p, c, ZERO)), Succ(ZERO)),
        Eq(Succ(ZERO), DefFn("prft", (p, c))),
        Not(Eq(DefFn("prft", (p, c)), Succ(ZERO))),
    ]
    compared = 0
    for body in bodies:
        for limit in LIMITS:
            outcomes = []
            for points in (_exists_points, reference_exists_points):
                budget = EvalBudget(limit)
                scope, memo = {"q": 3}, {}
                try:
                    seen = list(points(Q, "p", body, 2_000, budget, scope, memo))[:50]
                    outcomes.append(("value", seen, budget.used, sorted(memo.values())))
                except EvalBudgetExceeded as e:
                    outcomes.append(("EvalBudgetExceeded", str(e), budget.used))
            assert outcomes[0] == outcomes[1], (body, limit)
            compared += 1
    assert compared == len(bodies) * len(LIMITS)


def _compute_lines():
    samples = derived_theorem_corpus(Q, random.Random(5), 80)
    proofs = [s.proof for s in samples] + [diagonalize(Q, parse_formula("x = 0")).equivalence]
    for proof in proofs:
        for line in proof.lines:
            if isinstance(line.justification, ComputeJust):
                yield line.formula


def test_compute_lines_match_as_before():
    compared = 0
    lines = list(_compute_lines())
    # and a few that COMPUTE must refuse: open, false, unregistered, not an equation
    refused = [
        parse_formula("x = x"),
        parse_formula("S(0) = 0"),
        Eq(DefFn("nope", (ZERO,)), ZERO),
        parse_formula("!(0 = 0)"),
        parse_formula("forall x (x = x)"),
    ]
    accepted = 0
    for f in lines + refused:
        new_cost, old_cost = Cost(), Cost()
        got = _match_compute(Q, f, new_cost)
        want = reference_match_compute(Q, f, old_cost)
        assert got == want, print_formula(f)
        assert new_cost.symbol_comparisons == old_cost.symbol_comparisons
        assert _match_compute(Q, f, None) == got
        accepted += got is not None
        compared += 1
    assert compared == len(lines) + len(refused) and accepted == len(lines) >= 50


def test_a_shared_numeral_is_charged_once_in_either_evaluator():
    # a deep Succ run is charged its length once; later visits are memo hits
    n = numeral(3_000)
    t = Plus(Times(n, n), Plus(n, Succ(n)))
    for limit in LIMITS:
        assert _outcome(lambda b: eval_term_in(Q, t, b), limit) == _outcome(
            lambda b: reference_eval_term_in(Q, t, b), limit
        )
    f = BoundedForAll("y", numeral(3), Eq(Plus(Var("y"), n), Plus(n, Var("y"))))
    for limit in LIMITS:
        assert _outcome(lambda b: eval_delta0(Q, f, budget=b), limit) == _outcome(
            lambda b: reference_eval_delta0(Q, f, budget=b), limit
        )
