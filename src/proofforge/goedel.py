"""Arithmetization: numeric codes for formulas and proofs, self-reference.

Coding scheme
-------------
Every term and formula is serialized to a Polish (prefix) token sequence and
read as a base-44 positional number, most significant token first.  The token
alphabet has exactly 43 symbols (ids 1..43, below); since 0 is never a digit,
distinct token strings get distinct codes, the code of an n-token string has
exactly n base-44 digits, and `bnd(m) = 44**m - 1` is the largest code of any
string of at most m tokens.  Consequently the in-theory length function `len`
(digit count) agrees exactly with the token-count size measure used for
proofs, and a single bounded quantifier  exists<= p bnd(m) ...  ranges over
every proof of size at most m.

The token grammar is written once, as the slot table `_OPENS`: the encoder,
the decoder and the enumeration of `proof_candidates` all read it, so the
codes `proof_candidates` lists are exactly those the decoder accepts.

Proofs are coded as the lines' formula token sequences joined by a separator
token.  A proof code is accepted by `prft` when the decoded line sequence
verifies under the standard search-based checker and its last line is the
target formula.

Numerals
--------
Unary numerals S(S(...S(0))) for a code would be astronomically large, so
code-valued arguments always use binary numerals built from the definitional
symbols dbl(t) = 2*t and dbl1(t) = 2*t + 1; the numeral for n has about
log2(n) tokens.  `binary_numeral` builds them, and the `numeral_mode`
arguments below choose the spelling of small ordinal bounds only.

Self-reference
--------------
`diag(c)` evaluates to the code of decode(c)[v := binary_numeral(c)] where v
is the unique free variable.  `diagonalize` applies the classical fixed-point
construction to any formula psi(x) and returns the fixed point delta together
with a checkable derivation of  delta <-> psi(code of delta),  built by
lifting the computed equation  diag(numeral) = numeral  through psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import syntax
from .calculus import (
    DefExtension,
    EvalBudget,
    Proof,
    ProofLine,
    TheorySpec,
    _eval_term,
    eval_term_in,
)
from .derivations import equivalence_proof
from .syntax import (
    DEFFN_ARITIES,
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
    _free_names,
    free_variables,
    numeral,
    print_formula,
    substitute,
)
from .verifier import verify

BASE = 44

# Frozen token alphabet.  Ids are load-bearing: codes, the bnd() arithmetic
# and every pinned constant in the tests depend on this exact assignment.
_STRUCTURAL = {
    "0": 1,
    "S": 2,
    "+": 3,
    "*": 4,
    "=": 5,
    "!": 6,
    "->": 7,
    "forall": 8,
    "forall<=": 9,
    "exists<=": 10,
}
SEP_ID = 11
PRIME_ID = 12
VAR_POOL = ("x", "y", "z", "u", "v", "w", "p", "q", "a", "b", "c", "d", "e", "f", "m", "n")
_VAR_IDS = {name: 13 + i for i, name in enumerate(VAR_POOL)}
_DEFFN_NAMES = ("sub", "diag", "len", "le", "bnd", "dbl", "dbl1", "pair", "fst", "snd", "prft", "prft1", "prft2", "prft3", "prft4")
_DEFFN_IDS = {name: 29 + i for i, name in enumerate(_DEFFN_NAMES)}

TOKEN_IDS: dict[str, int] = {**_STRUCTURAL, ";": SEP_ID, "'": PRIME_ID, **_VAR_IDS, **_DEFFN_IDS}
ID_TOKENS: dict[int, str] = {i: t for t, i in TOKEN_IDS.items()}

# The token grammar: for each slot ("f" a formula, "t" a term, "v" a
# variable, "" after a proof line), the tokens that may fill it and the slots
# each opens, in reading order.  A prime may follow a variable or a prime.
_OPENS = {
    "f": {"=": "tt", "!": "f", "->": "ff", "forall": "vf", "forall<=": "vtf", "exists<=": "vtf"},
    "t": {"0": "", "S": "t", "+": "tt", "*": "tt", **{v: "" for v in VAR_POOL}, **{s: "t" * DEFFN_ARITIES[s] for s in _DEFFN_NAMES}},
    "v": {v: "" for v in VAR_POOL},
    "": {";": "f"},
}
_FEWEST_TOKENS = {"f": 3, "t": 1, "v": 1}
_SORT_NAMES = {"f": "formula", "t": "term", "v": "variable", "": "proof line"}
# the slots each token opens, whichever slot it fills
_SLOTS = {tok: slots for table in _OPENS.values() for tok, slots in table.items()}
# the node class of each token whose parts are the class's fields in order;
# variables and `DefFn` symbols carry their token in a name
_TOKEN_CLASSES = {"0": Zero, "S": Succ, "+": Plus, "*": Times, "=": Eq, "!": Not, "->": Implies, "forall": ForAll, "forall<=": BoundedForAll, "exists<=": BoundedExists}
_CLASS_TOKENS = {cls: tok for tok, cls in _TOKEN_CLASSES.items()}

assert len(TOKEN_IDS) == BASE - 1
assert set(_DEFFN_NAMES) == set(DEFFN_ARITIES)
assert {"'", *_OPENS["t"], *_OPENS["f"], *_OPENS[""]} == set(TOKEN_IDS)
assert tuple(_OPENS["v"]) == VAR_POOL


class CodingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coding: tokens and codes, by the grammar `_OPENS`
# ---------------------------------------------------------------------------


def _tokens(node: Term | Formula, sort: str) -> list[str]:
    """Polish tokens of `node` read in a `sort` slot ("t" or "f"): each node
    must be written with a token that its slot admits in `_OPENS`."""
    out: list[str] = []
    stack: list[tuple[str, object]] = [(sort, node)]
    while stack:
        sort, node = stack.pop()
        primes, parts = "", ()
        if sort == "v" or type(node) is Var:
            name = node if sort == "v" else node.name
            tok = name.rstrip("'")
            primes = name[len(tok) :]
            if tok not in _OPENS["v"]:
                raise CodingError(f"variable {name!r} is outside the codable pool")
        elif type(node) is DefFn:
            tok, parts = node.symbol, node.args
            if tok not in _DEFFN_IDS:
                raise CodingError(f"function symbol {tok!r} is not in the token alphabet")
        else:
            tok = _CLASS_TOKENS.get(type(node))
            if tok is not None:
                parts = tuple(getattr(node, field) for field in node.__match_args__)
        slots = _OPENS[sort].get(tok)
        if slots is None:
            raise CodingError(f"a {type(node).__name__} cannot fill a {_SORT_NAMES[sort]} slot")
        if len(parts) != len(slots):
            raise CodingError(f"{tok!r} applied to {len(parts)} arguments")
        out.append(tok)
        out.extend(primes)
        stack.extend(zip(slots[::-1], parts[::-1]))
    return out


def _read(digits: list[int] | tuple[int, ...], sort: str) -> list:
    """The values of a token string that is one `sort` item followed by any
    number of lines, each opened by a separator, in reading order.

    The string is read right to left, so the parts of a token are on the
    stack, leftmost on top, when the token is met; each part must be a token
    that its slot admits in `_OPENS`.
    """
    stack: list[tuple[str, object]] = []  # (token, value) of each whole item
    primes = 0
    for d in reversed(digits):
        tok = ID_TOKENS[d]
        if tok == "'":
            primes += 1
            continue
        if primes and tok not in _OPENS["v"]:
            raise CodingError(f"a prime follows {tok!r}, not a variable")
        slots = _SLOTS[tok]
        if len(stack) < len(slots):
            raise CodingError("truncated token string")
        parts = []
        for slot in slots:
            part, value = stack.pop()
            if part not in _OPENS[slot]:
                raise CodingError(f"{part!r} cannot fill a {_SORT_NAMES[slot]} slot of {tok!r}")
            parts.append(value.name if slot == "v" else value)
        if tok in _OPENS["v"]:
            value, primes = Var(tok + "'" * primes), 0
        elif tok in _DEFFN_IDS:
            value = DefFn(tok, tuple(parts))
        elif tok == ";":
            value = parts[0]
        else:
            value = ZERO if tok == "0" else _TOKEN_CLASSES[tok](*parts)
        stack.append((tok, value))
    if primes:
        raise CodingError("a prime opens the token string")
    if stack[-1][0] not in _OPENS[sort] or any(tok not in _OPENS[""] for tok, _ in stack[:-1]):
        raise CodingError(f"not a {_SORT_NAMES[sort]} followed by whole proof lines")
    return [value for _, value in reversed(stack)]


def _read_one(digits: list[int] | tuple[int, ...], sort: str) -> Term | Formula:
    value, *lines = _read(digits, sort)
    if lines:
        raise CodingError(f"a separator inside a {_SORT_NAMES[sort]} code")
    return value


# Codes and digit strings convert in chunks of _CHUNK digits: a code is
# split, and chunks are joined, by 44^(_CHUNK * 2^j) for each j, largest
# first, so a long code costs a few divisions or multiplications of numbers
# its size instead of one pass over the whole code per digit.
_CHUNK = 32
_CHUNK_POWER = BASE**_CHUNK


def tokens_to_code(tokens: list[str]) -> int:
    ids = [TOKEN_IDS.get(tok) for tok in tokens]
    if None in ids:
        raise CodingError(f"unknown token {tokens[ids.index(None)]!r}")
    # the first chunk is the short one, so every other keeps its full width
    cuts = [0, *range(len(ids) % _CHUNK or _CHUNK, len(ids) + 1, _CHUNK)]
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        code = 0
        for tid in ids[a:b]:
            code = code * BASE + tid
        parts.append(code)
    power = _CHUNK_POWER
    while len(parts) > 1:
        # join neighbours from the right, again so that only the first is short
        odd = len(parts) % 2
        parts[odd:] = [hi * power + lo for hi, lo in zip(parts[odd::2], parts[odd + 1 :: 2])]
        if len(parts) > 1:
            power *= power
    return parts[0] if parts else 0


def _digits(n: int) -> list[int] | None:
    """Base-44 digits of n, most significant first; None if any digit is 0."""
    if n <= 0:
        return None
    parts = [n]
    if n >= _CHUNK_POWER:
        powers = [_CHUNK_POWER]
        while powers[-1] <= n // powers[-1]:  # until one squared exceeds n
            powers.append(powers[-1] * powers[-1])
        for power in reversed(powers):
            halves: list[int] = []
            for x in parts:
                hi, lo = divmod(x, power)
                if hi or halves:  # a zero leading half has no digits
                    halves.append(hi)
                halves.append(lo)
            parts = halves
    out: list[int] = []
    width = 0  # every chunk after the first has _CHUNK digits, leading zeros included
    for x in parts:
        chunk = []
        while x:
            x, d = divmod(x, BASE)
            if d == 0:
                return None
            chunk.append(d)
        if len(chunk) < width:
            return None
        chunk.reverse()
        out += chunk
        width = _CHUNK
    return out


@lru_cache(maxsize=4096)
def _cached_digits(n: int) -> tuple[int, ...] | None:
    d = _digits(n)
    return None if d is None else tuple(d)


def _code_digits(code: int) -> list[int]:
    d = _digits(code)
    if d is None:
        raise CodingError(f"{code} is not the code of a token string")
    return d


def code_to_tokens(code: int) -> list[str]:
    return [ID_TOKENS[x] for x in _code_digits(code)]


def encode_term(t: Term) -> int:
    return tokens_to_code(_tokens(t, "t"))


def encode_formula(f: Formula) -> int:
    return tokens_to_code(_tokens(f, "f"))


def decode_term(code: int) -> Term:
    return _read_one(_code_digits(code), "t")


def decode_formula(code: int) -> Formula:
    return _read_one(_code_digits(code), "f")


def encode_proof(proof: Proof) -> int:
    toks: list[str] = []
    for i, line in enumerate(proof.lines):
        if i:
            toks.append(";")
        toks.extend(_tokens(line.formula, "f"))
    return tokens_to_code(toks)


def decode_proof(code: int) -> Proof:
    """Inverse of encode_proof; justifications come back empty (search-checked)."""
    return Proof(tuple(map(ProofLine, _read(_code_digits(code), "f"))))


# ---------------------------------------------------------------------------
# binary numerals
# ---------------------------------------------------------------------------


def binary_numeral(n: int) -> Term:
    """Closed term of ~log2(n) tokens denoting n, via dbl/dbl1 over 0."""
    if n < 0:
        raise ValueError("numerals denote natural numbers")
    if n == 0:
        return ZERO
    t: Term = ZERO
    for bit in bin(n)[2:]:
        t = DefFn("dbl1" if bit == "1" else "dbl", (t,))
    return t


def make_numeral(n: int, mode: str = "binary") -> Term:
    if mode == "binary":
        return binary_numeral(n)
    if mode == "unary":
        return numeral(n)
    raise ValueError(f"unknown numeral mode {mode!r}")


# ---------------------------------------------------------------------------
# definitional evaluators (all total; 0 is the rejection value)
# ---------------------------------------------------------------------------


def _ev_dbl(a: int, *, budget: EvalBudget) -> int:
    budget.charge()
    return 2 * a


def _ev_dbl1(a: int, *, budget: EvalBudget) -> int:
    budget.charge()
    return 2 * a + 1


def _ev_pair(a: int, b: int, *, budget: EvalBudget) -> int:
    budget.charge()
    s = a + b
    return s * (s + 1) // 2 + b


def _ev_fst(z: int, *, budget: EvalBudget) -> int:
    budget.charge()
    w = (math.isqrt(8 * z + 1) - 1) // 2
    return w - (z - w * (w + 1) // 2)


def _ev_snd(z: int, *, budget: EvalBudget) -> int:
    budget.charge()
    w = (math.isqrt(8 * z + 1) - 1) // 2
    return z - w * (w + 1) // 2


def _ev_le(a: int, b: int, *, budget: EvalBudget) -> int:
    budget.charge()
    return 1 if a <= b else 0


def _ev_len(p: int, *, budget: EvalBudget) -> int:
    count = 0
    while p:
        p //= BASE
        count += 1
    budget.charge(count + 1)
    return count


def _ev_bnd(m: int, *, budget: EvalBudget) -> int:
    budget.charge(m + 1)
    return BASE**m - 1


def _substituted_code(c: int, d: int, budget: EvalBudget) -> int:
    """Code of decode(c)[v := binary numeral of d], 0 if c is malformed."""
    digs = _digits(c)
    if digs is None or SEP_ID in digs:
        return 0
    budget.charge(4 * len(digs))
    try:
        f = _read_one(digs, "f")
    except CodingError:
        return 0
    fv = free_variables(f)
    if len(fv) != 1:
        return 0
    result = substitute(f, next(iter(fv)), binary_numeral(d))
    budget.charge(4 * len(digs) + d.bit_length())
    return encode_formula(result)


def _ev_sub(c: int, d: int, *, budget: EvalBudget) -> int:
    return _substituted_code(c, d, budget)


def _ev_diag(c: int, *, budget: EvalBudget) -> int:
    return _substituted_code(c, c, budget)


def _make_prft(cell: dict) -> object:
    """Evaluator for `p codes a proof of the formula coded by c` in cell["theory"]."""

    def prover(p: int, c: int, *, budget: EvalBudget) -> int:
        budget.charge(2)
        target = _cached_digits(c)
        if target is None or SEP_ID in target:
            return 0
        pd = _digits(p)
        if pd is None:
            return 0
        budget.charge(len(pd))
        # cheap filter: the digits after the last separator must be the target
        last_sep = -1
        for i, x in enumerate(pd):
            if x == SEP_ID:
                last_sep = i
        if tuple(pd[last_sep + 1 :]) != target:
            return 0
        theory = cell.get("theory")
        if theory is None:
            raise RuntimeError("provability evaluator used before its theory was built")
        budget.charge(8 * len(pd))
        try:
            proof = Proof(tuple(map(ProofLine, _read(pd, "f"))))
        except CodingError:
            return 0
        return 1 if verify(theory, proof).ok else 0

    return prover


def _line_prefixes(k: int) -> Iterator[int]:
    """Codes of the k-token strings that are one or more whole lines joined
    by separators, as `decode_proof` reads them, in increasing order."""

    def walk(code: int, pending: str, primed: bool, left: int) -> Iterator[int]:
        # `pending` holds the slots still to read, the next one last
        if not left:
            if not pending:
                yield code
            return
        opens = _OPENS[pending[-1:]]
        for tid in range(1, BASE):
            tok = ID_TOKENS[tid]
            if tok == "'" and primed:
                rest = pending
            elif tok in opens:
                rest = pending[:-1] + opens[tok][::-1]
            else:
                continue
            if sum(_FEWEST_TOKENS[s] for s in rest) < left:
                yield from walk(code * BASE + tid, rest, tok in _VAR_IDS or tok == "'", left - 1)

    return walk(0, "f", False, k)


def proof_candidates(c: int, bound: int) -> Iterator[int]:
    """Every p <= bound at which prft(p, c) can be 1, in increasing order.

    The evaluator accepts only codes whose digits after the last separator
    are c's, so the candidates are c itself and `prefix ; c` for each prefix
    of whole lines; a longer code is always the larger, so prefixes go by
    token count, and within one count in token order.
    """
    target = _cached_digits(c)
    if target is None or SEP_ID in target or c > bound:
        return
    try:
        _read_one(target, "f")
    except CodingError:
        return
    yield c
    shift = BASE ** (len(target) + 1)
    tail = SEP_ID * BASE ** len(target) + c
    k = 1
    # a k-token prefix has a nonzero leading digit, so its code is >= 44**(k-1)
    while BASE ** (k - 1) * shift + tail <= bound:
        for prefix in _line_prefixes(k):
            p = prefix * shift + tail
            if p > bound:
                return
            yield p
        k += 1


def base_registry() -> dict[str, DefExtension]:
    """The definitional symbols shared by every theory (no provability)."""
    return {
        "dbl": DefExtension("dbl", 1, _ev_dbl, "dbl(t) = 2*t"),
        "dbl1": DefExtension("dbl1", 1, _ev_dbl1, "dbl1(t) = 2*t + 1"),
        "pair": DefExtension("pair", 2, _ev_pair, "Cantor pairing"),
        "fst": DefExtension("fst", 1, _ev_fst, "left inverse of pair"),
        "snd": DefExtension("snd", 1, _ev_snd, "right inverse of pair"),
        "le": DefExtension("le", 2, _ev_le, "le(a,b) = 1 if a <= b else 0"),
        "len": DefExtension("len", 1, _ev_len, "base-44 digit count = token length"),
        "bnd": DefExtension("bnd", 1, _ev_bnd, "bnd(m) = 44**m - 1, the largest m-token code"),
        "sub": DefExtension("sub", 2, _ev_sub, "code of decode(c) with its free variable set to the numeral of d"),
        "diag": DefExtension("diag", 1, _ev_diag, "sub(c, c): the diagonal substitution"),
    }


def _theory_with_prover(name: str, symbol: str, *, extra_axioms: tuple = (), base: TheorySpec | None = None, induction: bool = False) -> TheorySpec:
    """Build a theory whose `symbol` tests provability in the theory itself."""
    cell: dict = {}
    exts = dict(base.def_extensions) if base is not None else base_registry()
    exts[symbol] = DefExtension(
        symbol, 2, _make_prft(cell), f"{symbol}(p,c) = 1 if p codes a proof of the formula coded by c", support=proof_candidates
    )
    spec = TheorySpec(
        name=name,
        extra_axioms=(base.extra_axioms if base is not None else ()) + extra_axioms,
        def_extensions=exts,
        induction=induction if base is None else base.induction,
    )
    cell["theory"] = spec
    return spec


@lru_cache(maxsize=None)
def standard_theory() -> TheorySpec:
    """Robinson arithmetic plus the coding registry; `prft` is its own provability."""
    return _theory_with_prover("Q", "prft")


@lru_cache(maxsize=None)
def induction_theory() -> TheorySpec:
    """Same registry with the induction schema switched on."""
    return _theory_with_prover("PA", "prft", induction=True)


# The theories `forge` and the suite run on, by their configuration name.
THEORIES = {"q": standard_theory, "pa": induction_theory}


PROVER_CHAIN = ("prft", "prft1", "prft2", "prft3", "prft4")


def extend_with_axiom(theory: TheorySpec, axiom: Formula, symbol: str, name: str | None = None) -> TheorySpec:
    """theory + axiom, with fresh provability symbol `symbol` for the new theory."""
    if symbol not in _DEFFN_IDS:
        raise CodingError(f"{symbol!r} is not in the token alphabet")
    return _theory_with_prover(
        name or f"{theory.name}+1",
        symbol,
        extra_axioms=(axiom,),
        base=theory,
    )


# ---------------------------------------------------------------------------
# bounded evaluation of Delta0 sentences
# ---------------------------------------------------------------------------


def _exists_points(
    theory: TheorySpec, var: str, body: Formula, n: int, b: EvalBudget, scope: dict[str, int], memo: dict[int, int]
) -> Iterable[int]:
    """The values of `var` up to n at which `exists<= var n body` needs a
    look: the support when the prune of `eval_delta0` applies, else all."""
    if type(body) is Eq:
        left, r = body.left, body.right
        if type(left) is DefFn and len(left.args) == 2:
            p, t = left.args
            if type(p) is Var and p.name == var:
                ext = theory.def_extensions.get(left.symbol)
                if (
                    ext is not None
                    and ext.support is not None
                    and var not in free_variables(t) | free_variables(r)
                    and _eval_term(theory, r, b, scope, memo) != 0
                ):
                    return ext.support(_eval_term(theory, t, b, scope, memo), n)
    return range(n + 1)


def eval_delta0(
    theory: TheorySpec,
    f: Formula,
    env: dict[str, int] | None = None,
    budget: EvalBudget | None = None,
) -> bool:
    """Truth value of a bounded formula in N (env supplies free variables).

    Terms go to the one evaluator behind `eval_term_in`, with the current
    values of the bound variables and one memo for the whole call: every
    variable-free subterm, such as the numeral inside `prft(p, N)`, is
    evaluated once and costs nothing afterwards, so sweeping a bounded
    quantifier over a large range stays close to the cost of the varying
    parts.

    A bounded exists over p whose body is `sym(p, t) = r` skips the values
    of p at which sym is surely 0, when `sym` has a `support` (see
    `DefExtension`), p occurs in neither t nor r, and r evaluates to a
    nonzero value: it then visits only `support(value of t, bound)`, the
    codes of the right shape for `prft`.  With r = 0 the body holds at every
    other p, so that sweep, like every other, visits the whole range.

    A free variable with no value in env raises ValueError before any other
    failure, and an object that is not a term or formula anywhere in f
    raises TypeError before that.  The evaluation finds both where it goes;
    the parts it skips (a consequent after a false antecedent, the body of a
    sweep with no points) are only walked for them.  An unbounded
    quantifier raises ValueError only where the evaluation reaches it:
    `0 = S(0) -> forall x (x = x)` is true.

    Budget counts the nodes evaluated (memo hits are free), the formula
    nodes visited and the quantifier steps.  The evaluation charges a
    private budget holding what is left of the caller's, and the caller's
    is charged that total in one step once f is known to have no free
    variable without a value (a formula that has one charges nothing).
    EvalBudgetExceeded propagates from the caller's budget, at the `used`
    that charging it node by node would reach.
    """
    b = EvalBudget() if budget is None else budget
    own = EvalBudget(b.limit - b.used)
    try:
        r = _eval_bounded(theory, f, dict(env) if env else {}, own)
    except Exception:
        missing = free_variables(f).difference(env or ())
        if missing:
            raise ValueError(f"free variables {sorted(missing)} have no value") from None
        b.charge(own.used)
        raise
    b.charge(own.used)
    return r


def _eval_bounded(theory: TheorySpec, f: Formula, scope: dict[str, int], b: EvalBudget) -> bool:
    """eval_delta0's walk, charging `b`; a skipped part that is open in `scope` raises ValueError."""
    # the memo holds only variable-free nodes, so changing `scope` during a
    # sweep leaves every entry valid
    memo: dict[int, int] = {}

    # Without recursion: a node is charged when entered, and the stack holds
    # the nodes waiting on a subformula's truth value: a negation, an
    # implication's antecedent (its consequent is entered in its place), and
    # a bounded quantifier's sweep, as [node, values left, saved value of
    # its variable].
    stack: list = []
    g = f
    while True:
        b.charge()
        cls = type(g)
        if cls is Eq:
            r = _eval_term(theory, g.left, b, scope, memo) == _eval_term(theory, g.right, b, scope, memo)
        elif cls is Implies or cls is Not:
            stack.append(g)
            g = g.antecedent if cls is Implies else g.body
            continue
        elif cls is BoundedForAll or cls is BoundedExists:
            # forall stops at the first false body, exists at the first true one
            stop = cls is BoundedExists
            var = g.var
            n = _eval_term(theory, g.bound, b, scope, memo)
            points = iter(_exists_points(theory, var, g.body, n, b, scope, memo) if stop else range(n + 1))
            i = next(points, None)
            if i is not None:
                stack.append([g, points, scope.get(var)])
                b.charge()
                scope[var] = i
                g = g.body
                continue
            if _free_names(g, scope, True):
                raise ValueError("the body of an empty sweep has a free variable without a value")
            r = not stop
        elif cls is ForAll:
            raise ValueError(f"not a bounded formula: {print_formula(g)}")
        else:
            raise TypeError(f"not a formula: {g!r}")
        # r is g's truth value: hand it to the nodes waiting on it
        while stack:
            node = stack[-1]
            cls = type(node)
            if cls is Not:
                stack.pop()
                r = not r
            elif cls is Implies:
                stack.pop()
                if r:
                    g = node.consequent
                    break
                if _free_names(node.consequent, scope, True):
                    raise ValueError("a skipped consequent has a free variable without a value")
                r = True
            else:
                g, points, saved = node
                stop = type(g) is BoundedExists
                if r is not stop:
                    i = next(points, None)
                    if i is not None:
                        b.charge()
                        scope[g.var] = i
                        g = g.body
                        break
                    r = not stop
                stack.pop()
                if saved is None:
                    scope.pop(g.var, None)
                else:
                    scope[g.var] = saved
        else:
            return r


# ---------------------------------------------------------------------------
# provability predicates and consistency sentences
# ---------------------------------------------------------------------------


def provability_formula(
    theory: TheorySpec,
    m: int,
    numeral_mode: str = "binary",
    symbol: str = "prft",
) -> Formula:
    """exists<= p bnd(m) (symbol(p, x) = S(0)): a proof of <= m tokens exists.

    The bound does all the work: codes of at most m tokens are exactly the
    numbers up to bnd(m).  `symbol` selects which theory's provability is
    meant (see PROVER_CHAIN); it must be registered in `theory`.
    """
    if symbol not in theory.def_extensions:
        raise CodingError(f"{symbol!r} is not registered in theory {theory.name!r}")
    if m < 1:
        raise ValueError("the proof-size bound must be positive")
    bound = DefFn("bnd", (make_numeral(m, numeral_mode),))
    return BoundedExists("p", bound, Eq(DefFn(symbol, (Var("p"), Var("x"))), Succ(ZERO)))


def refutation_target() -> Formula:
    return Not(Eq(ZERO, ZERO))


def con_bounded(
    theory: TheorySpec,
    m: int,
    numeral_mode: str = "binary",
    symbol: str = "prft",
) -> Formula:
    """No proof of !(0 = 0) with at most m tokens exists."""
    pr = provability_formula(theory, m, numeral_mode=numeral_mode, symbol=symbol)
    c = encode_formula(refutation_target())
    return Not(substitute(pr, "x", binary_numeral(c)))


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalResult:
    """Fixed point of psi: sentence <-> psi(code of sentence), with receipts."""

    sentence: Formula
    code: int
    psi_at_code: Formula
    equivalence: Proof

    @property
    def biconditional(self) -> Formula:
        return syntax.iff(self.sentence, self.psi_at_code)


def diagonalize(theory: TheorySpec, psi: Formula) -> DiagonalResult:
    """Construct delta with  |- delta <-> psi(numeral of code(delta)).

    psi must have exactly one free variable, the one diagonalized.  The
    equivalence proof lifts the computed equation
        diag(numeral of code(theta)) = numeral of code(delta)
    through psi, so every quantifier bound inside psi that mentions the free
    variable may mention nothing else.
    """
    fv = free_variables(psi)
    if len(fv) != 1:
        raise ValueError(f"need exactly one free variable, got {sorted(fv)}")
    (var,) = fv

    theta = substitute(psi, var, DefFn("diag", (Var(var),)))
    c_theta = encode_formula(theta)
    n_theta = binary_numeral(c_theta)
    delta = substitute(theta, var, n_theta)
    c_delta = encode_formula(delta)

    s = DefFn("diag", (n_theta,))
    u = binary_numeral(c_delta)
    computed = eval_term_in(theory, s, budget=EvalBudget(100_000_000))
    if computed != c_delta:
        raise RuntimeError(f"diagonal evaluator disagrees with construction: {computed} != {c_delta}")

    psi_at_code = substitute(psi, var, u)
    eqv = equivalence_proof(theory, psi, var, s, u)
    return DiagonalResult(delta, c_delta, psi_at_code, eqv)


def goedel_sentence_bounded(theory: TheorySpec, m: int) -> DiagonalResult:
    """Fixed point of 'no proof of x with at most m tokens exists'."""
    psi = Not(provability_formula(theory, m))
    return diagonalize(theory, psi)
