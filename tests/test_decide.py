import collections
import functools
import gc
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from rieszlogic import decide
from rieszlogic.bridge import bal_to_rl, rl_to_bal
from rieszlogic.decide import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CounterExample,
    LinearTerm,
    Refutation,
    SelfCheckError,
    Valid,
    _dedupe_clauses,
    check_certificate,
    check_farkas,
    clause_certificate,
    clause_valid,
    decide_bal_valid,
    decide_equal,
    decide_valid,
    linearize,
    pos_to_join,
)
from rieszlogic.kernel import BAL_AXIOMS, RL_AXIOMS
from rieszlogic.semantics import Valuation, compile_scalar, eval_rl, holds_bal, holds_rl, random_falsify
from rieszlogic.syntax import ZERO, Imp, Join, MetaVar, Var, parse_bal, parse_rl, postorder, substitute, variables
from util import SIX_NAMES, random_bal_formula, random_rl_formula, random_valuation


# -- normal form ----------------------------------------------------------------

def test_linearize_rejects_pos():
    with pytest.raises(TypeError, match=r"^not an RL formula: Pos\(inner=Var\(name='a'\)\)$"):
        linearize(parse_bal("a ^+ -> b"))


def test_decide_valid_rejects_a_metavariable():
    with pytest.raises(TypeError, match=r"^not an RL formula: MetaVar\(name='P'\)$"):
        decide_valid(MetaVar("P"))


def test_linearize_cancelling_chain():
    # the composition chain cancels to the zero function
    nf = linearize(parse_rl("(a -> b) -> (c -> a) -> (c -> b)"))
    assert nf.clauses == (frozenset({LinearTerm.zero()}),)


def test_linearize_join_zero():
    nf = linearize(parse_rl("a \\/ 0"))
    assert nf.clauses == (frozenset({LinearTerm.var("a"), LinearTerm.zero()}),)


def test_linearize_single_difference():
    nf = linearize(parse_rl("p -> q"))
    assert nf.clauses == (frozenset({LinearTerm.of({"q": 1, "p": -1})}),)


def test_normal_form_equals_eval_exactly():
    rng = random.Random(21)
    for _ in range(300):
        f = random_rl_formula(rng)
        nf = linearize(f)
        for _ in range(10):
            v = random_valuation(rng, variables(f), dimension=2, bound=7)
            assert nf.eval_vector(v) == eval_rl(f, v)


def _minimal_clauses_spec(clauses):
    # the minimal clauses, first occurrences only, in input order
    return [
        c
        for i, c in enumerate(clauses)
        if c not in clauses[:i] and not any(other < c for other in clauses)
    ]


def test_dedupe_clauses_matches_spec():
    rng = random.Random(4)
    # fresh term objects for every clause: the filter must not rely on
    # terms being interned
    term = lambda k: LinearTerm.of({"a": k - 3, "b": k % 3})
    cases = [[], [frozenset()], [frozenset({term(1), term(2)})]]
    for _ in range(400):
        clauses = []
        for _ in range(rng.randrange(1, 16)):
            r = rng.random()
            if clauses and r < 0.25:  # duplicate
                clauses.append(frozenset(rng.choice(clauses)))
            elif clauses and r < 0.6:  # nested: a subset or a superset
                base = list(rng.choice(clauses))
                if rng.random() < 0.5 and base:
                    clauses.append(frozenset(rng.sample(base, rng.randrange(len(base)))))
                else:
                    clauses.append(frozenset(base + [term(rng.randrange(6))]))
            else:  # sizes 1-3 from six terms: many equal-size clauses
                clauses.append(frozenset(term(rng.randrange(6)) for _ in range(rng.randint(1, 3))))
        cases.append(clauses)
    for clauses in cases:
        assert _dedupe_clauses(list(clauses)) == _minimal_clauses_spec(clauses)


def test_linearize_returns_antichain():
    rng = random.Random(2024)
    for _ in range(200):
        clauses = linearize(random_rl_formula(rng)).clauses
        assert len(set(clauses)) == len(clauses)
        assert not any(c < d for c in clauses for d in clauses)


def _meet_of_joins(clauses):
    # the normal form as text that no hash seed changes: each clause's
    # terms sorted and joined by \/, the clauses sorted and met by /\
    return " /\\ ".join(sorted(" \\/ ".join(sorted(map(str, c))) for c in clauses))


#: the normal forms of the first 50 acceptance-3 formulas, recorded from
#: the construction by polarity: a rewrite must keep them
PINNED_NORMAL_FORMS = (
    '2b + c - 3d \\/ b + 2c - 3d /\\ 2b - 2d \\/ b + c - 2d /\\ 2c - 2d \\/ b + c - 2d',
    '-2b + c - d \\/ a - 2b + c - d /\\ -2b \\/ a - 2b /\\ -b + c - 2d \\/ a - b + c - 2d /\\ -b - c \\/ a - b - c /\\ -b - d \\/ a - b - d',
    '-b + d \\/ 0 \\/ d /\\ -c + d \\/ b - c \\/ d',
    '0 \\/ a \\/ b \\/ d',
    '-a + b \\/ -a + d \\/ -b /\\ a - b \\/ b \\/ d',
    '2a - 2d \\/ a + b - c - 2d /\\ 2a - c - d \\/ a + b - 2c - d',
    '-a + b + d \\/ a - b \\/ b',
    '-b + 3c',
    '-2a + c + d \\/ -a + c \\/ -a + c + d \\/ 0 \\/ b \\/ c',
    '2b \\/ a + b /\\ a + c \\/ b + c',
    '0',
    '-a + 2c - d \\/ -a + d /\\ -a + c - d \\/ -a + d',
    '2c - d \\/ a + c - d \\/ b + c - d \\/ c - d',
    '-a \\/ -a - c - d',
    '-a + c \\/ 0 \\/ b \\/ d /\\ -a + d \\/ -c + 2d \\/ -c + d \\/ 0 \\/ b - c + d',
    '-a + d \\/ -a - c',
    'a - c',
    'b',
    '0 \\/ b - 2d /\\ 0 \\/ b - c - d',
    '0 \\/ b',
    '-a + 2c + d \\/ -a + b + c + d /\\ -a + b /\\ -a + c - d',
    '-2d \\/ b - 2d /\\ -a + b - c \\/ -a - b /\\ -a + b - c \\/ -a - c /\\ -b + c - 2d \\/ b - 2d /\\ -b \\/ b - c /\\ -c \\/ b - c /\\ a + b - 2d \\/ a - 2d /\\ a + b - 2d \\/ a - b + c - 2d',
    'a \\/ b',
    'a',
    '-a + 2d \\/ -a + b + d /\\ d',
    '-a + c \\/ 2a - 2c \\/ a \\/ b \\/ d /\\ -a + c \\/ 2a - c \\/ a \\/ b \\/ d',
    '-c /\\ 0 /\\ 2a /\\ 2a - c /\\ a /\\ a - 2c /\\ a - b /\\ a - b - c /\\ a - c',
    '-2a + 2c + d \\/ -3a + 2c + 2d /\\ -2a + 2c + d \\/ -a + 2c /\\ -2a + b + 2c /\\ -a + b + 2c - d',
    '-c + d \\/ 0',
    'c - d',
    '-d \\/ 0 /\\ a \\/ a - d',
    '0 \\/ 2a - b + c \\/ a + c',
    '-a + b + c - d \\/ a - d /\\ -a + b - c \\/ a - c /\\ -a + b - d \\/ a - d /\\ -a + b \\/ a - c /\\ -a + c - d \\/ a - d /\\ -a \\/ a - c',
    '-a + d \\/ b - 2c + d \\/ b - c + d',
    'a \\/ c',
    '-b - c /\\ -b \\/ a - b - c /\\ -c \\/ a - 2c',
    'b \\/ d',
    'a - 3b + c',
    '-2a \\/ 0 /\\ -2b + c \\/ a - b + c /\\ -a + c \\/ -a + d \\/ a + c \\/ a + d /\\ -a - b + c \\/ a - b + c /\\ -a - b \\/ 0 /\\ -a - c \\/ 0 /\\ -a \\/ 0 /\\ -b + c \\/ -b + d \\/ a + c \\/ a + d /\\ -b + c \\/ a - b + c /\\ -b \\/ a - b + c /\\ -c + d \\/ 0 \\/ a + c \\/ a + d /\\ a + c \\/ a + d \\/ c \\/ d',
    'b \\/ c',
    '-d /\\ 0',
    'a \\/ c \\/ d',
    'c - d',
    '-a + 3d \\/ -b + c + 3d /\\ a - b + c + d \\/ d',
    '-a - b + c',
    '2a + b - c \\/ 2a - c \\/ 2b - c \\/ a + 2b - c \\/ a + b - c \\/ a - c \\/ b - c',
    '-a + b - c \\/ -a - c \\/ -a - c + d /\\ -a \\/ -a + b \\/ -a + d /\\ a + b - c - d \\/ a - c \\/ a - c - d /\\ a + b - c \\/ a - c \\/ a - c + d /\\ a \\/ a + b - d \\/ a - d /\\ a \\/ a + b \\/ a + d',
    '-a + b - c \\/ -a + d /\\ -a + d \\/ b - 2c /\\ -a + d \\/ b - c - d',
    'a \\/ b',
    'a \\/ d',
)


def test_linearize_reproduces_pinned_normal_forms():
    rng = random.Random(2024)
    for pinned in PINNED_NORMAL_FORMS:
        assert _meet_of_joins(linearize(random_rl_formula(rng, max_connectives=12, max_vars=4)).clauses) == pinned
    # #248's form has 24 clauses and 928 terms, so it is pinned by digest
    clauses = linearize(parse_rl(FORMULA_248)).clauses
    assert (len(clauses), sum(map(len, clauses))) == (24, 928)
    digest = hashlib.sha256(_meet_of_joins(clauses).encode()).hexdigest()
    assert digest == "f6910a263d5eb86393e47db3d13d4be08795aa46fbe954793c8d461eada814e4"


def test_linearize_deep_chains():
    # ((0 -> a) -> a) -> ... 3,000 deep is 0; a 3,000-deep join of v0-v4
    # over a \/ (a -> 0) is one clause
    f = ZERO
    for _ in range(3000):
        f = Imp(f, Var("a"))
    assert [sorted(map(str, c)) for c in linearize(f).clauses] == [["0"]]
    g = Join(Var("a"), Imp(Var("a"), ZERO))
    for k in range(3000):
        g = Join(Var(f"v{k % 5}"), g)
    assert [sorted(map(str, c)) for c in linearize(g).clauses] == [["-a", "a", "v0", "v1", "v2", "v3", "v4"]]


def test_cached_programs_die_with_their_formula():
    f = parse_rl("(a -> b) \\/ c -> d")
    assert compile_scalar(f, "RL") is compile_scalar(f, "RL")
    assert len(f._memo) == 2  # compile_scalar's value and the postorder program
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


# -- clause feasibility -----------------------------------------------------------

def test_clause_with_opposite_terms_is_valid():
    clause = frozenset({LinearTerm.of({"x": 1}), LinearTerm.of({"x": -1})})
    assert clause_valid(clause) is True


def test_clause_single_negative_term_gives_witness():
    outcome = clause_valid(frozenset({LinearTerm.of({"x": -1})}))
    assert outcome == {"x": Fraction(1)}


def test_zero_term_clause_is_valid():
    assert clause_valid(frozenset({LinearTerm.zero()})) is True


def test_empty_clause_is_refused():
    with pytest.raises(ValueError, match="^clause must be nonempty$"):
        clause_certificate(frozenset())


def test_witness_makes_all_terms_at_most_minus_one():
    rng = random.Random(22)
    for _ in range(200):
        terms = frozenset(
            LinearTerm.of({name: rng.randint(-3, 3) for name in ("x", "y", "z")})
            for _ in range(rng.randint(1, 4))
        )
        outcome = clause_valid(terms)
        if outcome is not True:
            assert all(t.eval(outcome) <= -1 for t in terms)


def _assert_settled(clause, outcome=None):
    # the clause's certificate checks, or its point puts every term at <= -1
    weights, point = clause_certificate(clause)
    if point is None:
        assert check_certificate(clause, weights)
    else:
        assert all(t.eval(point) <= -1 for t in clause)
    if outcome is not None:
        assert outcome == (True if point is None else point)


def test_certificates_and_witnesses_on_acceptance_formulas():
    # every clause of the normal form, not only those a clause-by-clause
    # decision would visit
    rng = random.Random(2024)
    valid = refuted = 0
    for _ in range(200):
        for clause in linearize(random_rl_formula(rng, max_connectives=12, max_vars=4)).clauses:
            outcome = clause_valid(clause)
            _assert_settled(clause, outcome)
            valid += outcome is True
            refuted += outcome is not True
    assert valid and refuted


def test_check_certificate_rejects_bad_weights():
    x, minus_x, y = LinearTerm.var("x"), LinearTerm.of({"x": -1}), LinearTerm.var("y")
    clause = frozenset({x, minus_x, y})
    assert check_certificate(clause, {x: 1, minus_x: 1})
    assert check_certificate(clause, {x: 3, minus_x: 3, y: 0})
    assert not check_certificate(clause, {x: -1, minus_x: -1})  # negative weights
    assert not check_certificate(clause, {x: 0, minus_x: 0})  # all zero
    assert not check_certificate(clause, {})
    assert not check_certificate(clause, {x: 1})  # a weight dropped
    assert not check_certificate(clause, {x: Fraction(1), minus_x: Fraction(1)})  # not ints
    # sums to zero, but 2x is not a term of the clause
    assert not check_certificate(clause, {LinearTerm.of({"x": 2}): 1, minus_x: 2})


#: the LPs that took the most pivots, 12 and 9, among those decide_valid
#: solves on the decide-tail family (the first 300 that Random(32) draws
#: over a-f, the ten tail formulas left out) and on the acceptance-3
#: formulas (Random(2024)); each with its pivots, the least budget that
#: does not raise, and its result
LONGEST_LPS = [
    (
        [[0, 0, 1, -1, -1, 1, 0, 0, 0, 0], [0, 1, -1, 0, 1, 0, 0, 0, 0, 0], [0, -1, 1, 0, 1, 0, -1, 0, 0, 0],
         [0, 0, -1, 0, 0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 0, 0, 0, 0, -1], [0, 0, 0, 0, -1, 0, 0, 1, -1, 0],
         [0, -1, 1, 0, 0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0, 0, -1, 0, 0],
         [0, 1, 0, 0, 0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, -1, 0, 0, 0, 0]],
        [-1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0],
        12,
        (None, [2, 2, 7, 8, 3, 2, 10, 8, 5, 10, 2]),
    ),
    (
        [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, -1, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0], [0, 0, -1, 0, 0, 1],
         [1, 0, 0, 0, 0, -1], [0, 0, 0, 1, 0, -1], [0, 1, -1, 0, 0, -1], [0, 0, 0, 0, 0, -1], [0, 0, 1, 0, -1, 0],
         [0, 0, 0, 1, -1, 0]],
        [-1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0],
        9,
        ([0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0], None),
    ),
]


def _sparse(rows):
    # dense rows as _farkas takes them: the columns, and each row's nonzero entries
    return range(len(rows[0])), [{k: a for k, a in enumerate(row) if a} for row in rows]


def test_simplex_budget_bounds_pivots():
    # x \/ -x takes two pivots
    clause = frozenset({LinearTerm.var("x"), LinearTerm.of({"x": -1})})
    with pytest.raises(BudgetExceededError) as caught:
        clause_valid(clause, budget=1)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("simplex", 2, 1)
    assert clause_valid(clause, budget=2) is True
    for rows, rhs, pivots, result in LONGEST_LPS:
        with pytest.raises(BudgetExceededError) as caught:
            decide._farkas(*_sparse(rows), rhs, pivots - 1)
        assert (caught.value.stage, caught.value.size, caught.value.budget) == ("simplex", pivots, pivots - 1)
        assert decide._farkas(*_sparse(rows), rhs, pivots) == result


def _dense_farkas(rows, rhs, budget, entries=None):
    # the simplex as it took dense rows, transposed into its tableau, each
    # pivot rewriting whole rows: the reference that the sparse rows must
    # reproduce pivot for pivot.  A Counter given as entries counts the
    # pivot entries p, and the arithmetic does not read it
    m, n = len(rows), len(rows[0])
    table = [[*col, *[0] * v, 1, *[0] * (n - v), 0, 0] for v, col in enumerate(zip(*rows))]
    table.append([*(-b for b in rhs), *[0] * n, 1, 0, 1])
    table.append(cost := [*(b - sum(row) for row, b in zip(rows, rhs)), *[0] * (n + 1), 1, -1])
    basis, pivots = list(range(m, m + n + 1)), 0
    while cost[-1]:
        for c in range(m):
            if cost[c] < 0:
                break
        else:
            return None, decide._primitive([cost[-2] - a for a in cost[m:-2]])
        r = -1
        for i in range(n + 1):
            if (a := (row := table[i])[c]) > 0:
                if r < 0 or (t := row[-1] * p) < (u := q * a) or t == u and basis[i] < basic:
                    r, q, p, basic = i, row[-1], a, basis[i]
        pivots += 1
        if pivots > budget:
            raise BudgetExceededError("simplex", pivots, budget)
        if entries is not None:
            entries[p] += 1
        pivot_row = table[r]
        for i, row in enumerate(table):
            if (f := row[c]) and i != r:
                row = [a * p - f * b for a, b in zip(row, pivot_row)]
                table[i] = row if (g := math.gcd(*row)) == 1 else [a // g for a in row]
        basis[r], cost = c, table[-1]
    scale = math.lcm(*(table[i][j] for i, j in enumerate(basis)))
    value = {j: table[i][-1] * scale // table[i][j] for i, j in enumerate(basis)}
    return decide._primitive([value.get(j, 0) for j in range(m)]), None


def test_sparse_rows_solve_as_the_dense_simplex(monkeypatch):
    # every LP that decide_valid solves on the acceptance-3 formulas and on
    # the decide-tail family (the first 300 that Random(32) draws over a-f),
    # and the longest LPs: the same (weights, y) as the dense reference.
    # Their pivot entries include 1 and others, so both of _farkas' row
    # rewrites, in place and scaled by the entry, are compared
    for rows, rhs, pivots, result in LONGEST_LPS:
        assert _dense_farkas(rows, rhs, pivots) == result == decide._farkas(*_sparse(rows), rhs, pivots)
    solved = []
    farkas = decide._farkas

    def recording(columns, forms, rhs, budget):
        solved.append((list(columns), forms, rhs, result := farkas(columns, forms, rhs, budget)))
        return result

    monkeypatch.setattr(decide, "_farkas", recording)
    acceptance, tail = random.Random(2024), random.Random(32)
    for _ in range(1000):
        decide_valid(random_rl_formula(acceptance, 12, 4))
    assert len(solved) > 1000
    assert any(not columns for columns, *_ in solved)  # zero-column systems among them
    for _ in range(300):
        decide_valid(random_rl_formula(tail, 32, 6, SIX_NAMES))
    assert len(solved) > 1700
    # the LPs themselves, in call order: each one's columns, rows as sorted
    # items, rhs and result
    lps = "".join(repr((c, [sorted(form.items()) for form in forms], rhs, r)) + "\n" for c, forms, rhs, r in solved)
    assert hashlib.sha256(lps.encode()).hexdigest() == "7e1d2fdf075951a0f4e49ce254955041bdaedeb493888d52afcff7ff35474404"
    entries = collections.Counter()
    for columns, forms, rhs, result in solved:
        assert all(set(form) <= set(columns) for form in forms)
        assert _dense_farkas(decide._dense(columns, forms), rhs, decide.DEFAULT_BUDGET, entries) == result
    assert entries[1] and entries.total() > entries[1]


def test_formula_248_settles_every_clause():
    # formula #248 of the first 300 that Random(32) draws over a-f
    f = parse_rl(
        "(f \\/ (0 \\/ d \\/ d \\/ a -> 0 \\/ (a -> d \\/ e -> 0 -> f) \\/ b \\/ b) -> (0 -> e) \\/ 0)"
        " -> (d \\/ ((d -> f) \\/ 0) -> b \\/ e) -> (b -> b \\/ e)"
        " \\/ (f \\/ (f \\/ (0 \\/ (d -> (f -> f) -> f))))"
    )
    verdict = decide_valid(f)
    assert isinstance(verdict, CounterExample)
    assert not holds_rl(f, verdict.valuation)
    clauses = linearize(f).clauses
    assert max(map(len, clauses)) == 40
    for clause in clauses:
        _assert_settled(clause)


def test_witness_independent_of_hash_seed():
    # five terms over x, y, z; with the terms taken in set order, the
    # simplex would end at different points under these two hash seeds
    script = (
        "from rieszlogic.decide import LinearTerm, clause_valid\n"
        "terms = [{'x': 2}, {'x': 2, 'y': -2, 'z': 1}, {'x': -1, 'y': -2, 'z': -1},"
        " {'x': -2, 'z': 1}, {'x': -1, 'y': 1, 'z': 2}]\n"
        "print(sorted(clause_valid(frozenset(map(LinearTerm.of, terms))).items()))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1
    assert outputs.pop().startswith("[('x', Fraction(")


def test_normal_form_independent_of_hash_seed():
    # the clause order of the acceptance-3 formulas' normal forms, and the
    # size at which #38's is refused: neither may read a set's iteration
    # order, which changes with the hash seed
    formula_38 = "(c \\/ d -> 0) \\/ a \\/ (c -> b) -> a \\/ (0 \\/ b \\/ c \\/ a -> 0)"
    script = (
        "import hashlib, random, sys\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from util import random_rl_formula\n"
        "from rieszlogic.decide import BudgetExceededError, linearize\n"
        "from rieszlogic.syntax import parse_rl\n"
        "rng = random.Random(2024)\n"
        "forms = [linearize(random_rl_formula(rng, 12, 4)).clauses for _ in range(1000)]\n"
        "print(hashlib.sha256(repr([[sorted(map(str, c)) for c in f] for f in forms]).encode()).hexdigest())\n"
        "try:\n"
        f"    linearize(parse_rl({formula_38!r}), 20)\n"
        "except BudgetExceededError as error:\n"
        "    print(error.stage, error.size)\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "7")
    }
    assert len(outputs) == 1
    assert outputs.pop().endswith("\nnormal form 32\n")


# -- verdicts ---------------------------------------------------------------------

def _assert_refutations(verdict):
    assert isinstance(verdict, Valid) and verdict.branches
    for branch in verdict.branches:
        assert check_farkas(branch.rows, branch.rhs, branch.weights)


def test_valid_verdicts_carry_checked_refutations():
    rng = random.Random(2024)
    valid = 0
    for _ in range(200):
        verdict = decide_valid(random_rl_formula(rng, max_connectives=12, max_vars=4))
        if isinstance(verdict, CounterExample):
            continue
        valid += 1
        _assert_refutations(verdict)
        for branch in verdict.branches:
            rows, rhs, weights = branch.rows, branch.rhs, branch.weights
            for i, w in enumerate(weights):
                if w:
                    dropped = rows[:i] + rows[i + 1 :], rhs[:i] + rhs[i + 1 :], weights[:i] + weights[i + 1 :]
                    assert not check_farkas(*dropped)
                    assert not check_farkas(rows, rhs, weights[:i] + (-w,) + weights[i + 1 :])
            assert not check_farkas(rows, rhs, weights[:-1])
    assert valid


def test_check_farkas_rejects_bad_weights():
    rows, rhs = ((1, 0), (-1, 1), (0, -1)), (0, 0, -1)  # x <= 0, y <= x and y >= 1
    assert check_farkas(rows, rhs, (1, 1, 1))
    assert check_farkas(rows, rhs, (2, 2, 2))
    assert not check_farkas(rows, rhs, (1, 1, 0))  # a row dropped
    assert not check_farkas(rows, rhs, (1, 1))  # one weight short
    assert not check_farkas(rows, rhs, (-1, -1, -1))  # signs flipped: the sum is 0 <= 1
    assert not check_farkas(rows, rhs, (0, 0, 0))
    assert not check_farkas(rows, rhs, (1.0, 1, 1))  # not ints
    assert not check_farkas(rows, rhs, (None, 1, 1))
    assert not check_farkas(((0,),), (0,), (1,))  # 0 <= 0 is no contradiction
    assert check_farkas(((),), (-1,), (1,))  # 0 <= -1 with no columns
    # systems that are not well formed: x1 <= -1 dropped by a short row,
    # a missing b, and floats whose sums cancel by rounding (x = -1 is a
    # solution)
    assert not check_farkas(((0, 1), (0,)), (-1, 0), (1, 0))
    assert not check_farkas(((1,), (-1,)), (-1,), (1, 1))
    assert not check_farkas(((1e20,), (1.0,), (-1e20,)), (-(10**20), -1, 10**20), (1, 1, 1))


@pytest.mark.parametrize("text", ["0", "0 -> 0", "a -> a", "a \\/ (a -> 0)"])
def test_systems_with_at_most_one_column(text):
    verdict = decide_valid(parse_rl(text))
    _assert_refutations(verdict)
    assert all(len(row) <= 1 for branch in verdict.branches for row in branch.rows)


@pytest.mark.parametrize("text", ["0", "0 -> 0", "a -> a"])
def test_zero_column_systems_are_refuted_by_one_weight(text):
    # 0 <= -1, with no column: one row, one weight
    assert decide_valid(parse_rl(text)) == Valid((Refutation(rows=((),), rhs=(-1,), weights=(1,)),))


def test_nested_positive_joins_are_one_maximum():
    # columns a and b only: neither join gets a column of its own
    verdict = decide_valid(parse_rl("(c -> c) \\/ b \\/ (a \\/ (b \\/ (a -> 0)))"))
    _assert_refutations(verdict)
    assert {len(row) for branch in verdict.branches for row in branch.rows} == {2}


def test_nested_negative_joins_are_one_branch():
    # a1 \/ ... \/ a13 on the left of -> is one 13-way branch.  The search
    # flattens the two joins, 13 sides each, and solves the root's LP and
    # each branch's, 14 rows each: 26 + 14 x 14 = 222, within 2 x 111
    disjuncts = " \\/ ".join(f"a{k}" for k in range(1, 14))
    f = parse_rl(f"{disjuncts} -> {disjuncts}")
    verdict = decide_valid(f)
    _assert_refutations(verdict)
    assert len(verdict.branches) == 13
    assert decide_valid(f, budget=111) == verdict
    with pytest.raises(BudgetExceededError) as caught:
        decide_valid(f, budget=110)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("search", 222, 110)
    g = parse_rl(" \\/ ".join(f"a{k}" for k in range(1, 17)) + " -> 0")
    verdict = decide_valid(g)
    assert isinstance(verdict, CounterExample) and not holds_rl(g, verdict.valuation)


def test_deep_api_chains_decide():
    # ((0 -> a) -> a) -> ... 3,000 deep is 0; a 3,000-deep join of
    # variables is valid with a and a -> 0 among them, refuted without
    f = ZERO
    for _ in range(3000):
        f = Imp(f, Var("a"))
    _assert_refutations(decide_valid(f))
    for last, valid in ((Join(Var("a"), Imp(Var("a"), ZERO)), True), (Var("a"), False)):
        g = last
        for k in range(3000):
            g = Join(Var(f"v{k % 5}"), g)
        verdict = decide_valid(g)
        if valid:
            _assert_refutations(verdict)
        else:
            assert isinstance(verdict, CounterExample) and not holds_rl(g, verdict.valuation)


def test_failed_self_check_raises(monkeypatch):
    # a solver that calls every system feasible at the origin, where
    # a -> 0 is not negative
    monkeypatch.setattr(decide, "_farkas", lambda columns, forms, rhs, budget: (None, [0] * len(columns) + [1]))
    with pytest.raises(SelfCheckError, match="^self-check failed"):
        decide_valid(parse_rl("a -> 0"))


def test_unchecked_weights_raise(monkeypatch):
    # a solver that calls every system infeasible with zero weights: the
    # branch must not close
    monkeypatch.setattr(decide, "_farkas", lambda columns, forms, rhs, budget: ([0] * len(forms), None))
    with pytest.raises(SelfCheckError, match="^self-check failed"):
        decide_valid(parse_rl("a -> a"))


def test_bal_and_equal_verdicts_keep_both_directions():
    # each direction closes at least one branch
    assert len(decide_equal(parse_rl("a"), parse_rl("a")).branches) == 2
    assert len(decide_bal_valid(parse_bal("x -> x")).branches) == 2


#: the ten formulas of the decide-tail family (the first 300 that
#: Random(32) draws over a-f) whose normal form took seconds or grew
#: past the default budget, by their index in the family
TAIL_FORMULAS = {
    84: "(0 \\/ (c -> b \\/ e -> a) -> e) \\/ (((d \\/ (d -> f \\/ 0) -> d) -> 0 \\/ ((f -> 0) -> b)) -> d \\/ (0 -> 0) \\/ (e -> c)) \\/ (f -> 0 -> b) -> 0 \\/ c \\/ (f -> a) \\/ ((c -> f) \\/ (b -> c))",
    115: "((b -> f \\/ e \\/ ((d \\/ d -> e) -> b \\/ (a \\/ c -> f))) -> (b -> (a -> 0) \\/ (f \\/ e)) -> c \\/ f) -> 0",
    120: "(((c \\/ (e -> b) \\/ (b \\/ d -> f) -> b -> 0) -> 0 -> (d -> a \\/ 0) -> b \\/ (d -> 0) -> f -> (c -> f) \\/ e) -> a -> b) -> 0 -> d \\/ f",
    121: "(d \\/ e \\/ (a -> b) -> (c \\/ (d \\/ f) -> a -> d \\/ a) \\/ a \\/ (b \\/ ((0 -> b -> c) -> f) -> (b -> 0) -> b -> c)) -> e -> ((b \\/ e -> b) -> a \\/ (e \\/ (b -> b))) -> d \\/ 0",
    151: "0 \\/ (b \\/ c \\/ (a \\/ e) \\/ (d \\/ f \\/ f -> e) -> a \\/ ((b -> b) -> e \\/ d) \\/ (d -> f \\/ ((a -> e -> b) -> b -> d))) -> c \\/ (0 -> 0 -> e)",
    155: "((e \\/ b -> b \\/ d) -> d \\/ b -> (c -> (d -> c) \\/ e) -> f \\/ b \\/ (0 \\/ (f \\/ (f \\/ c) \\/ e \\/ (b \\/ (d -> b))) -> d -> c)) -> f -> f",
    181: "c \\/ (0 \\/ (a \\/ (a -> d) -> e) -> (f -> f) \\/ (0 -> c) -> (d \\/ 0 -> f) \\/ ((b -> f \\/ a \\/ (d -> d)) \\/ (a \\/ d -> a \\/ b)) -> a \\/ (d \\/ d)) -> a \\/ ((a \\/ a -> a) -> a \\/ d)",
    183: "(((e \\/ c \\/ a -> 0 \\/ (((f -> e -> b -> c) -> d) \\/ (c -> 0)) -> f -> c \\/ (b \\/ c \\/ (c -> f))) -> (d \\/ f -> e) -> a) -> c) \\/ d -> a",
    224: "((0 -> b -> e) -> ((((f -> e \\/ e) -> a) -> a -> e) -> (f -> a \\/ d) \\/ (b \\/ (((0 -> a) -> b -> e -> d) \\/ (f -> f)) -> e \\/ e)) \\/ (f \\/ (a -> e) -> f \\/ d \\/ f) -> a \\/ f \\/ c) -> c",
    236: "((0 -> 0) -> 0 \\/ e) -> ((c \\/ e -> (f -> f \\/ c \\/ (0 -> d)) \\/ c) -> ((e -> a) -> 0) \\/ 0 \\/ f) \\/ ((((a -> d) \\/ b -> 0) -> f \\/ (a -> a \\/ c)) -> f \\/ b) -> d -> c -> b",
}


@pytest.mark.parametrize("k", sorted(TAIL_FORMULAS))
def test_tail_formulas_decide_under_default_budget(k):
    f = parse_rl(TAIL_FORMULAS[k])
    verdict = decide_valid(f)
    assert isinstance(verdict, CounterExample)
    assert not holds_rl(f, verdict.valuation)


#: the (S_64) formulas, of the 200 that Random(7 x 64 + 1) draws with at
#: most 64 connectives over a-f, that the a-priori bound 2^k x rows once
#: refused under the default budget
S64_ONCE_REFUSED = (8, 13, 51, 64, 112, 129, 142, 183, 192)


def test_formulas_the_a_priori_bound_refused_now_settle():
    # each is invalid, and its countermodel falsifies it; so does each
    # BAL ladder (L_12)-(L_18), rl_to_bal of a0 \/ ... \/ ad
    rng = random.Random(7 * 64 + 1)
    family = [random_rl_formula(rng, 64, 6, SIX_NAMES) for _ in range(200)]
    for k in S64_ONCE_REFUSED:
        verdict = decide_valid(family[k])
        assert isinstance(verdict, CounterExample) and not holds_rl(family[k], verdict.valuation), k
    for depth in range(12, 19):
        ladder = rl_to_bal(functools.reduce(Join, [Var(f"a{k}") for k in range(depth + 1)]))
        verdict = decide_bal_valid(ladder)
        assert isinstance(verdict, CounterExample) and not holds_bal(ladder, verdict.valuation), depth


FORMULA_248 = (
    "(f \\/ (0 \\/ d \\/ d \\/ a -> 0 \\/ (a -> d \\/ e -> 0 -> f) \\/ b \\/ b) -> (0 -> e) \\/ 0)"
    " -> (d \\/ ((d -> f) \\/ 0) -> b \\/ e) -> (b -> b \\/ e)"
    " \\/ (f \\/ (f \\/ (0 \\/ (d -> (f -> f) -> f))))"
)


def test_countermodel_independent_of_hash_seed():
    script = (
        "from rieszlogic.decide import decide_valid\n"
        "from rieszlogic.syntax import parse_rl\n"
        f"print(sorted(decide_valid(parse_rl({FORMULA_248!r})).valuation.assignment.items()))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1
    assert outputs.pop().startswith("[('a', (Fraction(")


def _digest(verdicts) -> str:
    return hashlib.sha256("".join(repr(v) + "\n" for v in verdicts).encode()).hexdigest()


def test_verdicts_reproduce_pinned_digests():
    # the repr of every verdict: countermodels, and the rows, rhs and
    # weights of each closed branch in search order, alike under
    # PYTHONHASHSEED 0 and 7.  The 32-connective formulas draw over a-d.
    acceptance, tail = random.Random(2024), random.Random(32)
    formulas = [random_rl_formula(acceptance, 12, 4) for _ in range(1000)]
    formulas += [random_rl_formula(tail, 32, 4) for _ in range(300)]
    assert _digest(map(decide_valid, formulas)) == "4b7f434561ce3b520a896d9fd94d78165ef6b8f6d9064a02562199ca242bbea3"
    bal = random.Random(7)
    verdicts = (decide_bal_valid(random_bal_formula(bal)) for _ in range(300))
    assert _digest(verdicts) == "b6d97fa6a6c06cff2e8ad6b984e5f4e1df32325bc59d8a14730525d7759ed1e2"


def test_family_verdicts_reproduce_pinned_digest():
    # the decide-tail bench family: the first 300 formulas that Random(32)
    # draws with at most 32 connectives over a-f, the ten it leaves out
    # included; every verdict's repr, alike under PYTHONHASHSEED 0 and 7
    family = random.Random(32)
    formulas = [random_rl_formula(family, 32, 6, SIX_NAMES) for _ in range(300)]
    assert _digest(map(decide_valid, formulas)) == "55e5255e83a02b4196c28996f5bb6239046659e7da3f1d09840786885d2e8393"


def test_decide_axiom_valid():
    assert isinstance(decide_valid(parse_rl("a -> a \\/ b")), Valid)


def test_decide_counterexample_confirmed():
    verdict = decide_valid(parse_rl("a \\/ b -> a"))
    assert isinstance(verdict, CounterExample)
    assert verdict.valuation.dimension == 1
    assert not holds_rl(parse_rl("a \\/ b -> a"), verdict.valuation)


def test_decide_excluded_positivity():
    assert isinstance(decide_valid(parse_rl("a \\/ (a -> 0)")), Valid)


def test_all_rl_axioms_decide_valid():
    fresh = {"PHI": Var("p"), "PSI": Var("q"), "CHI": Var("r")}
    for name, schema in RL_AXIOMS.items():
        assert isinstance(decide_valid(substitute(schema, fresh)), Valid), name


def test_all_bal_axioms_decide_valid_as_equalities():
    fresh = {"PHI": Var("p"), "PSI": Var("q"), "CHI": Var("r")}
    for name, schema in BAL_AXIOMS.items():
        inst = substitute(schema, fresh)
        assert isinstance(decide_bal_valid(inst), Valid), name
        # same check through the two RL translations
        pair = bal_to_rl(inst)
        assert isinstance(decide_valid(pair.first), Valid), name
        assert isinstance(decide_valid(pair.second), Valid), name


def test_decide_bal_examples():
    assert isinstance(decide_bal_valid(parse_bal("((x -> y) -> y) -> x")), Valid)
    verdict = decide_bal_valid(parse_bal("x -> y"))
    assert isinstance(verdict, CounterExample)
    assert not holds_bal(parse_bal("x -> y"), verdict.valuation)
    assert isinstance(decide_bal_valid(parse_bal("x ^+ -> x ^+")), Valid)


def test_decide_equal_composition_pair():
    f = parse_rl("a -> b")
    g = parse_rl("(b -> c) -> (a -> c)")
    assert isinstance(decide_equal(f, g), Valid)


def test_decide_equal_reflexive():
    f = parse_rl("a \\/ b -> c")
    assert isinstance(decide_equal(f, f), Valid)


def test_decide_equal_fails_in_second_direction():
    # a -> a \/ 0 is valid, the converse is not
    verdict = decide_equal(parse_rl("a"), parse_rl("a \\/ 0"))
    assert isinstance(verdict, CounterExample)
    assert not holds_rl(parse_rl("a \\/ 0 -> a"), verdict.valuation)


def test_decide_equal_positive_part_differs():
    verdict = decide_equal(parse_rl("a ^+"), parse_rl("a"))
    assert isinstance(verdict, CounterExample)
    assert verdict.valuation.vector("a")[0] < 0


def test_decomposition_identity_decides_equal():
    # x against x^+ - x^-, written as ((x -> 0) \/ 0) -> x \/ 0
    assert isinstance(decide_equal(parse_rl("x"), parse_rl("((x -> 0) \\/ 0) -> x \\/ 0")), Valid)


def test_pos_to_join_desugars():
    assert pos_to_join(parse_bal("x ^+ -> y")) == parse_rl("x \\/ 0 -> y")


# -- budget ------------------------------------------------------------------------

def _blowup_formula(depth: int):
    f = parse_rl("a1 \\/ b1")
    for k in range(2, depth + 2):
        f = Imp(f, Join(Var(f"a{k}"), Var(f"b{k}")))
    return f


def test_budget_exceeded_is_distinct():
    # 2^15 branches at worst, but the search flattens 15 joins of 2 sides
    # and settles it in 8 LPs of 17 rows: 30 + 136 = 166, within 2 x 83
    f = _blowup_formula(14)
    verdict = decide_valid(f, budget=2000)
    assert isinstance(verdict, CounterExample) and not holds_rl(f, verdict.valuation)
    assert decide_valid(f, budget=83) == verdict
    with pytest.raises(BudgetExceededError) as caught:
        decide_valid(f, budget=82)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("search", 166, 82)


@pytest.mark.parametrize("n, budget, size", [(4, 50, 64), (6, 300, 384), (8, 1000, 2048)])
def test_budget_error_keeps_stage_and_size(n, budget, size):
    # the join of -(a_k \/ b_k) for k <= m has 2^m clauses of m terms, in
    # any set iteration order, so the first size over budget is m * 2^m
    f = functools.reduce(Join, [Imp(Join(Var(f"a{k}"), Var(f"b{k}")), ZERO) for k in range(1, n + 1)])
    with pytest.raises(BudgetExceededError) as caught:
        linearize(f, budget)
    error = caught.value
    assert (error.stage, error.size, error.budget) == ("normal form", size, budget)
    assert str(error) == f"normal form size {size} exceeds budget {budget}"


def test_normal_form_product_is_charged_before_it_is_built(monkeypatch):
    # g = -(a0 \/ ... \/ a19) is 20 one-term clauses; g \/ g pairs them
    # 400 ways, past 16 x 20, although its pruned result is g again, of size 20
    g = Imp(functools.reduce(Join, [Var(f"a{k}") for k in range(20)]), ZERO)
    candidates = []
    dedupe = decide._dedupe_clauses
    monkeypatch.setattr(decide, "_dedupe_clauses", lambda clauses: candidates.append(len(clauses)) or dedupe(clauses))
    assert len(linearize(g, 20).clauses) == 20
    with pytest.raises(BudgetExceededError) as caught:
        linearize(Join(g, g), 20)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("normal form", 400, 20)
    assert max(candidates) <= 16 * 20
    assert len(linearize(Join(g, g), 25).clauses) == 20  # 400 pairs are within 16 x 25


def _doubled_join(depth: int):
    # Join(g, g) doubled: depth + 1 nodes, whose flattened join has 2^depth sides
    f = Var("a")
    for _ in range(depth):
        f = Join(f, f)
    return f


@pytest.mark.parametrize(
    "formula, budget, size",
    [
        (lambda: parse_rl(" \\/ ".join(f"a{k}" for k in range(1, 14)) + " -> 0"), 6, 13),
        (lambda: parse_rl("a \\/ b -> a"), 0, 2),
        (lambda: _doubled_join(20), 1000, 2**20),
    ],
    ids=["negative", "smallest", "doubled"],
)
def test_search_budget_is_checked_before_any_lp(monkeypatch, formula, budget, size):
    # a join's sides are charged before its side list is built, so a join
    # of more than 2 x budget sides is refused before any LP
    monkeypatch.setattr(decide, "_farkas", None)
    with pytest.raises(BudgetExceededError) as caught:
        decide_valid(formula(), budget=budget)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("search", size, budget)


def test_only_a_join_with_a_column_is_flattened(monkeypatch):
    # the chain a0 \/ ... \/ a19999 has 19,999 joins, but only the top one
    # has a column, so only its side list is built; the others keep their
    # two operands.  Its 20,000 sides and the root LP's 20,000 rows pass
    # 2 x 15,000 before any LP
    seen = []
    system = decide._system
    monkeypatch.setattr(decide, "_system", lambda *args: seen.append(args[1]) or system(*args))
    monkeypatch.setattr(decide, "_farkas", None)
    chain = functools.reduce(Join, [Var(f"a{k}") for k in range(20_000)])
    with pytest.raises(BudgetExceededError) as caught:
        decide_valid(chain, budget=15_000)
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("search", 40_000, 15_000)
    [joins] = seen
    assert [len(sides) for _, _, sides in joins] == [2] * 19_998 + [20_000]


@pytest.mark.parametrize("depth, budget, size, solved", [(3, 10, 23, 2), (14, 50, 115, 4), (15, 50, 117, 4)])
def test_search_charges_each_lp_before_it_is_solved(monkeypatch, depth, budget, size, solved):
    # the flattened sides, then each system's rows before it is solved: the
    # charges of the solved LPs sum to at most 2 x budget, and the LP that
    # would pass it is built but never solved.  Each join is an operand of
    # ->, so each is flattened
    built, passed, seen = [], [], []
    system, farkas = decide._system, decide._farkas
    monkeypatch.setattr(decide, "_system", lambda *args: seen.append(args[1]) or built.append(r := system(*args)) or r)
    monkeypatch.setattr(decide, "_farkas", lambda *args: passed.append(args[1]) or farkas(*args))
    with pytest.raises(BudgetExceededError) as caught:
        decide_valid(_blowup_formula(depth), budget=budget)
    flattened = sum(len(sides) for _, _, sides in seen[0])
    rows = [len(forms) for _, forms, _ in built]
    assert (caught.value.stage, caught.value.size, caught.value.budget) == ("search", size, budget)
    assert (len(built), len(passed), flattened + sum(rows)) == (solved + 1, solved, size)
    assert passed == [forms for _, forms, _ in built[:-1]]
    assert flattened + sum(rows[:-1]) <= 2 * budget < size


def test_a_wide_join_is_not_refused():
    # a1 \/ ... \/ a1300 at the root: 1,300 sides and one LP of 1,300 rows;
    # a1 \/ ... \/ a50 charges 100, within 2 x 100
    for n, budget in ((1300, DEFAULT_BUDGET), (50, 100)):
        f = functools.reduce(Join, [Var(f"a{k}") for k in range(1, n + 1)])
        verdict = decide_valid(f, budget=budget)
        assert isinstance(verdict, CounterExample) and not holds_rl(f, verdict.valuation), n


def _a_priori_bound(f) -> int:
    # the bound decide_valid once checked before any LP: the product of the
    # side counts of the negative joins a system can mention, times the rows,
    # one per root form, per side of such a positive join and per such
    # negative join.  Joins are keyed by (step, polarity bit), 1 positive
    steps = postorder(f)
    polarity = decide._polarity(steps)
    mentions, sides = {}, {}
    for s, (op, i, j) in enumerate(steps):
        for bit in (1, 2):
            if polarity[s] & bit:
                if op is Imp:
                    mentions[s, bit] = mentions[j, bit] | mentions[i, 3 - bit]
                elif op is Join:
                    sides[s, bit] = [m for k in (i, j) for m in sides.get((k, bit), [mentions[k, bit]])]
                    mentions[s, bit] = {(s, bit)}
                else:
                    mentions[s, bit] = set()
    root = (len(steps) - 1, 1)
    roots = sides[root] if root in sides else [mentions[root]]
    live, product, rows = set().union(*roots), 1, len(roots)
    for join in sorted(sides, reverse=True):  # a join's sides mention only earlier steps
        if join in live:
            live.update(*sides[join])
            if join[1] == 1:
                rows += len(sides[join])
            else:
                product *= len(sides[join])
                rows += 1
    return product * rows


def test_no_formula_within_the_a_priori_bound_is_refused():
    # the search has fewer than 2 x product nodes, each of at most as many
    # rows as the bound counts for positive joins and the root, and it
    # flattens at most those sides and the negative joins' product: within
    # 2 x the bound in all, so the bound as the budget refuses none
    rng = random.Random(7 * 64 + 1)
    family = [random_rl_formula(rng, 64, 6, SIX_NAMES) for _ in range(200)]
    bounds = list(map(_a_priori_bound, family))
    assert [k for k, bound in enumerate(bounds) if bound > DEFAULT_BUDGET] == list(S64_ONCE_REFUSED)
    disjuncts = " \\/ ".join(f"a{k}" for k in range(1, 14))
    blowups = [_blowup_formula(depth) for depth in range(1, 16)]
    nested = parse_rl(f"{disjuncts} -> {disjuncts}")
    assert [_a_priori_bound(f) for f in (blowups[13], blowups[14], blowups[2], nested)] == [3072, 6400, 28, 195]
    for f in family + blowups + [nested]:
        if (bound := _a_priori_bound(f)) <= DEFAULT_BUDGET:
            decide_valid(f, budget=bound)


@pytest.mark.parametrize("budget", [-1, True, False, 2.5, "3", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda budget: decide_valid(parse_rl("a"), budget),
        lambda budget: linearize(parse_rl("a \\/ b"), budget),
        lambda budget: clause_certificate(frozenset({LinearTerm.var("x")}), budget),
        lambda budget: decide_bal_valid(parse_bal("x"), budget),
        lambda budget: decide_equal(parse_rl("a"), parse_rl("a"), budget),
        lambda budget: clause_valid(frozenset({LinearTerm.var("x")}), budget),
    ],
    ids=["decide_valid", "linearize", "clause_certificate", "decide_bal_valid", "decide_equal", "clause_valid"],
)
def test_budget_must_be_a_nonnegative_int(call, budget):
    with pytest.raises(ValueError, match=f"^budget must be an int >= 0, not {re.escape(repr(budget))}$"):
        call(budget)


def test_budget_generous_enough_for_small_formulas():
    verdict = decide_valid(_blowup_formula(3))
    assert isinstance(verdict, (Valid, CounterExample))


# -- agreement with the falsifier, the normal form and rule closure ------------------

def _clause_point(f):
    # the normal form as a second decider: None when every clause of
    # linearize(f) has weights that pass check_certificate, else the point
    # of the first clause that has none, where all its terms are <= -1
    for clause in linearize(f).clauses:
        weights, point = clause_certificate(clause)
        if point is not None:
            return point
        assert check_certificate(clause, weights)
    return None


def _assert_deciders_agree(formulas) -> int:
    # decide_valid is VALID iff every clause is certified, and a refuted
    # clause's point falsifies f; the normal form settles every formula,
    # also those whose search is refused for its budget (counted)
    refused = 0
    for f in formulas:
        point = _clause_point(f)
        if point is not None:
            assert eval_rl(f, Valuation(1, {name: (x,) for name, x in point.items()}))[0] < 0
        try:
            verdict = decide_valid(f)
        except BudgetExceededError:
            refused += 1
            continue
        assert isinstance(verdict, Valid) == (point is None)
    return refused


def test_normal_form_clauses_agree_with_decide_valid():
    # the acceptance-3 formulas and the decide-tail family
    acceptance, tail = random.Random(2024), random.Random(32)
    formulas = [random_rl_formula(acceptance, 12, 4) for _ in range(1000)]
    formulas += [random_rl_formula(tail, 32, 6, SIX_NAMES) for _ in range(300)]
    assert _assert_deciders_agree(formulas) == 0



def test_oracle_agreement_sampled():
    rng = random.Random(23)
    for _ in range(150):
        f = random_rl_formula(rng)
        verdict = decide_valid(f)
        if isinstance(verdict, Valid):
            assert random_falsify(f, trials=2000, seed=rng.randint(0, 10**6)) is None
        else:
            assert not holds_rl(f, verdict.valuation)


def test_closure_under_modus_ponens():
    # f valid and f -> f \/ c valid force f \/ c valid
    rng = random.Random(24)
    fresh = {"PHI": Var("p"), "PSI": Var("q"), "CHI": Var("r")}
    axioms = [substitute(s, fresh) for s in RL_AXIOMS.values()]
    for _ in range(60):
        f = rng.choice(axioms)
        c = random_rl_formula(rng, max_connectives=5)
        assert isinstance(decide_valid(Imp(f, Join(f, c))), Valid)
        assert isinstance(decide_valid(Join(f, c)), Valid)


def test_closure_under_join_monotonicity():
    # from the valid f -> f \/ c, joining d on both sides stays valid
    rng = random.Random(25)
    for _ in range(60):
        f = random_rl_formula(rng, max_connectives=4)
        c = random_rl_formula(rng, max_connectives=3)
        d = random_rl_formula(rng, max_connectives=3)
        assert isinstance(
            decide_valid(Imp(Join(f, d), Join(Join(f, c), d))), Valid
        )


def test_bal_random_agreement_with_semantics():
    rng = random.Random(26)
    for _ in range(100):
        f = random_bal_formula(rng, max_connectives=8)
        verdict = decide_bal_valid(f)
        if isinstance(verdict, CounterExample):
            assert not holds_bal(f, verdict.valuation)
        else:
            for _ in range(50):
                v = random_valuation(rng, variables(f), dimension=1, bound=6)
                assert holds_bal(f, v)


if __name__ == "__main__":
    # the same agreement at scale: 200 formulas of Random(7n+1) with at
    # most n = 64 connectives over a-f, and g -> g for 60 formulas g of
    # Random(32) with at most 32; run as  PYTHONPATH=src python tests/test_decide.py
    scale, doubled = random.Random(7 * 64 + 1), random.Random(32)
    formulas = [random_rl_formula(scale, 64, 6, SIX_NAMES) for _ in range(200)]
    formulas += [Imp(g, g) for g in (random_rl_formula(doubled, 32, 6, SIX_NAMES) for _ in range(60))]
    assert _assert_deciders_agree(formulas) == 0, "the search refused a formula for its budget"
    print(f"the deciders agree on all {len(formulas)} formulas")
