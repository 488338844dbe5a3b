"""Exact validity decisions with countermodel extraction.

Every RL value function is piecewise linear and homogeneous: variables
and ``0`` are linear, ``->`` is subtraction and ``\\/`` is the maximum.
``linearize`` rewrites a formula into an equivalent *meet of joins* of
homogeneous integer linear terms using

    (A \\/ B) + C = (A + C) \\/ (B + C)
    -(A \\/ B)    = (-A) /\\ (-B)
    A \\/ (B /\\ C) = (A \\/ B) /\\ (A \\/ C)

so the value at any point is ``min over clauses of (max over terms)``.

Each step keeps only the minimal clauses: a clause whose terms include
all of another's is everywhere at least as large, so the meet absorbs
it.  The filter drops duplicates, visits the clauses shortest first,
keeps a clause only when no kept shorter clause is a subset of it, and
returns the survivors in first-occurrence order.  Each ``linearize``
call interns its terms (and memoizes their sums) in tables of its own,
so equal terms are one object and subset tests compare them by
identity.  The size budget is checked after each step's product is
built, so it bounds the result, not the work of building it.

The formula is valid iff every clause satisfies ``max_j L_j >= 0``
everywhere, which by homogeneity holds iff the rational system
``{L_j <= -1 for all j}`` is infeasible.  An exact integer simplex on
the Farkas side of that system settles each clause: either nonnegative
integer weights on the terms that sum to the zero term, a certificate
that ``check_certificate`` verifies without the solver, or a rational
point where every term is ``<= -1``, hence a one-dimensional
countermodel.

Validity over these rational models coincides with validity over all
abelian lattice-ordered groups; this relies on the standard algebraic
fact that the reals generate that variety.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, Optional, Union

from .syntax import Formula, Imp, Pos, Var, Zero, fold, format_formula, pos_to_join, variables
from .semantics import Valuation, Vector

DEFAULT_BUDGET = 100_000


class BudgetExceededError(Exception):
    """The normal form grew past the budget, or the clause simplex took
    more pivots than it allows (``size`` counts them)."""

    def __init__(self, stage: str, size: int, budget: int):
        super().__init__(f"{stage} size {size} exceeds budget {budget}")
        self.stage = stage
        self.size = size
        self.budget = budget


@dataclass(frozen=True)
class LinearTerm:
    """Homogeneous integer linear combination of variables."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by name, zero coefficients dropped

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "LinearTerm":
        return LinearTerm(tuple(sorted(filter(itemgetter(1), mapping.items()))))

    @staticmethod
    def var(name: str) -> "LinearTerm":
        return LinearTerm(((name, 1),))

    @staticmethod
    def zero() -> "LinearTerm":
        return LinearTerm(())

    def add(self, other: "LinearTerm") -> "LinearTerm":
        out = dict(self.coeffs)
        for v, c in other.coeffs:
            out[v] = out.get(v, 0) + c
        return LinearTerm.of(out)

    def neg(self) -> "LinearTerm":
        return LinearTerm(tuple((v, -c) for v, c in self.coeffs))

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((c * point.get(v, Fraction(0)) for v, c in self.coeffs), Fraction(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"+ {v}")
            elif c == -1:
                parts.append(f"- {v}")
            elif c >= 0:
                parts.append(f"+ {c}{v}")
            else:
                parts.append(f"- {-c}{v}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else f"-{text[2:]}"


Clause = frozenset[LinearTerm]


@dataclass(frozen=True)
class MeetJoinNormalForm:
    """Meet of clauses; each clause is a join of linear terms.

    Clause order is the deterministic construction order, so reports can
    refer to the lowest-indexed failing clause.
    """

    clauses: tuple[Clause, ...]

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        return min(max(t.eval(point) for t in clause) for clause in self.clauses)

    def eval_vector(self, v: Valuation) -> Vector:
        points = [
            {name: vec[k] for name, vec in v.assignment.items()}
            for k in range(v.dimension)
        ]
        return tuple(self.eval(p) for p in points)


def _dedupe_clauses(clauses: list[Clause]) -> list[Clause]:
    # keep the minimal clauses, without duplicates, in first-occurrence
    # order: a clause with more joined terms is everywhere >= one with a
    # subset of them, so the meet ignores it.  Visited shortest first, a
    # clause is minimal iff no kept clause of smaller size is a subset of
    # it; clauses of equal size are distinct, so none contains another.
    if len(clauses) < 2:
        return clauses
    unique = list(dict.fromkeys(clauses))
    kept: list[Clause] = []
    for _, same_size in itertools.groupby(sorted(unique, key=len), key=len):
        kept += [c for c in same_size if not any(map(c.issuperset, kept))]
    if len(kept) == len(unique):
        return unique
    minimal = set(kept)
    return [c for c in unique if c in minimal]


def linearize(f: Formula, budget: int = DEFAULT_BUDGET) -> MeetJoinNormalForm:
    """Normal form with exactly the same value as the formula everywhere."""
    # Tables that live for this call only, so memory does not grow across
    # calls.  Interning makes equal terms one object, so the subset tests
    # in _dedupe_clauses match terms by identity and call LinearTerm.__eq__
    # only for distinct terms with equal hashes.  The cross products in
    # _add sum the same few term pairs over and over, so sums are memoized,
    # keyed by identity: `terms` keeps every interned term alive, so no id
    # is reused.
    terms: dict[LinearTerm, LinearTerm] = {}
    sums: dict[tuple[int, int], LinearTerm] = {}

    def intern(t: LinearTerm) -> LinearTerm:
        return terms.setdefault(t, t)

    def add(t: LinearTerm, u: LinearTerm) -> LinearTerm:
        key = (id(t), id(u))
        s = sums.get(key)
        if s is None:
            s = sums[key] = intern(t.add(u))
        return s

    def leaf(g: Formula) -> list[Clause]:
        if type(g) is Var:
            return [frozenset((intern(LinearTerm.var(g.name)),))]
        if type(g) is Zero:
            return [frozenset((intern(LinearTerm.zero()),))]
        if type(g) is Pos:
            raise TypeError(f"not an RL formula (desugar first): {format_formula(g)}")
        raise TypeError(f"not an RL formula: {g!r}")

    clauses = fold(
        f,
        leaf,
        lambda left, right: _add(_negate(left, budget, intern), right, budget, add),
        # max of min-max forms: distribute the meet over the join
        lambda left, right: _check([ci | dk for ci in left for dk in right], budget),
    )
    return MeetJoinNormalForm(tuple(clauses))


def _check(clauses: list[Clause], budget: int) -> list[Clause]:
    clauses = _dedupe_clauses(clauses)
    size = sum(map(len, clauses))
    if size > budget:
        raise BudgetExceededError("normal form", size, budget)
    return clauses


def _add(
    left: list[Clause],
    right: list[Clause],
    budget: int,
    add: Callable[[LinearTerm, LinearTerm], LinearTerm],
) -> list[Clause]:
    out = [
        frozenset(add(t, u) for t in ci for u in dk)
        for ci in left
        for dk in right
    ]
    return _check(out, budget)


def _negate(
    clauses: list[Clause], budget: int, intern: Callable[[LinearTerm], LinearTerm]
) -> list[Clause]:
    # -(min_i max_j t_ij) = max_i min_j (-t_ij); each negated clause is a
    # meet of singletons, and the outer max folds in as pairwise joins,
    # pruning with absorption at every step to keep the blow-up honest
    out: list[Clause] = [frozenset()]
    for clause in clauses:
        negated = [frozenset((intern(t.neg()),)) for t in clause]
        out = _check([ci | dk for ci in out for dk in negated], budget)
    return out


# ---------------------------------------------------------------------------
# clause feasibility by an exact simplex on the Farkas side

def _farkas(
    rows: list[list[int]], rhs: list[int], budget: int
) -> tuple[Optional[list[int]], Optional[list[Fraction]]]:
    """Solve ``A x <= b`` over the rationals, or prove it has no solution.

    Runs phase I of the simplex on the Farkas side ``A^T l = 0, -b^T l =
    1, l >= 0``, whose tableau has one row per variable plus one.  When
    phase I reaches 0 it returns ``(weights, None)``, integers
    proportional to such an ``l``.  Otherwise it returns ``(None, x)``
    with ``A x <= b``, read off the phase-I dual: ``y_i`` is 1 minus the
    reduced cost of artificial ``i`` and ``x_v = y_v / y_last``.  The
    tableau stays integral by fraction-free pivoting: its true entries
    are ``table / d``, and every pivot is positive, so ``d`` is too.
    Bland's rule keeps it from cycling; past ``budget`` pivots it raises.
    """
    m, n = len(rows), len(rows[0])
    width = m + n + 1  # weight columns, then one artificial per row
    table = [list(col) + [0] * v + [1] + [0] * (n - v) + [0] for v, col in enumerate(zip(*rows))]
    table.append([-b for b in rhs] + [0] * n + [1, 1])
    # phase-I reduced costs and objective: minimize the sum of the artificials
    table.append([-sum(col) for col in zip(*table)][:m] + [0] * (n + 1) + [-1])
    basis = list(range(m, width))
    d, pivots = 1, 0
    while table[-1][-1]:
        cost = table[-1]
        c = next((j for j in range(m) if cost[j] < 0), None)
        if c is None:
            y = [d - cost[j] for j in range(m, width)]
            return None, [Fraction(yv, y[n]) for yv in y[:n]]
        r = -1  # the tightest row, ties to the lowest basic column
        for i in range(n + 1):
            a = table[i][c]
            if a > 0 and (r < 0 or (table[i][-1] * table[r][c], basis[i]) < (table[r][-1] * a, basis[r])):
                r = i
        pivots += 1
        if pivots > budget:
            raise BudgetExceededError("simplex", pivots, budget)
        pivot_row, p = table[r], table[r][c]
        for i, row in enumerate(table):
            if i != r:
                f = row[c]
                table[i] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
        d, basis[r] = p, c
    value = {j: table[i][-1] for i, j in enumerate(basis)}
    return [value.get(j, 0) for j in range(m)], None


def clause_certificate(
    clause: Clause, budget: int = DEFAULT_BUDGET
) -> tuple[Optional[dict[LinearTerm, int]], Optional[dict[str, Fraction]]]:
    """``(weights, None)`` that pass ``check_certificate`` when the clause
    is valid, else ``(None, point)`` with every term ``<= -1`` there.

    Terms are ordered by their coefficients and variables by name, so
    neither result depends on set iteration order.
    """
    if not clause:
        raise ValueError("clause must be nonempty")
    terms = sorted(clause, key=attrgetter("coeffs"))
    names = sorted({v for t in terms for v, _ in t.coeffs})
    rows = [[coeffs.get(v, 0) for v in names] for coeffs in (dict(t.coeffs) for t in terms)]
    weights, point = _farkas(rows, [-1] * len(terms), budget)
    if point is not None:
        return None, dict(zip(names, point))
    g = math.gcd(*weights)
    return {t: w // g for t, w in zip(terms, weights) if w}, None


def clause_valid(clause: Clause, budget: int = DEFAULT_BUDGET) -> Union[bool, dict[str, Fraction]]:
    """True when max of the clause terms is >= 0 everywhere.

    Otherwise returns a rational witness point at which every term is
    <= -1 (so the max is strictly negative).
    """
    _, point = clause_certificate(clause, budget)
    return True if point is None else point


def check_certificate(clause: Clause, weights: Mapping[LinearTerm, int]) -> bool:
    """True when ``weights`` prove that max of the clause terms is >= 0.

    No solver: the weights must be ints ``>= 0``, not all zero, on terms
    of the clause, and weight the terms to the zero term.  Then at every
    point some term of positive weight is ``>= 0``.
    """
    if not any(weights.values()):
        return False
    if not all(type(w) is int and w >= 0 and t in clause for t, w in weights.items()):
        return False
    total: dict[str, int] = {}
    for t, w in weights.items():
        for v, c in t.coeffs:
            total[v] = total.get(v, 0) + w * c
    return not any(total.values())


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class CounterExample:
    valuation: Valuation


Verdict = Union[Valid, CounterExample]

VALID = Valid()


def decide_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide RL validity; countermodels are one-dimensional.

    A single real point falsifies some clause, so higher dimensions add
    nothing for refutation.
    """
    for clause in linearize(f, budget).clauses:
        point = clause_valid(clause, budget)
        if point is not True:  # variables outside the clause are 0 there
            return CounterExample(Valuation(1, {v: (point.get(v, Fraction(0)),) for v in variables(f)}))
    return VALID


def decide_bal_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide BAL validity: the value must be identically zero.

    Compiles ``^+`` to ``\\/ 0`` and checks both ``t >= 0`` and
    ``-t >= 0``; a countermodel is any valuation with nonzero value.
    """
    term = pos_to_join(f)
    verdict = decide_valid(term, budget)
    if isinstance(verdict, CounterExample):
        return verdict
    return decide_valid(Imp(term, Zero()), budget)


def decide_equal(f: Formula, g: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Valid iff f -> g and g -> f are both valid RL formulas."""
    verdict = decide_valid(Imp(f, g), budget)
    if isinstance(verdict, CounterExample):
        return verdict
    return decide_valid(Imp(g, f), budget)
