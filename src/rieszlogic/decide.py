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
``{L_j <= -1 for all j}`` is infeasible; the -1 right-hand side turns
strict homogeneous infeasibility into non-strict rational feasibility
without loss.  Feasibility is decided by exact Fourier-Motzkin
elimination, and a feasible system yields a rational witness point,
hence a one-dimensional countermodel.

Validity over these rational models coincides with validity over all
abelian lattice-ordered groups; this relies on the standard algebraic
fact that the reals generate that variety.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Optional, Union

from .syntax import Formula, Imp, Pos, Var, Zero, fold, format_formula, pos_to_join, variables
from .semantics import Valuation, Vector

DEFAULT_BUDGET = 100_000


class BudgetExceededError(Exception):
    """The normal form or the elimination grew past the configured budget."""

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


def _size(clauses: list[Clause]) -> int:
    return sum(len(c) for c in clauses)


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
    size = _size(clauses)
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
# clause feasibility by Fourier-Motzkin elimination

@dataclass(frozen=True)
class _Inequality:
    """sum(coeffs * x) <= rhs with exact rational entries."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rhs: Fraction

    @staticmethod
    def of(mapping: Mapping[str, Fraction], rhs: Fraction) -> "_Inequality":
        return _Inequality(tuple(sorted((v, c) for v, c in mapping.items() if c != 0)), rhs)

    def coeff(self, name: str) -> Fraction:
        for v, c in self.coeffs:
            if v == name:
                return c
        return Fraction(0)

    def scale(self, factor: Fraction) -> "_Inequality":
        # factor must be positive: scaling keeps the <= direction
        return _Inequality(tuple((v, c * factor) for v, c in self.coeffs), self.rhs * factor)

    def drop(self, name: str) -> "_Inequality":
        return _Inequality(tuple((v, c) for v, c in self.coeffs if v != name), self.rhs)

    def combine(self, other: "_Inequality") -> "_Inequality":
        out = dict(self.coeffs)
        for v, c in other.coeffs:
            out[v] = out.get(v, Fraction(0)) + c
        return _Inequality.of(out, self.rhs + other.rhs)


def clause_valid(
    clause: Clause, budget: int = DEFAULT_BUDGET
) -> Union[bool, dict[str, Fraction]]:
    """True when max of the clause terms is >= 0 everywhere.

    Otherwise returns a rational witness point at which every term is
    <= -1 (so the max is strictly negative).
    """
    if not clause:
        raise ValueError("clause must be nonempty")
    system = [
        _Inequality.of({v: Fraction(c) for v, c in t.coeffs}, Fraction(-1)) for t in clause
    ]
    names = sorted({v for ineq in system for v, _ in ineq.coeffs})
    steps: list[tuple[str, list[_Inequality], list[_Inequality]]] = []
    for name in names:
        uppers = []  # scaled to  x + rest <= r, i.e. x <= r - rest
        lowers = []  # scaled to -x + rest <= r, i.e. x >= rest - r
        remaining = []
        for ineq in system:
            c = ineq.coeff(name)
            if c > 0:
                uppers.append(ineq.scale(1 / c))
            elif c < 0:
                lowers.append(ineq.scale(-1 / c))
            else:
                remaining.append(ineq)
        steps.append((name, uppers, lowers))
        for up, low in itertools.product(uppers, lowers):
            remaining.append(up.drop(name).combine(low.drop(name)))
        system = list(dict.fromkeys(remaining))
        if len(system) > budget:
            raise BudgetExceededError("elimination", len(system), budget)
    for ineq in system:
        assert not ineq.coeffs
        if ineq.rhs < 0:
            return True
    # feasible: back-substitute a witness in reverse elimination order
    point: dict[str, Fraction] = {}
    for name, uppers, lowers in reversed(steps):
        ups = [ineq.rhs - _eval_rest(ineq, name, point) for ineq in uppers]
        lows = [_eval_rest(ineq, name, point) - ineq.rhs for ineq in lowers]
        if ups and lows:
            value = (min(ups) + max(lows)) / 2
        elif ups:
            value = min(ups)
        elif lows:
            value = max(lows)
        else:
            value = Fraction(0)
        point[name] = value
    return point


def _eval_rest(ineq: _Inequality, name: str, point: Mapping[str, Fraction]) -> Fraction:
    return sum(
        (c * point[v] for v, c in ineq.coeffs if v != name),
        Fraction(0),
    )


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


def _witness_valuation(f: Formula, point: Mapping[str, Fraction]) -> Valuation:
    assignment = {name: (point.get(name, Fraction(0)),) for name in variables(f)}
    return Valuation(1, assignment)


def decide_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide RL validity; countermodels are one-dimensional.

    A single real point falsifies some clause, so higher dimensions add
    nothing for refutation.
    """
    normal_form = linearize(f, budget)
    for clause in normal_form.clauses:
        outcome = clause_valid(clause, budget)
        if outcome is not True:
            return CounterExample(_witness_valuation(f, outcome))
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
