"""Exact validity decisions with countermodels and certificates.

Every RL value function is piecewise linear and homogeneous: variables
and ``0`` are linear, ``->`` is subtraction and ``\\/`` is the maximum.
So f is valid iff no point gives ``f <= -1``.

``decide_valid`` gives each join occurrence a column ``y`` of a linear
system asserting ``f <= -1``.  A join is *positive* when an even number
of ``->`` left sides lie above it, else *negative*.  A positive join
adds the rows ``y >= l`` and ``y >= r``; a negative join is searched
depth first by substituting ``y := l`` or ``y := r``, and its column is
free until then.  Joins directly under a join are flattened into one
n-ary maximum, with one row per side if positive and one branch per side
if negative; only a join that a form mentions gets a side list.  Each
step's linear form is built once per polarity it occurs with, and
``_system`` builds each search node's rows from the root's forms and
the flattened positive joins, listed once per call; it substitutes
nothing at a node with nothing fixed.  The rows go to ``_farkas`` as the
sparse forms ``{column: coeff}`` they are built as, and that exact
integer simplex writes them into its tableau, with a scale per row, so
pivots skip untouched rows, read only the pivot row's nonzeros, and
scale a row by the pivot entry only if it is not 1.  An infeasible node
is closed by weights that ``check_farkas`` confirms before they are
kept; its dense rows are built for that refutation alone.  A feasible
node's point is evaluated exactly, its variables' coordinates read once
for that and the countermodel: where f is negative, it is the
countermodel; otherwise some free negative join's column lies above the
maximum of its sides there (were there none, f would be at most its
form, so ``<= -1``), and the search branches on the lowest such join.
At a countermodel, the side attaining each negative join's maximum gives
a feasible branch, so the closed branches prove validity.

``--budget``, an int ``>= 0``, is charged before the work it bounds: a
join's side count before its side list is built, each LP's rows before
it is solved, up to ``2 × budget`` in all; one LP takes at most
``budget`` pivots.  A search over negative joins of ``s_1, ..., s_k``
sides has under ``2 s_1⋯s_k`` nodes, so none is refused whose ``s_1⋯s_k``
times rows (root forms, positive joins' sides, one per negative join)
is within the budget.  The tableau's width is not charged.

``linearize`` replays the same ``postorder`` program and polarity pass
to rewrite a formula into an equivalent *meet of joins* of integer linear
terms, whose clauses ``clause_certificate`` settles with the same simplex.
Each step keeps its meet of joins where it is positive and its join of
meets where it is negative, pruned after every step; no form is converted
into its dual, and no step reads a set's iteration order.

Validity over these rational models coincides with validity over all
abelian lattice-ordered groups; this relies on the standard algebraic
fact that the reals generate that variety.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .syntax import DEFAULT_BUDGET, Formula, Imp, Join, Record, Var, Zero, _check_int, pos_to_join, postorder
# format_formula stays an attribute here, where callers have found it
from .syntax import format_formula
from .semantics import Valuation, Vector, _layout, compile_scalar


class BudgetExceededError(Exception):
    """Work past the budget.  ``stage`` is ``"search"`` when the sides and
    LP rows of ``decide_valid`` would pass twice it, ``"simplex"`` when one
    LP takes more pivots, and ``"normal form"`` when a step of ``linearize``
    grows past it or would pair more than 16 times it; ``size`` is the
    search's charge, the pivots, or the step's size or pairs."""

    def __init__(self, stage: str, size: int, budget: int):
        super().__init__(f"{stage} size {size} exceeds budget {budget}")
        self.stage = stage
        self.size = size
        self.budget = budget


class LinearTerm(tuple):
    """Homogeneous integer linear combination of variables: its ``(name,
    coeff)`` pairs, sorted by name, with zero coefficients dropped.  A
    tuple, so it hashes and compares in C, sorts as its pairs do, and
    equals a plain tuple of the same pairs."""

    __slots__ = ()
    __match_args__ = ("coeffs",)

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "LinearTerm":
        return LinearTerm(sorted(filter(itemgetter(1), mapping.items())))

    @staticmethod
    def var(name: str) -> "LinearTerm":
        return LinearTerm(((name, 1),))

    @staticmethod
    def zero() -> "LinearTerm":
        return LinearTerm()

    @property
    def coeffs(self) -> tuple[tuple[str, int], ...]:
        return tuple(self)

    def eval(self, point: Mapping[str, Union[int, Fraction]]) -> Union[int, Fraction]:
        """The value at ``point``; a name it lacks counts as 0."""
        return sum(c * point.get(v, 0) for v, c in self)

    def __repr__(self) -> str:
        return f"LinearTerm(coeffs={tuple(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for v, c in self:
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


class MeetJoinNormalForm(Record):
    """Meet of clauses; each clause is a join of linear terms.

    Clause order is the deterministic construction order, which depends
    on the formula alone, so reports can refer to the lowest-indexed
    failing clause.
    """

    __slots__ = ("clauses",)  # tuple[Clause, ...]

    def eval_vector(self, v: Valuation) -> Vector:
        """The value at each coordinate of ``v``, on its values times the
        lcm of their denominators, as ``eval_rl`` computes it."""
        value = []
        for k in range(v.dimension):
            point = {name: vec[k] for name, vec in v.assignment.items()}
            scale = math.lcm(*(x.denominator for x in point.values()))
            point = {name: x.numerator * (scale // x.denominator) for name, x in point.items()}
            value.append(Fraction(min(max(t.eval(point) for t in clause) for clause in self.clauses), scale))
        return tuple(value)


def _dedupe_clauses(clauses: list[Clause]) -> list[Clause]:
    # keep the minimal clauses, without duplicates, in first-occurrence
    # order: a clause with more joined terms is everywhere >= one with a
    # subset of them, so the meet ignores it.  Dually, a cube with more met
    # terms is everywhere <= one with a subset, so a join of cubes ignores it
    unique = list(dict.fromkeys(clauses))
    return [c for c in unique if not any(d < c for d in unique)]


def _polarity(steps: Sequence[tuple]) -> list[int]:
    # each postorder step's polarity: bit 1 when it occurs positively, bit 2
    # negatively, and bits 4 and 8 likewise as the root or an operand of ->
    polarity = [0] * len(steps)
    polarity[-1] = 5
    for s in range(len(steps) - 1, -1, -1):
        op, i, j = steps[s]
        if op is Imp or op is Join:
            p = (polarity[s] & 3) * (5 if op is Imp else 1)  # an operand of -> repeats bits 1 and 2 in 4 and 8
            polarity[i] |= p if op is Join else (p & 5) << 1 | (p & 10) >> 1  # a left side of -> swaps the bits
            polarity[j] |= p
    return polarity


def _difference(u: Clause, t: Clause) -> Clause:
    return frozenset(LinearTerm.of(_minus(dict(a), dict(b))) for a in u for b in t)  # each a - b


def linearize(f: Formula, budget: int = DEFAULT_BUDGET) -> MeetJoinNormalForm:
    """Normal form with exactly the same value as the formula everywhere.

    Each step keeps its meet of joins (clauses) where it occurs positively
    and its join of meets (cubes) where it occurs negatively.  A variable
    or ``0`` is one term in both.  A positive ``\\/`` distributes, ``A \\/
    (B /\\ C) = (A \\/ B) /\\ (A \\/ C)``; a negative one concatenates its
    cubes.  ``x -> y`` is ``y - x = min_(U,T) max (U - T)`` over y's clauses
    U and x's cubes T, or ``max_(U,T) min (U - T)`` over y's cubes and x's
    clauses, where ``U - T`` holds each ``u - t``.  Each step keeps its
    minimal clauses or cubes (``_dedupe_clauses``), of at most ``budget``
    terms in all; a product of more than ``16 × budget`` pairs is refused
    before it is built.
    """
    _check_int("budget", budget, 0)

    def pruned(forms: list[Clause]) -> list[Clause]:
        forms = _dedupe_clauses(forms)
        if (size := sum(map(len, forms))) > budget:
            raise BudgetExceededError("normal form", size, budget)
        return forms

    def product(left: list[Clause], right: list[Clause], combine: Callable) -> list[Clause]:
        if (pairs := len(left) * len(right)) > 16 * budget:
            raise BudgetExceededError("normal form", pairs, budget)
        return pruned([combine(a, b) for a in left for b in right])

    steps = postorder(f)
    polarity = _polarity(steps)
    meets, joins = [[]] * len(steps), [[]] * len(steps)  # each step's clauses where positive, cubes where negative
    for s, (op, i, j) in enumerate(steps):
        if op is Imp:
            if polarity[s] & 1:
                meets[s] = product(meets[j], joins[i], _difference)
            if polarity[s] & 2:
                joins[s] = product(joins[j], meets[i], _difference)
        elif op is Join:
            if polarity[s] & 1:
                meets[s] = product(meets[i], meets[j], or_)
            if polarity[s] & 2:
                joins[s] = pruned(joins[i] + joins[j])
        else:
            meets[s] = joins[s] = [frozenset((LinearTerm.var(i) if op is Var else LinearTerm.zero(),))]
    return MeetJoinNormalForm(tuple(meets[-1]))


# ---------------------------------------------------------------------------
# clause feasibility by an exact simplex on the Farkas side

def _farkas(
    columns: Sequence, forms: Sequence[Mapping], rhs: Sequence[int], budget: int
) -> tuple[Optional[list[int]], Optional[list[int]]]:
    """Solve ``A x <= b`` over the rationals, or prove it has no solution.

    Row ``i`` of ``A`` is the sparse form ``forms[i]``, which maps some of
    the sorted ``columns`` to their coefficients; a column it lacks has 0.
    Runs phase I of the simplex on the Farkas side ``A^T l = 0, -b^T l = 1,
    l >= 0``, whose tableau has one row per column plus one.  Each such
    row starts as its artificial's identity row, and each form writes its
    entries into the rows of the columns it mentions.  When phase I
    reaches 0 it returns ``(weights, None)``, coprime integers
    proportional to such an ``l``.  Otherwise it returns ``(None, y)``, the
    phase-I dual over its gcd: ``y_last > 0``, and ``x_v = y_v / y_last``
    has ``A x <= b``.  Each row is integral over a positive scale of its
    own, its entry in its basic column.  A pivot rewrites only the rows
    with an ``f != 0`` in its column, to ``row * p - f * pivot_row`` over
    its gcd, scaling by ``p`` only if ``p != 1`` and reading only the
    pivot row's nonzeros.  Bland's rule and the ratio test compare within
    a row, so the scales do not change the pivots; the ratio test holds
    the best row's rhs, entry and basic column as it scans.  Past
    ``budget`` pivots it raises.
    """
    m, n = len(forms), len(columns)
    # columns: one weight per row, one artificial per tableau row, the cost row's scale, b
    table = []
    for v in range(n):
        table.append(row := [0] * (m + n + 3))
        row[m + v] = 1
    row_of = dict(zip(columns, table))
    for k, form in enumerate(forms):
        for c, a in form.items():
            row_of[c][k] = a
    table.append([-b for b in rhs] + [0] * n + [1, 0, 1])
    # phase-I reduced costs and objective: minimize the sum of the artificials
    table.append(cost := [b - sum(form.values()) for form, b in zip(forms, rhs)] + [0] * (n + 1) + [1, -1])
    basis, pivots = list(range(m, m + n + 1)), 0
    while cost[-1]:
        for c in range(m):  # Bland's rule: the lowest column of negative cost
            if cost[c] < 0:
                break
        else:
            return None, _primitive([cost[-2] - a for a in cost[m:-2]])
        # the tightest row, ties to the lowest basic column: the best row so
        # far is held as its rhs q, its entry p in column c and its basic column
        r = -1
        for i in range(n + 1):
            if (a := (row := table[i])[c]) > 0:
                if r < 0 or (t := row[-1] * p) < (u := q * a) or t == u and basis[i] < basic:
                    r, q, p, basic = i, row[-1], a, basis[i]
        pivots += 1
        if pivots > budget:
            raise BudgetExceededError("simplex", pivots, budget)
        nonzero = [(k, b) for k, b in enumerate(table[r]) if b]
        for i, row in enumerate(table):
            if (f := row[c]) and i != r:
                row = [a * p for a in row] if p != 1 else row
                for k, b in nonzero:
                    row[k] -= f * b
                table[i] = row if (g := math.gcd(*row)) == 1 else [a // g for a in row]
        basis[r], cost = c, table[-1]
    scale = math.lcm(*(table[i][j] for i, j in enumerate(basis)))
    value = {j: table[i][-1] * scale // table[i][j] for i, j in enumerate(basis)}
    return _primitive([value.get(j, 0) for j in range(m)]), None


def _primitive(v: list[int]) -> list[int]:
    return v if (g := math.gcd(*v)) == 1 else [a // g for a in v]


def _dense(columns: Sequence, forms: Iterable[Mapping]) -> list[list[int]]:
    # each form's coefficients on the sorted columns, 0 where it has none
    index = {c: k for k, c in enumerate(columns)}
    rows = []
    for form in forms:
        rows.append(row := [0] * len(index))
        for c, k in form.items():
            row[index[c]] = k
    return rows


def _clause_forms(terms: Iterable[LinearTerm]) -> tuple[list[str], list[dict[str, int]]]:
    # the sorted variable names, and each term as a form over them
    forms = list(map(dict, terms))
    return sorted(set().union(*forms)), forms


def clause_certificate(
    clause: Clause, budget: int = DEFAULT_BUDGET
) -> tuple[Optional[dict[LinearTerm, int]], Optional[dict[str, Fraction]]]:
    """``(weights, None)`` that pass ``check_certificate`` when the clause
    is valid, else ``(None, point)`` with every term ``<= -1`` there.

    Each term goes to ``_farkas`` as a sparse row ``t <= -1``.  Terms are
    ordered by their coefficients and variables by name, so neither
    result depends on set iteration order.
    """
    _check_int("budget", budget, 0)
    if not clause:
        raise ValueError("clause must be nonempty")
    terms = sorted(clause)
    names, forms = _clause_forms(terms)
    weights, y = _farkas(names, forms, [-1] * len(terms), budget)
    if y is not None:
        return None, {name: Fraction(yv, y[-1]) for name, yv in zip(names, y)}
    return {t: w for t, w in zip(terms, weights) if w}, None


def clause_valid(clause: Clause, budget: int = DEFAULT_BUDGET) -> Union[bool, dict[str, Fraction]]:
    """True when max of the clause terms is >= 0 everywhere.

    Otherwise returns a rational witness point at which every term is
    <= -1 (so the max is strictly negative).
    """
    _, point = clause_certificate(clause, budget)
    return True if point is None else point


def check_farkas(rows: Sequence[Sequence[int]], rhs: Sequence[int], weights: Sequence[int]) -> bool:
    """True when ``weights`` prove that ``rows · x <= rhs`` has no
    rational solution.

    No solver: rows of one length, ints throughout, one ``b`` and one
    weight ``>= 0`` per row, not all zero, ``λᵀA = 0`` and ``λᵀb < 0``.
    Summed with these weights, the rows give ``0 <= λᵀb``: no point fits.
    """
    if not len(weights) == len(rhs) == len(rows) or len(set(map(len, rows))) > 1 or not any(weights):
        return False
    if not all(type(a) is int for a in itertools.chain(weights, rhs, *rows)) or min(weights) < 0:
        return False
    return not any(sum(map(mul, weights, col)) for col in zip(*rows)) and sum(map(mul, weights, rhs)) < 0


def check_certificate(clause: Clause, weights: Mapping[LinearTerm, int]) -> bool:
    """True when ``weights`` prove that max of the clause terms is >= 0.

    The weights must be on terms of the clause and pass ``check_farkas``
    for the system ``{t <= -1 for each weighted term t}``: then at every
    point some term of positive weight is ``>= 0``.
    """
    if not all(t in clause for t in weights):
        return False
    names, forms = _clause_forms(weights)
    return check_farkas(_dense(names, forms), [-1] * len(forms), list(weights.values()))


# ---------------------------------------------------------------------------
# verdicts

class Refutation(Record):
    """Integer weights proving that ``rows · x <= rhs`` has no rational
    solution; ``check_farkas`` confirms them."""

    __slots__ = ("rows", "rhs", "weights")  # a tuple of int tuples; rhs and weights one int per row


class Valid(Record):
    """The formula is valid; ``branches`` holds one refutation per closed
    branch of the search."""

    __slots__ = ("branches",)  # tuple[Refutation, ...]
    _defaults = ((),)


class CounterExample(Record):
    __slots__ = ("valuation",)


Verdict = Union[Valid, CounterExample]


class SelfCheckError(Exception):
    """The search found a point that exact evaluation does not confirm as
    a countermodel.  It means a defect in this module, never a verdict."""


def _minus(a: Mapping, b: Mapping) -> dict:
    # the linear form a - b, in one copy of a; b holds no zero coefficient,
    # so a difference of 0 is at a key of a, which is dropped
    out = dict(a)
    for c, k in b.items():
        if k := out.get(c, 0) - k:
            out[c] = k
        else:
            del out[c]
    return out


def _system(
    roots: list[dict[int, int]], joins: list[list], fixed: dict[int, int], positive: list[int]
) -> tuple[list[int], list[dict[int, int]], list[int]]:
    """The branch's system ``A x <= b`` as (columns, rows, b), each row a
    sparse form ``{column: coeff}`` over the sorted columns.

    Each fixed negative join's column is replaced by its chosen side's
    form; with nothing fixed, as at the root, nothing is substituted.  The
    rows ``form <= -1`` of ``roots`` come first; then, for each column y of
    ``positive``, the flattened positive joins from the root down, the
    rows ``side - y <= 0`` if a row already kept mentions y.
    """
    if fixed:
        resolved: dict[int, dict[int, int]] = {}

        def sub(form: dict[int, int]) -> dict[int, int]:
            if resolved.keys().isdisjoint(form):
                return form
            out: dict[int, int] = {}
            for c, k in form.items():
                for d, m in resolved.get(c, {c: 1}).items():
                    out[d] = out.get(d, 0) + k * m
            return {c: k for c, k in out.items() if k}

        for c in sorted(fixed):  # a join's sides mention only lower columns
            resolved[c] = sub(joins[c][2][fixed[c]])
        roots = [sub(form) for form in roots]
    forms, rhs = roots[:], [-1] * len(roots)
    live = set().union(*forms)
    for c in positive:
        if c in live:
            for side in joins[c][2]:
                forms.append(row := {**(sub(side) if fixed else side), c: -1})
                live.update(row)
            rhs += [0] * len(joins[c][2])
    return sorted(live), forms, rhs


def decide_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide RL validity; countermodels are one-dimensional.

    Join occurrences become columns of a linear system asserting ``f <=
    -1``, and negative joins are searched depth first (module docstring).
    A countermodel is returned only once exact evaluation finds ``f``
    negative there; VALID carries one refutation per closed branch.
    """
    _check_int("budget", budget, 0)
    steps = postorder(f)
    names, factor, run = compile_scalar(f, "RL")
    polarity = _polarity(steps)
    # each step's linear form where it occurs positively (pos) and where it
    # occurs negatively (neg): variable k is column ~k, join occurrence c is
    # column c, with joins[c] = [step, positive, sides]; children come
    # first, so sides mention only lower columns.  A join under a join is
    # flattened into it, max(max(l, r), ...) = max(l, r, ...): a join keeps
    # its two operands, each a form or such a join's column, and only a
    # join that a form mentions (bit 4 or 8) gets its form and side list
    column = {name: ~k for k, name in enumerate(names)}
    pos: list[Optional[dict[int, int]]] = [None] * len(steps)
    neg: list[Optional[dict[int, int]]] = [None] * len(steps)
    at = [None] * len(steps), [None] * len(steps)  # each join step's column where positive, where negative
    joins: list[list] = []
    count: list[int] = []  # each join's side count
    flat: tuple[list[int], list[int]] = [], []  # the flattened joins' columns, positive and negative
    work = 0  # the sides flattened and the LP rows, charged before each is built or solved
    for s, (op, i, j) in enumerate(steps):
        if op is Imp:
            if polarity[s] & 1:
                pos[s] = _minus(pos[j], neg[i])
            if polarity[s] & 2:
                neg[s] = _minus(neg[j], pos[i])
        elif op is Join:
            for b in 0, 1:  # bit 1 << b: positive, then negative
                if polarity[s] >> b & 1:
                    forms, cols = neg if b else pos, at[b]
                    c, left, right = len(joins), cols[i], cols[j]
                    operands = [forms[i] if left is None else left, forms[j] if right is None else right]
                    count.append((1 if left is None else count[left]) + (1 if right is None else count[right]))
                    cols[s] = c
                    joins.append([s, not b, operands])
                    if polarity[s] >> b & 4:  # a form mentions it
                        if (work := work + count[c]) > 2 * budget:
                            raise BudgetExceededError("search", work, budget)
                        forms[s] = {c: 1}
                        sides, todo = [], operands[::-1]
                        while todo:
                            if type(part := todo.pop()) is int:
                                todo += reversed(joins[part][2])
                            else:
                                sides.append(part)
                        joins[c][2] = sides
                        flat[b].append(c)
        else:
            pos[s] = neg[s] = {column[i]: 1} if op is Var else {}
    # f <= -1, or every side of a positive join at the root <= -1
    roots = joins[-1][2] if steps[-1][0] is Join else [pos[-1]]
    positive, keep = flat[0][::-1], {joins[c][0] for c in flat[1]}  # from the root down; the steps branching reads
    closed: list[Refutation] = []
    stack: list[dict[int, int]] = [{}]  # fixed negative joins: column -> side
    while stack:
        fixed = stack.pop()
        columns, forms, rhs = _system(roots, joins, fixed, positive)
        if (work := work + len(forms)) > 2 * budget:
            raise BudgetExceededError("search", work, budget)
        weights, y = _farkas(columns, forms, rhs, budget)
        if y is None:  # dense rows only for the refutation
            rows = _dense(columns, forms)
            if not check_farkas(rows, rhs, weights):
                raise SelfCheckError(f"self-check failed: weights {weights} do not refute branch {fixed}")
            closed.append(Refutation(tuple(map(tuple, rows)), tuple(rhs), tuple(weights)))
            continue
        # homogeneous but for b, so y_v / y_last's least integer multiple is feasible
        v = bisect.bisect(columns, -1)  # the variables' columns ~k come first
        point = {names[~c]: a for c, a in zip(columns[:v], y)}
        w, h = _layout(1, factor * max(map(abs, y[:v]), default=0))  # one lane: a is held as a + h
        values = run({name: a + h for name, a in point.items()}, w, h, keep)
        if values[-1] < h:
            return CounterExample(Valuation(1, {name: (Fraction(point.get(name, 0)),) for name in names}))
        # f is not negative here, so a free negative join's column lies above
        # its value (a fixed one's is substituted away); branch on the lowest
        # such column, side 0 first
        c = next((c for c, a in zip(columns[v:], y[v:]) if not joins[c][1] and a + h > values[joins[c][0]]), None)
        if c is None:
            raise SelfCheckError(f"self-check failed: feasible branch {fixed} has value {values[-1] - h} >= 0")
        stack += ({**fixed, c: k} for k in reversed(range(len(joins[c][2]))))
    return Valid(tuple(closed))


def decide_bal_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide BAL validity: the value must be identically zero.

    Compiles ``^+`` to ``\\/ 0`` and checks both ``t >= 0`` and
    ``-t >= 0``; a countermodel is any valuation with nonzero value.
    """
    postorder(f, "BAL")  # refuses a formula outside BAL
    term = pos_to_join(f)
    return _both(decide_valid(term, budget), lambda: decide_valid(Imp(term, Zero()), budget))


def decide_equal(f: Formula, g: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Valid iff f -> g and g -> f are both valid RL formulas."""
    return _both(decide_valid(Imp(f, g), budget), lambda: decide_valid(Imp(g, f), budget))


def _both(first: Verdict, second: Callable[[], Verdict]) -> Verdict:
    # the first countermodel, else VALID with the refutations of both
    if isinstance(first, CounterExample):
        return first
    verdict = second()
    return verdict if isinstance(verdict, CounterExample) else Valid(first.branches + verdict.branches)
