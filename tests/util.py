"""Shared helpers: seeded random formulas and valuations, a reference
evaluator and a reference fold."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from rieszlogic.syntax import Formula, Imp, Join, MetaVar, Pos, Var, ZERO, Zero, fold
from rieszlogic.semantics import Valuation


def limited(cpu_seconds: int):
    """A ``preexec_fn`` that caps the child's CPU time and its address space
    at 1 GiB, so a regression fails its test instead of exhausting the runner."""
    import resource

    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return apply


VAR_NAMES = ("a", "b", "c", "d")
#: the names of the decide-tail bench family (bench/gen.py's VARS6)
SIX_NAMES = VAR_NAMES + ("e", "f")


def _names(max_vars: int, names: tuple[str, ...] = VAR_NAMES) -> tuple[str, ...]:
    if max_vars > len(names):
        raise ValueError(f"max_vars={max_vars}, but there are only {len(names)} variable names")
    return names[:max_vars]


def random_rl_formula(
    rng: random.Random, max_connectives: int = 12, max_vars: int = 4, names: tuple[str, ...] = VAR_NAMES
) -> Formula:
    """Draws as bench/gen.py's ``rl_formula_text`` does; pass ``SIX_NAMES``
    and ``max_vars=6`` to draw over a-f."""
    names = _names(max_vars, names)

    def build(budget: int) -> Formula:
        if budget <= 0:
            return ZERO if rng.random() < 0.15 else Var(rng.choice(names))
        split = rng.randrange(budget)
        left, right = build(split), build(budget - 1 - split)
        return Imp(left, right) if rng.random() < 0.55 else Join(left, right)

    return build(rng.randint(1, max_connectives))


def random_bal_formula(rng: random.Random, max_connectives: int = 12, max_vars: int = 4) -> Formula:
    names = _names(max_vars)

    def build(budget: int) -> Formula:
        if budget <= 0:
            return Var(rng.choice(names))
        if rng.random() < 0.3:
            return Pos(build(budget - 1))
        split = rng.randrange(budget)
        return Imp(build(split), build(budget - 1 - split))

    return build(rng.randint(1, max_connectives))


def random_schema(rng: random.Random, max_connectives: int = 8) -> Formula:
    metas = ("PHI", "PSI", "CHI")

    def build(budget: int) -> Formula:
        if budget <= 0:
            r = rng.random()
            if r < 0.4:
                return MetaVar(rng.choice(metas))
            if r < 0.5:
                return ZERO
            return Var(rng.choice(VAR_NAMES))
        split = rng.randrange(budget)
        left, right = build(split), build(budget - 1 - split)
        return Imp(left, right) if rng.random() < 0.55 else Join(left, right)

    return build(rng.randint(1, max_connectives))


def random_valuation(rng: random.Random, names, dimension: int = 1, bound: int = 10) -> Valuation:
    return Valuation(
        dimension,
        {
            name: tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dimension))
            for name in names
        },
    )


def random_rational_valuation(rng: random.Random, names, dimension: int) -> Valuation:
    """Mixed-denominator coordinates of either sign; about one name in six
    is left unmapped, so it evaluates to zero."""
    return Valuation(
        dimension,
        {
            name: tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12))) for _ in range(dimension))
            for name in sorted(names)
            if rng.random() >= 1 / 6
        },
    )


def reference_eval(f: Formula, v: Valuation, system: str = "RL") -> tuple[Fraction, ...]:
    """Value of f at v by the evaluation clauses, one ``Fraction`` list per
    node: an evaluator that shares nothing with ``semantics`` but ``fold``."""
    rl = system == "RL"

    def leaf(g: Formula) -> list:
        if type(g) is Var:
            return list(v.vector(g.name))
        if type(g) is Zero and rl:
            return [Fraction(0)] * v.dimension
        raise TypeError(f"not a {system} formula: {g!r}")

    def imp(x: list, y: list) -> list:
        return [b - a for a, b in zip(x, y)]

    def join(x: list, y: list) -> list:
        return [max(a, b) for a, b in zip(x, y)]

    def pos(x: list) -> list:
        return [max(a, Fraction(0)) for a in x]

    return tuple(fold(f, leaf, imp, join if rl else None, None if rl else pos))


_EMIT = object()  # stack marker: the node below it has all children done


def reference_fold(f: Formula, leaf: Callable, imp: Callable, join: Optional[Callable], pos: Optional[Callable] = None):
    """``syntax.fold`` as a stack machine over the nodes themselves, which
    builds no program: the reference that ``fold`` and the walker are
    compared against.  Each distinct node (by identity) is evaluated once,
    in left-to-right postorder; a node whose operation is None is a leaf."""
    # an inner node goes back on the stack under _EMIT and its children;
    # when _EMIT comes off, the children's values top the value stack
    memo, values, stack = {}, [], [f]
    while stack:
        g = stack.pop()
        if g is _EMIT:
            g = stack.pop()
            if type(g) is Pos:
                value = pos(values.pop())
            else:
                right = values.pop()
                value = (imp if type(g) is Imp else join)(values.pop(), right)
            memo[id(g)] = value
        elif id(g) in memo:
            value = memo[id(g)]
        else:
            t = type(g)
            if t is Imp or (t is Join and join is not None):
                stack += (g, _EMIT, g.right, g.left)
                continue
            if t is Pos and pos is not None:
                stack += (g, _EMIT, g.inner)
                continue
            value = memo[id(g)] = leaf(g)
        values.append(value)
    return values[0]


def reference_program(f: Formula) -> tuple[tuple, ...]:
    """f's ``postorder`` program, built by one ``reference_fold``."""
    steps: list[tuple] = []

    def emit(op, i=None, j=None) -> int:
        steps.append((op, i, j))
        return len(steps) - 1

    reference_fold(f, lambda g: emit(type(g), getattr(g, "name", None)), *(partial(emit, op) for op in (Imp, Join, Pos)))
    return tuple(steps)
