"""Shared helpers: seeded random formulas and valuations, and a reference
evaluator."""

from __future__ import annotations

import random
from fractions import Fraction

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
