"""Translations between RL and BAL.

The two logics describe the same models with different assertion modes:
an RL formula asserts its value is positive, a BAL formula asserts its
value is zero.  Consequently:

* an RL statement ``x`` becomes the single BAL statement
  ``(x -> 0) ^+`` (the negative part of x is zero);
* a BAL statement ``x`` becomes the pair of RL statements ``x`` and
  ``x -> 0`` (zero is the only vector that is positive both ways).

BAL has no ``0`` constant and no join, so the forward translation
encodes them:

* ``0`` is rendered as ``z -> z`` for the reserved variable ``z``;
  its value is the group zero under every valuation;
* ``x \\/ y`` is rendered through the lattice-group identity
  ``x \\/ y = x + (y - x)^+`` as ``((x -> y) ^+ -> (z -> z)) -> x``.
  The encoding is checked semantically (see check_equivalence and the
  test suite) rather than taken on faith.
"""

from __future__ import annotations

from .syntax import Formula, Imp, Pos, Record, Var, Zero, fold, pos_to_join, postorder, variables
# holds_rl and holds_bal stay attributes here, where callers have found them
from .semantics import Valuation, _sample, compile_scalar, holds_bal, holds_rl

#: variable reserved for the zero encoding in translated formulas
RESERVED_ZERO_VAR = "z"


class ReservedVariableError(Exception):
    """The input formula uses the variable reserved for the translation."""


class RlPair(Record):
    """The two RL statements equivalent to one BAL statement."""

    __slots__ = ("first", "second")  # formulas; second is always first -> 0

    def __init__(self, first: Formula, second: Formula):
        if second != Imp(first, Zero()):
            raise ValueError("second component must be first -> 0")
        super().__init__(first, second)


def rl_to_bal(f: Formula) -> Formula:
    """BAL statement equivalent to the RL statement f, as ``(T(f) -> 0)^+``."""
    if RESERVED_ZERO_VAR in variables(f):
        raise ReservedVariableError(
            f"formula uses the reserved variable {RESERVED_ZERO_VAR!r}"
        )
    postorder(f)  # refuses a formula outside RL
    z = Var(RESERVED_ZERO_VAR)
    zero = Imp(z, z)

    def join(left: Formula, right: Formula) -> Formula:
        # x \/ y = x + (y - x)^+, written with -> and ^+ only
        return Imp(Imp(Pos(Imp(left, right)), zero), left)

    return Pos(Imp(fold(f, lambda g: zero if type(g) is Zero else g, Imp, join), zero))


def bal_to_rl(f: Formula) -> RlPair:
    """The pair of RL statements equivalent to the BAL statement f."""
    postorder(f, "BAL")  # refuses a formula outside BAL
    first = pos_to_join(f)
    return RlPair(first, Imp(first, Zero()))


class EquivalenceReport(Record):
    __slots__ = ("trials", "discrepancy")  # int; the lowest failing (trial, Valuation), if any

    @property
    def agreed(self) -> bool:
        return self.discrepancy is None


def check_equivalence(
    f: Formula,
    trials: int = 1000,
    seed: int = 0,
    dimension: int = 1,
    bound: int = 10,
) -> EquivalenceReport:
    """Sample valuations and compare holds_rl(f) with holds_bal(rl_to_bal(f)).

    Trials are drawn by ``semantics._sample``, as in ``random_falsify``; f is checked first.
    """
    _, bal_factor, bal = compile_scalar(rl_to_bal(f), "BAL")  # the reserved variable, then the language
    names, rl_factor, rl = compile_scalar(f, "RL")
    found = _sample(names, max(rl_factor, bal_factor), [(rl, True), (bal, False)], trials, dimension, seed, bound)
    return EquivalenceReport(trials, found)
