"""Models and evaluation.

A model is the additive group of rational n-vectors under the
componentwise order, which is a lattice order.  All arithmetic is exact
(``fractions.Fraction``); no floating point enters the logic side.

A valuation assigns a vector to each variable; unmapped variables
evaluate to the zero vector, so every valuation is total.

Evaluation clauses:

* a variable evaluates to its assigned vector,
* ``0`` evaluates to the zero vector,
* ``x -> y`` evaluates to ``value(y) - value(x)``,
* ``x \\/ y`` evaluates to the componentwise maximum,
* BAL ``x ^+`` evaluates to the componentwise maximum with zero.

An RL formula holds under a valuation when every coordinate of its
value is >= 0; a BAL formula holds when every coordinate equals 0.

Coordinates are independent under every connective, so one fold over
the formula (``syntax.fold``) evaluates whole columns of points: all
coordinates of a valuation, or a batch of falsifier trials.  The
falsifier folds the formula once, into a ``syntax.postorder`` program,
and replays that for each batch.  No code is generated.

The falsifier and ``bridge.check_equivalence`` draw their trials from one
seeded stream: the values ``random.Random(seed).randrange(2*bound+1) - bound``
would give, in the order trial, sorted variable name, coordinate.  They
are read from the generator in bulk, many 32-bit outputs per call, with
``randrange``'s own rejection of values past the span; spans wider than
32 bits call ``randrange`` itself.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .syntax import _VAR_NAME, Formula, Imp, Join, MetaVar, Var, Zero, fold, postorder

Vector = tuple[Fraction, ...]


class ValuationError(Exception):
    """Malformed valuation (bad dimension or unparsable text)."""


def vector(*coords) -> Vector:
    """Build an exact vector from ints, strings or Fractions."""
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True)
class Valuation:
    """Assignment of rational n-vectors to variable names."""

    dimension: int
    assignment: Mapping[str, Vector] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValuationError("dimension must be >= 1")
        # detach from the caller's mapping; bindings are fixed at construction
        object.__setattr__(self, "assignment", dict(self.assignment))
        for name, vec in self.assignment.items():
            if len(vec) != self.dimension:
                raise ValuationError(
                    f"vector for {name!r} has length {len(vec)}, expected {self.dimension}"
                )

    def vector(self, name: str) -> Vector:
        zero = (Fraction(0),) * self.dimension
        return self.assignment.get(name, zero)

    def scale(self, factor: Fraction) -> "Valuation":
        return Valuation(
            self.dimension,
            {name: tuple(factor * c for c in vec) for name, vec in self.assignment.items()},
        )


_ZERO = Fraction(0)


def _imp(left: Sequence, right: Sequence) -> list:
    return [b - a for a, b in zip(left, right)]


def _join(left: Sequence, right: Sequence) -> list:
    return [a if a >= b else b for a, b in zip(left, right)]


def _pos(inner: Sequence) -> list:
    return [c if c >= _ZERO else _ZERO for c in inner]


def _reject(g: Formula, rl: bool = True) -> None:
    """Raise the TypeError for a node the RL (or BAL) evaluator cannot take."""
    if type(g) is MetaVar:
        raise TypeError(f"cannot evaluate schema metavariable {g.name!r}")
    raise TypeError(f"not {'an RL' if rl else 'a BAL'} formula: {g!r}")


def _pointwise(f: Formula, column: Callable[[str], Sequence], zeros: Sequence, system: str) -> Sequence:
    """Value of the RL or BAL formula f at many points, one entry per point.

    ``column(name)`` gives a variable's values and ``zeros`` the value of
    ``0``; connectives act entry by entry.
    """
    rl = system == "RL"

    def leaf(g: Formula) -> Sequence:
        if type(g) is Var:
            return column(g.name)
        if type(g) is Zero and rl:
            return zeros
        _reject(g, rl)

    return fold(f, leaf, _imp, _join if rl else None, None if rl else _pos)


def _replay(steps: Sequence[tuple], column: Callable[[str], Sequence], zeros: Sequence) -> list:
    """Values of every step of a ``syntax.postorder`` program, entry by
    entry as in ``_pointwise``; the root's value is the last."""
    values: list = []
    push = values.append
    for op, i, j in steps:
        if op is Imp:
            push(_imp(values[i], values[j]))
        elif op is Join:
            push(_join(values[i], values[j]))
        else:
            push(column(i) if op is Var else zeros)
    return values


def eval_rl(f: Formula, v: Valuation) -> Vector:
    """Value of an RL formula as a vector of exact rationals."""
    return tuple(_pointwise(f, v.vector, (_ZERO,) * v.dimension, "RL"))


def eval_bal(f: Formula, v: Valuation) -> Vector:
    """Value of a BAL formula; ``x ^+`` takes the positive part."""
    return tuple(_pointwise(f, v.vector, (_ZERO,) * v.dimension, "BAL"))


def holds_rl(f: Formula, v: Valuation) -> bool:
    """True iff every coordinate of the value is >= 0."""
    return all(c >= 0 for c in eval_rl(f, v))


def holds_bal(f: Formula, v: Valuation) -> bool:
    """True iff every coordinate of the value equals 0."""
    return all(c == 0 for c in eval_bal(f, v))


@dataclass(frozen=True)
class EvalResult:
    value: Vector
    holds: bool


def evaluate(f: Formula, v: Valuation, system: str = "RL") -> EvalResult:
    """Evaluate under either reading and report value plus holds flag."""
    if system not in ("RL", "BAL"):
        raise ValueError(f"unknown system {system!r}")
    value = tuple(_pointwise(f, v.vector, (_ZERO,) * v.dimension, system))
    return EvalResult(value, all(c >= 0 if system == "RL" else c == 0 for c in value))


# ---------------------------------------------------------------------------
# randomized falsifier

#: most falsifier trials per pass; passes double from one trial up to it
_MAX_CHUNK = 128


def compile_scalar(f: Formula) -> tuple[tuple[str, ...], Callable[[Sequence[Sequence]], Sequence]]:
    """Evaluator of an RL formula at many scalar points at once.

    Returns the sorted variable names and a function that takes one column
    of numbers per name, all of one length (entry i of each is point i),
    and returns the column of values.  The formula is folded once, into a
    ``syntax.postorder`` program, which each call replays on its columns;
    no code is generated.
    """
    steps = postorder(f, _reject)
    names = tuple(sorted({i for op, i, _ in steps if op is Var}))

    def fn(columns: Sequence[Sequence]) -> Sequence:
        zeros = [0] * (len(columns[0]) if columns else 1)
        return _replay(steps, dict(zip(names, columns)).__getitem__, zeros)[-1]

    return names, fn


def _draws(seed: int, bound: int) -> Callable[[int], list[int]]:
    """``take(n)``: the next n values of ``rng.randrange(2*bound+1) - bound``
    for a private ``rng = random.Random(seed)``.

    For a span of k <= 32 bits, ``randrange`` keeps the top k bits of one
    32-bit Mersenne Twister output when they fall below the span and
    draws again otherwise.  ``take`` reads those outputs in bulk
    (``getrandbits(32*m)`` holds m consecutive outputs, the first in the
    lowest bits) and applies the same rejection, so it returns the same
    values; what a read leaves over is kept for the next call.  Wider
    spans call ``randrange`` itself.
    """
    if not isinstance(bound, int) or bound < 0:
        raise ValueError(f"bound must be an int >= 0, not {bound!r}")
    rng = random.Random(seed)
    span = 2 * bound + 1
    bits = span.bit_length()
    if bits > 32:
        return lambda n: [rng.randrange(span) - bound for _ in range(n)]
    shift = 32 - bits
    limit = span << shift  # w >> shift < span  iff  w < limit
    pending: list[int] = []

    def take(n: int) -> list[int]:
        nonlocal pending
        while len(pending) < n:
            # enough outputs, on average, for the shortfall
            m = ((n - len(pending)) << bits) // span + 1
            words = struct.unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
            pending += [(w >> shift) - bound for w in words if w < limit]
        taken, pending = pending[:n], pending[n:]
        return taken

    return take


def _check_dimension(dimension: int) -> None:
    if not isinstance(dimension, int) or dimension < 1:
        raise ValueError(f"dimension must be an int >= 1, not {dimension!r}")


def _valuation(names: Sequence[str], row: Sequence[int], dimension: int) -> Valuation:
    """The valuation giving the i-th name the coordinates ``row[i*dimension:(i+1)*dimension]``."""
    vectors = [tuple(map(Fraction, row[s : s + dimension])) for s in range(0, len(row), dimension)]
    return Valuation(dimension, dict(zip(names, vectors)))


def random_falsify(
    f: Formula,
    trials: int,
    dimension: int = 1,
    seed: int = 0,
    bound: int = 10,
) -> Optional[Valuation]:
    """Search for a valuation falsifying an RL formula.

    Samples integer coordinates uniformly from [-bound, bound], trial by
    trial, then by sorted variable name, then by coordinate.  The values
    are those of ``random.Random(seed).randrange(2*bound+1) - bound``,
    read from the generator 32-bit words at a time (``randrange`` itself
    when the span is wider than 32 bits).  Returns the valuation from the
    lowest-index successful trial, or None.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_dimension(dimension)
    take = _draws(seed, bound)
    names, fn = compile_scalar(f)
    width = len(names) * dimension  # values per trial
    starts = range(0, width, dimension)  # each name's first coordinate in a trial
    done, chunk = 0, 1
    while done < trials:
        size = min(chunk, trials - done)
        # entry t * width + s + k is coordinate k, in trial t, of the name starting at s
        flat = take(size * width)
        columns = [flat[s::width] for s in starts]
        for k in range(1, dimension):
            for column, s in zip(columns, starts):
                column += flat[s + k :: width]
        # entry k * size + t of a value column is coordinate k of trial t
        values = fn(columns)
        if min(values) < 0:
            t = min(j % size for j, value in enumerate(values) if value < 0)
            return _valuation(names, flat[t * width : (t + 1) * width], dimension)
        done += size
        chunk = min(2 * chunk, _MAX_CHUNK)
    return None


# ---------------------------------------------------------------------------
# valuation text format: one binding per line, `var = (r1, r2, ..., rn)`

def parse_valuation(text: str) -> Valuation:
    assignment: dict[str, Vector] = {}
    dimension: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValuationError(f"line {lineno}: expected `var = (r1, ..., rn)`")
        name, _, rhs = line.partition("=")
        name, rhs = name.strip(), rhs.strip()
        if not _VAR_NAME.fullmatch(name):
            raise ValuationError(f"line {lineno}: bad variable name {name!r}")
        if not (rhs.startswith("(") and rhs.endswith(")")):
            raise ValuationError(f"line {lineno}: vector must be parenthesized")
        body = rhs[1:-1].strip()
        if not body:
            raise ValuationError(f"line {lineno}: empty vector")
        try:
            vec = tuple(Fraction(part.strip()) for part in body.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"line {lineno}: {exc}") from None
        if name in assignment:
            raise ValuationError(f"line {lineno}: duplicate binding for {name!r}")
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise ValuationError(
                f"line {lineno}: vector length {len(vec)} != dimension {dimension}"
            )
        assignment[name] = vec
    if dimension is None:
        raise ValuationError("no bindings found")
    return Valuation(dimension, assignment)


def format_vector(vec: Iterable[Fraction]) -> str:
    return "(" + ", ".join(str(c) for c in vec) + ")"


def format_valuation(v: Valuation) -> str:
    lines = [f"{name} = {format_vector(vec)}" for name, vec in sorted(v.assignment.items())]
    return "\n".join(lines)
