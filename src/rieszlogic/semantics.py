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

Coordinates are independent under every connective, so an evaluator replays
the formula's ``syntax.postorder`` program once over many numbers packed into
one int (Lamport, "Multiple byte processing with full-word instructions",
1975): a valuation's coordinates, scaled by the lcm of their denominators, or
those of a pass of falsifier trials.  Each lane is ``w + 1`` bits and holds
``v + h``, one offset for every step: ``h = 2^(w-1)`` exceeds a static bound
on every step's magnitude (the largest coordinate for a variable, 0 for ``0``,
the children's sum for ``->`` and their max for ``\\/`` and ``^+``), so no
lane carries into the next.  With ``H`` holding h in every lane, ``0`` is
``H``, ``x -> y`` is ``Y - X + H``, and ``x \\/ y`` picks lanes by the guard
bit ``w`` of ``(X | G) - Y``, ``G = 2H``; a value is negative when bit ``w-1``
of its lane is clear, all that ``holds_*`` read.  One coordinate's lane is the
int ``v + h``; more go through bytes, packed and unpacked in linear time.

The falsifier and ``bridge.check_equivalence`` call one sampling function,
``_sample``, which draws their trials from one seeded stream: the values
``random.Random(seed).randrange(2*bound+1) - bound`` would give, in the order
trial, sorted variable name, coordinate.  ``_draws`` reads them in bulk when
the span fits a byte, and such draws fill lanes by slice assignment.  A pass
reads its flags back one coordinate block at a time, linear in the dimension.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Container, Iterable, Mapping, Optional, Sequence

from .syntax import _LANGUAGES, _MAX_DIGITS, _VAR_NAME, Formula, Imp, Record, Var, Zero, _fraction, memo, postorder
from .syntax import _check_int, _is_int

Vector = tuple[Fraction, ...]


class ValuationError(Exception):
    """Malformed valuation (bad dimension or coordinate, or unparsable text)."""


def vector(*coords) -> Vector:
    """Build an exact vector from ints, strings or Fractions."""
    return tuple(Fraction(c) for c in coords)


class Valuation(Record):
    """Assignment of rational n-vectors to variable names."""

    __slots__ = ("dimension", "assignment")

    def __init__(self, dimension: int, assignment: Mapping[str, Vector] = {}):  # copied, never mutated
        _check_int("dimension", dimension, 1, ValuationError)
        # detach from the caller's mapping; bindings are fixed at construction
        super().__init__(dimension, dict(assignment))
        for name, vec in self.assignment.items():
            if len(vec) != dimension:
                raise ValuationError(f"vector for {name!r} has length {len(vec)}, expected {dimension}")
            for c in vec:
                if not (isinstance(c, Fraction) or _is_int(c)):
                    raise ValuationError(f"vector for {name!r} has coordinate {c!r}, not an int or a Fraction")

    def vector(self, name: str) -> Vector:
        return self.assignment.get(name) or (Fraction(0),) * self.dimension

    def scale(self, factor: Fraction) -> "Valuation":
        return Valuation(
            self.dimension,
            {name: tuple(factor * c for c in vec) for name, vec in self.assignment.items()},
        )


def _layout(lanes: int, magnitude: int) -> tuple[int, int]:
    """``(w, H)``: ``lanes`` lanes of ``w + 1`` bits, whole bytes, for values
    at most ``magnitude`` in absolute value; H has ``h = 2^(w-1)`` in each."""
    size = (magnitude.bit_length() + 9) // 8
    return 8 * size - 1, int.from_bytes(b"\1".ljust(size, b"\0") * lanes, "little") << (8 * size - 2)


def _fails(value: int, H: int, rl: bool = True) -> int:
    """Bit ``w-1`` of each lane where an RL value is negative, or a BAL one nonzero."""
    return H & ~(value if rl else value & ((H << 1) - value))


@memo
def compile_scalar(f: Formula, system: str) -> tuple:
    """The sorted variable names and the factor that bounds every step by the
    largest coordinate, both found in one pass, and ``run(lanes, w, H, keep=())``:
    from each name's int of lanes (absent: H; one coordinate: the int ``v + h``),
    the ``postorder`` steps' values, each lane holding ``v + h``, the root's
    last.  A value is dropped after its last use unless its step is kept."""
    steps = postorder(f, system)
    factors, last, names = [0] * len(steps), [None] * len(steps), []  # each step's factor and last user
    for s, (op, i, j) in enumerate(steps):
        if op is Imp:
            factors[s] = factors[i] + factors[j]
            last[i] = last[j] = s
        elif op is Var:
            factors[s] = 1
            names.append(i)
        elif op is not Zero:  # x ^+ is x \/ 0, bounded like x
            k = i if j is None else j
            factors[s] = factors[i] if factors[i] > factors[k] else factors[k]
            last[i] = last[k] = s

    def run(lanes: Mapping[str, int], w: int, H: int, keep: Container[int] = ()) -> list:
        G, values = H << 1, [None] * len(steps)
        for s, (op, i, j) in enumerate(steps):
            if op is Imp:
                value = values[j] - values[i] + H
            elif op is Var:
                value = lanes.get(i, H)
            elif op is Zero:
                value = H
            else:  # the larger of a and b: where the guard bit of (a | G) - b stays set, a
                a, b = values[i], H if j is None else values[j]
                t = (((a | G) - b) & G) >> w
                value = b ^ ((a ^ b) & ((t << w) - t))
            values[s] = value
            if op is not Var and op is not Zero:
                for k in (i, i if j is None else j):
                    if last[k] == s and k not in keep:
                        values[k] = None
        return values

    return tuple(sorted(names)), factors[-1], run


def _exact(f: Formula, v: Valuation, system: str) -> tuple[int, int, int, int, int]:
    """``(value, H, h, size, scale)``: f's value at v, on ``size``-byte lanes of the
    coordinates v binds times ``scale``, their denominators' lcm; see the module docstring."""
    names, factor, run = compile_scalar(f, system)
    bound = [name for name in names if name in v.assignment]
    parts = [c.as_integer_ratio() for name in bound for c in v.assignment[name]]  # each read once
    scale = math.lcm(*[d for _, d in parts])
    ints = [n * (scale // d) for n, d in parts]
    w, H = _layout(v.dimension, factor * max(map(abs, ints), default=0))
    h, size = 1 << (w - 1), (w + 1) // 8
    if v.dimension == 1:  # the lane is an int, with no bytes round trip
        lanes = {name: x + h for name, x in zip(bound, ints)}
    else:  # through bytes, linear in the dimension; a shift per coordinate is quadratic
        data, row = b"".join((x + h).to_bytes(size, "little") for x in ints), size * v.dimension
        lanes = {name: int.from_bytes(data[k * row : (k + 1) * row], "little") for k, name in enumerate(bound)}
    return run(lanes, w, H)[-1], H, h, size, scale


def eval_rl(f: Formula, v: Valuation) -> Vector:
    """Value of an RL formula as a vector of exact rationals."""
    return evaluate(f, v, "RL").value


def eval_bal(f: Formula, v: Valuation) -> Vector:
    """Value of a BAL formula; ``x ^+`` takes the positive part."""
    return evaluate(f, v, "BAL").value


def holds_rl(f: Formula, v: Valuation) -> bool:
    """True iff every coordinate of the value is >= 0; builds no vector."""
    return not _fails(*_exact(f, v, "RL")[:2])


def holds_bal(f: Formula, v: Valuation) -> bool:
    """True iff every coordinate of the value equals 0; builds no vector."""
    return not _fails(*_exact(f, v, "BAL")[:2], False)


class EvalResult(Record):
    __slots__ = ("value", "holds")  # Vector, bool


def evaluate(f: Formula, v: Valuation, system: str = "RL") -> EvalResult:
    """Evaluate under either reading and report value plus holds flag."""
    if system not in _LANGUAGES:
        raise ValueError(f"unknown system {system!r}")
    value, H, h, size, scale = _exact(f, v, system)
    data = value.to_bytes(size * v.dimension, "little")  # one slice per lane: linear in the dimension
    coords = (int.from_bytes(data[k : k + size], "little") - h for k in range(0, len(data), size))
    return EvalResult(tuple(Fraction(x, scale) for x in coords), not _fails(value, H, system == "RL"))


# ---------------------------------------------------------------------------
# randomized falsifier

#: most falsifier trials per pass; passes grow fourfold from 8 trials up to it
_MAX_CHUNK = 512
#: ``_TOP_BITS[k][b]`` is the top k bits of the byte b
_TOP_BITS = [bytes(b >> (8 - k) for b in range(256)) for k in range(9)]
#: most 32-bit outputs one ``getrandbits`` read of ``_draws`` holds
_READ = 1 << 16


def _draws(seed: int, bound: int) -> Callable[[int], Sequence[int]]:
    """``take(n)``: the next n values of ``rng.randrange(2*bound+1)`` for a
    private ``rng = random.Random(seed)``, as bytes when the span fits a byte.

    For a span of k <= 8 bits, ``randrange`` keeps the top k bits of one
    32-bit Mersenne Twister output if they fall below the span, else
    draws again.  ``take`` reads the outputs in bulk (``getrandbits(32*m)``
    holds m of them, the first lowest), at most ``_READ`` of them a read,
    rejects alike on their top bytes and joins the kept bytes once; what
    the reads leave over is kept for the next call.  Outputs are used in
    order whatever a read's size.  A wider span calls ``randrange`` itself.
    """
    _check_int("bound", bound, 0)
    rng, span = random.Random(seed), 2 * bound + 1
    bits = span.bit_length()
    if bits > 8:
        return lambda n: [rng.randrange(span) for _ in range(n)]
    reject = bytes(range(span << (8 - bits), 256))  # top bytes whose top bits reach the span
    pending = b""

    def take(n: int) -> bytes:
        nonlocal pending
        kept, have = [pending], len(pending)
        while have < n:
            m = min(((n - have) << bits) // span + 1, _READ)  # enough outputs on average, at most _READ
            kept.append(rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(_TOP_BITS[bits], reject))
            have += len(kept[-1])
        pending = b"".join(kept)
        taken, pending = pending[:n], pending[n:]
        return taken

    return take


def _sample(
    names: Sequence[str], factor: int, checks: Sequence[tuple], trials: int, dimension: int, seed: int, bound: int
) -> Optional[tuple[int, Valuation]]:
    """The one sampler, which ``random_falsify`` and ``bridge.check_equivalence`` share:
    the lowest trial, and its valuation, where an odd number of ``checks`` (``(run, rl)``)
    fail, or None.  A pass of n trials puts coordinate k of trial t in lane k*n + t, and
    its flags are read one coordinate block at a time, linear in the dimension."""
    _check_int("trials", trials, 1)
    _check_int("dimension", dimension, 1)
    take = _draws(seed, bound)
    width = len(names) * dimension  # values per trial
    done, chunk = 0, 8
    while done < trials:
        size = min(chunk, trials - done)
        w, H = _layout(size * dimension, factor * bound)
        lane, block = (w + 1) // 8, size * (w + 1) // 8  # bytes per lane and per coordinate
        # entry t * width + n * dimension + k is coordinate k, in trial t, of name n
        flat = take(size * width)
        wide = not isinstance(flat, bytes)
        buf, lanes, offset = bytearray(dimension * block), {}, H - bound * (H >> (w - 1))
        for n, name in enumerate(names):
            for k in range(dimension):
                column = flat[n * dimension + k :: width]
                if wide:
                    column = b"".join(d.to_bytes(lane, "little") for d in column)
                buf[k * block : (k + 1) * block : 1 if wide else lane] = column
            lanes[name] = int.from_bytes(buf, "little") + offset  # d - bound + h
        failed = 0
        for run, rl in checks:  # fold each check's lane flags into its trials' first lanes
            data = _fails(run(lanes, w, H)[-1], H, rl).to_bytes(dimension * block, "little")
            failed ^= reduce(or_, (int.from_bytes(data[k : k + block], "little") for k in range(0, len(data), block)))
        if failed:
            t = ((failed & -failed).bit_length() - 1) // (w + 1)
            row = [Fraction(d - bound) for d in flat[t * width : (t + 1) * width]]
            vectors = (tuple(row[s : s + dimension]) for s in range(0, width, dimension))
            return done + t, Valuation(dimension, dict(zip(names, vectors)))
        done += size
        chunk = min(4 * chunk, _MAX_CHUNK)
    return None


def random_falsify(
    f: Formula, trials: int, dimension: int = 1, seed: int = 0, bound: int = 10
) -> Optional[Valuation]:
    """Search for a valuation falsifying an RL formula.

    Samples integer coordinates uniformly from [-bound, bound], trial by
    trial, then by sorted variable name, then by coordinate.  The values
    are those of ``random.Random(seed).randrange(2*bound+1) - bound``,
    read from the generator in bulk (module docstring).  Returns the
    valuation from the lowest-index successful trial, or None.
    Deterministic for a fixed seed.
    """
    names, factor, run = compile_scalar(f, "RL")
    found = _sample(names, factor, [(run, True)], trials, dimension, seed, bound)
    return None if found is None else found[1]


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
            vec = tuple(_fraction(part.strip(), "coordinate") for part in body.split(","))
        except (ValueError, OverflowError) as exc:  # a bad coordinate, or past the digit bound
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
    """``(c1, ..., cn)``; a numerator or denominator past ``_MAX_DIGITS``
    digits is refused with ``ValueError`` before any is converted."""
    vec = tuple(vec)
    for c in vec:
        for part, n in (("numerator", abs(c.numerator)), ("denominator", c.denominator)):
            if n.bit_length() > 3 * _MAX_DIGITS and n >= 10**_MAX_DIGITS:  # 2**(3d) < 10**d
                raise ValueError(f"a coordinate has a {part} of more than {_MAX_DIGITS} digits")
    return "(" + ", ".join(str(c) for c in vec) + ")"


def format_valuation(v: Valuation) -> str:
    lines = [f"{name} = {format_vector(vec)}" for name, vec in sorted(v.assignment.items())]
    return "\n".join(lines)
