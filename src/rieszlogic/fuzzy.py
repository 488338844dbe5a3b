"""Bridge between the real line and the open unit interval.

The logistic map carries the one-dimensional model onto (0,1), where
min and max keep their meaning.  Real addition is carried along to

    T_R(a, b) = ab / (ab + (1-a)(1-b))

which is commutative, monotone and associative like a T-norm but fails
the identity law: T_R(a, 1) = 1 for every a > 0, and T_R is undefined
at the corners (0,1) and (1,0).  The Lukasiewicz T-norm
T_L(a, b) = max(0, a + b - 1) is provided for comparison.

This is the only module that uses floating point; everything on the
logic side stays exact.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .syntax import _check_int


class DomainError(ValueError):
    """Argument outside the operation's domain."""


def logistic(x: float) -> float:
    """1 / (1 + e^-x), strictly inside (0,1)."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    # avoid overflow in exp for large negative x
    e = math.exp(x)
    return e / (1.0 + e)


def logit(p: float) -> float:
    """Inverse of the logistic map; requires 0 < p < 1.

    Round-trip accuracy is limited by double rounding of p near the
    endpoints: the recoverable x is quantized in steps of roughly
    ulp(p) / (p (1-p)), so logit(logistic(x)) matches x to 1e-9 for
    |x| <= 16 and only to about 1e-3 by |x| = 30.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"logit requires 0 < p < 1, got {p}")
    return math.log(p) - math.log1p(-p)


def t_lukasiewicz(a: float, b: float) -> float:
    """max(0, a + b - 1) on the closed unit square.

    The identity law T(a, 1) = a is honored exactly: evaluating
    ``a + 1.0 - 1.0`` would round away the low bits of a small ``a``.
    """
    _require_unit(a, "a")
    _require_unit(b, "b")
    if b == 1.0:
        return a
    if a == 1.0:
        return b
    return max(0.0, a + b - 1.0)


def t_riesz(a: float, b: float) -> float:
    """ab / (ab + (1-a)(1-b)); addition seen through the logistic map.

    Defined on the closed unit square except the corners (0,1) and
    (1,0), where both numerator and denominator vanish.  On the edges
    a=1 or b=1 (other argument positive) the value is 1.
    """
    _require_unit(a, "a")
    _require_unit(b, "b")
    if (a == 0.0 and b == 1.0) or (a == 1.0 and b == 0.0):
        raise DomainError("t_riesz is undefined at (0,1) and (1,0)")
    if a == 1.0 or b == 1.0:
        return 1.0
    num = a * b
    return num / (num + (1.0 - a) * (1.0 - b))


def _require_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")


# ---------------------------------------------------------------------------
# grid emission for surface plots

GRID_HEADER = "a,b,value"


def iter_grid(op: str, resolution: int) -> Iterator[tuple[float, float, Optional[float]]]:
    """(a, b, value) over the closed unit square at the given resolution.

    ``op`` is ``"tl"`` or ``"tr"``, checked with the resolution at the
    call; undefined corners yield value None.
    """
    _check_int("resolution", resolution, 1)
    if op not in ("tl", "tr"):
        raise ValueError(f"unknown operation {op!r}")
    return _grid(op, resolution)


def _grid(op: str, n: int) -> Iterator[tuple[float, float, Optional[float]]]:
    for i in range(n + 1):
        a = i / n
        for j in range(n + 1):
            b = j / n
            if op == "tl":
                yield a, b, t_lukasiewicz(a, b)
            elif (i == 0 and j == n) or (i == n and j == 0):
                yield a, b, None
            else:
                yield a, b, t_riesz(a, b)


def _cell(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".17g")


def grid_lines(op: str, resolution: int) -> Iterator[str]:
    """CSV lines with their newlines, made one at a time: header ``a,b,value``,
    17 significant digits, empty cell for the undefined corners."""
    rows = iter_grid(op, resolution)  # raises for bad arguments before the header
    yield GRID_HEADER + "\n"
    yield from (f"{_cell(a)},{_cell(b)},{_cell(value)}\n" for a, b, value in rows)


def grid_csv(op: str, resolution: int) -> str:
    """The whole CSV text of ``grid_lines``."""
    return "".join(grid_lines(op, resolution))
