"""Term-document count vectors as a vector lattice.

Rows are terms, columns are contexts (for instance document ids), and
entries are nonnegative occurrence counts kept as exact rationals.
The componentwise order makes the rows a lattice: meet and join are the
componentwise minimum and maximum, and ``x <= y`` reads as a
distributional entailment (y occurs at least as often as x in every
context).

CSV input: the header row names the contexts (an optional leading label
cell is ignored); each following row is a term followed by its counts;
``--`` or an empty cell means zero.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .syntax import Record, _fraction

Vector = tuple[Fraction, ...]


class MatrixFormatError(Exception):
    """Malformed count matrix."""


class UnknownTermError(KeyError):
    """Term not present in the matrix."""

    def __str__(self) -> str:
        return f"unknown term {self.args[0]!r}"


class TermDocumentMatrix(Record):
    """Counts with one row per distinct term and one entry per context;
    any other shape raises ``MatrixFormatError``."""

    __slots__ = ("terms", "contexts", "counts")  # tuple[str, ...] twice, then one Vector per term

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if len(self.counts) != len(self.terms):
            raise MatrixFormatError(f"counts has length {len(self.counts)}, expected {len(self.terms)}")
        if len(set(self.terms)) < len(self.terms):
            raise MatrixFormatError(f"duplicate term {next(t for t, n in Counter(self.terms).items() if n > 1)!r}")
        for term, row in zip(self.terms, self.counts):
            if len(row) != len(self.contexts):
                raise MatrixFormatError(f"row {term!r} has length {len(row)}, expected {len(self.contexts)}")

    def row(self, term: str) -> Vector:
        try:
            return self.counts[self.terms.index(term)]
        except ValueError:
            raise UnknownTermError(term) from None

    def count(self, term: str, context: str) -> Fraction:
        try:
            return self.row(term)[self.contexts.index(context)]
        except ValueError:
            raise MatrixFormatError(f"unknown context {context!r}") from None


def load_matrix(text: str) -> TermDocumentMatrix:
    """The matrix in CSV text (module docstring), its rows kept in one dict by term,
    so linear in the terms; a malformed row raises ``MatrixFormatError``."""
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise MatrixFormatError("matrix needs a header row and at least one term row")
    header, data = rows[0], rows[1:]
    width = len(data[0])
    if len(header) == width:
        contexts = tuple(cell.strip() for cell in header[1:])
    elif len(header) == width - 1:
        contexts = tuple(cell.strip() for cell in header)
    else:
        raise MatrixFormatError("header length does not fit the data rows")
    counts: dict[str, Vector] = {}
    for lineno, row in enumerate(data, start=2):
        if len(row) != width:
            raise MatrixFormatError(f"row {lineno} has {len(row)} cells, expected {width}")
        term = row[0].strip()
        if not term:
            raise MatrixFormatError(f"row {lineno} has an empty term name")
        if term in counts:
            raise MatrixFormatError(f"duplicate term {term!r}")
        vec = []
        for cell in row[1:]:
            cell = cell.strip()
            try:
                value = Fraction(0) if cell in ("", "--") else _fraction(cell, "count")
            except (ValueError, OverflowError) as exc:  # a bad count, or past the digit bound
                raise MatrixFormatError(f"row {lineno}: {exc}") from None
            if value < 0:
                raise MatrixFormatError(f"row {lineno}: negative count {cell!r}")
            vec.append(value)
        counts[term] = tuple(vec)
    return TermDocumentMatrix(tuple(counts), contexts, tuple(counts.values()))


def load_word_counts() -> TermDocumentMatrix:
    """The fruit/computer occurrence fixture shipped with the package."""
    from importlib import resources

    text = (resources.files(__package__) / "data" / "word_document_counts.csv").read_text("utf-8")
    return load_matrix(text)


def meet(m: TermDocumentMatrix, t1: str, t2: str) -> Vector:
    """Componentwise minimum of the two term rows."""
    return tuple(min(a, b) for a, b in zip(m.row(t1), m.row(t2)))


def join(m: TermDocumentMatrix, t1: str, t2: str) -> Vector:
    """Componentwise maximum of the two term rows."""
    return tuple(max(a, b) for a, b in zip(m.row(t1), m.row(t2)))


def entails(m: TermDocumentMatrix, t1: str, t2: str) -> bool:
    """True iff t2 occurs at least as often as t1 in every context: no ``entails_witness``."""
    return entails_witness(m, t1, t2) is None


def entails_witness(m: TermDocumentMatrix, t1: str, t2: str) -> Optional[tuple[str, Fraction, Fraction]]:
    """Most violated context refuting entailment, or None.

    Returns (context, count1, count2) for the context with the largest
    excess count1 - count2 (earliest context on ties).
    """
    worst: Optional[tuple[str, Fraction, Fraction]] = None
    for context, a, b in zip(m.contexts, m.row(t1), m.row(t2)):
        if a > b and (worst is None or a - b > worst[1] - worst[2]):
            worst = (context, a, b)
    return worst


def cosine(m: TermDocumentMatrix, t1: str, t2: str) -> float:
    """Cosine of the angle between two nonzero term vectors, in [-1, 1],
    and in [0, 1] for counts.  Its square is computed exactly, so counts
    past the float range neither overflow nor round a norm to zero."""
    u, v = m.row(t1), m.row(t2)
    for term, row in ((t1, u), (t2, v)):
        if not any(row):
            raise ValueError(f"term {term!r} has the zero vector")
    dot = sum(a * b for a, b in zip(u, v))
    root = math.sqrt(dot * dot / (sum(a * a for a in u) * sum(b * b for b in v)))
    return math.copysign(root, -1 if dot < 0 else 1)  # dot's sign; float(dot) can overflow
