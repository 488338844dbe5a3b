"""Formula ASTs, concrete grammar, substitution and schema matching.

Two object languages share one node algebra:

* RL formulas are built from variables, ``0``, ``->`` and ``\\/``.
  Surface sugar (``^+``, ``~``, ``(+)``, ``/\\``) is expanded at parse
  time, so an RL AST never contains a ``Pos`` node.
* BAL formulas are built from variables, ``->`` and postfix ``^+``
  (the ``Pos`` node); ``0`` and ``\\/`` are not in the language.

Schema formulas additionally allow metavariables, written as uppercase
identifiers, which stand for arbitrary formulas of the same language.

Grammar (ASCII only, ``#`` starts a comment):

    formula := imp
    imp     := join (("->" | "(+)") imp)?      right associative
    join    := post (("\\/" | "/\\") post)*    left associative
    post    := atom ("^+")*
    atom    := "0" | var | "~" atom | "(" formula ")"

``(+)`` sits at the precedence of ``->``, ``/\\`` at the precedence of
``\\/``.  Object variables match ``[a-z][a-zA-Z0-9_]*``, metavariables
``[A-Z][a-zA-Z0-9_]*``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union


class FormulaError(Exception):
    """Base class for errors raised by this module."""


class ParseError(FormulaError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


class SubstitutionError(FormulaError):
    """A schema metavariable has no binding in the substitution."""


class Formula:
    """Base class of all formula nodes.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Zero(Formula):
    pass


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Join(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Pos(Formula):
    inner: Formula


@dataclass(frozen=True)
class MetaVar(Formula):
    name: str


ZERO = Zero()

#: substitution: metavariable name -> formula
Substitution = dict[str, Formula]


# ---------------------------------------------------------------------------
# tokenizer

_OPERATORS = ("->", "(+)", "\\/", "/\\", "^+", "~", "(", ")", "0")


@dataclass(frozen=True)
class _Token:
    kind: str  # operator text, "var", "meta" or "end"
    text: str
    offset: int


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                yield _Token(op, op, i)
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if c.isalpha() and c.isascii():
            j = i + 1
            while j < n and (text[j].isalnum() and text[j].isascii() or text[j] == "_"):
                j += 1
            name = text[i:j]
            yield _Token("meta" if c.isupper() else "var", name, i)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, frozenset(_OPERATORS + ("variable",)))
    yield _Token("end", "", n)


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str, lang: str, schema: bool):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.lang = lang
        self.schema = schema

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, expected: frozenset[str]) -> ParseError:
        tok = self.cur
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"unexpected {what}", tok.offset, expected)

    def parse(self) -> Formula:
        f = self.imp()
        if self.cur.kind != "end":
            raise self.fail(frozenset({"end of input"}))
        return f

    def imp(self) -> Formula:
        left = self.join()
        if self.cur.kind == "->":
            self.advance()
            return Imp(left, self.imp())
        if self.cur.kind == "(+)":
            if self.lang == "bal":
                raise self.fail(frozenset({"->", "end of input"}))
            self.advance()
            # x (+) y  ==  (x -> 0) -> y
            return Imp(Imp(left, ZERO), self.imp())
        return left

    def join(self) -> Formula:
        left = self.post()
        while self.cur.kind in ("\\/", "/\\"):
            if self.lang == "bal":
                raise self.fail(frozenset({"->", "end of input"}))
            op = self.advance().kind
            right = self.post()
            if op == "\\/":
                left = Join(left, right)
            else:
                # x /\ y  ==  ((x -> 0) \/ (y -> 0)) -> 0
                left = Imp(Join(Imp(left, ZERO), Imp(right, ZERO)), ZERO)
        return left

    def post(self) -> Formula:
        f = self.atom()
        while self.cur.kind == "^+":
            self.advance()
            if self.lang == "bal":
                f = Pos(f)
            else:
                # x ^+  ==  x \/ 0
                f = Join(f, ZERO)
        return f

    def atom(self) -> Formula:
        tok = self.cur
        if tok.kind == "0":
            if self.lang == "bal":
                raise self.fail(self._atom_expected())
            self.advance()
            return ZERO
        if tok.kind == "var":
            self.advance()
            return Var(tok.text)
        if tok.kind == "meta":
            if not self.schema:
                raise ParseError(
                    f"metavariable {tok.text!r} not allowed outside schemas",
                    tok.offset,
                    self._atom_expected(),
                )
            self.advance()
            return MetaVar(tok.text)
        if tok.kind == "~":
            if self.lang == "bal":
                raise self.fail(self._atom_expected())
            self.advance()
            # ~x  ==  x -> 0
            return Imp(self.atom(), ZERO)
        if tok.kind == "(":
            self.advance()
            f = self.imp()
            if self.cur.kind != ")":
                raise self.fail(frozenset({")"}))
            self.advance()
            return f
        raise self.fail(self._atom_expected())

    def _atom_expected(self) -> frozenset[str]:
        base = {"variable", "("}
        if self.schema:
            base.add("metavariable")
        if self.lang == "rl":
            base.update({"0", "~"})
        return frozenset(base)


def parse_rl(text: str) -> Formula:
    """Parse an RL formula; all sugar is expanded to ->, \\/ and 0."""
    return _Parser(text, "rl", schema=False).parse()


def parse_bal(text: str) -> Formula:
    """Parse a BAL formula; only ->, postfix ^+ and variables are allowed."""
    return _Parser(text, "bal", schema=False).parse()


def parse_rl_schema(text: str) -> Formula:
    """Parse an RL schema formula (uppercase tokens are metavariables)."""
    return _Parser(text, "rl", schema=True).parse()


def parse_bal_schema(text: str) -> Formula:
    """Parse a BAL schema formula."""
    return _Parser(text, "bal", schema=True).parse()


def parse_schema(text: str, system: str) -> Formula:
    if system == "RL":
        return parse_rl_schema(text)
    if system == "BAL":
        return parse_bal_schema(text)
    raise ValueError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# structural recursion

_EMIT = object()  # stack marker: the node below it has all children done


def fold(f: Formula, leaf: Callable, imp: Callable, join: Optional[Callable], pos: Optional[Callable] = None):
    """Value of f in the algebra (leaf, imp, join, pos), computed bottom-up
    without recursion; each distinct node (by identity) is evaluated once.

    ``Imp``, ``Join`` and ``Pos`` nodes map to ``imp``, ``join`` and ``pos``
    of their children's values.  Any other node, or one whose operation is
    None, maps to ``leaf(node)``, which raises for nodes the algebra does
    not accept.  Nodes are evaluated in left-to-right postorder, so errors
    surface in the order a recursive evaluator would raise them.
    """
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


def _same(g: Formula) -> Formula:
    return g


def _ignore(*_) -> None:
    return None


# ---------------------------------------------------------------------------
# printer

_LEVEL_IMP, _LEVEL_JOIN, _LEVEL_POS, _LEVEL_ATOM = 0, 1, 2, 3


def _paren(part: tuple[str, int], min_level: int) -> str:
    text, level = part
    return f"({text})" if level < min_level else text


def _print_leaf(g: Formula) -> tuple[str, int]:
    if type(g) is Var or type(g) is MetaVar:
        return g.name, _LEVEL_ATOM
    if type(g) is Zero:
        return "0", _LEVEL_ATOM
    raise TypeError(f"not a formula: {g!r}")


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; reparses to the same AST."""
    # the printing algebra's values are (text, precedence level) pairs
    text, _ = fold(
        f,
        _print_leaf,
        lambda x, y: (f"{_paren(x, _LEVEL_JOIN)} -> {y[0]}", _LEVEL_IMP),
        lambda x, y: (f"{_paren(x, _LEVEL_JOIN)} \\/ {_paren(y, _LEVEL_POS)}", _LEVEL_JOIN),
        lambda x: (f"{_paren(x, _LEVEL_POS)} ^+", _LEVEL_POS),
    )
    return text


# ---------------------------------------------------------------------------
# substitution and matching

def substitute(schema: Formula, subst: Substitution) -> Formula:
    """Simultaneously replace every metavariable by its image under subst."""

    def leaf(g: Formula) -> Formula:
        if type(g) is not MetaVar:
            return g
        if g.name not in subst:
            raise SubstitutionError(f"no binding for metavariable {g.name!r}")
        return subst[g.name]

    return fold(schema, leaf, Imp, Join, Pos)


def match_schema(
    schema: Formula,
    target: Formula,
    bindings: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """One-sided pattern match: the unique subst s with substitute(schema, s)
    == target extending ``bindings``, or None.

    Matching is deterministic: the first binding of a metavariable must be
    consistent with all later occurrences.  Metavariables in ``target`` are
    treated as opaque constants.
    """
    out = match_or_conflict(schema, target, bindings)
    return out if isinstance(out, dict) else None


def match_or_conflict(
    schema: Formula, target: Formula, bindings: Optional[Substitution] = None
) -> Union[Substitution, str, None]:
    """The match_schema bindings, else the name of the first metavariable
    (left to right) bound inconsistently, else None for a shape mismatch.

    Shape-mismatched pairs are skipped, so a conflict behind one is found.
    """
    out = dict(bindings) if bindings else {}
    mismatch = False
    stack = [(schema, target)]
    while stack:
        s, t = stack.pop()
        kind = type(s)
        if kind is MetaVar:
            bound = out.get(s.name)
            if bound is None:
                out[s.name] = t
            elif bound != t:
                return s.name
        elif kind is not type(t):
            mismatch = True
        elif kind is Imp or kind is Join:
            stack += ((s.right, t.right), (s.left, t.left))
        elif kind is Pos:
            stack.append((s.inner, t.inner))
        elif s != t:
            mismatch = True
    return None if mismatch else out


# ---------------------------------------------------------------------------
# structural helpers

def variables(f: Formula) -> set[str]:
    """Names of the object variables occurring in f."""
    return _names(f, Var)


def metavariables(f: Formula) -> set[str]:
    """Names of the metavariables occurring in f."""
    return _names(f, MetaVar)


def _names(f: Formula, cls: type) -> set[str]:
    out: set[str] = set()
    fold(f, lambda g: out.add(g.name) if type(g) is cls else None, _ignore, _ignore, _ignore)
    return out


def is_rl(f: Formula) -> bool:
    """True iff f is a pure RL formula (no Pos nodes, no metavariables)."""
    return fold(f, lambda g: type(g) is Var or type(g) is Zero, operator.and_, operator.and_)


def is_bal(f: Formula) -> bool:
    """True iff f is a pure BAL formula (no Zero or Join, no metavariables)."""
    return fold(f, lambda g: type(g) is Var, operator.and_, None, _same)


def pos_to_join(f: Formula) -> Formula:
    """Structurally replace every ``x ^+`` by ``x \\/ 0``."""
    return fold(f, _same, Imp, Join, lambda inner: Join(inner, ZERO))
