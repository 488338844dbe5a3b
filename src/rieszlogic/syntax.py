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
``[A-Z][a-zA-Z0-9_]*``.  Whitespace is space, tab, CR and LF.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): a constructor returns the one live node with its
class and fields, so a formula is a DAG of shared subterms, and ``==``
and ``hash`` are object identity.  Parsing is one loop, not recursive,
so neither it nor comparison has a nesting limit.  The loop takes its
tokens from one of two sources: one ``findall`` over a text of at most
``2 * _KEY`` characters without ``#``, and a scanner, one match at a
time, over every other text.  A findall token's offset, which only an
error needs, is found from its index in the list by the scan that looks
for bad characters.  The scanner source reads each distinct parenthesized
group longer than ``_KEY`` once, and does not read again a right operand
of ``->`` or ``(+)`` that repeats a group's inside, so a printed DAG costs
parser steps per distinct subterm, not per copy.

A node's ``postorder`` program is walked once by ``_program``, the one
node walker, and kept on the node (``memo``) with the set of its steps'
operations; ``fold`` replays it, and the structure queries read it.
``_LANGUAGES`` names each language's node classes.  ``postorder`` raises
every module's one ``TypeError`` for a formula outside its language.

``Record`` is the slotted, immutable base of every other module's value
classes (proof lines, reports, verdicts, valuations), whose fields are
exactly its slots; ``_fraction`` reads the numbers of valuation and
count-matrix files, and ``_check_int`` checks every int argument.
"""

from __future__ import annotations

import operator
import re
import weakref
from functools import partial, wraps
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction


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


# (class, *fields) -> weak reference to the one live node with them; a
# node's death pops its entry in C, through the reference's callback
_NODES: dict[tuple, weakref.ref] = {}
_new, _set, _ref, _pop = object.__new__, object.__setattr__, weakref.ref, _NODES.pop


class Formula:
    """Base class of all formula nodes.  Instances are immutable and
    hash-consed: equal fields give the same object."""

    __slots__ = ("__weakref__", "_memo")  # _memo: see memo()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        # the dataclass format, built by a fold so that deep formulas print
        return fold(self, _repr_leaf, *(_REPR[op].format for op in (Imp, Join, Pos)))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Var(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> Var:
        ref = _NODES.get(key := (cls, name))
        if ref is None or (node := ref()) is None:
            node = _new(cls)
            _set(node, "name", name)
            _NODES[key] = _ref(node, partial(_pop, key))
        return node


class Zero(Formula):
    __slots__ = ()

    def __new__(cls) -> Zero:
        return ZERO


class Imp(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        ref = _NODES.get(key := (cls, left, right))
        if ref is None or (node := ref()) is None:
            node = _new(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            _NODES[key] = _ref(node, partial(_pop, key))
        return node


class Join(Formula):
    __slots__ = ("left", "right")
    __new__ = Imp.__new__  # interns (cls, left, right) like Imp


class Pos(Formula):
    __slots__ = ("inner",)

    def __new__(cls, inner: Formula) -> Pos:
        ref = _NODES.get(key := (cls, inner))
        if ref is None or (node := ref()) is None:
            node = _new(cls)
            _set(node, "inner", inner)
            _NODES[key] = _ref(node, partial(_pop, key))
        return node


class MetaVar(Formula):
    __slots__ = ("name",)
    __new__ = Var.__new__  # interns (cls, name) like Var


ZERO = _new(Zero)

#: each object language's node classes
_LANGUAGES = {"RL": {Var, Zero, Imp, Join}, "BAL": {Var, Imp, Pos}}
#: the repr of each node class with node fields, its children's in the braces
_REPR = {Imp: "Imp(left={}, right={})", Join: "Join(left={}, right={})", Pos: "Pos(inner={})"}


class Record:
    """Immutable slotted value, compared, hashed and printed as a frozen
    dataclass: equal iff of one class with equal fields, ``hash`` of the
    fields' tuple, repr ``Cls(field=value, ...)``; assigning or deleting a
    field raises ``AttributeError``.  A subclass names its fields in
    ``__slots__``, in constructor order, and the defaults of its last ones
    in ``_defaults``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    __setattr__, __delattr__ = Formula.__setattr__, Formula.__delattr__

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__slots__", ()))
        cls._fields = cls.__match_args__ = cls._fields + own  # __match_args__: positional patterns
        get = operator.attrgetter(*cls._fields)  # _values(record): the fields' values, in order
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)  # the slots' own setters

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with defaults or keywords, as Python binds them."""
        fields = cls._fields
        values = {**dict(zip(fields[len(fields) - len(cls._defaults) :], cls._defaults)), **kwargs}
        values.update(zip(fields, args))
        if len(args) > len(fields) or values.keys() != set(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
            raise TypeError(f"{cls.__name__}() takes {fields}, the last {len(cls._defaults)} optional")
        return tuple(map(values.get, fields))

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), self._values(self)


def _repr_leaf(g) -> str:
    """Dataclass-style repr of a node without node fields, or of a non-node."""
    if not isinstance(g, Formula):
        return repr(g)
    fields = ", ".join(f"{name}={getattr(g, name)!r}" for name in g.__slots__)
    return f"{type(g).__name__}({fields})"


#: substitution: metavariable name -> formula
Substitution = dict[str, Formula]


# ---------------------------------------------------------------------------
# parser

_OPERATORS = ("->", "(+)", "\\/", "/\\", "^+", "~", "(", ")", "0")  # "(+)" before "("
_VAR_NAME = re.compile("[a-z][A-Za-z0-9_]*")

# the tokens of both token sources: an operator, then a name
_TOKENS = "|".join(map(re.escape, _OPERATORS)) + r"|[A-Za-z][A-Za-z0-9_]*"
# one match per token: skip whitespace and comments, capture a token, a
# single character no token starts with (a "bad" one), or "" at the end of
# the text, then skip whitespace, so that a match ends where the next token
# or comment starts
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(" + _TOKENS + r"|.|\Z)[ \t\r\n]*", re.DOTALL)
# _TOKEN's tokens of a text without comments, for findall, which skips only
# the whitespace between them; it has no group, so it lists the tokens faster
_SHORT = re.compile(_TOKENS + r"|[^ \t\r\n]")
_KEY = 64  # leading characters of a group's inside that key the group memo
_meet = lambda x, y: Imp(Join(Imp(x, ZERO), Imp(y, ZERO)), ZERO)  # x /\ y  ==  ~(~x \/ ~y)
_join = partial(Imp.__new__, Join)  # Join(x, y) without the type call


def _parse(text: str, lang: str, schema: bool) -> Formula:
    """Operator-precedence parse of the grammar above, without recursion.

    One loop reads the tokens, with one frame per open group.  A frame
    holds its group's ``->`` and ``(+)`` left sides (``x (+)`` as ``x ->
    0``), its join chain so far with the join that continues it, and the
    count of ``~`` in front of the group.  Joins apply as their right side
    is read (they associate to the left), ``->`` and ``(+)`` when their
    group ends (to the right), ``^+`` to the atom just read.  A token is
    looked up in the names read so far (and ``0``) before any other test,
    and ``Imp`` and ``Join`` nodes are built through ``Imp.__new__``,
    without the type call.  Each token is checked in the state the grammar
    puts it in (an atom expected, or an operator after one), so an error
    names the first token the grammar cannot accept there.

    The tokens come from one of two sources.  A text of at most ``2 *
    _KEY`` characters without ``#`` is split by one ``_SHORT.findall``, with
    ``""`` for its end; no group memo pays there.  Every other text is read
    one ``_TOKEN`` match at a time, and the match gives each token's offset.
    On an error the text is scanned once more for a bad character, which
    wins over any grammar error; that scan also gives a findall token's
    offset, from the token's index in the list.

    On the scanner source, a closed group whose inside (the text between
    its parentheses) is longer than ``_KEY`` is recorded under the inside's
    first ``_KEY`` characters.  Where a match ends after a "(" that opens an
    atom, or after ``->`` or ``(+)``, whose right operand runs to its
    group's end, a recorded inside that repeats there and is followed by the
    token closing the group being read gives the recorded node: both are
    read at the ``imp`` level, and equal text parses to the same node.
    Reading resumes at that token.  The text past the key is compared in
    doubling chunks; a near miss (a copy that differs, or is followed by
    another token) is charged what it compared, and lookups stop once the
    charges reach ``len(text)``, so the parse stays linear.
    """
    bal, new = lang == "bal", Imp.__new__
    names: dict[str, Formula] = {} if bal else {"0": ZERO}  # the nodes of the names read so far
    want_atom, frames = True, []  # frames: the enclosing groups' frames, each with the offset where its inside starts (None from findall)
    lefts, acc, join, nots = [], None, None, 0  # the innermost frame
    groups = m = None  # the group memo, and the scanner's last match: neither on the findall source
    if len(text) <= 2 * _KEY and "#" not in text:
        rest = iter(tokens := _SHORT.findall(text) + [""])
    else:
        groups, budget, match = {}, len(text), _TOKEN.scanner(text).match  # budget: characters that near misses may still cost

        def scan():
            nonlocal m
            while True:  # match is read again after a copy moves it
                yield (m := match())[1]

        def copy(q: int, close: str, text: str = text, groups: dict = groups) -> Optional[Formula]:
            # the node of the recorded group whose inside repeats at q and is
            # followed by the token close, at which reading resumes; else
            # None (text and groups are bound here, so that _parse, which
            # every short text calls, keeps them out of closure cells)
            nonlocal budget, match
            start, end, x = groups.get(text[q : q + _KEY] if budget > 0 else None, (0, 0, None))
            if x is None:
                return None
            k = _KEY  # the key's characters agree: compare the rest in doubling chunks
            while k < end - start and text.startswith(text[start + k : min(end, start + 2 * k)], q + k):
                k *= 2
            if k >= end - start and _TOKEN.match(text, q + end - start)[1] == close:
                match = _TOKEN.scanner(text, q + end - start).match
                return x
            budget -= k  # a near miss
            return None

        rest = scan()

    # a token is a name iff its first character is an ASCII letter, that is
    # iff "a" <= tok < "{" (a variable) or "A" <= tok < "[" (a metavariable)
    for tok in rest:
        if want_atom:
            x = names.get(tok)
            if x is None:
                if tok == "(":
                    # "(" may open a copy of a recorded group
                    if not groups or (x := copy(m.end(), ")")) is None:
                        frames.append((lefts, acc, join, nots, m and m.end()))
                        lefts, join, nots = [], None, 0
                        continue
                    next(rest)  # the copy's ")"
                elif tok == "~" and not bal:
                    nots += 1
                    continue
                elif "a" <= tok < "{" or "A" <= tok < "[" and schema:
                    x = names[tok] = Var.__new__(Var if tok >= "a" else MetaVar, tok)
                else:
                    break
        elif tok == "->" or tok == "(+)" and not bal:  # the most frequent operator first
            if join is not None:
                x, join = join(acc, x), None
            lefts.append(x if tok == "->" else new(Imp, x, ZERO))
            # the right operand may repeat a recorded group's inside up to this group's end
            if not groups or (x := copy(m.end(), ")" if frames else "")) is None:
                want_atom = True
                continue
        elif tok == ")" and frames or not tok and not frames:
            if join is not None:
                x = join(acc, x)
            while lefts:
                x = new(Imp, lefts.pop(), x)
            if not tok:
                return x
            lefts, acc, join, nots, p = frames.pop()
            if p and m.start(1) - p > _KEY:  # a shorter group costs little to read again
                groups[text[p : p + _KEY]] = (p, m.start(1), x)
        elif tok == "^+":  # x ^+  ==  x \/ 0  in RL
            x = Pos(x) if bal else _join(x, ZERO)
            continue
        elif (tok == "\\/" or tok == "/\\") and not bal:
            acc = x if join is None else join(acc, x)
            join, want_atom = _join if tok == "\\/" else _meet, True
            continue
        else:
            break
        while nots:  # x completes an atom: apply the ~ in front of it (~x == x -> 0)
            x = new(Imp, x, ZERO)
            nots -= 1
        want_atom = False
    # tok failed, unless a bad character comes anywhere: the first of those
    # wins over any grammar error, so the text is scanned again from 0
    if want_atom:
        expected = frozenset(("variable", "(") + ("metavariable",) * schema + ("0", "~") * (not bal))
    else:
        expected = frozenset(("->", "end of input") if bal and tok in ("(+)", "\\/", "/\\") else (")",) if frames else ("end of input",))
    if want_atom and "A" <= tok < "[":
        message = f"metavariable {tok!r} not allowed outside schemas"
    else:
        message = f"unexpected {repr(tok) if tok else 'end of input'}"
    # a scanner token's offset is its match's; a findall token's is found by its index
    offset, index = (m.start(1), -1) if m else (None, len(tokens) - rest.__length_hint__() - 1)
    for i, found in enumerate(_TOKEN.finditer(text)):
        if i == index:
            offset = found.start(1)
        tok = found[1]
        if tok and tok not in _OPERATORS and not ("a" <= tok < "{" or "A" <= tok < "["):
            offset, message, expected = found.start(1), f"unexpected character {tok!r}", frozenset(_OPERATORS + ("variable",))
            break
    raise ParseError(message, offset, expected)


def parse_rl(text: str) -> Formula:
    """Parse an RL formula; all sugar is expanded to ->, \\/ and 0."""
    return _parse(text, "rl", schema=False)


def parse_bal(text: str) -> Formula:
    """Parse a BAL formula; only ->, postfix ^+ and variables are allowed."""
    return _parse(text, "bal", schema=False)


def parse_rl_schema(text: str) -> Formula:
    """Parse an RL schema formula (uppercase tokens are metavariables)."""
    return _parse(text, "rl", schema=True)


def parse_bal_schema(text: str) -> Formula:
    """Parse a BAL schema formula."""
    return _parse(text, "bal", schema=True)


def parse_schema(text: str, system: str) -> Formula:
    if system not in _LANGUAGES:
        raise ValueError(f"unknown system {system!r}")
    return _parse(text, system.lower(), schema=True)


# ---------------------------------------------------------------------------
# structural recursion

def fold(f: Formula, leaf: Callable, imp: Callable, join: Optional[Callable], pos: Optional[Callable] = None):
    """Value of f in the algebra (leaf, imp, join, pos), computed bottom-up
    without recursion; each distinct node (by identity) is evaluated once.

    ``Imp``, ``Join`` and ``Pos`` nodes map to ``imp``, ``join`` and ``pos``
    of their children's values.  Any other node, or one whose operation is
    None, maps to ``leaf(node)``, which raises for nodes the algebra does
    not accept.  Nodes are evaluated in left-to-right postorder, so errors
    surface in the order a recursive evaluator would raise them.

    It replays f's kept ``postorder`` program, one value per step.  Where f
    is no node, or holds nodes whose operation is None, f is walked once
    more, with those nodes as leaves, into a program that is not kept.
    """
    leaves = {op for op, call in ((Join, join), (Pos, pos)) if call is None}
    kept = _kept(f) if isinstance(f, Formula) else None
    steps = kept[0] if kept and leaves.isdisjoint(kept[1]) else _program(f, _INNER - leaves)
    values: list = []
    for op, i, j in steps:
        if op is Imp:
            values.append(imp(values[i], values[j]))
        elif op is Join and join is not None:
            values.append(join(values[i], values[j]))
        elif op is Pos and pos is not None:
            values.append(pos(values[i]))
        else:  # a leaf step holds a name, nothing (ZERO) or the leaf itself
            values.append(leaf(Var(i) if op is Var else MetaVar(i) if op is MetaVar else ZERO if op is Zero else i))
    return values[-1]


def memo(build: Callable) -> Callable:
    """Decorator: ``build(f, *args)``, made once per node f and args and kept
    in f's ``_memo`` dict, so it dies with f.  It must hold no node."""

    @wraps(build)
    def cached(f: Formula, *args):
        try:
            return f._memo[build, args]
        except AttributeError:  # f's first memo, or f is no node
            if not isinstance(f, Formula):
                raise TypeError(f"not a formula: {f!r}") from None
            _set(f, "_memo", {})
        except KeyError:
            pass
        value = f._memo[build, args] = build(f, *args)
        return value

    return cached


def postorder(f: Formula, lang: str = "RL") -> tuple[tuple, ...]:
    """The distinct nodes of the RL (or BAL) formula f as a program of
    steps, children first and the root last.

    A step is ``(Var, name, None)``, ``(Zero, None, None)``, ``(Pos, i,
    None)``, ``(Imp, i, j)`` or ``(Join, i, j)``, with the child steps'
    indices; one walk of f's nodes builds it, and f keeps it with the set
    of its steps' operations.  A formula outside the language (one subset
    test) gets ``TypeError("not an RL formula: <repr>")`` (or ``a BAL``)
    naming its first node, in ``fold`` order, not in it; a repr past
    ``_SHOWN`` characters is named by the node's class and its length.
    """
    (steps, ops), lang_ops = _kept(f), _LANGUAGES[lang]
    if not ops <= lang_ops:
        join, pos = (_ignore if op in lang_ops else None for op in (Join, Pos))  # else a leaf, for _refuse to see
        fold(f, lambda g: type(g) in lang_ops or _refuse(g, lang), _ignore, join, pos)
    return steps


_SHOWN = 1 << 20  # the longest repr that a refusal prints


def _refuse(g: Formula, lang: str) -> None:
    # the repr's length: each format's own characters plus its children's lengths
    imp, join, pos = (len(_REPR[op].format("", "")) for op in (Imp, Join, Pos))
    length = fold(g, lambda g: len(_repr_leaf(g)), lambda x, y: imp + x + y, lambda x, y: join + x + y, pos.__add__)
    shown = repr(g) if length <= _SHOWN else f"a {type(g).__name__} whose repr has {length} characters"
    raise TypeError(f"not {'an RL' if lang == 'RL' else 'a BAL'} formula: {shown}")


_INNER = frozenset((Imp, Join, Pos))  # the node classes with node fields


def _program(f: Formula, inner: frozenset = _INNER) -> tuple[tuple, ...]:
    """The one node walker: f's program of ``postorder`` steps, where a node
    of a class not in ``inner`` is a leaf, a metavariable's step is
    ``(MetaVar, name, None)`` and another leaf g's ``(type(g), g, None)``.
    The path holds the nodes from f down to the one whose step comes next."""
    steps, index, path = [], {}, [f]  # index: node -> the index of its step
    while path:
        g = path[-1]
        t = type(g)
        if t not in inner:
            step = (t, g.name, None) if t is Var or t is MetaVar else (t, None, None) if t is Zero else (t, g, None)
        elif (i := index.get(c := g.inner if t is Pos else g.left)) is None:  # a child goes on the path
            path.append(c)
            continue
        elif t is Pos:
            step = (Pos, i, None)
        elif (j := index.get(g.right)) is None:
            path.append(g.right)
            continue
        else:
            step = (t, i, j)
        index[g] = len(steps)
        steps.append(step)
        path.pop()
    return tuple(steps)


@memo
def _kept(f: Formula) -> tuple[tuple[tuple, ...], set]:  # f's program and the set of its steps' operations
    return (steps := _program(f)), {op for op, _, _ in steps}


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
    The walk goes down each left spine in place and stacks the right pairs;
    it walks a tree, so a shared subterm is visited once per occurrence.
    """
    out = dict(bindings) if bindings else {}
    mismatch = False
    s, t, stack = schema, target, []
    while True:
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
            stack.append((s.right, t.right))
            s, t = s.left, t.left
            continue
        elif kind is Pos:
            s, t = s.inner, t.inner
            continue
        elif s != t:
            mismatch = True
        if not stack:
            return None if mismatch else out
        s, t = stack.pop()


# ---------------------------------------------------------------------------
# structural helpers

def variables(f: Formula) -> set[str]:
    """Names of the object variables occurring in f."""
    return {name for op, name, _ in _kept(f)[0] if op is Var}


def metavariables(f: Formula) -> set[str]:
    """Names of the metavariables occurring in f."""
    return {name for op, name, _ in _kept(f)[0] if op is MetaVar}


def is_rl(f: Formula) -> bool:
    """True iff f is a pure RL formula (no Pos nodes, no metavariables)."""
    return _kept(f)[1] <= _LANGUAGES["RL"]


def is_bal(f: Formula) -> bool:
    """True iff f is a pure BAL formula (no Zero or Join, no metavariables)."""
    return _kept(f)[1] <= _LANGUAGES["BAL"]


def pos_to_join(f: Formula) -> Formula:
    """Structurally replace every ``x ^+`` by ``x \\/ 0``."""
    return fold(f, _same, Imp, Join, lambda inner: Join(inner, ZERO))


# ---------------------------------------------------------------------------
# int arguments

#: the default bound of every budgeted step of ``decide`` and of ``decide --budget``
DEFAULT_BUDGET = 100_000


def _is_int(x: object) -> bool:
    # bool is an int subclass, but True is no number here
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, value: object, least: int, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a ``bool``, and at
    least ``least``: the one check of every int argument of the API."""
    if not _is_int(value) or value < least:
        raise error(f"{name} must be an int >= {least}, not {value!r}")


# ---------------------------------------------------------------------------
# number literals

#: the most digits a number's numerator or denominator may have: the
#: interpreter's default bound on int/str conversion, so every number read prints
_MAX_DIGITS = 4300

# a number as ``Fraction`` reads it, more loosely: integer digits, fraction
# digits, then an exponent or a denominator (compiled on first use, so that
# a subcommand reading no numbers does not pay for it)
_NUMBER = r"\s*[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?)(\d*)|\s*/\s*(\d*))?\s*"


def _fraction(text: str, what: str) -> Fraction:
    """``Fraction(text)``, refused with ``OverflowError`` before any
    conversion if the numerator or the denominator that ``Fraction`` builds
    would have more than ``_MAX_DIGITS`` digits, leading zeros included.
    ``Fraction`` expands a decimal exponent exactly, a power that the
    interpreter's own digit limit does not bound."""
    from fractions import Fraction

    match = re.fullmatch(_NUMBER, text.replace("_", ""))  # Fraction allows "_" between digits
    if match is not None:
        whole, fraction, sign, exponent, denominator = match.groups("")
        power = int(exponent or "0") if len(exponent) <= _MAX_DIGITS else 10**_MAX_DIGITS  # past every bound
        shift = (-power if sign == "-" else power) - len(fraction)  # the value is int(whole + fraction) * 10**shift
        numerator = len(whole + fraction) + max(shift, 0)
        for part, size in (("numerator", numerator), ("denominator", len(denominator) or 1 - min(shift, 0))):
            if size > _MAX_DIGITS:
                shown = text if len(text) <= 24 else f"{text[:20]}..."
                raise OverflowError(f"number {shown!r} has a {part} of more than {_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # not a number, or a zero denominator
        raise ValueError(f"bad {what} {text!r}") from None
