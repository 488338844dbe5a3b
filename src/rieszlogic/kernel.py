"""Hilbert systems for RL and BAL and a proof-script checker.

The checker is deliberately dumb: every rule application is a literal
structural check against fully written-out lines, and the only
instantiation mechanism is the ``lemma`` justification, which matches a
registered theorem's assumption patterns against the cited lines and
its conclusion pattern against the stated formula.  There is no
unification search in the trusted core.

The checks stay literal, but formula nodes are hash-consed, so equal
formulas are one object and a side condition is a few ``is`` tests on
the cited nodes: ``mp`` accepts when line j's node is an ``Imp`` whose
left is line i's node and whose right is this line's; a BAL rule builds
the node its line must be, as ``balg`` checks ``formula is Imp(left,
right)``.  Each rule has one branch in ``check_proof``, chosen by ``is``
on the rule that one set lookup finds from the justification's class,
so a line costs a few ``is`` tests.
Axiom and lemma instances match the schema against the line
(``syntax.match_or_conflict``).  Proofs and reports are immutable
records, and replay builds no object per accepted line (``check_proof``).

A ``TheoremLibrary`` admits a proof by one rule, ``admit``: a name it holds
with other content is refused (``RegistrationError``) before anything is
checked; otherwise the proof is checked and, if accepted and new, added.
``register`` is ``admit`` that also refuses a rejected proof.

Systems (``_SYSTEMS`` gives each its axioms and allowed rules):

* RL has axioms R1a R1b R2 R3 R4 R5a R5b R6a R6b and rules

      mp:  from x and x -> y infer y
      ri:  from x -> y infer x \\/ c -> y \\/ c

* BAL has axioms BALB BALC BALN BALP BALO and rules

      mp:    from x and x -> y infer y
      balg:  from x and y infer x -> y
      balpi: from x infer x ^+
      balmi: from (x -> y) ^+ infer (x ^+ -> y ^+) ^+

Proof scripts may be schematic: assumption formulas and lines may
contain metavariables, which behave as opaque constants during
checking and are instantiated only when the proof is later applied via
``lemma``.

Proof file format (one proof per file, ``#`` comments allowed)::

    system: RL
    name: SOME_NAME
    assume 1: <formula>
    1: <formula> | assume 1
    2: <formula> | axiom R1a
    3: <formula> | mp 1 2
    qed: 3

Justifications: ``axiom <NAME>``, ``assume <k>``, ``mp <i> <j>``,
``ri <i>``, ``balg <i> <j>``, ``balpi <i>``, ``balmi <i>``,
``lemma <name> <i...>``.  Line indices are 1-based and strictly
increasing.  A proof has one ``system:`` header, ``RL`` or ``BAL``, before
its assumptions and lines, which are read in that system's grammar, one
``name:`` header and one ``qed:`` footer; a second one of any of them, or
an unknown system, is an error at its line.  Every index (of a line, an
assumption, ``qed`` or a justification's argument) is written in ASCII
decimal digits.  One handler names the line of every error found while
a line is read; a formula's ``ParseError`` keeps its offset within the
formula.
"""

from __future__ import annotations

from typing import Optional, Union, get_args

from .syntax import (
    Formula,
    Imp,
    Join,
    ParseError,
    Pos,
    Record,
    Substitution,
    format_formula,
    match_or_conflict,
    parse_schema,
)


def _schemas(system: str, table: dict[str, str]) -> dict[str, Formula]:
    return {name: parse_schema(text, system) for name, text in table.items()}


RL_AXIOMS: dict[str, Formula] = _schemas(
    "RL",
    {
        "R1a": "(PHI -> PSI) -> (PSI -> CHI) -> PHI -> CHI",
        "R1b": "((PSI -> CHI) -> PHI -> CHI) -> PHI -> PSI",
        "R2": "PHI -> PHI \\/ PSI",
        "R3": "PHI \\/ PSI -> PSI \\/ PHI",
        "R4": "(PHI \\/ PSI) \\/ PSI -> PHI \\/ PSI",
        "R5a": "0 -> PHI -> PHI",
        "R5b": "(PHI -> PHI) -> 0",
        "R6a": "((PHI -> PSI) \\/ 0 -> (PSI -> PHI) \\/ 0) -> PSI -> PHI",
        "R6b": "(PSI -> PHI) -> (PHI -> PSI) \\/ 0 -> (PSI -> PHI) \\/ 0",
    },
)

BAL_AXIOMS: dict[str, Formula] = _schemas(
    "BAL",
    {
        "BALB": "(PHI -> PSI) -> (CHI -> PHI) -> CHI -> PSI",
        "BALC": "(PHI -> PSI -> CHI) -> PSI -> PHI -> CHI",
        "BALN": "((PHI -> PSI) -> PSI) -> PHI",
        "BALP": "PHI ^+ ^+ -> PHI ^+",
        "BALO": "((PSI -> PHI) ^+ -> (PHI -> PSI) ^+) -> PHI -> PSI",
    },
)


# ---------------------------------------------------------------------------
# proofs

class Assume(Record):
    __slots__ = ("index",)


class Axiom(Record):
    __slots__ = ("name",)


class Mp(Record):
    __slots__ = ("minor", "major")


class Ri(Record):
    __slots__ = ("premise",)


class BalG(Record):
    __slots__ = ("left", "right")


class BalPi(Record):
    __slots__ = ("premise",)


class BalMi(Record):
    __slots__ = ("premise",)


class Lemma(Record):
    __slots__ = ("name", "premises")
    _defaults = ((),)


Justification = Union[Assume, Axiom, Mp, Ri, BalG, BalPi, BalMi, Lemma]

#: a rule's keyword in proof files is its class name in lower case
_KEYWORDS: dict[str, type] = {rule.__name__.lower(): rule for rule in get_args(Justification)}

#: each system's axiom schemas and the justifications it allows
_SYSTEMS: dict[str, tuple[dict[str, Formula], frozenset[type]]] = {
    "RL": (RL_AXIOMS, frozenset((Assume, Axiom, Mp, Ri, Lemma))),
    "BAL": (BAL_AXIOMS, frozenset((Assume, Axiom, Mp, BalG, BalPi, BalMi, Lemma))),
}


class ProofLine(Record):
    __slots__ = ("index", "formula", "justification")  # int, Formula, Justification


class Proof(Record):
    # str, str, tuple[Formula, ...], tuple[ProofLine, ...], int
    __slots__ = ("system", "name", "assumptions", "lines", "conclusion")

    def line(self, index: int) -> ProofLine:
        """The first line with the index; ``KeyError`` if there is none."""
        for ln in self.lines:
            if ln.index == index:
                return ln
        raise KeyError(index)

    @property
    def conclusion_formula(self) -> Formula:
        return self.line(self.conclusion).formula


class LineStatus(Record):
    __slots__ = ("index", "ok", "message")  # int, bool, str
    _defaults = ("",)


class CheckReport(Record):
    __slots__ = ("proof_name", "statuses", "accepted")  # str, tuple[LineStatus, ...], bool

    @property
    def first_error(self) -> Optional[LineStatus]:
        for status in self.statuses:
            if not status.ok:
                return status
        return None

    def summary(self) -> str:
        if self.accepted:
            return f"OK ({len(self.statuses)} lines)"
        bad = self.first_error
        assert bad is not None
        return f"REJECTED at line {bad.index}: {bad.message}"


class ProofFormatError(Exception):
    """Malformed proof file."""


class RegistrationError(Exception):
    """Refused theorem-library registration."""


class TheoremLibrary:
    """Checked proofs addressable by name.

    Assumption-free entries are theorems; entries with assumptions are
    derived rules.  Entries can only cite previously registered names,
    so lemma references are acyclic by construction.
    """

    def __init__(self, entries: Optional[dict[str, Proof]] = None):
        self._entries: dict[str, Proof] = dict(entries) if entries else {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> Optional[Proof]:
        return self._entries.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def register(self, proof: Proof) -> "TheoremLibrary":
        report, library = self.admit(proof)
        if not report.accepted:
            raise RegistrationError(f"proof {proof.name!r} rejected: {report.summary()}")
        return library

    def admit(self, proof: Proof) -> tuple[CheckReport, "TheoremLibrary"]:
        """The proof's report against this library, and the library after
        the admission rule (module docstring)."""
        existing = self._entries.get(proof.name)
        if existing is not None and existing != proof:
            raise RegistrationError(f"name {proof.name!r} already registered with different content")
        report = check_proof(proof, self)
        if not report.accepted or existing is not None:
            return report, self
        return report, TheoremLibrary({**self._entries, proof.name: proof})


def register_theorem(library: TheoremLibrary, proof: Proof) -> TheoremLibrary:
    """Add a checked proof to the library; identical re-registration is a no-op."""
    return library.register(proof)


# ---------------------------------------------------------------------------
# checking

class _Rejected(Exception):
    """A line's justification does not hold; the message says why."""


def _match(schema: Formula, target: Formula, bindings: Optional[Substitution], failure: str, *args) -> Substitution:
    """Match, or reject with ``failure.format(*args)`` and the first conflicting metavariable."""
    out = match_or_conflict(schema, target, bindings)
    if isinstance(out, dict):
        return out
    why = "shape mismatch" if out is None else f"metavariable {out} is bound inconsistently"
    raise _Rejected(f"{failure.format(*args)}: {why}")


def _cite(checked: dict[int, Formula], index: int, idx: int) -> Formula:
    """The formula of accepted line idx, cited from line index."""
    try:
        return checked[idx]  # holds accepted lines before index only
    except KeyError:
        raise _Rejected(
            f"citation of line {idx} is not backward" if idx >= index else f"cited line {idx} does not exist or failed"
        ) from None


#: the shared ``LineStatus(index, True)`` of each int index accepted so far
_ACCEPTED: dict[int, LineStatus] = {}


def check_proof(proof: Proof, library: Optional[TheoremLibrary] = None) -> CheckReport:
    """Replay a proof script; the report carries per-line statuses.

    ``checked`` maps the indices of accepted earlier lines to their
    formulas.  Each rule's check raises ``_Rejected`` at its first
    failing condition, citations included; the one handler turns it
    into the line's message.  Every line is checked on every call, but
    accepted statuses are immutable and shared, one per index up to 4,096.
    """
    if proof.system not in _SYSTEMS:
        return CheckReport(proof.name, (LineStatus(0, False, f"unknown system {proof.system!r}"),), False)
    axioms, allowed = _SYSTEMS[proof.system]
    statuses: list[LineStatus] = []
    checked: dict[int, Formula] = {}
    previous = 0
    for line in proof.lines:
        index, just, formula = line.index, line.justification, line.formula
        if index <= previous:
            statuses.append(LineStatus(index, False, "line indices must be strictly increasing"))
            break
        previous = index
        try:
            rule = type(just)
            if rule not in allowed:  # a subclass is checked as the first rule it derives from
                rule = next((r for r in _KEYWORDS.values() if isinstance(just, r)), None)
                if rule not in allowed:
                    raise _Rejected(f"rule {type(just).__name__.lower()} is not part of {proof.system}")

            if rule is Axiom:
                schema = axioms.get(just.name)
                if schema is None:
                    raise _Rejected(f"unknown axiom {just.name!r} in {proof.system}")
                _match(schema, formula, None, "not an instance of {}", just.name)

            elif rule is Mp:
                minor, major = _cite(checked, index, just.minor), _cite(checked, index, just.major)
                if not (type(major) is Imp and major.left is minor and major.right is formula):
                    raise _Rejected(
                        f"line {just.major} is not (line {just.minor}) -> (this formula): "
                        f"expected {format_formula(Imp(minor, formula))}"
                    )

            elif rule is Ri:
                premise = _cite(checked, index, just.premise)
                if not isinstance(premise, Imp):
                    raise _Rejected(f"line {just.premise} is not an implication")
                if not (isinstance(formula, Imp) and isinstance(formula.left, Join) and isinstance(formula.right, Join)):
                    raise _Rejected("formula does not have shape a \\/ c -> b \\/ c")
                if formula.left.right != formula.right.right:
                    raise _Rejected("join tails differ")
                if formula.left.left != premise.left or formula.right.left != premise.right:
                    raise _Rejected(f"heads do not come from line {just.premise}")

            elif rule is Assume:
                if not 1 <= just.index <= len(proof.assumptions):
                    raise _Rejected(f"no assumption {just.index}")
                if formula != proof.assumptions[just.index - 1]:
                    raise _Rejected(f"formula differs from assumption {just.index}")

            elif rule is BalG:
                if formula is not Imp(_cite(checked, index, just.left), _cite(checked, index, just.right)):
                    raise _Rejected(f"formula is not (line {just.left}) -> (line {just.right})")

            elif rule is BalPi:
                if formula is not Pos(_cite(checked, index, just.premise)):
                    raise _Rejected(f"formula is not (line {just.premise}) ^+")

            elif rule is BalMi:
                premise = _cite(checked, index, just.premise)
                if not (isinstance(premise, Pos) and isinstance(premise.inner, Imp)):
                    raise _Rejected(f"line {just.premise} does not have shape (a -> b) ^+")
                if formula is not Pos(Imp(Pos(premise.inner.left), Pos(premise.inner.right))):
                    raise _Rejected(f"formula is not (a ^+ -> b ^+) ^+ for line {just.premise}")

            else:  # Lemma, the last rule both systems allow
                entry = library.get(just.name) if library is not None else None
                if entry is None:
                    raise _Rejected(f"unknown lemma {just.name!r}")
                if entry.system != proof.system:
                    raise _Rejected(f"lemma {just.name!r} belongs to {entry.system}")
                if len(just.premises) != len(entry.assumptions):
                    raise _Rejected(
                        f"lemma {just.name!r} needs {len(entry.assumptions)} premises, "
                        f"{len(just.premises)} cited"
                    )
                subst: Substitution = {}
                for k, (pattern, idx) in enumerate(zip(entry.assumptions, just.premises), start=1):
                    premise = _cite(checked, index, idx)
                    subst = _match(pattern, premise, subst, "premise {} does not match assumption of {!r}", k, just.name)
                _match(entry.conclusion_formula, formula, subst, "formula does not match conclusion of {!r}", just.name)
        except _Rejected as exc:
            statuses.append(LineStatus(index, False, str(exc)))
        else:
            status = _ACCEPTED.get(index) if type(index) is int else None  # 1.0 and True hash like 1
            if status is None:
                status = LineStatus(index, True, "")
                if type(index) is int and len(_ACCEPTED) < 4096:
                    _ACCEPTED[index] = status
            statuses.append(status)
            checked[index] = formula
    accepted = len(checked) == len(statuses)  # one status per line, one formula per accepted line
    if accepted and proof.conclusion not in checked:
        statuses.append(LineStatus(proof.conclusion, False, "conclusion index is not a checked line"))
    return CheckReport(proof.name, tuple(statuses), accepted and proof.conclusion in checked)


# ---------------------------------------------------------------------------
# proof file format

#: the keyword of each line that a proof has once, and what the line is called
_HEADERS = {"system": "header", "name": "header", "qed": "footer"}


def parse_proof(text: str) -> Proof:
    headers: dict[str, Union[str, int]] = {}  # keyword -> its value, or the conclusion's index
    assumptions: list[Formula] = []
    lines: list[ProofLine] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, _, value = stripped.partition(":")
            if key in _HEADERS:
                if key in headers:
                    raise ProofFormatError(f"a proof has one `{key}:` {_HEADERS[key]}")
                value = value.strip()
                if key == "system" and value and value not in _SYSTEMS:
                    raise ProofFormatError(f"unknown system {value!r}")
                if key == "qed" and (value := _index(value)) is None:
                    raise ProofFormatError("qed needs a line index")
                headers[key] = value
                continue
            system = headers.get("system")
            if stripped.startswith("assume "):
                head, _, formula_text = stripped.partition(":")
                if not formula_text:
                    raise ProofFormatError("assumption needs `assume <k>: <formula>`")
                k_text = head[len("assume "):].strip()
                if _index(k_text) != len(assumptions) + 1:
                    raise ProofFormatError(f"assumption index must be {len(assumptions) + 1}")
                if not system:
                    raise ProofFormatError("system must be declared before assumptions")
                assumptions.append(parse_schema(formula_text.strip(), system))
                continue
            head, sep, just_text = stripped.rpartition("|")
            if not sep:
                raise ProofFormatError("proof line needs `<index>: <formula> | <justification>`")
            idx_text, sep2, formula_text = head.partition(":")
            index = _index(idx_text.strip())
            if not sep2 or index is None:
                raise ProofFormatError("proof line needs a numeric index before `:`")
            if not system:
                raise ProofFormatError("system must be declared before proof lines")
            formula = parse_schema(formula_text.strip(), system)
            lines.append(ProofLine(index, formula, _parse_justification(just_text.strip())))
    except (ParseError, ProofFormatError) as exc:  # name the line: a formula's offset is within the formula
        exc.args = (f"line {lineno}: {exc}",)
        raise
    system, name, conclusion = map(headers.get, _HEADERS)
    if not system:
        raise ProofFormatError("missing `system:` header")
    if not name:
        raise ProofFormatError("missing `name:` header")
    if not lines:
        raise ProofFormatError("proof has no lines")
    if conclusion is None:
        raise ProofFormatError("missing `qed:` footer")
    return Proof(system, name, tuple(assumptions), tuple(lines), conclusion)


def _index(text: str) -> Optional[int]:
    # a line index is ASCII decimal digits: `str.isdigit` also takes "²",
    # and `int` refuses that, or more digits than the interpreter converts
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _parse_justification(text: str) -> Justification:
    parts = text.split()
    if not parts:
        raise ProofFormatError("empty justification")
    head, args = parts[0], parts[1:]
    rule = _KEYWORDS.get(head)
    if rule is None:
        raise ProofFormatError(f"unknown justification {head!r}")
    if rule is Axiom:
        if len(args) != 1:
            raise ProofFormatError("axiom needs one name")
        return Axiom(args[0])
    if rule is Assume:
        if len(args) != 1 or (k := _index(args[0])) is None:
            raise ProofFormatError("assume needs one index")
        return Assume(k)
    if rule is Lemma:
        if not args:
            raise ProofFormatError("lemma needs a name")
        premises = tuple(map(_index, args[1:]))
        if None in premises:
            raise ProofFormatError("lemma premises must be line indices")
        return Lemma(args[0], premises)
    # the inference rules: one line index per field
    indices = list(map(_index, args))
    if None in indices:
        raise ProofFormatError(f"{head} arguments must be line indices")
    arity = len(rule._fields)
    if len(args) != arity:
        raise ProofFormatError(f"{head} needs {arity} line indices")
    return rule(*indices)


def format_justification(just: Justification) -> str:
    if not isinstance(just, get_args(Justification)):
        raise TypeError(f"unknown justification {just!r}")
    words = [type(just).__name__.lower()]
    for value in just._values(just):
        words += map(str, value) if isinstance(value, tuple) else [str(value)]
    return " ".join(words)


def format_proof(proof: Proof) -> str:
    out = [f"system: {proof.system}", f"name: {proof.name}"]
    for k, assumption in enumerate(proof.assumptions, start=1):
        out.append(f"assume {k}: {format_formula(assumption)}")
    width = len(str(proof.lines[-1].index))
    for line in proof.lines:
        out.append(
            f"{str(line.index).rjust(width)}: {format_formula(line.formula)}"
            f" | {format_justification(line.justification)}"
        )
    out.append(f"qed: {proof.conclusion}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# shipped corpus

#: names in registration (dependency) order
CORPUS_NAMES: tuple[str, ...] = (
    "balmp_plus",
    "balmp_minus",
    "balpi_plus",
    "balpi_minus",
    "balg_plus",
    "balg_minus",
    "balmi_plus",
    "balmi_part1",
    "balmi_part2",
    "balmi_part3",
    "balb_plus",
    "balb_minus",
    "balc",
    "baln_plus",
    "baln_minus",
    "balp_plus",
    "balp_minus",
    "asserting_positivity",
)


def corpus_text(stem: str) -> str:
    """Raw text of a shipped proof script."""
    from importlib import resources

    return (resources.files(__package__) / "corpus" / f"{stem}.rlproof").read_text("utf-8")


def load_corpus(library: Optional[TheoremLibrary] = None) -> TheoremLibrary:
    """Check and register every shipped proof script, in dependency order."""
    lib = library if library is not None else TheoremLibrary()
    for stem in CORPUS_NAMES:
        lib = lib.register(parse_proof(corpus_text(stem)))
    return lib
