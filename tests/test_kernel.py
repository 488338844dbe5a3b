import re
import sys

import pytest

from rieszlogic import kernel
from rieszlogic.kernel import (
    Assume,
    Axiom,
    BAL_AXIOMS,
    BalG,
    BalMi,
    BalPi,
    CheckReport,
    Lemma,
    LineStatus,
    Mp,
    Proof,
    ProofFormatError,
    ProofLine,
    RL_AXIOMS,
    RegistrationError,
    Ri,
    TheoremLibrary,
    check_proof,
    format_justification,
    format_proof,
    parse_proof,
    register_theorem,
)
from rieszlogic.syntax import ParseError, Var, parse_bal, parse_rl, parse_schema, substitute


def rl_proof(name, lines, assumptions=(), conclusion=None):
    parsed = tuple(
        ProofLine(i, parse_schema(text, "RL"), just)
        for i, (text, just) in enumerate(lines, start=1)
    )
    return Proof(
        "RL",
        name,
        tuple(parse_schema(t, "RL") for t in assumptions),
        parsed,
        conclusion or len(lines),
    )


def bal_proof(name, lines, assumptions=(), conclusion=None):
    parsed = tuple(
        ProofLine(i, parse_schema(text, "BAL"), just)
        for i, (text, just) in enumerate(lines, start=1)
    )
    return Proof(
        "BAL",
        name,
        tuple(parse_schema(t, "BAL") for t in assumptions),
        parsed,
        conclusion or len(lines),
    )


# -- single rules -------------------------------------------------------------

def test_modus_ponens_accepted():
    proof = rl_proof(
        "MP_DEMO",
        [("a", Assume(1)), ("a -> b", Assume(2)), ("b", Mp(1, 2))],
        assumptions=("a", "a -> b"),
    )
    assert check_proof(proof).accepted


def test_join_rule_accepted():
    proof = rl_proof(
        "RI_DEMO",
        [("a -> b", Assume(1)), ("a \\/ c -> b \\/ c", Ri(1))],
        assumptions=("a -> b",),
    )
    assert check_proof(proof).accepted


def test_accepted_report_has_no_first_error():
    report = check_proof(rl_proof("MP_DEMO", [("a", Assume(1))], assumptions=("a",)))
    assert report.accepted and report.first_error is None and report.summary() == "OK (1 lines)"


def test_assume_past_the_assumptions_is_rejected():
    report = check_proof(rl_proof("NO_ASSUMPTION", [("a", Assume(2))], assumptions=("a",)))
    assert report == CheckReport("NO_ASSUMPTION", (LineStatus(1, False, "no assumption 2"),), False)


def test_api_built_proof_in_an_unknown_system_is_rejected():
    # parse_proof refuses the header; a Proof built through the API reaches check_proof
    proof = Proof("XYZ", "X", (), (ProofLine(1, Var("a"), Axiom("R1a")),), 1)
    assert check_proof(proof) == CheckReport("X", (LineStatus(0, False, "unknown system 'XYZ'"),), False)


def test_conclusion_must_name_a_checked_line():
    report = check_proof(rl_proof("QED_MISSING", [("a", Assume(1))], assumptions=("a",), conclusion=2))
    assert not report.accepted
    assert report.statuses[-1] == LineStatus(2, False, "conclusion index is not a checked line")


def test_join_rule_rejects_different_tails():
    proof = rl_proof(
        "RI_BAD",
        [("a -> b", Assume(1)), ("a \\/ c -> b \\/ d", Ri(1))],
        assumptions=("a -> b",),
    )
    report = check_proof(proof)
    assert not report.accepted
    assert report.first_error.index == 2
    assert "tails differ" in report.first_error.message


def test_every_axiom_is_a_one_line_theorem():
    fresh = {"PHI": Var("p"), "PSI": Var("q"), "CHI": Var("r")}
    for name in RL_AXIOMS:
        inst = substitute(RL_AXIOMS[name], fresh)
        proof = Proof("RL", f"AX_{name}", (), (ProofLine(1, inst, Axiom(name)),), 1)
        assert check_proof(proof).accepted, name
    for name in BAL_AXIOMS:
        inst = substitute(BAL_AXIOMS[name], fresh)
        proof = Proof("BAL", f"AX_{name}", (), (ProofLine(1, inst, Axiom(name)),), 1)
        assert check_proof(proof).accepted, name


def test_axiom_mismatch_reports_conflicting_metavariable():
    proof = rl_proof("AX_BAD", [("a -> b \\/ c", Axiom("R2"))])
    report = check_proof(proof)
    assert not report.accepted
    assert "PHI" in report.first_error.message


def test_axiom_conflict_is_reported_past_a_shape_mismatch():
    # PHI -> PSI does not fit a \/ b, yet CHI's clash (d, then e) is named
    conflict = rl_proof("AX_CONFLICT", [("(a \\/ b) -> (c -> d) -> a -> e", Axiom("R1a"))])
    assert check_proof(conflict).first_error.message == (
        "not an instance of R1a: metavariable CHI is bound inconsistently"
    )
    mismatch = rl_proof("AX_SHAPE", [("(a \\/ b) -> (c -> d) -> a -> d", Axiom("R1a"))])
    assert check_proof(mismatch).first_error.message == "not an instance of R1a: shape mismatch"


def test_unknown_axiom_name():
    proof = rl_proof("AX_UNKNOWN", [("a -> a", Axiom("R99"))])
    assert "unknown axiom" in check_proof(proof).first_error.message


def test_forward_reference_rejected():
    proof = rl_proof(
        "FORWARD",
        [("b", Mp(2, 3)), ("a", Assume(1)), ("a -> b", Assume(2))],
        assumptions=("a", "a -> b"),
        conclusion=1,
    )
    report = check_proof(proof)
    assert not report.accepted
    assert report.statuses[0].ok is False


def test_indices_must_increase():
    lines = (
        ProofLine(1, parse_rl("a"), Assume(1)),
        ProofLine(1, parse_rl("a"), Assume(1)),
    )
    proof = Proof("RL", "DUP", (parse_rl("a"),), lines, 1)
    report = check_proof(proof)
    assert not report.accepted
    assert "strictly increasing" in report.statuses[-1].message


def test_rl_rejects_bal_rules():
    proof = rl_proof("WRONG_RULE", [("a", Assume(1)), ("a ^+", BalPi(1))], assumptions=("a",))
    report = check_proof(proof)
    assert "not part of RL" in report.statuses[1].message


# -- BAL rules ----------------------------------------------------------------

def test_bal_rules_accepted():
    proof = bal_proof(
        "BAL_DEMO",
        [
            ("x", Assume(1)),
            ("y", Assume(2)),
            ("x -> y", BalG(1, 2)),
            ("(x -> y) ^+", BalPi(3)),
            ("(x ^+ -> y ^+) ^+", BalMi(4)),
            ("(x -> y) ^+ -> (x ^+ -> y ^+) ^+", BalG(4, 5)),
        ],
        assumptions=("x", "y"),
    )
    report = check_proof(proof)
    assert report.accepted, report.summary()


def test_bal_modus_ponens():
    proof = bal_proof(
        "BAL_MP",
        [("x", Assume(1)), ("x -> y", Assume(2)), ("y", Mp(1, 2))],
        assumptions=("x", "x -> y"),
    )
    assert check_proof(proof).accepted


@pytest.mark.parametrize("premise", ["x ^+", "x -> x"])
def test_balmi_needs_pos_implication(premise):
    proof = bal_proof(
        "BAL_MI_BAD",
        [(premise, Assume(1)), ("(x ^+ -> x ^+) ^+", BalMi(1))],
        assumptions=(premise,),
    )
    report = check_proof(proof)
    assert not report.accepted
    assert report.statuses[1] == LineStatus(2, False, "line 1 does not have shape (a -> b) ^+")


#: one accepted and one rejected line for each of balmi, balg and balpi
BAL_RULES = """\
system: BAL
name: BAL_RULES
assume 1: (a -> b) ^+
1: (a -> b) ^+ | assume 1
2: (a ^+ -> b ^+) ^+ | balmi 1
3: (b ^+ -> a ^+) ^+ | balmi 1
4: (a -> b) ^+ -> (a ^+ -> b ^+) ^+ | balg 1 2
5: (a ^+ -> b ^+) ^+ -> (a -> b) ^+ | balg 1 2
6: (a -> b) ^+ ^+ | balpi 1
7: a ^+ | balpi 1
qed: 6
"""


@pytest.mark.parametrize(
    "index, message",
    [
        (1, ""),
        (2, ""),
        (3, "formula is not (a ^+ -> b ^+) ^+ for line 1"),
        (4, ""),
        (5, "formula is not (line 1) -> (line 2)"),
        (6, ""),
        (7, "formula is not (line 1) ^+"),
    ],
)
def test_bal_rules_build_the_formula_they_check(index, message):
    report = check_proof(parse_proof(BAL_RULES))
    assert report.statuses[index - 1] == LineStatus(index, not message, message)
    assert report.summary() == "REJECTED at line 3: formula is not (a ^+ -> b ^+) ^+ for line 1"


def test_bal_rejects_ri():
    proof = bal_proof("BAL_RI", [("x -> x", Assume(1)), ("x", Ri(1))], assumptions=("x -> x",))
    assert "not part of BAL" in check_proof(proof).statuses[1].message


# -- lemma citation -----------------------------------------------------------

def _chain_rule():
    # from x -> y and y -> z, conclude x -> z
    return rl_proof(
        "CHAIN",
        [
            ("PHI -> PSI", Assume(1)),
            ("PSI -> CHI", Assume(2)),
            ("(PHI -> PSI) -> (PSI -> CHI) -> PHI -> CHI", Axiom("R1a")),
            ("(PSI -> CHI) -> PHI -> CHI", Mp(1, 3)),
            ("PHI -> CHI", Mp(2, 4)),
        ],
        assumptions=("PHI -> PSI", "PSI -> CHI"),
    )


def test_lemma_application_instantiates():
    library = TheoremLibrary().register(_chain_rule())
    proof = rl_proof(
        "USES_CHAIN",
        [
            ("a -> b \\/ c", Assume(1)),
            ("b \\/ c -> 0", Assume(2)),
            ("a -> 0", Lemma("CHAIN", (1, 2))),
        ],
        assumptions=("a -> b \\/ c", "b \\/ c -> 0"),
    )
    assert check_proof(proof, library).accepted


def test_lemma_conclusion_must_match():
    library = TheoremLibrary().register(_chain_rule())
    proof = rl_proof(
        "USES_CHAIN_BAD",
        [
            ("a -> b", Assume(1)),
            ("b -> c", Assume(2)),
            ("a -> b", Lemma("CHAIN", (1, 2))),
        ],
        assumptions=("a -> b", "b -> c"),
    )
    report = check_proof(proof, library)
    assert not report.accepted
    assert "conclusion" in report.statuses[2].message


def test_zero_premise_lemma_cites_theorem_instances():
    # a registered theorem with no assumptions can be cited at any instance
    theorem = rl_proof("SELF", [("PHI -> PHI \\/ PSI", Axiom("R2"))])
    library = TheoremLibrary().register(theorem)
    proof = rl_proof(
        "USES_SELF",
        [("(a -> b) -> (a -> b) \\/ 0", Lemma("SELF", ()))],
    )
    assert check_proof(proof, library).accepted


def test_lemma_must_come_from_same_system():
    theorem = bal_proof("BAL_TRIV", [("x -> y", Assume(1))], assumptions=("x -> y",))
    library = TheoremLibrary().register(theorem)
    proof = rl_proof(
        "CROSS",
        [("a -> b", Assume(1)), ("a -> b", Lemma("BAL_TRIV", (1,)))],
        assumptions=("a -> b",),
    )
    assert "belongs to BAL" in check_proof(proof, library).statuses[1].message


def test_axiom_tables_have_exactly_the_declared_schemas():
    assert set(RL_AXIOMS) == {"R1a", "R1b", "R2", "R3", "R4", "R5a", "R5b", "R6a", "R6b"}
    assert set(BAL_AXIOMS) == {"BALB", "BALC", "BALN", "BALP", "BALO"}


def test_lemma_unknown_and_wrong_arity():
    library = TheoremLibrary().register(_chain_rule())
    missing = rl_proof("L1", [("a", Lemma("NOPE", ()))])
    assert "unknown lemma" in check_proof(missing, library).first_error.message
    wrong = rl_proof(
        "L2",
        [("a -> b", Assume(1)), ("a -> b", Lemma("CHAIN", (1,)))],
        assumptions=("a -> b",),
    )
    assert "needs 2 premises" in check_proof(wrong, library).first_error.message


# -- registration ---------------------------------------------------------------

def test_register_rejects_unchecked():
    bad = rl_proof("BAD", [("a", Axiom("R2"))])
    with pytest.raises(RegistrationError):
        TheoremLibrary().register(bad)


def test_register_idempotent_and_conflicting():
    chain = _chain_rule()
    library = register_theorem(TheoremLibrary(), chain)
    again = register_theorem(library, chain)
    assert again.names() == library.names()
    different = rl_proof(
        "CHAIN",
        [("a", Assume(1))],
        assumptions=("a",),
    )
    with pytest.raises(RegistrationError):
        register_theorem(library, different)


def test_admit_refuses_a_taken_name_before_checking(monkeypatch):
    chain = _chain_rule()
    library = TheoremLibrary().register(chain)
    report, again = library.admit(chain)  # an identical proof is checked and changes nothing
    assert report.accepted and again is library
    checked = []
    monkeypatch.setattr(kernel, "check_proof", lambda *args: checked.append(args))
    rejected = rl_proof("CHAIN", [("a", Axiom("R2"))])  # whose report would be a rejection
    with pytest.raises(RegistrationError, match=r"^name 'CHAIN' already registered with different content$"):
        library.admit(rejected)
    assert checked == []


# -- text format ------------------------------------------------------------------

PROOF_TEXT = """\
# tiny demonstration script
system: RL
name: DEMO
assume 1: a
assume 2: a -> b
1: a | assume 1
2: a -> b | assume 2
3: b | mp 1 2
qed: 3
"""


def test_parse_proof_text():
    proof = parse_proof(PROOF_TEXT)
    assert proof.name == "DEMO"
    assert proof.system == "RL"
    assert len(proof.lines) == 3
    assert proof.conclusion == 3
    assert check_proof(proof).accepted


def test_format_parse_round_trip():
    proof = parse_proof(PROOF_TEXT)
    assert parse_proof(format_proof(proof)) == proof


def test_parse_proof_errors():
    bad_texts = [
        "name: X\n1: a | assume 1\nqed: 1\n",                 # missing system
        "system: RL\n1: a | assume 1\nqed: 1\n",              # missing name
        "system: RL\nname: X\nqed: 1\n",                      # no lines
        "system: RL\nname: X\n1: a | assume 1\n",             # missing qed
        "system: RL\nname: X\nassume 2: a\n1: a | assume 1\nqed: 1\n",  # bad assume index
        "system: RL\nname: X\n1: a | nonsense 1\nqed: 1\n",   # unknown justification
        "system: RL\nname: X\n1: a  assume 1\nqed: 1\n",      # missing separator
    ]
    for text in bad_texts:
        with pytest.raises(ProofFormatError):
            parse_proof(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("system: RL\nname: X\n1: a |\nqed: 1\n", "line 3: empty justification"),
        ("system: RL\nname: X\n1: a | axiom\nqed: 1\n", "line 3: axiom needs one name"),
        ("system: RL\nname: X\n1: a | assume 1 2\nqed: 1\n", "line 3: assume needs one index"),
        ("system: RL\nname: X\n1: a | lemma\nqed: 1\n", "line 3: lemma needs a name"),
        ("system: BAL\nname: X\n\n1: a | balg 1\nqed: 1\n", "line 4: balg needs 2 line indices"),
        ("system: RL\nname: X\nassume 1 a\nqed: 1\n", "line 3: assumption needs `assume <k>: <formula>`"),
        ("name: X\nassume 1: a\nqed: 1\n", "line 2: system must be declared before assumptions"),
        ("name: X\n1: a | assume 1\nqed: 1\n", "line 2: system must be declared before proof lines"),
        ("system: RL\nname: X\n1: a  assume 1\nqed: 1\n", "line 3: proof line needs `<index>: <formula> | <justification>`"),
        # after the last line: no line to name
        ("name: X\nqed: 1\n", "missing `system:` header"),
        ("system: RL\nname: X\n1: a | assume 1\n", "missing `qed:` footer"),
    ],
    ids=["empty", "axiom", "assume", "lemma", "arity", "assumption", "system-assume", "system-line", "separator",
         "no-system", "no-qed"],
)
def test_format_errors_name_their_line(text, message):
    with pytest.raises(ProofFormatError, match=rf"^{re.escape(message)}$"):
        parse_proof(text)


def test_unknown_justification_is_named_before_its_arguments():
    with pytest.raises(ProofFormatError, match=r"^line 3: unknown justification 'nonsense'$"):
        parse_proof("system: RL\nname: X\n1: a | nonsense x\nqed: 1\n")


#: BALN at `a \/ b` under `system: BAL`: BAL has no join, and the line
#: was read under the first header, in RL's grammar
SECOND_HEADER = (
    "system: RL\nname: X\n1: (((a \\/ b) -> c) -> c) -> (a \\/ b) | axiom BALN\nsystem: BAL\nqed: 1\n"
)


def test_second_system_header_is_rejected():
    with pytest.raises(ProofFormatError, match=r"^line 4: a proof has one `system:` header$"):
        parse_proof(SECOND_HEADER)


@pytest.mark.parametrize(
    "text, message",
    [
        # the later line replaced the earlier one: the proof registered as B
        ("system: RL\nname: A\n1: a -> a \\/ b | axiom R1a\nname: B\nqed: 1\n", "line 4: a proof has one `name:` header"),
        ("system: RL\nname:\nname: B\n1: a -> a \\/ b | axiom R1a\nqed: 1\n", "line 3: a proof has one `name:` header"),
        # the conclusion became line 7
        ("system: RL\nname: A\n1: a -> a \\/ b | axiom R1a\nqed: 1\nqed: 7\n", "line 5: a proof has one `qed:` footer"),
        ("system:\nname: A\nsystem: RL\n1: a -> a \\/ b | axiom R1a\nqed: 1\n", "line 3: a proof has one `system:` header"),
    ],
    ids=["name", "empty-name", "qed", "empty-system"],
)
def test_second_header_or_footer_is_rejected(text, message):
    with pytest.raises(ProofFormatError, match=rf"^{message}$"):
        parse_proof(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("system: XYZ\nname: X\n1: a | axiom R1a\nqed: 1\n", "line 1: unknown system 'XYZ'"),
        ("name: X\n\nsystem: rl\n1: a | axiom R1a\nqed: 1\n", "line 3: unknown system 'rl'"),
        ("system: RL\nname: X\nqed: 1\nsystem: XYZ\n", "line 4: a proof has one `system:` header"),
    ],
    ids=["first-line", "lower-case", "second"],
)
def test_unknown_system_is_rejected_at_its_line(text, message):
    with pytest.raises(ProofFormatError, match=rf"^{message}$"):
        parse_proof(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("system: RL\nname: X\nassume ¹: a\n1: a | assume 1\nqed: 1\n", "assumption index must be 1"),
        ("system: RL\nname: X\n1: a -> a | axiom R1a\nqed: ¹\n", "qed needs a line index"),
        ("system: RL\nname: X\n²: a -> a | axiom R1a\nqed: 2\n", "proof line needs a numeric index before `:`"),
        ("system: RL\nname: X\nassume 1: a\n1: a | assume ¹\nqed: 1\n", "assume needs one index"),
        ("system: RL\nname: X\n1: a | lemma L ¹\nqed: 1\n", "lemma premises must be line indices"),
        ("system: RL\nname: X\n1: a | mp ¹ ²\nqed: 1\n", "mp arguments must be line indices"),
        pytest.param(
            "system: RL\nname: X\n1: a -> a | axiom R1a\nqed: " + "1" * 5000 + "\n", "qed needs a line index",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"),
        ),
    ],
    ids=["assumption", "qed", "line", "assume", "lemma", "rule", "qed-5000-digits"],
)
def test_indices_are_ascii_digits(text, message):
    # str.isdigit takes superscripts, which int() refuses, as it refuses
    # more digits than the interpreter converts (4,300 by default)
    with pytest.raises(ProofFormatError, match=rf"^line \d+: {message}$"):
        parse_proof(text)


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("system: RL\nname: X\nassume 1: a -> )\n1: a | assume 1\nqed: 1\n", "line 3: unexpected ')'", 5),
        ("system: RL\nname: X\nassume 1: a\n1: a -> | assume 1\nqed: 1\n", "line 4: unexpected end of input", 4),
    ],
    ids=["assumption", "line"],
)
def test_formula_syntax_error_names_its_line(text, message, offset):
    # the offset stays relative to the formula text, so the line is named
    with pytest.raises(ParseError, match=rf"^{re.escape(message)} at offset {offset} \(expected: ") as caught:
        parse_proof(text)
    assert caught.value.offset == offset
    assert caught.value.expected == frozenset({"(", "0", "metavariable", "variable", "~"})


def test_rule_keywords_are_class_names():
    rules = [Assume(1), Axiom("R2"), Mp(1, 2), Ri(1), BalG(1, 2), BalPi(1), BalMi(1), Lemma("L"), Lemma("L", (1, 2))]
    for just in rules:
        text = format_justification(just)
        assert text.split()[0] == type(just).__name__.lower()
        proof = parse_proof(f"system: BAL\nname: X\n1: a | {text}\nqed: 1\n")
        assert proof.lines[0].justification == just
    assert [format_justification(j) for j in rules[-2:]] == ["lemma L", "lemma L 1 2"]
    with pytest.raises(TypeError, match="unknown justification"):
        format_justification("mp 1 2")


def test_parse_proof_allows_sparse_indices():
    text = "system: RL\nname: X\n2: a -> a \\/ b | axiom R2\n9: (a -> a \\/ b) \\/ c -> (a -> a \\/ b) \\/ c \\/ c | ri 2\nqed: 2\n"
    proof = parse_proof(text)
    assert [ln.index for ln in proof.lines] == [2, 9]
    report = check_proof(proof)
    assert not report.accepted  # ri line shape is wrong on purpose
    assert report.statuses[1].index == 9
