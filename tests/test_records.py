"""The value records of every module: equality, hashing, immutability,
construction, pickling and repr, as frozen dataclasses had them; and the
statuses ``check_proof`` shares between reports."""

import pickle

import pytest

from rieszlogic import bridge, decide, distrib, kernel, semantics
from rieszlogic.kernel import (
    BalG,
    BalPi,
    LineStatus,
    Lemma,
    Mp,
    Proof,
    ProofLine,
    RegistrationError,
    Ri,
    TheoremLibrary,
    check_proof,
    parse_proof,
)
from rieszlogic.syntax import parse_bal, parse_rl


def _samples():
    a_or_b = parse_rl("a -> a \\/ b")
    line = ProofLine(1, a_or_b, kernel.Axiom("R2"))
    v = semantics.Valuation(2, {"a": semantics.vector(1, "-1/2"), "b": semantics.vector(0, 3)})
    valid = decide.decide_valid(a_or_b)
    return [
        kernel.Assume(1), kernel.Axiom("R2"), Mp(1, 2), Ri(3), BalG(1, 2), BalPi(3), kernel.BalMi(4),
        Lemma("x"), Lemma("L", (1, 2)), line,
        Proof("RL", "P", (parse_rl("a"),), (line,), 1),
        LineStatus(1, True), LineStatus(2, False, "why"),
        check_proof(Proof("RL", "P", (), (line,), 1)),
        decide.LinearTerm.of({"b": -2, "a": 1}),
        decide.linearize(parse_rl("a -> b")),
        valid, valid.branches[0], decide.Valid(),
        decide.decide_valid(parse_rl("a -> b")),
        bridge.bal_to_rl(parse_bal("a ^+ -> b")),
        bridge.check_equivalence(parse_rl("a \\/ b"), trials=5),
        distrib.load_matrix("t,d1,d2\nx,1,--\ny,3/2,2\n"),
        v,
        semantics.evaluate(parse_rl("a -> b"), v),
    ]


# recorded from the frozen dataclasses these records replace
REPRS = [
    "Assume(index=1)",
    "Axiom(name='R2')",
    "Mp(minor=1, major=2)",
    "Ri(premise=3)",
    "BalG(left=1, right=2)",
    "BalPi(premise=3)",
    "BalMi(premise=4)",
    "Lemma(name='x', premises=())",
    "Lemma(name='L', premises=(1, 2))",
    "ProofLine(index=1, formula=Imp(left=Var(name='a'), right=Join(left=Var(name='a'), right=Var(name='b'))), "
    "justification=Axiom(name='R2'))",
    "Proof(system='RL', name='P', assumptions=(Var(name='a'),), lines=(ProofLine(index=1, formula=Imp(left=Var("
    "name='a'), right=Join(left=Var(name='a'), right=Var(name='b'))), justification=Axiom(name='R2')),), conclusion=1)",
    "LineStatus(index=1, ok=True, message='')",
    "LineStatus(index=2, ok=False, message='why')",
    "CheckReport(proof_name='P', statuses=(LineStatus(index=1, ok=True, message=''),), accepted=True)",
    "LinearTerm(coeffs=(('a', 1), ('b', -2)))",
    "MeetJoinNormalForm(clauses=(frozenset({LinearTerm(coeffs=(('a', -1), ('b', 1)))}),))",
    "Valid(branches=(Refutation(rows=((0, -1, 1), (0, 1, -1), (1, 0, -1)), rhs=(-1, 0, 0), weights=(1, 1, 0)),))",
    "Refutation(rows=((0, -1, 1), (0, 1, -1), (1, 0, -1)), rhs=(-1, 0, 0), weights=(1, 1, 0))",
    "Valid(branches=())",
    "CounterExample(valuation=Valuation(dimension=1, assignment={'a': (Fraction(1, 1),), 'b': (Fraction(0, 1),)}))",
    "RlPair(first=Imp(left=Join(left=Var(name='a'), right=Zero()), right=Var(name='b')), "
    "second=Imp(left=Imp(left=Join(left=Var(name='a'), right=Zero()), right=Var(name='b')), right=Zero()))",
    "EquivalenceReport(trials=5, discrepancy=None)",
    "TermDocumentMatrix(terms=('x', 'y'), contexts=('d1', 'd2'), "
    "counts=((Fraction(1, 1), Fraction(0, 1)), (Fraction(3, 2), Fraction(2, 1))))",
    "Valuation(dimension=2, assignment={'a': (Fraction(1, 1), Fraction(-1, 2)), "
    "'b': (Fraction(0, 1), Fraction(3, 1))})",
    "EvalResult(value=(Fraction(-1, 1), Fraction(7, 2)), holds=False)",
]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_every_record_class_prints_as_recorded():
    samples = _samples()
    assert len({type(r) for r in samples}) == 22
    assert [repr(r) for r in samples] == REPRS


def test_equality_depends_on_class():
    assert Mp(1, 2) == Mp(1, 2) and Mp(1, 2) != BalG(1, 2)
    assert Ri(3) == Ri(3) and Ri(3) != BalPi(3)
    assert Mp(1, 2) != (1, 2) and LineStatus(1, True) != LineStatus(1, False)


def test_a_changed_rule_is_not_a_re_registration():
    text = "system: BAL\nname: T\nassume 1: a\nassume 2: a -> b\n1: a | assume 1\n2: a -> b | assume 2\n"
    text += "3: b | {}\nqed: 3\n"
    library = TheoremLibrary().register(parse_proof(text.format("mp 1 2")))
    assert library.register(parse_proof(text.format("mp 1 2"))) is library
    with pytest.raises(RegistrationError, match="different content"):
        library.register(parse_proof(text.format("balg 1 2")))


def test_hash_is_the_hash_of_the_fields_tuple():
    for record in _samples():
        if type(record) is decide.LinearTerm:  # a tuple of its pairs, not a Record
            assert hash(record) == hash(record.coeffs) and record == record.coeffs
            continue
        try:
            expected = hash(_fields(record))
        except TypeError:  # a Valuation holds a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected, record


def test_fields_can_be_neither_assigned_nor_deleted():
    for record in _samples():
        for name in type(record).__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_keyword_construction_and_defaults():
    assert decide.Valid() == decide.Valid(()) == decide.Valid(branches=())
    assert Lemma("x") == Lemma("x", ()) == Lemma(premises=(), name="x")
    assert LineStatus(1, True) == LineStatus(1, True, "") == LineStatus(index=1, ok=True)
    assert Mp(minor=1, major=2) == Mp(1, major=2) == Mp(1, 2)
    assert semantics.Valuation(1).assignment == {} and semantics.Valuation(dimension=1) == semantics.Valuation(1)
    for call in (lambda: Mp(1), lambda: Mp(1, 2, 3), lambda: Mp(1, minor=2), lambda: Mp(1, 2, x=3),
                 lambda: LineStatus(ok=True), lambda: Lemma(), lambda: decide.Valid((), ())):
        with pytest.raises(TypeError):
            call()


def test_checked_constructors_still_check():
    with pytest.raises(semantics.ValuationError):
        semantics.Valuation(0)
    caller = {"a": semantics.vector(1)}
    v = semantics.Valuation(1, caller)
    caller["b"] = semantics.vector(2)
    assert v.assignment == {"a": semantics.vector(1)}  # a copy, detached from the caller's dict
    a = parse_rl("a")
    with pytest.raises(ValueError, match="first -> 0"):
        bridge.RlPair(a, a)


def test_pickle_round_trip_gives_an_equal_record():
    for record in _samples():
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)


# -- statuses shared between reports ----------------------------------------------

def test_two_checks_share_their_accepted_statuses():
    proof = parse_proof(kernel.corpus_text("balmp_plus"))
    first, second = check_proof(proof), check_proof(proof)
    assert first == second and first.accepted
    assert all(s is t for s, t in zip(first.statuses, second.statuses))
    # a rejected line's status is its own; the accepted ones before it are shared
    bad = proof.lines[1]
    mutated = Proof(proof.system, proof.name, proof.assumptions,
                    (proof.lines[0], ProofLine(bad.index, bad.formula, Mp(bad.index, bad.index))) + proof.lines[2:],
                    proof.conclusion)
    report = check_proof(mutated)
    assert report.statuses[0] is first.statuses[0] and not report.statuses[1].ok


def test_indices_past_the_shared_table_get_correct_statuses():
    n = 5000  # more accepted indices than the table keeps
    lines = tuple(ProofLine(3 * i, parse_rl("a"), kernel.Assume(1)) for i in range(1, n + 1))
    proof = Proof("RL", "MANY", (parse_rl("a"),), lines, 3 * n)
    for report in (check_proof(proof), check_proof(proof)):
        assert report.accepted
        assert report.statuses == tuple(LineStatus(3 * i, True) for i in range(1, n + 1))
    assert len(kernel._ACCEPTED) <= 4096
    # an index that is not an int gets a status of its own type
    odd = Proof("RL", "ODD", (parse_rl("a"),), (ProofLine(1.0, parse_rl("a"), kernel.Assume(1)),), 1)
    assert repr(check_proof(odd).statuses[0]) == "LineStatus(index=1.0, ok=True, message='')"
