"""Proof replay pinned against recorded reports, and library snapshots.

Every line of every corpus proof gets eight single-line mutations, and
each mutant is checked against the library before its script, the full
library and no library: 377 lines x 8 x 3 = 9,048 reports.  Their
``repr``s are pinned by one sha256 per script, recorded before the
checker was rewritten.  The mutations depend on no hash seed, and
neither may the reports.
"""

import hashlib
import random

import pytest

from rieszlogic.kernel import (
    BAL_AXIOMS,
    CORPUS_NAMES,
    RL_AXIOMS,
    Axiom,
    BalG,
    BalPi,
    Lemma,
    Mp,
    Proof,
    ProofLine,
    Ri,
    TheoremLibrary,
    check_proof,
    corpus_text,
    parse_proof,
)
from rieszlogic.syntax import ZERO, Imp, Pos, parse_schema

AXIOM_NAMES = sorted(RL_AXIOMS) + sorted(BAL_AXIOMS)

# sha256 of "\n".join(repr(report)) over one script's 24 reports per line
PINNED = {
    "balmp_plus": "25f2b0595534b452e70c325bc657070b20f8090ac8313252330c3856a29c127a",
    "balmp_minus": "e413b2c46b4a68244ad65c6ba8acf782882820e69bfa4c58400245ebcbad9aff",
    "balpi_plus": "6aa53c90ac4b2c0bca42ca6954e8b828692f6ebb15fa4564353975cb14821708",
    "balpi_minus": "5d881d13b111b726a1d2bc696354ba0b3f36b28560d9d06915a6620c3d2be044",
    "balg_plus": "0f210e80014842b90dc50fe9202f5b6cf2c6309103cc82d73cf95f9a057a1499",
    "balg_minus": "b49c35351f3dfef7f2c1c237c66def50a35208aedf97c8f0dbbe725d6b88da77",
    "balmi_plus": "0d99aa80d202a7068ea6e9f1903840289f82406aa114a3576e801252b01e13d5",
    "balmi_part1": "5c21e4b0055c8efcbeb37abd59cc9ca67d774cf1e7d0b1ae444f86e2f6f5b8fb",
    "balmi_part2": "48acf9f3569604f7cde290e23a92230847526a80ac5969a4ba59f5d25d08bc06",
    "balmi_part3": "44d6da7ebe085818d71f7e548ce5770af3654fb90d1de4b5ff7677ff9e0b704b",
    "balb_plus": "d4e105139f28dffa17a0c19d98954edffa7a049f0dc6acdc89af9857d2f14437",
    "balb_minus": "3920dcffe4314efbe7b88562285034f58345f59389d72d6ee0911f6b4dfef673",
    "balc": "4327b78ab848cec159a30be5484b59474434e64390a247cd54f479a9a5dea0a0",
    "baln_plus": "ec79b57f792e63a9f2b7f80cc8b2a89d9a28932d5d3435be4cef3d7ddce7afbe",
    "baln_minus": "48912110d542c1f5e84143975da705ac0c0ff16430a5362914b2306d384b74e1",
    "balp_plus": "42d343524ec61fb351d067845d056ae0e6b8279d0327a207ba5e00fc2850ea17",
    "balp_minus": "02bf1a55eef8a5e4d33fc047ee32c78c55cd1f75107c6039ad55032f842a7c07",
    "asserting_positivity": "78ea509b3a25bf1acafe221facc9541f74a1be83a86b9f9eb08b3d2aba164c28",
}


def _libraries():
    """(stem, proof, library before the script) in load order, and the full library."""
    library, before = TheoremLibrary(), []
    for stem in CORPUS_NAMES:
        proof = parse_proof(corpus_text(stem))
        before.append((stem, proof, library))
        library = library.register(proof)
    return before, library


def _mutants(proof, full):
    """The eight single-line mutants of each line of proof, line by line."""
    names = sorted(full.names())
    for position, line in enumerate(proof.lines):
        rng = random.Random(f"{proof.name}:{line.index}")
        index, formula = line.index, line.formula
        lemma = full.get(rng.choice(names))
        earlier = max(index - 1, 0)
        wrapped = Imp(formula, ZERO) if proof.system == "RL" else Pos(formula)
        for new in (
            ProofLine(index, Imp(formula, formula), line.justification),
            ProofLine(index, formula, Mp(index, index)),
            ProofLine(index, formula, Axiom(rng.choice(AXIOM_NAMES))),
            ProofLine(index, formula, Mp(rng.randint(0, earlier), rng.randint(0, earlier))),
            ProofLine(index, formula, Lemma(lemma.name, (earlier,) * (len(lemma.assumptions) + 1))),
            ProofLine(index, formula, Ri(1)),
            ProofLine(index, formula, BalG(1, 1)),
            ProofLine(index, wrapped, line.justification),
        ):
            lines = proof.lines[:position] + (new,) + proof.lines[position + 1 :]
            yield Proof(proof.system, proof.name, proof.assumptions, lines, proof.conclusion)


def mutation_reports():
    """stem -> the reprs of its mutants' reports, in a fixed order."""
    before, full = _libraries()
    out = {}
    for stem, proof, library in before:
        out[stem] = [
            repr(check_proof(mutant, lib))
            for mutant in _mutants(proof, full)
            for lib in (library, full, None)
        ]
    return out


def test_mutation_reports_are_pinned():
    reports = mutation_reports()
    assert sum(map(len, reports.values())) == 9_048
    digests = {stem: hashlib.sha256("\n".join(texts).encode()).hexdigest() for stem, texts in reports.items()}
    assert digests == PINNED


def test_earlier_library_does_not_see_later_names():
    before, full = _libraries()
    for k, (stem, proof, library) in enumerate(before):
        assert len(library) == k
        assert proof.name not in library and library.get(proof.name) is None
        assert library.names() == tuple(p.name for _, p, _ in before[:k])
        for _, p, _ in before[:k]:
            assert library.get(p.name) is p
    assert len(full) == len(before)


def _trivial(name):
    return parse_proof(f"system: RL\nname: {name}\nassume 1: a\n1: a | assume 1\nqed: 1\n")


def test_branching_libraries_stay_apart():
    base = TheoremLibrary().register(_trivial("A"))
    left = base.register(_trivial("B"))
    right = base.register(_trivial("C"))
    deeper = left.register(_trivial("C"))
    assert (base.names(), left.names(), right.names(), deeper.names()) == (
        ("A",), ("A", "B"), ("A", "C"), ("A", "B", "C"))
    assert "B" not in right and right.get("B") is None and len(right) == 2
    assert "C" not in left and left.get("C") is None and len(left) == 2
    assert deeper.get("C") == right.get("C") and deeper.get("C") is not right.get("C")
    assert left.register(left.get("B")) is left
    # a library built from a dict answers like one built by registration
    _, full = _libraries()
    copy = TheoremLibrary({name: full.get(name) for name in full.names()})
    assert copy.names() == full.names() and len(copy) == len(full)
    assert all(copy.get(name) is full.get(name) and name in copy for name in full.names())


def test_rule_subclasses_are_checked_as_their_rule():
    class Modus(Mp):
        pass

    class Extension(BalG):
        pass

    class Instance(Axiom):
        pass

    class Positive(BalPi):
        pass

    proof = parse_proof(
        "system: RL\nname: MP_SUB\nassume 1: a\nassume 2: a -> b\n"
        "1: a | assume 1\n2: a -> b | assume 2\n3: b | mp 1 2\nqed: 3\n"
    )
    # a row may name its system and line 3's formula; lines 1 and 2 are RL and BAL alike
    for rule, ok, message, *where in (
        (Modus(1, 2), True, ""),
        (Modus(2, 1), False, "line 1 is not (line 2) -> (this formula): expected (a -> b) -> b"),
        (Extension(1, 2), False, "rule extension is not part of RL"),
        ("mp 1 2", False, "rule str is not part of RL"),
        (Instance("R2"), True, "", "RL", "a -> a \\/ b"),
        (Instance("R3"), False, "not an instance of R3: metavariable PSI is bound inconsistently",
         "RL", "a \\/ b -> a \\/ a"),
        (Positive(1), True, "", "BAL", "a ^+"),
        (Positive(2), False, "formula is not (line 2) ^+", "BAL", "a ^+"),
    ):
        system, formula = (where[0], parse_schema(where[1], where[0])) if where else ("RL", proof.lines[2].formula)
        lines = proof.lines[:2] + (ProofLine(3, formula, rule),)
        status = check_proof(Proof(system, "MP_SUB", proof.assumptions, lines, 3)).statuses[2]
        assert (status.ok, status.message) == (ok, message)


def test_proof_line_finds_the_first_line_with_an_index():
    proof = _trivial("DUP")
    first = proof.lines[0]
    second = ProofLine(1, Imp(first.formula, first.formula), first.justification)
    dup = Proof("RL", "DUP", proof.assumptions, (first, second), 1)
    assert dup.line(1) is first and dup.conclusion_formula is first.formula
    with pytest.raises(KeyError):
        dup.line(2)
