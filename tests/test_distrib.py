import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rieszlogic.distrib import (
    MatrixFormatError,
    TermDocumentMatrix,
    UnknownTermError,
    cosine,
    entails,
    entails_witness,
    join,
    load_matrix,
    load_word_counts,
    meet,
)
from rieszlogic.semantics import vector
from util import limited


@pytest.fixture(scope="module")
def counts():
    return load_word_counts()


def test_fixture_shape(counts):
    assert len(counts.terms) == 6
    assert len(counts.contexts) == 8
    assert counts.count("banana", "d1") == 2


def test_dashes_mean_zero(counts):
    assert counts.row("tree") == vector(0, 0, 5, 0, 0, 5, 0, 0)


def test_meet_orange_fruit(counts):
    assert meet(counts, "orange", "fruit") == vector(0, 1, 1, 0, 0, 3, 0, 3)


def test_join_orange_fruit(counts):
    assert join(counts, "orange", "fruit") == vector(0, 2, 3, 0, 4, 7, 5, 3)


def test_meet_idempotent(counts):
    for term in counts.terms:
        assert meet(counts, term, term) == counts.row(term)


def test_entails_computer_apple(counts):
    assert entails(counts, "computer", "apple")


def test_entails_orange_fruit_fails_at_d6(counts):
    # d2 also violates (2 > 1); the reported witness is the largest gap
    assert not entails(counts, "orange", "fruit")
    assert entails_witness(counts, "orange", "fruit") == ("d6", Fraction(7), Fraction(3))
    assert entails_witness(counts, "fruit", "orange") == ("d7", Fraction(5), Fraction(0))
    assert entails_witness(counts, "computer", "apple") is None


def test_entails_reflexive(counts):
    for term in counts.terms:
        assert entails(counts, term, term)


def test_entailment_equals_lattice_conditions(counts):
    for t1, t2 in itertools.product(counts.terms, repeat=2):
        expected = entails(counts, t1, t2)
        assert (meet(counts, t1, t2) == counts.row(t1)) == expected
        assert (join(counts, t1, t2) == counts.row(t2)) == expected


def test_lattice_laws_all_pairs(counts):
    for t1, t2 in itertools.combinations(counts.terms, 2):
        low = meet(counts, t1, t2)
        high = join(counts, t1, t2)
        for term in (t1, t2):
            row = counts.row(term)
            assert all(a <= b for a, b in zip(low, row))
            assert all(a <= b for a, b in zip(row, high))
        # absorption: meet(t1, join(t1, t2)) = t1
        absorbed = tuple(min(a, b) for a, b in zip(counts.row(t1), high))
        assert absorbed == counts.row(t1)


def test_entails_antisymmetric_and_transitive(counts):
    terms = counts.terms
    for t1, t2 in itertools.product(terms, repeat=2):
        if entails(counts, t1, t2) and entails(counts, t2, t1):
            assert counts.row(t1) == counts.row(t2)
    for t1, t2, t3 in itertools.product(terms, repeat=3):
        if entails(counts, t1, t2) and entails(counts, t2, t3):
            assert entails(counts, t1, t3)


def test_cosine_self(counts):
    assert abs(cosine(counts, "fruit", "fruit") - 1.0) <= 1e-12


def test_cosine_disjoint_supports(counts):
    assert cosine(counts, "computer", "tree") == 0.0


def test_cosine_orange_fruit_regression(counts):
    # frozen from an exact high-precision computation of 35/sqrt(63*69)
    assert abs(cosine(counts, "orange", "fruit") - 0.5308517143921717) <= 1e-12


def test_cosine_keeps_the_sign_of_negative_entries():
    # the constructor takes negative entries; only load_matrix refuses them
    m = TermDocumentMatrix(("x", "y", "z"), ("d1", "d2"), (vector(1, 0), vector(-1, 0), vector("-1e400", 1)))
    assert cosine(m, "x", "y") == -1.0
    assert cosine(m, "y", "x") == -1.0
    assert cosine(m, "x", "z") == -1.0  # past the float range, the sign still comes from the exact dot
    assert cosine(m, "y", "z") == 1.0


@pytest.mark.parametrize(
    "rows",
    ["orange,1e400,1\nfruit,1e400,2\n", "orange,1e-400,1e-400\nfruit,1e-400,2e-400\n"],
    ids=["overflow", "underflow"],
)
def test_cosine_of_counts_outside_float_range(rows):
    # as floats, the norms overflow, or both underflow to 0.0
    m = load_matrix("term,d1,d2\n" + rows)
    value = cosine(m, "orange", "fruit")
    assert math.isfinite(value) and 0 <= value <= 1
    assert cosine(m, "orange", "orange") == 1.0


def test_unknown_term(counts):
    with pytest.raises(UnknownTermError):
        meet(counts, "orange", "grape")


def test_zero_vector_cosine():
    m = load_matrix("term,d1\nfull,3\nempty,--\n")
    with pytest.raises(ValueError, match="^term 'empty' has the zero vector$"):
        cosine(m, "full", "empty")
    with pytest.raises(ValueError, match="^term 'empty' has the zero vector$"):
        cosine(m, "empty", "full")


def test_count_of_an_unknown_context(counts):
    with pytest.raises(MatrixFormatError, match="^unknown context 'd9'$"):
        counts.count("banana", "d9")


def test_load_header_without_label_cell():
    m = load_matrix("d1,d2\nx,1,2\n")
    assert m.contexts == ("d1", "d2")
    assert m.row("x") == vector(1, 2)


def test_load_fractional_counts():
    m = load_matrix("term,d1\nx,3/2\n")
    assert m.row("x") == (Fraction(3, 2),)


def test_load_bounds_the_digits_of_a_count():
    assert load_matrix("term,d1\nx,1e4299\n").row("x") == (Fraction(10) ** 4299,)
    with pytest.raises(MatrixFormatError, match=r"^row 3: number '1e4300' has a numerator of more than 4300 digits$"):
        load_matrix("term,d1\nx,1\ny,1e4300\n")


def test_load_rejects_bad_input():
    bad = [
        "",                           # empty file
        "term,d1\n",                  # no data rows
        "term,d1,d2\nx,1\n",          # ragged row
        "term,d1\nx,-3\n",            # negative count
        "term,d1\nx,1\nx,2\n",        # duplicate term
        "term,d1\nx,abc\n",           # unparsable count
        "term,d1\n,1\n",              # empty term name
    ]
    for text in bad:
        with pytest.raises(MatrixFormatError):
            load_matrix(text)


@pytest.mark.parametrize(
    "terms, contexts, counts, message",
    [
        (("a", "b"), ("c1",), (vector(1, 2), vector(2, 1)), "row 'a' has length 2, expected 1"),
        (("a", "b"), ("c1", "c2"), (vector(1, 2), vector(2)), "row 'b' has length 1, expected 2"),
        (("a", "a"), ("c1",), (vector(1), vector(2)), "duplicate term 'a'"),
        (("a",), ("c1",), (vector(1), vector(2)), "counts has length 2, expected 1"),
        (("a", "b"), ("c1",), (vector(1),), "counts has length 1, expected 2"),
    ],
)
def test_matrix_built_through_the_api_checks_its_shape(terms, contexts, counts, message):
    # before, every operation zipped a mismatch away: with the first row,
    # entails(m, "a", "b") read True while meet returned two coordinates
    with pytest.raises(MatrixFormatError, match=f"^{message}$"):
        TermDocumentMatrix(terms, contexts, counts)
    with pytest.raises(MatrixFormatError, match=f"^{message}$"):
        TermDocumentMatrix(terms=terms, contexts=contexts, counts=counts)


def test_load_keeps_its_own_messages():
    # load_matrix checks each row before it constructs, and names its line
    with pytest.raises(MatrixFormatError, match=r"^duplicate term 'x'$"):
        load_matrix("term,d1\nx,1\nx,2\n")
    with pytest.raises(MatrixFormatError, match=r"^row 3: bad count '1/0'$"):
        load_matrix("term,d1\nx,1\ny,1/0\n")
    with pytest.raises(MatrixFormatError, match=r"^row 3 has 3 cells, expected 2$"):
        load_matrix("term,d1\nx,1\ny,1,2\n")


_MANY_TERMS = r"""
import json
from rieszlogic.distrib import MatrixFormatError, TermDocumentMatrix, load_matrix

n = 60_000
m = load_matrix("t,c1,c2\n" + "".join(f"w{i},{i % 7},{i % 5}\n" for i in range(n)))
terms = tuple(f"w{i}" for i in range(n)) + (f"w{n - 1}",)
try:
    TermDocumentMatrix(terms, ("c1",), ((0,),) * len(terms))
    message = None
except MatrixFormatError as exc:
    message = str(exc)
print(json.dumps([len(m.terms), [int(c) for c in m.row("w59999")], message]))
"""


def test_loading_takes_time_linear_in_the_terms():
    # a duplicate check that scans the terms read so far, or counts each term
    # among all of them, is quadratic and runs past this CPU limit at 60,000
    # terms; one dict of rows and one counting pass take about 1.3 s of CPU on
    # a shared 2-vCPU Xeon VM
    result = subprocess.run(
        [sys.executable, "-c", _MANY_TERMS], capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).parent, preexec_fn=limited(15),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [60_000, [59_999 % 7, 59_999 % 5], "duplicate term 'w59999'"]
