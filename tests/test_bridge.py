import random

import pytest

from rieszlogic import bridge
from rieszlogic.bridge import (
    RESERVED_ZERO_VAR,
    EquivalenceReport,
    ReservedVariableError,
    RlPair,
    bal_to_rl,
    check_equivalence,
    rl_to_bal,
)
from rieszlogic.decide import Valid, decide_bal_valid
from rieszlogic.semantics import Valuation, eval_bal, eval_rl, holds_bal, holds_rl, vector
from rieszlogic.syntax import (
    Imp,
    Join,
    Zero,
    format_formula,
    parse_bal,
    parse_rl,
    variables,
)
from util import random_bal_formula, random_rl_formula, random_valuation


def test_variable_translates_to_clamped_negation():
    translated = rl_to_bal(parse_rl("a"))
    assert translated == parse_bal("(a -> z -> z) ^+")


def test_zero_translates_to_self_implication():
    translated = rl_to_bal(parse_rl("0"))
    assert translated == parse_bal("((z -> z) -> z -> z) ^+")


def test_join_with_zero_translates_to_bal_tautology():
    translated = rl_to_bal(parse_rl("a \\/ 0"))
    assert isinstance(decide_bal_valid(translated), Valid)


def test_translations_refuse_the_other_language():
    with pytest.raises(TypeError, match=r"^not a BAL formula: Join\(left=Var\(name='a'\), right=Var\(name='b'\)\)$"):
        bal_to_rl(parse_rl("a \\/ b"))
    with pytest.raises(TypeError, match=r"^not an RL formula: Pos\(inner=Var\(name='a'\)\)$"):
        rl_to_bal(parse_bal("a ^+"))


def test_reserved_variable_refused():
    with pytest.raises(ReservedVariableError):
        rl_to_bal(parse_rl(f"{RESERVED_ZERO_VAR} -> a"))


def test_bal_to_rl_implication():
    pair = bal_to_rl(parse_bal("x -> y"))
    assert pair == RlPair(parse_rl("x -> y"), parse_rl("(x -> y) -> 0"))


def test_bal_to_rl_positive_part():
    pair = bal_to_rl(parse_bal("x ^+"))
    assert format_formula(pair.first) == "x \\/ 0"
    assert format_formula(pair.second) == "x \\/ 0 -> 0"


def test_bal_to_rl_nested():
    pair = bal_to_rl(parse_bal("(x -> y) ^+"))
    assert pair.first == parse_rl("(x -> y) \\/ 0")
    assert pair.second == Imp(pair.first, Zero())


def test_pair_invariant_enforced():
    with pytest.raises(ValueError):
        RlPair(parse_rl("a"), parse_rl("b -> 0"))


# -- semantic equivalence -------------------------------------------------------

def test_check_equivalence_examples():
    assert check_equivalence(parse_rl("a -> a \\/ b"), trials=500, seed=3).agreed
    assert check_equivalence(parse_rl("a"), trials=500, seed=3).agreed
    assert check_equivalence(parse_rl("0"), trials=20, seed=3).agreed


def test_check_equivalence_reports_first_discrepancy(monkeypatch):
    # with the translation replaced by the identity, "a -> b" holds in RL
    # when b >= a but in BAL only when b == a
    monkeypatch.setattr(bridge, "rl_to_bal", lambda f: f)
    report = check_equivalence(parse_rl("a -> b"), trials=200, seed=4, dimension=2)
    assert report.discrepancy == (3, Valuation(2, {"a": vector(-9, -3), "b": vector(6, 7)}))


# reports recorded from the seeded stream either side of the one-byte
# draw path (spans 255 and 257) and on the 32-bit word path, with a wrong
# translation, a -> f for f, that disagrees with f somewhere
PINNED_DISCREPANCIES = [
    ("a \\/ b -> a", 2, 127, 4, {"a": (114, -64), "b": (39, -114)}),
    ("a \\/ b -> a", 2, 128, 1, {"a": (-1, -102), "b": (-48, -71)}),
    ("a \\/ b -> a", 2, 2**20, 1, {"a": (-3974, -831088), "b": (-390694, -573756)}),
    ("(a -> b) \\/ c", 3, 127, 4, {"a": (-56, -81, 107), "b": (95, 69, -28), "c": (-87, 68, 77)}),
    ("(a -> b) \\/ c", 3, 128, 7, {"a": (-117, 55, 78), "b": (-119, 86, 59), "c": (64, -124, 103)}),
    (
        "(a -> b) \\/ c", 3, 2**20, 7,
        {"a": (-952671, 451491, 647156), "b": (-972796, 708112, 487313), "c": (530014, -1010499, 850698)},
    ),
]


@pytest.mark.parametrize("text, dimension, bound, trial, coords", PINNED_DISCREPANCIES)
def test_check_equivalence_pinned_reports(monkeypatch, text, dimension, bound, trial, coords):
    f = parse_rl(text)
    assert check_equivalence(f, trials=200, seed=5, dimension=dimension, bound=bound).agreed
    monkeypatch.setattr(bridge, "rl_to_bal", lambda g, translate=rl_to_bal: translate(Imp(parse_rl("a"), g)))
    report = check_equivalence(f, trials=200, seed=5, dimension=dimension, bound=bound)
    expected = Valuation(dimension, {name: vector(*c) for name, c in coords.items()})
    assert report == EquivalenceReport(200, (trial, expected))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": -3}, "trials must be an int >= 1, not -3"),
        ({"trials": 0}, "trials must be an int >= 1, not 0"),
        ({"trials": 2.5}, "trials must be an int >= 1, not 2.5"),
        ({"trials": "3"}, "trials must be an int >= 1, not '3'"),
        ({"dimension": 0}, "dimension must be an int >= 1"),
        ({"bound": -1}, "bound must be an int >= 0"),
        ({"bound": 1.5}, "bound must be an int >= 0"),
        ({"bound": True}, "bound must be an int >= 0, not True"),
        ({"bound": False}, "bound must be an int >= 0, not False"),
        ({"trials": True}, "trials must be an int >= 1, not True"),
        ({"dimension": True}, "dimension must be an int >= 1, not True"),
    ],
)
def test_check_equivalence_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        check_equivalence(parse_rl("a -> b"), **kwargs)


def test_forward_round_trip_law_sampled():
    rng = random.Random(31)
    for _ in range(150):
        f = random_rl_formula(rng, max_connectives=8)
        translated = rl_to_bal(f)
        for _ in range(20):
            v = random_valuation(rng, variables(f) | {RESERVED_ZERO_VAR}, dimension=2, bound=6)
            assert holds_rl(f, v) == holds_bal(translated, v)


def test_backward_round_trip_law_sampled():
    rng = random.Random(32)
    for _ in range(150):
        g = random_bal_formula(rng, max_connectives=8)
        pair = bal_to_rl(g)
        for _ in range(20):
            v = random_valuation(rng, variables(g), dimension=2, bound=6)
            assert holds_bal(g, v) == (holds_rl(pair.first, v) and holds_rl(pair.second, v))


def test_join_encoding_matches_join_value():
    # the encoded join evaluates to the componentwise maximum itself
    rng = random.Random(33)
    f = parse_rl("a \\/ b")
    encoded = rl_to_bal(f)
    # strip the outer (.. -> 0)^+ wrapper: evaluate the inner translation
    inner = encoded.inner.left
    for _ in range(200):
        v = random_valuation(rng, {"a", "b", RESERVED_ZERO_VAR}, dimension=2, bound=8)
        assert eval_bal(inner, v) == eval_rl(f, v)


def test_zero_variable_value_is_irrelevant():
    f = parse_rl("a \\/ 0 -> a ^+")
    translated = rl_to_bal(f)
    rng = random.Random(34)
    for _ in range(100):
        v = random_valuation(rng, {"a", RESERVED_ZERO_VAR}, dimension=1, bound=50)
        assert holds_bal(translated, v) == holds_rl(f, v)
