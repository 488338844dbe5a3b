import json
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

from rieszlogic import semantics, syntax
from rieszlogic.bridge import bal_to_rl, check_equivalence, rl_to_bal
from rieszlogic.decide import linearize
from rieszlogic.kernel import RL_AXIOMS
from rieszlogic.semantics import (
    EvalResult,
    Valuation,
    ValuationError,
    _READ,
    _draws,
    _layout,
    compile_scalar,
    eval_bal,
    eval_rl,
    evaluate,
    format_valuation,
    holds_bal,
    holds_rl,
    parse_valuation,
    random_falsify,
    vector,
)
from rieszlogic.syntax import (
    Imp,
    Join,
    MetaVar,
    Pos,
    Var,
    Zero,
    format_formula,
    parse_bal,
    parse_rl,
    postorder,
    substitute,
    variables,
)
from util import limited, random_bal_formula, random_rational_valuation, random_rl_formula, random_valuation, reference_eval

# rows from the shipped term-document fixture, reused as handy vectors
ORANGE = vector(0, 2, 1, 0, 0, 7, 0, 3)
FRUIT = vector(0, 1, 3, 0, 4, 3, 5, 3)


def test_eval_implication_subtracts():
    v = Valuation(2, {"p": vector(2, 0), "q": vector(1, 3)})
    assert eval_rl(parse_rl("p -> q"), v) == vector(-1, 3)


def test_eval_zero_formula():
    v = Valuation(3, {"x": vector(1, 2, 3)})
    assert eval_rl(parse_rl("0"), v) == vector(0, 0, 0)


def test_eval_join_is_componentwise_max():
    v = Valuation(8, {"orange": ORANGE, "fruit": FRUIT})
    assert eval_rl(parse_rl("orange \\/ fruit"), v) == vector(0, 2, 3, 0, 4, 7, 5, 3)


def test_eval_bal_positive_part():
    v = Valuation(2, {"x": vector(-2, 5)})
    assert eval_bal(parse_bal("x ^+"), v) == vector(0, 5)


def test_eval_bal_implication():
    v = Valuation(1, {"x": vector(1), "y": vector(1)})
    assert eval_bal(parse_bal("x -> y"), v) == vector(0)


def test_eval_bal_clamped_difference():
    v = Valuation(2, {"x": vector(3, 1), "y": vector(1, 4)})
    assert eval_bal(parse_bal("(x -> y) ^+"), v) == vector(0, 3)


def test_holds_rl_examples():
    v = Valuation(2, {"p": vector(2, 0), "q": vector(1, 3)})
    assert not holds_rl(parse_rl("p -> q"), v)
    assert holds_bal(parse_bal("x -> y"), Valuation(1, {"x": vector(1), "y": vector(1)}))


def test_every_formula_holds_at_zero_valuation():
    # all values are homogeneous, so the zero valuation gives the zero vector
    rng = random.Random(11)
    v = Valuation(1, {})
    for _ in range(50):
        f = random_rl_formula(rng)
        assert eval_rl(f, v) == vector(0)
        assert holds_rl(f, v)


def test_unmapped_variables_default_to_zero():
    v = Valuation(2, {})
    assert eval_rl(parse_rl("p -> q"), v) == vector(0, 0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValuationError):
        Valuation(2, {"x": vector(1)})


@pytest.mark.parametrize(
    "dimension, assignment, message",
    [
        (0, {}, "dimension must be an int >= 1, not 0"),
        (1.5, {}, "dimension must be an int >= 1, not 1.5"),
        (2.0, {"a": (1, 2)}, "dimension must be an int >= 1, not 2.0"),
        ("2", {}, "dimension must be an int >= 1, not '2'"),
        (1, {"a": (0.5,)}, "vector for 'a' has coordinate 0.5, not an int or a Fraction"),
        (2, {"a": vector(1, 2), "b": (Fraction(1), "2")}, "vector for 'b' has coordinate '2', not an int or a Fraction"),
        (True, {}, "dimension must be an int >= 1, not True"),
        (True, {"a": (1,)}, "dimension must be an int >= 1, not True"),
        (1, {"a": (True,)}, "vector for 'a' has coordinate True, not an int or a Fraction"),
        (2, {"a": (1, False)}, "vector for 'a' has coordinate False, not an int or a Fraction"),
    ],
)
def test_valuation_rejects_bad_dimension_or_coordinate(dimension, assignment, message):
    with pytest.raises(ValuationError, match=f"^{re.escape(message)}$"):
        Valuation(dimension, assignment)


def test_valuation_takes_int_and_fraction_coordinates():
    v = Valuation(2, {"a": (1, Fraction(1, 2))})
    assert eval_rl(parse_rl("a -> 0"), v) == vector(-1, "-1/2")
    assert pickle.loads(pickle.dumps(v)) == v
    assert v.scale(Fraction(2)) == Valuation(2, {"a": vector(2, 1)})


def _int_point(rng: random.Random, names) -> Valuation:
    """A dimension-1 valuation of plain ints: the first of the sorted names
    is bound to 0, and "e", which no formula here has, is bound too."""
    ints = {name: (rng.randint(-10, 10) if k else 0,) for k, name in enumerate(sorted(names))}
    return Valuation(1, {**ints, "e": (rng.randint(-10, 10),)})


def test_evaluators_match_reference_on_rl_formulas():
    # the 1,000 acceptance-3 formulas, and their BAL translations, at
    # rational points of dimension 1 to 3 with unmapped variables, and at
    # integer points of dimension 1
    formulas, points, ints = random.Random(2024), random.Random(31), random.Random(33)
    for k in range(1000):
        f = random_rl_formula(formulas, max_connectives=12, max_vars=4)
        rational = random_rational_valuation(points, variables(f) | {"e"}, dimension=1 + k % 3)
        translated = rl_to_bal(f)
        for v in (rational, _int_point(ints, variables(f))):
            expected = reference_eval(f, v)
            assert eval_rl(f, v) == expected, k
            assert evaluate(f, v) == EvalResult(expected, min(expected) >= 0)
            assert holds_rl(f, v) == (min(expected) >= 0)
            assert eval_bal(translated, v) == reference_eval(translated, v, "BAL"), k
            assert holds_bal(translated, v) == holds_rl(f, v)


def test_evaluators_match_reference_on_bal_formulas():
    formulas, points, ints = random.Random(77), random.Random(32), random.Random(34)
    for k in range(300):
        g = random_bal_formula(formulas)
        rational = random_rational_valuation(points, variables(g), dimension=1 + k % 3)
        for v in (rational, Valuation(1 + k % 3), _int_point(ints, variables(g))):
            expected = reference_eval(g, v, "BAL")
            assert eval_bal(g, v) == expected, k
            assert evaluate(g, v, "BAL") == EvalResult(expected, not any(expected))
            assert holds_bal(g, v) == (not any(expected))


_WIDE = r"""
import json, random
from fractions import Fraction
from rieszlogic.bridge import rl_to_bal
from rieszlogic.semantics import Valuation, eval_bal, eval_rl, holds_bal, holds_rl
from rieszlogic.syntax import parse_rl
from util import reference_eval

n, rng = 200_000, random.Random(8)
# plain ints, and every 1,000th coordinate a Fraction over 7, so the lcm is 7
v = Valuation(n, {
    name: tuple(rng.randint(-10, 10) + (Fraction(rng.randint(1, 6), 7) if k % 1000 == 0 else 0) for k in range(n))
    for name in "abc"
})
f = parse_rl("(a -> b) \\/ c -> a")
g = rl_to_bal(f)
rl, bal = eval_rl(f, v), eval_bal(g, v)
flags = [holds_rl(f, v), min(rl) >= 0, holds_bal(g, v), not any(bal)]
# coordinates are independent, so coordinate k is the value at v's k-th coordinates
checked = [0, n - 1] + rng.sample(range(1, n - 1), 50)
for k in checked:
    point = Valuation(1, {name: (vec[k],) for name, vec in v.assignment.items()})
    assert (rl[k],) == reference_eval(f, point), k
    assert (bal[k],) == reference_eval(g, point, "BAL"), k
print(json.dumps([len(rl), len(bal), len(checked), flags]))
"""


def test_evaluation_takes_time_linear_in_the_dimension():
    # a shift per coordinate to pack or unpack the lanes is quadratic in the
    # dimension and runs past this CPU limit at 200,000 coordinates; packing
    # and unpacking through bytes takes about 4 s here
    result = subprocess.run(
        [sys.executable, "-c", _WIDE], capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).parent, preexec_fn=limited(15),
    )
    assert result.returncode == 0, result.stderr
    rl, bal, checked, (holds_rl_, rl_nonnegative, holds_bal_, bal_zero) = json.loads(result.stdout)
    assert (rl, bal, checked) == (200_000, 200_000, 52)
    assert (holds_rl_, holds_bal_) == (rl_nonnegative, bal_zero)


_WIDE_SAMPLES = r"""
import json
from rieszlogic.bridge import check_equivalence
from rieszlogic.semantics import holds_rl, random_falsify
from rieszlogic.syntax import parse_rl

f = parse_rl("a")
v = random_falsify(f, 512, dimension=200_000)
report = check_equivalence(parse_rl("a \\/ b -> a"), 64, dimension=200_000)
print(json.dumps([v.dimension, holds_rl(f, v), report.trials, report.agreed]))
"""


def test_sampling_takes_time_linear_in_the_dimension():
    # a shift per coordinate to fold a pass's flags is quadratic in the
    # dimension and runs past this CPU limit at 200,000 coordinates; folding
    # through bytes takes about 3 s of CPU on a shared 2-vCPU Xeon VM
    result = subprocess.run(
        [sys.executable, "-c", _WIDE_SAMPLES], capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).parent, preexec_fn=limited(15),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [200_000, False, 64, True]


class _Recorded(random.Random):
    """A generator that records the bits each ``getrandbits`` call asks for."""

    reads: list = []

    def getrandbits(self, k):
        self.reads.append(k)
        return super().getrandbits(k)


def test_draws_read_at_most_READ_outputs_at_once(monkeypatch):
    # takes that need several reads still give randrange's values
    for bound in (10, 127):
        rng, take = random.Random(5), _draws(5, bound)
        for n in (5, 3 * _READ, 7):
            assert list(take(n)) == [rng.randrange(2 * bound + 1) for _ in range(n)], (bound, n)
    # the 32-trial pass of a 200,000-coordinate check takes 12.8M draws; one
    # read of them all took the call's peak RSS from 225 to 292 MB
    monkeypatch.setattr(semantics, "random", types.SimpleNamespace(Random=_Recorded))
    monkeypatch.setattr(_Recorded, "reads", [])
    report = check_equivalence(parse_rl("a \\/ b -> a"), 64, dimension=200_000)
    assert (report.trials, report.agreed) == (64, True)
    assert max(_Recorded.reads) == 32 * _READ
    assert sum(_Recorded.reads) >= 32 * 64 * 2 * 200_000  # a 32-bit output per draw, or more


def _step_nodes(steps: tuple) -> list:
    """Each ``postorder`` step's node, rebuilt from the program."""
    nodes: list = []
    for op, i, j in steps:
        if op is Var:
            nodes.append(Var(i))
        elif op is Zero:
            nodes.append(Zero())
        else:
            nodes.append(Pos(nodes[i]) if op is Pos else op(nodes[i], nodes[j]))
    return nodes


def test_every_step_holds_its_value_plus_h():
    # random RL and BAL formulas at integer points of dimension 1 to 3, some
    # names unmapped, and a deep DAG whose (h -> a) -> h doubles at every level
    rng = random.Random(23)
    cases = [(random_rl_formula(rng), "RL") for _ in range(150)] + [(random_bal_formula(rng), "BAL") for _ in range(150)]
    g = h = parse_rl("a \\/ b")
    for _ in range(40):
        g, h = Imp(g, g), Imp(Imp(h, Var("a")), h)
    cases.append((Imp(Join(g, parse_rl("0")), h), "RL"))
    for k, (f, system) in enumerate(cases):
        steps = postorder(f, system)
        nodes = _step_nodes(steps)
        assert nodes[-1] is f  # hash-consing rebuilds the same node
        dimension = 1 + k % 3
        v = random_valuation(rng, sorted(variables(f))[1:] + ["e"], dimension)
        names, factor, run = compile_scalar(f, system)
        w, H = _layout(dimension, factor * 10)
        h = 1 << (w - 1)
        lanes = {
            name: sum(int(x + h) << q * (w + 1) for q, x in enumerate(v.vector(name)))
            for name in names
            if name in v.assignment
        }
        values = run(lanes, w, H, keep=range(len(steps)))
        for s, node in enumerate(nodes):
            coords = tuple((values[s] >> q * (w + 1) & (2 << w) - 1) - h for q in range(dimension))
            assert coords == reference_eval(node, v, system), (k, s, steps[s][0].__name__)


def test_evaluate_wrapper():
    v = Valuation(1, {"x": vector(-1)})
    rl = evaluate(parse_rl("x"), v, "RL")
    assert (rl.value, rl.holds) == (vector(-1), False)
    bal = evaluate(parse_bal("x -> x"), v, "BAL")
    assert (bal.value, bal.holds) == (vector(0), True)


# -- falsifier ----------------------------------------------------------------

def test_falsify_finds_witness():
    f = parse_rl("a \\/ b -> a")
    witness = random_falsify(f, trials=200, seed=5)
    assert witness is not None
    assert not holds_rl(f, witness)


def test_falsify_axiom_has_no_witness():
    assert random_falsify(parse_rl("a -> a \\/ b"), trials=2000, seed=5) is None


def test_falsify_zero_has_no_witness():
    assert random_falsify(parse_rl("0"), trials=50, seed=5) is None


def test_falsify_deterministic_per_seed():
    f = parse_rl("a \\/ b -> a")
    assert random_falsify(f, trials=100, seed=9) == random_falsify(f, trials=100, seed=9)


def test_falsify_higher_dimension():
    f = parse_rl("a \\/ b -> a")
    witness = random_falsify(f, trials=200, dimension=3, seed=1)
    assert witness is not None and witness.dimension == 3
    assert not holds_rl(f, witness)


# witnesses recorded from the falsifier's seeded stream; they come from
# trials 344, 145, 149, 46 and 51, so they lie past the first evaluation passes
PINNED_WITNESSES = [
    (
        "c \\/ (c \\/ d -> a \\/ d \\/ b \\/ d) \\/ d", 386, 1, 344,
        {"a": (-5,), "b": (-5,), "c": (-3,), "d": (-4,)},
    ),
    (
        "(a -> d) \\/ (b \\/ c) \\/ (b \\/ c -> b \\/ a)", 496, 3, 145,
        {"a": (3, -7, -3), "b": (-1, -8, -5), "c": (4, -6, 1), "d": (9, -10, -9)},
    ),
    (
        "(c -> b) \\/ d \\/ ((d -> a) \\/ ((0 -> c) \\/ c)) \\/ (b -> d)", 802, 3, 149,
        {"a": (-10, 3, 8), "b": (-8, 8, 8), "c": (-7, 7, 7), "d": (-9, 5, -10)},
    ),
    # 8 and 16 coordinates, so a pass folds its flags over as many blocks; each
    # value is negative at one coordinate only, 6 and 15, far from the first
    (
        "a \\/ b \\/ c \\/ d \\/ (a -> b) \\/ (c -> d)", 74, 8, 46,
        {
            "a": (2, 5, -3, 9, -9, 2, -5, -9), "b": (-5, -5, 5, 6, 1, 5, -9, 0),
            "c": (9, 2, -7, -5, -3, -3, -4, -7), "d": (-2, 1, 0, -7, 5, 0, -6, -6),
        },
    ),
    (
        "a \\/ b \\/ c \\/ d \\/ (a -> b) \\/ (c -> d)", 51, 16, 51,
        {
            "a": (7, -6, -10, 3, -3, -6, -10, 8, -3, 3, 6, -10, -6, 0, -3, -1),
            "b": (3, 4, 0, 9, 5, 2, -10, -3, -9, -8, -8, 10, 2, 3, 6, -3),
            "c": (2, -1, -8, -4, 9, 5, -5, 1, -3, 0, -10, -7, -7, 6, 6, -3),
            "d": (-6, -1, 4, -7, 4, -4, 0, 3, 1, -8, -5, 4, -3, -10, -7, -9),
        },
    ),
]


@pytest.mark.parametrize("text, seed, dimension, trial, coords", PINNED_WITNESSES)
def test_falsify_pinned_witnesses(text, seed, dimension, trial, coords):
    f = parse_rl(text)
    expected = Valuation(dimension, {name: vector(*c) for name, c in coords.items()})
    assert random_falsify(f, trials=1000, dimension=dimension, seed=seed) == expected
    assert random_falsify(f, trials=trial + 1, dimension=dimension, seed=seed) == expected
    assert random_falsify(f, trials=trial, dimension=dimension, seed=seed) is None


# witnesses either side of the one-byte draw path (spans 255 and 257;
# from 257 on, randrange itself), each past the first passes
PINNED_WIDE_WITNESSES = [
    ("(a -> d) \\/ a \\/ b \\/ (b -> b -> a)", 69, 1, 127, 99, {"a": (-109,), "b": (-25,), "d": (-114,)}),
    (
        "b \\/ b \\/ ((((0 -> d -> b -> 0 \\/ b) -> a \\/ 0) -> a) \\/ b) \\/ d", 261, 3, 127, 62,
        {"a": (-113, 74, 40), "b": (-23, 61, -37), "d": (-70, -114, -5)},
    ),
    ("((0 -> b) -> c \\/ (a \\/ b) -> b -> 0 \\/ a) \\/ b", 66, 1, 128, 155, {"a": (-83,), "b": (-14,), "c": (115,)}),
    (
        "(0 -> b) \\/ (a \\/ (a -> d)) \\/ ((b -> a) -> (b \\/ 0 -> b) -> a -> c)", 147, 3, 128, 51,
        {"a": (-113, -111, -9), "b": (113, -20, -4), "c": (26, 117, -59), "d": (29, -62, -90)},
    ),
    (
        "(a -> d) \\/ a \\/ b \\/ (b -> b -> a)", 69, 1, 2**20, 379,
        {"a": (-799233,), "b": (-196389,), "d": (-950648,)},
    ),
    (
        "c \\/ b \\/ (b -> d \\/ (a -> b) \\/ (b -> d))", 222, 2, 2**20, 126,
        {"a": (467608, -42282), "b": (-37679, -689340), "c": (-191397, 623076), "d": (-176015, 425753)},
    ),
]


@pytest.mark.parametrize("text, seed, dimension, bound, trial, coords", PINNED_WIDE_WITNESSES)
def test_falsify_pinned_witnesses_at_wide_bounds(text, seed, dimension, bound, trial, coords):
    f = parse_rl(text)
    expected = Valuation(dimension, {name: vector(*c) for name, c in coords.items()})
    assert random_falsify(f, 1000, dimension, seed, bound) == expected
    assert random_falsify(f, trial + 1, dimension, seed, bound) == expected
    assert random_falsify(f, trial, dimension, seed, bound) is None


# trial 134 lies inside the 128-trial pass, and each of its coordinates
# comes from a different name's slice of the drawn stream
def test_falsify_pinned_witness_dimension_2():
    f = parse_rl("a \\/ (a -> (d -> d -> c -> a) \\/ d)")
    expected = Valuation(2, {"a": vector(8, -1), "c": vector(-3, 5), "d": vector(0, -2)})
    assert random_falsify(f, trials=1000, dimension=2, seed=634) == expected
    assert random_falsify(f, trials=135, dimension=2, seed=634) == expected
    assert random_falsify(f, trials=134, dimension=2, seed=634) is None


def test_falsify_bound_0_finds_no_witness():
    # every coordinate is 0, where every RL formula takes the value 0
    f = parse_rl("a -> 0")
    assert random_falsify(f, trials=300, dimension=2, seed=1, bound=0) is None
    assert random_falsify(f, trials=300, dimension=2, seed=1, bound=1) is not None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dimension": 0}, "dimension must be an int >= 1"),
        ({"dimension": -2}, "dimension must be an int >= 1"),
        ({"bound": -1}, "bound must be an int >= 0"),
        ({"bound": 1.5}, "bound must be an int >= 0"),
        ({"bound": True}, "bound must be an int >= 0, not True"),
        ({"trials": 0}, "trials must be an int >= 1, not 0"),
        ({"trials": 2.5}, "trials must be an int >= 1, not 2.5"),
        ({"trials": "3"}, "trials must be an int >= 1, not '3'"),
        ({"trials": True}, "trials must be an int >= 1, not True"),
        ({"trials": False}, "trials must be an int >= 1, not False"),
        ({"dimension": True}, "dimension must be an int >= 1, not True"),
    ],
)
def test_falsify_rejects_bad_arguments(kwargs, message):
    for text in ("a -> 0", "0"):  # with and without variables
        with pytest.raises(ValueError, match=message):
            random_falsify(parse_rl(text), **{"trials": 100, **kwargs})


def test_falsify_runs_no_code_from_variable_names(capsys):
    name = "a: print('INJECTED') #"
    witness = random_falsify(Var(name), 5)
    assert capsys.readouterr().out == ""
    assert witness is not None and set(witness.assignment) == {name}


def test_falsifier_folds_once_per_call(monkeypatch):
    # 500 trials are eleven passes; each replays the one compiled program,
    # so the walker goes over f's nodes once
    walks = []
    walk = syntax._program
    monkeypatch.setattr(syntax, "_program", lambda *args: walks.append(args[0]) or walk(*args))
    f = parse_rl("a -> a \\/ b")
    assert random_falsify(f, trials=500, seed=3) is None
    assert walks == [f]


def test_deep_formulas_need_no_recursion():
    f = Var("a")
    for _ in range(3000):
        f = Imp(Var("a"), f)
    v = Valuation(1, {"a": vector(1)})
    assert format_formula(f) == "a -> " * 3000 + "a"
    assert variables(f) == {"a"}
    assert not holds_rl(f, v)  # the value is -2999 a
    assert random_falsify(f, 5) is not None
    translated = rl_to_bal(f)
    assert not holds_bal(translated, v)
    pair = bal_to_rl(translated)
    assert holds_rl(pair.first, v) and not holds_rl(pair.second, v)
    assert [str(t) for t in linearize(f).clauses[0]] == ["-2999a"]


def test_falsify_deep_dag_keeps_few_values():
    # g -> g from a \\/ b, 1,000 deep, is 0 at every level; (h -> a) -> h
    # doubles h at every level, so its lanes are about 1,000 bits wide, and
    # only dropping each value after its last use keeps few of them alive
    g = h = parse_rl("a \\/ b")
    for _ in range(1000):
        g, h = Imp(g, g), Imp(Imp(h, Var("a")), h)
    for f in (g, Imp(h, h)):
        tracemalloc.start()
        try:
            assert random_falsify(f, 500, 3, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def test_falsify_deep_parsed_formula():
    # decide accepts 500 nested implications, so the falsifier must too
    f = parse_rl("a -> " * 500 + "a")
    assert random_falsify(f, 20) == Valuation(1, {"a": vector(2)})


def test_deep_rejected_formula_keeps_its_type_error():
    # the message embeds repr(g), which folds instead of recursing
    g = Var("a")
    for _ in range(3000):
        g = Imp(Var("a"), g)
    inner = "Imp(left=Var(name='a'), right=" * 3000 + "Var(name='a')" + ")" * 3000
    with pytest.raises(TypeError) as caught:
        eval_rl(Pos(g), Valuation(1))
    assert str(caught.value) == f"not an RL formula: Pos(inner={inner})"


def test_evaluator_type_errors():
    v = Valuation(1)
    with pytest.raises(ValueError, match=r"^unknown system 'XYZ'$"):
        evaluate(Var("a"), v, "XYZ")
    with pytest.raises(TypeError, match=r"^not an RL formula: Pos\(inner=Var\(name='a'\)\)$"):
        eval_rl(Pos(Var("a")), v)
    with pytest.raises(TypeError, match=r"^not a BAL formula: Join\(left=Var\(name='a'\), right=Var\(name='b'\)\)$"):
        eval_bal(parse_rl("a \\/ b"), v)
    for evaluate_, lang in ((eval_rl, "an RL"), (eval_bal, "a BAL")):
        with pytest.raises(TypeError, match=rf"^not {lang} formula: MetaVar\(name='PHI'\)$"):
            evaluate_(Imp(Var("a"), MetaVar("PHI")), v)


# -- semantic laws ------------------------------------------------------------

def test_modus_ponens_preserved_by_every_valuation():
    rng = random.Random(12)
    for _ in range(200):
        f = random_rl_formula(rng, max_connectives=6)
        g = random_rl_formula(rng, max_connectives=6)
        v = random_valuation(rng, variables(f) | variables(g), dimension=2)
        if holds_rl(f, v) and holds_rl(Imp(f, g), v):
            assert holds_rl(g, v)


def test_join_monotonicity_preserved_by_every_valuation():
    rng = random.Random(13)
    for _ in range(200):
        f = random_rl_formula(rng, max_connectives=5)
        g = random_rl_formula(rng, max_connectives=5)
        c = random_rl_formula(rng, max_connectives=4)
        names = variables(f) | variables(g) | variables(c)
        v = random_valuation(rng, names, dimension=2)
        if holds_rl(Imp(f, g), v):
            assert holds_rl(Imp(Join(f, c), Join(g, c)), v)


def test_axiom_instances_hold_everywhere():
    rng = random.Random(14)
    fresh = {"PHI": Var("p"), "PSI": Var("q"), "CHI": Var("r")}
    for name, schema in RL_AXIOMS.items():
        inst = substitute(schema, fresh)
        for _ in range(100):
            v = random_valuation(rng, variables(inst), dimension=2)
            assert holds_rl(inst, v), name


def test_positive_negative_decomposition():
    # x = x^+ - x^- pointwise; x^- is (x -> 0) \/ 0
    rng = random.Random(15)
    x = parse_rl("x")
    difference = parse_rl("((x -> 0) \\/ 0) -> x \\/ 0")
    for _ in range(100):
        v = random_valuation(rng, {"x"}, dimension=3)
        assert eval_rl(x, v) == eval_rl(difference, v)


def test_homogeneity_under_nonnegative_scaling():
    rng = random.Random(16)
    for _ in range(100):
        f = random_rl_formula(rng)
        v = random_valuation(rng, variables(f), dimension=2)
        scaled = v.scale(Fraction(3, 2))
        assert eval_rl(f, scaled) == tuple(Fraction(3, 2) * c for c in eval_rl(f, v))


def test_meet_sugar_evaluates_to_componentwise_min():
    rng = random.Random(17)
    meet = parse_rl("a /\\ b")
    for _ in range(100):
        v = random_valuation(rng, {"a", "b"}, dimension=2)
        expected = tuple(min(x, y) for x, y in zip(v.vector("a"), v.vector("b")))
        assert eval_rl(meet, v) == expected


def test_oplus_sugar_evaluates_to_addition():
    rng = random.Random(18)
    plus = parse_rl("a (+) b")
    for _ in range(100):
        v = random_valuation(rng, {"a", "b"}, dimension=2)
        expected = tuple(x + y for x, y in zip(v.vector("a"), v.vector("b")))
        assert eval_rl(plus, v) == expected


# -- valuation text format ------------------------------------------------------

def test_parse_valuation_text():
    v = parse_valuation("x = (1, -2/3)\n# comment\ny = (0, 5)\n")
    assert v.dimension == 2
    assert v.vector("x") == (Fraction(1), Fraction(-2, 3))
    assert v.vector("y") == (Fraction(0), Fraction(5))


def test_valuation_round_trip():
    v = Valuation(2, {"x": vector("1/2", 3), "y": vector(-1, 0)})
    assert parse_valuation(format_valuation(v)) == v


def test_format_valuation_refuses_parts_past_the_digit_bound():
    top = 10**4300 - 1  # the largest number of 4,300 digits
    assert format_valuation(Valuation(1, {"x": (Fraction(-top, top - 2),)})) == f"x = (-{top}/{top - 2})"
    for value, part in ((Fraction(-(top + 1)), "numerator"), (Fraction(1, top + 1), "denominator")):
        with pytest.raises(ValueError, match=f"^a coordinate has a {part} of more than 4300 digits$"):
            format_valuation(Valuation(2, {"x": (Fraction(0), value)}))


def test_parse_valuation_rejects_bad_lines():
    for text in ("x = 1, 2", "x (1)", "x = ()", "X = (1)", "x = (1)\nx = (2)", "x = (1)\ny = (1, 2)", ""):
        with pytest.raises(ValuationError):
            parse_valuation(text)


#: numbers at the 4,300-digit bound of a numerator or denominator, and past
#: it, each with the part that is too long
BOUNDED_NUMBERS = {
    "1e4299": ("1e4299", None),
    "1e4300": ("1e4300", "numerator"),
    "1e-4299": ("1e-4299", None),
    "1e-4300": ("1e-4300", "denominator"),
    "0.0...1": ("0." + "0" * 4298 + "1", None),
    "1000e4296": ("1000e4296", None),
    "1_000e4297": ("1_000e4297", "numerator"),
    "-1/7...7": ("-1/" + "7" * 4300, None),
    "1/7...77": ("1/" + "7" * 4301, "denominator"),
    "1e9...9": ("1e" + "9" * 5000, "numerator"),
}


@pytest.mark.parametrize("literal, part", BOUNDED_NUMBERS.values(), ids=list(BOUNDED_NUMBERS))
def test_parse_valuation_bounds_the_digits_of_a_number(literal, part):
    if part is None:
        assert parse_valuation(f"a = ({literal})").vector("a") == (Fraction(literal),)
    else:
        with pytest.raises(ValuationError, match=rf"^line 2: number '.*' has a {part} of more than 4300 digits$"):
            parse_valuation(f"# first\na = ({literal})")


def test_parse_valuation_takes_only_grammar_variable_names():
    # the names the formula grammar can write: ASCII [a-z][A-Za-z0-9_]*
    assert parse_valuation("a_1Z = (1)\n").vector("a_1Z") == (Fraction(1),)
    for name in ("é", "aé", "a\u0661", "_a", "PHI"):
        with pytest.raises(ValuationError, match="bad variable name"):
            parse_valuation(f"{name} = (1)")
