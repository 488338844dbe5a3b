import ast
import random
from pathlib import Path

import pytest

import rieszlogic

from rieszlogic.syntax import (
    Imp,
    Join,
    MetaVar,
    ParseError,
    Pos,
    SubstitutionError,
    Var,
    ZERO,
    format_formula,
    is_bal,
    is_rl,
    match_schema,
    metavariables,
    parse_bal,
    parse_bal_schema,
    parse_rl,
    parse_rl_schema,
    substitute,
    variables,
)
from util import random_bal_formula, random_rl_formula, random_schema

A, B, C = Var("a"), Var("b"), Var("c")


# -- parsing ----------------------------------------------------------------

def test_parse_join_implication():
    assert parse_rl("a -> a \\/ b") == Imp(A, Join(A, B))


def test_parse_oplus_sugar():
    # x (+) y expands to (x -> 0) -> y
    assert parse_rl("a (+) b") == Imp(Imp(A, ZERO), B)


def test_parse_meet_sugar():
    assert parse_rl("a /\\ b") == Imp(Join(Imp(A, ZERO), Imp(B, ZERO)), ZERO)


def test_parse_pos_sugar_is_join_zero():
    assert parse_rl("a ^+") == Join(A, ZERO)


def test_parse_tilde_sugar():
    assert parse_rl("~a") == Imp(A, ZERO)


def test_arrow_right_associative():
    assert parse_rl("a -> b -> c") == Imp(A, Imp(B, C))


def test_join_left_associative():
    assert parse_rl("a \\/ b \\/ c") == Join(Join(A, B), C)


def test_pos_binds_tightest():
    assert parse_rl("a \\/ b ^+") == Join(A, Join(B, ZERO))


def test_comments_and_whitespace():
    assert parse_rl("a ->  # trailing words\n   b") == Imp(A, B)


def test_parse_bal_pos():
    assert parse_bal("x ^+") == Pos(Var("x"))


def test_parse_bal_nested():
    x, y = Var("x"), Var("y")
    assert parse_bal("(x -> y) -> y") == Imp(Imp(x, y), y)


def test_bal_rejects_join():
    with pytest.raises(ParseError):
        parse_bal("x \\/ y")


def test_bal_rejects_zero_and_sugar():
    for text in ("0", "~x", "x (+) y", "x /\\ y"):
        with pytest.raises(ParseError):
            parse_bal(text)


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as info:
        parse_rl("a -> ) b")
    assert info.value.offset == 5
    assert "variable" in info.value.expected


def test_metavariables_need_schema_mode():
    with pytest.raises(ParseError):
        parse_rl("PHI -> a")
    assert parse_rl_schema("PHI -> a") == Imp(MetaVar("PHI"), A)


# -- printing ---------------------------------------------------------------

def test_print_join_implication():
    assert format_formula(Imp(A, Join(A, B))) == "a -> a \\/ b"


def test_print_zero():
    assert format_formula(ZERO) == "0"


def test_print_minimal_parentheses():
    f = Imp(Imp(A, B), Imp(Imp(C, A), Imp(C, B)))
    text = format_formula(f)
    assert text == "(a -> b) -> (c -> a) -> c -> b"
    assert parse_rl(text) == f


def test_print_parse_round_trip_rl():
    rng = random.Random(101)
    for _ in range(400):
        f = random_rl_formula(rng)
        text = format_formula(f)
        assert parse_rl(text) == f
        # canonical text is a fixed point
        assert format_formula(parse_rl(text)) == text


def test_print_parse_round_trip_bal():
    rng = random.Random(102)
    for _ in range(400):
        f = random_bal_formula(rng)
        assert parse_bal(format_formula(f)) == f


def test_print_parse_round_trip_schema():
    rng = random.Random(103)
    for _ in range(300):
        f = random_schema(rng)
        assert parse_rl_schema(format_formula(f)) == f


# -- substitution -----------------------------------------------------------

def test_substitute_r2_shape():
    schema = parse_rl_schema("PHI -> PHI \\/ PSI")
    inst = substitute(schema, {"PHI": A, "PSI": ZERO})
    assert inst == parse_rl("a -> a \\/ 0")


def test_substitute_whole_metavariable():
    assert substitute(MetaVar("PHI"), {"PHI": parse_rl("b -> c")}) == parse_rl("b -> c")


def test_substitute_r6a_instance():
    schema = parse_rl_schema("((PHI -> PSI) \\/ 0 -> (PSI -> PHI) \\/ 0) -> PSI -> PHI")
    inst = substitute(schema, {"PHI": A, "PSI": B})
    assert format_formula(inst) == "((a -> b) \\/ 0 -> (b -> a) \\/ 0) -> b -> a"


def test_substitute_missing_binding():
    with pytest.raises(SubstitutionError):
        substitute(parse_rl_schema("PHI -> PSI"), {"PHI": A})


# -- matching ---------------------------------------------------------------

def test_match_forced_by_structure():
    schema = parse_rl_schema("PHI -> PHI \\/ PSI")
    target = parse_rl("a -> a \\/ (b -> c)")
    assert match_schema(schema, target) == {"PHI": A, "PSI": Imp(B, C)}


def test_match_inconsistent_binding_fails():
    schema = parse_rl_schema("PHI -> PHI \\/ PSI")
    assert match_schema(schema, parse_rl("a -> b \\/ c")) is None


def test_match_r3_with_zero():
    schema = parse_rl_schema("PHI \\/ PSI -> PSI \\/ PHI")
    target = parse_rl("0 \\/ x -> x \\/ 0")
    subst = match_schema(schema, target)
    assert subst == {"PHI": ZERO, "PSI": Var("x")}
    assert substitute(schema, subst) == target


def test_match_substitute_round_trip():
    rng = random.Random(104)
    for _ in range(300):
        schema = random_schema(rng)
        subst = {
            name: random_rl_formula(rng, max_connectives=4)
            for name in metavariables(schema)
        }
        inst = substitute(schema, subst)
        recovered = match_schema(schema, inst)
        assert recovered is not None
        # ranges contain no metavariable tokens, so matching is exact
        assert {k: recovered[k] for k in subst} == subst


def test_match_respects_prior_bindings():
    schema = parse_rl_schema("PHI -> PSI")
    assert match_schema(schema, parse_rl("a -> b"), {"PHI": A}) == {"PHI": A, "PSI": B}
    assert match_schema(schema, parse_rl("a -> b"), {"PHI": B}) is None


# -- language helpers --------------------------------------------------------

def test_language_predicates():
    assert is_rl(parse_rl("a -> a \\/ 0"))
    assert not is_rl(parse_bal("a ^+"))
    assert is_bal(parse_bal("x ^+ -> y"))
    assert not is_bal(parse_rl("a \\/ b"))


def test_variable_collection():
    assert variables(parse_rl("a -> b \\/ a")) == {"a", "b"}
    assert metavariables(parse_rl_schema("PHI -> a \\/ PSI")) == {"PHI", "PSI"}


def test_package_never_runs_generated_code():
    for path in sorted(Path(rieszlogic.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("eval", "exec", "compile"), f"{path.name}:{node.lineno}"
