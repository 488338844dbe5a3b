import ast
import gc
import hashlib
import json
import random
import re
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import rieszlogic

from rieszlogic import syntax
from rieszlogic.bridge import bal_to_rl, check_equivalence, rl_to_bal
from rieszlogic.decide import decide_bal_valid, decide_equal, decide_valid, linearize
from rieszlogic.kernel import BAL_AXIOMS, CORPUS_NAMES, RL_AXIOMS, corpus_text, parse_proof
from rieszlogic.semantics import (
    Valuation,
    compile_scalar,
    eval_bal,
    eval_rl,
    evaluate,
    holds_bal,
    holds_rl,
    random_falsify,
)
from rieszlogic.syntax import (
    Imp,
    Join,
    MetaVar,
    ParseError,
    Pos,
    SubstitutionError,
    Var,
    ZERO,
    Zero,
    fold,
    format_formula,
    is_bal,
    is_rl,
    match_schema,
    metavariables,
    parse_bal,
    parse_bal_schema,
    parse_rl,
    parse_rl_schema,
    parse_schema,
    postorder,
    substitute,
    variables,
)
from util import SIX_NAMES, limited, random_bal_formula, random_rl_formula, random_schema, reference_fold, reference_program

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
    # a metavariable is in neither language
    assert not is_rl(parse_rl_schema("PHI -> a \\/ 0"))
    assert not is_bal(parse_bal_schema("PHI ^+ -> a"))


def test_unknown_system_is_refused():
    with pytest.raises(ValueError, match=r"^unknown system 'XYZ'$"):
        parse_schema("a", "XYZ")


@pytest.mark.parametrize(
    "call, argument",
    [
        (decide_valid, 1),
        (linearize, "a"),
        (lambda f: eval_rl(f, Valuation(1)), 1),
        (lambda f: random_falsify(f, 5), 1),
        (format_formula, 1),
        (rl_to_bal, 1),
        (bal_to_rl, 1),
        (variables, 1),
        (metavariables, 1),
        (is_rl, 1),
        (is_bal, 1),
    ],
    ids=["decide_valid", "linearize", "eval_rl", "random_falsify", "format_formula", "rl_to_bal", "bal_to_rl",
         "variables", "metavariables", "is_rl", "is_bal"],
)
def test_entry_points_refuse_a_non_formula(call, argument):
    with pytest.raises(TypeError, match=rf"^not a formula: {re.escape(repr(argument))}$"):
        call(argument)


# every entry point that takes one language, and the formulas outside it
# that it refuses, each with the node the refusal names: the first in fold
# order that is not in the language
_RL_ENTRY_POINTS = {
    "decide_valid": decide_valid,
    "decide_equal": lambda f: decide_equal(f, f),
    "linearize": linearize,
    "compile_scalar": lambda f: compile_scalar(f, "RL"),
    "eval_rl": lambda f: eval_rl(f, Valuation(1)),
    "holds_rl": lambda f: holds_rl(f, Valuation(1)),
    "evaluate": lambda f: evaluate(f, Valuation(1), "RL"),
    "random_falsify": lambda f: random_falsify(f, 5),
    "check_equivalence": lambda f: check_equivalence(f, 5),
    "rl_to_bal": rl_to_bal,
}
_BAL_ENTRY_POINTS = {
    "compile_scalar": lambda f: compile_scalar(f, "BAL"),
    "eval_bal": lambda f: eval_bal(f, Valuation(1)),
    "holds_bal": lambda f: holds_bal(f, Valuation(1)),
    "evaluate": lambda f: evaluate(f, Valuation(1), "BAL"),
    "bal_to_rl": bal_to_rl,
    "decide_bal_valid": decide_bal_valid,
}
_OUTSIDE_RL = {
    "Pos": (Imp(Pos(B), MetaVar("P")), "Pos(inner=Var(name='b'))"),
    "metavariable": (Join(A, MetaVar("P")), "MetaVar(name='P')"),
}
_OUTSIDE_BAL = {
    "Join": (Imp(Join(A, B), MetaVar("P")), "Join(left=Var(name='a'), right=Var(name='b'))"),
    "0": (Imp(A, ZERO), "Zero()"),
    "metavariable": (Pos(MetaVar("P")), "MetaVar(name='P')"),
}
_REFUSALS = [
    pytest.param(call, formula, f"{article} formula: {node}", id=f"{lang} {name} {case}")
    for lang, article, calls, cases in (
        ("RL", "an RL", _RL_ENTRY_POINTS, _OUTSIDE_RL),
        ("BAL", "a BAL", _BAL_ENTRY_POINTS, _OUTSIDE_BAL),
    )
    for name, call in calls.items()
    for case, (formula, node) in cases.items()
]


@pytest.mark.parametrize("call, formula, refusal", _REFUSALS)
def test_entry_points_refuse_the_other_language_alike(call, formula, refusal):
    with pytest.raises(TypeError) as caught:
        call(formula)
    assert str(caught.value) == f"not {refusal}"


def test_a_refusal_counts_a_repr_past_2_20_characters():
    # doublings holding every node class, refused at their root Join; the
    # repr is printed while it has at most 2^20 characters, then counted
    g, lengths = Imp(Pos(A), MetaVar("P")), []
    while len(lengths) < 2 or lengths[-2] <= 1 << 20:
        f, g = Join(g, ZERO), Imp(g, g)
        text = repr(f)
        shown = text if len(text) <= 1 << 20 else f"a Join whose repr has {len(text)} characters"
        with pytest.raises(TypeError) as caught:
            eval_bal(f, Valuation(1))
        assert str(caught.value) == f"not a BAL formula: {shown}"
        lengths.append(len(text))
    assert lengths[-3] <= 1 << 20 < lengths[-2]


def test_variable_collection():
    assert variables(parse_rl("a -> b \\/ a")) == {"a", "b"}
    assert metavariables(parse_rl_schema("PHI -> a \\/ PSI")) == {"PHI", "PSI"}


def test_package_never_runs_generated_code():
    for path in sorted(Path(rieszlogic.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("eval", "exec", "compile"), f"{path.name}:{node.lineno}"


# -- pinned parser behaviour -------------------------------------------------

_ANY_TOKEN = {"->", "(+)", "\\/", "/\\", "^+", "~", "(", ")", "0", "variable"}
_RL_ATOM = {"variable", "(", "0", "~"}
_BAL_ATOM = {"variable", "("}
_BAL_OPERATOR = {"->", "end of input"}
_END = {"end of input"}

_PARSERS = {
    "rl": parse_rl,
    "bal": parse_bal,
    "rl_schema": parse_rl_schema,
    "bal_schema": parse_bal_schema,
}

# (parser, text, message, offset, expected set)
_PARSE_ERRORS = [
    # an unexpected character anywhere wins over any grammar error
    ("rl", "a $ b", "unexpected character '$'", 2, _ANY_TOKEN),
    ("rl", "a b $", "unexpected character '$'", 4, _ANY_TOKEN),
    ("rl", "( $", "unexpected character '$'", 2, _ANY_TOKEN),
    ("rl", "01", "unexpected character '1'", 1, _ANY_TOKEN),
    ("rl", "é", "unexpected character 'é'", 0, _ANY_TOKEN),
    ("bal", "0 \\/ $", "unexpected character '$'", 5, _ANY_TOKEN),
    ("rl_schema", "PHI -> \x0b", "unexpected character '\\x0b'", 7, _ANY_TOKEN),
    # an atom expected
    ("rl", "a ->", "unexpected end of input", 4, _RL_ATOM),
    ("rl", "a -> ) b", "unexpected ')'", 5, _RL_ATOM),
    ("rl", "a -> (", "unexpected end of input", 6, _RL_ATOM),
    ("rl", "(+) a", "unexpected '(+)'", 0, _RL_ATOM),
    ("rl", "a \\/ ^+", "unexpected '^+'", 5, _RL_ATOM),
    ("rl", "a (+)", "unexpected end of input", 5, _RL_ATOM),
    ("rl", "~ )", "unexpected ')'", 2, _RL_ATOM),
    ("bal", "x -> ~y", "unexpected '~'", 5, _BAL_ATOM),
    ("rl_schema", "PHI -> )", "unexpected ')'", 7, _RL_ATOM | {"metavariable"}),
    ("bal_schema", "PHI -> 0", "unexpected '0'", 7, _BAL_ATOM | {"metavariable"}),
    # metavariables outside schema mode
    ("rl", "PHI -> a", "metavariable 'PHI' not allowed outside schemas", 0, _RL_ATOM),
    ("bal", "x -> Y", "metavariable 'Y' not allowed outside schemas", 5, _BAL_ATOM),
    # what BAL leaves out, also inside parentheses
    ("bal", "0", "unexpected '0'", 0, _BAL_ATOM),
    ("bal", "~x", "unexpected '~'", 0, _BAL_ATOM),
    ("bal", "x (+) y", "unexpected '(+)'", 2, _BAL_OPERATOR),
    ("bal", "x /\\ y", "unexpected '/\\\\'", 2, _BAL_OPERATOR),
    ("bal", "x \\/ y", "unexpected '\\\\/'", 2, _BAL_OPERATOR),
    ("bal", "(x \\/ y)", "unexpected '\\\\/'", 3, _BAL_OPERATOR),
    # a missing closing parenthesis
    ("rl", "(a -> b", "unexpected end of input", 7, {")"}),
    ("rl", "((a)", "unexpected end of input", 4, {")"}),
    ("rl", "(a b)", "unexpected 'b'", 3, {")"}),
    ("bal", "(x y)", "unexpected 'y'", 3, {")"}),
    # a trailing token
    ("rl", "a b", "unexpected 'b'", 2, _END),
    ("rl", "(a) b", "unexpected 'b'", 4, _END),
    ("rl", "a )", "unexpected ')'", 2, _END),
    ("rl", "a ^+ ~b", "unexpected '~'", 5, _END),
    ("bal", "x 0", "unexpected '0'", 2, _END),
    # nothing to parse
    ("rl", "", "unexpected end of input", 0, _RL_ATOM),
    ("rl", "  # only a comment\n", "unexpected end of input", 19, _RL_ATOM),
    ("bal", "", "unexpected end of input", 0, _BAL_ATOM),
]


@pytest.mark.parametrize("parser, text, message, offset, expected", _PARSE_ERRORS)
def test_parse_error_pinned(parser, text, message, offset, expected):
    with pytest.raises(ParseError) as info:
        _PARSERS[parser](text)
    assert str(info.value).partition(" at offset ")[0] == message
    assert (info.value.offset, info.value.expected) == (offset, frozenset(expected))


_D = Var("d")

_PARSED = [
    (parse_rl, "~a ^+", Join(Imp(A, ZERO), ZERO)),  # ~ binds tighter than ^+
    (parse_rl, "~(a -> b)", Imp(Imp(A, B), ZERO)),
    (parse_rl, "a (+) b (+) c", Imp(Imp(A, ZERO), Imp(Imp(B, ZERO), C))),
    (parse_rl, "a /\\ b \\/ c", Join(Imp(Join(Imp(A, ZERO), Imp(B, ZERO)), ZERO), C)),
    (parse_rl, "a -> b \\/ c -> d", Imp(A, Imp(Join(B, C), _D))),
    (parse_bal, "x ^+ ^+", Pos(Pos(Var("x")))),
]


@pytest.mark.parametrize("parser, text, tree", _PARSED)
def test_parse_tree_pinned(parser, text, tree):
    parsed = parser(text)
    assert parsed == tree
    zeros = [g for g in _nodes(parsed) if isinstance(g, type(ZERO))]
    assert all(g is ZERO for g in zeros)


def _nodes(f):
    stack, out = [f], []
    while stack:
        g = stack.pop()
        out.append(g)
        stack += [getattr(g, a) for a in ("left", "right", "inner") if hasattr(g, a)]
    return out


def test_tokenizer_whitespace_is_space_tab_cr_lf():
    assert parse_rl(" a\t->\r\nb ") == Imp(A, B)
    for space in ("\x0b", "\x0c", "\xa0", "\u2003"):
        with pytest.raises(ParseError) as info:
            parse_rl(f"a ->{space}b")
        assert (info.value.offset, info.value.expected) == (4, frozenset(_ANY_TOKEN))


def test_tokenizer_names_are_ascii():
    assert parse_rl("a_1Z -> b0") == Imp(Var("a_1Z"), Var("b0"))
    assert parse_rl_schema("PHI_2x") == MetaVar("PHI_2x")
    for text, offset in (("aé", 1), ("a\u0661", 1), ("_a", 0), ("\u00aa", 0), ("\u212a", 0)):
        with pytest.raises(ParseError) as info:
            parse_rl_schema(text)
        assert str(info.value).startswith("unexpected character")
        assert info.value.offset == offset


def test_tokenizer_tries_oplus_before_parenthesis():
    assert parse_rl("a(+)b") == Imp(Imp(A, ZERO), B)
    with pytest.raises(ParseError) as info:
        parse_rl("(+)")
    assert str(info.value).startswith("unexpected '(+)'")


# -- every parser's outcome on a seeded corpus, pinned by digest -------------

_FUZZ_TOKENS = (
    "->", "(+)", "\\/", "/\\", "^+", "~", "(", "(", ")", ")", "0", "a", "b", "x_1", "PHI", "Q",
    " ", " ", "\t", "\r\n", "# c\n", "# (a)",
)  # fmt: skip
_BAD_TOKENS = ("$", "é", "1", "\x0b", "(+", "/")
_MUTANT_CHARS = "()->\\/^+~0abPQ #$\t\n"


def _mutate(rng, text):
    """text with one character deleted, replaced or inserted"""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(_MUTANT_CHARS) + text[i + (kind == 1) :]


def _parser_corpus():
    rng, formulas = random.Random(1901), random.Random(2024)  # (A): the acceptance-3 formulas
    texts = []
    for _ in range(1500):
        tokens = rng.choices(_FUZZ_TOKENS, k=rng.randint(0, 48))
        if tokens and rng.random() < 0.2:
            tokens[rng.randrange(len(tokens))] = rng.choice(_BAD_TOKENS)
        texts.append("".join(tokens))
    for i in range(1000):
        f = random_rl_formula(formulas, max_connectives=12, max_vars=4)
        text = format_formula(f)
        texts.append(_mutate(rng, text))
        if i < 300:  # BAL prints, and groups long enough to be recorded and repeated
            texts.append(_mutate(rng, format_formula(rl_to_bal(f))))
            texts.append(f"({text}) -> ({_mutate(rng, text)}) \\/ ~({text})")
    return texts


def _outcome(parser, text):
    try:
        return format_formula(parser(text))
    except ParseError as error:
        return (str(error).partition(" at offset ")[0], error.offset, sorted(error.expected))


def test_parser_outcomes_pinned():
    digest = hashlib.sha256()
    for text in _parser_corpus():
        for parser in (parse_rl, parse_bal, parse_rl_schema, parse_bal_schema):
            digest.update(repr(_outcome(parser, text)).encode() + b"\n")
    assert digest.hexdigest() == "ef2568cc3f8c7dc79101b689f769bedd377c6763bc171a6c81887f2beb1ba860"


# -- the tight loop for short texts against the scanner loop -------------------

_LANGS = {parse_rl: ("rl", False), parse_bal: ("bal", False), parse_rl_schema: ("rl", True), parse_bal_schema: ("bal", True)}


def _corpus_formulas(monkeypatch) -> list:
    """Each (text, lang, schema) that the corpus proofs hand to ``_parse``, in order."""
    calls, parse = [], syntax._parse
    monkeypatch.setattr(syntax, "_parse", lambda text, lang, schema: calls.append((text, lang, schema)) or parse(text, lang, schema))
    for stem in CORPUS_NAMES:
        parse_proof(corpus_text(stem))
    monkeypatch.setattr(syntax, "_parse", parse)
    return calls


def test_the_tight_loop_parses_as_the_scanner_loop(monkeypatch):
    # the parser corpus, the acceptance-3 prints and the corpus formulas
    prints, formulas = [], random.Random(2024)
    for _ in range(1000):
        f = random_rl_formula(formulas, max_connectives=12, max_vars=4)
        prints += [format_formula(f), format_formula(rl_to_bal(f))]
    calls = [(text, *_LANGS[parser]) for text in _parser_corpus() + prints for parser in _LANGS]
    calls = [call for call in calls + _corpus_formulas(monkeypatch) if len(call[0]) <= 2 * syntax._KEY]

    def outcomes() -> list:
        out = []
        for call in calls:
            try:
                out.append(syntax._parse(*call))
            except ParseError as error:
                out.append((str(error), error.offset, error.expected))
        return out

    tight = outcomes()
    short = [None if "#" in text else syntax._parse_short(text, lang == "bal", schema) for text, lang, schema in calls]
    monkeypatch.setattr(syntax, "_parse_short", lambda text, bal, schema: None)
    scanned = outcomes()
    for call, x, y, z in zip(calls, tight, scanned, short, strict=True):
        node = isinstance(y, syntax.Formula)
        assert x is y if node else x == y, call
        # the tight loop reads every valid text without comments to its node
        assert z is (y if node and "#" not in call[0] else None), call
    assert (len(calls), sum(z is not None for z in short)) == (17202, 4942)


class _Scanned:
    """``_TOKEN``, recording each text that the scanner loop starts to read."""

    def __init__(self, monkeypatch):
        self.pattern, self.texts = syntax._TOKEN, []
        monkeypatch.setattr(syntax, "_TOKEN", self)

    def scanner(self, text, *start):
        if not start:  # a copy resumes reading at a start
            self.texts.append(text)
        return self.pattern.scanner(text, *start)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


def test_only_long_corpus_formulas_reach_the_scanner_loop(monkeypatch):
    # so a valid short text that falls back to the scanner loop fails here
    calls = _corpus_formulas(monkeypatch)
    scanned = _Scanned(monkeypatch)
    for stem in CORPUS_NAMES:
        parse_proof(corpus_text(stem))
    long = [text for text, _, _ in calls if len(text) > 2 * syntax._KEY]
    assert (len(CORPUS_NAMES), len(calls), len(long)) == (18, 391, 37)
    assert scanned.texts == long


# -- deep nesting --------------------------------------------------------------

_DEPTH = 1500


def _chain(op, depth=_DEPTH):
    f = A
    for _ in range(depth):
        f = op(f)
    return f


_DEEP = {
    "rl-imp": (parse_rl, "a -> " * _DEPTH + "a", _chain(lambda f: Imp(A, f))),
    "rl-oplus": (parse_rl, "a (+) " * _DEPTH + "a", _chain(lambda f: Imp(Imp(A, ZERO), f))),
    "rl-paren": (parse_rl, "(" * _DEPTH + "a" + ")" * _DEPTH, A),
    "rl-tilde": (parse_rl, "~" * _DEPTH + "a", _chain(lambda f: Imp(f, ZERO))),
    "rl-join": (parse_rl, "(" * _DEPTH + "a" + " \\/ a)" * _DEPTH, _chain(lambda f: Join(f, A))),
    "bal-imp": (parse_bal, "x -> " * _DEPTH + "a", _chain(lambda f: Imp(Var("x"), f))),
    "bal-paren": (parse_bal, "(" * _DEPTH + "a" + " -> x)" * _DEPTH, _chain(lambda f: Imp(f, Var("x")))),
    "schema-imp": (parse_rl_schema, "PHI -> " * _DEPTH + "a", _chain(lambda f: Imp(MetaVar("PHI"), f))),
    "schema-oplus": (
        parse_rl_schema,
        "PHI (+) " * _DEPTH + "a",
        _chain(lambda f: Imp(Imp(MetaVar("PHI"), ZERO), f)),
    ),
    "schema-tilde": (parse_rl_schema, "~(" * _DEPTH + "a" + ")" * _DEPTH, _chain(lambda f: Imp(f, ZERO))),
}


@pytest.mark.parametrize("case", _DEEP)
def test_parse_deep_nesting(case):
    parser, text, tree = _DEEP[case]
    # deep trees are compared through the iterative printer: == recurses
    assert format_formula(parser(text)) == format_formula(tree)


# -- DAG inputs: depth-40 doublings, 41 nodes that unfold to 2^40 ------------

# run in one child process: each call prints its CPU seconds, and a walk of
# the unfolded tree would run into the child's CPU and memory caps
_DOUBLINGS = r"""
import json, time
from rieszlogic.bridge import bal_to_rl, rl_to_bal
from rieszlogic.decide import BudgetExceededError, decide_valid, linearize
from rieszlogic.semantics import Valuation, eval_bal, eval_rl, vector
from rieszlogic.syntax import Imp, Join, MetaVar, Pos, Var, fold, is_bal, is_rl, metavariables, pos_to_join, substitute, variables

STEPS = {"->": lambda f: Imp(f, f), "\\/": lambda f: Join(f, f), "^+": lambda f: Pos(Imp(f, f))}
RL, BAL, ALL = ("->", "\\/"), ("->", "^+"), tuple(STEPS)
v = Valuation(1, {"a": vector(3)})


def decide(f):
    # the verdict's class, or the stage and size of the budget it passed
    try:
        return type(decide_valid(f)).__name__
    except BudgetExceededError as error:
        return [error.stage, error.size]


CALLS = {
    "variables": (variables, ALL),
    "metavariables": (metavariables, ALL),
    "is_rl": (is_rl, ALL),
    "is_bal": (is_bal, ALL),
    "substitute": (lambda f: substitute(f, {"P": Var("a")}), ALL),
    "eval_rl": (lambda f: eval_rl(f, v), RL),
    "eval_bal": (lambda f: eval_bal(f, v), BAL),
    "rl_to_bal": (rl_to_bal, RL),
    "bal_to_rl": (bal_to_rl, BAL),
    "pos_to_join": (pos_to_join, BAL),
    "decide_valid": (decide, RL),
    "fold": (lambda f: fold(f, lambda g: 1, lambda x, y: 1 + x + y, lambda x, y: 1 + x + y, lambda x: 1 + x), ALL),
}
# each call on a doubling outside its language, which it refuses
REFUSALS = {
    "eval_rl": (lambda f: eval_rl(f, v), "^+"),
    "decide_valid": (decide_valid, "^+"),
    "linearize": (linearize, "^+"),
    "rl_to_bal": (rl_to_bal, "^+"),
    "eval_bal": (lambda f: eval_bal(f, v), "\\/"),
    "bal_to_rl": (bal_to_rl, "\\/"),
}


def doubling(op, f):
    for _ in range(40):
        f = STEPS[op](f)
    return f


seconds, verdicts, refusals = {}, {}, {}
for name, (call, ops) in CALLS.items():
    for op in ops:
        f = doubling(op, MetaVar("P") if name == "substitute" else Var("a"))
        start = time.process_time()
        result = call(f)
        seconds[f"{name} {op}"] = time.process_time() - start
        if name == "decide_valid":
            verdicts[op] = result
for name, (call, op) in REFUSALS.items():
    f = doubling(op, Var("a"))
    start = time.process_time()
    try:
        call(f)
    except TypeError as error:
        refusals[name] = str(error)
    seconds[f"{name} refuses {op}"] = time.process_time() - start
print(json.dumps([seconds, verdicts, refusals]))
"""


def test_dag_walkers_take_time_linear_in_the_dag():
    # left out, being still exponential: match_schema and format_formula.
    # decide_valid charges a join's sides before it builds their list, so
    # the doubled join is refused at its 2^40 sides.  A refusal names the
    # first node outside the language, the root here, by its repr's length
    result = subprocess.run(
        [sys.executable, "-c", _DOUBLINGS], capture_output=True, text=True, timeout=120, preexec_fn=limited(30)
    )
    assert result.returncode == 0, result.stderr
    seconds, verdicts, refusals = json.loads(result.stdout)
    assert len(seconds) == 36  # every call in each language it accepts, and 6 refusals
    assert {call: t for call, t in seconds.items() if t > 0.5} == {}
    assert verdicts == {"->": "Valid", "\\/": ["search", 2**40]}
    pos = join = len("Var(name='a')")
    for _ in range(40):
        pos, join = len("Pos(inner=Imp(left=, right=))") + 2 * pos, len("Join(left=, right=)") + 2 * join
    rl = f"not an RL formula: a Pos whose repr has {pos} characters"
    bal = f"not a BAL formula: a Join whose repr has {join} characters"
    assert refusals == {
        "eval_rl": rl, "decide_valid": rl, "linearize": rl, "rl_to_bal": rl, "eval_bal": bal, "bal_to_rl": bal
    }


# -- the walker against the reference fold --------------------------------------

def _walked_formulas() -> list:
    """(A), (B), the ladders (L_2)-(L_12) with their rl_to_bal and bal_to_rl
    images, every axiom schema, 3,000-deep chains and depth-40 doublings."""
    acceptance, tail = random.Random(2024), random.Random(32)
    formulas = [random_rl_formula(acceptance) for _ in range(1000)]
    formulas += [random_rl_formula(tail, 32, 6, SIX_NAMES) for _ in range(300)]
    for depth in range(2, 13):
        ladder = parse_rl(" \\/ ".join(f"a{i}" for i in range(depth + 1)))
        pair = bal_to_rl(rl_to_bal(ladder))
        formulas += [ladder, rl_to_bal(ladder), pair.first, pair.second]
    formulas += [*RL_AXIOMS.values(), *BAL_AXIOMS.values()]
    imp, join, pos = A, A, A
    for k in range(3000):
        imp, join, pos = Imp(Var(f"v{k % 7}"), imp), Join(join, Var(f"v{k % 5}")), Pos(Imp(pos, B))
    formulas += [imp, join, pos]
    for step in (lambda f: Imp(f, f), lambda f: Join(f, f), lambda f: Pos(Imp(f, f)), lambda f: Join(Pos(f), Imp(f, ZERO))):
        f = A
        for _ in range(40):
            f = step(f)
        formulas.append(f)
    return formulas


def _calls(fold_function, f, join=True, pos=True) -> tuple[list, object]:
    """Every callback call that one fold of f makes, in order, and its value;
    each call's value is its index, so the calls name the values they take."""
    calls: list = []

    def record(name: str):
        return lambda *args: calls.append((name, *args)) or len(calls) - 1

    value = fold_function(f, record("leaf"), record("imp"), record("join") if join else None, record("pos") if pos else None)
    return calls, value


def test_the_walker_builds_the_reference_program():
    for f in _walked_formulas():
        expected = reference_program(f)
        assert syntax._program(f) == expected
        assert syntax._kept(f) == (expected, {op for op, _, _ in expected})


def test_fold_calls_back_as_the_reference_fold():
    # all operations, join=None and pos=None (whose nodes are leaves), on
    # nodes and on a root or a child that is no node
    formulas = _walked_formulas()
    for f in formulas + [1, Imp(A, 1), Join(Imp(1, A), Pos(Join(A, 1)))]:
        for join, pos in ((True, True), (False, True), (True, False)):
            assert _calls(fold, f, join, pos) == _calls(reference_fold, f, join, pos)
    for f in formulas:  # the program walked with leaves for a None operation is not kept
        assert syntax._kept(f)[0] == reference_program(f)


@pytest.mark.parametrize(
    "call, formula, message",
    [
        (lambda f: postorder(f, "BAL"), Imp(Join(ZERO, A), ZERO), "not a BAL formula: Join(left=Zero(), right=Var(name='a'))"),
        (format_formula, Imp(A, 1), "not a formula: 1"),
        (lambda f: substitute(f, {"P": A}), Imp(Join(B, MetaVar("Q")), Imp(MetaVar("P"), MetaVar("R"))),
         "no binding for metavariable 'Q'"),
    ],
    ids=["postorder", "format_formula", "substitute"],
)
def test_fold_raises_the_reference_folds_first_error(call, formula, message, monkeypatch):
    # the first node in fold order that the algebra refuses, as with the reference
    for fold_function in (fold, reference_fold):
        monkeypatch.setattr(syntax, "fold", fold_function)
        with pytest.raises((TypeError, SubstitutionError)) as caught:
            call(formula)
        assert str(caught.value) == message


# -- hash-consing --------------------------------------------------------------

def test_constructors_return_the_shared_node():
    assert Var("a") is A and Zero() is ZERO
    assert Imp(Var("a"), Join(B, ZERO)) is Imp(A, Join(Var("b"), Zero()))
    assert MetaVar("a") is not A and Join(A, B) is not Imp(A, B)
    assert repr(Join(A, Pos(ZERO))) == "Join(left=Var(name='a'), right=Pos(inner=Zero()))"


def test_parsing_returns_the_shared_node():
    rng = random.Random(2024)  # the acceptance-3 formulas
    for _ in range(1000):
        f = random_rl_formula(rng, max_connectives=12, max_vars=4)
        assert parse_rl(format_formula(f)) is f
        assert parse_bal(format_formula(rl_to_bal(f))) is rl_to_bal(f)


def test_random_formulas_refuse_more_variables_than_names():
    for draw in (random_rl_formula, random_bal_formula):
        with pytest.raises(ValueError, match="max_vars=6"):
            draw(random.Random(0), 4, 6)


def test_deep_formulas_compare_hash_and_match():
    def chain(leaf, depth=3000):
        f = leaf
        for _ in range(depth):
            f = Imp(A, f)
        return f

    f, g = chain(B), chain(B)
    assert f == g and f is g and hash(f) == hash(g)
    assert f != chain(C) and f != Imp(A, f)
    assert match_schema(chain(MetaVar("P")), f) == {"P": B}
    assert match_schema(Imp(MetaVar("P"), MetaVar("P")), Imp(f, g)) == {"P": f}
    assert match_schema(Imp(MetaVar("P"), MetaVar("P")), Imp(f, chain(C))) is None


def test_nodes_are_immutable():
    node = Imp(A, B)
    for target, field in ((node, "left"), (node, "right"), (A, "name"), (Pos(A), "inner")):
        with pytest.raises(AttributeError):
            setattr(target, field, C)
        with pytest.raises(AttributeError):
            delattr(target, field)
    assert (node.left, node.right, A.name) == (A, B, "a")


def _ladder_table_sizes(depth):
    before = len(syntax._NODES)
    text = format_formula(rl_to_bal(parse_rl(" \\/ ".join(f"l{i}" for i in range(depth + 1)))))
    bal = parse_bal(text)
    during = len(syntax._NODES)
    del bal, text
    gc.collect()
    return before, during, len(syntax._NODES)


def test_intern_table_drops_unreferenced_nodes():
    before, during, after = _ladder_table_sizes(11)  # a ladder of 2^11 leaves
    assert during > before + 11
    assert after == before


# -- error offsets, computed only when a parse fails --------------------------

_LADDER_TEXT = format_formula(rl_to_bal(parse_rl(" \\/ ".join(f"a{i}" for i in range(12)))))

_OFFSET_ERRORS = [
    # a bad character after a comment; after CRLF and tab whitespace
    ("rl", "a # note $ here\n-> $", "unexpected character '$'", 19, _ANY_TOKEN),
    ("rl", "a ->\r\n\tb \t$", "unexpected character '$'", 10, _ANY_TOKEN),
    ("rl", "a\r\n\t# x\r\n\t\u00e9", "unexpected character '\u00e9'", 10, _ANY_TOKEN),
    # a grammar error on the last token of a 61,431-character text
    ("bal", _LADDER_TEXT + " )", "unexpected ')'", 61432, _END),
    ("bal", _LADDER_TEXT + " ->", "unexpected end of input", 61434, _BAL_ATOM),
    # a bad character behind an earlier grammar error still wins
    ("rl", "(a -> ) # c\n -> \u00e9", "unexpected character '\u00e9'", 16, _ANY_TOKEN),
    ("rl_schema", "PHI PSI\t\r\n!", "unexpected character '!'", 10, _ANY_TOKEN),
    ("bal", "x y " + _LADDER_TEXT + " $", "unexpected character '$'", 61436, _ANY_TOKEN),
]


@pytest.mark.parametrize("parser, text, message, offset, expected", _OFFSET_ERRORS)
def test_parse_error_offsets(parser, text, message, offset, expected):
    with pytest.raises(ParseError) as info:
        _PARSERS[parser](text)
    assert str(info.value).partition(" at offset ")[0] == message
    assert (info.value.offset, info.value.expected) == (offset, frozenset(expected))


# -- repeated groups, parsed once ----------------------------------------------

def _ladder(depth):
    return parse_rl(" \\/ ".join(f"a{i}" for i in range(depth + 1)))


def test_ladder_round_trip_reuses_repeated_groups():
    for depth in range(2, 17):
        bal = rl_to_bal(_ladder(depth))
        text = format_formula(bal)
        start = time.process_time()
        assert parse_bal(text) is bal
        elapsed = time.process_time() - start
    # 1,966,195 characters; reading every copy of each group took about 1.1 s
    assert (len(text), depth) == (1966195, 16)
    assert elapsed < 0.25


_NAMES = [f"variable_name_{i}" for i in range(10)]
_LONG = " -> ".join(_NAMES)  # 188 characters in parentheses, about three key lengths


def _long(*names, last=None):
    f = Var(names[-1]) if last is None else last
    for name in reversed(names[:-1]):
        f = Imp(Var(name), f)
    return f


_L = _long(*_NAMES)
_SPACED = _LONG.replace(" -> variable_name_5", "  ->\t# note\r\n variable_name_5")  # whitespace and a comment inside


_REPEATED = [
    # equal groups that differ in whitespace or comments
    (parse_rl, "(a -> b # c\n) -> (a -> b # c\n)", Imp(Imp(A, B), Imp(A, B))),
    (parse_rl, "(a -> b) -> (a  ->\tb) -> (a -> b # c\n)", Imp(Imp(A, B), Imp(Imp(A, B), Imp(A, B)))),
    # under ~, followed by ^+, next to (+) and /\, and inside a group
    (parse_rl, "~(a -> b) -> ~~(a -> b)", Imp(Imp(Imp(A, B), ZERO), Imp(Imp(Imp(A, B), ZERO), ZERO))),
    (parse_bal, "(a -> b) ^+ -> (a -> b) ^+ ^+", Imp(Pos(Imp(A, B)), Pos(Pos(Imp(A, B))))),
    (
        parse_rl,
        "(a -> b) (+) (a -> b) /\\ (a -> b)",
        Imp(Imp(Imp(A, B), ZERO), Imp(Join(Imp(Imp(A, B), ZERO), Imp(Imp(A, B), ZERO)), ZERO)),
    ),
    (parse_bal, "((a -> b) -> (a -> b))", Imp(Imp(A, B), Imp(A, B))),
    # schema groups with metavariables
    (parse_rl_schema, "(PHI -> a) -> (PHI -> a) \\/ PHI", Imp(Imp(MetaVar("PHI"), A), Join(Imp(MetaVar("PHI"), A), MetaVar("PHI")))),
    # a group shorter than the key, its copies followed by different text
    (parse_rl, "(a) -> (a) \\/ b -> (a)b", None),
    (parse_rl, "(a -> b) -> (a -> b) \\/ c", Imp(Imp(A, B), Join(Imp(A, B), C))),
    # groups longer than the key: a copy, and near misses that share the key
    (parse_rl, f"({_LONG}) -> ({_LONG})", Imp(_long(*_NAMES), _long(*_NAMES))),
    (parse_rl, f"(({_LONG})) -> ({_LONG}) ^+", Imp(_long(*_NAMES), Join(_long(*_NAMES), ZERO))),
    (parse_rl, f"({_LONG}) -> ({_LONG} -> b)", Imp(_long(*_NAMES), _long(*_NAMES, "b"))),
    (parse_rl, f"({_LONG}) -> ({_LONG[:-1]}x)", Imp(_long(*_NAMES), _long(*_NAMES[:-1], "variable_name_x"))),
    (
        parse_rl,
        f"({_LONG}) -> ({_LONG.replace('_3', '_x')})",
        Imp(_long(*_NAMES), _long(*(n.replace("_3", "_x") for n in _NAMES))),
    ),
    # a right operand that repeats a recorded group's inside, up to the end of its own group
    (parse_rl, f"({_LONG}) -> {_LONG}", Imp(_L, _L)),
    (parse_rl, f"({_LONG}) -> {_LONG} # end\n", Imp(_L, _L)),
    (parse_rl, f"a -> (({_LONG}) -> {_LONG}) -> a", Imp(A, Imp(Imp(_L, _L), A))),
    (parse_rl, f"({_LONG}) (+) {_LONG}", Imp(Imp(_L, ZERO), _L)),
    (parse_rl, f"(~({_LONG})) -> ~({_LONG})", Imp(Imp(_L, ZERO), Imp(_L, ZERO))),
    (parse_rl, f"({_SPACED}) -> ({_SPACED}) -> {_SPACED}", Imp(_L, Imp(_L, _L))),
    (parse_rl_schema, f"(PHI -> {_LONG}) -> PHI -> {_LONG}", Imp(Imp(MetaVar("PHI"), _L), Imp(MetaVar("PHI"), _L))),
    (parse_bal, f"(({_LONG}) ^+) -> ({_LONG}) ^+", Imp(Pos(_L), Pos(_L))),
    # near misses: such a copy followed by more of its operand, or differing in its last character
    (parse_rl, f"({_LONG}) -> {_LONG} \\/ c", Imp(_L, _long(*_NAMES, last=Join(Var(_NAMES[-1]), C)))),
    (parse_rl, f"(({_LONG}) -> {_LONG} \\/ c)", Imp(_L, _long(*_NAMES, last=Join(Var(_NAMES[-1]), C)))),
    (parse_bal, f"({_LONG}) -> {_LONG} ^+", Imp(_L, _long(*_NAMES, last=Pos(Var(_NAMES[-1]))))),
    (parse_rl, f"(({_LONG}) (+) {_LONG} ^+)", Imp(Imp(_L, ZERO), _long(*_NAMES, last=Join(Var(_NAMES[-1]), ZERO)))),
    (parse_rl, f"({_LONG}) -> {_LONG} -> c", Imp(_L, _long(*_NAMES, "c"))),
    (parse_rl, f"a -> (({_LONG}) -> {_LONG} -> c)", Imp(A, Imp(_L, _long(*_NAMES, "c")))),
    (parse_rl, f"({_LONG}) -> {_LONG[:-1]}x", Imp(_L, _long(*_NAMES[:-1], "variable_name_x"))),
    (parse_rl, f"(({_LONG}) -> {_LONG[:-1]}x)", Imp(_L, _long(*_NAMES[:-1], "variable_name_x"))),
    (parse_rl, f"({_LONG}) -> {_LONG})", None),
]


@pytest.mark.parametrize("parser, text, tree", _REPEATED)
def test_repeated_groups_give_the_constructed_tree(parser, text, tree):
    if tree is None:  # a copy followed by a token the grammar refuses there
        with pytest.raises(ParseError) as info:
            parser(text)
        assert (info.value.offset, info.value.expected) == (len(text) - 1, frozenset(_END))
    else:
        assert parser(text) is tree


_GROUP = "(" + format_formula(rl_to_bal(_ladder(5))) + ")"  # 950 characters, with repeats inside


@pytest.mark.parametrize("parser", [parse_rl, parse_bal])
@pytest.mark.parametrize("tail", [")", "$", "x y"])
def test_error_after_a_skipped_group_is_the_same_error_shifted(parser, tail):
    errors = []
    for text in (f"{_GROUP} -> {tail}", f"{_GROUP} -> {_GROUP} -> {tail}"):
        with pytest.raises(ParseError) as info:
            parser(text)
        errors.append((str(info.value).partition(" at offset ")[0], info.value.offset, info.value.expected))
    once, twice = errors
    assert twice == (once[0], once[1] + len(_GROUP) + 4, once[2])


@pytest.mark.parametrize("parser", [parse_rl, parse_bal])
@pytest.mark.parametrize("tail", [")", "$", "x y"])
def test_error_after_a_reused_right_operand_is_the_same_error_shifted(parser, tail):
    # in the second text the group's inside is the right operand of "a ->"
    errors = []
    for text in (f"{_GROUP} -> {_GROUP} {tail}", f"{_GROUP} -> (a -> {_GROUP[1:-1]}) {tail}"):
        with pytest.raises(ParseError) as info:
            parser(text)
        errors.append((str(info.value).partition(" at offset ")[0], info.value.offset, info.value.expected))
    once, reused = errors
    assert reused == (once[0], once[1] + len("a -> "), once[2])


class _Tokens:
    """``syntax._TOKEN``, replaced for one test by a pattern that counts
    every token it matches, one at a time or all at once."""

    def __init__(self, monkeypatch):
        self.pattern, self.read = syntax._TOKEN, 0
        monkeypatch.setattr(syntax, "_TOKEN", self)

    def counted(self, found):
        self.read += 1
        return found

    def match(self, *args):
        return self.counted(self.pattern.match(*args))

    def scanner(self, *args):
        match = self.pattern.scanner(*args).match
        return types.SimpleNamespace(match=lambda: self.counted(match()))

    def findall(self, *args):
        found = self.pattern.findall(*args)
        self.read += len(found)
        return found


def test_printed_ladders_parse_in_tokens_linear_in_the_dag(monkeypatch):
    # reading each copy of a right operand took 5.8 tokens per node at
    # depth 8 and 8.1 at depth 18, 262 and 772 tokens
    for depth in range(8, 19):
        bal = rl_to_bal(_ladder(depth))
        text = format_formula(bal)
        tokens = _Tokens(monkeypatch)
        assert parse_bal(text) is bal
        assert tokens.read <= 4 * len(syntax._program(bal)), depth
    assert len(text) == 7864819


@pytest.mark.parametrize(
    "text, copy",
    [(f"({_LONG}) -> {_LONG}", _LONG), (f"(({_LONG}) -> {_LONG})", _LONG), (f"(({_SPACED})) (+) {_SPACED}", _SPACED)],
    ids=["top", "group", "oplus"],
)
def test_a_reused_right_operand_reads_none_of_its_tokens(monkeypatch, text, copy):
    # the token after the copy is read twice: first to check that it ends the group
    in_copy = len(syntax._TOKEN.findall(copy)) - 1  # less the end of input
    in_text = len(syntax._TOKEN.findall(text))
    tokens = _Tokens(monkeypatch)
    parse_rl(text)
    assert tokens.read == in_text - in_copy + 1


class _Compared(str):
    """A text that counts the characters its ``startswith`` compares."""

    compared = 0

    def startswith(self, prefix, *args):
        self.compared += len(prefix)
        return super().startswith(prefix, *args)


def test_near_miss_right_operands_stay_linear(monkeypatch):
    # each copy of the long group's inside is followed by " \/ x", and so is
    # each of its suffixes that starts at an arrow: without the budget that
    # near misses are charged to, they compared 244 times the text's length
    ys = ["y"] * 400
    inside = " -> ".join(ys)
    text = _Compared(f"({inside})" + "".join(f" -> (b{i} -> {inside} \\/ x)" for i in range(40)))
    parts = [_long(*ys)] + [Imp(Var(f"b{i}"), _long(*ys, last=Join(Var("y"), Var("x")))) for i in range(40)]
    tree = parts.pop()
    while parts:
        tree = Imp(parts.pop(), tree)
    in_text = len(syntax._TOKEN.findall(text))
    tokens = _Tokens(monkeypatch)
    assert parse_rl(text) is tree
    assert text.compared <= 3 * len(text)
    assert tokens.read <= in_text + 40  # each token once, and the token after a copy at most once more


_PADS = [" " * (2 * syntax._KEY + 1), "\t\r\n" * syntax._KEY, "# " + "(a -> b) " * syntax._KEY + "\n"]
_SHORT = [  # (parser, a text of at most 2 * _KEY characters, and the same text with an error)
    (parse_rl, "(a -> b) -> (a -> b) \\/ ~(c /\\ 0) ^+", "(a -> b) -> (a -> b) \\/ ~(c /\\ 0) ^+ )"),
    (parse_rl_schema, "~PHI (+) (PHI -> a)", "~PHI (+) (PHI -> $)"),
    (parse_bal, "(x -> y) ^+ -> (x -> y) ^+", "(x -> y) ^+ -> (x \\/ y) ^+"),
    (parse_bal_schema, "PHI -> (PHI -> x)", "PHI -> (PHI -> x"),
]


@pytest.mark.parametrize("pad", _PADS, ids=["spaces", "crlf-tab", "comment"])
@pytest.mark.parametrize("parser, text, wrong", _SHORT)
def test_padding_past_the_memo_bound_changes_nothing(pad, parser, text, wrong):
    # the padded text is read one match at a time with the group memo, the
    # other tokenized at once: the node, and the error up to its offset, agree
    assert len(wrong) <= 2 * syntax._KEY < len(pad)
    assert parser(pad + text) is parser(text)
    errors = []
    for padded in (wrong, pad + wrong):
        with pytest.raises(ParseError) as info:
            parser(padded)
        errors.append((str(info.value).partition(" at offset ")[0], info.value.offset, info.value.expected))
    short, long = errors
    assert long == (short[0], short[1] + len(pad), short[2])


def test_deep_near_misses_parse_as_written():
    # each group on the right shares its key with the recorded groups on the
    # left but differs at its innermost variable
    def chain(leaf):
        f = leaf
        for _ in range(_DEPTH):
            f = Imp(A, f)
        return f

    left, right = ("(a -> " * _DEPTH + leaf + ")" * _DEPTH for leaf in "ab")
    assert format_formula(parse_rl(f"{left} -> {right}")) == format_formula(Imp(chain(A), chain(B)))


def test_deep_nesting_memo_memory_stays_small():
    text = "(" * 20000 + "a" + ")" * 20000
    tracemalloc.start()
    try:
        assert parse_rl(text) is A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # storing each group's text would take 4e8 characters


# -- match_or_conflict on random, edge-case and deep pairs --------------------

def _sound_match(schema, target, bindings=None):
    """match_or_conflict's result, after checking that a match is sound: it
    keeps the given bindings first, in their order, and instantiates the
    schema to the target node; a conflict names a metavariable of the schema."""
    out = syntax.match_or_conflict(schema, target, bindings)
    if isinstance(out, dict):
        assert list(out.items())[: len(bindings or {})] == list((bindings or {}).items())
        assert substitute(schema, out) is target, (schema, target, bindings)
    elif out is not None:
        assert out in metavariables(schema)
    assert match_schema(schema, target, bindings) == (out if isinstance(out, dict) else None)
    return out


def _reference_match(schema, target, bindings=None):
    """match_or_conflict by its definition: a recursive left-to-right preorder
    walk that binds each metavariable at its first occurrence, returns the
    first one bound two ways, and skips the subtree of a shape mismatch."""
    out, mismatch = dict(bindings or {}), False

    def conflict(s, t):
        nonlocal mismatch
        if type(s) is MetaVar:
            bound = out.setdefault(s.name, t)
            return None if bound is t else s.name
        if type(s) is not type(t) or type(s) not in (Imp, Join, Pos):
            mismatch = mismatch or s is not t
            return None
        if type(s) is Pos:
            return conflict(s.inner, t.inner)
        return conflict(s.left, t.left) or conflict(s.right, t.right)

    return conflict(schema, target) or (None if mismatch else out)


def _random_term(rng, budget, leaves):
    """A formula over Imp, Join and Pos whose subterms are often shared."""
    made = []

    def build(budget):
        if made and rng.random() < 0.2:
            return rng.choice(made)
        if budget <= 0:
            f = rng.choice(leaves)
        elif rng.random() < 0.2:
            f = Pos(build(budget - 1))
        else:
            split = rng.randrange(budget)
            left, right = build(split), build(budget - 1 - split)
            f = (Imp if rng.random() < 0.6 else Join)(left, right)
        made.append(f)
        return f

    return build(budget)


def _perturb(rng, f, leaves):
    """f with one randomly chosen position replaced by a random term."""
    if rng.random() < 0.25 or type(f) not in (Imp, Join, Pos):
        return _random_term(rng, rng.randint(0, 2), leaves)
    if type(f) is Pos:
        return Pos(_perturb(rng, f.inner, leaves))
    if rng.random() < 0.5:
        return type(f)(_perturb(rng, f.left, leaves), f.right)
    return type(f)(f.left, _perturb(rng, f.right, leaves))


def test_match_on_random_pairs():
    rng = random.Random(1404)
    metas = [MetaVar(name) for name in ("P", "Q", "R")]
    schema_leaves = metas * 2 + [A, B, ZERO]
    target_leaves = [A, B, C, ZERO, MetaVar("P"), MetaVar("S")]  # metavariables in targets too
    outcomes = {"match": 0, "conflict": 0, "mismatch": 0}
    for _ in range(3000):
        schema = _random_term(rng, rng.randint(0, 8), schema_leaves)
        names = sorted(metavariables(schema))
        subst = {name: _random_term(rng, rng.randint(0, 3), target_leaves) for name in names}
        instance = substitute(schema, subst)
        target = rng.choice((instance, instance, _perturb(rng, instance, target_leaves),
                             _random_term(rng, rng.randint(0, 6), target_leaves)))
        bindings = rng.choice((None, {}, dict(list(subst.items())[:1]), {"P": rng.choice(target_leaves)},
                               {"Z": A}))
        out = _sound_match(schema, target, bindings)
        expected = _reference_match(schema, target, bindings)
        assert out == expected
        if isinstance(out, dict):
            assert list(out) == list(expected)  # bound in the same order
        if target is instance and not bindings:
            assert out == subst
        outcomes["match" if isinstance(out, dict) else "conflict" if out else "mismatch"] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_match_on_edge_cases():
    P, Q = MetaVar("P"), MetaVar("Q")
    # a schema that is a bare metavariable, with and without bindings
    assert _sound_match(P, Imp(A, B)) == {"P": Imp(A, B)}
    assert _sound_match(P, Imp(A, B), {"P": Imp(A, B)}) == {"P": Imp(A, B)}
    assert _sound_match(P, Imp(A, B), {"P": A}) == "P"
    assert _sound_match(P, P) == {"P": P}
    # object variables and 0 in the schema; metavariables in the target
    assert _sound_match(Imp(A, Join(P, ZERO)), Imp(A, Join(Q, ZERO))) == {"P": Q}
    assert _sound_match(Imp(A, Join(P, ZERO)), Imp(B, Join(Q, ZERO))) is None
    assert _sound_match(Imp(A, ZERO), Imp(A, Var("zero"))) is None
    assert _sound_match(Imp(A, P), Imp(MetaVar("a"), B)) is None
    assert _sound_match(Pos(P), Join(A, ZERO)) is None
    # a conflict behind a shape mismatch is still named
    assert _sound_match(Imp(Imp(A, P), P), Imp(Imp(B, C), A)) == "P"
    assert _sound_match(Imp(Imp(A, P), Imp(Q, Q)), Imp(Imp(B, C), Imp(A, B))) == "Q"
    assert _sound_match(Imp(Join(P, Q), Imp(Q, P)), Imp(Imp(A, B), Imp(C, A))) is None  # no conflict behind it
    # bindings given in advance keep their order ahead of new ones
    out = _sound_match(Imp(P, Q), Imp(A, B), {"Z": C, "Q": B})
    assert list(out) == ["Z", "Q", "P"]
    # a metavariable the first occurrence binds, and a later one contradicts
    assert _sound_match(Imp(P, Imp(Q, P)), Imp(A, Imp(B, C))) == "P"


def test_match_on_deep_chains():
    P = MetaVar("P")

    def chain(leaf, head=A, depth=3000):
        f = leaf
        for _ in range(depth):
            f = Imp(head, f)
        return f

    assert _sound_match(chain(P), chain(Imp(B, C))) == {"P": Imp(B, C)}
    assert _sound_match(chain(P, head=P), chain(A)) == {"P": A}
    assert _sound_match(chain(P, head=P), chain(B)) == "P"
    assert _sound_match(chain(ZERO), chain(B)) is None
    assert _sound_match(chain(P), chain(B, head=C)) is None
    assert _sound_match(Imp(chain(P), P), Imp(chain(B), C)) == "P"

