"""The package's exports: each loads its module on first use (PEP 562)."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import rieszlogic

# every exported name, under the module that defines it
EXPORTS = {
    "syntax": (
        "Formula", "Imp", "Join", "MetaVar", "ParseError", "Pos", "Var", "Zero", "ZERO", "format_formula",
        "match_schema", "parse_bal", "parse_bal_schema", "parse_rl", "parse_rl_schema", "substitute",
    ),
    "semantics": (
        "Valuation", "eval_bal", "eval_rl", "holds_bal", "holds_rl", "parse_valuation", "random_falsify", "vector",
    ),
    "kernel": (
        "BAL_AXIOMS", "CheckReport", "Proof", "RL_AXIOMS", "TheoremLibrary", "check_proof", "load_corpus",
        "parse_proof", "register_theorem",
    ),
    "decide": (
        "BudgetExceededError", "CounterExample", "MeetJoinNormalForm", "Valid", "clause_valid",
        "decide_bal_valid", "decide_equal", "decide_valid", "linearize",
    ),
    "bridge": ("RlPair", "bal_to_rl", "check_equivalence", "rl_to_bal"),
}


def child(code: str) -> str:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_lists_the_exported_names_and_modules():
    expected = [name for names in EXPORTS.values() for name in names] + list(EXPORTS)
    assert len(expected) == 51
    assert rieszlogic.__all__ == sorted(expected)


def test_import_loads_no_submodule():
    out = child("import sys, rieszlogic; print(*sorted(m for m in sys.modules if m.startswith('rieszlogic')))")
    assert out.split() == ["rieszlogic"]


def test_star_import_binds_each_name_to_its_module_object():
    ns = {}
    exec("from rieszlogic import *", ns)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"rieszlogic.{module}")
        assert ns[module] is defining
        for name in names:
            assert ns[name] is getattr(defining, name), name


def test_first_read_of_a_name_loads_only_its_module():
    out = child(
        "import sys, rieszlogic; from rieszlogic import parse_proof; import rieszlogic.kernel as k;"
        "print(parse_proof is k.parse_proof, *sorted(m for m in sys.modules if m.startswith('rieszlogic')))"
    )
    assert out.split() == ["True", "rieszlogic", "rieszlogic.kernel", "rieszlogic.syntax"]


def test_exported_modules_are_attributes_of_a_bare_import():
    out = child(f"import rieszlogic; print(*(getattr(rieszlogic, m).__name__ for m in {tuple(EXPORTS)}))")
    assert out.split() == [f"rieszlogic.{m}" for m in EXPORTS]


def test_dir_lists_every_exported_name_before_any_is_read():
    out = child("import rieszlogic; print(*dir(rieszlogic))")
    assert set(rieszlogic.__all__) <= set(out.split())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rieszlogic.no_such_name


def test_bench_tracer_finds_every_name_it_wraps():
    # the traced bench run wraps entry points by name, in the module that
    # calls them (bench/spans.py): a name that a module no longer binds fails here
    bench = Path(__file__).resolve().parent.parent / "bench"
    child(
        f"import sys; sys.path.insert(0, {str(bench)!r}); import spans, worker;"
        "spans.install_all(spans.Tracer(), worker._load_modules())"
    )
