"""Riesz Logic and the Logic of Equilibrium as a library.

The logic RL talks about abelian lattice-ordered groups: a formula
asserts that its value is positive.  Its sibling BAL asserts equality
with zero over the same models.  The package provides

* :mod:`rieszlogic.syntax` -- formula ASTs, grammar, schema matching
* :mod:`rieszlogic.semantics` -- exact rational vector models
* :mod:`rieszlogic.kernel` -- Hilbert-system proof checking and the
  shipped corpus of derivations
* :mod:`rieszlogic.decide` -- exact validity decisions with
  one-dimensional countermodels
* :mod:`rieszlogic.bridge` -- translations between RL and BAL
* :mod:`rieszlogic.fuzzy` -- the logistic bridge to the unit interval
* :mod:`rieszlogic.distrib` -- term-document count vectors as a lattice
* :mod:`rieszlogic.cli` -- the command-line front end

Submodules load on first use: ``import rieszlogic`` imports none of
them, and a name exported here imports its module when it is first
read (PEP 562).  The command line loads only what its subcommand needs.
"""

import importlib

# each exported name, under the module that defines it
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the five modules above are exported too
__all__ = sorted([*_MODULE_OF, *_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
