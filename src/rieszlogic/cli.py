"""Command-line front end.

One executable, subcommand per capability::

    rieszlogic parse "a -> a \\/ b"
    rieszlogic eval "p -> q" --valuation vals.txt
    rieszlogic decide "a \\/ (a -> 0)"
    rieszlogic check corpus/balb_plus.rlproof --library corpus/
    rieszlogic translate --to bal "a \\/ 0"
    rieszlogic fuzzy grid --op tr --n 60
    rieszlogic distrib entails --matrix counts.csv orange fruit

Exit codes: 0 success / valid / holds / entails; 1 semantic negative
(countermodel found, proof rejected, entailment fails), returned by a
handler, never raised; 2 usage or I/O error, or a decision that failed
its self-check; 3 budget exceeded or out of memory, as ``_EXITS`` maps
error classes to them.  ``_COMMANDS`` declares the subcommands.  Results
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# the other modules are imported by the handlers that use them, so that
# each subcommand loads only what it runs
from .syntax import DEFAULT_BUDGET, Formula, ParseError, format_formula, parse_bal, parse_rl

if TYPE_CHECKING:
    from . import kernel

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


def _read_formula(args: argparse.Namespace, lang: str) -> Formula:
    if args.formula is not None and args.file is not None:
        raise _UsageError("give an inline formula or --file, not both")
    if args.formula is not None:
        text = args.formula
    elif args.file is not None:
        text = Path(args.file).read_text("utf-8")
    else:
        raise _UsageError("no formula given (inline or --file)")
    return parse_rl(text) if lang == "rl" else parse_bal(text)


def _cmd_parse(args: argparse.Namespace) -> int:
    print(format_formula(_read_formula(args, args.lang)))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import semantics

    f = _read_formula(args, args.lang)
    valuation = semantics.parse_valuation(Path(args.valuation).read_text("utf-8"))
    result = semantics.evaluate(f, valuation, "RL" if args.lang == "rl" else "BAL")
    print(f"value: {semantics.format_vector(result.value)}")
    print(f"holds: {'true' if result.holds else 'false'}")
    return EXIT_OK if result.holds else EXIT_NEGATIVE


def _cmd_decide(args: argparse.Namespace) -> int:
    from . import decide, semantics

    f = _read_formula(args, args.lang)
    solve = decide.decide_valid if args.lang == "rl" else decide.decide_bal_valid
    verdict = solve(f, args.budget)
    if isinstance(verdict, decide.Valid):
        print("VALID")
        return EXIT_OK
    print("COUNTEREXAMPLE")
    print(semantics.format_valuation(verdict.valuation))
    return EXIT_NEGATIVE


def _read_proof(path: Path, prefix: str) -> kernel.Proof:
    """Parse a proof file; a format error is reported after ``prefix``."""
    from . import kernel

    try:
        return kernel.parse_proof(path.read_text("utf-8"))
    except (kernel.ProofFormatError, ParseError) as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def _load_library_dir(path: Path) -> kernel.TheoremLibrary:
    """Register every proof file in the directory once, each after the
    files whose lemmas it cites; a file reusing a name goes after the
    first file with it, so that the clash is blamed on the later one."""
    from graphlib import CycleError, TopologicalSorter

    from . import kernel

    proofs = {file: _read_proof(file, f"{file.name}: ") for file in sorted(path.glob("*.rlproof"))}
    first = {proof.name: file for file, proof in reversed(proofs.items())}  # the first file with each name
    after: dict[Path, set[Path]] = {}
    for file, proof in proofs.items():
        names = {ln.justification.name for ln in proof.lines if isinstance(ln.justification, kernel.Lemma)}
        after[file] = {first[name] for name in names | {proof.name} if name in first} - {file}
    try:
        order = list(TopologicalSorter(after).static_order())
    except CycleError as exc:
        # exc.args[1] lists the files so that each is cited by the next
        cycle = " -> ".join(file.name for file in reversed(exc.args[1]))
        raise _UsageError(f"library lemma citations form a cycle: {cycle}") from None
    library = kernel.TheoremLibrary()
    for file in order:
        try:
            library = library.register(proofs[file])
        except kernel.RegistrationError as exc:
            raise _UsageError(f"library proofs failed to check: {file.name}: {exc}") from None
    return library


def _cmd_check(args: argparse.Namespace) -> int:
    from . import kernel

    library = _load_library_dir(Path(args.library)) if args.library else kernel.TheoremLibrary()
    failed = False
    for file in args.files:
        prefix = "" if len(args.files) == 1 else f"{file}: "
        try:  # a name the library holds with other content, refused as --library does
            report, library = library.admit(_read_proof(Path(file), prefix))
        except kernel.RegistrationError as exc:
            raise _UsageError(f"{prefix}{exc}") from None
        print(f"{prefix}{report.summary()}")
        if not report.accepted:
            failed = True
            for status in report.statuses:
                if not status.ok:
                    print(f"  line {status.index}: {status.message}", file=sys.stderr)
    return EXIT_NEGATIVE if failed else EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    from . import bridge, semantics

    f = _read_formula(args, "rl" if args.to == "bal" else "bal")
    if args.to == "bal":
        translated = bridge.rl_to_bal(f)
        # sample before printing, so that a bad --trials leaves stdout empty
        report = bridge.check_equivalence(f, trials=args.trials, seed=args.seed) if args.trials else None
        print(format_formula(translated))
        if report is not None and not report.agreed:
            trial, valuation = report.discrepancy
            print(f"equivalence failed at trial {trial}:", file=sys.stderr)
            print(semantics.format_valuation(valuation), file=sys.stderr)
            return EXIT_NEGATIVE
        return EXIT_OK
    pair = bridge.bal_to_rl(f)
    print(format_formula(pair.first))
    print(format_formula(pair.second))
    return EXIT_OK


def _cmd_fuzzy(args: argparse.Namespace) -> int:
    from . import fuzzy

    sys.stdout.writelines(fuzzy.grid_lines(args.op, args.n))  # as the rows are made
    return EXIT_OK


def _cmd_distrib(args: argparse.Namespace) -> int:
    from . import distrib, semantics

    matrix = distrib.load_matrix(Path(args.matrix).read_text("utf-8"))
    t1, t2 = args.terms
    if args.query == "entails":
        witness = distrib.entails_witness(matrix, t1, t2)
        print("true" if witness is None else "false (context {}: {} > {})".format(*witness))
        return EXIT_OK if witness is None else EXIT_NEGATIVE
    if args.query == "cosine":
        print(format(distrib.cosine(matrix, t1, t2), ".17g"))
    else:  # meet or join, each a function of distrib
        print(semantics.format_vector(getattr(distrib, args.query)(matrix, t1, t2)))
    return EXIT_OK


_FORMULA = (
    ("formula", dict(nargs="?", help="inline formula text")),
    ("--file", dict(help="read the formula from a file instead")),
)
_LANG = ("--lang", dict(choices=("rl", "bal"), default="rl"))

# name -> (handler, help, *arguments); a two-word name is a subcommand of
# the entry named by its first word, whose handler is None
_COMMANDS = {
    "parse": (_cmd_parse, "echo the canonical form", *_FORMULA, _LANG),
    "eval": (_cmd_eval, "evaluate under a valuation file", *_FORMULA, _LANG,
             ("--valuation", dict(required=True, help="file with `var = (r1, ..., rn)` lines"))),
    "decide": (_cmd_decide, "decide validity, print VALID or COUNTEREXAMPLE", *_FORMULA, _LANG,
               ("--budget", dict(type=int, default=DEFAULT_BUDGET, help="bound on the search, whose flattened"
                                 " joins' sides and LP rows sum to at most 2 times it, and on the simplex pivots"
                                 " per LP (exit 3 past it; default %(default)s)"))),
    "check": (_cmd_check, "replay proof script files",
              ("files", dict(nargs="+", metavar="FILE")),
              ("--library", dict(help="directory of proofs to preload in dependency order"))),
    "translate": (_cmd_translate, "translate between RL and BAL", *_FORMULA,
                  ("--to", dict(choices=("bal", "rl"), required=True)),
                  ("--trials", dict(type=int, default=0, help="also sample-check equivalence")),
                  ("--seed", dict(type=int, default=0))),
    "fuzzy": (None, "unit-interval operations"),
    "fuzzy grid": (_cmd_fuzzy, "emit a CSV surface grid",
                   ("--op", dict(choices=("tl", "tr"), required=True)),
                   ("--n", dict(type=int, required=True, help="grid resolution"))),
    "distrib": (_cmd_distrib, "term-document lattice queries",
                ("query", dict(choices=("meet", "join", "entails", "cosine"))),
                ("--matrix", dict(required=True, help="CSV count matrix")),
                ("terms", dict(nargs=2, metavar="TERM"))),
}

# "module.Class" -> exit code, naming a class without importing its module;
# an error takes the code of the nearest class in its MRO that is listed
_EXITS = {
    f"{__name__}._UsageError": EXIT_USAGE,  # __name__ is __main__ under `python -m`
    "builtins.OSError": EXIT_USAGE,
    "builtins.ValueError": EXIT_USAGE,
    "rieszlogic.syntax.ParseError": EXIT_USAGE,
    "rieszlogic.semantics.ValuationError": EXIT_USAGE,
    "rieszlogic.decide.SelfCheckError": EXIT_USAGE,
    "rieszlogic.decide.BudgetExceededError": EXIT_BUDGET,
    "rieszlogic.kernel.ProofFormatError": EXIT_USAGE,
    "rieszlogic.bridge.ReservedVariableError": EXIT_USAGE,
    "rieszlogic.distrib.MatrixFormatError": EXIT_USAGE,
    "rieszlogic.distrib.UnknownTermError": EXIT_USAGE,  # a KeyError, which is not listed
}


def build_parser() -> argparse.ArgumentParser:
    description = "parse, evaluate, decide, check and translate formulas"
    parser = argparse.ArgumentParser(prog="rieszlogic", description=description)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (run, text, *arguments) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        p = groups[group].add_parser(word, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(run=run)  # a group's None is replaced by its subcommand's handler
        if run is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.run(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except MemoryError:  # first, so that matching it allocates nothing
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:  # the reader has all it wants: end quietly, like other Unix tools
        # stdout goes to os.devnull, so that the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except RecursionError as exc:
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        for cls in type(exc).__mro__:
            code = _EXITS.get(f"{cls.__module__}.{cls.__qualname__}")
            if code is not None:
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
