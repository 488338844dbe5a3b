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
(countermodel found, proof rejected, entailment fails); 2 usage or I/O
error, or a decision that failed its self-check; 3 budget exceeded or
out of memory.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# the other modules are imported by the subcommands that use them, so
# that each command loads only what it runs
from .syntax import Formula, ParseError, format_formula, parse_bal, parse_rl

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


def _add_formula_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("formula", nargs="?", help="inline formula text")
    sub.add_argument("--file", help="read the formula from a file instead")


def _cmd_parse(args: argparse.Namespace) -> int:
    f = _read_formula(args, args.lang)
    print(format_formula(f))
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

    budget = decide.DEFAULT_BUDGET if args.budget is None else args.budget
    f = _read_formula(args, args.lang)
    if args.lang == "rl":
        verdict = decide.decide_valid(f, budget)
    else:
        verdict = decide.decide_bal_valid(f, budget)
    if isinstance(verdict, decide.Valid):
        print("VALID")
        return EXIT_OK
    print("COUNTEREXAMPLE")
    print(semantics.format_valuation(verdict.valuation))
    return EXIT_NEGATIVE


def _load_library_dir(path: Path) -> kernel.TheoremLibrary:
    """Register every proof file in the directory once, each after the
    files whose lemmas it cites; a file reusing a name goes after the
    first file with it, so that the clash is blamed on the later one."""
    from graphlib import CycleError, TopologicalSorter

    from . import kernel

    proofs = {}
    for file in sorted(path.glob("*.rlproof")):
        try:
            proofs[file] = kernel.parse_proof(file.read_text("utf-8"))
        except (kernel.ProofFormatError, ParseError) as exc:
            raise _UsageError(f"{file.name}: {exc}") from None
    first: dict[str, Path] = {}
    for file, proof in proofs.items():
        first.setdefault(proof.name, file)
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
        try:
            proof = kernel.parse_proof(Path(file).read_text("utf-8"))
        except (kernel.ProofFormatError, ParseError) as exc:
            raise _UsageError(f"{prefix}{exc}") from None
        report, library = library.admit(proof)
        print(f"{prefix}{report.summary()}")
        if not report.accepted:
            failed = True
            for status in report.statuses:
                if not status.ok:
                    print(f"  line {status.index}: {status.message}", file=sys.stderr)
    return EXIT_NEGATIVE if failed else EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    from . import bridge, semantics

    if args.to == "bal":
        f = _read_formula(args, "rl")
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
    f = _read_formula(args, "bal")
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
    if args.query == "meet":
        print(semantics.format_vector(distrib.meet(matrix, t1, t2)))
        return EXIT_OK
    if args.query == "join":
        print(semantics.format_vector(distrib.join(matrix, t1, t2)))
        return EXIT_OK
    if args.query == "cosine":
        print(format(distrib.cosine(matrix, t1, t2), ".17g"))
        return EXIT_OK
    witness = distrib.entails_witness(matrix, t1, t2)
    if witness is None:
        print("true")
        return EXIT_OK
    context, a, b = witness
    print(f"false (context {context}: {a} > {b})")
    return EXIT_NEGATIVE


class _BudgetHelpFormatter(argparse.HelpFormatter):
    """Shows ``decide.DEFAULT_BUDGET`` as the default of ``--budget``,
    importing ``decide`` only when the help is printed."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        text = super()._get_help_string(action)
        if action.dest == "budget":
            from . import decide

            text = text.replace("%(default)s", str(decide.DEFAULT_BUDGET))
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlogic",
        description="parse, evaluate, decide, check and translate formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form")
    _add_formula_args(p)
    p.add_argument("--lang", choices=("rl", "bal"), default="rl")
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate under a valuation file")
    _add_formula_args(p)
    p.add_argument("--lang", choices=("rl", "bal"), default="rl")
    p.add_argument("--valuation", required=True, help="file with `var = (r1, ..., rn)` lines")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser(
        "decide", help="decide validity, print VALID or COUNTEREXAMPLE", formatter_class=_BudgetHelpFormatter
    )
    _add_formula_args(p)
    p.add_argument("--lang", choices=("rl", "bal"), default="rl")
    p.add_argument(
        "--budget",
        type=int,
        help="bound on the search, 2^k x rows for k binary negative joins, and on the simplex pivots per LP"
        " (exit 3 past it; default %(default)s)",
    )
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("check", help="replay proof script files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--library", help="directory of proofs to preload in dependency order")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("translate", help="translate between RL and BAL")
    _add_formula_args(p)
    p.add_argument("--to", choices=("bal", "rl"), required=True)
    p.add_argument("--trials", type=int, default=0, help="also sample-check equivalence")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_translate)

    p = sub.add_parser("fuzzy", help="unit-interval operations")
    fuzzy_sub = p.add_subparsers(dest="fuzzy_command", required=True)
    g = fuzzy_sub.add_parser("grid", help="emit a CSV surface grid")
    g.add_argument("--op", choices=("tl", "tr"), required=True)
    g.add_argument("--n", type=int, required=True, help="grid resolution")
    g.set_defaults(run=_cmd_fuzzy)

    p = sub.add_parser("distrib", help="term-document lattice queries")
    p.add_argument("query", choices=("meet", "join", "entails", "cosine"))
    p.add_argument("--matrix", required=True, help="CSV count matrix")
    p.add_argument("terms", nargs=2, metavar="TERM")
    p.set_defaults(run=_cmd_distrib)

    return parser


def _loaded(*names: str) -> tuple[type[Exception], ...]:
    """The named ``module.Class`` exceptions of the submodules loaded so
    far.  A submodule that is not loaded cannot have raised, and an
    ``except`` clause evaluates this only when an exception reaches it."""
    found = []
    for name in names:
        module, _, cls = name.partition(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            found.append(getattr(loaded, cls))
    return tuple(found)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except _loaded("decide.BudgetExceededError") as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        _UsageError,
        ParseError,
        OSError,
        ValueError,
        *_loaded(
            "decide.SelfCheckError",
            "semantics.ValuationError",
            "kernel.ProofFormatError",
            "distrib.MatrixFormatError",
            "distrib.UnknownTermError",
            "bridge.ReservedVariableError",
        ),
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
