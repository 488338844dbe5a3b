import subprocess
import sys
import threading

import pytest

from rieszlogic import decide, kernel
from rieszlogic.cli import main
from rieszlogic.kernel import CORPUS_NAMES, corpus_text
from util import limited


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for stem in CORPUS_NAMES:
        (d / f"{stem}.rlproof").write_text(corpus_text(stem), "utf-8")
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse ---------------------------------------------------------------------

def test_parse_echoes_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "a (+) b")
    assert (code, out.strip()) == (0, "(a -> 0) -> b")


def test_parse_bal(capsys):
    code, out, _ = run(capsys, "parse", "--lang", "bal", "(x->y)^+")
    assert (code, out.strip()) == (0, "(x -> y) ^+")


def test_parse_syntax_error_exits_2(capsys):
    code, _, err = run(capsys, "parse", "a -> )")
    assert code == 2
    assert "error" in err


def test_formula_and_file_mutually_exclusive(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("a -> b")
    code, _, err = run(capsys, "parse", "a", "--file", str(f))
    assert code == 2
    code, out, _ = run(capsys, "parse", "--file", str(f))
    assert (code, out.strip()) == (0, "a -> b")


# -- eval ----------------------------------------------------------------------

def test_eval_holds(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("p = (1, 0)\nq = (2, 3)\n")
    code, out, _ = run(capsys, "eval", "p -> q", "--valuation", str(vals))
    assert code == 0
    assert out == "value: (1, 3)\nholds: true\n"


def test_eval_fails(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("p = (2, 0)\nq = (1, 3)\n")
    code, out, _ = run(capsys, "eval", "p -> q", "--valuation", str(vals))
    assert code == 1
    assert out == "value: (-1, 3)\nholds: false\n"


def test_eval_bal(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("x = (-2)\n")
    code, out, _ = run(capsys, "eval", "--lang", "bal", "x ^+", "--valuation", str(vals))
    assert code == 0
    assert out == "value: (0)\nholds: true\n"


@pytest.mark.parametrize("coordinate", ["1/0", "x", "1/"])
def test_eval_names_a_bad_coordinate(tmp_path, capsys, coordinate):
    # a zero denominator is named as the text it is, like any other bad
    # number, and not by the text of its ZeroDivisionError
    vals = tmp_path / "v.txt"
    vals.write_text(f"a = ({coordinate})\n")
    result = run(capsys, "eval", "a", "--valuation", str(vals))
    assert result == (2, "", f"error: line 1: bad coordinate {coordinate!r}\n")


# -- decide -----------------------------------------------------------------------

def test_decide_valid(capsys):
    code, out, _ = run(capsys, "decide", "a -> a \\/ b")
    assert (code, out.strip()) == (0, "VALID")


def test_decide_counterexample(capsys):
    code, out, _ = run(capsys, "decide", "a \\/ b -> a")
    lines = out.strip().split("\n")
    assert code == 1
    assert lines[0] == "COUNTEREXAMPLE"
    assert any(line.startswith("a = (") for line in lines[1:])


def test_decide_bal(capsys):
    code, out, _ = run(capsys, "decide", "--lang", "bal", "((x -> y) -> y) -> x")
    assert (code, out.strip()) == (0, "VALID")


def test_decide_budget_exit_3(monkeypatch, capsys):
    # D -> D for D = a1 \/ ... \/ a13: its two joins' 26 sides and the
    # root LP's 14 rows pass 2 x 13 before the LP is solved
    solved = []
    monkeypatch.setattr(decide, "_farkas", lambda *args: solved.append(args))
    disjuncts = " \\/ ".join(f"a{k}" for k in range(1, 14))
    code, out, err = run(capsys, "decide", "--budget", "13", f"{disjuncts} -> {disjuncts}")
    assert (code, out, err, solved) == (3, "", "error: search size 40 exceeds budget 13\n", [])


def test_failed_self_check_exits_2(monkeypatch, capsys):
    # a solver that calls every system feasible at the origin, where
    # a -> 0 is not negative: decide must not print a verdict
    monkeypatch.setattr(decide, "_farkas", lambda columns, forms, rhs, budget: (None, [0] * len(columns) + [1]))
    code, out, err = run(capsys, "decide", "a -> 0")
    assert (code, out) == (2, "")
    assert err.startswith("error: self-check failed") and err.count("\n") == 1


def test_memory_error_exits_3(monkeypatch, capsys):
    def exhaust(f, budget):
        raise MemoryError

    monkeypatch.setattr(decide, "decide_valid", exhaust)
    code, out, err = run(capsys, "decide", "a")
    assert (code, out, err) == (3, "", "error: out of memory\n")


# -- check ------------------------------------------------------------------------

def test_check_corpus_file(corpus_dir, capsys):
    code, out, _ = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"))
    assert code == 0
    assert out.startswith("OK (")


def test_check_with_library_preload(corpus_dir, capsys):
    code, out, _ = run(
        capsys,
        "check",
        str(corpus_dir / "balmi_part3.rlproof"),
        "--library",
        str(corpus_dir),
    )
    assert (code, out.strip()) == (0, "OK (4 lines)")


def test_check_rejects_mutated_file(corpus_dir, tmp_path, capsys):
    text = corpus_text("balb_plus").replace("qed", "# no conclusion\nqed")
    broken = text.replace("mp 1 2", "mp 2 1", 1)
    path = tmp_path / "broken.rlproof"
    path.write_text(broken, "utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "REJECTED" in out
    assert "line" in err


def test_check_several_files_in_sequence(corpus_dir, capsys):
    code, out, _ = run(
        capsys,
        "check",
        str(corpus_dir / "balmi_part1.rlproof"),
        str(corpus_dir / "balmi_part2.rlproof"),
        str(corpus_dir / "balpi_minus.rlproof"),
        str(corpus_dir / "balmi_part3.rlproof"),
    )
    assert code == 0
    assert out.count("OK (") == 4


def test_check_checks_each_file_once(corpus_dir, monkeypatch, capsys):
    calls = []
    check_proof = kernel.check_proof
    monkeypatch.setattr(kernel, "check_proof", lambda *a: calls.append(a) or check_proof(*a))
    names = ("balmi_part1", "balmi_part2", "balpi_minus", "balmi_part3")
    code, out, _ = run(capsys, "check", *(str(corpus_dir / f"{n}.rlproof") for n in names))
    assert (code, out.count("OK (")) == (0, 4)
    assert len(calls) == 4


def test_check_library_loads_each_proof_with_one_check(corpus_dir, monkeypatch, capsys):
    calls = []
    check_proof = kernel.check_proof
    monkeypatch.setattr(kernel, "check_proof", lambda *a: calls.append(a) or check_proof(*a))
    code, out, _ = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"), "--library", str(corpus_dir))
    assert (code, out.strip()) == (0, "OK (16 lines)")
    # one check per library file, in lemma order, and one for the checked file
    assert len(calls) == len(CORPUS_NAMES) + 1


def test_check_library_names_the_rejection(corpus_dir, capsys):
    (corpus_dir / "balmi_part1.rlproof").unlink()
    code, _, err = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"), "--library", str(corpus_dir))
    assert code == 2
    assert err.count("\n") == 1
    assert "balmi_part3.rlproof: " in err
    assert "unknown lemma 'BALMI_PART1'" in err


def test_check_library_citation_cycle_exits_2(corpus_dir, monkeypatch, capsys):
    for name, cites in (("ALPHA", "BETA"), ("BETA", "ALPHA")):
        text = f"system: RL\nname: {name}\n1: a -> a \\/ b | lemma {cites}\nqed: 1\n"
        (corpus_dir / f"{name.lower()}.rlproof").write_text(text, "utf-8")
    calls = []
    monkeypatch.setattr(kernel, "check_proof", lambda *a: calls.append(a))
    code, out, err = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"), "--library", str(corpus_dir))
    assert (code, out, calls) == (2, "", [])
    assert err.count("\n") == 1
    assert "cycle" in err and "alpha.rlproof" in err and "beta.rlproof" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("1: a -> a \\/ b | zz 1", "line 3: unknown justification 'zz'"),
        ("1: a -> ) | axiom R1a", "line 3: unexpected ')' at offset 5 (expected: (, 0, metavariable, variable, ~)"),
        ("²: a -> a \\/ b | axiom R1a", "line 3: proof line needs a numeric index before `:`"),
    ],
    ids=["proof-format", "formula", "superscript-index"],
)
def test_check_library_names_a_malformed_file(corpus_dir, capsys, line, message):
    (corpus_dir / "broken.rlproof").write_text(f"system: RL\nname: BROKEN\n{line}\nqed: 1\n", "utf-8")
    code, out, err = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"), "--library", str(corpus_dir))
    assert (code, out, err) == (2, "", f"error: broken.rlproof: {message}\n")


def test_check_names_a_malformed_file_among_several(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.rlproof").write_text(corpus_text("balmp_plus"), "utf-8")
    (tmp_path / "bad.rlproof").write_text("system: RL\nname: BAD\n1: a -> a \\/ b | zz 1\nqed: 1\n", "utf-8")
    code, out, err = run(capsys, "check", "good.rlproof", "bad.rlproof")
    assert (code, out) == (2, "good.rlproof: OK (3 lines)\n")
    assert err == "error: bad.rlproof: line 3: unknown justification 'zz'\n"


def test_check_second_system_header_exits_2(tmp_path, capsys):
    # the line holds a join, which BAL lacks: it was read under `system: RL`
    path = tmp_path / "two.rlproof"
    path.write_text(
        "system: RL\nname: X\n1: (((a \\/ b) -> c) -> c) -> (a \\/ b) | axiom BALN\nsystem: BAL\nqed: 1\n", "utf-8"
    )
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "error: line 4: a proof has one `system:` header\n")


def test_check_second_name_header_exits_2(tmp_path, capsys):
    # a library would register the proof under the second name
    path = tmp_path / "two.rlproof"
    path.write_text("system: RL\nname: A\n1: a -> a \\/ b | axiom R1a\nname: B\nqed: 1\n", "utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "error: line 4: a proof has one `name:` header\n")


def test_check_library_name_clash_exits_2(corpus_dir, capsys):
    clash = corpus_text("balb_minus").replace("name: BALB_MINUS", "name: BALB_PLUS")
    (corpus_dir / "zz_clash.rlproof").write_text(clash, "utf-8")
    code, _, err = run(capsys, "check", str(corpus_dir / "balb_plus.rlproof"), "--library", str(corpus_dir))
    assert code == 2
    assert "zz_clash.rlproof: name 'BALB_PLUS' already registered with different content" in err


def test_check_deeply_nested_line_is_checked(tmp_path, capsys):
    # replaying the line compares 1,200-deep formulas, which == does by identity
    deep = "(" + "a -> " * 1200 + "a)"
    path = tmp_path / "deep.rlproof"
    line = f"(c -> {deep}) -> ({deep} -> e) -> c -> e | axiom R1a"
    path.write_text(f"system: RL\nname: DEEP\n1: {line}\nqed: 1\n", "utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (0, "OK (1 lines)\n", "")


def test_parse_deep_chain_from_file(tmp_path, capsys):
    chain = "a -> " * 1500 + "a"
    path = tmp_path / "deep.txt"
    path.write_text(chain, "utf-8")
    code, out, _ = run(capsys, "parse", "--file", str(path))
    assert (code, out) == (0, chain + "\n")


# -- translate ----------------------------------------------------------------------

def test_translate_to_bal(capsys):
    code, out, _ = run(capsys, "translate", "--to", "bal", "a")
    assert (code, out.strip()) == (0, "(a -> z -> z) ^+")


def test_translate_to_rl_emits_pair(capsys):
    code, out, _ = run(capsys, "translate", "--to", "rl", "x ^+")
    assert code == 0
    assert out == "x \\/ 0\nx \\/ 0 -> 0\n"


def test_translate_with_equivalence_trials(capsys):
    code, _, err = run(capsys, "translate", "--to", "bal", "a \\/ b", "--trials", "200", "--seed", "7")
    assert code == 0
    assert err == ""


def test_translate_negative_trials_exits_2(capsys):
    code, _, err = run(capsys, "translate", "--to", "bal", "--trials", "-5", "a")
    assert code == 2
    assert err == "error: trials must be an int >= 1, not -5\n"


def test_translate_negative_trials_prints_nothing(capsys):
    # the argument is rejected before the translation is printed
    code, out, _ = run(capsys, "translate", "--to", "bal", "--trials", "-5", "a")
    assert code == 2
    assert out == ""


def test_translate_reserved_variable(capsys):
    code, _, err = run(capsys, "translate", "--to", "bal", "z -> a")
    assert code == 2
    assert "reserved" in err


# -- fuzzy ---------------------------------------------------------------------------

def test_fuzzy_grid_header_and_corners(capsys):
    code, out, _ = run(capsys, "fuzzy", "grid", "--op", "tr", "--n", "1")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "a,b,value"
    assert lines[1] == "0,0,0"
    assert lines[2] == "0,1,"  # undefined corner
    assert lines[4] == "1,1,1"


def test_fuzzy_grid_bad_resolution_writes_nothing(capsys):
    assert run(capsys, "fuzzy", "grid", "--op", "tl", "--n", "0") == (2, "", "error: resolution must be an int >= 1, not 0\n")


def test_fuzzy_grid_streams_its_rows():
    # 10^18 rows: the first ones must come out long before the last is made
    proc = subprocess.Popen(
        [sys.executable, "-m", "rieszlogic.cli", "fuzzy", "grid", "--op", "tl", "--n", "1000000000"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = []
    reader = threading.Thread(target=lambda: lines.extend((proc.stdout.readline(), proc.stdout.readline())))
    try:
        reader.start()
        reader.join(5)
        assert lines == ["a,b,value\n", "0,0,0\n"]
    finally:
        proc.kill()
        proc.wait()
        reader.join(5)  # the killed process closed the pipe, so readline returns
        proc.stdout.close()


@pytest.mark.parametrize("argv", [
    ("fuzzy", "grid", "--op", "tl", "--n", "1000"),  # 10^6 rows
    ("translate", "--to", "bal", " \\/ ".join("abcdefghijklm")),  # 122,875 characters
])
def test_closed_pipe_ends_quietly(argv):
    # the reader stops after ten bytes, as `| head -c 10` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "rieszlogic.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(60)) == (b"", 0)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# -- distrib -----------------------------------------------------------------------

@pytest.fixture()
def matrix_file(tmp_path):
    from rieszlogic.distrib import load_word_counts
    from importlib import resources
    text = (resources.files("rieszlogic") / "data" / "word_document_counts.csv").read_text("utf-8")
    path = tmp_path / "counts.csv"
    path.write_text(text, "utf-8")
    return path


def test_distrib_meet(matrix_file, capsys):
    code, out, _ = run(capsys, "distrib", "meet", "--matrix", str(matrix_file), "orange", "fruit")
    assert (code, out.strip()) == (0, "(0, 1, 1, 0, 0, 3, 0, 3)")


def test_distrib_entails_false_with_witness(matrix_file, capsys):
    code, out, _ = run(capsys, "distrib", "entails", "--matrix", str(matrix_file), "orange", "fruit")
    assert code == 1
    assert out.strip() == "false (context d6: 7 > 3)"


def test_distrib_entails_true(matrix_file, capsys):
    code, out, _ = run(capsys, "distrib", "entails", "--matrix", str(matrix_file), "computer", "apple")
    assert (code, out.strip()) == (0, "true")


def test_distrib_cosine(matrix_file, capsys):
    code, out, _ = run(capsys, "distrib", "cosine", "--matrix", str(matrix_file), "orange", "fruit")
    assert code == 0
    assert abs(float(out) - 0.5308517143921717) <= 1e-12


def test_distrib_cosine_of_counts_past_float_range(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("term,d1,d2\norange,1e400,1\nfruit,1e400,2\n", "utf-8")
    code, out, err = run(capsys, "distrib", "cosine", "--matrix", str(path), "orange", "fruit")
    assert (code, err) == (0, "")
    assert 0 <= float(out) <= 1


def test_distrib_unknown_term(matrix_file, capsys):
    code, _, err = run(capsys, "distrib", "meet", "--matrix", str(matrix_file), "orange", "grape")
    assert code == 2


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "eval", "a", "--valuation", "/nonexistent/v.txt")
    assert code == 2


@pytest.mark.parametrize("error, code", [(KeyError("x"), None), (UnicodeError("x"), 2)])
def test_exit_code_of_nearest_listed_base(monkeypatch, capsys, error, code):
    # KeyError is a base of a listed class, not a subclass: it propagates
    def fail(f, budget):
        raise error

    monkeypatch.setattr(decide, "decide_valid", fail)
    if code is None:
        with pytest.raises(type(error)):
            main(["decide", "a"])
    else:
        assert run(capsys, "decide", "a") == (code, "", "error: x\n")


def test_usage_error_exit_2(capsys):
    assert run(capsys, "decide")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "rieszlogic.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2  # no subcommand is a usage error


def test_determinism_same_inputs_same_output(capsys):
    first = run(capsys, "decide", "a \\/ b -> a")
    second = run(capsys, "decide", "a \\/ b -> a")
    assert first == second


# -- fresh processes ------------------------------------------------------------------
# The tests above call main in this process, where every module is already
# imported; these run the CLI as a user does, so a subcommand that forgets
# to import a module it uses fails here.

def fresh(*argv, **options):
    return subprocess.run(
        [sys.executable, "-m", "rieszlogic.cli", *argv], capture_output=True, text=True, timeout=60, **options
    )


@pytest.fixture()
def inputs(tmp_path, corpus_dir):
    (tmp_path / "v.txt").write_text("p = (1, 0)\nq = (2, 3)\n", "utf-8")
    (tmp_path / "bad_v.txt").write_text("p = 1\n", "utf-8")
    (tmp_path / "bad_m.csv").write_text("term,d1\nx,x\n", "utf-8")
    (tmp_path / "m.csv").write_text("term,d1,d2,d3\norange,2,0,1\nfruit,3,1,1\n", "utf-8")
    (tmp_path / "bad.rlproof").write_text("system: RL\nname: BAD\n1: a -> a \\/ b | zz 1\nqed: 1\n", "utf-8")
    return {"dir": tmp_path, "corpus": corpus_dir}


FRESH_CASES = {
    "parse": (("parse", "a (+) b"), 0, "(a -> 0) -> b\n"),
    "eval": (("eval", "p -> q", "--valuation", "{dir}/v.txt"), 0, "value: (1, 3)\nholds: true\n"),
    "decide-rl": (("decide", "--lang", "rl", "a \\/ b -> a"), 1, "COUNTEREXAMPLE\na = (0)\nb = (1)\n"),
    "decide-bal": (("decide", "--lang", "bal", "((x -> y) -> y) -> x"), 0, "VALID\n"),
    "check-library": (("check", "{corpus}/balb_plus.rlproof", "--library", "{corpus}"), 0, "OK (16 lines)\n"),
    "translate-bal": (("translate", "--to", "bal", "a"), 0, "(a -> z -> z) ^+\n"),
    "translate-rl": (("translate", "--to", "rl", "x ^+"), 0, "x \\/ 0\nx \\/ 0 -> 0\n"),
    "fuzzy-grid": (
        ("fuzzy", "grid", "--op", "tr", "--n", "2"),
        0,
        "a,b,value\n0,0,0\n0,0.5,0\n0,1,\n0.5,0,0\n0.5,0.5,0.5\n0.5,1,1\n1,0,\n1,0.5,1\n1,1,1\n",
    ),
    "distrib": (("distrib", "meet", "--matrix", "{dir}/m.csv", "orange", "fruit"), 0, "(2, 0, 1)\n"),
}


@pytest.mark.parametrize("case", FRESH_CASES, ids=list(FRESH_CASES))
def test_fresh_process_subcommand(inputs, case):
    argv, code, out = FRESH_CASES[case]
    result = fresh(*(arg.format(**inputs) for arg in argv))
    assert (result.returncode, result.stdout, result.stderr) == (code, out, "")


# one case per exception class that main maps to an exit code
FRESH_ERRORS = {
    "ParseError": (("parse", "a -> )"), 2, "unexpected ')' at offset 5 (expected: (, 0, variable, ~)"),
    "ValuationError": (("eval", "p", "--valuation", "{dir}/bad_v.txt"), 2, "line 1: vector must be parenthesized"),
    "BudgetExceededError": (("decide", "--budget", "1", "a \\/ b -> a"), 3, "search size 3 exceeds budget 1"),
    "ProofFormatError": (("check", "{dir}/bad.rlproof"), 2, "line 3: unknown justification 'zz'"),
    "UnknownTermError": (("distrib", "meet", "--matrix", "{dir}/m.csv", "kiwi", "fruit"), 2, "unknown term 'kiwi'"),
    "ReservedVariableError": (("translate", "--to", "bal", "z"), 2, "formula uses the reserved variable 'z'"),
    "_UsageError": (("parse",), 2, "no formula given (inline or --file)"),
    "OSError": (
        ("eval", "a", "--valuation", "{dir}/missing.txt"), 2, "[Errno 2] No such file or directory: '{dir}/missing.txt'"
    ),
    "ValueError": (("fuzzy", "grid", "--op", "tl", "--n", "0"), 2, "resolution must be an int >= 1, not 0"),
    "MatrixFormatError": (("distrib", "meet", "--matrix", "{dir}/bad_m.csv", "x", "x"), 2, "row 2: bad count 'x'"),
}


@pytest.mark.parametrize("error", FRESH_ERRORS, ids=list(FRESH_ERRORS))
def test_fresh_process_error_exit_code(inputs, error):
    argv, code, message = FRESH_ERRORS[error]
    result = fresh(*(arg.format(**inputs) for arg in argv))
    assert (result.returncode, result.stdout, result.stderr) == (code, "", f"error: {message.format(**inputs)}\n")


# (argv, exit code, stdout, stderr), run in a directory holding clash.rlproof
# (BALB_MINUS's proof under the name BALB_PLUS), balb_plus.rlproof and
# xyz.rlproof (an unknown system), and lib/, whose one file is xyz.rlproof
FRESH_CHECKS = {
    "taken-name": (
        ("check", "--library", "{corpus}", "clash.rlproof"),
        2, "", "error: name 'BALB_PLUS' already registered with different content\n",
    ),
    "good-then-taken-name": (
        ("check", "--library", "{corpus}", "balb_plus.rlproof", "clash.rlproof"),
        2, "balb_plus.rlproof: OK (16 lines)\n",
        "error: clash.rlproof: name 'BALB_PLUS' already registered with different content\n",
    ),
    "unknown-system": (("check", "xyz.rlproof"), 2, "", "error: line 1: unknown system 'XYZ'\n"),
    "unknown-system-in-library": (
        ("check", "balb_plus.rlproof", "--library", "lib"), 2, "", "error: xyz.rlproof: line 1: unknown system 'XYZ'\n"
    ),
    "same-name-same-content": (("check", "balb_plus.rlproof", "--library", "{corpus}"), 0, "OK (16 lines)\n", ""),
}


@pytest.mark.parametrize("case", FRESH_CHECKS, ids=list(FRESH_CHECKS))
def test_fresh_process_check_refuses_taken_names_and_unknown_systems(tmp_path, corpus_dir, case):
    xyz = "system: XYZ\nname: X\n1: a | axiom R1a\nqed: 1\n"
    (tmp_path / "clash.rlproof").write_text(corpus_text("balb_minus").replace("BALB_MINUS", "BALB_PLUS"), "utf-8")
    (tmp_path / "balb_plus.rlproof").write_text(corpus_text("balb_plus"), "utf-8")
    (tmp_path / "xyz.rlproof").write_text(xyz, "utf-8")
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "xyz.rlproof").write_text(xyz, "utf-8")
    argv, code, out, err = FRESH_CHECKS[case]
    result = fresh(*(arg.format(corpus=corpus_dir) for arg in argv), cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


#: literals past the 4,300-digit bound, each with the part of it that is too long
_DIGITS_5000 = "1234567890" * 500
BIG_NUMBERS = {
    "1e9999": ("1e9999", "numerator"),
    "1e9999999": ("1e9999999", "numerator"),
    "1e-9999999": ("1e-9999999", "denominator"),
    "5000-digits": (_DIGITS_5000, "numerator"),
}


@pytest.mark.parametrize("number", BIG_NUMBERS, ids=list(BIG_NUMBERS))
@pytest.mark.parametrize("command", ["eval", "distrib"])
def test_fresh_process_refuses_numbers_past_the_digit_bound(tmp_path, command, number):
    # Fraction alone expands 10**9999999 in full (7.5 s in eval, over 30 s in
    # distrib), so the child runs under a CPU cap
    literal, part = BIG_NUMBERS[number]
    shown = literal if len(literal) <= 24 else f"{literal[:20]}..."
    (tmp_path / "v.txt").write_text(f"a = ({literal})\n", "utf-8")
    (tmp_path / "m.csv").write_text(f"term,d1\norange,{literal}\n", "utf-8")
    if command == "eval":
        argv, where = ("eval", "a", "--valuation", "v.txt"), "line 1"
    else:
        argv, where = ("distrib", "cosine", "--matrix", "m.csv", "orange", "orange"), "row 2"
    result = fresh(*argv, cwd=tmp_path, preexec_fn=limited(10))
    message = f"error: {where}: number {shown!r} has a {part} of more than 4300 digits\n"
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)


#: formulas whose value, from numbers within the bound, has a part past it
BIG_VALUES = {
    "numerator": "(a -> 0) -> a",  # 2a, with a 4,300 nines: 4,301 digits
    "denominator": "b -> a",  # 1/(10**4300 - 1) - 1/10**4299: a denominator of about 8,600 digits
}


@pytest.mark.parametrize("part", BIG_VALUES)
def test_fresh_process_refuses_values_past_the_digit_bound(tmp_path, part):
    nines = "9" * 4300
    valuation = f"a = ({nines})\n" if part == "numerator" else f"a = (1/{nines})\nb = (1/1{'0' * 4299})\n"
    (tmp_path / "v.txt").write_text(valuation, "utf-8")
    result = fresh("eval", BIG_VALUES[part], "--valuation", "v.txt", cwd=tmp_path, preexec_fn=limited(10))
    message = f"error: a coordinate has a {part} of more than 4300 digits\n"
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)


def test_fresh_process_accepts_a_4300_digit_number(tmp_path):
    number = "9" * 4300
    (tmp_path / "v.txt").write_text(f"a = ({number})\n", "utf-8")
    (tmp_path / "m.csv").write_text(f"term,d1\norange,{number}\n", "utf-8")
    result = fresh("eval", "a", "--valuation", "v.txt", cwd=tmp_path, preexec_fn=limited(10))
    assert (result.returncode, result.stdout, result.stderr) == (0, f"value: ({number})\nholds: true\n", "")
    result = fresh("distrib", "cosine", "--matrix", "m.csv", "orange", "orange", cwd=tmp_path, preexec_fn=limited(10))
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")


def test_fresh_process_decide_refuses_a_negative_budget():
    # one error line and exit 2; a budget of 0 is a budget, which the root's
    # LP for a, of 1 row, passes; 0 -> 0 needs no column
    result = fresh("decide", "--budget", "-1", "a")
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: budget must be an int >= 0, not -1\n")
    result = fresh("decide", "--budget", "0", "a")
    assert (result.returncode, result.stdout, result.stderr) == (3, "", "error: search size 1 exceeds budget 0\n")
    result = fresh("decide", "0 -> 0")
    assert (result.returncode, result.stdout, result.stderr) == (0, "VALID\n", "")


def test_fresh_process_decide_help_shows_default_budget():
    result = fresh("decide", "--help")
    assert result.returncode == 0
    assert f"default {decide.DEFAULT_BUDGET})" in " ".join(result.stdout.split())


# modules no subcommand may import (dataclasses imports inspect, ast, dis and
# tokenize), unless a bare interpreter has them already
_SLOW_IMPORTS = ("dataclasses", "inspect")
_MODULES_AFTER = f"""
import contextlib, io, sys
from rieszlogic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("rieszlogic") or m in {_SLOW_IMPORTS!r}))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("parse", "a -> b"), ()),
        (("check", "{corpus}/balb_plus.rlproof", "--library", "{corpus}"), ("kernel",)),
        (("decide", "a -> b"), ("decide", "semantics")),
        (("translate", "--to", "bal", "a"), ("bridge", "semantics")),
    ],
    ids=["parse", "check", "decide", "translate"],
)
def test_subcommand_loads_only_its_modules(inputs, argv, loaded):
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, *(arg.format(**inputs) for arg in argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True, timeout=60
    ).stdout.split()
    code, *modules = result.stdout.split()
    assert code in ("0", "1"), result.stderr
    expected = {"rieszlogic", "rieszlogic.cli", "rieszlogic.syntax", *(f"rieszlogic.{m}" for m in loaded)}
    assert set(modules) == expected | {m for m in _SLOW_IMPORTS if m in bare}
