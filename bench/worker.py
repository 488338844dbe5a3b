"""One workload in one fresh process.

Started by ``run.py`` with the workload name as its argument and the
generated inputs as JSON on stdin.  It imports ``rieszlogic``, warms up,
prints ``READY`` with the CPU time used so far (the set-up time),
scaled to the reference speed and raw, and,
unless ``--setup-only`` is given, runs the timed closed loop: one client,
one thread, each op starting when the previous one has ended.  The last
stdout line is a JSON object with the raw results.

A wrong output raises ``WrongOutput`` and fails the run.  A timeout, a
``BudgetExceededError``, an unexpected exception or an unexpected CLI
exit code is a failed op, counted but not fatal.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import spans


class WrongOutput(Exception):
    """The program returned a wrong answer."""


class OpFailed(Exception):
    """An op that failed without a wrong answer; ``kind`` says how."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class OpTimeout(BaseException):
    """Raised by the per-op CPU-time alarm.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def _load_modules():
    from rieszlogic import bridge, cli, decide, kernel, semantics, syntax

    return SimpleNamespace(
        syntax=syntax, semantics=semantics, decide=decide, bridge=bridge, kernel=kernel, cli=cli
    )


def _valuation(rl, mapping: dict) -> object:
    return rl.semantics.Valuation(1, {n: (Fraction(c),) for n, c in mapping.items()})


def _alarm(signum, frame):
    raise OpTimeout()


def within_cutoff(cutoff: float, fn, *args):
    """Run an op under a CPU-time alarm; a timeout is a failed op."""
    try:
        signal.setitimer(signal.ITIMER_PROF, cutoff)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except OpTimeout:
        raise OpFailed("timeout") from None


def _call(fn, *args):
    """Call into the program; map expected refusals to failed ops."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op, not fatal
        if type(exc).__name__ == "BudgetExceededError":
            raise OpFailed("budget") from None
        raise OpFailed(f"error:{type(exc).__name__}") from None


# ---------------------------------------------------------------------------
# workloads: ops() yields (op, end_of_pass) pairs; op() returns on success.
# When time is up the loop still finishes the pass it is in, so every
# run does whole passes and the mix of op sizes stays fixed.


class Workload:
    def label(self, i: int) -> int:
        """Name of the i-th op in the output (its input index)."""
        return i

    def verify(self) -> None:
        """Checks run after the timed loop."""


class CrossCheck(Workload):
    tail_percentile = 99.0
    warmup_ops = 20

    def __init__(self, rl, inputs: dict):
        self.rl = rl
        self.formulas = inputs["formulas"]
        self.order = inputs["order"]
        self.trials = inputs["trials"]
        self.cutoff = inputs["cutoff_s"]
        self.falsify_seed = inputs["falsify_seed"]

    def op(self, k: int, falsify_seed: int) -> None:
        rl, text = self.rl, self.formulas[k]
        f = _call(rl.syntax.parse_rl, text)
        verdict = _call(rl.decide.decide_valid, f)
        if isinstance(verdict, rl.decide.Valid):
            witness = _call(rl.semantics.random_falsify, f, self.trials, 1, falsify_seed)
            if witness is not None:
                raise WrongOutput(f"formula {k} decided VALID but falsified: {text}")
        elif _call(rl.semantics.holds_rl, f, verdict.valuation):
            raise WrongOutput(f"formula {k}: countermodel does not falsify: {text}")

    def warm_up(self) -> None:
        for k in self.order[: self.warmup_ops]:
            self.op(k, k)

    def ops(self):
        for pass_no in range(1_000_000):
            base = (self.falsify_seed * 1_000_003 + pass_no) * len(self.formulas)
            for k in self.order:
                yield (
                    lambda k=k, s=base + k: within_cutoff(self.cutoff, self.op, k, s)
                ), k == self.order[-1]

    def label(self, i: int) -> int:
        return self.order[i % len(self.order)]


class DecideTail(Workload):
    # p90 (29 formulas beyond it) falls where many formulas cost about the
    # same.  Above it the slowest formulas are few and far apart, and one
    # formula's time varies by 10-40% from pass to pass; at p95 and p96
    # the tail moved with that noise by 10% between runs.
    tail_percentile = 90.0

    def __init__(self, rl, inputs: dict):
        self.rl = rl
        self.formulas = [rl.syntax.parse_rl(t) for t in inputs["formulas"]]
        self.order = inputs["order"]
        self.warmup = [rl.syntax.parse_rl(t) for t in inputs["warmup"]]
        self.cutoff = inputs["cutoff_s"]
        self.confirm_trials = inputs["confirm_trials"]
        self.confirm_seed = inputs["confirm_seed"]
        self.verdicts: dict[int, object] = {}

    def op(self, k: int) -> None:
        verdict = within_cutoff(self.cutoff, _call, self.rl.decide.decide_valid, self.formulas[k])
        # every pass decides the same formulas; verify() checks the first verdict
        first = self.verdicts.setdefault(k, verdict)
        if isinstance(first, self.rl.decide.Valid) != isinstance(verdict, self.rl.decide.Valid):
            raise WrongOutput(f"family formula {k} got different verdicts in different passes")

    def warm_up(self) -> None:
        for f in self.warmup:
            self.rl.decide.decide_valid(f)

    def ops(self):
        for _ in range(1_000_000):
            for k in self.order:
                yield (lambda k=k: self.op(k)), k == self.order[-1]

    def label(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def verify(self) -> None:
        # independent of decide: exact evaluation and the sampling falsifier
        sem = self.rl.semantics
        for k, verdict in self.verdicts.items():
            f = self.formulas[k]
            if isinstance(verdict, self.rl.decide.Valid):
                seed = self.confirm_seed * 1000 + k
                if sem.random_falsify(f, self.confirm_trials, 1, seed) is not None:
                    raise WrongOutput(f"family formula {k} decided VALID but falsified")
            elif sem.holds_rl(f, verdict.valuation):
                raise WrongOutput(f"family formula {k}: countermodel does not falsify")


class TranslateLadder(Workload):
    tail_percentile = 75.0

    def __init__(self, rl, inputs: dict):
        self.rl = rl
        self.passes = [
            [(o["depth"], o["text"], [_valuation(rl, v) for v in o["valuations"]]) for o in ops]
            for ops in inputs["passes"]
        ]
        w = inputs["warmup"]
        self.warmup = (2, w["text"], [_valuation(rl, v) for v in w["valuations"]])

    def op(self, depth: int, text: str, valuations: list) -> None:
        syntax, sem, bridge = self.rl.syntax, self.rl.semantics, self.rl.bridge
        f = _call(syntax.parse_rl, text)
        bal = _call(bridge.rl_to_bal, f)
        printed = _call(syntax.format_formula, bal)
        if _call(syntax.parse_bal, printed) != bal:
            raise WrongOutput(f"depth {depth}: printed BAL form does not reparse to the same AST")
        pair = _call(bridge.bal_to_rl, bal)
        for i, v in enumerate(valuations):
            expected = _call(sem.holds_rl, f, v)
            if _call(sem.holds_bal, bal, v) != expected:
                raise WrongOutput(f"depth {depth}: RL and BAL disagree on valuation {i}")
            if i == 0 and (_call(sem.holds_rl, pair.first, v) and _call(sem.holds_rl, pair.second, v)) != expected:
                raise WrongOutput(f"depth {depth}: bal_to_rl pair disagrees with BAL")

    def warm_up(self) -> None:
        self.op(*self.warmup)

    def ops(self):
        for ops in self.passes:
            for i, args in enumerate(ops):
                yield (lambda args=args: self.op(*args)), i == len(ops) - 1



class ProofReplay(Workload):
    tail_percentile = 99.0

    def __init__(self, rl, inputs: dict):
        self.rl = rl
        self.scripts = inputs["scripts"]
        self.seed = inputs["seed"]

    def _script_op(self, stem: str, text: str, state: dict) -> None:
        kernel = self.rl.kernel
        proof = _call(kernel.parse_proof, text)
        report = _call(kernel.check_proof, proof, state["library"])
        if not report.accepted:
            raise WrongOutput(f"{stem}: corpus script rejected: {report.summary()}")
        state["before"].append((stem, proof, state["library"]))
        state["library"] = _call(state["library"].register, proof)

    def _mutation_op(self, stem: str, mutated, position: int, library) -> None:
        report = _call(self.rl.kernel.check_proof, mutated, library)
        bad = report.first_error
        if report.accepted or bad is None or bad.index != mutated.lines[position].index:
            raise WrongOutput(f"{stem}: mutation of line {position + 1} not rejected at that line")

    def _mutate(self, proof, position: int, kind: str):
        kernel, syntax = self.rl.kernel, self.rl.syntax
        line = proof.lines[position]
        if kind == "formula":
            line = kernel.ProofLine(line.index, syntax.Imp(line.formula, line.formula), line.justification)
        else:
            line = kernel.ProofLine(line.index, line.formula, kernel.Mp(line.index, line.index))
        lines = proof.lines[:position] + (line,) + proof.lines[position + 1:]
        return kernel.Proof(proof.system, proof.name, proof.assumptions, lines, proof.conclusion)

    def warm_up(self) -> None:
        state = {"library": self.rl.kernel.TheoremLibrary(), "before": []}
        stem, text = self.scripts[0]
        self._script_op(stem, text, state)

    def ops(self):
        for pass_no in range(1_000_000):
            state = {"library": self.rl.kernel.TheoremLibrary(), "before": []}
            for stem, text in self.scripts:
                yield (lambda stem=stem, text=text: self._script_op(stem, text, state)), False
            mutations = [
                (stem, proof, library, position, kind)
                for stem, proof, library in state["before"]
                for position in range(len(proof.lines))
                for kind in ("formula", "justification")
            ]
            random.Random(self.seed * 1_000_003 + pass_no).shuffle(mutations)
            for i, (stem, proof, library, position, kind) in enumerate(mutations):
                mutated = self._mutate(proof, position, kind)
                yield (
                    lambda a=(stem, mutated, position, library): self._mutation_op(*a)
                ), i == len(mutations) - 1


class CliOneshot(Workload):
    # the slowest quarter of the ops is the check ops; p84 lies inside it
    # with at least 10 samples beyond (p75 sat on the edge of that class)
    tail_percentile = 84.0
    expected_codes = {"decide": (0, 1), "parse": (0,), "translate": (0, 1), "check": (0,)}

    def __init__(self, rl, inputs: dict):
        self.rl = rl
        self.cycles = inputs["cycles"]
        self.warmup = inputs["warmup"]
        self.confirm_seed = inputs["confirm_seed"]
        self.results: list[tuple[dict, int, str]] = []

    @staticmethod
    def command(argv: list) -> list:
        return [sys.executable, "-m", "rieszlogic.cli", *argv]

    def op(self, spec: dict) -> None:
        proc = subprocess.run(self.command(spec["argv"]), capture_output=True, text=True, timeout=60)
        self.results.append((spec, proc.returncode, proc.stdout))
        if proc.returncode not in self.expected_codes[spec["kind"]]:
            raise OpFailed(f"exit:{proc.returncode}")

    def warm_up(self) -> None:
        subprocess.run(self.command(self.warmup), capture_output=True, timeout=60, check=True)

    def ops(self):
        for cycle in self.cycles:
            for i, spec in enumerate(cycle):
                yield (lambda spec=spec: self.op(spec)), i == len(cycle) - 1

    def verify(self) -> None:
        for k, (spec, code, stdout) in enumerate(self.results):
            if code in self.expected_codes[spec["kind"]]:
                self.check_output(k, spec, code, stdout.splitlines() or [""])

    def check_output(self, k: int, spec: dict, code: int, lines: list) -> None:
        syntax, sem = self.rl.syntax, self.rl.semantics
        kind, first = spec["kind"], lines[0]
        where = f"op {k} ({' '.join(spec['argv'][:1])} {spec.get('formula', '')})"
        if kind == "parse":
            if syntax.parse_rl(first) != syntax.parse_rl(spec["formula"]):
                raise WrongOutput(f"{where}: printed form does not reparse to the input AST")
        elif kind == "check":
            if not first.startswith("OK ("):
                raise WrongOutput(f"{where}: corpus script not accepted: {first}")
        elif kind == "decide":
            f = syntax.parse_rl(spec["formula"])
            if code == 0 and first == "VALID":
                if sem.random_falsify(f, 200, 1, self.confirm_seed * 1000 + k) is not None:
                    raise WrongOutput(f"{where}: VALID refuted by the falsifier")
            elif code == 1 and first == "COUNTEREXAMPLE":
                text = "\n".join(lines[1:])
                v = sem.parse_valuation(text) if text.strip() else sem.Valuation(1, {})
                if sem.holds_rl(f, v):
                    raise WrongOutput(f"{where}: countermodel does not falsify")
            else:
                raise WrongOutput(f"{where}: exit {code} with output {first!r}")
        elif kind == "translate":
            if code != 0:
                raise WrongOutput(f"{where}: RL/BAL equivalence check failed")
            f, bal = syntax.parse_rl(spec["formula"]), syntax.parse_bal(first)
            rng = random.Random(self.confirm_seed * 1000 + k)
            names = sorted(syntax.variables(f))
            for _ in range(20):
                v = sem.Valuation(1, {n: (Fraction(rng.randint(-10, 10)),) for n in names})
                if sem.holds_rl(f, v) != sem.holds_bal(bal, v):
                    raise WrongOutput(f"{where}: printed BAL form disagrees with the RL input")

    def replay_in_process(self, specs: list) -> None:
        """Run the argv lists through ``cli.main`` in this process."""
        sink = io.StringIO()
        for spec in specs:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.rl.cli.main(spec["argv"])
            if code not in self.expected_codes[spec["kind"]]:
                raise WrongOutput(f"in-process {spec['argv'][0]} exited {code}")
            sink.seek(0)
            sink.truncate()


WORKLOADS = {
    "cross-check": CrossCheck,
    "decide-tail": DecideTail,
    "translate-ladder": TranslateLadder,
    "proof-replay": ProofReplay,
    "cli-oneshot": CliOneshot,
}


# ---------------------------------------------------------------------------
# the timed loop


def cpu_clock() -> float:
    """CPU seconds used by this thread and the children it has waited for.

    The thread clock, because while a process-wide CPU timer is armed
    (decide-tail's cutoff) Linux reads the process clock only at tick
    resolution.  The program is single-threaded.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


# Op times are CPU times scaled to a reference machine speed.  On a small
# shared machine the speed of identical code drifts by 20-40% over
# seconds to minutes (wall and CPU time alike), which moved whole-run
# medians by 20% between identical runs.  A fixed kernel that does not
# depend on the program runs every REFERENCE_EVERY_S; each op's CPU time
# is multiplied by REFERENCE_NOMINAL_S (about the kernel's time on an
# unloaded machine) over the median kernel time of the nearest samples.
# On decide-tail this cut the run-to-run spread of p95 from 25% to 7%.
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_S = 0.0025
REFERENCE_WINDOW = 4  # samples on each side of an op
SETUP_REFERENCE_RUNS = 5


def reference_kernel() -> float:
    """CPU seconds of a fixed pure-Python kernel.

    Frozenset building and hashing and exact Fraction sums: the same kind
    of work as the program, which this kernel tracked better than plain
    dict and str work did.
    """
    t0 = time.thread_time()
    seen = set()
    for i in range(700):
        clause = frozenset((j * i % 17, j & 3) for j in range(8))
        seen.add(clause | frozenset(((i, 0),)))
    sum(Fraction(i, 7) for i in range(300))
    return time.thread_time() - t0


def scale_to_reference(latencies: list[float], samples: list[tuple[int, float]], keep: set) -> list[float]:
    """Each latency times REFERENCE_NOMINAL_S / (local median kernel time).

    Ops in ``keep`` (timeouts) are not scaled: a timed-out op costs the
    cutoff, however fast the machine ran meanwhile.
    """
    positions = [i for i, _ in samples]
    scaled = []
    for i, latency in enumerate(latencies):
        if i in keep:
            scaled.append(latency)
            continue
        j = bisect.bisect_left(positions, i)
        window = [t for _, t in samples[max(0, j - REFERENCE_WINDOW): j + REFERENCE_WINDOW]]
        scaled.append(latency * REFERENCE_NOMINAL_S / statistics.median(window))
    return scaled


def run_loop(workload, seconds: float, limit: int | None = None) -> dict:
    """Closed loop until the deadline (at a pass boundary) or ``limit`` ops.

    The deadline is in wall time.  A run never takes longer than three
    times its budget: past that the loop stops even inside a pass.
    """
    wall = time.perf_counter
    latencies: list[float] = []
    failures: list[tuple[int, str]] = []
    samples = [(-1, reference_kernel())]
    kernel_wall = 0.0
    start = wall()
    deadline, hard_stop = start + seconds, start + 3 * seconds
    next_sample = start + REFERENCE_EVERY_S
    for i, (op, end_of_pass) in enumerate(workload.ops()):
        if limit is not None and i >= limit:
            break
        t0 = cpu_clock()
        try:
            op()
        except OpFailed as exc:
            failures.append((i, exc.kind))
        latencies.append(cpu_clock() - t0)
        now = wall()
        if limit is None and now >= next_sample:
            samples.append((i, reference_kernel()))
            next_sample = wall()
            kernel_wall += next_sample - now
            next_sample += REFERENCE_EVERY_S
        if limit is None and (now >= hard_stop or (now >= deadline and end_of_pass)):
            break
    return {
        "wall": wall() - start - kernel_wall,  # the loop without the kernel
        "latencies": latencies,
        "scaled": scale_to_reference(
            latencies, samples, {i for i, kind in failures if kind == "timeout"}
        ),
        "failures": failures,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cli_import_ms(pairs: int = 7) -> float:
    """Fresh ``import rieszlogic.cli`` minus a bare interpreter, medians."""
    bare, full = [], []
    for _ in range(pairs):
        for cmd, out in (("pass", bare), ("import rieszlogic.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", cmd], check=True, timeout=60)
            out.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000


def traced_metrics(rl, name: str, inputs: dict, workload, first: dict) -> dict:
    """Replay the ops of the untraced loop ``first`` with every span recorded."""
    untraced_wall = first["wall"]
    process_ms = 0.0
    if name == "cli-oneshot":
        # subprocess latency is the process metric; the in-process
        # replays split cli self time from the layers below it
        process_ms = statistics.median(first["latencies"]) * 1000
        specs = [spec for spec, _, _ in workload.results]
        t0 = time.perf_counter()
        workload.replay_in_process(specs)
        untraced_wall = time.perf_counter() - t0

    fresh = WORKLOADS[name](rl, inputs)
    tracer = spans.Tracer()
    spans.install_all(tracer, rl)
    t0 = time.perf_counter()
    if name == "cli-oneshot":
        workload.replay_in_process(specs)
    else:
        run_loop(fresh, 0.0, limit=len(first["latencies"]))
    traced_wall = time.perf_counter() - t0
    metrics = spans.layer_metrics(tracer, traced_wall)
    metrics["cli.import_ms"] = cli_import_ms()
    metrics["cli.process_ms"] = process_ms
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main() -> int:
    name = sys.argv[1]
    setup_only = "--setup-only" in sys.argv[2:]
    trace = "--trace" in sys.argv[2:]
    request = json.load(sys.stdin)
    signal.signal(signal.SIGPROF, _alarm)
    rl = _load_modules()
    workload = WORKLOADS[name](rl, request["inputs"])
    workload.warm_up()
    setup = cpu_clock()
    # set-up time is scaled like op times, by kernel runs it does not include
    kernel = statistics.median(reference_kernel() for _ in range(SETUP_REFERENCE_RUNS))
    print(f"READY {setup * REFERENCE_NOMINAL_S / kernel} {setup}", flush=True)
    if setup_only:
        return 0

    loop = run_loop(workload, request["seconds"])
    workload.verify()
    result = {
        "wall": loop["wall"],
        "latencies": loop["latencies"],
        "scaled": loop["scaled"],
        "failures": [(workload.label(i), kind) for i, kind in loop["failures"]],
        "tail_percentile": workload.tail_percentile,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result["traced"] = traced_metrics(rl, name, request["inputs"], workload, loop)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WrongOutput as exc:
        print(json.dumps({"wrong": str(exc)}))
        sys.exit(1)
