"""Span recording for the traced run, and the per-layer metrics.

Tracing wraps the public entry points of the ``rieszlogic`` modules as
attributes of the module that calls them; the program itself is not
changed.  A name bound with ``from .syntax import ...`` is a separate
attribute of the importing module, so it is wrapped there.  Recursive
functions (``eval_rl``, ``_fmt``, ...) are never wrapped: their
callers' spans cover them.

Spans are kept in memory as (name, start, end, parent, error, extra)
and reduced to metrics once, at the end.  A span's self time is its
duration minus the durations of its direct children; the layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

LAYERS = ("syntax", "semantics", "decide", "bridge", "kernel", "cli")


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index, error type name, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        """Record a span per call; ``extra(args, result)`` reads counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            else:
                span[2] = clock()
                if extra is not None:
                    span[5] = extra(args, result)
                return result
            finally:
                stack.pop()

        return traced

    def install(self, owner, attr: str, name: str, extra: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), extra))


def install_all(tracer: Tracer, rl) -> None:
    """Wrap every entry point the workloads reach; ``rl`` holds the modules."""
    syntax, semantics, decide, bridge, kernel, cli = (
        rl.syntax, rl.semantics, rl.decide, rl.bridge, rl.kernel, rl.cli
    )

    def text_len(args, result):
        return len(args[0])

    def result_len(args, result):
        return len(result)

    def nf_size(args, result):
        return len(result.clauses), sum(len(c) for c in result.clauses)

    def report_size(args, result):
        return len(result.statuses), result.accepted

    for owner in (syntax, cli):
        tracer.install(owner, "parse_rl", "syntax.parse", text_len)
        tracer.install(owner, "parse_bal", "syntax.parse", text_len)
    tracer.install(kernel, "parse_schema", "syntax.parse", text_len)
    for owner in (syntax, cli, kernel, decide):
        tracer.install(owner, "format_formula", "syntax.format", result_len)

    # random_falsify and holds_* look these up as module globals
    tracer.install(semantics, "compile_scalar", "semantics.compile")
    tracer.install(semantics, "random_falsify", "semantics.falsify")
    for owner in (semantics, bridge):
        tracer.install(owner, "holds_rl", "semantics.eval")
        tracer.install(owner, "holds_bal", "semantics.eval")

    tracer.install(decide, "decide_valid", "decide.decide_valid")
    tracer.install(decide, "linearize", "decide.linearize", nf_size)
    tracer.install(decide, "clause_valid", "decide.clause_valid")

    # the DAG is kept and measured after the run, outside every span
    tracer.install(bridge, "rl_to_bal", "bridge.rl_to_bal", lambda args, result: result)
    tracer.install(bridge, "bal_to_rl", "bridge.bal_to_rl")
    tracer.install(bridge, "check_equivalence", "bridge.check_equivalence")

    tracer.install(kernel, "parse_proof", "kernel.parse_proof")
    tracer.install(kernel, "check_proof", "kernel.check_proof", report_size)
    tracer.install(kernel.TheoremLibrary, "register", "kernel.register")

    tracer.install(cli, "main", "cli.main")
    tracer.install(cli, "_load_library_dir", "cli.load_library")


def _node_counts(root) -> tuple[int, int]:
    """(distinct nodes by identity, nodes of the unfolded tree)."""
    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in tree:
            continue
        children = [getattr(node, a) for a in ("left", "right", "inner") if hasattr(node, a)]
        if expanded:
            tree[key] = 1 + sum(tree[id(c)] for c in children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in tree)
    return len(tree), tree[id(root)]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Reduce the spans of one traced pass (``wall`` seconds long)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    root_time = 0.0
    for name, start, end, parent, error, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            root_time += end - start

    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent, error, extra) in enumerate(spans):
        self_by_name[name] = self_by_name.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def self_s(name: str) -> float:
        return self_by_name.get(name, 0.0)

    def extras(name: str) -> list:
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    nf = extras("decide.linearize")
    reports = extras("kernel.check_proof")
    dags = [_node_counts(root) for root in extras("bridge.rl_to_bal")]
    nf_clauses = sum(c for c, _ in nf)
    check_calls = calls.get("kernel.check_proof", 0)
    decide_errors = [s[4] for s in spans if s[0] == "decide.decide_valid" and s[4]]

    # check_proof calls made while cli loads a --library directory
    in_load = 0
    for i, span in enumerate(spans):
        if span[0] != "kernel.check_proof":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "cli.load_library":
            parent = spans[parent][3]
        in_load += parent >= 0

    m = {
        "syntax.parse_s": self_s("syntax.parse"),
        "syntax.parse_chars": sum(extras("syntax.parse")),
        "syntax.format_s": self_s("syntax.format"),
        "syntax.format_chars": sum(extras("syntax.format")),
        "semantics.compile_s": self_s("semantics.compile"),
        "semantics.falsify_s": self_s("semantics.falsify"),
        "semantics.falsify_calls": calls.get("semantics.falsify", 0),
        "semantics.eval_s": self_s("semantics.eval"),
        "semantics.eval_calls": calls.get("semantics.eval", 0),
        "decide.linearize_s": self_s("decide.linearize"),
        "decide.nf_clauses": nf_clauses,
        "decide.nf_terms": sum(t for _, t in nf),
        "decide.clause_valid_s": self_s("decide.clause_valid"),
        "decide.clauses_checked": calls.get("decide.clause_valid", 0),
        "decide.clauses_checked_ratio": ratio(calls.get("decide.clause_valid", 0), nf_clauses),
        "decide.timeouts": decide_errors.count("OpTimeout"),
        "decide.budget_exceeded": decide_errors.count("BudgetExceededError"),
        "bridge.rl_to_bal_s": self_s("bridge.rl_to_bal"),
        "bridge.bal_to_rl_s": self_s("bridge.bal_to_rl"),
        "bridge.dag_nodes": sum(d for d, _ in dags),
        "bridge.tree_nodes": sum(t for _, t in dags),
        "kernel.parse_proof_s": self_s("kernel.parse_proof"),
        "kernel.check_proof_s": self_s("kernel.check_proof"),
        "kernel.check_calls": check_calls,
        "kernel.lines_checked": sum(n for n, _ in reports),
        "kernel.register_s": self_s("kernel.register"),
        "kernel.accept_ratio": ratio(sum(1 for _, ok in reports if ok), check_calls),
        "cli.main_s": self_s("cli.main"),
        "cli.check_calls_per_load": ratio(in_load, calls.get("cli.load_library", 0)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer)
    m["bench.self_s"] = wall - root_time
    m["trace.wall_s"] = wall
    return m
