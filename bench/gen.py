"""Seeded inputs for every workload, and their digests.

The formula generator is a pinned copy of ``random_rl_formula`` from the
repository's test helpers, not an import of it, so that a later change
to the tests cannot silently change what a workload runs.  It draws
from the random stream exactly as that helper does (``Random(2024)``
gives the 1,000 formulas of acceptance criterion 3) but emits canonical
text, so the program under test only ever receives strings.

``digests.json`` pins the digest of every workload's inputs at two
reference seeds; ``run.py`` refuses to run when a generator no longer
reproduces them.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

VARS4 = ("a", "b", "c", "d")
VARS6 = VARS4 + ("e", "f")

#: registration order of the shipped proof scripts
CORPUS_NAMES = (
    "balmp_plus", "balmp_minus", "balpi_plus", "balpi_minus", "balg_plus",
    "balg_minus", "balmi_plus", "balmi_part1", "balmi_part2", "balmi_part3",
    "balb_plus", "balb_minus", "balc", "baln_plus", "baln_minus", "balp_plus",
    "balp_minus", "asserting_positivity",
)
CORPUS_DIR = Path("src", "rieszlogic", "corpus")

# cross-check: the acceptance-3 pipeline with the falsifier scaled down
# from 10^4 trials, over the 1,000 formulas that Random(2024) draws
# (acceptance criterion 3).  --seed permutes their order and seeds the
# falsifier.  A fixed pool, because about one fresh 12-connective
# formula in 10^4 takes seconds in decide (2.05 s for #11194 of
# Random(6)): fresh pools made a run's cost depend on whether it reached
# one.  The pool's slowest op takes about 7 ms, so the 0.2 s cutoff only
# fires on a regression.  cli-oneshot samples its formulas from the
# same pool.
CROSS_POOL_SEED = 2024
CROSS_POOL = 1000
CROSS_TRIALS = 500
CROSS_CUTOFF_S = 0.2
CROSS_WARMUP = 20

# decide-tail: a fixed family, the first 300 formulas that Random(32)
# draws; --seed only permutes the order.  Per-seed samples of this
# heavy-tailed family differ in cost by more than any usable bound.  No
# op may fail in a benchmark run, so the ten formulas whose decide takes
# longer than a run can hold are left out (CPU seconds with
# PYTHONHASHSEED=0: #84 3.7 s, #224 2.6 s, the other eight still running
# at 4 s).  The slowest formulas kept take 1.2 s (#72), 1.1 s (#2) and
# 0.9 s (#248); the 5 s cutoff is four times that, so it fires only on a
# regression and never flaps.
TAIL_FAMILY_SEED = 32
TAIL_POOL = 300
TAIL_EXCLUDED = (84, 115, 120, 121, 151, 155, 181, 183, 224, 236)
TAIL_CUTOFF_S = 5.0
TAIL_CONFIRM_TRIALS = 200

# translate-ladder: one pass is depths 8, 9, 10, 11, 11, so the median
# op is a d = 10 op and the p75 op a d = 11 op, each well inside its class
LADDER_PASS = (8, 9, 10, 11, 11)
LADDER_MAX_PASSES = 100
LADDER_VALUATIONS = 2

# cli-oneshot: one cycle is decide, parse, translate, check.  The
# translate trials are few, so that its cost varies little with the
# formula and stays below the check ops, which form the slowest quarter.
CLI_MAX_CYCLES = 200
CLI_TRIALS = 50


def rl_formula_text(rng: random.Random, max_connectives: int, names) -> str:
    """Draw like ``tests/util.random_rl_formula`` and print canonically.

    The printer follows the grammar: ``->`` is right associative and
    binds loosest, ``\\/`` is left associative.
    """

    def build(budget: int) -> tuple[str, int]:  # (text, 0 = imp, 1 = join, 2 = atom)
        if budget <= 0:
            return ("0", 2) if rng.random() < 0.15 else (rng.choice(names), 2)
        split = rng.randrange(budget)
        left, right = build(split), build(budget - 1 - split)
        lhs = left[0] if left[1] >= 1 else f"({left[0]})"
        if rng.random() < 0.55:
            return f"{lhs} -> {right[0]}", 0
        rhs = right[0] if right[1] >= 2 else f"({right[0]})"
        return f"{lhs} \\/ {rhs}", 1

    return build(rng.randint(1, max_connectives))[0]


def _formulas(rng: random.Random, count: int, max_connectives: int, names) -> list[str]:
    return [rl_formula_text(rng, max_connectives, names) for _ in range(count)]


def _cross_pool() -> list[str]:
    return _formulas(random.Random(CROSS_POOL_SEED), CROSS_POOL, 12, VARS4)


def cross_check(seed: int, root: Path) -> dict:
    order = list(range(CROSS_POOL))
    random.Random(seed).shuffle(order)
    return {
        "formulas": _cross_pool(),
        "order": order,
        "trials": CROSS_TRIALS,
        "cutoff_s": CROSS_CUTOFF_S,
        "falsify_seed": seed,
    }


def decide_tail(seed: int, root: Path) -> dict:
    family = _formulas(random.Random(TAIL_FAMILY_SEED), TAIL_POOL, 32, VARS6)
    order = [k for k in range(TAIL_POOL) if k not in TAIL_EXCLUDED]
    random.Random(seed).shuffle(order)
    return {
        "formulas": family,
        "order": order,
        "warmup": _cross_pool()[:CROSS_WARMUP],
        "cutoff_s": TAIL_CUTOFF_S,
        "confirm_trials": TAIL_CONFIRM_TRIALS,
        "confirm_seed": seed,
    }


def translate_ladder(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    passes = []
    for _ in range(LADDER_MAX_PASSES):
        ops = []
        for depth in LADDER_PASS:
            names = [f"a{i}" for i in range(depth + 1)]
            rng.shuffle(names)
            # the first valuation makes every variable negative, so the
            # formula fails there and both outcomes are compared
            valuations = [{n: rng.randint(-10, -1) for n in names}]
            valuations += [{n: rng.randint(-10, 10) for n in names} for _ in range(LADDER_VALUATIONS - 1)]
            ops.append({"depth": depth, "text": " \\/ ".join(names), "valuations": valuations})
        passes.append(ops)
    return {"passes": passes, "warmup": {"text": "a0 \\/ a1 \\/ a2", "valuations": [{"a0": 1}]}}


def _corpus(root: Path) -> list[list[str]]:
    return [[stem, (root / CORPUS_DIR / f"{stem}.rlproof").read_text("utf-8")] for stem in CORPUS_NAMES]


def proof_replay(seed: int, root: Path) -> dict:
    # the worker shuffles each pass's mutations with Random(seed, pass)
    return {"scripts": _corpus(root), "seed": seed}


def cli_oneshot(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    pool = _cross_pool()
    corpus = CORPUS_DIR.as_posix()
    cycles = []
    for k in range(CLI_MAX_CYCLES):
        stem = CORPUS_NAMES[k % len(CORPUS_NAMES)]
        decided, parsed, translated = (rng.choice(pool) for _ in range(3))
        cycles.append([
            {"kind": "decide", "formula": decided, "argv": ["decide", decided]},
            {"kind": "parse", "formula": parsed, "argv": ["parse", parsed]},
            {"kind": "translate", "formula": translated,
             "argv": ["translate", "--to", "bal", "--trials", str(CLI_TRIALS), translated]},
            {"kind": "check", "argv": ["check", "--library", corpus, f"{corpus}/{stem}.rlproof"]},
        ])
    return {"cycles": cycles, "warmup": ["parse", "a -> a"], "confirm_seed": seed}


WORKLOADS = {
    "cross-check": cross_check,
    "decide-tail": decide_tail,
    "translate-ladder": translate_ladder,
    "proof-replay": proof_replay,
    "cli-oneshot": cli_oneshot,
}

#: seeds whose input digests are pinned in digests.json
REFERENCE_SEEDS = (1, 2024)
DIGESTS_FILE = Path(__file__).with_name("digests.json")


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def reference_digests(root: Path) -> dict[str, dict[str, str]]:
    return {
        name: {str(seed): digest(make(seed, root)) for seed in REFERENCE_SEEDS}
        for name, make in WORKLOADS.items()
    }


if __name__ == "__main__":
    # regenerate the pinned digests; run from the repository root
    DIGESTS_FILE.write_text(json.dumps(reference_digests(Path(".")), indent=2) + "\n")
    print(f"wrote {DIGESTS_FILE}")
