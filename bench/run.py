"""Benchmark for riesz-logic: five seeded closed-loop workloads.

Run from the repository root::

    python3 bench/run.py --workload cross-check --seed 1 --seconds 15 --trace 0

Each workload runs in fresh worker processes, one at a time: eight that
only set up (for ``setup_s``) and one that sets up and runs the timed
loop.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the worker replays the same ops with every
call into ``rieszlogic`` recorded and the line carries the per-layer
metrics.  A wrong output, or a generator whose pinned digest no longer
matches, fails the run with exit code 1.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 9
WORKER_TIMEOUT_S = 150  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "1",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here, or a worker misbehaved."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_chars"):
        return "chars"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def quantile(sorted_values: list[float], percentile: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = percentile / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def environment(root: Path) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rieszlogic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "git_commit": git_commit(root),
        "src_sha256": src.hexdigest()[:16],
    }


def git_commit(root: Path):
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_digests(name: str, root: Path) -> None:
    pinned = json.loads(gen.DIGESTS_FILE.read_text())[name]
    for seed in gen.REFERENCE_SEEDS:
        got = gen.digest(gen.WORKLOADS[name](seed, root))
        if got != pinned[str(seed)]:
            raise BenchError(
                f"{name}: inputs for reference seed {seed} have digest {got}, "
                f"pinned {pinned[str(seed)]}; the generator changed"
            )


def start_worker(name: str, request: bytes, env: dict, root: Path, *flags: str):
    """Start a worker, feed it its inputs, wait for READY.

    Returns the process and its set-up time as (scaled CPU seconds, CPU
    seconds, wall seconds).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), name, *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
    )
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        proc.stdin = None  # so that communicate() does not flush it
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        if not line.startswith(b"READY "):
            raise BenchError(f"worker did not get ready: {line[-500:]!r}")
        scaled, cpu = map(float, line.split()[1:3])
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, (scaled, cpu, wall)


def finish_worker(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "wrong" in result:
        return result
    if proc.returncode != 0 or "latencies" not in result:
        raise BenchError(f"worker exited {proc.returncode}: {out[-500:]!r}")
    return result


def finish_worker_quietly(proc) -> None:
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited {proc.returncode}")


def end_to_end(result: dict, setups: list[tuple[float, float, float]]) -> tuple[dict, dict]:
    """Metrics from the worker's raw results.

    Op times are CPU times scaled to the reference speed (see worker.py);
    so is the set-up time, the CPU time up to READY.
    """
    scaled = sorted(result["scaled"])
    attempted, failed = len(scaled), len(result["failures"])
    pct = result["tail_percentile"]
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _, _ in setups),
        "ops_per_s": (attempted - failed) / sum(scaled),
        "op_p50_ms": quantile(scaled, 50) * 1000,
        "op_tail_ms": quantile(scaled, pct) * 1000,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = sorted(result["latencies"])
    info = {
        "tail_percentile": pct,
        "tail_samples_beyond": int(attempted * (1 - pct / 100)),
        "samples": attempted,
        "raw_cpu_p50_ms": quantile(raw, 50) * 1000,
        "raw_cpu_tail_ms": quantile(raw, pct) * 1000,
        "reference_scale": sum(raw) / sum(scaled),
        "loop_wall_s": result["wall"],
        "setup_cpu_s": [cpu for _, cpu, _ in setups],
        "setup_wall_s": [wall for _, _, wall in setups],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, info


def run(args) -> tuple[dict, int]:
    root = Path.cwd()
    if not (root / "src" / "rieszlogic" / "__init__.py").is_file():
        raise BenchError("run from the repository root: src/rieszlogic not found")
    check_digests(args.workload, root)
    inputs = gen.WORKLOADS[args.workload](args.seed, root)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": gen.digest(inputs),
        "env": environment(root),
    }
    request = json.dumps({"inputs": inputs, "seconds": args.seconds}).encode()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # decide's work depends on set iteration order, hence on string hashing
    env["PYTHONHASHSEED"] = "0"

    # compile bytecode once, as an installed package has it
    subprocess.run([sys.executable, "-c", "import rieszlogic.cli"], env=env, cwd=root, check=True, timeout=120)
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, setup = start_worker(args.workload, request, env, root, "--setup-only")
            finish_worker_quietly(proc)
            setups.append(setup)
    flags = ("--trace",) if args.trace else ()
    proc, setup = start_worker(args.workload, request, env, root, *flags)
    setups.append(setup)
    result = finish_worker(proc)
    if "wrong" in result:
        print(json.dumps({**header, "wrong_output": result["wrong"]}))
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}, 1

    attempted, failed = len(result["latencies"]), len(result["failures"])
    if "cutoff_s" in inputs:
        header["cutoff_s"] = inputs["cutoff_s"]
    header["failed_ops"] = result["failures"]  # [input index, kind]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(result["traced"].items())}
    else:
        metrics, info = end_to_end(result, setups)
        header.update(info)
    print(json.dumps(header))
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        line, code = run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
