"""Benchmark entry point.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter (bench/worker.py),
one at a time and with BLAS/OpenMP threads capped at 1, for about S seconds.
A fresh interpreter per repetition keeps the package's caches (the @cache
group constructors, the per-group memo tables and the module-level
difference-matrix cache) from turning later repetitions into lookups.

With --trace 0 the last line reports the end-to-end metrics: medians over the
repetitions.  With --trace 1 the repetitions alternate untraced and traced,
and the last line reports the per-layer metrics (medians over the traced
repetitions) with trace.overhead_s, the traced minus the untraced median
wall_s.  The line before it holds the run's metadata and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_PAIRS = 2           # untraced/traced pairs per --trace 1 run
BUDGET_S = 150          # no repetition is started that would end after this
DEADLINE_S = 170        # a repetition still running then is killed; runs end within 180 s
STARTED = time.perf_counter()


class BenchError(Exception):
    pass


def _worker(env: dict, workload: str, seed: int, trace: bool) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - STARTED)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} repetition was still running after {DEADLINE_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"a {workload} repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repetitions(env: dict, args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced samples, repeated until the next repetition would
    end past --seconds, once the minimum count is reached."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(_worker(env, args.workload, args.seed, False))
        if args.trace:
            traced.append(_worker(env, args.workload, args.seed, True))
        elapsed = time.perf_counter() - start
        round_s = elapsed / len(plain)
        enough = len(plain) >= (MIN_PAIRS if args.trace else MIN_REPS)
        if enough and elapsed + round_s > args.seconds:
            return plain, traced
        if time.perf_counter() - STARTED + round_s > BUDGET_S:
            return plain, traced


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_cell"):
        return "us"
    return "ratio" if metric.endswith("ratio") else "count"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["reproduce", "deep_n2", "lens_n3"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kohnspec" / "__init__.py").is_file():
        print(f"bench: no kohnspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_CAPS)
    # untimed import: writes the bytecode cache, as an installed package has one
    warm = subprocess.run([sys.executable, "-c", "import kohnspec.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"bench: kohnspec does not import:\n{warm.stderr}", file=sys.stderr)
        return 1
    try:
        plain, traced = _repetitions(env, args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    wall = statistics.median(s["wall_s"] for s in plain)
    if args.trace:
        metrics = {key: {"value": statistics.median(s["layers"][key] for s in traced), "unit": _unit(key)}
                   for key in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in plain), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": samples[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "src_lines": _src_lines(),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "samples": samples,
    }
    print(json.dumps({"metadata": metadata}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
