"""One repetition of a workload, run by run.py in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE

Times the import of kohnspec (setup_s), builds the workload's inputs from
the seed, runs the timed pass (wall_s), reads the peak RSS, and then runs
the output checks.  With TRACE = 1 the tracer is installed for the timed
pass and the per-layer metrics are added.  Prints one JSON line.
"""

import sys
import time

_t = time.perf_counter()
import kohnspec  # noqa: E402
import kohnspec.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _t

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(kohnspec.__file__).resolve().parents:
        sys.exit(f"kohnspec was imported from {kohnspec.__file__}, not from {src}")
    ops = workloads.operations(workload, workloads.inputs(workload, seed))

    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    start = time.perf_counter()
    outcomes = workloads.timed_pass(ops)
    wall_s = time.perf_counter() - start
    if tr:
        tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = workloads.failures(outcomes)
    for message in failed:
        print(message, file=sys.stderr)
    record = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failed),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tr:
        layers = tr.metrics(wall_s)
        self_sum = sum(tr.self_times().values())
        if abs(self_sum + layers["trace.unattributed_s"] - wall_s) > 1e-6:
            sys.exit(f"self times {self_sum} plus unattributed time do not add up to wall time {wall_s}")
        record["layers"] = layers
    print(json.dumps(record))


if __name__ == "__main__":
    main()
