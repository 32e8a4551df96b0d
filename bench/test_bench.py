"""Smoke tests of the benchmark itself: each workload at a tiny size with its
checks passing, and the tracer's self-time arithmetic.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import kohnspec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "reproduce": {"commands": [i for i, c in enumerate(workloads.GOLDEN)
                               if c["argv"][0] in ("multiplicity", "compare", "xi", "genfun", "h0dims")]},
    "deep_n2": {"weyl": [["cycsemi:3:2", 240], ["2I", 300]], "grid": 4,
                "sobolev": [["2I", 24], ["cycsemi:3:2", 20]]},
    "lens_n3": {"count": [["lens:5:2,1,3", 40], ["lens:7:1,2,4", 40]], "series": ["lens:5:2,1,3", 30],
                "oracle": ["lens:5:2,1,3", 3]},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_passes_its_checks(workload):
    ops = workloads.operations(workload, TINY[workload])
    outcomes = workloads.timed_pass(ops)
    assert len(outcomes) == len(ops) > 0
    assert workloads.failures(outcomes) == []


@pytest.mark.parametrize("workload", sorted(TINY))
def test_inputs_follow_the_seed(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.operations(workload, workloads.inputs(workload, 7))


def test_wrong_output_fails_its_check():
    entry = workloads.GOLDEN[0]
    check = workloads._check_cli(entry)
    assert check((0, entry["stdout"], "")) is None
    assert check((0, entry["stdout"].replace(" 2 ", " 3 "), "")) is not None
    assert check((1, entry["stdout"], "error")) is not None


def test_self_times_on_a_synthetic_span_tree():
    tr = tracer.Tracer()
    tr.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["d", 11.0, 12.0, -1],
    ]
    assert tr.self_times() == {"a": 5.0, "b": 4.0, "c": 1.0, "d": 1.0}
    metrics = tr.metrics(wall_s=15.0)
    assert metrics["trace.unattributed_s"] == 4.0
    assert sum(tr.self_times().values()) + metrics["trace.unattributed_s"] == 15.0


def test_generator_span_covers_its_full_iteration():
    tr = tracer.Tracer(clock=itertools.count().__next__)

    def pairs():
        yield from range(3)

    outer = tr._wrap(lambda: list(tr._wrap(pairs, "gen")()), "outer")
    assert outer() == [0, 1, 2]
    (o_name, o_start, o_end, o_parent), (g_name, g_start, g_end, g_parent) = tr.spans
    assert (o_name, g_name, o_parent, g_parent) == ("outer", "gen", -1, 0)
    assert o_start < g_start < g_end < o_end
    assert tr.self_times() == {"outer": 2, "gen": 1}


def test_traced_pass_counts_layers_and_restores_the_program():
    original = kohnspec.spectrum.counting_function
    group = kohnspec.make_lens(11, (1, 2, 3))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert kohnspec.counting_function is not original
        start = tr.clock()
        kohnspec.counting_function(kohnspec.make_lens(11, (1, 2, 3)), 60)
        kohnspec.counting_function(group, 60)
        wall = tr.clock() - start
    finally:
        tr.uninstall()
    assert kohnspec.counting_function is original
    assert kohnspec.spectrum.counting_function is original
    metrics = tr.metrics(wall)
    assert metrics["group_catalog.cache_hits"] == 1
    assert metrics["invariant_dims.dim_cells"] > 0
    assert metrics["invariant_dims.hit_ratio"] == 0.5
    assert metrics["characters.pairs"] > 0
    self_sum = sum(tr.self_times().values())
    assert self_sum + metrics["trace.unattributed_s"] == pytest.approx(wall)


def test_traced_cli_counts_commands_and_failures():
    tr = tracer.Tracer()
    tr.install()
    try:
        argvs = (["xi", "--n", "2", "--lambda", "2"], ["xi", "--n", "1", "--lambda", "2"], ["no-such-command"])
        codes = [workloads._run_cli(argv)[0] for argv in argvs]
    finally:
        tr.uninstall()
    assert codes == [0, 1, 2]
    metrics = tr.metrics(wall_s=1.0)
    assert metrics["cli.commands"] == 3
    assert metrics["cli.failed"] == 2
    assert metrics["cli.xi_s"] > 0
