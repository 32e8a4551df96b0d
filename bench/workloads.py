"""The benchmark's workloads: inputs made from a seed, the operations of the
timed pass, and the output check of each operation.

A workload is a list of operations.  ``inputs`` turns a seed into the
parameters of one workload; ``operations`` turns parameters into ``Op``s.
The timed pass calls each op's ``call``; the checks run afterwards, outside
the timed region.  Functions are looked up on the ``kohnspec`` modules at
call time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import kohnspec as ks
import kohnspec.cli

GOLDEN = json.loads((Path(__file__).parent / "reproduce_golden.json").read_text())["commands"]


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]   # failure message, or None if correct


class Outcome(NamedTuple):
    op: Op
    result: object
    error: str | None     # traceback if the call raised


def timed_pass(ops: list[Op]) -> list[Outcome]:
    outcomes = []
    for op in ops:
        try:
            outcomes.append(Outcome(op, op.call(), None))
        except Exception:
            outcomes.append(Outcome(op, None, traceback.format_exc()))
    return outcomes


def failures(outcomes: list[Outcome]) -> list[str]:
    """One message per failed operation: it raised, or its check failed."""
    out = []
    for op, result, error in outcomes:
        message = error or op.check(result)
        if message:
            out.append(f"{op.label}: {message}")
    return out


# -- reproduce: the docs/REPRODUCE.md command lines through cli.run ---------


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kohnspec.cli.run(argv)
        except SystemExit as exc:     # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _stated_value(argv: list[str], stdout: str) -> str | None:
    """The value a REPRODUCE.md comment states for this command's output."""
    if argv[0] == "compare":
        return "isospectral" if stdout.startswith("isospectral") else stdout.split()[2].rstrip(":")
    header, row = stdout.splitlines()[:2]
    cols = dict(zip(header.split(), row.split()))
    return "-> " + cols.get("mult", cols.get("xi", "?"))


def _check_cli(entry: dict) -> Callable[[object], str | None]:
    def check(result):
        code, stdout, stderr = result
        if code != 0 or stderr:
            return f"exit code {code}, stderr {stderr.strip()!r}"
        if stdout != entry["stdout"]:
            return "stdout differs from the golden"
        stated = entry["stated"]
        if stated and (stated.startswith("->") or entry["argv"][0] == "compare"):
            want = " ".join(stated.split()[:2]) if stated.startswith("->") else stated
            got = _stated_value(entry["argv"], stdout)
            if got != want:
                return f"stated {want!r}, got {got!r}"
        return None
    return check


def _reproduce_inputs(rng: random.Random) -> dict:
    order = list(range(len(GOLDEN)))
    rng.shuffle(order)
    return {"commands": order}


def _reproduce_ops(params: dict) -> list[Op]:
    ops = []
    for i in params["commands"]:
        entry = GOLDEN[i]
        argv = entry["argv"]
        ops.append(Op(" ".join(argv), lambda argv=argv: _run_cli(argv), _check_cli(entry)))
    return ops


# -- deep_n2: counting and Sobolev constants deep into two n = 2 groups -----


def _closed_form_counts(group, grid: list[int]) -> list[int]:
    """N(lam) at each grid point, recounted from the closed-form dimensions."""
    n = group.n
    half_max = grid[-1] // 2
    by_half: Counter = Counter()
    for q in range(1, half_max // (n - 1) + 1):
        for p in range(half_max // q - (n - 1) + 1):
            by_half[q * (p + n - 1)] += ks.dim_closed_form(group, p, q)
    return [sum(v for h, v in by_half.items() if 2 * h <= lam) for lam in grid]


def _check_weyl(spec: str, grid: list[int]) -> Callable[[object], str | None]:
    def check(report):
        if not all(report.bound_ok):
            return f"tail bound fails at {report.grid}: {report.bound_ok}"
        want = _closed_form_counts(ks.parse_group_spec(spec), grid)
        if report.n_quotient != want:
            return f"n_quotient {report.n_quotient}, closed forms give {want}"
        return None
    return check


def _check_sobolev(spec: str, ceiling: int) -> Callable[[object], str | None]:
    def check(const):
        group = ks.parse_group_spec(spec)
        best = max(
            (ks.c_pq_squared(p, s - p, group.n), (-p, p - s))
            for s in range(1, ceiling + 1)
            for p in range(s)
            if ks.dim_closed_form(group, p, s - p)
        )
        want = (best[0], -best[1][0], -best[1][1])
        got = (const.value_squared, const.p, const.q)
        return None if got == want else f"c_group gives {got}, closed forms give {want}"
    return check


def _deep_inputs(rng: random.Random) -> dict:
    # cutoffs jitter by at most 0.3%, so that the work per run stays level
    weyl = [["2I", 6000 + 2 * rng.randint(-8, 8)], ["cycsemi:3:2", 4000 + 2 * rng.randint(-5, 5)]]
    sobolev = [[spec, 150 + rng.randint(-1, 1)] for spec in ("2I", "cycsemi:3:2")]
    rng.shuffle(weyl)
    rng.shuffle(sobolev)
    return {"weyl": weyl, "grid": 4, "sobolev": sobolev}


def _deep_ops(params: dict) -> list[Op]:
    ops = []
    k = params["grid"]
    for spec, lam in params["weyl"]:
        grid = [lam * (i + 1) // k for i in range(k)]
        ops.append(Op(f"weyl_report({spec}, {grid})",
                      lambda spec=spec, grid=grid: ks.weyl_report(ks.parse_group_spec(spec), grid),
                      _check_weyl(spec, grid)))
    for spec, ceiling in params["sobolev"]:
        ops.append(Op(f"c_group({spec}, {ceiling})",
                      lambda spec=spec, ceiling=ceiling: ks.c_group(ks.parse_group_spec(spec), ceiling),
                      _check_sobolev(spec, ceiling)))
    return ops


# -- lens_n3: the n = 3 path -------------------------------------------------


def _check_counting(spec: str, lam: int) -> Callable[[object], str | None]:
    def check(table):
        group = ks.parse_group_spec(spec)
        n = group.n
        half = lam // 2
        F = ks.fg_coefficients(group, half)
        for e in table.entries:
            want = sum(int(F[p, q]) for p, q in e.contributors)
            if e.mult != want:
                return f"multiplicity of {e.eigenvalue} is {e.mult}, series gives {want}"
        total = sum(int(F[p, q]) for q in range(1, half // (n - 1) + 1)
                    for p in range(half // q - (n - 1) + 1))
        if table.count(lam) != total:
            return f"N({lam}) = {table.count(lam)}, series gives {total}"
        return None
    return check


def _check_series(spec: str, ceiling: int) -> Callable[[object], str | None]:
    def check(F):
        if F.shape != (ceiling + 1, ceiling + 1):
            return f"table shape {F.shape}"
        group = ks.parse_group_spec(spec)
        bad = [(p, q) for p in range(8) for q in range(8 - p) if F[p, q] != ks.dim_invariant(group, p, q)]
        return f"series differs from dim_invariant at {bad}" if bad else None
    return check


def _check_polynomial(spec: str) -> Callable[[object], str | None]:
    def check(poly):
        size = 4 * poly.degree
        F = ks.fg_coefficients(ks.parse_group_spec(spec), size)
        back = ks.reconstruct_dims(poly, size)
        return None if (back == F).all() else "P does not reconstruct the series"
    return check


def _check_oracle(rows) -> str | None:
    bad = [row[:4] for row in rows if not row[4]]
    return f"oracle mismatches {bad}" if bad else None


def _lens_inputs(rng: random.Random) -> dict:
    # Permuting the rotations gives a conjugate group: a new input with equal
    # work.  The cutoff stays fixed, since moving it by 2 moves the work by 2%.
    lens5 = "lens:5:" + ",".join(str(q) for q in rng.sample([1, 2, 3], 3))
    lens7 = "lens:7:" + ",".join(str(q) for q in rng.sample([1, 2, 4], 3))
    return {"count": [[lens5, 300], [lens7, 300]], "series": [lens5, 200 + rng.randint(-5, 5)],
            "oracle": [lens5, 6]}


def _lens_ops(params: dict) -> list[Op]:
    ops = []
    for spec, lam in params["count"]:
        ops.append(Op(f"counting_function({spec}, {lam})",
                      lambda spec=spec, lam=lam: ks.counting_function(ks.parse_group_spec(spec), lam),
                      _check_counting(spec, lam)))
    series, ceiling = params["series"]
    ops.append(Op(f"fg_coefficients({series}, {ceiling})",
                  lambda: ks.fg_coefficients(ks.parse_group_spec(series), ceiling),
                  _check_series(series, ceiling)))
    ops.append(Op(f"pg_polynomial({series})",
                  lambda: ks.pg_polynomial(ks.parse_group_spec(series)),
                  _check_polynomial(series)))
    oracle, pq_max = params["oracle"]
    ops.append(Op(f"oracle_check({oracle}, {pq_max})",
                  lambda: ks.oracle_check(ks.parse_group_spec(oracle), pq_max),
                  _check_oracle))
    return ops


WORKLOADS = {
    "reproduce": (_reproduce_inputs, _reproduce_ops),
    "deep_n2": (_deep_inputs, _deep_ops),
    "lens_n3": (_lens_inputs, _lens_ops),
}


def inputs(workload: str, seed: int) -> dict:
    """The parameters of one workload; the same seed gives the same inputs."""
    return WORKLOADS[workload][0](random.Random(seed))


def operations(workload: str, params: dict) -> list[Op]:
    return WORKLOADS[workload][1](params)
