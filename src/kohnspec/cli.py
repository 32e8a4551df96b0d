"""Command-line front end.

Every subcommand emits either a human table (default), RFC-4180 CSV, or JSON
with a fixed key order, so reproduction scripts can be one-liners.  A
subcommand returns its (header, rows, JSON document), and :func:`run`
renders it in the requested format.  Exit codes: 0 success, 1 for a
``UserError`` (bad input, family constraint or size budget), 2 for any
other ``KohnspecError`` (an internal invariant violation).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import sobolev as sb
from .errors import KohnspecError, ParseError, SizeLimit, UserError
from .genfun import dim_h0_polynomial, h0_coefficients, pg_polynomial
from .group_catalog import CATALOG_FAMILIES, angle_str, parse_group_spec
from .invariant_dims import dim_invariant, dim_triangle
from .oracle import oracle_check
from .spectrum import (
    compare_spectra,
    counting_function,
    multiplicity,
    weyl_report,
    xi_bound,
)

# most rows a row-count option may ask for: each weyl grid point costs an
# xi_bound and a counting lookup (for n >= 3 also a floor-run sphere count,
# about as dear as the xi_bound), each sobolev witness or h0dims row one
# evaluation of the generating polynomial
MAX_ROWS = 2**12


def _require_rows(command: str, option: str, k: int) -> None:
    """Raise SizeLimit before any work if an option asks for more than
    MAX_ROWS rows."""
    if k > MAX_ROWS:
        raise SizeLimit(f"{command} needs {option} <= {MAX_ROWS}, got {k}")


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


def _render(fmt: str, header: list[str], rows: list[list], doc: dict) -> str:
    if fmt == "json":
        return _emit_json(doc)
    if fmt == "csv":
        return _emit_csv(header, rows)
    return _emit_table(header, rows)


# ---------------------------------------------------------------------------
# subcommands: each returns (header, rows, doc) for run to render, or, where
# its output has a shape of its own, the finished text


def _cmd_catalog(args) -> tuple | str:
    if args.action == "list":
        header = ["family", "constraints", "order"]
        rows = [list(row) for row in CATALOG_FAMILIES]
        return header, rows, {"families": [dict(zip(header, row)) for row in rows]}
    if args.spec is None:
        raise ParseError("catalog show needs a group spec")
    group = parse_group_spec(args.spec)
    doc = {
        "name": group.name,
        "n": group.n,
        "order": group.order,
        "classes": [
            {"angles": [angle_str(k, group.exponent) for k in c.angles], "mult": c.mult}
            for c in group.classes
        ],
    }
    return _emit_json(doc)


def _cmd_dims(args) -> tuple:
    group = parse_group_spec(args.group)
    if args.pq_max is None:
        if args.p is None or args.q is None:
            raise ParseError("dims needs either --p and --q, or --pq-max")
        d = dim_invariant(group, args.p, args.q)
        doc = {"group": group.name, "p": args.p, "q": args.q, "dim": d}
        return ["p", "q", "dim"], [[args.p, args.q, d]], doc
    rows = dim_triangle(group, args.pq_max)
    doc = {"group": group.name, "pq_max": args.pq_max, "entries": rows}
    return ["p", "q", "dim"], rows, doc


def _cmd_spectrum(args) -> tuple:
    group = parse_group_spec(args.group)
    table = counting_function(group, args.lambda_max)
    entries = table.entries
    rows = [[e.eigenvalue, e.mult, " ".join(f"({p},{q})" for p, q in e.contributors)]
            for e in entries]
    doc = {
        "group": group.name,
        "lambda_max": table.lambda_max,
        "entries": [
            {"lambda": e.eigenvalue, "mult": e.mult, "contributors": [[p, q] for p, q in e.contributors]}
            for e in entries
        ],
    }
    return ["lambda", "mult", "contributors"], rows, doc


def _cmd_multiplicity(args) -> tuple:
    group = parse_group_spec(args.group)
    mult, contributors = multiplicity(group, getattr(args, "lambda"))
    doc = {
        "group": group.name,
        "lambda": getattr(args, "lambda"),
        "mult": mult,
        "contributors": [[p, q] for p, q in contributors],
    }
    rows = [[getattr(args, "lambda"), mult, " ".join(f"({p},{q})" for p, q in contributors)]]
    return ["lambda", "mult", "contributors"], rows, doc


def _cmd_compare(args) -> str:
    a = parse_group_spec(args.group_a)
    b = parse_group_spec(args.group_b)
    res = compare_spectra(a, b, args.lambda_max)
    doc = {
        "group_a": a.name,
        "group_b": b.name,
        "lambda_max": res.lambda_max,
        "isospectral": res.isospectral,
        "lambda": res.eigenvalue,
        "mult_a": res.mult_a,
        "mult_b": res.mult_b,
    }
    if args.format == "json":
        return _emit_json(doc)
    if res.isospectral:
        return f"isospectral up to lambda_max={res.lambda_max}\n"
    return (f"distinguishing eigenvalue {res.eigenvalue}: "
            f"mult[{a.name}]={res.mult_a} mult[{b.name}]={res.mult_b}\n")


def _cmd_weyl(args) -> str:
    group = parse_group_spec(args.group)
    if args.lambda_max < 2:
        raise ParseError(f"weyl needs --lambda-max >= 2, got {args.lambda_max}")
    k = args.grid
    if k < 1:
        raise ParseError(f"weyl needs --grid >= 1, got {k}")
    _require_rows("weyl", "--grid", k)
    top = args.lambda_max
    rep = weyl_report(group, sorted({top * i // k for i in range(1, k + 1)}))
    rows = [
        [lam, ng, ns, f"{r:.6f}", xi, ok]
        for lam, ng, ns, r, xi, ok in zip(rep.grid, rep.n_quotient, rep.n_sphere, rep.ratios, rep.xi, rep.bound_ok)
    ]
    doc = {
        "group": group.name,
        "n": group.n,
        "order": group.order,
        "grid": rep.grid,
        "n_quotient": rep.n_quotient,
        "n_sphere": rep.n_sphere,
        "ratios": [r if ng else None for r, ng in zip(rep.ratios, rep.n_quotient)],
        "xi": rep.xi,
        "bound_ok": rep.bound_ok,
        "weyl_constant": rep.weyl_constant,
        "expected_limit": rep.expected_limit,
        "empirical_limit": rep.empirical_limit,
        "richardson_limit": rep.richardson_limit,
    }
    out = _render(args.format, ["lambda", "N_quotient", "N_sphere", "ratio", "xi", "bound_ok"], rows, doc)
    if args.format == "table":
        out += (f"weyl constant C = {rep.weyl_constant!r}; expected limit {rep.expected_limit:.8f}; "
                f"empirical {rep.empirical_limit:.8f}; extrapolated {rep.richardson_limit:.8f}\n")
    return out


def _cmd_xi(args) -> tuple:
    lam = getattr(args, "lambda")
    if not math.isfinite(lam):
        raise ParseError(f"xi needs a finite --lambda, got {lam}")
    val = xi_bound(lam, args.n)
    return ["n", "lambda", "xi"], [[args.n, lam, val]], {"n": args.n, "lambda": lam, "xi": val}


def _cmd_genfun(args) -> tuple:
    if args.ceiling is not None and args.ceiling < 0:
        raise ParseError(f"genfun needs --ceiling >= 0, got {args.ceiling}")
    poly = pg_polynomial(parse_group_spec(args.group))
    # the nonzero coefficients in row-major order, as np.nonzero lists them
    a, b = np.nonzero(poly.coeffs)
    coeffs = np.column_stack((a, b, poly.coeffs[a, b])).tolist()
    return ["a", "b", "c_ab"], coeffs, {"e": poly.e, "degree": poly.degree, "coeffs": coeffs}


def _cmd_sobolev(args) -> tuple:
    _require_rows("sobolev", "--witness", args.witness)
    group = parse_group_spec(args.group)
    const = sb.c_group(group, args.ceiling, args.convention)
    doc = {
        "value": const.value,
        "p": const.p,
        "q": const.q,
        "certified": const.certified,
        "convention": const.convention,
    }
    rows = [[f"{const.value!r}", const.p, const.q, const.certified, const.convention]]
    header = ["value", "p", "q", "certified", "convention"]
    if args.witness:
        witness = sb.greens_lower_witness(group, args.witness, args.convention)
        doc["witness"] = [[m, v] for m, v in witness]
        rows += [[f"{v!r}", 0, m * group.exponent, "witness", args.convention] for m, v in witness]
    return header, rows, doc


def _cmd_oracle_check(args) -> tuple:
    if args.pq_max < 0:
        raise ParseError(f"oracle-check needs --pq-max >= 0, got {args.pq_max}")
    group = parse_group_spec(args.group)
    rows = oracle_check(group, args.pq_max)
    doc = {
        "group": group.name,
        "pq_max": args.pq_max,
        "results": [[p, q, bf, av, ok] for p, q, bf, av, ok in rows],
        "all_ok": all(ok for *_, ok in rows),
    }
    out_rows = [[p, q, bf, av, "ok" if ok else "MISMATCH"] for p, q, bf, av, ok in rows]
    return ["p", "q", "bruteforce", "averaged", "status"], out_rows, doc


def _cmd_h0(args) -> tuple:
    _require_rows("h0dims", "--m-max", args.m_max)
    group = parse_group_spec(args.group)
    coeffs = h0_coefficients(group)
    rows = [[m, dim_h0_polynomial(coeffs, m)] for m in range(args.m_max + 1)]
    return ["m", "dim"], rows, {"group": group.name, "e": group.exponent, "entries": [list(r) for r in rows]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`run` call; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="kohnspec",
        description="Spectra of the Kohn Laplacian on quotients of odd spheres by finite unitary groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list families or show a group's classes")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("spec", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("dims", help="invariant dimensions")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--pq-max", dest="pq_max", type=int)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("spectrum", help="eigenvalue table up to a cutoff")
    p.add_argument("--group", required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=int, required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("multiplicity", help="multiplicity of one eigenvalue")
    p.add_argument("--group", required=True)
    p.add_argument("--lambda", type=int, required=True)
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser("compare", help="first distinguishing eigenvalue of two groups")
    p.add_argument("--group-a", dest="group_a", required=True)
    p.add_argument("--group-b", dest="group_b", required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("weyl", help="counting-function comparison against the sphere")
    p.add_argument("--group", required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=int, required=True)
    p.add_argument("--grid", type=int, default=4, help="number of grid points")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("xi", help="exact counting tail bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("genfun", help="quotient generating polynomial coefficients")
    p.add_argument("--group", required=True)
    p.add_argument("--ceiling", type=int, default=None)
    p.set_defaults(func=_cmd_genfun)

    p = sub.add_parser("sobolev", help="Sobolev constant of the complex Green's operator")
    p.add_argument("--group", required=True)
    p.add_argument("--ceiling", type=int, required=True)
    p.add_argument("--convention", type=int, choices=[2, 4], default=2)
    p.add_argument("--witness", type=int, default=0, help="also emit the first m_max witness values")
    p.set_defaults(func=_cmd_sobolev)

    p = sub.add_parser("oracle-check", help="brute-force vs averaged dimensions")
    p.add_argument("--group", required=True)
    p.add_argument("--pq-max", dest="pq_max", type=int, required=True)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("h0dims", help="dimensions at bidegree (0, m*e) via the generating polynomial")
    p.add_argument("--group", required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    p.set_defaults(func=_cmd_h0)

    # added last, so --format closes every subcommand's --help
    for p in sub.choices.values():
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    return parser


def run(argv=None) -> int:
    """Run one command line and return its exit code; argparse's own
    rejections and ``--help`` raise ``SystemExit``."""
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KohnspecError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    if not isinstance(out, str):
        out = _render(args.format, *out)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
