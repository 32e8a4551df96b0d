"""CLI: spec-string parsing, output schemas, determinism, exit codes."""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import graphlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kohnspec
from kohnspec import ConstraintError, NonFreeAction, ParseError, errors, parse_group_spec
from kohnspec.cli import build_parser, run
from kohnspec.invariant_dims import closed_form_cyclic, closed_form_icosahedral, closed_form_q_semidirect

REPRODUCE_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "reproduce_golden.json"
CLI_GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
ERROR_CLASSES = sorted((cls for cls in vars(errors).values()
                        if isinstance(cls, type) and issubclass(cls, errors.KohnspecError)),
                       key=lambda cls: cls.__name__)


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseGroupSpec:
    def test_families(self):
        assert parse_group_spec("2T").order == 24
        assert parse_group_spec("2O").order == 48
        assert parse_group_spec("2I").order == 120
        assert parse_group_spec("cyclic:7").order == 7
        assert parse_group_spec("bindih:12").order == 24
        assert parse_group_spec("lens:5:1,2").order == 5
        assert parse_group_spec("qsemi:1").order == 72
        assert parse_group_spec("cycsemi:3:2").order == 24
        assert parse_group_spec("Q").name == "bindih:4"

    def test_product(self):
        g = parse_group_spec("2TxC:5")
        assert g.order == 120 and g.name == "2TxC:5"
        assert parse_group_spec("QxC:3").order == 24

    def test_product_is_built_once(self):
        # the product constructor is cached like every other constructor
        assert parse_group_spec("2TxC:5") is parse_group_spec("2TxC:5")

    def test_round_trip_canonical_names(self):
        for spec in ["cyclic:5", "bindih:8", "2T", "2IxC:7", "qsemi:3", "cycsemi:3:2", "lens:7:1,2"]:
            g = parse_group_spec(spec)
            assert parse_group_spec(g.name).name == g.name

    def test_errors(self):
        with pytest.raises(ConstraintError):
            parse_group_spec("cyclic:0")
        with pytest.raises(ParseError):
            parse_group_spec("frobnicate:3")
        with pytest.raises(ConstraintError):
            parse_group_spec("bindih:7")
        with pytest.raises(NonFreeAction):
            parse_group_spec("2TxC:3")


class TestCommands:
    def test_multiplicity_json(self, capsys):
        code, out, _ = capture(capsys, ["multiplicity", "--group", "2I", "--lambda", "24", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mult"] == 2
        assert doc["contributors"][0] == [11, 1]

    def test_compare_finds_eight(self, capsys):
        code, out, _ = capture(capsys, ["compare", "--group-a", "bindih:12", "--group-b", "2T",
                                        "--lambda-max", "48", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == 8 and doc["mult_a"] == 2 and doc["mult_b"] == 0

    def test_xi_hand_value(self, capsys):
        code, out, _ = capture(capsys, ["xi", "--n", "2", "--lambda", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["xi"] == 6

    def test_catalog_show_schema(self, capsys):
        code, out, _ = capture(capsys, ["catalog", "show", "2T"])
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "2T" and doc["order"] == 24
        assert {"angles", "mult"} == set(doc["classes"][0])
        assert all("/" in a for c in doc["classes"] for a in c["angles"])

    def test_spectrum_schema(self, capsys):
        code, out, _ = capture(capsys, ["spectrum", "--group", "cyclic:4", "--lambda-max", "8",
                                        "--format", "json"])
        doc = json.loads(out)
        assert [e["lambda"] for e in doc["entries"]] == [2, 4, 6, 8]
        assert doc["entries"][1]["mult"] == 2
        assert doc["entries"][1]["contributors"] == [[1, 1], [0, 2]]

    def test_dims_csv_rfc4180(self, capsys):
        code, out, _ = capture(capsys, ["dims", "--group", "2T", "--pq-max", "2", "--format", "csv"])
        assert code == 0
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "q", "dim"]
        assert len(rows) == 1 + 6

    def test_genfun_schema(self, capsys):
        code, out, _ = capture(capsys, ["genfun", "--group", "cyclic:2", "--format", "json"])
        doc = json.loads(out)
        assert doc["e"] == 2 and doc["degree"] == 2
        assert [0, 0, 1] in doc["coeffs"]

    def test_sobolev_schema(self, capsys):
        code, out, _ = capture(capsys, ["sobolev", "--group", "cyclic:4", "--ceiling", "20",
                                        "--witness", "2", "--format", "json"])
        doc = json.loads(out)
        assert set(doc) == {"value", "p", "q", "certified", "convention", "witness"}
        assert doc["value"] == pytest.approx(0.75)

    def test_weyl_runs(self, capsys):
        code, out, _ = capture(capsys, ["weyl", "--group", "Q", "--lambda-max", "200", "--grid", "2",
                                        "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_ok"] == [True, True]

    def test_weyl_json_null_ratio_at_zero_count(self, capsys):
        code, out, _ = capture(capsys, ["weyl", "--group", "2T", "--lambda-max", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["grid"] == [0, 1, 2, 3]
        assert doc["n_quotient"] == [0, 0, 0, 0]
        assert doc["ratios"] == [None, None, None, None]

    def test_weyl_table_keeps_inf_ratio(self, capsys):
        code, out, _ = capture(capsys, ["weyl", "--group", "2T", "--lambda-max", "3"])
        assert code == 0
        assert out.splitlines()[1].split()[3] == "inf"

    def test_oracle_check_json(self, capsys):
        code, out, _ = capture(capsys, ["oracle-check", "--group", "cyclic:3", "--pq-max", "3",
                                        "--format", "json"])
        doc = json.loads(out)
        assert doc["all_ok"] is True

    def test_h0dims(self, capsys):
        code, out, _ = capture(capsys, ["h0dims", "--group", "cyclic:4", "--m-max", "3", "--format", "json"])
        doc = json.loads(out)
        assert doc["entries"] == [[0, 1], [1, 3], [2, 5], [3, 7]]

    def test_h0dims_reads_n_cells_not_the_square(self, capsys):
        # the (2ne + 1)^2 square of cyclic:600 is above the cell budget
        code, out, _ = capture(capsys, ["h0dims", "--group", "cyclic:600", "--m-max", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"group": "cyclic:600", "e": 600, "entries": [[0, 1], [1, 3], [2, 5], [3, 7]]}


class TestDeterminismAndExitCodes:
    def test_json_byte_deterministic(self, capsys):
        argv = ["spectrum", "--group", "2O", "--lambda-max", "24", "--format", "json"]
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second

    def test_user_error_exit_1(self, capsys):
        code, _, err = capture(capsys, ["dims", "--group", "cyclic:0", "--p", "0", "--q", "0"])
        assert code == 1
        assert "m must be >= 1" in err

    def test_constraint_named_in_error(self, capsys):
        code, _, err = capture(capsys, ["dims", "--group", "2IxC:5", "--p", "0", "--q", "0"])
        assert code == 1
        assert "30" in err

    def test_free_action_witness_named_by_its_angles(self, capsys):
        code, out, err = capture(capsys, ["dims", "--group", "2TxC:3"])
        assert (code, out) == (1, "")
        assert err == "error: 2TxC:3: scalar order l=3 must be coprime to 6; class (0/1, 1/3) has eigenvalue 1\n"

    def test_parse_error_exit_1(self, capsys):
        code, _, err = capture(capsys, ["multiplicity", "--group", "nope:1", "--lambda", "4"])
        assert code == 1

    @pytest.mark.parametrize("lam", ["0", "1", "-4"])
    def test_weyl_small_cutoff_is_user_error(self, capsys, lam):
        code, out, err = capture(capsys, ["weyl", "--group", "2T", "--lambda-max", lam])
        assert code == 1
        assert out == ""
        assert err == f"error: weyl needs --lambda-max >= 2, got {lam}\n"

    def test_catalog_show_without_spec_is_user_error(self, capsys):
        code, out, err = capture(capsys, ["catalog", "show"])
        assert code == 1
        assert out == ""
        assert err == "error: catalog show needs a group spec\n"

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_xi_nonfinite_lambda_is_user_error(self, capsys, lam):
        code, out, err = capture(capsys, ["xi", "--n", "2", "--lambda", lam])
        assert code == 1
        assert out == ""
        assert err == f"error: xi needs a finite --lambda, got {float(lam)}\n"

    def test_xi_prints_up_to_its_digit_budget(self, capsys):
        # 4300 digits, the most Python converts an int to a string by default
        code, out, err = capture(capsys, ["xi", "--n", "1294", "--lambda", "1005281", "--format", "json"])
        assert (code, err) == (0, "")
        assert len(str(json.loads(out)["xi"])) == 4300

    def test_xi_past_its_digit_budget_is_user_error(self, capsys):
        # 4301 digits; the sums' term k = 1 has 4300, so the exact total trips the budget
        code, out, err = capture(capsys, ["xi", "--n", "1294", "--lambda", "1005282", "--format", "json"])
        assert (code, out) == (1, "")
        assert err == ("error: xi_bound at n = 1294, floor(lam) = 1005282 has more than 4300 digits, "
                       "the digit budget\n")

    @pytest.mark.parametrize("argv, message", [
        (["weyl", "--group", "2T", "--lambda-max", "100", "--grid", "0"], "weyl needs --grid >= 1, got 0"),
        (["weyl", "--group", "2T", "--lambda-max", "100", "--grid", "-2"], "weyl needs --grid >= 1, got -2"),
        (["genfun", "--group", "2T", "--ceiling", "-3"], "genfun needs --ceiling >= 0, got -3"),
        (["oracle-check", "--group", "2T", "--pq-max", "-1"], "oracle-check needs --pq-max >= 0, got -1"),
    ])
    def test_out_of_range_option_is_user_error(self, capsys, argv, message):
        code, out, err = capture(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_grid_above_budget_is_size_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = capture(capsys, ["weyl", "--group", "2T", "--lambda-max", "100",
                                          "--grid", "10000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", "error: weyl needs --grid <= 4096, got 10000000\n")

    @pytest.mark.parametrize("argv, message", [
        (["sobolev", "--group", "2T", "--ceiling", "10", "--witness", "1000000000000"],
         "sobolev needs --witness <= 4096, got 1000000000000"),
        (["sobolev", "--group", "2T", "--ceiling", "10", "--witness", "4097"],
         "sobolev needs --witness <= 4096, got 4097"),
        (["h0dims", "--group", "2T", "--m-max", "1000000000000"],
         "h0dims needs --m-max <= 4096, got 1000000000000"),
        (["h0dims", "--group", "2T", "--m-max", "4097"], "h0dims needs --m-max <= 4096, got 4097"),
    ])
    def test_rows_above_budget_is_size_limit(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, key, rows", [
        (["sobolev", "--group", "2T", "--ceiling", "10", "--witness", "4096", "--format", "json"], "witness", 4096),
        (["h0dims", "--group", "2T", "--m-max", "4096", "--format", "json"], "entries", 4097),
    ])
    def test_rows_at_budget_are_printed(self, capsys, argv, key, rows):
        code, out, _ = capture(capsys, argv)
        assert code == 0 and len(json.loads(out)[key]) == rows

    @pytest.mark.parametrize("lam, k", [(3, 4), (2, 1), (10, 10), (10, 11), (100, 7), (61, 4096), (97, 40)])
    def test_grid_is_the_deduplicated_floor_grid(self, capsys, lam, k):
        code, out, _ = capture(capsys, ["weyl", "--group", "cyclic:4", "--lambda-max", str(lam),
                                        "--grid", str(k), "--format", "json"])
        assert code == 0
        assert json.loads(out)["grid"] == sorted({lam * (i + 1) // k for i in range(k)})

    @pytest.mark.parametrize("argv, message", [
        (["sobolev", "--group", "2T", "--ceiling", "0"], "ceiling must be at least 2"),
        (["xi", "--n", "1", "--lambda", "10"], "ambient dimension must be at least 2"),
        (["compare", "--group-a", "2T", "--group-b", "lens:5:1,2,3", "--lambda-max", "10"],
         "groups must act on the same sphere"),
    ])
    def test_library_constraint_is_user_error(self, capsys, argv, message):
        code, out, err = capture(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bare_value_error_is_not_a_user_error(self, capsys, monkeypatch):
        # ConstraintError is a ValueError for library callers, but the CLI
        # no longer reports any other ValueError as bad input
        assert issubclass(ConstraintError, ValueError)

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr("kohnspec.cli.dim_invariant", boom)
        with pytest.raises(ValueError, match="synthetic failure"):
            run(["dims", "--group", "cyclic:3", "--p", "1", "--q", "1"])

    def test_int64_limit_is_user_error(self, capsys):
        # p + q = 10^19 wraps in int64
        pq = "5000000000000000000"
        code, out, err = capture(capsys, ["dims", "--group", "cyclic:3", "--p", pq, "--q", pq])
        assert (code, out) == (1, "")
        assert err.startswith("error: exact integer intermediate") and err.count("\n") == 1
        # p = 10^20 or -10^20 is no int64 at all: one stderr line, no traceback
        for p in ("100000000000000000000", "-100000000000000000000"):
            code, out, err = capture(capsys, ["dims", "--group", "cyclic:3", "--p", p, "--q", "0"])
            assert (code, out, err) == (1, "", "error: a cell's p or q is beyond int64\n")

    def test_large_cell_within_int64_is_answered(self, capsys):
        for group, p, q, dim, closed in [
            # its sphere dimension 8e9 + 1 fits int64, though C(p + 1, 1) C(q + 1, 1) does not
            ("cyclic:3", 4 * 10**9, 4 * 10**9, 2666666667, closed_form_cyclic(3, 4 * 10**9, 4 * 10**9)),
            # phi(E) |G| (p + q) passes 2^63, the dimension and its sphere dimension do not
            ("qsemi:101", 6 * 10**11, 6 * 10**11, 100000000001, closed_form_q_semidirect(101, 6 * 10**11, 6 * 10**11)),
            ("2I", 4 * 10**18, 6 * 10**17, 76666666666666667, closed_form_icosahedral(4 * 10**18, 6 * 10**17)),
        ]:
            code, out, _ = capture(capsys, ["dims", "--group", group, "--p", str(p), "--q", str(q), "--format", "json"])
            assert code == 0, group
            assert json.loads(out) == {"group": group, "p": p, "q": q, "dim": dim}
            assert closed == dim, group

    def test_oracle_budget_trips_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = capture(capsys, ["oracle-check", "--group", "2I", "--pq-max", "400"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: oracle check of 2I") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["oracle-check", "--group", "cyclic:100000000", "--pq-max", "1"],
         "cyclic:100000000 has order 100000000, above the budget of 100000"),
        (["xi", "--n", "2", "--lambda", "1e300"], "xi_bound needs lam <= 4194304, the cutoff budget"),
        (["weyl", "--group", "lens:5:1,2,3", "--lambda-max", "1000000000000"],
         "the spectrum up to lambda 1000000000000 needs at least 499999999999 cells, "
         "above the budget of 4194304"),
        (["sobolev", "--group", "2T", "--ceiling", "100000"],
         "the triangle p + q <= 100000 needs at least 5000150001 cells, above the budget of 4194304"),
        (["multiplicity", "--group", "lens:5:1,2,3", "--lambda", "4398046511104"],
         "the monomial row of degree 2199023255550 needs 2199023255552 int64 entries, "
         "above the budget of 16777216"),
        (["multiplicity", "--group", "2T", "--lambda", "4398046511106"],
         "eigenvalue 4398046511106 is above the budget of 4398046511104"),
        (["genfun", "--group", "cyclic:4", "--ceiling", "1000000"],
         "the series square p, q <= 1000000 needs at least 1000002000001 cells, "
         "above the budget of 4194304"),
        (["xi", "--n", "1300", "--lambda", "1000000"],
         "xi_bound at n = 1300, floor(lam) = 1000000 has more than 4300 digits, the digit budget"),
        (["xi", "--n", "3000", "--lambda", "4000000", "--format", "json"],
         "xi_bound at n = 3000, floor(lam) = 4000000 has more than 4300 digits, the digit budget"),
        # an n = 2 group counts from its period table, with no cell budget: xi's cutoff refuses it first
        (["weyl", "--group", "2I", "--lambda-max", "1000000000000"], "xi_bound needs lam <= 4194304, the cutoff budget"),
    ])
    def test_budgets_trip_before_allocation(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_n2_weyl_reaches_the_xi_cutoff(self, capsys):
        # about 6e7 cells under the hyperbola, 15 times the cell budget, and none is enumerated
        start = time.perf_counter()
        code, out, err = capture(capsys, ["weyl", "--group", "2I", "--lambda-max", "8000000", "--grid", "4",
                                          "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["grid"] == [2000000, 4000000, 6000000, 8000000] and all(doc["bound_ok"])

    def test_n3_exponent_past_4096_matches_the_oracle(self, capsys):
        # the n >= 3 budget counts folded h-vectors, with no E x E term
        code, out, err = capture(capsys, ["dims", "--group", "lens:4097:1,2,3", "--p", "1", "--q", "1"])
        assert (code, out, err) == (0, "p  q  dim\n1  1  2\n", "")
        code, out, err = capture(capsys, ["dims", "--group", "lens:4097:1,2,3", "--pq-max", "4", "--format", "json"])
        rows = kohnspec.oracle_check(parse_group_spec("lens:4097:1,2,3"), 4)
        assert all(ok for *_, ok in rows)
        assert (code, err) == (0, "") and json.loads(out)["entries"] == [[p, q, brute] for p, q, brute, *_ in rows]

    def test_n5_dimension_up_to_the_band_guard(self, capsys):
        # C(102570, 4) < 2^62 <= C(102571, 4): the cell guard C_p C_q < 2^62 refuses (102567, 0),
        # as the series band guard would
        code, out, err = capture(capsys, ["dims", "--group", "lens:1:1,1,1,1,1", "--p", "102566", "--q", "0"])
        assert (code, out, err) == (0, "p       q  dim\n102566  0  4611527207790103770\n", "")
        code, out, err = capture(capsys, ["dims", "--group", "lens:1:1,1,1,1,1", "--p", "102567", "--q", "0"])
        assert (code, out) == (1, "") and err.startswith("error: exact integer intermediate")

    @pytest.mark.parametrize("group", ["2T", "cyclic:7", "lens:5:1,2,3", "lens:3:1,1,1,2", "qsemi:101"])
    def test_large_eigenvalue_multiplicity_is_fast(self, capsys, group):
        # the n = 2 contributors reach p + q = 2^41, within int64 however
        # large phi(E) |G| is (8726400 for qsemi:101)
        start = time.perf_counter()
        code, out, err = capture(capsys, ["multiplicity", "--group", group, "--lambda", str(2**42)])
        assert time.perf_counter() - start < 1.0
        assert code in ((0,) if group == "qsemi:101" else (0, 1))
        assert (out == "") == (code == 1) and err.count("\n") == code

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_error_type(self, capsys, monkeypatch, cls):
        # the bad requests are UserErrors; every other KohnspecError is a bug
        user = {"UserError", "ConstraintError", "Int64Limit", "NonFreeAction", "ParseError", "SizeLimit",
                "UnsupportedFamily"}
        assert issubclass(cls, errors.UserError) == (cls.__name__ in user)

        def boom(*args, **kwargs):
            raise cls("synthetic failure")

        monkeypatch.setattr("kohnspec.cli.dim_invariant", boom)
        code, out, err = capture(capsys, ["dims", "--group", "cyclic:3", "--p", "1", "--q", "1"])
        if cls.__name__ in user:
            assert (code, out, err) == (1, "", "error: synthetic failure\n")
        else:
            assert (code, out, err) == (2, "", "internal invariant violation: synthetic failure\n")


class TestSharedParser:
    def test_parser_built_once_across_runs(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        assert built == []
        capture(capsys, ["xi", "--n", "2", "--lambda", "2"])
        per_parser = len(built)
        assert built.count("kohnspec") == 1 and per_parser == 12    # the root and 11 subcommands
        for argv in (["catalog", "list"], ["multiplicity", "--group", "2T", "--lambda", "12"],
                     ["dims", "--group", "cyclic:0", "--p", "0", "--q", "0"]):
            capture(capsys, argv)
        with pytest.raises(SystemExit):
            run(["frobnicate"])
        assert len(built) == per_parser

    def test_reuse_after_errors_and_help_is_stateless(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["weyl", "--group", "2T", "--lambda-max", "not-a-number"])
        assert exc.value.code == 2
        capsys.readouterr()
        fresh = build_parser.__wrapped__()
        for argv in (["--help"], ["weyl", "--help"]):
            texts = []
            for parse in (run, run, fresh.parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1] == texts[2], argv
        for entry in json.loads(REPRODUCE_GOLDEN.read_text())["commands"][:3]:
            code, out, err = capture(capsys, entry["argv"])
            assert (code, out, err) == (0, entry["stdout"], ""), entry["argv"]


# -- in-process argv fuzzing: every argv exits 0, 1 or 2, without a traceback,
# and JSON output parses.  Budgets keep each example to a few milliseconds.

_SPECS = st.sampled_from([
    "cyclic:1", "cyclic:4", "cyclic:7", "Q", "bindih:8", "2T", "2O", "2I", "QxC:3", "2TxC:5",
    "qsemi:1", "cycsemi:3:2", "lens:5:1,2", "lens:5:1,2,3", "lens:3:1,1,1,2",
    "cyclic:0", "cyclic:-2", "bindih:7", "2TxC:3", "lens:4:1,2", "lens:5", "lens:5:1", "qsemi:2",
    "cycsemi:3:3", "cycsemi:1:2", "cycsemi:3", "cyclic:x", "nope:1", "", " 2T ",
])


def _num(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


_FLOATS = _num(-5, 300) | st.sampled_from(["nan", "inf", "-inf", "1e300", "2.5", "-0.0"])

_COMMANDS = {
    "catalog": [("action", st.sampled_from(["list", "show"])), ("spec", _SPECS)],
    "dims": [("--group", _SPECS), ("--p", _num(-2, 12)), ("--q", _num(-2, 12)), ("--pq-max", _num(-2, 10))],
    "spectrum": [("--group", _SPECS), ("--lambda-max", _num(-3, 120))],
    "multiplicity": [("--group", _SPECS), ("--lambda", _num(-3, 300))],
    "compare": [("--group-a", _SPECS), ("--group-b", _SPECS), ("--lambda-max", _num(-3, 80))],
    "weyl": [("--group", _SPECS), ("--lambda-max", _num(-3, 200)),
             ("--grid", _num(-2, 8) | st.sampled_from(["4096", "4097"]))],
    "xi": [("--n", _num(-1, 5)), ("--lambda", _FLOATS)],
    "genfun": [("--group", _SPECS), ("--ceiling", _num(-2, 30))],
    "sobolev": [("--group", _SPECS), ("--ceiling", _num(-1, 40)), ("--convention", _num(1, 4)),
                ("--witness", _num(-1, 4) | st.sampled_from(["4096", "4097"]))],
    "oracle-check": [("--group", _SPECS), ("--pq-max", _num(-1, 4))],
    "h0dims": [("--group", _SPECS), ("--m-max", _num(-2, 8) | st.sampled_from(["4096", "4097"]))],
}


@st.composite
def _argvs(draw):
    """An argv of one subcommand.  Each option is usually present with a
    value in its range; one in twenty is left out, one in twenty gets a
    token argparse may reject."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for option, values in _COMMANDS[command] + [("--format", st.sampled_from(["table", "csv", "json"]))]:
        roll = draw(st.integers(0, 19))
        if roll == 0:
            continue
        value = draw(st.sampled_from(["x", "1.5", "", "xml"]) if roll == 1 else values)
        argv += [option, value] if option.startswith("--") else [value]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:       # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
    if code == 0 and argv[-2:] == ["--format", "json"]:
        json.loads(out.getvalue())


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's kohnspec."""
    src = str(Path(kohnspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    code = "import sys, kohnspec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python("-c", code).stdout == "[]\n"


def test_python_m_runs_the_cli():
    done = _python("-m", "kohnspec.cli", "xi", "--n", "2", "--lambda", "2", "--format", "json")
    assert (done.returncode, json.loads(done.stdout)["xi"], done.stderr) == (0, 6, "")
    done = _python("-m", "kohnspec.cli", "multiplicity", "--group", "cyclic:0", "--lambda", "4")
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: cyclic order m must be >= 1\n")


def _src_imports() -> dict[str, tuple[set[str], list[int]]]:
    """Per module of the package: the sibling modules its relative imports
    name, and the lines of the imports that sit inside a function body."""
    out = {}
    for path in sorted(Path(kohnspec.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings, nested = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                siblings |= {node.module} if node.module else {alias.name for alias in node.names}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [sub.lineno for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
        out[path.stem] = (siblings, nested)
    return out


def test_no_assert_in_src():
    # python -O strips assert statements, so the package checks by raising
    found = {path.stem: [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
             for path in sorted(Path(kohnspec.__file__).resolve().parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_leaf_error_class_is_raised_in_src():
    # a class no other error class extends is only ever met by being raised by name
    raised = set()
    for path in Path(kohnspec.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) else None
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    leaves = {cls.__name__ for cls in ERROR_CLASSES
              if not any(other is not cls and issubclass(other, cls) for other in ERROR_CLASSES)}
    assert leaves - raised == set()


def test_module_graph_is_acyclic():
    # prepare() raises CycleError on a cycle
    graph = {name: siblings for name, (siblings, _) in _src_imports().items()}
    graphlib.TopologicalSorter(graph).prepare()


def test_no_import_inside_a_function():
    assert {name: nested for name, (_, nested) in _src_imports().items() if nested} == {}


def test_package_import_leaves_the_cli_unloaded():
    code = "import sys, kohnspec; print([m for m in ('kohnspec.cli', 'argparse') if m in sys.modules])"
    assert _python("-c", code).stdout == "[]\n"


def test_every_cache_is_bounded():
    # the zero-argument parser cache holds one entry whatever its bound
    caches = []
    for name in _src_imports():
        module = importlib.import_module("kohnspec" if name == "__init__" else f"kohnspec.{name}")
        caches += [(f"{name}.{attr}", fn.cache_info().maxsize) for attr, fn in vars(module).items()
                   if hasattr(fn, "cache_info") and fn.__module__ == module.__name__]
    assert len(caches) >= 12
    assert [name for name, maxsize in caches if maxsize is None] == ["cli.build_parser"]


def test_reproduce_golden_byte_identical(capsys):
    # every docs/REPRODUCE.md command, against the stdout recorded in the golden
    for entry in json.loads(REPRODUCE_GOLDEN.read_text())["commands"]:
        code, out, err = capture(capsys, entry["argv"])
        assert (code, err) == (0, ""), entry["argv"]
        assert out == entry["stdout"], entry["argv"]


def test_table_goldens_byte_identical(capsys):
    # spectrum, weyl, compare and sobolev above the reproduce cutoffs, in every
    # format, against stdout recorded before the tables became arrays; then
    # every other subcommand in every format
    for entry in json.loads(CLI_GOLDEN.read_text())["commands"]:
        code, out, err = capture(capsys, entry["argv"])
        assert (code, err) == (0, ""), entry["argv"]
        assert out == entry["stdout"], entry["argv"]


def test_help_goldens_byte_identical(capsys, monkeypatch):
    # the root and every subcommand --help, at 80 columns
    golden = json.loads(CLI_GOLDEN.read_text())
    if "%d.%d" % sys.version_info[:2] != golden["help_python"]:
        pytest.skip(f"--help recorded with Python {golden['help_python']}, whose argparse layout may differ")
    monkeypatch.setenv("COLUMNS", "80")
    assert len(golden["help"]) == 12      # the root and 11 subcommands
    for entry in golden["help"]:
        with pytest.raises(SystemExit) as exc:
            run(entry["argv"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (entry["stdout"], ""), entry["argv"]
