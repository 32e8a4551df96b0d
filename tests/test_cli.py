"""CLI: spec-string parsing, output schemas, determinism, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kohnspec
from kohnspec import ConstraintError, NonFreeAction, ParseError, parse_group_spec
from kohnspec.cli import run


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

    @pytest.mark.parametrize("argv, message", [
        (["weyl", "--group", "2T", "--lambda-max", "100", "--grid", "0"], "weyl needs --grid >= 1, got 0"),
        (["weyl", "--group", "2T", "--lambda-max", "100", "--grid", "-2"], "weyl needs --grid >= 1, got -2"),
        (["genfun", "--group", "2T", "--ceiling", "-3"], "genfun needs --ceiling >= 0, got -3"),
        (["oracle-check", "--group", "2T", "--pq-max", "-1"], "oracle-check needs --pq-max >= 0, got -1"),
    ])
    def test_out_of_range_option_is_user_error(self, capsys, argv, message):
        code, out, err = capture(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_int64_limit_is_user_error(self, capsys):
        code, out, err = capture(capsys, ["dims", "--group", "cyclic:3", "--p", "4000000000",
                                          "--q", "4000000000"])
        assert (code, out) == (1, "")
        assert err.startswith("error: exact integer intermediate") and err.count("\n") == 1

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
        (["weyl", "--group", "2I", "--lambda-max", "1000000000000"],
         "the spectrum up to lambda 1000000000000 needs at least 500000000000 cells, "
         "above the budget of 4194304"),
        (["sobolev", "--group", "2T", "--ceiling", "100000"],
         "the triangle p + q <= 100000 needs at least 5000150001 cells, above the budget of 4194304"),
        (["dims", "--group", "lens:4097:1,2,3", "--p", "1", "--q", "1"],
         "the series tables of lens:4097:1,2,3 need at least 16785409 int64 entries, "
         "above the budget of 16777216"),
        (["multiplicity", "--group", "2T", "--lambda", "4398046511106"],
         "eigenvalue 4398046511106 is above the budget of 4398046511104"),
        (["genfun", "--group", "cyclic:4", "--ceiling", "1000000"],
         "the series square p, q <= 1000000 needs at least 1000002000001 cells, "
         "above the budget of 4194304"),
    ])
    def test_budgets_trip_before_allocation(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("group", ["2T", "cyclic:7", "lens:5:1,2,3", "lens:3:1,1,1,2"])
    def test_large_eigenvalue_multiplicity_is_fast(self, capsys, group):
        start = time.perf_counter()
        code, out, err = capture(capsys, ["multiplicity", "--group", group, "--lambda", "1000000000000"])
        assert time.perf_counter() - start < 1.0
        assert code in (0, 1)
        assert (out == "") == (code == 1) and err.count("\n") == code

    def test_internal_violation_exit_2(self, capsys, monkeypatch):
        from kohnspec.errors import NonIntegralDimension

        def boom(*args, **kwargs):
            raise NonIntegralDimension("synthetic failure")

        monkeypatch.setattr("kohnspec.cli.dim_invariant", boom)
        code, _, err = capture(capsys, ["dims", "--group", "cyclic:3", "--p", "1", "--q", "1"])
        assert code == 2
        assert "invariant violation" in err


def test_cli_import_loads_no_scipy():
    src = str(Path(kohnspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kohnspec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_reproduce_golden_byte_identical(capsys):
    # every docs/REPRODUCE.md command, against the stdout recorded in the golden
    golden = Path(__file__).resolve().parents[1] / "bench" / "reproduce_golden.json"
    for entry in json.loads(golden.read_text())["commands"]:
        code, out, err = capture(capsys, entry["argv"])
        assert (code, err) == (0, ""), entry["argv"]
        assert out == entry["stdout"], entry["argv"]


def test_table_goldens_byte_identical(capsys):
    # spectrum, weyl, compare and sobolev above the reproduce cutoffs, in every
    # format, against stdout recorded before the tables became arrays
    golden = Path(__file__).resolve().parent / "data" / "cli_golden.json"
    for entry in json.loads(golden.read_text())["commands"]:
        code, out, err = capture(capsys, entry["argv"])
        assert (code, err) == (0, ""), entry["argv"]
        assert out == entry["stdout"], entry["argv"]
