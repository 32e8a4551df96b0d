"""The package names the benchmark calls still exist.

bench/workloads.py calls the package as ``ks.<name>`` and
``kohnspec.cli.<name>``, looked up at call time; a name removed or renamed in
src/ would fail that workload's operations or checks, so this test reads the
workloads with ``ast`` and looks each name up.  ``reconstruct_dims`` is one of
them: lens_n3 checks ``pg_polynomial`` by reconstructing the series from P,
so moving ``reconstruct_dims`` out of the package into the tests would fail
that check on every run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kohnspec
import kohnspec.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def called_names() -> set[tuple[str, str]]:
    """(module, name) for every ks.<name> and kohnspec.cli.<name> in the workloads."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "ks":
            names.add(("kohnspec", node.attr))
        elif (isinstance(node.value, ast.Attribute) and node.value.attr == "cli"
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "kohnspec"):
            names.add(("kohnspec.cli", node.attr))
    return names


def test_workload_names_exist_in_the_package():
    names = called_names()
    public = {"reconstruct_dims", "fg_coefficients", "dim_invariant", "pg_polynomial", "oracle_check"}
    assert {("kohnspec", name) for name in public} | {("kohnspec.cli", "run")} <= names, names
    modules = {"kohnspec": kohnspec, "kohnspec.cli": kohnspec.cli}
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(modules[module], name))
    assert not missing, missing
