"""The package names the benchmark calls still exist.

bench/workloads.py calls the package as ``ks.<name>`` and
``kohnspec.cli.<name>``, looked up at call time; a name removed or renamed in
src/ would fail that workload's operations or checks, so this test reads the
workloads with ``ast`` and looks each name up.  ``reconstruct_dims`` is one of
them: lens_n3 checks ``pg_polynomial`` by reconstructing the series from P,
so moving ``reconstruct_dims`` out of the package into the tests would fail
that check on every run.  Each call is also bound to the signature of the
function it names, with placeholder arguments, so that a removed or renamed
parameter fails here too.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import kohnspec
import kohnspec.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


MODULES = {"kohnspec": kohnspec, "kohnspec.cli": kohnspec.cli}


def _module_of(node: ast.AST) -> str | None:
    """"kohnspec" for ks.<name>, "kohnspec.cli" for kohnspec.cli.<name>, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    if isinstance(node.value, ast.Name) and node.value.id == "ks":
        return "kohnspec"
    if (isinstance(node.value, ast.Attribute) and node.value.attr == "cli"
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "kohnspec"):
        return "kohnspec.cli"
    return None


def called_names() -> set[tuple[str, str]]:
    """(module, name) for every ks.<name> and kohnspec.cli.<name> in the workloads."""
    tree = ast.parse(WORKLOADS.read_text())
    return {(module, node.attr) for node in ast.walk(tree) if (module := _module_of(node))}


def calls() -> list[tuple[str, str, int, list[str]]]:
    """(module, name, positional count, keyword names) for every call of a
    ks.<name> or kohnspec.cli.<name> in the workloads."""
    out = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and (module := _module_of(node.func)):
            assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
            assert all(k.arg for k in node.keywords), ast.unparse(node)
            out.append((module, node.func.attr, len(node.args), [k.arg for k in node.keywords]))
    return out


def test_workload_names_exist_in_the_package():
    names = called_names()
    public = {"reconstruct_dims", "fg_coefficients", "dim_invariant", "pg_polynomial", "oracle_check"}
    assert {("kohnspec", name) for name in public} | {("kohnspec.cli", "run")} <= names, names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(MODULES[module], name))
    assert not missing, missing


def test_workload_calls_bind_to_the_signatures():
    found = calls()
    assert ("kohnspec", "pg_polynomial", 1, []) in found and ("kohnspec.cli", "run", 1, []) in found, found
    for module, name, positional, keywords in found:
        signature = inspect.signature(getattr(MODULES[module], name))
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{module}.{name}{signature} called with {positional} positional "
                                 f"arguments and keywords {keywords}: {exc}") from None
