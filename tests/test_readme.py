"""README's size budgets against the module constants they name."""

from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SOURCES = "\n".join(path.read_text() for path in sorted((ROOT / "src" / "kohnspec").glob("*.py")))

# `module.NAME` = value, value a product of integers and powers a^b
STATEMENT = re.compile(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*)`\s*=\s*(\d+(?:\s*[*^]\s*\d+)*)")


def value(text: str) -> int:
    """The integer a product like `2 * 10^9` or `2^22` stands for."""
    factors = [factor.split("^") for factor in text.replace(" ", "").split("*")]
    return math.prod(int(base) ** int(exp[0]) if exp else int(base) for base, *exp in factors)


def test_value_parser():
    assert [value(t) for t in ("4300", "2^22", "2 * 10^9", "10^5")] == [4300, 1 << 22, 2 * 10**9, 10**5]


def test_budget_statements_match_the_constants():
    statements = STATEMENT.findall(README)
    assert len(statements) >= 9, statements
    for module, name, text in statements:
        mod = importlib.import_module(f"kohnspec.{module}")
        assert hasattr(mod, name), f"README names {module}.{name}, which src/ does not define"
        assert getattr(mod, name) == value(text), (module, name, text, getattr(mod, name))


def test_named_constants_exist():
    # a bare `NAME` in README, such as `MAX_CELLS`, must be a module-level constant of src/
    names = set(re.findall(r"`(_?[A-Z][A-Z0-9]*_[A-Z0-9_]*)`", README))
    assert "MAX_CELLS" in names
    missing = sorted(name for name in names if not re.search(rf"^{name} = ", SOURCES, re.M))
    assert not missing, missing
