"""The package parses at the oldest Python that pyproject.toml declares.

The suite runs on a newer interpreter, where syntax from later releases
(an `except*`, a `type` alias, a generic `def f[T]`) would pass unnoticed.
ast.parse with feature_version set to the declared floor refuses it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "momentforge"


def declared_floor() -> tuple[int, ...]:
    """The version X.Y[.Z] of requires-python = ">=X.Y[.Z]" in pyproject.toml."""
    match = re.search(r'^requires-python = ">=(\d+\.\d+(?:\.\d+)?)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return tuple(int(part) for part in match[1].split("."))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor()[:2])


def test_newer_syntax_is_caught():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
