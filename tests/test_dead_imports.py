"""Every name a package module imports is referenced in that module, and no
package module imports another's private (underscore) names.

No linter ships with the package, so this is the guard against imports left
behind when the code that used them goes. Names listed in a module's
__all__ count as used; `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "momentforge"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_imports(tree: ast.Module) -> list[str]:
    return [
        f"{alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "momentforge")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def test_private_imports_are_caught():
    tree = ast.parse("from .localize import _x, y\nfrom momentforge.finab import _z\n"
                     "from os import _exit\n")
    assert _private_imports(tree) == ["_x from .localize (line 1)",
                                      "_z from momentforge.finab (line 2)"]
