"""numpy enters the package in three modules only, each importing it once at
module top level: the two oracle modules and the sampler. The closed forms
import none of them, so they never load numpy."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "momentforge"


def _numpy_imports(tree: ast.Module) -> list[bool]:
    """One entry per numpy import in the module: True when at top level."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node in tree.body)
    return found


def test_numpy_is_imported_once_at_top_level_by_three_modules():
    imports = {path.name: _numpy_imports(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    assert {name: found for name, found in imports.items() if found} == {
        "oracle.py": [True],
        "nonab_oracle.py": [True],
        "sampler.py": [True],
    }
