"""numpy enters the package in three modules only, each importing it once at
module top level: the two oracle modules and the sampler. The closed forms
import none of them, so they never load numpy. No module imports dataclasses,
whose import loads inspect."""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "momentforge").glob("*.py"))


def _imports(tree: ast.Module, package: str) -> list[bool]:
    """One entry per import of package in the module: True when at top level."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            found.append(node in tree.body)
    return found


def test_numpy_is_imported_once_at_top_level_by_three_modules():
    imports = {path.name: _imports(ast.parse(path.read_text()), "numpy") for path in MODULES}
    assert {name: found for name, found in imports.items() if found} == {
        "oracle.py": [True],
        "nonab_oracle.py": [True],
        "sampler.py": [True],
    }


def test_no_module_imports_dataclasses():
    imports = {path.name: _imports(ast.parse(path.read_text()), "dataclasses") for path in MODULES}
    assert {name: found for name, found in imports.items() if found} == {}
