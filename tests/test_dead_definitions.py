"""Every function, class and method the package defines has a caller.

The sibling of test_dead_imports: a definition passes when its name is
referenced (as a Name, or as an Attribute not read from a name that a plain
`import` binds) somewhere in the package outside its own body, is listed in
a module's __all__, is a dunder, is a span the benchmark tracer wraps
(perfbench/trace_child.TARGETS), or is on ALLOWED with the reason it stays.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "momentforge"

# module.qualname -> why it stays without a caller in the package
ALLOWED = {
    "cli._Parser.error": "overrides argparse.ArgumentParser.error",
    "oracle.mu_local_direct": "the oracle the tests hold localized_moments to",
}


def _trace_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "trace_child_for_dead_definitions", ROOT / "perfbench" / "trace_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, _, attr, _ in module.TARGETS}


def _imported(tree: ast.Module) -> set[str]:
    """Names a plain `import` binds (json, np, os, ...): an attribute read
    from one of them, such as json.dumps, is not a package reference. Names
    that `from . import` binds are package modules and stay references."""
    return {alias.asname or alias.name.partition(".")[0]
            for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names}


def _references(node: ast.AST, imported: set[str]) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) or isinstance(n, ast.Attribute)
        and not (isinstance(n.value, ast.Name) and n.value.id in imported)
    )


def _definitions(tree: ast.Module):
    """(qualname, node) for every function, class and method, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def _exported(tree: ast.Module) -> set[str]:
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def dead_definitions(trees: dict[str, ast.Module], targets: set[str]) -> list[str]:
    """module.qualname of each definition in `trees` (module name -> AST) that
    meets none of the conditions in the module docstring."""
    imported = {module: _imported(tree) for module, tree in trees.items()}
    references = sum((_references(tree, imported[m]) for m, tree in trees.items()), Counter())
    exported = set().union(*map(_exported, trees.values()))
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (references[name] - _references(node, imported[module])[name] > 0
                    or name in exported
                    or (name.startswith("__") and name.endswith("__"))
                    or qualname in targets or f"{module}.{qualname}" in ALLOWED):
                continue
            dead.append(f"{module}.{qualname}")
    return dead


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert dead_definitions(trees, _trace_targets()) == []


def test_allowlist_names_real_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {f"{module}.{q}" for module, tree in trees.items() for q, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_dead_definitions_are_caught():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def traced(): pass\n"
        "class C:\n"
        "    def __eq__(self, other): pass\n"
        "    def method(self): pass\n"
        "    def called(self): pass\n"
        "    def dumps(self): pass\n"
        "    def load(self): pass\n"
        "import json\n"
        "from . import sibling\n"
        "used()\n"
        "C().called()\n"
        "json.dumps({})\n"  # the stdlib's dumps, not C's
        "sibling.load()\n"  # a package module's load: a reference
    )
    assert dead_definitions({"m": tree}, {"traced"}) == [
        "m.unused", "m.recursive", "m.C.method", "m.C.dumps"]
