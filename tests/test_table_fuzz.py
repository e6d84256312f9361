"""Mutated table files through main(): `reconstruct`, `localize` and `invert`
each end in a documented exit code, with no traceback and at most one short
`error:` line, whatever a table file holds."""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from momentforge.cli import main
from momentforge.finab import enumerate_groups
from momentforge.localize import ModuleMomentTable

# complete enough for reconstruct and localize at M = 0, Z/2, Z/3 to depth 1
_MODULE = ModuleMomentTable([2, 3], {g: 1 for g in enumerate_groups([2, 3], 36)}).to_json_obj()
_MOMENTS = {
    "basis": [{"kind": "abelian", "h": 2}, {"kind": "nonabelian", "aut": 60}],
    "bound": [1, 1],
    "moments": [{"k": [a, b], "value": "1"} for a in range(2) for b in range(2)],
}
_WORDS = ["", "1", "2", "3", "02", " 3", "-1", "1/0", "2/3", "x", "1e5000", "1" * 5000,
          "x" * 5000, "group", "value", "primes", "moments", "k", "basis", "bound", "abelian"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3),
    max_leaves=6,
)
# argv mostly valid, so that most runs reach the table's contents
_GROUPS = ["{}", "{}", '{"2":[1]}', '{"3":[1]}', '{"2":[1],"3":[1]}', '{"5":[1]}', "[1]"]
_DEPTHS = ["0", "1", "1", "1,1", "1,1", "1,0", "x", "-1"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


@st.composite
def _mutated(draw, base):
    """base with up to three edits: a node replaced or deleted, or an entry added."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(_JSON)
            continue
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        node = parent[path[-1]]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace" or (action == "add" and not isinstance(node, (dict, list))):
            parent[path[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_WORDS))] = draw(_JSON)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(_JSON))
    return obj


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(["reconstruct", "localize", "invert"]))
    own, other = (_MOMENTS, _MODULE) if command == "invert" else (_MODULE, _MOMENTS)
    table = draw(_mutated(draw(st.sampled_from([own, own, own, other]))))
    if command == "invert":
        argv = ["invert", "--rmax", draw(st.sampled_from(_DEPTHS))]
    else:
        depth = "--rmax" if command == "reconstruct" else "--kbound"
        argv = [command, "--group", draw(st.sampled_from(_GROUPS)),
                depth, draw(st.sampled_from(_DEPTHS))]
        argv += draw(st.sampled_from([[], [], ["--primes", "2"], ["--primes", "3,2"]]))
    return argv, table


@given(_runs())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_tables_exit_cleanly(tmp_path_factory, run):
    argv, table = run
    # a fresh file each example, removed at once: on an ext4 virtual disk,
    # rewriting a file took ~26 ms and removing one already on disk ~12 ms,
    # against under 0.1 ms to create one and remove it
    path = tmp_path_factory.getbasetemp() / "fuzz-table.json"
    path.write_text(json.dumps(table))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--file", str(path)])
    finally:
        path.unlink()
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err[:500]
    assert len(err.encode()) < 1024, err[:500]
    if code:
        assert out.getvalue() == ""
