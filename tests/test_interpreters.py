"""The numpy-free commands print the same bytes under every pyenv interpreter
at or above the Python floor that pyproject.toml declares.

One child per interpreter runs a fixed list of commands through
momentforge.cli.main, with numpy made unimportable, and reports each
command's exit code, stdout and stderr; every report must equal the one of
the interpreter that runs the suite. Interpreters that are absent or below
the floor are skipped, and nothing is installed.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import momentforge
from momentforge.finab import FinAbGroup, Measure, enumerate_groups
from momentforge.inversion import MomentTable
from momentforge.qseries import SimpleType
from momentforge.sampler import empirical_moments

from groups import Z
from test_inversion import infeasible_table
from test_python_floor import declared_floor

CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # these commands must not need it
from momentforge.cli import main
reports = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    reports.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(reports))
"""


def interpreters() -> list[tuple[str, Path]]:
    """(version, python) for each pyenv version at or above the floor, other
    than the running interpreter."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    running = Path(sys.executable).resolve()
    found = []
    for path in sorted(versions.glob("*/bin/python3")) if versions.is_dir() else []:
        name = path.parent.parent.name
        if (re.fullmatch(r"\d+\.\d+\.\d+", name)
                and tuple(map(int, name.split("."))) >= declared_floor()
                and path.resolve() != running):
            found.append((name, path))
    return found


def commands(tmp_path: Path) -> list[list[str]]:
    one = tmp_path / "one.json"
    half = Fraction(1, 2)
    one.write_text(json.dumps(MomentTable.one_type(SimpleType.abelian(2), [1, half, 0, 0])
                              .to_json_obj()))
    module = tmp_path / "module.json"
    mu = Measure({FinAbGroup.trivial(): half, Z(2): half})
    module.write_text(json.dumps(empirical_moments(mu, enumerate_groups([2], 16)).to_json_obj()))
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps(infeasible_table()))
    # a {2,3} table whose records lack a prime or put "3" before "2"
    mixed = tmp_path / "mixed.json"
    records = [{"group": dict(reversed(g.to_json_obj().items())), "value": "1"}
               for g in enumerate_groups([2, 3], 24)]
    mixed.write_text(json.dumps({"primes": [2, 3], "moments": records}))
    # one group twice, its second value unparsable: refused as a duplicate
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text(json.dumps({"primes": [2], "moments": [
        {"group": {"2": [1]}, "value": "1"}, {"group": {"2": [1]}, "value": "x"}]}))
    basis = '[{"kind":"abelian","h":3},{"kind":"abelian","h":3}]'
    return [
        ["coeffs", "--abelian", "9", "--k", "4"],
        ["coeffs", "--abelian", "1849", "--k", "2"],  # 43**2: Miller-Rabin finds 43 prime
        ["coeffs", "--nonabelian-aut", "60", "--k", "3", "--pretty"],
        ["sur", "--abelian", "4", "--e", "6", "--k", "3"],
        ["sur", "--nonabelian-aut", "120", "--e", "7", "--k", "3"],
        ["sur", "--abelian", "3", "--e", "30000000", "--k", "0"],
        ["sur", "--basis", basis, "--e", "30000000,1", "--k", "1,2"],
        ["invert", "--file", str(one), "--rmax", "3", "--pretty"],
        ["localize", "--file", str(module), "--group", '{"2":[1]}', "--kbound", "2"],
        ["reconstruct", "--file", str(module), "--group", '{"2":[1]}', "--rmax", "3", "--pretty"],
        ["reconstruct", "--file", str(mixed), "--group", '{"2":[1]}', "--rmax", "2,1"],
        ["coeffs", "--abelian", str(2**82), "--k", "2"],  # exact roots past the primality limit
        ["coeffs", "--abelian", "6", "--k", "1"],
        ["sur", "--abelian", "4", "--e", "2", "--k", "1", "--basis", '[{"kind":"abelian","h":3}]'],
        ["coeffs", "--abelian", "2", "--k", "5000"],
        ["invert", "--file", str(infeasible), "--rmax", "400"],  # refused at r <= 20
        ["reconstruct", "--file", str(duplicate), "--group", "{}", "--rmax", "1"],
    ]


def test_every_interpreter_prints_the_same_bytes(tmp_path):
    others = interpreters()
    if not others:
        pytest.skip("no other interpreter at or above the floor")
    argv = json.dumps(commands(tmp_path))
    src = Path(momentforge.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    children = [(version, subprocess.Popen([str(python), "-c", CHILD, argv], env=env,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                           text=True))
                for version, python in [("running", Path(sys.executable)), *others]]
    reports = {}
    try:
        for version, child in children:
            out, err = child.communicate(timeout=30)
            assert child.returncode == 0, (version, err[-2000:])
            reports[version] = json.loads(out)
    finally:
        for _, child in children:  # none outlives a failure
            child.kill()
            child.wait()
    want = reports.pop("running")
    assert [code for code, _, _ in want] == [0] * 12 + [1, 1, 3, 1, 1]
    for version, got in reports.items():
        assert got == want, version
