import gc
import importlib.util
import json
import math
import os
import re
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import momentforge
from momentforge.cli import main
from momentforge.errors import InputError
from momentforge.finab import MAX_ORDER_BITS, FinAbGroup, Measure, aut_count, enumerate_groups
from momentforge.inversion import Bracket, MomentTable
from momentforge.localize import ModuleMomentTable
from momentforge.qseries import SimpleType, inversion_coefficient
from momentforge.rationals import parse_rational

from groups import Z
from test_inversion import infeasible_table


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def bracket(obj) -> Bracket:
    """A bracket's JSON read back with Fraction."""
    return Bracket(Fraction(obj["lower"]), Fraction(obj["upper"]))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sur_example(capsys):
    code, out, _ = run(capsys, "sur", "--abelian", "2", "--e", "2", "--k", "1")
    assert code == 0 and out.strip() == "3"


def test_sur_product(capsys):
    basis = json.dumps([{"kind": "abelian", "h": 2}, {"kind": "abelian", "h": 3}])
    code, out, _ = run(capsys, "sur", "--basis", basis, "--e", "2,1", "--k", "1,1")
    assert code == 0 and out.strip() == "6"


def test_coeffs_example(capsys):
    code, out, _ = run(capsys, "coeffs", "--abelian", "2", "--k", "2")
    assert code == 0 and out.strip() == "1/3"
    code, out, _ = run(capsys, "coeffs", "--nonabelian-aut", "120", "--k", "2")
    assert code == 0 and out.strip() == "1/28800"


def test_invert_example(tmp_path, capsys):
    table = MomentTable.one_type(SimpleType.abelian(2), [1] * 5)
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(table.to_json_obj()))
    code, out, _ = run(capsys, "invert", "--file", str(path), "--rmax", "4")
    assert code == 0
    assert json.loads(out) == {"lower": "2/7", "upper": "13/45"}


def test_invert_reorder_multi(tmp_path, capsys):
    basis = [{"kind": "abelian", "h": 2}, {"kind": "abelian", "h": 3}]
    moments = [
        {"k": [i, j], "value": "1"} for i in range(5) for j in range(5)
    ]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"basis": basis, "bound": [4, 4], "moments": moments}))
    code, out, _ = run(capsys, "invert", "--file", str(path), "--rmax", "4,4")
    assert code == 0
    br = bracket(json.loads(out))
    code, out2, _ = run(capsys, "invert", "--file", str(path), "--rmax", "4,4", "--order", "1,0")
    assert code == 0
    br2 = bracket(json.loads(out2))
    # both orders are sound; they bracket the same mass
    assert br.lower <= br2.upper and br2.lower <= br.upper


def test_empty_basis_answers_its_single_moment(tmp_path, capsys):
    # a single depth applies to every type, and so to none
    path = tmp_path / "m.json"
    path.write_text('{"basis":[],"bound":[],"moments":[{"k":[],"value":"1/3"}]}')
    point = '{"lower": "1/3", "upper": "1/3"}\n'
    assert run(capsys, "invert", "--file", str(path), "--rmax", "0") == (0, point, "")
    path.write_text('{"primes":[],"moments":[{"group":{},"value":"2/5"}]}')
    point = '{"lower": "2/5", "upper": "2/5"}\n'
    argv = ("reconstruct", "--file", str(path), "--group", "{}", "--rmax", "0")
    assert run(capsys, *argv) == (0, point, "")


@pytest.fixture()
def half_table_path(tmp_path):
    mu = Measure({FinAbGroup.trivial(): Fraction(1, 2), Z(2): Fraction(1, 2)})
    from momentforge.sampler import empirical_moments

    table = empirical_moments(mu, enumerate_groups([2], 16))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_obj()))
    return path


def test_localize_roundtrip(half_table_path, capsys):
    code, out, _ = run(
        capsys, "localize", "--file", str(half_table_path), "--group", '{"2":[1]}',
        "--kbound", "1",
    )
    assert code == 0
    table = MomentTable.from_json_obj(json.loads(out))
    assert table.values[(0,)] == Fraction(1, 2)
    assert table.values[(1,)] == 0


def test_reconstruct(half_table_path, capsys):
    code, out, _ = run(
        capsys, "reconstruct", "--file", str(half_table_path), "--group", '{"2":[1]}',
        "--rmax", "3",
    )
    assert code == 0
    assert json.loads(out) == {"lower": "1/2", "upper": "1/2"}


def _garbage_left(capsys, *argv) -> int:
    """Objects gc.collect() frees after main(argv), run with the collector
    off as the command line runs it."""
    gc.collect()
    gc.disable()
    try:
        assert main(list(argv)) == 0
        return gc.collect()
    finally:
        gc.enable()
        capsys.readouterr()


def test_the_work_leaves_no_cyclic_garbage(tmp_path, capsys):
    # whatever a command leaves for the collector does not grow with its work
    report = ("sample", "--p", "2", "--cap", "3", "--n", "8", "--seed", "5", "--report",
              "--target", "{}", "--target", '{"2":[1]}', "--rmax", "4")
    left = [_garbage_left(capsys, *report, "--count", str(t), "--ts", str(t))
            for t in (100, 1000, 10_000)]
    mu = Measure({FinAbGroup.trivial(): Fraction(1, 2), Z(2): Fraction(1, 2)})
    from momentforge.sampler import empirical_moments

    for bound in (2**4, 2**4, 2**9):
        path = tmp_path / f"table{bound}.json"
        path.write_text(json.dumps(
            empirical_moments(mu, enumerate_groups([2], bound)).to_json_obj()))
        left.append(_garbage_left(capsys, "reconstruct", "--file", str(path),
                                  "--group", '{"2":[1]}', "--rmax", "3"))
    assert left[1] == left[2] and left[4] == left[5], left


def test_sample_roundtrip_and_determinism(capsys):
    args = ("sample", "--p", "2", "--cap", "3", "--n", "3", "--seed", "42", "--count", "200")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert sum(Fraction(rec["value"]) for rec in json.loads(out1)["masses"]) == 1


def test_sample_output_is_unchanged(capsys):
    # the config object keeps its field order: p, cap, n, u, seed, count
    masses = {
        1: '[{"group": {}, "value": "1/3"}, {"group": {"2": [1]}, "value": "1/3"}, '
           '{"group": {"2": [1, 1]}, "value": "1/6"}, {"group": {"2": [2]}, "value": "1/6"}]',
        2: '[{"group": {}, "value": "1/3"}, {"group": {"2": [1]}, "value": "1/6"}, '
           '{"group": {"2": [2]}, "value": "1/2"}]',
        3: '[{"group": {}, "value": "1/3"}, {"group": {"2": [1]}, "value": "1/2"}, '
           '{"group": {"2": [2]}, "value": "1/6"}]',
    }
    for seed, want in masses.items():
        code, out, _ = run(capsys, "sample", "--p", "2", "--cap", "2", "--n", "3",
                           "--seed", str(seed), "--count", "6")
        config = f'{{"p": 2, "cap": 2, "n": 3, "u": 0, "seed": {seed}, "count": 6}}'
        assert (code, out) == (0, f'{{"masses": {want}, "config": {config}}}\n')


def test_sample_report_lines(capsys):
    code, out, _ = run(
        capsys, "sample", "--p", "2", "--cap", "3", "--n", "3", "--seed", "42",
        "--count", "200", "--report", "--ts", "100,200", "--target", '{"2":[1]}',
        "--rmax", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        br = bracket(rec["bracket"])
        assert br.contains(Fraction(rec["frequency"]))


@pytest.mark.parametrize("drop", ["--ts", "--target"])
def test_report_without_counts_or_targets_exits_1(drop, capsys):
    argv = ["sample", "--p", "2", "--cap", "3", "--n", "3", "--seed", "42", "--count", "200",
            "--report", "--ts", "100,200", "--target", '{"2":[1]}']
    i = argv.index(drop)
    code, out, err = run(capsys, *argv[:i], *argv[i + 2 :])
    assert (code, out) == (1, "")
    assert err == "error: --report needs --ts and at least one --target\n"


def test_exit_codes(tmp_path, capsys):
    # input error: unknown flag
    code, _, err = run(capsys, "sur", "--abelian", "2", "--e", "2", "--k", "1", "--frob")
    assert code == 1
    # input error: both type flags
    code, _, err = run(capsys, "coeffs", "--abelian", "2", "--nonabelian-aut", "6", "--k", "1")
    assert code == 1 and "exactly one" in err
    # input error: bad file
    code, _, err = run(capsys, "invert", "--file", str(tmp_path / "nope.json"), "--rmax", "2")
    assert code == 1
    # input error: non-prime-power h
    code, _, err = run(capsys, "coeffs", "--abelian", "6", "--k", "1")
    assert code == 1
    # budget error
    code, _, err = run(
        capsys, "sur", "--basis", "[]", "--e", "", "--k", "",
    )
    assert code == 1  # malformed lists are input errors


def test_budget_env_override(monkeypatch):
    # a tiny budget turns a legitimate brute-force count into a refusal
    monkeypatch.setenv("MOMENTFORGE_BUDGET", '{"max_candidates": 1, "max_order": 1}')
    from momentforge.errors import BudgetExceededError
    from momentforge.oracle import sur_bruteforce

    with pytest.raises(BudgetExceededError):
        sur_bruteforce(Z(8), Z(8))


def test_localize_ignores_budget(monkeypatch, tmp_path, capsys):
    # extension-class counts are closed forms, so a unit budget that would
    # refuse any enumeration leaves the output unchanged
    table = ModuleMomentTable([2], {g: 1 for g in enumerate_groups([2], 4)})
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(table.to_json_obj()))
    argv = ("localize", "--file", str(path), "--group", '{"2":[1]}', "--kbound", "1")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("MOMENTFORGE_BUDGET", '{"max_candidates": 1}')
    code, budgeted, _ = run(capsys, *argv)
    assert code == 0 and budgeted == plain


def test_budget_exit_code(monkeypatch, capsys):
    from momentforge import cli
    from momentforge.errors import BudgetExceededError

    def refuse(args):
        raise BudgetExceededError("enumeration: 9 candidate tuples exceed the budget of 1")

    monkeypatch.setattr(cli, "_cmd_coeffs", refuse)
    code, _, err = run(capsys, "coeffs", "--abelian", "2", "--k", "1")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize(
    "basis",
    [
        '[{"kind":"abelian","h":"x"}]',
        '[{"kind":"abelian"}]',
        "5",
        '[{"kind":"abelian","h":2.9}]',
        '[{"kind":"abelian","h":true}]',
    ],
)
def test_sur_bad_basis_is_input_error(basis, capsys):
    code, _, err = run(capsys, "sur", "--basis", basis, "--e", "1", "--k", "1")
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_invert_bad_bound_is_input_error(tmp_path, capsys):
    obj = {"basis": [{"kind": "abelian", "h": 2}], "bound": ["x"], "moments": [{"k": [0], "value": "1"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "invert", "--file", str(path), "--rmax", "1")
    assert code == 1 and err.startswith("error: ") and "bound" in err

@pytest.mark.parametrize("bound", [[1.9], [True]])
def test_invert_non_integer_bound_is_input_error(bound, tmp_path, capsys):
    # int() used to truncate 1.9 to 1 and read true as 1
    obj = {"basis": [{"kind": "abelian", "h": 2}], "bound": bound, "moments": [{"k": [0], "value": "1"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "invert", "--file", str(path), "--rmax", "1")
    assert code == 1 and err.startswith("error: ") and "bound" in err


def test_invert_duplicate_index_is_input_error(tmp_path, capsys):
    # a second record for k = [0] used to overwrite the first silently
    moments = [{"k": [0], "value": "1"}, {"k": [1], "value": "1"}, {"k": [0], "value": "5"}]
    obj = {"basis": [{"kind": "abelian", "h": 2}], "bound": [1], "moments": moments}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "invert", "--file", str(path), "--rmax", "1")
    assert code == 1 and out == "" and err.startswith("error: ") and "[0]" in err


@pytest.mark.parametrize("field, value", [
    ("primes", "ab"), ("order_bound", "x"), ("order_bound", 16.5), ("primes", [2.0]),
    ("primes", [True]),
])
def test_reconstruct_bad_table_field_is_input_error(field, value, half_table_path, capsys):
    obj = json.loads(half_table_path.read_text())
    obj[field] = value
    half_table_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "reconstruct", "--file", str(half_table_path), "--group", "{}", "--rmax", "1")
    assert code == 1 and err.startswith("error: ") and field in err


@pytest.mark.parametrize("group", ['{"2":[1.9]}', '{"2":[true]}', '{"2":[2,"1"]}', '{"2":[1],"02":[1]}'])
def test_reconstruct_bad_group_is_input_error(group, half_table_path, capsys):
    # exponents used to be truncated by int(): 1.9 and true answered as Z/2
    code, _, err = run(capsys, "reconstruct", "--file", str(half_table_path), "--group", group, "--rmax", "1")
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key", [{"2": [1.7]}, {"2": [True, 1]}])
def test_reconstruct_bad_table_key_is_input_error(key, half_table_path, capsys):
    obj = json.loads(half_table_path.read_text())
    obj["moments"].append({"group": key, "value": "1"})
    half_table_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "reconstruct", "--file", str(half_table_path), "--group", "{}", "--rmax", "1")
    assert code == 1 and err.startswith("error: ") and "exponents" in err


@pytest.mark.parametrize("primes", [[4], [1]])
def test_reconstruct_non_prime_table_primes_exit_1(primes, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"primes": primes, "order_bound": 3, "moments": [{"group": {}, "value": "1"}]}))
    code, _, err = run(capsys, "reconstruct", "--file", str(path), "--group", "{}", "--rmax", "1")
    assert code == 1 and "not prime" in err


def test_huge_order_bound_is_read_not_enforced(half_table_path, capsys):
    # order_bound is not enforced: a claim of completeness to 10**40 changes nothing
    argv = ("reconstruct", "--file", str(half_table_path), "--group", "{}", "--rmax", "1")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    obj = json.loads(half_table_path.read_text())
    obj["order_bound"] = 10**40
    half_table_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == plain


def test_uncovered_basis_prime_names_missing_middle(half_table_path, capsys):
    # a 2-group table cannot localize at 5: the first middle it lacks is Z/5
    code, out, err = run(
        capsys, "reconstruct", "--file", str(half_table_path), "--group", "{}",
        "--primes", "5", "--rmax", "1",
    )
    assert code == 1 and out == "" and "lacks middles" in err and err.rstrip().endswith(": Z/5")


@pytest.mark.parametrize("primes, message", [
    ("4", "4 is not prime"), ("3,3", "localization needs distinct primes, got [3, 3]"),
    ("1", "1 is not prime"),
], ids=["4", "3,3", "1"])
def test_localization_primes_must_be_distinct_primes(primes, message, half_table_path, capsys):
    code, out, err = run(
        capsys, "reconstruct", "--file", str(half_table_path), "--group", "{}",
        "--primes", primes, "--rmax", "1",
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, depth", [("localize", "--kbound"), ("reconstruct", "--rmax")])
def test_explicit_table_primes_match_the_default(command, depth, tmp_path, capsys):
    mu = Measure({FinAbGroup.trivial(): Fraction(1, 2), Z(6): Fraction(1, 2)})
    from momentforge.sampler import empirical_moments

    path = tmp_path / "table.json"
    obj = empirical_moments(mu, enumerate_groups([2, 3], 72)).to_json_obj()
    path.write_text(json.dumps(obj))
    argv = (command, "--file", str(path), "--group", '{"2":[1]}', depth, "2,1")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--primes", "2,3") == (0, plain, "")
    # the same table with [] written for every absent prime
    for rec in obj["moments"]:
        rec["group"] = {"2": [], "3": [], **rec["group"]}
    path.write_text(json.dumps(obj))
    assert run(capsys, *argv) == (0, plain, "")


@pytest.mark.parametrize("command, depth", [("localize", "--kbound"), ("reconstruct", "--rmax")])
def test_empty_primes_are_refused(command, depth, half_table_path, capsys):
    # an empty list is no list of primes, not a request for the table's own
    code, out, err = run(capsys, command, "--file", str(half_table_path), "--group", "{}",
                         depth, "1", "--primes", "")
    assert code == 1 and out == ""
    assert err.startswith("error: --primes must be a comma-separated integer list: ")


def test_report_target_off_the_sampled_prime_exits_1(capsys):
    code, out, err = run(
        capsys, "sample", "--report", "--p", "2", "--cap", "3", "--n", "8", "--count", "100",
        "--seed", "1", "--ts", "100", "--target", '{"3":[1]}',
    )
    assert (code, out, err) == (1, "", "error: target Z/3 is not a 2-group\n")


def test_a_bracket_too_long_to_print_exits_3(tmp_path, capsys):
    # at h = 2**80 the coefficient c_20 has 2**15200 in its denominator, past
    # Python's 4300-digit limit on printing an int
    path = tmp_path / "table.json"
    table = MomentTable.one_type(SimpleType.abelian(2**80), [1] * 21)
    path.write_text(json.dumps(table.to_json_obj()))
    code, out, err = run(capsys, "invert", "--file", str(path), "--rmax", "20")
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (3, "", f"error: the exact result is too long to print: over {limit} digits\n")


def _report_brackets_contain_frequencies(out: str) -> list[dict]:
    records = [json.loads(line) for line in out.splitlines()]
    for rec in records:
        assert bracket(rec["bracket"]).contains(Fraction(rec["frequency"])), rec
    return records


def test_report_with_all_draws_trivial_exits_0(capsys):
    # seed 1 draws one trivial cokernel, so the moment table has no primes
    code, out, _ = run(
        capsys, "sample", "--report", "--p", "2", "--cap", "3", "--n", "8", "--count", "1",
        "--seed", "1", "--ts", "1", "--target", "{}", "--rmax", "0",
    )
    assert code == 0
    records = _report_brackets_contain_frequencies(out)
    assert [rec["frequency"] for rec in records] == ["1"]


def test_deep_report_reads_only_needed_middles(capsys):
    # moments are computed at the 602 middles the sums read, not at every
    # 2-group of order <= 4 * 2**200
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "sample", "--report", "--p", "2", "--cap", "3", "--n", "8", "--count", "100",
        "--seed", "1", "--ts", "50,100", "--target", "{}", "--target", '{"2":[2]}',
        "--rmax", "200",
    )
    assert time.perf_counter() - start < 3
    assert code == 0 and len(_report_brackets_contain_frequencies(out)) == 4


@pytest.mark.parametrize("primes, groups, rmax, message", [
    # (Z/2)**2049 is too large, so a plan made whole before its first sum
    # would refuse it; one made step by step stops at the first missing middle
    ([2], [{"2": [1] * k} for k in range(6)], "2049",
     "lacks middles for N=" + " x ".join(["Z/2"] * 6) + ", M=0"),
    # 1001 x 501 steps that a plan made whole would build before any sum
    ([2, 3], [g.to_json_obj() for g in enumerate_groups([2, 3], 36)], "1000,500",
     "lacks middles for N="),
], ids=["past-the-order-bound", "wide"])
def test_a_missing_middle_stops_reconstruct_at_its_step(primes, groups, rmax, message, tmp_path,
                                                        capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"primes": primes, "moments": [
        {"group": g, "value": "1"} for g in groups]}))
    started = time.perf_counter()
    code, out, err = run(capsys, "reconstruct", "--file", str(path), "--group", "{}",
                         "--rmax", rmax)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == "" and message in err


@pytest.mark.parametrize(
    "budget",
    ['{"max_candidates":"x"}', '{"max_candidates":null}', '"5"', "-1", "0",
     '{"max_order":1.5}', '{"max_order":true}'],
)
def test_verify_bad_budget_exits_1(budget, monkeypatch, capsys):
    # resolved once before the checks: no traceback, and no check runs or fails
    monkeypatch.setenv("MOMENTFORGE_BUDGET", budget)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--quick", "--seed", "1")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == "" and err.startswith("error: cannot parse MOMENTFORGE_BUDGET")


def test_oversized_sample_matrix_exits_1(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "sample", "--p", "2", "--cap", "3", "--n", "20000", "--seed", "1", "--count", "1")
    assert time.perf_counter() - start < 2
    assert code == 1 and "entries" in err


def test_hours_long_sample_exits_3_before_drawing(capsys):
    # 1000 Smith reductions of 1024 x 1024 matrices would run for hours
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--p", "2", "--cap", "3", "--n", "1024", "--seed", "1", "--count", "1000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (
        "error: 1000 draws of 1024 x 1024 over Z/2**3: estimated work 3221225475000 exceeds "
        f"the sampler cap of {2**35} (override with MOMENTFORGE_BUDGET)\n"
    )


def test_sample_does_not_load_numpy_random(tmp_path):
    # the stacked Philox kernel replaces numpy's generator, so the module
    # that builds it is never imported; -X importtime lists every import
    src = Path(momentforge.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for extra in ([], ["--report", "--ts", "5,10", "--target", "{}", "--rmax", "2"]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "momentforge.cli", "sample", "--p", "3",
             "--cap", "2", "--n", "4", "--seed", "1", "--count", "10", *extra],
            capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
        )
        assert proc.returncode == 0 and proc.stdout, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert {"numpy", "momentforge.sampler"} <= imported
        assert not {name for name in imported if name.startswith("numpy.random")}


_NO_NUMPY_SCRIPT = """
import json, sys
from momentforge.cli import main
from momentforge.errors import InputError
table, moments = sys.argv[1], sys.argv[2]
runs = [
    ["reconstruct", "--file", table, "--group", '{"2":[1]}', "--rmax", "3"],
    ["localize", "--file", table, "--group", "{}", "--kbound", "2"],
    ["invert", "--file", moments, "--rmax", "4"],
    ["coeffs", "--abelian", "2", "--k", "3"],
    ["sur", "--abelian", "2", "--e", "3", "--k", "2"],
]
codes = [main(argv) for argv in runs]
unwanted = {"numpy", "momentforge.oracle", "momentforge.nonab_oracle", "dataclasses", "inspect"}
loaded = sorted(unwanted & set(sys.modules))
codes.append(main(["sample", "--p", "2", "--cap", "2", "--n", "3", "--seed", "1", "--count", "5"]))
import momentforge.verify
print(json.dumps({"codes": codes, "loaded_before_sample": loaded, "numpy_after": "numpy" in sys.modules}))
"""


def test_closed_form_commands_do_not_load_numpy(half_table_path, tmp_path):
    moments = tmp_path / "moments.json"
    table = MomentTable.one_type(SimpleType.abelian(2), [1] * 5)
    moments.write_text(json.dumps(table.to_json_obj()))
    src = Path(momentforge.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(half_table_path), str(moments)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "loaded_before_sample": [], "numpy_after": True}


def test_sampler_names_at_package_root():
    from momentforge import SamplerConfig, convergence_report, empirical_moments, sample_cokernel
    from momentforge import sampler

    assert SamplerConfig is sampler.SamplerConfig
    assert convergence_report is sampler.convergence_report
    assert empirical_moments is sampler.empirical_moments
    assert sample_cokernel is sampler.sample_cokernel
    assert set(momentforge.__all__) >= {"SamplerConfig", "sample_cokernel"}
    with pytest.raises(AttributeError):
        momentforge.no_such_name


def test_every_export_resolves():
    missing = [name for name in momentforge.__all__ if not hasattr(momentforge, name)]
    assert missing == []


def test_large_prime_inputs_exit_1(half_table_path, capsys):
    # a 60-bit prime used to hang trial division
    p = str(2**60 - 93)
    code, _, err = run(capsys, "sample", "--p", p, "--cap", "1", "--n", "2", "--seed", "1", "--count", "1")
    assert code == 1 and err.startswith("error: ")
    group = json.dumps({p: [1]})
    code, _, err = run(capsys, "reconstruct", "--file", str(half_table_path), "--group", group, "--rmax", "1")
    assert code == 1 and err.startswith("error: ")


def _benchmark_check_names() -> tuple[str, ...]:
    """The check names the benchmark's per-layer `verify.*` metrics are read from."""
    spec = importlib.util.spec_from_file_location("workloads_under_test", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.VERIFY_CHECK_NAMES


def test_verify_quick(capsys):
    # a renamed check fails here rather than turning a benchmark metric absent
    code, out, _ = run(capsys, "verify", "--seed", "3", "--quick")
    assert code == 0
    *checks, closing = out.strip().splitlines()
    assert [line.split(": ", 1)[0] for line in checks] == [
        f"PASS {name}" for name in _benchmark_check_names()
    ]
    assert closing == "all 10 checks passed"


def test_verify_failure_exits_2(monkeypatch, capsys):
    # starving the budget makes oracle checks fail, which is a consistency
    # failure of the suite as a whole
    monkeypatch.setenv("MOMENTFORGE_BUDGET", "1000")
    code, out, err = run(capsys, "verify", "--seed", "3", "--quick")
    assert code == 2
    assert any(l.startswith("FAIL") for l in out.splitlines())


_HUGE_INT = "1" * 5001  # past Python's 4300-digit limit for int <-> str
_ONE_TYPE = '{"basis":[{"kind":"abelian","h":2}],"bound":[%s],"moments":[%s]}'


@pytest.mark.parametrize(
    "table, argv, want_code, want_out",
    [
        # exact results longer than the digit limit are refused as too big to print
        (None, ["coeffs", "--abelian", "2", "--k", "200"], 3, ""),
        (None, ["sur", "--abelian", "2", "--e", "200", "--k", "100"], 3, ""),
        # JSON integers past the digit limit are bad input, wherever they come in
        (_ONE_TYPE % (0, '{"k":[0],"value":%s}' % _HUGE_INT), ["invert", "--rmax", "0"], 1, ""),
        ('{"primes":[2],"moments":[{"group":{},"value":"1"}]}',
         ["reconstruct", "--group", '{"2":[%s]}' % _HUGE_INT, "--rmax", "0"], 1, ""),
        (None, ["sur", "--basis", '[{"kind":"abelian","h":%s}]' % _HUGE_INT, "--e", "1", "--k", "1"],
         1, ""),
        # infeasible moments past the digit limit: the message carries no numbers
        (_ONE_TYPE % (3, ",".join('{"k":[%d],"value":"%s"}' % kv for kv in
                                  enumerate(["1e4300", "0", "3e4300", "0"]))),
         ["invert", "--rmax", "3"], 1, ""),
        # negative moments past the digit limit: the messages carry no numbers
        (_ONE_TYPE % (0, '{"k":[0],"value":"-1e4300"}'), ["invert", "--rmax", "0"], 1, ""),
        ('{"primes":[2],"moments":[{"group":{},"value":"-1e4300"}]}',
         ["reconstruct", "--group", "{}", "--rmax", "0"], 1, ""),
        # decimal renderings out of float range read inf
        (_ONE_TYPE % (0, '{"k":[0],"value":"1e400"}'), ["invert", "--pretty", "--rmax", "0"], 0,
         '"upper_decimal": "inf"'),
    ],
    ids=["coeffs", "sur", "file-int", "group-int", "basis-int", "infeasible", "negative-moment",
         "negative-table-moment", "pretty-inf"],
)
def test_digit_and_float_limits_exit_cleanly(table, argv, want_code, want_out, tmp_path, capsys):
    if table is not None:
        path = tmp_path / "input.json"
        path.write_text(table)
        argv = [*argv, "--file", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == want_code and "Traceback" not in err
    if want_code:
        assert out == "" and err.startswith("error: ")
    else:
        assert want_out in out


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--abelian", "2", "--k", "5000"],
        ["coeffs", "--abelian", "2", "--k", "100000"],
        ["coeffs", "--nonabelian-aut", "60", "--k", "10000000"],
        ["sur", "--abelian", "2", "--e", "100000000", "--k", "50000000"],
    ],
    ids=["coeffs-5000", "coeffs-100000", "coeffs-nonabelian", "sur"],
)
def test_unprintable_results_are_refused_before_computing(argv, capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 2.0
    assert code == 3 and out == "" and err.startswith("error: the exact result is too long")


@pytest.mark.parametrize("command", ["localize", "reconstruct"])
@pytest.mark.parametrize("exponent", [20000, 100_000_000])
def test_group_orders_past_the_digit_limit_are_refused(command, exponent, tmp_path, capsys):
    # judged from the exponents against MAX_ORDER_BITS, whatever the digit
    # limit: 3**100000000 is never formed, and the message names the group
    # as a power
    path = tmp_path / "table.json"
    path.write_text('{"primes":[3],"moments":[{"group":{},"value":"1"}]}')
    depth = "--kbound" if command == "localize" else "--rmax"
    started = time.perf_counter()
    code, out, err = run(
        capsys, command, "--file", str(path), "--group", '{"3":[%d]}' % exponent, depth, "1"
    )
    assert time.perf_counter() - started < 2.0
    assert code == 1 and out == ""
    assert err == (
        f"error: group Z/3^{exponent} is too large: its order has up to {2 * exponent} bits, "
        f"past the bound of {MAX_ORDER_BITS}\n"
    )


def test_group_at_the_order_bound_is_read_and_its_middles_refused(tmp_path, capsys):
    # Z/3^1024 takes exactly MAX_ORDER_BITS (ceil(log2 3) = 2 bits per
    # exponent), so a table record and --group read it; its k = 1 middles
    # take 2 more bits and are refused, and so is a record of Z/3^1025
    a = MAX_ORDER_BITS // 2
    table = '{"primes":[3],"moments":[{"group":{"3":[%d]},"value":"1"}]}'
    path = tmp_path / "table.json"
    cases = [
        (a, "0", 0, ""),
        (a, "1", 1, f"error: group Z/3^{a} x Z/3 is too large: its order has up to "
                    f"{MAX_ORDER_BITS + 2} bits, past the bound of {MAX_ORDER_BITS}\n"),
        (a + 1, "0", 1, f"error: group Z/3^{a + 1} is too large: its order has up to "
                        f"{MAX_ORDER_BITS + 2} bits, past the bound of {MAX_ORDER_BITS}\n"),
    ]
    for record, rmax, want_code, want_err in cases:
        path.write_text(table % record)
        started = time.perf_counter()
        code, out, err = run(
            capsys, "reconstruct", "--file", str(path), "--group", '{"3":[%d]}' % a, "--rmax", rmax
        )
        assert time.perf_counter() - started < 2.0
        assert (code, err) == (want_code, want_err)
        if code == 0:
            M = FinAbGroup.from_dict({3: [a]})
            assert json.loads(out)["upper"] == f"1/{2 * 3 ** (a - 1)}" == f"1/{aut_count(M)}"


def test_group_with_a_huge_exponent_is_refused_briefly(tmp_path, capsys):
    # with the digit limit off json.loads reads a 100,000-digit exponent; the
    # refusal names it, and the order's bit count, without converting either
    path = tmp_path / "table.json"
    path.write_text('{"primes":[3],"moments":[{"group":{},"value":"1"}]}')
    group = '{"3":[%s]}' % ("9" * 100_000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        started = time.perf_counter()
        code, out, err = run(capsys, "reconstruct", "--file", str(path), "--group", group,
                             "--rmax", "1")
        took = time.perf_counter() - started
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "") and took < 1.0
    assert err.startswith("error: group Z/3^") and len(err) <= 400, err[:500]


@pytest.mark.parametrize("limit", [640, 4300])
def test_a_value_past_the_digit_limit_is_read_as_parse_rational_reads_it(limit, tmp_path,
                                                                         capsys):
    # 1,000 plain digits in a record no localization reads: past a digit limit
    # of 640, the value is refused in parse_rational's words, and read at 4300
    value = "1" * 1000
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"primes": [3], "moments": [
        {"group": {}, "value": "1"}, {"group": {"3": [1]}, "value": "1"},
        {"group": {"3": [2]}, "value": value}]}))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run(capsys, "reconstruct", "--file", str(path), "--group", "{}",
                             "--rmax", "1")
        if limit < len(value):
            with pytest.raises(InputError) as info:
                parse_rational(value)
    finally:
        sys.set_int_max_str_digits(old)
    if limit < len(value):
        assert (code, out, err) == (1, "", f"error: {info.value}\n")
    else:
        assert (code, out, err) == (0, '{"lower": "1/2", "upper": "1"}\n', "")


_BOUNDED_RUNS_SCRIPT = """
import contextlib, io, json, sys, time
from momentforge.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, time.perf_counter() - started, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_bounds_hold_with_the_digit_limit_off(tmp_path):
    # the group bound and MAX_DIGITS are constants, so whatever Python's
    # int-string digit limit (0 switches it off, 640 is its least) every input
    # below fails fast, and a refusal quotes a bounded prefix of the value;
    # one interpreter per limit times each call, start-up left out
    run = "1" * 10**6
    unread = '{"primes":[3],"moments":[{"group":{},"value":"1"},{"group":{"3":[2]},"value":"%s"}]}'
    tables = [
        ('{"3":[100000000]}', unread % "1", "error: group Z/3^100000000 is too large"),
        ("{}", unread % "1e100000000",
         "error: cannot parse rational '1e100000000': exponent past 4300 in magnitude\n"),
        ("{}", unread % run, "error: cannot parse rational '" + "1" * 199
         + "... (1000002 characters): a run of 1000000 digits is past 4300\n"),
        ("{}", unread % ("1/" + run), "error: cannot parse rational '1/" + "1" * 197
         + "... (1000004 characters): a run of 1000000 digits is past 4300\n"),
        ("{}", unread % ("x" * 10**6), "error: cannot parse rational 'xxx"),
        ("{}", '{"primes":[3],"moments":[{"group":{},"value":"1"},{"group":{"%s":[1]},"value":"1"}]}'
         % run, "error: bad group JSON: a 1000000-digit prime key is too large\n"),
    ]
    cases = []  # (argv, exit code, start of stderr)
    for i, (group, table, message) in enumerate(tables):
        path = tmp_path / f"table{i}.json"
        path.write_text(table)
        cases.append((["reconstruct", "--file", str(path), "--group", group, "--rmax", "1"],
                      1, message))
    # results too long to print, refused before they are computed
    for argv in (["coeffs", "--abelian", "2", "--k", "2000"],
                 ["coeffs", "--abelian", "2", "--k", "20000"],
                 ["sur", "--abelian", "2", "--e", "30000", "--k", "30000"]):
        cases.append((argv, 3, "error: the exact result is too long to print: over "))
    src = Path(momentforge.__file__).resolve().parent.parent
    for limit in ("0", "640", "4300"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": limit}
        proc = subprocess.run(
            [sys.executable, "-c", _BOUNDED_RUNS_SCRIPT, json.dumps([c[0] for c in cases])],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[:2000]
        for (code, took, out, err), (_, want, message) in zip(json.loads(proc.stdout), cases):
            assert (code, out) == (want, "") and took < 1.0, (limit, message, code, took)
            assert err.startswith(message) and len(err.encode()) < 1024, (limit, err[:300])


@pytest.mark.parametrize(
    "argv, table",
    [
        (["reconstruct", "--group", "{}", "--rmax", "0"],
         {"primes": ["x" * 10**6], "moments": []}),
        (["invert", "--rmax", "0"],
         {"basis": [{"kind": "abelian", "h": 2}], "bound": [0],
          "moments": [{"k": ["x" * 10**6], "value": "1"}]}),
    ],
    ids=["table-primes", "moment-index"],
)
def test_refusals_quote_a_bounded_prefix_of_the_input(argv, table, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert " characters)" in err and len(err.encode()) < 1024


def test_printable_results_still_print(capsys):
    # the refusal uses a lower bound on the digits, so c_150 (3,411 characters) prints
    code, out, _ = run(capsys, "coeffs", "--abelian", "2", "--k", "150")
    assert code == 0 and Fraction(out.strip()) == inversion_coefficient(SimpleType.abelian(2), 150)


def test_decimal_of_out_of_range_values():
    from momentforge.cli import _decimal

    assert _decimal(Fraction(10**400, 3)) == float("inf")
    assert _decimal(Fraction(-(10**400), 3)) == float("-inf")
    assert _decimal(Fraction(1, 3)) == 1 / 3


def test_deep_report_consumes_the_coefficient_sequence(capsys):
    # each stage takes c_0..c_r from one running recurrence, so depth 600
    # costs 600 products per bracket, not 600 q-Pochhammer products
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "sample", "--report", "--p", "2", "--cap", "3", "--n", "8", "--count", "100",
        "--seed", "1", "--ts", "50,100", "--target", "{}", "--target", '{"2":[2]}',
        "--rmax", "600",
    )
    assert time.perf_counter() - start < 6
    assert code == 0 and len(_report_brackets_contain_frequencies(out)) == 4


def test_report_stops_the_inversion_past_the_empirical_moments(capsys):
    # the empirical moments vanish past rank 8, so each inversion stops two
    # terms later instead of running the recurrence to depth 2047
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "sample", "--report", "--p", "2", "--cap", "3", "--n", "8", "--count", "100",
        "--seed", "1", "--ts", "100", "--target", "{}", "--rmax", "2047",
    )
    assert time.perf_counter() - start < 5
    assert code == 0
    assert [rec["bracket"] for rec in _report_brackets_contain_frequencies(out)] == [
        {"lower": "1/4", "upper": "1/4"}
    ]


def test_pretty_scalar_and_bracket_decimals(half_table_path, capsys):
    code, out, _ = run(capsys, "coeffs", "--abelian", "2", "--k", "3", "--pretty")
    assert code == 0 and out == f"-1/21 ~= {float(Fraction(-1, 21)):.10g}\n"
    code, out, _ = run(capsys, "coeffs", "--abelian", "2", "--k", "0", "--pretty")
    assert code == 0 and out == "1\n"  # integers print without a decimal
    code, out, _ = run(
        capsys, "reconstruct", "--file", str(half_table_path), "--group", "{}", "--rmax", "2",
        "--pretty",
    )
    obj = json.loads(out)
    assert code == 0 and out.startswith("{\n  ")
    for end in ("lower", "upper"):
        assert obj[f"{end}_decimal"] == repr(float(Fraction(obj[end])))


def test_single_depth_applies_to_every_type(tmp_path, capsys):
    table = ModuleMomentTable([2, 3], {g: 1 for g in enumerate_groups([2, 3], 6 * 4 * 9)})
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(table.to_json_obj()))
    outs = []
    for rmax in ("2", "2,2"):
        code, out, _ = run(
            capsys, "reconstruct", "--file", str(path), "--group", '{"2":[1]}', "--rmax", rmax
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, _ = run(capsys, "localize", "--file", str(path), "--group", "{}", "--kbound", "1")
    assert code == 0 and json.loads(out)["bound"] == [1, 1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reconstruct", "--group", "{}", "--rmax", "1", "--file", "{bad_file}"], "is not valid JSON"),
        (["reconstruct", "--group", "{2:[1]}", "--rmax", "1", "--file", "{table}"], "group must be JSON"),
        (["sur", "--basis", "[{bad", "--e", "1", "--k", "1"], "bad JSON"),
        (["invert", "--rmax", "1", "--order", "0,0", "--file", "{moments}"], "not a permutation"),
        (["invert", "--rmax", "1", "--file", "{binary}"], ""),  # not text in every locale
        # a type flag beside --basis was ignored: this printed 8, the count for h = 3
        (["sur", "--abelian", "4", "--e", "2", "--k", "1", "--basis", '[{"kind":"abelian","h":3}]'],
         "pass --basis or one type flag, not both"),
    ],
    ids=["bad-file", "bad-group", "bad-basis", "order-0-0", "binary-file", "basis-and-flag"],
)
def test_bad_json_and_order_exit_1(argv, message, half_table_path, tmp_path, capsys):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text('{"primes": [2],')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    moments = tmp_path / "moments.json"
    basis = [{"kind": "abelian", "h": 2}, {"kind": "abelian", "h": 3}]
    values = [{"k": [i, j], "value": "1"} for i in range(2) for j in range(2)]
    moments.write_text(json.dumps({"basis": basis, "bound": [1, 1], "moments": values}))
    paths = {"{bad_file}": bad_file, "{table}": half_table_path, "{moments}": moments,
             "{binary}": binary}
    code, out, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 1 and out == "" and err.startswith("error: ") and message in err


# one faulty record, appended after every group of a {2,3} table: reconstruct
# at 0 reads none of them, yet each is refused when the table is loaded
_FAULTS = {
    "non-prime-key": ([{"4": [1]}], "1", "4 is not prime"),
    "padded-key": ([{"2": [1], "02": [1]}], "1",
                   "bad group JSON {'2': [1], '02': [1]}: prime 2 appears twice"),
    "float-exponent": ([{"2": [1.0]}], "1",
                       "bad group JSON {'2': [1.0]}: exponents must be a list of integers"),
    "true-exponent": ([{"2": [True]}], "1",
                      "bad group JSON {'2': [True]}: exponents must be a list of integers"),
    "zero-exponent": ([{"2": [0]}], "1", "partition for prime 2 must be weakly decreasing >= 1"),
    "off-table-prime": ([{"5": [1]}], "1", "group Z/5 is not supported on primes (2, 3)"),
    "reordered-duplicate": ([{"2": [1, 2]}], "1",
                            "duplicate group Z/4 x Z/2 in module moment-table JSON"),
    # a duplicate is named before its value is parsed
    "duplicate-not-a-number": ([{"2": [1, 2]}], "x",
                               "duplicate group Z/4 x Z/2 in module moment-table JSON"),
    "duplicate-negative": ([{"2": [1, 2]}], "-1",
                           "duplicate group Z/4 x Z/2 in module moment-table JSON"),
    "negative": ([{"3": [9]}], "-1", "moment at Z/19683 is negative"),
    "not-a-number": ([{"3": [9]}], "x", "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    "zero-denominator": ([{"3": [9]}], "1/0", "cannot parse rational '1/0': Fraction(1, 0)"),
    "5000-digits": ([{"3": [9]}], "1" * 5000,
                    "cannot parse rational '" + "1" * 199 + "... (5002 characters): "
                    "a run of 5000 digits is past 4300\n"),
}


@pytest.fixture(scope="module")
def table_23_records():
    table = ModuleMomentTable([2, 3], {g: 1 for g in enumerate_groups([2, 3], 6 * 2**4 * 3**3)})
    return table.to_json_obj()


@pytest.mark.parametrize("fault", _FAULTS, ids=list(_FAULTS))
def test_unread_records_are_still_validated(fault, table_23_records, tmp_path, capsys):
    groups, value, message = _FAULTS[fault]
    path = tmp_path / "table.json"
    argv = ("reconstruct", "--file", str(path), "--group", "{}", "--rmax", "1")
    path.write_text(json.dumps(table_23_records))
    assert run(capsys, *argv)[0] == 0
    extra = [{"group": g, "value": value} for g in groups]
    path.write_text(json.dumps({**table_23_records,
                                "moments": table_23_records["moments"] + extra}))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, table",
    [
        (["reconstruct", "--group", "{}", "--rmax", "1"],
         '{"primes":[2],"moments":[{"group":{},"value":"1"},{"group":{"2":[1]},"value":"1"},'
         '{"group":{"2":[1,1]},"value":"%s"}]}'),
        (["localize", "--group", "{}", "--kbound", "0"],
         '{"primes":[2],"moments":[{"group":{},"value":"1"},{"group":{"2":[5]},"value":"%s"}]}'),
        (["invert", "--rmax", "0"], _ONE_TYPE % (1, '{"k":[0],"value":"1"},{"k":[1],"value":"%s"}')),
    ],
    ids=["reconstruct", "localize", "invert"],
)
@pytest.mark.parametrize("value", ["1e10000000", "1E-10000000", "-2.5e+4301", "1e4_301"])
def test_exponents_past_the_digit_limit_are_refused_at_load(argv, table, value, tmp_path, capsys):
    # Fraction() would build 10**exponent first: 16 s for an unread "1e10000000"
    path = tmp_path / "table.json"
    path.write_text(table % value)
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse rational {value!r}: exponent past 4300 in magnitude\n"


def test_exponents_at_the_digit_limit_still_parse(capsys, tmp_path):
    from momentforge.rationals import parse_rational

    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("-1e-4300") == Fraction(-1, 10**4300)
    with pytest.raises(InputError, match="exponent past 4300"):
        parse_rational("1e-4301")
    # a read value of 10**5000 used to exit 3 when printed; it now exits 1 at load
    path = tmp_path / "table.json"
    path.write_text('{"primes":[2],"moments":[{"group":{},"value":"1e5000"}]}')
    code, _, err = run(capsys, "reconstruct", "--file", str(path), "--group", "{}", "--rmax", "0")
    assert code == 1 and "exponent past 4300" in err


def _cli(argv, env=None, timeout=120, **kwargs) -> subprocess.CompletedProcess:
    """`python -m momentforge.cli` on argv in a fresh interpreter."""
    src = Path(momentforge.__file__).resolve().parent.parent
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "momentforge.cli", *argv],
                          env=env, timeout=timeout, **kwargs)


def test_an_infeasible_table_is_refused_at_its_first_crossing(tmp_path):
    # the bounds cross by r = 20; summing on to r = 400 took over 3 s
    path = tmp_path / "table.json"
    path.write_text(json.dumps(infeasible_table()))
    proc = _cli(["invert", "--file", str(path), "--rmax", "400"], capture_output=True, text=True,
                timeout=1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
        "error: bracket lower bound exceeds upper bound; "
        "the inputs are not moments of any nonnegative measure\n"))


def test_a_huge_automorphism_count_is_refused_in_bounded_time(tmp_path):
    # |Aut((Z/2)**2000)| has some 4 million bits: its 2000 row factors took 8 s
    # multiplied one at a time, and take well under a second in pairs (2 vCPUs)
    group = json.dumps({"2": [1] * 2000})
    path = tmp_path / "one.json"
    path.write_text('{"primes": [2], "moments": [{"group": %s, "value": "1"}]}' % group)
    argv = ["reconstruct", "--file", str(path), "--group", group, "--rmax", "0"]
    proc = _cli(argv, capture_output=True, text=True, timeout=4)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: the exact result is too long to print: over ")


@pytest.mark.parametrize("argv, want", [
    (["--abelian", "3", "--e", "30000000", "--k", "0"], "1"),
    (["--basis", '[{"kind":"abelian","h":3},{"kind":"abelian","h":3}]',
      "--e", "30000000,1", "--k", "1,2"], "0"),
], ids=["k=0", "k>e-elsewhere"])
def test_sur_forms_no_power_it_does_not_need(argv, want):
    # 3**30000000 took 14-23 s to form, for a count that is 1 or 0 without it
    proc = _cli(["sur", *argv], capture_output=True, text=True, timeout=4)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")


def test_exit_path_matches_in_process_main(half_table_path, monkeypatch, capsys):
    # a finished command ends without interpreter teardown; what it printed and
    # its exit code are those of main() in-process, for every exit code
    cases = [
        (0, ["reconstruct", "--file", str(half_table_path), "--group", '{"2":[1]}', "--rmax", "3"],
         {}),
        (0, ["sample", "--p", "2", "--cap", "2", "--n", "3", "--seed", "1", "--count", "6"], {}),
        (1, ["coeffs", "--abelian", "6", "--k", "1"], {}),
        (1, ["reconstruct", "--file", str(half_table_path), "--group", "[1]", "--rmax", "3"], {}),
        (2, ["verify", "--seed", "3", "--quick"], {"MOMENTFORGE_BUDGET": "1000"}),
        (3, ["coeffs", "--abelian", "2", "--k", "5000"], {}),
    ]
    timings = re.compile(r" \(\d+\.\d\ds\)$", re.M)  # a verify check's own wall time
    for want, argv, extra in cases:
        with monkeypatch.context() as env:
            for name, value in extra.items():
                env.setenv(name, value)
            code, out, err = run(capsys, *argv)
            proc = _cli(argv, capture_output=True)
        assert proc.returncode == code == want, proc.stderr[-2000:]
        assert timings.sub("", proc.stdout.decode()) == timings.sub("", out)
        assert proc.stderr.decode() == err


def test_broken_pipe_on_buffered_stdout_exits_120():
    # the failed flush falls back to the interpreter's exit, which reports it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = _cli(["coeffs", "--abelian", "2", "--k", "3"], env=env, stdout=write_end,
                    stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stderr.startswith(b"Exception ignored") and b"BrokenPipeError" in proc.stderr


def test_installed_script_takes_the_same_exit_path():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(momentforge.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"momentforge": "momentforge.cli:run"}


def test_help_exits_0():
    proc = _cli(["--help"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: momentforge")


def test_verify_leaves_no_worker_behind():
    # every process the command forks inherits `held`; once all of them have
    # exited the pipe reads EOF, so a worker left running would block the read
    read_end, held = os.pipe()
    try:
        proc = _cli(["verify", "--seed", "3", "--quick"], capture_output=True, text=True,
                    pass_fds=(held,))
    finally:
        os.close(held)
    try:
        ready, _, _ = select.select([read_end], [], [], 10)
        assert ready and os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
    assert proc.returncode == 0, proc.stderr
