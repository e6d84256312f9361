"""Random argv for `coeffs` and `sur` through main(): every call ends in a
documented exit code within 2 s, with no exception out of main(), no
traceback and at most one short `error:` line. Integers run from small ones
to about 10**600, lists come malformed and negative, and `sur` gets both type
flags or a `--basis` JSON. Help flags are left out: argparse answers them with
SystemExit(0), which run() lets through by design."""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from momentforge.cli import main

_NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.integers(-10**6, 10**6),
    st.integers(0, 10**600),
    st.sampled_from([4, 8, 9, 27, 60, 120, 2**61 - 1, 3**50, 2**81, 2**81 + 1]),
)
_WORDS = st.sampled_from([
    "", "x", "-", ",", "1,", ",1", "1,,2", "1.5", "1e3", " 3", "1_0", "0x10", "٣",
    "-1,2", "9" * 4301, "1" * 5000,
])
_VALUES = _NUMBERS.map(str) | _WORDS
_LISTS = st.lists(_NUMBERS, max_size=4).map(lambda xs: ",".join(map(str, xs))) | _WORDS
_ODD = st.none() | st.booleans() | st.floats() | st.sampled_from(["abelian", "nonabelian", "2"])
_TYPES = st.one_of(
    st.builds(lambda h: {"kind": "abelian", "h": h}, _NUMBERS),
    st.builds(lambda a: {"kind": "nonabelian", "aut": a}, _NUMBERS),
    st.dictionaries(st.sampled_from(["kind", "h", "aut"]), _NUMBERS | _ODD, max_size=3),
)
_BASES = (st.lists(_TYPES, max_size=4) | _ODD).map(json.dumps) | st.sampled_from(
    ["", "[", "[{bad", "{}", "[[]]", "[1e999]", '[{"kind":"abelian","h":2}]x'])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["coeffs", "sur"]))
    flags = [["--abelian"], ["--nonabelian-aut"], ["--abelian", "--nonabelian-aut"], []]
    if command == "sur":
        flags += [["--basis"], ["--basis"], ["--basis", "--abelian"]]
    pairs = [(flag, draw(_BASES if flag == "--basis" else _VALUES))
             for flag in draw(st.sampled_from(flags))]
    if command == "coeffs":
        pairs.append(("--k", draw(_VALUES)))
    else:
        pairs += [("--e", draw(_LISTS)), ("--k", draw(_LISTS))]
    if draw(st.booleans()):
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))  # a required flag may go missing
    pairs = draw(st.permutations(pairs))
    argv = [command, *(token for pair in pairs for token in pair)]
    return argv + draw(st.sampled_from([[], [], ["--pretty"]]))


@given(_argvs())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    took = time.perf_counter() - started
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert took < 2.0, (argv, took)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err[:500]
    assert len(err.encode()) < 1024, err[:500]
    assert (out.getvalue() == "") == (code != 0), (argv, code)
