"""Random argv for `coeffs`, `sur` and `sample` through main(): every call
ends in a documented exit code within 2 s, with no exception out of main(),
no traceback and at most one short `error:` line. Integers run from small
ones to about 10**600, lists come malformed and negative, and `sur` gets both
type flags or a `--basis` JSON. `sample` values sit at the edges its config
checks: p not prime or with p**(2*cap) at 2**62, n*(n+u) at
MAX_MATRIX_ENTRIES, negative counts and seeds at 2**64. Help flags are left
out: argparse answers them with SystemExit(0), which run() lets through by
design."""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from momentforge.cli import main
from momentforge.sampler import MAX_MATRIX_ENTRIES

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


def _exits_cleanly(argv, codes):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    took = time.perf_counter() - started
    err = err.getvalue()
    assert code in codes, (argv, code)
    assert took < 2.0, (argv, took)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err[:500]
    assert len(err.encode()) < 1024, err[:500]
    assert (out.getvalue() == "") == (code != 0), (argv, code)


@given(_argvs())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_exits_cleanly(argv):
    _exits_cleanly(argv, (0, 1, 2, 3))


# A sample argv starts from a valid config, at times on an edge that passes
# (p**(2*cap) just below 2**62, n*(n+u) at the entry cap with no draw, a seed
# of 2**64 - 1), and takes at most one flaw: a config value just past an
# edge, a malformed word, a missing flag or a bad target. 2**31 - 1 is the
# largest prime with p**2 < 2**62 and 2147483659 the next; p = 2 passes at
# cap 30 and fails at 31, p = 3 at 19 and 20.
_FIELDS = [(2, 1), (2, 3), (3, 2), (5, 1), (127, 1), (2, 7), (2, 30), (3, 19), (2**31 - 1, 1)]
_FLAWS = {
    "p": [-2, 0, 1, 4, 9, 2**31, 2147483659],
    "cap": [-1, 0, 20, 31, 10**9],
    "n": [-1, -2],
    "u": [-1],
    "count": [-1, -2],
    "seed": [-1, 2**64, 2**70],
}
# n x (n+u) at the entry cap and just past it; drawing one matrix at the cap
# takes over a second, so these sizes come with a count of 0
_EDGE_SIZES = [(1024, 0), (1024, 1), (1, MAX_MATRIX_ENTRIES - 1), (1, MAX_MATRIX_ENTRIES),
               (512, 1536), (512, 1537), (0, 2**40), (2**20, 0)]


@st.composite
def _sample_argvs(draw):
    p, cap = draw(st.sampled_from(_FIELDS))
    config = {"--p": p, "--cap": cap, "--n": draw(st.integers(0, 6)), "--u": draw(st.integers(0, 3)),
              "--count": draw(st.integers(0, 60)),
              "--seed": draw(st.integers(0, 2**32) | st.just(2**64 - 1))}
    if draw(st.integers(0, 4)) == 0:
        config["--n"], config["--u"] = draw(st.sampled_from(_EDGE_SIZES))
        config["--count"] = 0
    prefixes = st.lists(st.integers(1, max(1, config["--count"])), min_size=1, max_size=3, unique=True)
    ts = draw(st.one_of(prefixes.map(sorted), prefixes.map(sorted), st.lists(st.integers(-1, 70))))
    targets = draw(st.lists(st.sampled_from(
        ["{}", f'{{"{p}": [1]}}', f'{{"{p}": [1, 1]}}', f'{{"{p}": [2]}}']), min_size=1, max_size=3))
    flaw = draw(st.sampled_from([None, None, None, "word", "missing", "target", *_FLAWS]))
    if flaw in _FLAWS:
        config[f"--{flaw}"] = draw(st.sampled_from(_FLAWS[flaw]))
    elif flaw == "target":
        targets[0] = draw(st.sampled_from(['{"2": [5]}', '{"4": [1]}', '{"2": []}', '{"2": 1}', "["]))
    pairs = [[flag, value] for flag, value in config.items()]
    report = draw(st.booleans())
    if report:
        pairs += [["--ts", ",".join(map(str, ts))], ["--rmax", draw(st.integers(-1, 4))]]
        pairs += [["--target", t] for t in targets]
    if flaw == "word":
        draw(st.sampled_from(pairs))[1] = draw(_WORDS)
    elif flaw == "missing":
        pairs.remove(draw(st.sampled_from(pairs)))
    pairs = draw(st.permutations(pairs + [["--report"]] * report))
    argv = ["sample", *(str(token) for pair in pairs for token in pair)]
    return argv + draw(st.sampled_from([[], [], ["--pretty"]]))


@given(_sample_argvs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_sample_argv_exits_cleanly(argv):
    _exits_cleanly(argv, (0, 1, 3))
