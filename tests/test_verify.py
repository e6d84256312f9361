"""The verify suite runs its checks in forked workers; these tests hold it to
the in-process results, check order, clean failures and bounded time."""

import errno
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import momentforge
from momentforge import localize, verify
from momentforge.cli import main
from momentforge.errors import ConsistencyError
from momentforge.finab import enumerate_groups
from momentforge.verify import check_list, run_all

NAMES = [name for name, _ in check_list(0, quick=True)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def in_process(seed):
    return [(name, *fn()) for name, fn in check_list(seed, quick=True)]


def from_workers(seed):
    return [(r.name, r.passed, r.detail) for r in run_all(seed, quick=True)]


@pytest.mark.parametrize("seed", [3, 7])
def test_workers_match_the_checks_run_in_order(seed):
    assert from_workers(seed) == in_process(seed)


def test_dispatch_order_hands_out_every_check_once_the_extension_sum_first():
    assert sorted(verify.DISPATCH_ORDER) == list(range(len(NAMES)))
    assert NAMES[verify.DISPATCH_ORDER[0]] == "extension-sum identity"


def test_end_to_end_check_walks_each_target_once(monkeypatch):
    # one plan per target gives both the middles to tabulate and its bracket
    walked = []
    middles = localize.candidate_middles
    monkeypatch.setattr(localize, "candidate_middles",
                        lambda N, M: walked.append(N) or middles(N, M))
    assert verify.check_end_to_end(3)[0]
    mu = verify.synthetic_measure(random.Random(3), 72, 12)
    steps = math.prod(max(g.rank(p) for g in mu.support()) + 2 for p in (2, 3))
    assert len(walked) == len(enumerate_groups({2, 3}, 24)) * steps


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_results_come_in_check_order_whatever_the_dispatch_order(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(verify, "DISPATCH_ORDER", verify.DISPATCH_ORDER[::-1])
    assert from_workers(3) == in_process(3)


def test_one_usable_cpu_runs_one_worker_with_the_same_results(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", counted_fork)
    assert from_workers(3) == in_process(3)
    assert len(forks) == 1


def test_a_raising_check_fails_cleanly(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_q_identities", boom)
    code, out, err = run(capsys, "verify", "--seed", "3", "--quick")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == len(NAMES)
    assert lines[3].startswith("FAIL q-binomial identities: RuntimeError: boom (")
    assert all(line.startswith("PASS ") for i, line in enumerate(lines) if i != 3)
    assert "Traceback" not in err


def test_a_failed_fork_exits_2(monkeypatch, capsys):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run(capsys, "verify", "--seed", "3", "--quick")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot start a verify worker")


def _fork_failing_at(call, monkeypatch):
    """os.fork that fails on its `call`-th use, 1-based, and works otherwise."""
    calls = []
    fork = os.fork

    def flaky_fork():
        calls.append(None)
        if len(calls) == call:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", flaky_fork)


def test_a_failed_second_fork_leaves_no_worker_behind(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _fork_failing_at(2, monkeypatch)
    with pytest.raises(ConsistencyError, match="cannot start a verify worker"):
        run_all(3, quick=True)
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_replacement_fork_leaves_no_worker_behind(monkeypatch):
    # the worker that runs the q-binomial check dies; forking its replacement fails
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(verify, "check_q_identities", lambda: os._exit(9))
    _fork_failing_at(3, monkeypatch)
    with pytest.raises(ConsistencyError, match="cannot start a verify worker"):
        run_all(3, quick=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_DYING_CHECK = """
import os, sys
from momentforge import verify
from momentforge.cli import main
from momentforge.errors import ConsistencyError

if sys.argv[1] == "1":
    os.sched_getaffinity = lambda pid: {0}
euler = verify.check_euler_constant

def noisy_euler():
    print("noise from a worker", flush=True)
    return euler()

verify.check_q_identities = lambda: os._exit(9)
verify.check_euler_constant = noisy_euler
sys.exit(main(["verify", "--seed", "7", "--quick"]))
"""


_PEAKS = """
import contextlib, io, resource
from momentforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--quick", "--seed", "3"])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_no_worker_outgrows_the_parent():
    # a check that builds a large table shows as a worker peak above the
    # parent's, which is then what verify --quick's peak RSS reads. The
    # parent's peak is its VmHWM (kB, as ru_maxrss), not its own ru_maxrss:
    # a process started by vfork and exec counts its spawner's RSS there too
    src = Path(momentforge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _PEAKS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    code, parent, workers = map(int, proc.stdout.split())
    assert code == 0 and workers <= parent, (parent, workers)


@pytest.mark.parametrize("cpus", ["1", "all"])
def test_a_dying_worker_fails_its_check_and_the_rest_run(cpus):
    src = Path(momentforge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_CHECK, cpus],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == [
        ("FAIL " if name == "q-binomial identities" else "PASS ") + name for name in NAMES
    ]
    assert lines[3] == "FAIL q-binomial identities: worker exited with status 9 (0.00s)"
