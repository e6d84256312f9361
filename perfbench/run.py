"""Benchmark of the `momentforge` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs ops one at a time; each op is a fresh
`python -m momentforge.cli ...` process timed from spawn to exit, so each
op pays for cold caches as a user does. A round is one pass over the
workload's ops, on inputs made from the seed and the round number, with
set-up probes between the ops. Rounds repeat until --seconds have passed
and the workload's minimum number of rounds is done. Each op's time is its
median over rounds, and set-up time is the median over all probes.

--trace 0 prints the end-to-end metrics. --trace 1 runs one plain round and
one round whose ops run under perfbench/trace_child.py, and prints the
per-layer metrics. The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"
BUDGET_ENV = "MOMENTFORGE_BUDGET"
DEADLINE_S = 150  # no op starts, and every op is killed, after this

# Each probe is a fresh interpreter that imports the package and, for table
# workloads, loads and validates the table; it reports its environment.
PROBE = """
import json, os, sys, platform
import momentforge.cli, numpy
if len(sys.argv) > 1:
    from momentforge.localize import ModuleMomentTable
    with open(sys.argv[1]) as fh:
        ModuleMomentTable.from_json_obj(json.load(fh))
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "package": momentforge.cli.__file__,
                  "budget_env_set": %r in os.environ}))
""" % BUDGET_ENV

def _frac(count: str):
    return lambda st, counters: counters.get(count, 0) / max(st["calls"], 1)


def _counter(name: str):
    return lambda st, counters: counters.get(name, 0)


def _bruteforce_frac(st, counters):
    return st["with_child"].get("finab.sur_bruteforce", 0) / max(st["calls"], 1)


# per-layer metric -> (unit, span names, value: a span field or a function
# of the span's totals and the counters); the metric is absent when any of
# its spans could not be installed
SPAN_METRICS = {
    "finab.extension_class_count.calls": ("count", ("finab.extension_class_count",), "calls"),
    "finab.extension_class_count.self_s": ("s", ("finab.extension_class_count",), "self_s"),
    "finab.extension_class_count.nonzero_frac": (
        "ratio", ("finab.extension_class_count",), _frac("finab.extension_class_count.nonzero")),
    "budget.candidates": ("count", ("budget.check_candidates",), _counter("budget.candidates")),
    "budget.refusals": (
        "count", ("budget.check_candidates", "budget.check_order"), _counter("budget.refusals")),
    "localize.localized_moments.self_s": ("s", ("localize.localized_moments",), "self_s"),
    "localize.middles": ("count", ("localize.candidate_middles",), _counter("localize.middles")),
    "localize.ModuleMomentTable.s": ("s", ("localize.ModuleMomentTable",), "s"),
    "inversion.multi_invert_zero.calls": ("count", ("inversion.multi_invert_zero",), "calls"),
    "inversion.multi_invert_zero.self_s": ("s", ("inversion.multi_invert_zero",), "self_s"),
    "qseries.inversion_coefficient.calls": ("count", ("qseries.inversion_coefficient",), "calls"),
    "qseries.inversion_coefficient.s": ("s", ("qseries.inversion_coefficient",), "s"),
    "sampler.draws": ("count", ("sampler.sample_cokernel",), "calls"),
    "sampler.cokernel_partition.s": ("s", ("sampler.cokernel_partition",), "s"),
    "sampler.sample_cokernel.self_s": ("s", ("sampler.sample_cokernel",), "self_s"),
    "sampler.empirical_moments.self_s": ("s", ("sampler.empirical_moments",), "self_s"),
    "sampler.support": ("count", ("sampler.empirical_moments",), _counter("sampler.support")),
    "finab.sur_count.calls": ("count", ("finab.sur_count",), "calls"),
    "finab.sur_count.self_s": ("s", ("finab.sur_count",), "self_s"),
    "finab.sur_count.bruteforce_frac": (
        "ratio", ("finab.sur_count", "finab.sur_bruteforce"), _bruteforce_frac),
    "surjcount.sur_single.calls": ("count", ("surjcount.sur_single",), "calls"),
    "finab.sur_bruteforce.calls": ("count", ("finab.sur_bruteforce",), "calls"),
    "finab.sur_bruteforce.self_s": ("s", ("finab.sur_bruteforce",), "self_s"),
    "finab.aut_bruteforce.self_s": ("s", ("finab.aut_bruteforce",), "self_s"),
    "finab.hom_count_bruteforce.self_s": ("s", ("finab.hom_count_bruteforce",), "self_s"),
    "finab.kernel_pair_count.self_s": ("s", ("finab.kernel_pair_count",), "self_s"),
    "nonab_oracle.sur_a5_bruteforce.self_s": (
        "s", ("nonab_oracle.sur_a5_bruteforce",), "self_s"),
}
EMPTY_SPAN = {"calls": 0, "s": 0.0, "self_s": 0.0, "with_child": {}}


def verify_metric(check: str) -> str:
    slug = "".join(c if c.isalnum() else "_" for c in check.lower())
    return f"verify.{slug}.s"


@dataclass
class OpResult:
    label: str
    outcome: str  # "answered", "refused" (clean exit 3) or "failed"
    wall_s: float
    maxrss_mb: float
    stdout: str
    draws: int


class Runner:
    def __init__(self):
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.out = WORKDIR / "stdout.txt"
        self.err = WORKDIR / "stderr.txt"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str, float]:
        """Run argv to its end; (wall s, exit code, stdout, stderr, max RSS MB)."""
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, self.out.read_text(), self.err.read_text(),
                usage.ru_maxrss / 1024)

    def run_op(self, op: workloads.Op, trace_out: Path | None = None) -> OpResult:
        if trace_out is None:
            argv = [sys.executable, "-m", "momentforge.cli", *op.args]
        else:
            argv = [sys.executable, str(TRACE_CHILD), str(trace_out), *op.args]
        wall, code, stdout, stderr, rss = self.spawn(argv)
        if "Traceback" in stderr:
            outcome = "failed"
        elif code == 0:
            outcome = "answered" if op.check(stdout) else "failed"
        elif code == 3 and stderr.startswith("error: "):
            outcome = "refused"
        else:
            outcome = "failed"
        return OpResult(op.label, outcome, wall, rss, stdout, op.draws)

    def run_round(
        self, work: workloads.Workload, traces: list | None = None, setup: list | None = None
    ) -> list[OpResult]:
        """One pass over the ops. With `setup`, the workload's set-up probes run
        before each op and their times are appended to it."""
        results = []
        for i, op in enumerate(work.ops):
            if self.remaining() <= 0:
                results.append(OpResult(op.label, "failed", 0.0, 0.0, "", op.draws))
                continue
            if setup is not None:
                setup.extend(self.probe(work.table)[0] for _ in range(work.probes[i]))
            trace_out = None if traces is None else WORKDIR / f"trace{i}.json"
            results.append(self.run_op(op, trace_out))
            if trace_out is not None and trace_out.exists():
                traces.append(json.loads(trace_out.read_text()))
        return results

    def probe(self, table: Path | None) -> tuple[float, dict]:
        argv = [sys.executable, "-c", PROBE] + ([str(table)] if table else [])
        wall, code, stdout, stderr, _ = self.spawn(argv)
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}:\n{stderr}")
        return wall, json.loads(stdout.splitlines()[-1])


def environment(seed: int, probe: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "seed": seed,
        "budget_env_unset_in_children": not probe["budget_env_set"],
    }


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-op trace records of one round."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    status: dict[str, str] = {}
    for tr in traces:
        for name, st in tr["status"].items():
            status[name] = "absent" if status.get(name) == "absent" else st
        for name, st in tr["spans"].items():
            acc = spans.setdefault(name, {**EMPTY_SPAN, "with_child": {}})
            for key in ("calls", "s", "self_s"):
                acc[key] += st[key]
            for child, n in st["with_child"].items():
                acc["with_child"][child] = acc["with_child"].get(child, 0) + n
        for name, n in tr["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return {"status": status, "spans": spans, "counters": counters}


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values from a merged trace, with each metric's status."""
    values: dict[str, float] = {}
    status: dict[str, str] = {}
    for metric, (_, spans, how) in SPAN_METRICS.items():
        present = all(trace["status"].get(span) == "present" for span in spans)
        status[metric] = "present" if present else "absent"
        st = trace["spans"].get(spans[0], EMPTY_SPAN)
        values[metric] = st[how] if isinstance(how, str) else how(st, trace["counters"])
    return values, status


def verify_times(results: list[OpResult]) -> dict[str, float]:
    """Check name -> seconds, from lines like `PASS name: detail (1.23s)`."""
    times = {}
    for res in results:
        for line in res.stdout.splitlines():
            head, sep, tail = line.rpartition(" (")
            if not sep or not tail.endswith("s)") or ": " not in head:
                continue
            name = head.split(" ", 1)[-1].split(": ", 1)[0]
            try:
                times[name] = float(tail[:-2])
            except ValueError:
                pass
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "momentforge" / "cli.py").is_file():
        print(f"error: no momentforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def run(args) -> int:
    runner = Runner()
    expected = workloads.load_expected()

    def build(round_no: int) -> workloads.Workload:
        return workloads.build(args.workload, args.seed, WORKDIR, expected, round_no)

    work = build(0)
    _, probe = runner.probe(work.table)  # also warms the file cache; not timed
    package = Path(probe["package"]).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: children import momentforge from {package}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(args.seed, probe)}))

    rounds: list[list[OpResult]] = []
    if args.trace:  # the same inputs plain, then traced
        traces: list[dict] = []
        rounds.append(runner.run_round(work))
        rounds.append(runner.run_round(work, traces))
    else:  # fresh inputs each round
        setup: list[float] = []
        began = time.perf_counter()
        while True:
            start = time.perf_counter()
            rounds.append(runner.run_round(work, setup=setup))
            took = time.perf_counter() - start
            done = len(rounds) >= work.min_rounds and time.perf_counter() - began >= args.seconds
            if done or runner.remaining() < 2 * took:
                break
            work = build(len(rounds))

    ops = [r for rnd in rounds for r in rnd]
    for r in ops:
        print(json.dumps({"op": r.label, "outcome": r.outcome, "wall_s": r.wall_s,
                          "max_rss_mb": r.maxrss_mb}))
    failed = sum(r.outcome == "failed" for r in ops)

    if args.trace:
        plain = rounds[0]
        values, status = layer_metrics(merge_traces(traces))
        metrics = {m: metric(values[m], SPAN_METRICS[m][0]) for m in SPAN_METRICS}
        times = verify_times(plain)
        for check in workloads.VERIFY_CHECK_NAMES:
            name = verify_metric(check)
            metrics[name] = metric(times.get(check, 0.0), "s")
            present = check in times or args.workload != "verify-quick"
            status[name] = "present" if present else "absent"
        walls = [sum(r.wall_s for r in rnd) for rnd in rounds]
        draws = sum(r.draws for r in plain)
        metrics["draws_per_s"] = metric(draws / walls[0] if draws else 0.0, "1/s")
        overhead = walls[1] / walls[0] - 1 if walls[0] else 0.0
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        metrics["trace.absent"] = metric(sum(s == "absent" for s in status.values()), "count")
        print(json.dumps({"trace_status": status}))
    else:
        def per_op(field: str) -> list[float]:
            """Each op's value of `field`, as its median over rounds."""
            return [statistics.median(getattr(rnd[i], field) for rnd in rounds)
                    for i in range(len(work.ops))]

        metrics = {
            "wall_s": metric(sum(per_op("wall_s")), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "answered_frac": metric(sum(r.outcome == "answered" for r in ops) / len(ops), "ratio"),
            "peak_rss_mb": metric(max(per_op("maxrss_mb")), "MB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
