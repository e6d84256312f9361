"""The benchmark's own checks: traced counts repeat exactly for one seed,
every wrapped name is found, the layers predicted idle on a workload are
idle there, and no op fails or is newly refused.

Run from the repository root: python3 -m pytest -q perfbench/test_bench.py
(under two minutes on two cores).
"""

from __future__ import annotations

import shutil
import sys

import pytest

import run
import trace_child
import workloads

SEED = 7

# metric -> workloads where it must read zero
ZERO_ON = {
    **{m: ("cl-p3-deep", "cl-2x3-wide", "verify-quick")
       for m in ("sampler.draws", "sampler.cokernel_partition.s",
                 "sampler.sample_cokernel.self_s")},
    **{m: ("cl-p3-deep", "cl-2x3-wide")
       for m in ("finab.sur_bruteforce.calls", "finab.sur_bruteforce.self_s",
                 "finab.aut_bruteforce.self_s", "finab.hom_count_bruteforce.self_s",
                 "finab.kernel_pair_count.self_s", "nonab_oracle.sur_a5_bruteforce.self_s")},
}
REFUSED_AT_SEED = {"cl-p3-deep": {"Z/9", "Z/3xZ/3"}}


def traced_round(name: str):
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        work = workloads.build(name, SEED, run.WORKDIR, workloads.load_expected())
        traces: list[dict] = []
        results = run.Runner().run_round(work, traces)
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return results, run.merge_traces(traces)


@pytest.fixture(scope="module", params=workloads.NAMES)
def two_rounds(request):
    return request.param, traced_round(request.param), traced_round(request.param)


def test_counts_repeat(two_rounds):
    _, (_, first), (_, second) = two_rounds
    counts = [m for m, (unit, _, _) in run.SPAN_METRICS.items() if unit == "count"]
    assert counts
    assert ({m: run.layer_metrics(first)[0][m] for m in counts}
            == {m: run.layer_metrics(second)[0][m] for m in counts})


def test_every_layer_present(two_rounds):
    _, (_, trace), _ = two_rounds
    _, status = run.layer_metrics(trace)
    assert set(status) == set(run.SPAN_METRICS)
    assert all(s == "present" for s in status.values()), status


def test_zero_predictions(two_rounds):
    name, (_, trace), _ = two_rounds
    values, _ = run.layer_metrics(trace)
    nonzero = [m for m, names in ZERO_ON.items() if name in names and values[m] != 0]
    assert not nonzero


def test_no_new_refusals(two_rounds):
    """Nothing fails, and only the ops refused at the seed commit may be refused."""
    name, (results, _), _ = two_rounds
    refused = {r.label for r in results if r.outcome == "refused"}
    assert all(r.outcome != "failed" for r in results)
    assert refused <= REFUSED_AT_SEED.get(name, set())


def test_missing_target_is_absent():
    sys.path.insert(0, str(run.ROOT / "src"))
    import momentforge.finab

    tracer = trace_child.Tracer()
    modules = {"momentforge.finab": momentforge.finab}
    assert not tracer._install_one("x", modules, "momentforge.finab", "no_such_fn", None)
    assert not tracer._install_one("x", modules, "momentforge.finab", "FinAbGroup.nope", None)
    trace = {"status": {"finab.sur_count": "absent"}, "spans": {}, "counters": {}}
    values, status = run.layer_metrics(trace)
    assert status["finab.sur_count.calls"] == "absent"
    assert values["finab.sur_count.calls"] == 0
