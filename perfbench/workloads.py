"""The four benchmark workloads: their inputs, their ops and the check on
each op's output.

An op is one `momentforge` CLI call. Inputs come only from the workload
seed and the round number: the Cohen-Lenstra tables have fixed contents
and the seed shuffles the order of their records; `sample` and `verify`
get a `--seed` drawn from it, so each round of a run samples afresh.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

CL_FACTORS = 30  # factors of the truncated Cohen-Lenstra product
CL_TOL = Fraction(1, 10**9)
CL_MAX_WIDTH = Fraction(1, 10**4)
SAMPLE_P, SAMPLE_CAP, SAMPLE_N = 2, 3, 8
SAMPLE_ARGS = ("--p", str(SAMPLE_P), "--cap", str(SAMPLE_CAP), "--n", str(SAMPLE_N))
SAMPLE_DRAWS = 4_000  # draws of the plain `sample` op
# --ts prefixes of the `sample --report` op. Its surjection counts cost from
# milliseconds to seconds, and its memory from 36 to 170 MB, depending on
# which rare cokernels were drawn; a short report keeps that tail out of
# most rounds, so the median round measures the sampler.
REPORT_TS = (50, 100)
REPORT_TARGETS = ({}, {"2": [1]}, {"2": [2]})
VERIFY_CHECK_NAMES = (
    "abelian formula vs matrix oracle",
    "product splitting vs brute force",
    "nonabelian formula vs A5 oracle",
    "q-binomial identities",
    "bracketing soundness",
    "Euler constant bracket",
    "hom/aut enumeration agreement",
    "smart surjection counts",
    "extension-sum identity",
    "end-to-end exact reconstruction",
)


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]  # CLI arguments after `momentforge`
    check: Callable[[str], bool]  # stdout of an op that exited 0 -> correct?
    draws: int = 0  # cokernel draws the op makes


@dataclass(frozen=True)
class Workload:
    table: Path | None  # table file the set-up probe loads, if any
    ops: tuple[Op, ...]
    probes: tuple[int, ...]  # set-up probes to run before each op of a round
    min_rounds: int  # rounds an untraced run makes even past --seconds


@dataclass(frozen=True)
class _ClSpec:
    primes: tuple[int, ...]
    order_bound: int
    rmax: str
    targets: tuple[tuple[str, dict, int], ...]  # (label, group JSON, |Aut|)
    probes: tuple[int, ...]  # set-up probes before each target's op


CL_SPECS = {
    "cl-p3-deep": _ClSpec(
        primes=(3,),
        order_bound=3**14,
        rmax="12",
        targets=(
            ("0", {}, 1),
            ("Z/3", {"3": [1]}, 2),
            ("Z/9", {"3": [2]}, 6),
            ("Z/3xZ/3", {"3": [1, 1]}, 48),
        ),
        probes=(1, 1, 1, 1),
    ),
    "cl-2x3-wide": _ClSpec(
        primes=(2, 3),
        order_bound=6 * 2**8 * 3**6,
        rmax="8,6",
        targets=(
            ("0", {}, 1),
            ("Z/2", {"2": [1]}, 1),
            ("Z/3", {"3": [1]}, 2),
            ("Z/6", {"2": [1], "3": [1]}, 2),
        ),
        probes=(1, 0, 1, 0),  # each probe loads the 1 MB table, about 1 s
    ),
}

NAMES = ("cl-p3-deep", "cl-2x3-wide", "sample-report", "verify-quick")


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def groups_up_to(primes: tuple[int, ...], bound: int) -> list[dict]:
    """Every abelian group on `primes` of order <= bound, as group JSON."""
    out: list[tuple[int, dict]] = [(1, {})]
    for p in primes:
        nxt = []
        for order, g in out:
            e = 0
            while order * p**e <= bound:
                for lam in _partitions(e, e):
                    nxt.append((order * p**e, {**g, str(p): list(lam)} if lam else g))
                e += 1
        out = nxt
    return [g for _, g in out]


def cohen_lenstra_mass(primes: tuple[int, ...], aut: int) -> Fraction:
    """prod_p prod_{k<=30} (1 - p**-k) / |Aut M|."""
    out = Fraction(1, aut)
    for p in primes:
        for k in range(1, CL_FACTORS + 1):
            out *= 1 - Fraction(1, p**k)
    return out


def _cl_check(primes: tuple[int, ...], aut: int, expected: str | None):
    mass = cohen_lenstra_mass(primes, aut)

    def check(stdout: str) -> bool:
        if expected is not None and stdout != expected:
            return False
        try:
            obj = json.loads(stdout)
            lo, hi = Fraction(obj["lower"]), Fraction(obj["upper"])
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return False
        return lo - CL_TOL <= mass <= hi + CL_TOL and hi - lo < CL_MAX_WIDTH

    return check


def p_rank_chances(p: int, n: int) -> list[Fraction]:
    """Chance that the cokernel of a uniform n x n matrix over Z/p**cap has
    p-rank k, for k = 0..n: its corank mod p. Rows are added one at a time,
    and a uniform row raises the rank r with chance 1 - p**(r - n)."""
    by_rank = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n):
        nxt = [Fraction(0)] * (n + 1)
        for r, chance in enumerate(by_rank):
            if chance:
                grow = 1 - Fraction(1, p ** (n - r))
                nxt[r] += chance * (1 - grow)
                if r < n:
                    nxt[r + 1] += chance * grow
        by_rank = nxt
    return by_rank[::-1]


def cyclic_chances(p: int, n: int, cap: int) -> dict[tuple[int, ...], Fraction]:
    """Chance of each cokernel of p-rank <= 1, keyed by exponent partition.
    At p-rank 1 the entry left after reduction is uniform on p*Z/p**cap, so
    its valuation j < cap has chance (1 - 1/p) / p**(j-1), and j = cap takes
    the rest."""
    by_p_rank = p_rank_chances(p, n)
    out = {(): by_p_rank[0]}
    for j in range(1, cap + 1):
        share = Fraction(p - 1, p**j) if j < cap else Fraction(1, p ** (cap - 1))
        out[(j,)] = by_p_rank[1] * share
    return out


def _measure_check(draws: int):
    """Masses are counts over `draws` that sum to exactly 1; every group is
    a p-group of rank <= n with exponents <= cap; and the masses of the
    trivial group, of each cyclic group and of p-rank 2 are each within 5
    binomial sigmas of their exact chances (0.29, 0.29, 0.14, 0.14, 0.13
    for 8 x 8 matrices over Z/8)."""
    key = str(SAMPLE_P)
    events = [(lambda parts, e=e: parts == list(e), float(chance))
              for e, chance in cyclic_chances(SAMPLE_P, SAMPLE_N, SAMPLE_CAP).items()]
    events.append((lambda parts: len(parts) == 2, float(p_rank_chances(SAMPLE_P, SAMPLE_N)[2])))

    def fits(group: dict) -> bool:
        if not group:
            return True
        parts = group.get(key)
        return (set(group) == {key} and 0 < len(parts) <= SAMPLE_N
                and all(isinstance(e, int) and 1 <= e <= SAMPLE_CAP for e in parts))

    def check(stdout: str) -> bool:
        try:
            obj = json.loads(stdout)
            recs = [(rec["group"], Fraction(rec["value"])) for rec in obj["masses"]]
            support_ok = all(fits(g) for g, _ in recs)
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
            return False
        masses = [m for _, m in recs]
        if not (support_ok and sum(masses) == 1
                and all((m * draws).denominator == 1 for m in masses)):
            return False
        for event, chance in events:
            seen = float(sum(m for g, m in recs if event(g.get(key, []))))
            if abs(seen - chance) > 5 * (chance * (1 - chance) / draws) ** 0.5:
                return False
        return True

    return check


def _report_check(records: int):
    """Each record's bracket contains its own empirical frequency."""

    def check(stdout: str) -> bool:
        lines = stdout.splitlines()
        if len(lines) != records:
            return False
        try:
            for line in lines:
                rec = json.loads(line)
                freq = Fraction(rec["frequency"])
                br = rec["bracket"]
                if not Fraction(br["lower"]) <= freq <= Fraction(br["upper"]):
                    return False
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return False
        return True

    return check


def _verify_check(stdout: str) -> bool:
    lines = stdout.splitlines()
    return bool(lines) and lines[-1] == f"all {len(VERIFY_CHECK_NAMES)} checks passed"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def build(
    name: str, seed: int, workdir: Path, expected: dict | None = None, round_no: int = 0
) -> Workload:
    """Write the inputs of one round of the workload under workdir and list its ops."""
    rng = random.Random(f"{name}:{seed}:{round_no}")
    if name in CL_SPECS:
        spec = CL_SPECS[name]
        records = [{"group": g, "value": "1"} for g in groups_up_to(spec.primes, spec.order_bound)]
        rng.shuffle(records)
        table = workdir / f"{name}.json"
        obj = {"primes": list(spec.primes), "order_bound": spec.order_bound, "moments": records}
        table.write_text(json.dumps(obj))
        known = (expected or {}).get(name, {})
        ops = tuple(
            Op(
                label,
                ("reconstruct", "--file", str(table), "--group", json.dumps(group),
                 "--rmax", spec.rmax),
                _cl_check(spec.primes, aut, known.get(label)),
            )
            for label, group, aut in spec.targets
        )
        return Workload(table, ops, spec.probes, min_rounds=3)
    if name == "sample-report":
        seed = str(rng.randrange(2**32))
        plain = ("sample", *SAMPLE_ARGS, "--seed", seed, "--count", str(SAMPLE_DRAWS))
        report = ["sample", "--report", *SAMPLE_ARGS, "--seed", seed,
                  "--count", str(REPORT_TS[-1]), "--ts", ",".join(map(str, REPORT_TS)),
                  "--rmax", "8"]
        for g in REPORT_TARGETS:
            report += ["--target", json.dumps(g)]
        ops = (
            Op("sample", plain, _measure_check(SAMPLE_DRAWS), SAMPLE_DRAWS),
            Op("report", tuple(report), _report_check(len(REPORT_TS) * len(REPORT_TARGETS)),
               sum(REPORT_TS)),
        )
        return Workload(None, ops, (1, 1), min_rounds=3)
    if name == "verify-quick":
        op = Op("verify", ("verify", "--quick", "--seed", str(rng.randrange(2**32))), _verify_check)
        return Workload(None, (op,), (4,), min_rounds=2)  # a round takes 15 s
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
