"""The oracle suite: every closed form checked against its independent
brute-force counterpart, plus the bracketing property tests.

Each check returns (passed, detail), and check_list names them in order.
run_all, which the CLI `verify` command executes, runs them in forked
workers, one per usable CPU and at most one per check. The workers stay
alive across checks, taking check indices one byte at a time from a shared
pipe; the parent runs no check and returns the results in check order, each
with the check's own wall time in its worker. Randomized checks take an
explicit seed and are fully deterministic given it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NoReturn, TextIO

from .budget import budget_from_env
from .errors import BudgetExceededError, ConsistencyError
from .finab import (
    FinAbGroup,
    Measure,
    aut_count,
    candidate_middles,
    enumerate_groups,
    extension_class_count,
    hom_count,
    sur_count,
)
from .inversion import MomentTable, multi_invert_zero
from .localize import localization_middles, reconstruct_probability
from .nonab_oracle import hom_a5_count, sur_a5_bruteforce
from .oracle import (
    aut_bruteforce,
    count_surjective_matrices,
    hom_count_bruteforce,
    kernel_pair_count,
    sur_bruteforce,
)
from .qseries import SimpleType, inversion_coefficient, q_binomial
from .sampler import empirical_moments, reference_mass
from .surjcount import sur_product, sur_single


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_abelian_matrix_oracle() -> tuple[bool, str]:
    checked = 0
    for h in (2, 3):
        t = SimpleType.abelian(h)
        for e in range(5):
            for k in range(5):
                if count_surjective_matrices(h, e, k) != sur_single(t, e, k):
                    return False, f"mismatch at h={h}, e={e}, k={k}"
                checked += 1
    return True, f"{checked} matrix counts match the closed form"


def check_product_splitting() -> tuple[bool, str]:
    basis = (SimpleType.abelian(2), SimpleType.abelian(3))
    checked = 0
    for e1 in range(3):
        for e2 in range(3):
            A = FinAbGroup.from_dict({2: [1] * e1, 3: [1] * e2})
            for k1 in range(3):
                for k2 in range(3):
                    B = FinAbGroup.from_dict({2: [1] * k1, 3: [1] * k2})
                    lhs = sur_product(basis, (e1, e2), (k1, k2))
                    rhs = sur_bruteforce(A, B)
                    if lhs != rhs:
                        return False, f"mismatch at e=({e1},{e2}), k=({k1},{k2})"
                    checked += 1
    return True, f"{checked} product counts match brute force"


def check_nonabelian_a5() -> tuple[bool, str]:
    if hom_a5_count() != 121:
        return False, f"|Hom(A5, A5)| = {hom_a5_count()}, expected 121"
    t = SimpleType.nonabelian(120)
    for e in range(3):
        for k in range(3):
            got = sur_a5_bruteforce(e, k)
            want = sur_single(t, e, k)
            if got != want:
                return False, f"mismatch at e={e}, k={k}: oracle {got}, formula {want}"
    return True, "A5 enumeration matches the falling-factorial formula up to e=k=2"


def check_q_identities() -> tuple[bool, str]:
    checked = 0
    for h in (2, 3, 5):
        for e in range(1, 9):
            for k in range(1, e + 1):
                lhs = q_binomial(e, k, h)
                rhs = h**k * q_binomial(e - 1, k, h) + q_binomial(e - 1, k - 1, h)
                if lhs != rhs:
                    return False, f"Pascal recurrence fails at e={e}, k={k}, h={h}"
                checked += 1
            for r in range(9):
                lhs = sum(
                    (-1) ** k * q_binomial(e, k, h) * h ** (k * (k - 1) // 2)
                    for k in range(r + 1)
                )
                rhs = (-1) ** r * q_binomial(e - 1, r, h) * h ** ((r + 1) * r // 2)
                if lhs != rhs:
                    return False, f"telescoping identity fails at e={e}, r={r}, h={h}"
                checked += 1
    return True, f"{checked} q-identities hold exactly"


def random_mass_function(
    rng: random.Random, support_bound: int, max_support: int
) -> dict[int, Fraction]:
    size = rng.randint(0, max_support)
    exps = rng.sample(range(support_bound + 1), min(size, support_bound + 1))
    return {
        e: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for e in sorted(exps)
    }


def one_type_moments(t: SimpleType, masses: dict[int, Fraction], bound: int) -> MomentTable:
    values = [
        sum((m * sur_single(t, e, k) for e, m in masses.items()), Fraction(0))
        for k in range(bound + 1)
    ]
    return MomentTable.one_type(t, values)


def check_bracketing_soundness(seed: int, cases: int = 200) -> tuple[bool, str]:
    rng = random.Random(seed)
    types = [
        SimpleType.abelian(2),
        SimpleType.abelian(3),
        SimpleType.abelian(4),
        SimpleType.abelian(5),
        SimpleType.nonabelian(120),
        SimpleType.nonabelian(6),
    ]
    for case in range(cases):
        t = rng.choice(types)
        masses = random_mass_function(rng, 8, 6)
        m0 = masses.get(0, Fraction(0))
        bound = 9
        moments = one_type_moments(t, masses, bound)
        s = Fraction(0)
        for r in range(bound + 1):
            s += inversion_coefficient(t, r) * moments.values[(r,)]
            if r % 2 == 0 and s < m0:
                return False, f"case {case}: even sum r={r} below the mass at 0"
            if r % 2 == 1 and s > m0:
                return False, f"case {case}: odd sum r={r} above the mass at 0"
        for r_max in (1, 4, bound):
            br = multi_invert_zero(moments, (r_max,))
            if not br.contains(m0):
                return False, f"case {case}: bracket at r_max={r_max} misses the mass"
        point = multi_invert_zero(moments, (bound,))
        if point.lower != m0 or point.upper != m0:
            return False, f"case {case}: finite support did not collapse to a point"
    # two-type version over a product basis
    basis = (SimpleType.abelian(2), SimpleType.abelian(3))
    for case in range(cases):
        pts = {}
        for e1 in range(3):
            for e2 in range(3):
                if rng.random() < 0.4:
                    pts[(e1, e2)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        m0 = pts.get((0, 0), Fraction(0))
        bound = (3, 3)
        values = {
            (k1, k2): sum(
                (m * sur_product(basis, e, (k1, k2)) for e, m in pts.items()),
                Fraction(0),
            )
            for k1 in range(4)
            for k2 in range(4)
        }
        table = MomentTable(basis, bound, values)
        br = multi_invert_zero(table, (3, 3))
        if not br.contains(m0):
            return False, f"two-type case {case}: bracket misses the mass"
        if br.lower != m0 or br.upper != m0:
            return False, f"two-type case {case}: no point collapse at full depth"
    return True, f"{2 * cases} randomized mass functions bracketed soundly"


def check_euler_constant() -> tuple[bool, str]:
    t = SimpleType.abelian(2)
    moments = MomentTable.one_type(t, [1] * 13)
    br = multi_invert_zero(moments, (12,))
    ref = reference_mass(2, 0, FinAbGroup.trivial())
    tol = Fraction(1, 10**9)
    if br.width >= Fraction(1, 10**6):
        return False, f"bracket width {float(br.width)} is not below 1e-6"
    if not (br.lower - tol <= ref <= br.upper + tol):
        return False, "bracket does not contain the truncated product reference"
    if abs(ref - Fraction("0.2887880951")) > tol:
        return False, "truncated product disagrees with the quoted constant"
    return True, f"bracket [{float(br.lower):.12f}, {float(br.upper):.12f}] hits the constant"


def check_extension_sum_identity(order_bound: int = 72) -> tuple[bool, str]:
    """kernel_pair_count(X, M, N) must equal
    sum_{M'} classCount(N, M, M') * Sur(X, M') / |Hom(M, N)| exactly.

    Middles whose order does not divide |X| admit no surjection from X, so
    their terms vanish and their class counts are never needed.
    """
    xs = [g for g in enumerate_groups({2, 3}, order_bound) if order_bound % g.order == 0]
    ms = enumerate_groups({2, 3}, order_bound)
    ns = [g for g in enumerate_groups({2, 3}, order_bound) if g.is_semisimple]
    checked = 0
    for M in ms:
        for N in ns:
            if N.order * M.order > order_bound:
                continue
            middles = candidate_middles(N, M)
            denom = hom_count(M, N)
            classes: dict[FinAbGroup, Fraction] = {}
            for X in xs:
                lhs = kernel_pair_count(X, M, N)
                rhs = Fraction(0)
                for mid in middles:
                    if X.order % mid.order:
                        continue
                    cc = classes.get(mid)
                    if cc is None:
                        cc = classes[mid] = extension_class_count(N, M, mid)
                    if cc:
                        rhs += cc * sur_bruteforce(X, mid)
                rhs /= denom
                if rhs != lhs:
                    return False, f"mismatch at X={X}, M={M}, N={N}: {lhs} != {rhs}"
                checked += 1
    return True, f"{checked} extension-sum identities hold exactly"


def synthetic_measure(rng: random.Random, order_bound: int, size: int) -> Measure:
    """Measure on `size` random groups of order dividing order_bound, with
    random rational masses."""
    pool = [g for g in enumerate_groups({2, 3}, order_bound) if order_bound % g.order == 0]
    chosen = rng.sample(pool, min(size, len(pool)))
    return Measure({g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in chosen})


def check_end_to_end(
    seed: int,
    support_order: int = 72,
    target_order: int = 24,
    support_size: int = 12,
) -> tuple[bool, str]:
    """Exact moments of a synthetic measure, at exactly the middles the
    localizations read, reconstruct every mass as a width-zero bracket once
    the truncation clears the support."""
    rng = random.Random(seed)
    mu = synthetic_measure(rng, support_order, support_size)
    r_max = (
        max(g.rank(2) for g in mu.support()) + 1,
        max(g.rank(3) for g in mu.support()) + 1,
    )
    targets = enumerate_groups({2, 3}, target_order)
    table = empirical_moments(mu, [
        mid for M in targets for _, _, mids in localization_middles(M, (2, 3), r_max) for mid in mids
    ])
    checked = 0
    for M in targets:
        br = reconstruct_probability(table, M, (2, 3), r_max)
        truth = mu.mass(M)
        if br.lower != truth or br.upper != truth:
            return False, f"reconstruction at {M}: bracket {br}, true mass {truth}"
        checked += 1
    return True, f"{checked} masses reconstructed exactly (support {len(mu)} groups)"


def check_hom_aut_agreement() -> tuple[bool, str]:
    """Closed-form hom/aut counts vs full endomorphism enumeration.

    Automorphism enumeration is skipped where the candidate count exceeds
    the budget; the hom-count scan covers the whole range.
    """
    checked = skipped = 0
    groups = enumerate_groups({2}, 64) + enumerate_groups({3}, 81)
    for g in groups:
        if hom_count_bruteforce(g, g) != hom_count(g, g):
            return False, f"hom count mismatch at {g}"
        try:
            if aut_bruteforce(g) != aut_count(g):
                return False, f"aut count mismatch at {g}"
            checked += 1
        except BudgetExceededError:
            skipped += 1
    return True, f"hom/aut agree on {checked} groups ({skipped} aut runs over budget)"


def check_sur_smart_vs_bruteforce() -> tuple[bool, str]:
    groups = enumerate_groups({2, 3}, 24)
    checked = 0
    for A in groups:
        for B in groups:
            if sur_count(A, B) != sur_bruteforce(A, B):
                return False, f"smart/brute surjection mismatch at {A} -> {B}"
            checked += 1
    return True, f"{checked} smart surjection counts match brute force"


Check = tuple[str, Callable[[], tuple[bool, str]]]


def check_list(seed: int, quick: bool = False) -> list[Check]:
    """The suite's (name, check) pairs in report order."""
    ext_bound = 24 if quick else 72
    e2e_support = 12 if quick else 72
    e2e_target = 8 if quick else 24
    cases = 40 if quick else 200
    return [
        ("abelian formula vs matrix oracle", check_abelian_matrix_oracle),
        ("product splitting vs brute force", check_product_splitting),
        ("nonabelian formula vs A5 oracle", check_nonabelian_a5),
        ("q-binomial identities", check_q_identities),
        ("bracketing soundness", lambda: check_bracketing_soundness(seed, cases)),
        ("Euler constant bracket", check_euler_constant),
        ("hom/aut enumeration agreement", check_hom_aut_agreement),
        ("smart surjection counts", check_sur_smart_vs_bruteforce),
        ("extension-sum identity", lambda: check_extension_sum_identity(ext_bound)),
        (
            "end-to-end exact reconstruction",
            lambda: check_end_to_end(
                seed, e2e_support, e2e_target, support_size=5 if quick else 12
            ),
        ),
    ]


def _work(checks: list[Check], tasks: int, out: int, parent_end: int) -> NoReturn:
    """Worker body: run each check whose index arrives on `tasks` and report
    on `out`, first the bare index, then [index, passed, detail, seconds]
    as JSON lines. Leaves only through os._exit, so it never returns into
    the caller and never flushes the parent's buffered output."""
    status = 1
    try:
        os.close(parent_end)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # stdout is the parent's alone
        with open(out, "w", encoding="ascii") as report:
            while index := os.read(tasks, 1):
                i = index[0]
                report.write(f"{i}\n")
                report.flush()
                begin = time.perf_counter()
                try:
                    passed, detail = checks[i][1]()
                except Exception as exc:
                    passed, detail = False, f"{type(exc).__name__}: {exc}"
                took = time.perf_counter() - begin
                report.write(json.dumps([i, bool(passed), str(detail), took]) + "\n")
                report.flush()
        status = 0
    finally:
        os._exit(status)


def _start_worker(checks: list[Check], tasks: int) -> tuple[int, TextIO]:
    """Fork a worker; return its pid and the read end of its report pipe."""
    reports, out = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(reports)
        os.close(out)
        raise ConsistencyError(f"cannot start a verify worker: {exc}") from exc
    if pid == 0:
        _work(checks, tasks, out, reports)
    os.close(out)  # the worker holds the only write end, so its exit is our EOF
    return pid, open(reports, encoding="ascii")


def run_all(seed: int, quick: bool = False) -> list[CheckResult]:
    """Run the suite in forked workers and return the results in check order.

    A check that raises fails with "<Type>: <message>". A worker that dies
    while running a check fails that check with its exit status, negative
    for a signal, and a fresh worker takes its place on the remaining
    checks. Leaving by an exception, a failed fork among them, kills and
    reaps every worker not yet reaped, so none outlives the caller.
    """
    budget_from_env()  # a malformed budget is an input error, not a failed check
    checks = check_list(seed, quick)
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)  # once the indices are taken, every worker reads EOF
    results: dict[int, tuple[bool, str, float]] = {}
    workers: deque[tuple[int, TextIO]] = deque()  # started, not yet reaped
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(checks))):
            workers.append(_start_worker(checks, tasks))
        while workers:
            pid, lines = workers[0]
            pending = None
            with lines:
                for line in lines:
                    if not line.endswith("\n"):  # cut short by the worker's death
                        break
                    msg = json.loads(line)
                    if isinstance(msg, int):
                        pending = msg
                    else:
                        results[msg[0]] = (msg[1], msg[2], msg[3])
                        pending = None
            _, status = os.waitpid(pid, 0)
            workers.popleft()
            if pending is not None:
                code = os.waitstatus_to_exitcode(status)
                results[pending] = (False, f"worker exited with status {code}", 0.0)
                workers.append(_start_worker(checks, tasks))
    except BaseException:
        for pid, lines in workers:
            lines.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(tasks)
    return [
        CheckResult(name, *results.get(i, (False, "no worker reported it", 0.0)))
        for i, (name, _) in enumerate(checks)
    ]
