import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import momentforge
from momentforge.errors import InputError
from momentforge.qseries import (
    PRIME_TEST_LIMIT,
    SimpleType,
    frames,
    inversion_coefficient,
    inversion_coefficients,
    is_prime,
    is_prime_power,
    q_binomial,
    q_pochhammer,
)
from momentforge.surjcount import sur_single


def test_q_pochhammer_values():
    assert q_pochhammer(2, 0) == 1
    assert q_pochhammer(2, 3) == 21  # (1)(3)(7)
    assert q_pochhammer(3, 2) == 16  # (2)(8)
    assert q_pochhammer(5, 1) == 4


@given(st.integers(2, 40), st.integers(0, 70))
def test_q_pochhammer_is_the_product_of_its_factors(h, k):
    # past 8 factors the product is balanced; taken one factor at a time it is the same
    want = 1
    for j in range(1, k + 1):
        want *= h**j - 1
    assert q_pochhammer(h, k) == want


def test_q_pochhammer_is_not_quadratic_in_its_bits():
    # one factor at a time, (2;2)_2000 took 2.1-2.6 s; balanced it takes about 0.4 s
    script = "from momentforge.qseries import q_pochhammer; q_pochhammer(2, 2000)"
    src = Path(momentforge.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, timeout=2)
    assert proc.returncode == 0, proc.stderr


def test_q_binomial_values():
    assert q_binomial(5, 0, 2) == 1
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(2, 1, 3) == 4
    assert q_binomial(3, 5, 2) == 0


def test_q_binomial_counts_subspaces():
    # enumerate 2-dimensional subspaces of F_2**4 directly
    vectors = list(range(1, 16))
    subspaces = set()
    for a in vectors:
        for b in vectors:
            if b == a:
                continue
            subspaces.add(frozenset({0, a, b, a ^ b}))
    assert len(subspaces) == q_binomial(4, 2, 2) == 35


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_pascal_recurrence(h):
    for e in range(1, 11):
        for k in range(1, e + 1):
            assert q_binomial(e, k, h) == h**k * q_binomial(e - 1, k, h) + q_binomial(
                e - 1, k - 1, h
            )


@pytest.mark.parametrize("h", [2, 3, 5])
def test_telescoping_identity(h):
    for e in range(1, 9):
        for r in range(9):
            lhs = sum(
                (-1) ** k * q_binomial(e, k, h) * h ** (k * (k - 1) // 2)
                for k in range(r + 1)
            )
            rhs = (-1) ** r * q_binomial(e - 1, r, h) * h ** ((r + 1) * r // 2)
            assert lhs == rhs


@given(
    e=st.integers(min_value=0, max_value=10),
    k=st.integers(min_value=0, max_value=10),
    h=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
)
def test_symmetry_and_nonnegativity(e, k, h):
    assert q_binomial(e, k, h) >= 0
    if k <= e:
        assert q_binomial(e, k, h) == q_binomial(e, e - k, h)


@given(
    h=st.sampled_from([2, 3, 4, 5, 9]),
    steps=st.lists(st.integers(min_value=0, max_value=3), max_size=14),
    start=st.integers(min_value=0, max_value=4),
)
def test_frames_is_the_product_of_its_factors(h, steps, start):
    # weakly increasing dims from start by steps; a dims[i] <= i makes the count 0
    dims = list(itertools.accumulate(steps, initial=start))
    want = math.prod(h**n - h**i for i, n in enumerate(dims))
    assert frames(h, dims) == want
    assert (want == 0) == any(n <= i for i, n in enumerate(dims))


def test_coefficient_values():
    t2 = SimpleType.abelian(2)
    assert inversion_coefficient(t2, 0) == 1
    assert inversion_coefficient(t2, 1) == -1
    assert inversion_coefficient(t2, 2) == Fraction(1, 3)
    a5 = SimpleType.nonabelian(120)
    assert inversion_coefficient(a5, 0) == 1
    assert inversion_coefficient(a5, 2) == Fraction(1, 28800)


@pytest.mark.parametrize(
    "t", [SimpleType.abelian(2), SimpleType.abelian(3), SimpleType.nonabelian(120)]
)
def test_coefficient_sign_and_decay(t):
    # sign alternates; magnitude ratio matches the exact closed form
    for k in range(20):
        ck = inversion_coefficient(t, k)
        cn = inversion_coefficient(t, k + 1)
        assert (ck > 0) == (k % 2 == 0)
        if t.is_abelian:
            assert abs(cn) / abs(ck) == Fraction(1, t.h ** (k + 1) - 1)
            assert abs(cn) / abs(ck) <= Fraction(1, t.h ** (k + 1) - 1)
        else:
            assert abs(cn) / abs(ck) == Fraction(1, (k + 1) * t.aut)


def closed_form_coefficient(t, k):
    """Oracle for the recurrence: (-1)**k / q_pochhammer(h, k) for abelian
    types, (-1)**k / (k! * aut**k) for nonabelian ones."""
    if t.is_abelian:
        return Fraction((-1) ** k, q_pochhammer(t.h, k))
    return Fraction((-1) ** k, math.factorial(k) * t.aut**k)


@pytest.mark.parametrize(
    "t",
    [SimpleType.abelian(h) for h in (2, 3, 4, 5)]
    + [SimpleType.nonabelian(aut) for aut in (1, 6, 60, 120)],
)
def test_coefficient_sequence_matches_closed_forms(t):
    seq = list(itertools.islice(inversion_coefficients(t), 41))
    assert seq == [closed_form_coefficient(t, k) for k in range(41)]
    assert [inversion_coefficient(t, k) for k in (0, 1, 2, 17, 40)] == [
        seq[k] for k in (0, 1, 2, 17, 40)
    ]
    with pytest.raises(InputError, match="^k must be an integer >= 0, got -1$"):
        inversion_coefficient(t, -1)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda x: SimpleType.abelian(x),
    lambda x: SimpleType.nonabelian(x),
    lambda x: sur_single(SimpleType.abelian(2), x, 1),
    lambda x: sur_single(SimpleType.nonabelian(60), x, 1),
    lambda x: sur_single(SimpleType.abelian(2), 3, x),
    lambda x: q_pochhammer(x, 2),
    lambda x: q_pochhammer(2, x),
    lambda x: q_binomial(x, 1, 2),
    lambda x: q_binomial(3, x, 2),
    lambda x: q_binomial(3, 1, x),
    lambda x: inversion_coefficient(SimpleType.abelian(2), x),
], ids=[
    "abelian-h", "nonabelian-aut", "sur_single-e", "sur_single-nonabelian-e", "sur_single-k",
    "q_pochhammer-h", "q_pochhammer-k", "q_binomial-e", "q_binomial-k", "q_binomial-h",
    "inversion_coefficient-k",
])
def test_only_exact_ints_are_read(call, bad):
    # no float result, and no bool read as 0 or 1
    with pytest.raises(InputError):
        call(bad)


def test_prime_power_validation():
    assert is_prime_power(2) and is_prime_power(8) and is_prime_power(9)
    assert not is_prime_power(1) and not is_prime_power(6) and not is_prime_power(12)
    with pytest.raises(InputError):
        SimpleType.abelian(6)
    with pytest.raises(InputError):
        SimpleType.abelian(1)
    with pytest.raises(InputError):
        SimpleType.nonabelian(0)
    with pytest.raises(InputError):
        SimpleType(kind="abelian", h=2, aut=3)
    with pytest.raises(InputError, match="^nonabelian type takes aut, not h$"):
        SimpleType(kind="nonabelian", h=2)


def trial_division_is_prime(n):
    """Reference primality test: no divisor d with d * d <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 10**5))


def test_is_prime_large_inputs():
    assert is_prime(2**61 - 1) and is_prime(2**60 - 93)
    # strong pseudoprimes to bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(InputError, match="too large"):
        is_prime(PRIME_TEST_LIMIT)


def test_is_prime_power_large_inputs():
    assert is_prime_power(2**60 - 93) and is_prime_power(3**40) and is_prime_power((2**31 - 1) ** 2)
    assert not is_prime_power(6**20) and not is_prime_power(2**61 * 3)
    assert not is_prime_power((2**31 - 1) * (2**31 + 11))
    # past PRIME_TEST_LIMIT, where testing n itself first refused them all
    assert is_prime_power((2**61 - 1) ** 2) and is_prime_power(3**60)
    assert is_prime_power((2**31 - 1) ** 3) and is_prime_power((2**61 - 1) ** 200)
    assert SimpleType.abelian(2**82).h == 2**82
    assert not is_prime_power((2**31 - 1) ** 2 * 3) and not is_prime_power(6**5000)
    # a base past the limit is refused as n itself is, after every root is tried
    for n in ((2**89 - 1) ** 2, 2**82 * 3):
        with pytest.raises(InputError, match=f"^a {n.bit_length()}-bit integer is too large"):
            is_prime_power(n)
    started = time.perf_counter()
    assert is_prime_power(3**8000)
    with pytest.raises(InputError, match="^a 14001-bit integer is too large"):
        is_prime_power(2**14000 + 1)
    assert time.perf_counter() - started < 1.0


def test_simple_type_json_roundtrip():
    for t in (SimpleType.abelian(4), SimpleType.nonabelian(120)):
        assert SimpleType.from_json_obj(t.to_json_obj()) == t
