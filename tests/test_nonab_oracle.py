import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from momentforge.errors import BudgetExceededError
from momentforge.nonab_oracle import _a5, _images, _popcount, hom_a5_count, sur_a5_bruteforce
from momentforge.qseries import SimpleType
from momentforge.surjcount import sur_single

A5 = SimpleType.nonabelian(120)


def test_a5_has_sixty_even_permutations():
    # the element list every A5 enumeration walks
    elements = _a5()
    assert len(elements) == len(set(elements)) == 60
    for e in elements:
        assert sorted(e) == [0, 1, 2, 3, 4]
        assert sum(a > b for a, b in combinations(e, 2)) % 2 == 0  # even


def test_hom_count_is_121():
    # the trivial map plus the 120 automorphisms
    assert hom_a5_count() == 121


def test_oracle_examples():
    assert sur_a5_bruteforce(1, 1) == 120
    assert sur_a5_bruteforce(1, 2) == 0
    assert sur_a5_bruteforce(2, 1) == 240
    assert sur_a5_bruteforce(2, 2) == 28800


def test_oracle_matches_formula_up_to_two():
    for e in range(3):
        for k in range(3):
            assert sur_a5_bruteforce(e, k) == sur_single(A5, e, k), (e, k)


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        sur_a5_bruteforce(3, 1)
    with pytest.raises(BudgetExceededError):
        sur_a5_bruteforce(1, 3)


def two_byte_popcount(bits):
    """Set bits per row of a packed uint8 array of even width, two bytes at a
    time from a table of uint8 counts: the reference for the word popcount."""
    table = np.unpackbits(np.arange(1 << 16, dtype="u2").view("u1")).reshape(-1, 16).sum(1, "u1")
    return table[bits.view("u2")].sum(axis=1, dtype="i8")


@pytest.mark.parametrize("words", [1, 2, 57])
def test_word_popcount_matches_the_two_byte_table(words):
    rows = np.random.default_rng(words).integers(0, 256, (500, 8 * words), dtype=np.uint8)
    rows[0], rows[1] = 0, 255
    assert (_popcount(rows.view(np.uint64)) == two_byte_popcount(rows)).all()


@pytest.mark.parametrize("k", [1, 2])
def test_image_orders_match_the_two_byte_table(k):
    bits, sizes = _images(k)
    assert bits.shape == (121**k, -(-(60**k) // 64))
    assert (sizes == two_byte_popcount(bits.view(np.uint8))).all()
    assert set(sizes.tolist()) == {1, 60}  # the image of A5 is trivial or a copy of A5


def test_oracle_values_up_to_two():
    got = [[sur_a5_bruteforce(e, k) for k in range(3)] for e in range(3)]
    assert got == [[1, 0, 0], [1, 120, 0], [1, 240, 28800]]


def test_no_image_table_is_held_after_a_count():
    # the k = 2 bit table is 6.7 MB; a count at k = 2 keeps only its image
    # orders, 14,641 int64 (114 KB), so a verify worker does not carry the
    # table into the checks it runs next
    sur_a5_bruteforce(1, 1)  # the homomorphism tables, cached and small, outside the trace
    tracemalloc.start()
    try:
        assert [sur_a5_bruteforce(e, 2) for e in (1, 2)] == [0, 28800]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 6 * 2**20 and held < 2**20, (held, peak)
