import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from momentforge import nonab_oracle
from momentforge.errors import BudgetExceededError, ConsistencyError, InputError
from momentforge.nonab_oracle import _a5, _block, _maps, _popcount, hom_a5_count, sur_a5_bruteforce
from momentforge.oracle import count_surjective_matrices, surjective_matrix_counts
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


def reference_images(k):
    """(bits, sizes) for all 121**k images at once, the whole-table builder the
    streamed blocks replace: row t of bits is the image of the t-th k-tuple
    of homomorphisms, lexicographically, and sizes[t] its order."""
    maps = _maps().astype(np.uint16)
    n = len(maps)
    prefixes = np.zeros((1, 60), dtype=np.uint16)  # the empty tuple sends x to ()
    for _ in range(k - 1):
        prefixes = (prefixes[:, None] * 60 + maps).reshape(-1, 60)
    width = -(-(60**k) // 64)  # 64-bit words a row
    bits = np.empty((n * len(prefixes), width), dtype=np.uint64)
    for t, prefix in enumerate(prefixes):
        image = np.zeros((n, 64 * width), dtype=bool)
        image[np.arange(n)[:, None], prefix * 60 + maps] = True
        bits[t * n : (t + 1) * n] = np.packbits(image, axis=1).view(np.uint64)
    return bits, _popcount(bits)


def streamed_blocks(k):
    return [_block(k, t) for t in range(121 ** (k - 1))]


@pytest.mark.parametrize("k", [1, 2])
def test_streamed_blocks_are_the_reference_rows(k):
    bits, sizes = reference_images(k)
    blocks = streamed_blocks(k)
    assert (np.concatenate([b for b, _ in blocks]) == bits).all()
    assert (np.concatenate([s for _, s in blocks]) == sizes).all()


@pytest.mark.parametrize("k", [1, 2])
def test_image_orders_match_the_two_byte_table(k):
    blocks = streamed_blocks(k)
    assert sum(len(bits) for bits, _ in blocks) == 121**k
    for bits, sizes in blocks:
        assert bits.shape == (121, -(-(60**k) // 64))
        assert (sizes == two_byte_popcount(bits.view(np.uint8))).all()
    orders = {size for _, sizes in blocks for size in sizes.tolist()}
    assert orders == {1, 60}  # the image of A5 is trivial or a copy of A5


@pytest.mark.parametrize("e", [1, 2])
def test_a_count_builds_each_block_at_most_once(e, monkeypatch):
    built = []

    def counted(k, t):
        built.append(t)
        return _block(k, t)

    monkeypatch.setattr(nonab_oracle, "_block", counted)
    assert sur_a5_bruteforce(e, 2) == [0, 28800][e - 1]
    assert sorted(built) == list(range(121))  # each (k-1)-prefix once


def test_oracle_values_up_to_two():
    got = [[sur_a5_bruteforce(e, k) for k in range(3)] for e in range(3)]
    assert got == [[1, 0, 0], [1, 120, 0], [1, 240, 28800]]


def test_no_image_table_is_held_after_a_count():
    # the k = 2 bit table would be 6.7 MB; a count reads it a 55 KB block at
    # a time, so neither it nor the verify worker it runs in grows by the table
    sur_a5_bruteforce(1, 1)  # the homomorphism tables, cached and small, outside the trace
    for e, want in ((1, 0), (2, 28800)):
        tracemalloc.start()
        try:
            assert sur_a5_bruteforce(e, 2) == want
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20 and held < 2**20, (e, held, peak)


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "1"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda x: sur_a5_bruteforce(x, 1),
    lambda x: sur_a5_bruteforce(2, x),
    lambda x: surjective_matrix_counts(x, 2, 1),
    lambda x: surjective_matrix_counts(2, x, 1),
    lambda x: count_surjective_matrices(2, 2, x),
    lambda x: count_surjective_matrices(x, 2, 1),
], ids=["a5-e", "a5-k", "matrix-counts-h", "matrix-counts-e", "matrix-k", "matrix-h"])
def test_oracles_read_only_exact_ints(call, bad):
    # no answer for True or 1.0 read as 1, and no bare TypeError
    with pytest.raises(InputError):
        call(bad)


def test_an_image_that_is_no_subgroup_is_refused(monkeypatch):
    def full_rows(k, t):
        bits, sizes = _block(k, t)
        return ~np.zeros_like(bits), sizes  # every meet is then larger than |S1| |S2|

    monkeypatch.setattr(nonab_oracle, "_block", full_rows)
    with pytest.raises(ConsistencyError, match="not a subgroup"):
        sur_a5_bruteforce(2, 2)
