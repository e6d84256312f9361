import tracemalloc
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from momentforge import nonab_oracle
from momentforge.errors import BudgetExceededError, ConsistencyError, InputError
from momentforge.nonab_oracle import _a5, _kernels, _maps, _popcount, hom_a5_count, sur_a5_bruteforce
from momentforge.oracle import surjective_matrix_counts
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


def test_negative_powers_are_refused():
    with pytest.raises(InputError, match="^e must be an integer >= 0, got -1$"):
        sur_a5_bruteforce(-1, 0)
    with pytest.raises(InputError, match="^matrix oracle needs a prime field size, got h=4$"):
        surjective_matrix_counts(4, 2, 1)
    with pytest.raises(InputError, match="^e must be an integer >= 0, got -1$"):
        surjective_matrix_counts(2, -1, 1)


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


@cache
def reference_homs():
    """(mult, homs, pairs) by composing the permutation tuples of _a5() in
    pure Python: mult[i][j] is element i after element j; homs lists Hom(A5, A5)
    by their relation pairs (x, y), lexicographically, each a list of 60 image
    indices built over words in the first nontrivial pair; pairs lists the
    index pairs (f, g) of homs, lexicographically, with f(x) g(y) = g(y) f(x)
    for all 60 x 60 elements x, y."""
    elements = _a5()
    index = {p: i for i, p in enumerate(elements)}
    mult = [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]

    def order_divides(x, n):
        w = x
        for _ in range(n - 1):
            w = mult[w][x]
        return w == 0

    relations = [(x, y) for x in range(60) for y in range(60)
                 if order_divides(x, 5) and order_divides(y, 2) and order_divides(mult[x][y], 3)]
    gens = relations[1]
    homs = []
    for images in relations:
        hom, words = {0: 0}, [0]
        for w in words:  # breadth first from the identity
            for g, image in zip(gens, images):
                if mult[w][g] not in hom:
                    hom[mult[w][g]] = mult[hom[w]][image]
                    words.append(mult[w][g])
        hom = [hom[i] for i in range(60)]
        assert all(hom[mult[i][j]] == mult[hom[i]][hom[j]] for i in range(60) for j in range(60))
        homs.append(hom)
    commute = [[mult[u][v] == mult[v][u] for v in range(60)] for u in range(60)]
    pairs = [(i, j) for i, f in enumerate(homs) for j, g in enumerate(homs)
             if all(commute[f[x]][g[y]] for x in range(60) for y in range(60))]
    return mult, homs, pairs


def reference_kernels(e):
    """Hom(A5**e, A5), one row each: its kernel as a list of 60**e bools."""
    mult, homs, pairs = reference_homs()
    if e == 1:
        return [[f[x] == 0 for x in range(60)] for f in homs]
    return [[mult[homs[i][x]][homs[j][y]] == 0 for x in range(60) for y in range(60)]
            for i, j in pairs]


@pytest.mark.parametrize("e", [1, 2])
def test_kernel_rows_are_the_reference_kernels(e):
    want = np.array(reference_kernels(e))
    bits = np.unpackbits(_kernels(e).view(np.uint8), axis=1)
    assert bits.shape == (len(want), 64 * -(-(60**e) // 64))
    assert (bits[:, : 60**e] == want).all() and not bits[:, 60**e :].any()


def reference_images(k):
    """(bits, sizes) for all 121**k images at once: row t of bits is the image
    of the t-th k-tuple of homomorphisms, lexicographically, a bitset over
    A5**k packed as nonab_oracle packs kernels, and sizes[t] its order."""
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


def image_count(e, k):
    """|Sur(A5**e, A5**k)| by images, not kernels: at e = 1 the k-tuples of
    homomorphisms with a full image; at e = 2 the k-tuples of commuting pairs
    whose images S1 and S2 have |S1 S2| = |S1| |S2| / |S1 meet S2| full."""
    if e == 0 or k == 0:
        return int(k == 0)
    bits, sizes = reference_images(k)
    if e == 1:
        return int((sizes == 60**k).sum())
    pairs = np.array(reference_homs()[2])
    count = 0
    for lead in product(pairs, repeat=k - 1):
        f = g = 0
        for i, j in lead:
            f, g = f * 121 + i, g * 121 + j
        fs, gs = f * 121 + pairs[:, 0], g * 121 + pairs[:, 1]
        meet = _popcount(bits[fs] & bits[gs])
        count += int((sizes[fs] * sizes[gs] == 60**k * meet).sum())
    return count


def test_the_kernel_count_matches_the_image_count():
    for e in range(3):
        for k in range(3):
            assert sur_a5_bruteforce(e, k) == image_count(e, k), (e, k)


@pytest.mark.parametrize("e", [1, 2])
def test_image_orders_match_the_two_byte_table(e):
    rows = _kernels(e)
    assert rows.shape == ([121, 241][e - 1], -(-(60**e) // 64))
    sizes = _popcount(rows)
    assert (sizes == two_byte_popcount(rows.view(np.uint8))).all()
    # an image, trivial or a copy of A5, has order 60**e over its kernel's
    assert set(sizes.tolist()) == [{1, 60}, {60, 3600}][e - 1]


def test_oracle_values_up_to_two():
    got = [[sur_a5_bruteforce(e, k) for k in range(3)] for e in range(3)]
    assert got == [[1, 0, 0], [1, 120, 0], [1, 240, 28800]]


def test_no_image_table_is_held_after_a_count():
    # the k = 2 image table would be 6.7 MB; a count holds 110 KB of kernel
    # rows and meets them a batch at a time, so no verify worker grows by a table
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
    lambda x: surjective_matrix_counts(2, 2, x),
    lambda x: surjective_matrix_counts(x, 2, 0),  # checked before the k = 0 answer
], ids=["a5-e", "a5-k", "matrix-counts-h", "matrix-counts-e", "matrix-k", "matrix-h"])
def test_oracles_read_only_exact_ints(call, bad):
    # no answer for True or 1.0 read as 1, and no bare TypeError
    with pytest.raises(InputError):
        call(bad)


def test_an_image_that_is_no_subgroup_is_refused(monkeypatch):
    # all-ones rows have 64 or 3648 set bits, zero rows none: no divisor of 60**e
    real = nonab_oracle._kernels
    for fill in (np.uint64(0), ~np.uint64(0)):
        monkeypatch.setattr(nonab_oracle, "_kernels", lambda e: np.full_like(real(e), fill))
        for e, k in product((1, 2), repeat=2):
            with pytest.raises(ConsistencyError, match="not a subgroup"):
                sur_a5_bruteforce(e, k)
