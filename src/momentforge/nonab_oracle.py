"""Brute-force surjection counts for powers of the alternating group A5.

Homomorphisms out of A5 are enumerated through the presentation
<a, b | a^5 = b^2 = (ab)^3 = 1>: a homomorphism to T is exactly a pair
(x, y) in T with x^5 = y^2 = (xy)^3 = 1. A homomorphism out of a power
A5^e is an e-tuple of homomorphisms whose images commute elementwise,
and it is surjective when the product of the images is the whole target.

All of it runs on arrays: an element of A5 is its index 0..59 in _a5(),
and a homomorphism A5 -> A5 a row of 60 image indices. The image of a
k-tuple of them, x -> (f_1(x), ..., f_k(x)), is a bitset over A5^k with the
element (i_1, ..., i_k) at the uint16 code i_1 60^(k-1) + ... + i_k. The
121^k images, lexicographically, are the rows of one uint64 array packed by
np.packbits, 60^k bits padded to whole 64-bit words a row, built one leading
(k-1)-prefix at a time. Orders are popcounts, one np.bitwise_count per word;
for e = 2, |S1 S2| is |S1| |S2| / |S1 meet S2| over chunks of the tuples of
commuting pairs.

This module exists to certify the closed-form count
e(e-1)...(e+1-k) * 120**k for the concrete group A5; it is not a general
group-theory library.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .errors import BudgetExceededError, ConsistencyError, InputError

MAX_POWER = 2  # enumeration budget: e, k beyond this are refused


@lru_cache(maxsize=1)
def _a5() -> list[tuple[int, ...]]:
    """The elements of A5, the even permutations of {0,...,4}, identity first."""
    perms = itertools.permutations(range(5))
    return [p for p in perms if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]


@lru_cache(maxsize=1)
def _times():
    """times[i, j]: the index of element i composed after element j."""
    elements, place = np.array(_a5()), 5 ** np.arange(5)
    index = np.zeros(5**5, dtype=np.int64)
    index[elements @ place] = np.arange(60)
    return index[elements[:, elements] @ place]


@lru_cache(maxsize=1)
def _single_homs():
    """Hom(A5, A5) as its relation-satisfying generator-image pairs (x, y),
    one row each, the trivial pair first."""
    x, y = np.divmod(np.arange(3600), 60)
    ok = True
    for z, n in ((x, 5), (y, 2), (_times()[x, y], 3)):  # z**n is the identity, index 0
        ok = ok & (reduce(lambda w, _: _times()[w, z], range(n - 1), z) == 0)
    return np.stack([x[ok], y[ok]], axis=1)


def hom_a5_count() -> int:
    """|Hom(A5, A5)| by enumeration; the trivial map plus the automorphisms."""
    return len(_single_homs())


@lru_cache(maxsize=1)
def _maps():
    """maps[h, i]: the image of element i under homomorphism h, by closure
    over words in a generating pair (any relation pair but the trivial one,
    since A5 is simple). Checking every edge of the Cayley graph after makes
    each row a homomorphism."""
    homs, times = _single_homs(), _times()
    gens = homs[1]
    maps = np.zeros((len(homs), 60), dtype=np.int64)
    order = [0]
    for w in order:  # breadth first from the identity
        for g in (0, 1):
            u = int(times[w, gens[g]])
            if u not in order:
                order.append(u)
                maps[:, u] = times[maps[:, w], homs[:, g]]
    for g in (0, 1):
        if len(order) < 60 or (maps[:, times[:, gens[g]]] != times[maps, homs[:, g, None]]).any():
            raise ConsistencyError(f"relation pairs on {gens} do not extend to maps on A5")
    return maps


def sur_a5_bruteforce(e: int, k: int) -> int:
    """Exact |Sur(A5**e, A5**k)| for e, k <= 2, by enumeration."""
    if e < 0 or k < 0:
        raise InputError(f"e and k must be nonnegative, got e={e}, k={k}")
    if e > MAX_POWER or k > MAX_POWER:
        raise BudgetExceededError(
            f"A5 oracle supports powers up to {MAX_POWER}, got e={e}, k={k}"
        )
    if e == 0 or k == 0:
        return int(k == 0)
    if e == 1:
        return int((_image_sizes(k) == 60**k).sum())

    # e == 2: k pairs (f_m, g_m) of homomorphisms whose images commute give
    # S1, the image of (f_1, ..., f_k), and S2, that of (g_1, ..., g_k)
    homs, times = _single_homs(), _times()
    a, b = homs[:, None, :, None], homs[None, :, None, :]
    pairs = np.argwhere((times[a, b] == times[b, a]).all(axis=(2, 3)))
    f = g = np.zeros(1, dtype=np.int64)
    for _ in range(k):  # their rows in _images
        f = (f[:, None] * len(homs) + pairs[:, 0]).ravel()
        g = (g[:, None] * len(homs) + pairs[:, 1]).ravel()
    bits, sizes = _images(k)  # 6.7 MB at k = 2, freed on return
    count = 0
    for start in range(0, len(f), 1024):  # 456 KB of rows a chunk at k = 2
        fs, gs = f[start : start + 1024], g[start : start + 1024]
        meet = bits[fs]
        meet &= bits[gs]
        size, meet = sizes[fs] * sizes[gs], _popcount(meet)
        if (size % meet).any():
            raise ConsistencyError("an image of a homomorphism out of A5 is not a subgroup")
        count += int((size == 60**k * meet).sum())
    return count


@lru_cache(maxsize=MAX_POWER)
def _image_sizes(k: int):
    """The orders of the images of the k-tuples of homomorphisms: of _images
    only these are kept, so no caller holds the bit table after it returns."""
    return _images(k)[1]


def _images(k: int):
    """(bits, sizes): row t of bits is the image of the t-th k-tuple of
    homomorphisms, lexicographically, packed as the module describes, and
    sizes[t] is its order. Codes in uint16 hold for k <= 2."""
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


def _popcount(bits):
    """Set bits per row of a uint64 array, one np.bitwise_count per word."""
    return np.bitwise_count(bits).sum(axis=1, dtype="i8")
