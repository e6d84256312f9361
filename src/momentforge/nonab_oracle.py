"""Brute-force surjection counts for powers of the alternating group A5.

Homomorphisms out of A5 are enumerated through the presentation
<a, b | a^5 = b^2 = (ab)^3 = 1>: a homomorphism to T is exactly a pair
(x, y) in T with x^5 = y^2 = (xy)^3 = 1. A homomorphism out of a power
A5^e is an e-tuple of homomorphisms whose images commute elementwise,
and it is surjective when the product of the images is the whole target.

All of it runs on arrays: an element of A5 is its index 0..59 in _a5(),
and a homomorphism A5 -> A5 a row of 60 image indices. The image of a
k-tuple of them, x -> (f_1(x), ..., f_k(x)), is a bitset over A5^k with the
element (i_1, ..., i_k) at the uint16 code i_1 60^(k-1) + ... + i_k, packed
by np.packbits into 60^k bits padded to whole 64-bit words. Its order is a
popcount, one np.bitwise_count per word.

No table of all 121^k images is built. A block is the 121 images of the
k-tuples that share one leading (k-1)-prefix, in lexicographic order, with
their orders: 55 KB at k = 2. A count builds each block it reads once and
drops it when done. For e = 1 it counts the full-size images block by
block. For e = 2, |S1 S2| is |S1| |S2| / |S1 meet S2| over the tuples of
commuting pairs; the count walks the commuting pairs of (k-1)-prefixes, the
lead pairs, a few at a time, taking S1 from the block of the f-lead and S2
from the block of the g-lead.

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
_BATCH = 512  # tuples of commuting pairs an e = 2 batch reads, in whole lead pairs


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
    if type(e) is not int or type(k) is not int:
        raise InputError(
            f"e and k must be of type int, got {type(e).__name__} and {type(k).__name__}"
        )
    if e < 0 or k < 0:
        raise InputError(f"e and k must be nonnegative, got e={e}, k={k}")
    if e > MAX_POWER or k > MAX_POWER:
        raise BudgetExceededError(
            f"A5 oracle supports powers up to {MAX_POWER}, got e={e}, k={k}"
        )
    if e == 0 or k == 0:
        return int(k == 0)
    n = len(_maps())
    if e == 1:
        return sum(int((_block(k, t)[1] == 60**k).sum()) for t in range(n ** (k - 1)))

    # e == 2: k pairs (f_m, g_m) of homomorphisms whose images commute give
    # S1, the image of (f_1, ..., f_k), and S2, that of (g_1, ..., g_k)
    homs, times = _single_homs(), _times()
    a, b = homs[:, None, :, None], homs[None, :, None, :]
    pairs = np.argwhere((times[a, b] == times[b, a]).all(axis=(2, 3)))
    f = g = np.zeros(1, dtype=np.int64)
    for _ in range(k - 1):  # the lead pairs: their (k-1)-prefixes, as block indices
        f = (f[:, None] * n + pairs[:, 0]).ravel()
        g = (g[:, None] * n + pairs[:, 1]).ravel()
    # by the later lead: a block is built when the walk reaches it and held
    # only while a later lead pair reads it (the count holds in any order)
    leads = sorted(zip(f.tolist(), g.tolist()), key=lambda lead: (max(lead), min(lead)))
    per = max(1, _BATCH // len(pairs))  # lead pairs a batch: 2, 482 tuples, at k = 2
    last = {t: i - i % per for i, lead in enumerate(leads) for t in lead}
    width = -(-(60**k) // 64)
    pool = np.empty((1, n, width), dtype=np.uint64)  # the blocks held, one a slot
    sizes = np.empty((1, n), dtype=np.int64)
    held, free = {}, [0]  # block -> its slot; the slots not in use
    # a batch's S1 and S2 rows, reused: a fresh pair each batch faults its
    # pages in again, which costs more than the gathers that fill them
    rows = np.empty((2, per * len(pairs), width), dtype=np.uint64)
    count = 0
    for start in range(0, len(leads), per):
        batch = leads[start : start + per]
        for t in itertools.chain.from_iterable(batch):
            if t not in held:
                if not free:
                    free = list(range(len(pool), 2 * len(pool)))
                    pool, sizes = np.concatenate((pool, pool)), np.concatenate((sizes, sizes))
                held[t] = free.pop()
                pool[held[t]], sizes[held[t]] = _block(k, t)
        slots = np.array([[held[t] * n for t in lead] for lead in batch])
        fs = (slots[:, :1] + pairs[:, 0]).ravel()
        gs = (slots[:, 1:] + pairs[:, 1]).ravel()
        s1, s2 = rows[0, : len(fs)], rows[1, : len(fs)]
        # mode="clip" skips take's buffered bounds check; every index is a row of the pool
        np.take(pool.reshape(-1, width), fs, axis=0, out=s1, mode="clip")
        np.take(pool.reshape(-1, width), gs, axis=0, out=s2, mode="clip")
        size = sizes.ravel()[fs] * sizes.ravel()[gs]
        meet = _popcount(np.bitwise_and(s1, s2, out=s1))
        if (size % meet).any():
            raise ConsistencyError("an image of a homomorphism out of A5 is not a subgroup")
        count += int((size == 60**k * meet).sum())
        for t in [t for t in held if last[t] == start]:
            free.append(held.pop(t))
    return count


def _block(k: int, t: int):
    """(bits, sizes): row j of bits is the image of the k-tuple of
    homomorphisms whose (k-1)-prefix is the t-th, lexicographically, and
    whose last member is the j-th, packed as the module describes; sizes[j]
    is its order. Codes in uint16 hold for k <= 2."""
    maps = _maps().astype(np.uint16)
    n = len(maps)
    prefix = np.zeros(60, dtype=np.uint16)  # the empty tuple sends x to ()
    for i in reversed(range(k - 1)):
        prefix = prefix * 60 + maps[t // n**i % n]
    stride = 64 * -(-(60**k) // 64)  # bits a row, padded to whole 64-bit words
    image = np.zeros(n * stride, dtype=bool)
    image[prefix * 60 + maps + np.arange(0, n * stride, stride)[:, None]] = True
    bits = np.packbits(image.reshape(n, stride), axis=1).view(np.uint64)
    return bits, _popcount(bits)


def _popcount(bits):
    """Set bits per row of a uint64 array, one np.bitwise_count per word."""
    return np.bitwise_count(bits).sum(axis=1, dtype="i8")
