"""Brute-force surjection counts for powers of the alternating group A5.

Homomorphisms out of A5 are enumerated through the presentation
<a, b | a^5 = b^2 = (ab)^3 = 1>: a homomorphism to T is exactly a pair
(x, y) in T with x^5 = y^2 = (xy)^3 = 1. A homomorphism out of a power
A5^e is an e-tuple of homomorphisms whose images commute elementwise.

All of it runs on arrays: an element of A5 is its index 0..59 in _a5(),
and a homomorphism A5 -> A5 a row of 60 image indices. Surjections are
counted by their kernels. _kernels(e) lists Hom(A5^e, A5), one row each:
its kernel as a bitset over A5^e, with the element (x_1, ..., x_e) at bit
x_1 60^(e-1) + ... + x_e, packed by np.packbits into 60^e bits padded to
whole 64-bit words; at e = 2 that is 241 rows of 57 words, 110 KB. A
homomorphism A5^e -> A5^k is a k-tuple of rows, and its kernel is the AND
of those rows. By the first isomorphism theorem it is onto exactly when
|ker| 60^k = 60^e. An order is a popcount, one np.bitwise_count per word,
and a kernel whose order does not divide 60^e is no subgroup: the count
refuses it as an inconsistency. The count walks the k-tuples in batches
of whole (k-1)-prefixes, lexicographically, and meets each prefix's kernel
with every row at once.

This module exists to certify the closed-form count
e(e-1)...(e+1-k) * 120**k for the concrete group A5; it is not a general
group-theory library.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .errors import BudgetExceededError, ConsistencyError
from .rationals import clip_int, natural

MAX_POWER = 2  # enumeration budget: e, k beyond this are refused
_BATCH = 2**16  # 64-bit words of kernels a batch of (k-1)-prefixes meets: 512 KB


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
    e, k = natural(e, "e"), natural(k, "k")
    if e > MAX_POWER or k > MAX_POWER:
        raise BudgetExceededError(
            f"A5 oracle supports powers up to {MAX_POWER}, got e={clip_int(e)}, k={clip_int(k)}"
        )
    if e == 0 or k == 0:
        return int(k == 0)
    rows = _kernels(e)
    n, width = rows.shape
    prefixes = itertools.product(range(n), repeat=k - 1)  # lexicographically
    per = max(1, _BATCH // (n * width))  # prefixes a batch: all 121 at e = 1, 4 at e = 2
    count = 0
    while batch := list(itertools.islice(prefixes, per)):
        # the AND of no rows, the empty prefix's kernel, is all ones
        kernels = np.bitwise_and.reduce(rows[np.array(batch, dtype=np.intp)], axis=1)
        sizes = _popcount(kernels[:, None, :] & rows)
        if (sizes < 1).any() or (60**e % sizes).any():
            raise ConsistencyError("a kernel of a homomorphism out of A5**e is not a subgroup")
        count += int((sizes * 60**k == 60**e).sum())
    return count


@lru_cache(maxsize=MAX_POWER)
def _kernels(e: int):
    """Hom(A5**e, A5) for e = 1 or 2, one row each: its kernel, packed as the
    module describes. At e = 1 the rows are those of _maps(); at e = 2 they
    are the pairs (f, g) of them whose images commute, lexicographically,
    taken as (x, y) -> f(x) g(y), whose kernel is where f(x) = g(y)^-1."""
    maps, times = _maps(), _times()
    if e == 1:
        left, right = maps, np.zeros((len(maps), 1), dtype=maps.dtype)  # f(x) = 1
    else:
        homs = _single_homs()
        a, b = homs[:, None, :, None], homs[None, :, None, :]  # generator images
        pairs = np.argwhere((times[a, b] == times[b, a]).all(axis=(2, 3)))
        inverse = times.argmin(axis=1)  # times[i, j] is 0, the identity, only at j = i^-1
        left, right = maps[pairs[:, 0]], inverse[maps[pairs[:, 1]]]
    kernel = (left[:, :, None] == right[:, None, :]).reshape(len(left), 60**e)
    rows = np.zeros((len(left), 8 * -(-(60**e) // 64)), dtype=np.uint8)
    rows[:, : -(-(60**e) // 8)] = np.packbits(kernel, axis=1)
    return rows.view(np.uint64)


def _popcount(bits):
    """Set bits along the last axis of a uint64 array, one np.bitwise_count per word."""
    return np.bitwise_count(bits).sum(axis=-1, dtype="i8")
