"""Brute-force surjection counts for powers of the alternating group A5.

Homomorphisms out of A5 are enumerated through the presentation
<a, b | a^5 = b^2 = (ab)^3 = 1>: a homomorphism to T is exactly a pair
(x, y) in T with x^5 = y^2 = (xy)^3 = 1. A homomorphism out of a power
A5^e is an e-tuple of homomorphisms whose images commute elementwise,
and it is surjective when the product of the images is the whole target.

This module exists to certify the closed-form count
e(e-1)...(e+1-k) * 120**k for the concrete group A5; it is not a general
group-theory library.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BudgetExceededError, ConsistencyError, InputError

MAX_POWER = 2  # enumeration budget: e, k beyond this are refused

Element = tuple[int, int, int, int, int]

_IDENTITY: Element = (0, 1, 2, 3, 4)


def _parity(perm: Element) -> int:
    seen = [False] * 5
    sign = 0
    for i in range(5):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        sign += length - 1
    return sign % 2


def _compose(p: Element, q: Element) -> Element:
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]], p[q[4]])


def _power(p: Element, n: int) -> Element:
    out = _IDENTITY
    for _ in range(n):
        out = _compose(out, p)
    return out


@lru_cache(maxsize=1)
def _a5() -> list[Element]:
    """The elements of A5, the even permutations of {0,...,4}."""
    return [p for p in itertools.permutations(range(5)) if _parity(p) == 0]


@lru_cache(maxsize=1)
def _single_homs() -> list[tuple[Element, Element]]:
    """All relation-satisfying generator-image pairs, i.e. Hom(A5, A5)."""
    return [
        (x, y)
        for x in _a5()
        for y in _a5()
        if _power(x, 5) == _power(y, 2) == _power(_compose(x, y), 3) == _IDENTITY
    ]


def hom_a5_count() -> int:
    """|Hom(A5, A5)| by enumeration; the trivial map plus the automorphisms."""
    return len(_single_homs())


@lru_cache(maxsize=1)
def _commuting() -> list[list[bool]]:
    """commuting[i][j]: the images of homs i and j commute elementwise, that
    is, each generator image of hom i commutes with each one of hom j."""
    homs = _single_homs()
    return [
        [all(_compose(a, b) == _compose(b, a) for a in f for b in g) for g in homs]
        for f in homs
    ]


def _product_set(s1: int, s2: int) -> int:
    """|S1 * S2| = |S1| |S2| / |S1 meet S2| for finite subgroups, each given
    as a bit set of element codes."""
    size = s1.bit_count() * s2.bit_count()
    inter = (s1 & s2).bit_count()
    assert size % inter == 0
    return size // inter


def sur_a5_bruteforce(e: int, k: int) -> int:
    """Exact |Sur(A5**e, A5**k)| for e, k <= 2, by enumeration."""
    if e < 0 or k < 0:
        raise InputError(f"e and k must be nonnegative, got e={e}, k={k}")
    if e > MAX_POWER or k > MAX_POWER:
        raise BudgetExceededError(
            f"A5 oracle supports powers up to {MAX_POWER}, got e={e}, k={k}"
        )
    target_size = 60**k
    if e == 0:
        return 1 if k == 0 else 0
    n = len(_single_homs())

    # A hom A5**e -> A5**k is an e-tuple of k-tuples of single homs, with
    # the commuting constraint applied per target component.
    if e == 1:
        if k == 0:
            return 1
        return sum(
            1
            for combo in itertools.product(range(n), repeat=k)
            if _tuple_image(combo).bit_count() == target_size
        )

    # e == 2
    commuting = _commuting()
    pairs_per_component = [
        (i, j) for i in range(n) for j in range(n) if commuting[i][j]
    ]
    if k == 0:
        return 1
    count = 0
    for combos in itertools.product(pairs_per_component, repeat=k):
        f_combo = tuple(c[0] for c in combos)
        g_combo = tuple(c[1] for c in combos)
        s1 = _tuple_image(f_combo)
        s2 = _tuple_image(g_combo)
        if _product_set(s1, s2) == target_size:
            count += 1
    return count


@lru_cache(maxsize=32768)
def _tuple_image(combo: tuple[int, ...]) -> int:
    """Image of x -> (f_{c1}(x), ..., f_{ck}(x)) as a bit set over A5**k,
    where the tuple of element indices (i_1, ..., i_k) has code
    i_1 + 60 i_2 + ... + 60**(k-1) i_k."""
    codes, place = [0] * 60, 1
    for c in combo:
        codes = [code + place * image for code, image in zip(codes, _hom_as_map(c))]
        place *= 60
    image = 0
    for code in codes:
        image |= 1 << code
    return image


@lru_cache(maxsize=256)
def _hom_as_map(idx: int) -> list[int]:
    """Extend the generator-image pair to the full map on A5 by closure:
    entry i is the index in _a5() of the image of element i."""
    x, y = _single_homs()[idx]
    # walk words in the generators; reaching all 60 elements confirms that
    # they generate A5
    gen_a, gen_b = _generators()
    mapping = {_IDENTITY: _IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for g, img in ((gen_a, x), (gen_b, y)):
                wn = _compose(w, g)
                val = _compose(mapping[w], img)
                known = mapping.get(wn)
                if known is None:
                    mapping[wn] = val
                    nxt.append(wn)
                elif known != val:
                    raise ConsistencyError(
                        f"relation pair {(x, y)} does not extend to a map on A5"
                    )
        frontier = nxt
    assert len(mapping) == 60
    index = {g: i for i, g in enumerate(_a5())}
    return [index[mapping[g]] for g in _a5()]


@lru_cache(maxsize=1)
def _generators() -> tuple[Element, Element]:
    """A pair (a, b) generating A5 with a^5 = b^2 = (ab)^3 = identity: any
    relation pair but the trivial one, since A5 is simple."""
    return next(pair for pair in _single_homs() if pair != (_IDENTITY, _IDENTITY))
