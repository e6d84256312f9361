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
    elements = _a5()
    out = []
    for x in elements:
        if _power(x, 5) != _IDENTITY:
            continue
        for y in elements:
            if _power(y, 2) != _IDENTITY:
                continue
            if _power(_compose(x, y), 3) != _IDENTITY:
                continue
            out.append((x, y))
    return out


def hom_a5_count() -> int:
    """|Hom(A5, A5)| by enumeration; the trivial map plus the automorphisms."""
    return len(_single_homs())


def _closure(gens: frozenset[Element]) -> frozenset[Element]:
    seen = {_IDENTITY} | set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _compose(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


@lru_cache(maxsize=1)
def _hom_images() -> list[frozenset[Element]]:
    return [_closure(frozenset(pair)) for pair in _single_homs()]


@lru_cache(maxsize=1)
def _commuting() -> list[list[bool]]:
    """commuting[i][j]: the images of homs i and j commute elementwise."""
    images = _hom_images()
    n = len(images)
    table = [[True] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ok = True
            for a in images[i]:
                for b in images[j]:
                    if _compose(a, b) != _compose(b, a):
                        ok = False
                        break
                if not ok:
                    break
            table[i][j] = table[j][i] = ok
    return table


def _product_set(s1: frozenset, s2: frozenset) -> int:
    """|S1 * S2| = |S1| |S2| / |S1 meet S2| for finite subgroups."""
    inter = len(s1 & s2)
    assert (len(s1) * len(s2)) % inter == 0
    return len(s1) * len(s2) // inter


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
            if _tuple_image_size(combo) == target_size
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
def _tuple_image(combo: tuple[int, ...]) -> frozenset:
    """Image of x -> (f_{c1}(x), ..., f_{ck}(x)) as a set of tuples."""
    maps = [_hom_as_map(c) for c in combo]
    return frozenset(tuple(m[x] for m in maps) for x in _a5())


def _tuple_image_size(combo: tuple[int, ...]) -> int:
    return len(_tuple_image(combo))


@lru_cache(maxsize=256)
def _hom_as_map(idx: int) -> dict[Element, Element]:
    """Extend the generator-image pair to the full map on A5 by closure."""
    x, y = _single_homs()[idx]
    # A5 is generated by a = (0 1 2 3 4) and some b with the presented
    # relations; walk words in the generators to cover the whole group.
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
    return mapping


@lru_cache(maxsize=1)
def _generators() -> tuple[Element, Element]:
    """A pair (a, b) generating A5 with a^5 = b^2 = (ab)^3 = identity."""
    for a in _a5():
        if _power(a, 5) != _IDENTITY or a == _IDENTITY:
            continue
        for b in _a5():
            if b == _IDENTITY or _power(b, 2) != _IDENTITY:
                continue
            if _power(_compose(a, b), 3) != _IDENTITY:
                continue
            if len(_closure(frozenset((a, b)))) == 60:
                return a, b
    raise AssertionError("A5 generators not found")
