"""Element-table oracles: the reference for the oracles in momentforge.oracle.

Each function here maps every element of A under every candidate
homomorphism A -> B and reads injectivity, surjectivity and kernels off the
images, with no linear algebra. The package's oracles decide the same
questions from F_p spans of generator images; the tests require both routes
to agree, refusals included, so the enumeration below is metered exactly as
oracle._hom_images is.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from typing import Iterator

import numpy as np

from momentforge.budget import Budget, resolve
from momentforge.finab import FinAbGroup

CHUNK_ENTRIES = 4_000_000  # target size for vectorized evaluation chunks


class Table:
    """Element table of a group: mixed-radix coordinates per cyclic factor,
    the last factor varying fastest."""

    def __init__(self, group: FinAbGroup):
        moduli = group.cyclic_moduli
        self.moduli = np.array(moduli, dtype=np.int64)
        self.coords = np.indices(moduli, dtype=np.int64).reshape(len(moduli), group.order).T

    def torsion_mask(self, d: int) -> np.ndarray:
        """Boolean mask of elements y with d*y = 0."""
        return ((self.coords * d) % self.moduli == 0).all(axis=1)


@lru_cache(maxsize=256)
def table(group: FinAbGroup) -> Table:
    return Table(group)


def hom_images(A: FinAbGroup, B: FinAbGroup, budget: Budget, what: str) -> Iterator[np.ndarray]:
    """Every homomorphism A -> B, as blocks vals[t, x, c]: coordinate c in B
    of the image of element x of A under candidate t of the block."""
    budget.check_order(A.order, what)
    budget.check_order(B.order, what)
    ta, tb = table(A), table(B)
    choices = [np.flatnonzero(tb.torsion_mask(d)) for d in A.cyclic_moduli]
    total = prod(len(ch) for ch in choices)
    budget.check_candidates(total, what)
    rows = max(1, CHUNK_ENTRIES // (A.order * max(1, len(tb.moduli))))
    for start in range(0, total, rows):
        rest = np.arange(start, min(start + rows, total), dtype=np.int64)
        block = np.empty((len(rest), len(choices)), dtype=np.int64)
        for i in range(len(choices) - 1, -1, -1):  # lexicographic digits
            rest, digit = np.divmod(rest, len(choices[i]))
            block[:, i] = choices[i][digit]
        yield np.einsum("xi,tic->txc", ta.coords, tb.coords[block]) % tb.moduli


def aut_by_tables(A: FinAbGroup, budget: Budget | None = None) -> int:
    """|Aut(A)|: endomorphisms whose kernel is the zero element alone."""
    count = 0
    for vals in hom_images(A, A, resolve(budget), f"aut enumeration {A}"):
        count += int(((vals == 0).all(axis=2).sum(axis=1) == 1).sum())
    return count


def sur_by_tables(A: FinAbGroup, B: FinAbGroup, budget: Budget | None = None) -> int:
    """|Sur(A, B)|: homomorphisms with |A| / |kernel| = |B|."""
    count = 0
    for vals in hom_images(A, B, resolve(budget), f"surjection enumeration {A} -> {B}"):
        count += int(((vals == 0).all(axis=2).sum(axis=1) * B.order == A.order).sum())
    return count


def kernel_profile_by_tables(
    X: FinAbGroup, M: FinAbGroup, budget: Budget | None = None
) -> dict[FinAbGroup, int]:
    """Multiset of semisimplified kernels over all surjections X ->> M, the
    p-rank of each kernel read off the number of its elements of order
    dividing p."""
    counts: Counter[tuple[int, ...]] = Counter()
    for vals in hom_images(X, M, resolve(budget), f"kernel enumeration {X} -> {M}"):
        kernel = (vals == 0).all(axis=2)
        ker = kernel[kernel.sum(axis=1) * M.order == X.order]
        ranks = np.zeros((len(ker), len(X.primes)), dtype=np.int64)
        for j, p in enumerate(X.primes):
            tor = ker @ table(X).torsion_mask(p).astype(np.int64)
            r = ranks[:, j]
            while (p**r < tor).any():
                r += p**r < tor
            assert (p**r == tor).all(), f"kernel torsion count not a power of {p}"
        counts.update(map(tuple, ranks.tolist()))
    return {
        FinAbGroup.from_dict({p: [1] * r for p, r in zip(X.primes, row)}): n
        for row, n in counts.items()
    }


def extension_pair_count_direct(
    N: FinAbGroup, middle: FinAbGroup, M: FinAbGroup, budget: Budget | None = None
) -> int:
    """Same count as finab.extension_pair_count by the dumbest route:
    enumerate embeddings and surjections separately and join on the
    image/kernel set. Cost grows with |M'|**rank(N)."""
    budget = resolve(budget)
    moduli = middle.cyclic_moduli
    strides = np.array([prod(moduli[c + 1 :]) for c in range(len(moduli))], dtype=np.int64)
    images: Counter[bytes] = Counter()  # image of N, as a bit set on middle
    for vals in hom_images(N, middle, budget, f"embedding enumeration {N} -> {middle}"):
        hit = np.zeros((len(vals), middle.order), dtype=bool)
        hit[np.arange(len(vals))[:, None], vals @ strides] = True
        injective = hit.sum(axis=1) == N.order
        images.update(row.tobytes() for row in np.packbits(hit[injective], axis=1))
    out = 0
    for vals in hom_images(middle, M, budget, f"surjection enumeration {middle} -> {M}"):
        kernel = (vals == 0).all(axis=2)
        surj = kernel.sum(axis=1) * M.order == middle.order
        out += sum(images[row.tobytes()] for row in np.packbits(kernel[surj], axis=1))
    return out
