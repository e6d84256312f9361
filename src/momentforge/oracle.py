"""Brute-force oracles for the closed forms of finab and localize: each is
deliberately dumb, enumerates, is metered by the Budget it reads from
MOMENTFORGE_BUDGET once per call, and is used only to check a closed form.
hom_count_bruteforce, aut_bruteforce and sur_bruteforce check hom_count,
aut_count and sur_count; kernel_pair_count and mu_local_direct the
extension-class sums of localized_moments; surjective_matrix_counts, one
walk for every row count up to k, the abelian surjection formula. The A5
oracle is in nonab_oracle, and extension_class_count's, a join of enumerated
embeddings and surjections, lives with the tests.

Every oracle that walks homomorphisms gets them from one enumerator,
_hom_images, which yields generator images (any element of B, found by
scanning B, that the generator order kills). No element of A is mapped: each
oracle reads F_p ranks of the images at each prime p from masks of their
spans (_span_ranks), of socle rows p**(a-1) phi(e) in B[p] for injectivity
and kernel ranks and of Frattini rows phi(e) mod p in B/pB for surjectivity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterator

import numpy as np

from .budget import ENV_VAR, Budget, budget_from_env
from .errors import BudgetExceededError, InputError
from .finab import FinAbGroup, Measure
from .qseries import is_prime
from .rationals import clip_int, natural

_BLOCK = 1 << 16  # candidate homomorphisms per block


@lru_cache(maxsize=1024)
def _killed_by(B: FinAbGroup, d: int) -> np.ndarray:
    """Coordinates in B of the elements y with d*y = 0, by scanning all of B."""
    coords = np.indices(B.cyclic_moduli, dtype=np.int64).reshape(-1, B.order).T
    return coords[(coords * d % np.array(B.cyclic_moduli, dtype=np.int64) == 0).all(axis=1)]


@lru_cache(maxsize=8)
def _fp_tables(p: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(sub, mul) for F_p**c, a vector coded base p, first coordinate most
    significant: sub[x, w] codes x - w and mul[s, v] codes s*v."""
    place = p ** np.arange(c - 1, -1, -1, dtype=np.int64)
    digits = np.unravel_index(np.arange(p**c), (p,) * c)  # one array per coordinate
    sub = sum((d[:, None] - d) % p * w for d, w in zip(digits, place))
    mul = sum(np.arange(p)[:, None] * d % p * w for d, w in zip(digits, place))
    return sub, mul


def _inner(choices: list[np.ndarray]) -> int:
    """The last generator with the most choices, or -1 for a trivial A."""
    return max(range(len(choices)), key=lambda i: (len(choices[i]), i), default=-1)


def _hom_images(
    A: FinAbGroup, B: FinAbGroup, budget: Budget, what: str
) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """Every homomorphism A -> B once, as pairs (choices, block): candidate t
    of the block sends generator i of A to choices[i][block[t, i]], and
    choices[i] holds every element of B killed by the order of generator i,
    so every tuple is a homomorphism. Blocks run through the tuples
    lexicographically with the _inner generator varying fastest, in whole
    runs of its choices, so _span_ranks handles the others once per run.
    Both orders and the number of tuples are metered by the budget, naming
    `what`, before anything is built.

    The trailing generators whose tuples fit in one block form a grid that
    every block holds whole; a block repeats it once per tuple of the
    leading generators, which alone are read off the tuple's index."""
    budget.check_order(A.order, what)
    budget.check_order(B.order, what)
    choices = [_killed_by(B, d) for d in A.cyclic_moduli]
    total = prod(len(ch) for ch in choices)
    budget.check_candidates(total, what)
    inner = _inner(choices)
    digits = sorted(range(len(choices)), key=lambda i: i == inner)  # inner last
    radix = [len(choices[i]) for i in digits]
    lead = len(digits) - 1 if digits else 0  # the grid holds digits[lead:]
    while lead > 0 and prod(radix[lead - 1 :]) <= _BLOCK:
        lead -= 1
    shape = radix[lead:]
    size = prod(shape)
    step = max(1, _BLOCK // size) * size
    for start in range(0, total, step):
        reps = min(step, total - start) // size
        # Fortran order makes each column contiguous, so it reshapes to a view
        # (reps, *shape) that takes one of these arrays, one per axis, by broadcasting
        block = np.empty((reps * size, len(choices)), dtype=np.int64, order="F")
        axes = np.indices((reps, *shape), dtype=np.int64, sparse=True)
        rest = axes[0] + start // size  # the index of each grid copy
        for i in reversed(digits[:lead]):  # the last digit varies fastest
            rest, digit = np.divmod(rest, len(choices[i]))
            block[:, i].reshape(reps, *shape)[:] = digit
        for i, axis in zip(digits[lead:], axes[1:]):
            block[:, i].reshape(reps, *shape)[:] = axis
        yield choices, block


def _span_ranks(
    A: FinAbGroup,
    B: FinAbGroup,
    choices: list[np.ndarray],
    block: np.ndarray,
    primes: tuple[int, ...],
    socle: bool,
) -> np.ndarray:
    """ranks[t, j]: F_p-rank, p = primes[j], of the rows candidate t of a
    _hom_images block gives, one per cyclic factor Z/p**a of A with
    generator e. Socle rows are p**(a-1) phi(e) in B[p], a factor Z/p**b of
    B read as F_p through its multiples of p**(b-1); Frattini rows (socle
    False) are phi(e) mod p in B_p/pB_p. So phi is injective at p iff its
    socle rank is rank_p(A), onto at p iff its Frattini rank is rank_p(B)
    (Burnside basis theorem), and rank_p(ker phi) = rank_p(A) - socle rank.

    A row is its _fp_tables code in [0, p**c), c = rank_p(B). Along a run of
    the block only the _inner generator's row moves, so each run keeps a
    boolean mask over F_p**c of the span of the other rows, grown by a row v
    with p - 1 gathers through the difference table; the inner row then adds
    ~span[run, code] to the rank, one gather per candidate. The inner
    generator has at least p**c choices, so the masks are no larger than the
    block, and the table, p**2c entries, is built only for a second row at
    p, when the search has p**2c candidates."""
    gens = [(p, a) for p, parts in A.components for a in parts]
    inner = _inner(choices)
    runs = len(choices[inner]) if choices else 1
    ranks = np.zeros((len(block) // runs, runs, len(primes)), dtype=np.int64)
    for j, p in enumerate(primes):
        c = B.rank(p)
        rows = [i for i, (q, _) in enumerate(gens) if q == p and i != inner]
        inner_at_p = bool(choices) and gens[inner][0] == p
        if not c or not (rows or inner_at_p):
            continue  # no p-part in B or in A, so the rank at p is 0
        span = np.zeros((len(ranks), p**c), dtype=bool)
        span[:, 0] = True
        flat, base = span.ravel(), np.arange(0, span.size, p**c)
        for n, i in enumerate(rows):
            v = _row_codes(B, p, gens[i][1], socle)[block[::runs, i]]
            ranks[..., j] += ~flat[base + v][:, None]
            if n + 1 < len(rows) or inner_at_p:
                sub, mul = _fp_tables(p, c)
                for s in range(1, p):  # spans are symmetric: s*v - x serves for x - s*v
                    span |= flat[sub[mul[s, v]] + base[:, None]]
        if inner_at_p:
            ranks[..., j] += ~span[:, _row_codes(B, p, gens[inner][1], socle)]
    return ranks.reshape(len(block), len(primes))


@lru_cache(maxsize=2048)  # two for each _killed_by table
def _row_codes(B: FinAbGroup, p: int, a: int, socle: bool) -> np.ndarray:
    """The _fp_tables code of the row a generator of order p**a gives in
    _span_ranks, for each of its choices in _killed_by(B, p**a) order."""
    factors = [(q, b) for q, parts in B.components for b in parts]
    cols = [c for c, (q, _) in enumerate(factors) if q == p]
    low = np.array([p ** (factors[c][1] - 1) for c in cols], dtype=np.int64)
    place = p ** np.arange(len(cols) - 1, -1, -1, dtype=np.int64)
    y = _killed_by(B, p**a)[:, cols]
    return (y * p ** (a - 1) // low % p if socle else y % p) @ place


def _onto(A: FinAbGroup, B: FinAbGroup, choices: list[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Which candidates of a block map A onto B: onto B/pB at each prime p."""
    ranks = _span_ranks(A, B, choices, block, B.primes, socle=False)
    return (ranks == [B.rank(p) for p in B.primes]).all(axis=1)


def hom_count_bruteforce(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Hom(A, B)| by scanning B's elements for each generator order of A."""
    budget = budget_from_env()
    what = f"hom enumeration {A} -> {B}"
    budget.check_order(A.order, what)
    budget.check_order(B.order, what)
    return prod(len(_killed_by(B, d)) for d in A.cyclic_moduli)


def aut_bruteforce(A: FinAbGroup) -> int:
    """|Aut(A)| by enumerating endomorphisms and keeping the bijective ones:
    those injective on the socle A[p] at every prime p."""
    full = [A.rank(p) for p in A.primes]
    return sum(
        int((_span_ranks(A, A, choices, block, A.primes, socle=True) == full).all(axis=1).sum())
        for choices, block in _hom_images(A, A, budget_from_env(), f"aut enumeration {A}")
    )


def sur_bruteforce(A: FinAbGroup, B: FinAbGroup) -> int:
    """Exact |Sur(A, B)| by exhausting generator-image tuples.

    Surjectivity test: a hom is onto iff it is onto B/pB at every prime p.
    """
    return _sur_bruteforce_cached(A, B, budget_from_env())


@lru_cache(maxsize=65536)  # the budget keys it too, so a smaller cap still refuses
def _sur_bruteforce_cached(A: FinAbGroup, B: FinAbGroup, budget: Budget) -> int:
    blocks = _hom_images(A, B, budget, f"surjection enumeration {A} -> {B}")
    return sum(int(_onto(A, B, choices, block).sum()) for choices, block in blocks)


@lru_cache(maxsize=4096)  # the budget keys it too, so a smaller cap still refuses
def _kernel_profile(X: FinAbGroup, M: FinAbGroup, budget: Budget) -> tuple:
    """For each surjection X ->> M, the semisimplification of its kernel.

    Returns ((elementary_group, multiplicity), ...): how many surjections
    have a kernel whose quotient mod the radical is that group, read off
    the p-ranks of the kernels: rank_p(X) minus the rank on the socle X[p],
    counted as mixed-radix codes with digit j in [0, rank_p(X)], p = X.primes[j].
    """
    dims = [X.rank(p) + 1 for p in X.primes]
    place = np.array([prod(dims[j + 1 :]) for j in range(len(dims))], dtype=np.int64)
    top, counts = np.array(dims, dtype=np.int64) - 1, np.zeros(prod(dims), dtype=np.int64)
    for choices, block in _hom_images(X, M, budget, f"kernel enumeration {X} -> {M}"):
        onto = _onto(X, M, choices, block)
        ranks = top - _span_ranks(X, M, choices, block, X.primes, socle=True)[onto]
        counts += np.bincount(ranks @ place, minlength=len(counts))
    profile = []
    for code, n in enumerate(counts.tolist()):
        if n:
            comps = []
            for p, d in zip(reversed(X.primes), reversed(dims)):
                code, r = divmod(code, d)
                if r:
                    comps.append((p, (1,) * r))
            profile.append((FinAbGroup(tuple(reversed(comps))), n))
    return tuple(sorted(profile, key=lambda kv: kv[0].sort_key()))


def surjection_kernel_profile(X: FinAbGroup, M: FinAbGroup) -> dict[FinAbGroup, int]:
    """Multiset of semisimplified kernels over all surjections X ->> M."""
    return dict(_kernel_profile(X, M, budget_from_env()))


def kernel_pair_count(X: FinAbGroup, M: FinAbGroup, N: FinAbGroup) -> int:
    """Number of pairs (pi: X ->> M, f: (ker pi)/rad ->> N), by enumeration."""
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    budget = budget_from_env()
    out = 0
    for ker_ss, mult in _kernel_profile(X, M, budget):
        out += mult * _sur_bruteforce_cached(ker_ss, N, budget)
    return out


def mu_local_direct(mu: Measure, M: FinAbGroup, N: FinAbGroup) -> Fraction:
    """Mass the localized measure at M puts on N, by brute force.

    Integrates, over the support of mu, the number of surjections
    pi: X ->> M whose kernel semisimplifies to N. Oracle for
    localize.localized_moments; its enumeration is metered by the Budget
    from the environment.
    """
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    out = Fraction(0)
    for X, mass in mu.items():
        profile = surjection_kernel_profile(X, M)
        count = profile.get(N, 0)
        if count:
            out += mass * count
    return out


def surjective_matrix_counts(h: int, e: int, k: int) -> list[int]:
    """Brute-force counts of surjective j x e matrices over the h-element
    field for j = 0..k, from one walk.

    Walks all tuples of linearly independent rows level by level, keeping
    the span of each prefix as a bitmask; prefixes with the same span are
    merged into one row that carries their number. The count at j sums,
    over every independent (j-1)-prefix, the vectors outside its span, so
    the walk stops at level k and meters each level it expands, as a walk
    for k alone would. Independent of the closed-form product it is used
    to check.
    """
    if not is_prime(natural(h, "h", 2)):  # is_prime bounds h
        raise InputError(f"matrix oracle needs a prime field size, got h={h}")
    e, k = natural(e, "e"), natural(k, "k")
    if k == 0 or e == 0:
        return [1] + [0] * k
    budget, what = budget_from_env(), f"matrix oracle over F_{h}^{clip_int(e)}"
    if e >= budget.max_order.bit_length():  # h**e >= 2**e > max_order: refuse it unformed
        raise BudgetExceededError(
            f"{what}: group order {h}**{clip_int(e)} exceeds the element-table cap of "
            f"{budget.max_order} (override with {ENV_VAR})")
    n = h**e
    budget.check_order(n, what)
    budget.check_candidates(n * n, f"matrix oracle difference table over F_{h}^{e}")

    sub, mul = _fp_tables(h, e)
    spans = np.zeros((1, n), dtype=bool)
    spans[0, 0] = True
    mult = np.ones(1, dtype=np.int64)  # prefixes with each span
    counts = [1]
    for level in range(k):
        valid = ~spans
        counts.append(sum(m * o for m, o in zip(mult.tolist(), valid.sum(axis=1).tolist())))
        if level == k - 1:
            return counts
        budget.check_candidates(counts[-1], f"matrix oracle level {level + 1}")
        parent, vec = np.nonzero(valid)
        children, flat = spans[parent], spans.ravel()
        chunk = _BLOCK // n + 1  # children whose gather indices make about _BLOCK entries
        for lo in range(0, len(parent), chunk):
            part = slice(lo, lo + chunk)
            base = (parent[part] * n)[:, None]
            for c in range(1, h):  # spans are symmetric, so c*v - x serves for x - c*v
                children[part] |= flat[sub[mul[c, vec[part]]] + base]
        spans, inverse = _distinct_rows(children)
        weights, mult = mult[parent], np.zeros(len(spans), dtype=np.int64)
        np.add.at(mult, inverse, weights)
    raise AssertionError("unreachable")


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean array, in some order, and for each
    row the index of its copy among them, by sorting the rows packed into
    64-bit words."""
    packed = np.packbits(rows, axis=1)
    words = np.zeros((len(rows), -(-packed.shape[1] // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    order = np.lexsort(words.T)
    ordered = words[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse
