"""Finite abelian groups in canonical form, their closed-form counts, and
the brute-force oracles those counts are checked against.

A group is stored per prime as a weakly decreasing partition of cyclic
exponents, so Z/4 x Z/2 x Z/3 is {2: (2, 1), 3: (1,)}. The canonical form
is unique per isomorphism class, which lets groups serve as dict keys for
measures and moment tables.

Every group is bounded: FinAbGroup and group_components refuse one whose sum
over p of (sum of exponents) * ceil(log2 p), read off the exponents without
forming p**a, passes MAX_ORDER_BITS = 2048. So every order is below 2**2048 <
10**617 and prints under any digit limit Python allows (640 or more), far
above the groups a localization reads: M plus a vertical strip at each prime.

Production counts are closed forms on these partitions: hom_count,
aut_count, and the Hall numbers g^lambda_{mu,(1^m)}(p) of Macdonald,
Symmetric Functions and Hall Polynomials, ch. II (4.6), from which
sur_count, extension_pair_count and candidate_middles follow. None of them
enumerates group elements, so none is metered by a Budget.

Beside each closed form sits its oracle (hom_count_bruteforce,
aut_bruteforce, sur_bruteforce, kernel_pair_count, count_surjective_matrices;
extension_pair_count's lives with the tests). Every oracle that walks
homomorphisms gets them from one enumerator, _hom_images, which meters the
search by a Budget and yields generator images (any element of B, found by
scanning B, that the generator order kills). No element of A is mapped: each
oracle reads F_p ranks of the images at each prime p from masks of their
spans (_span_ranks), of socle rows p**(a-1) phi(e) in B[p] for injectivity
and kernel ranks and of Frattini rows phi(e) mod p in B/pB for surjectivity.
The oracles are deliberately dumb and used only to check the closed forms.
Only they need numpy, and they import it when they run, so the closed-form
path never loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .budget import Budget, resolve
from .errors import ConsistencyError, InputError
from .qseries import is_prime, q_binomial

if TYPE_CHECKING:
    import numpy as np

def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples; () for n = 0."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


# per prime, increasing: the weakly decreasing exponent partition
Components = tuple[tuple[int, tuple[int, ...]], ...]

# bound on sum_p (sum of exponents at p) * ceil(log2 p), and so on log2 |G|
MAX_ORDER_BITS = 2048


def _too_large(comps: Components, bits: int) -> InputError:
    """The refusal of a group past MAX_ORDER_BITS, named by its first Z/p^a factors."""
    names = [f"Z/{p}^{a}" if a > 1 else f"Z/{p}" for p, parts in comps for a in parts]
    return InputError(
        f"group {' x '.join(names[:8])}{' x ...' * (len(names) > 8)} is too large: "
        f"its order has up to {bits} bits, past the bound of {MAX_ORDER_BITS}"
    )


@dataclass(frozen=True)
class FinAbGroup:
    """Canonical form of a finite abelian group.

    components maps each prime (in increasing order) to its weakly
    decreasing exponent partition. No prime appears with an empty
    partition, so the trivial group is the empty tuple.
    """

    components: Components

    def __post_init__(self) -> None:
        last_p = bits = 0
        for p, parts in self.components:
            if p <= last_p:
                raise InputError(f"primes must be strictly increasing, got {self.components}")
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
            if not parts:
                raise InputError(f"empty partition for prime {p}")
            if parts[-1] < 1 or tuple(sorted(parts, reverse=True)) != parts:
                raise InputError(f"partition for prime {p} must be weakly decreasing >= 1")
            bits += sum(parts) * (p - 1).bit_length()  # ceil(log2 p)
            last_p = p
        if bits > MAX_ORDER_BITS:
            raise _too_large(self.components, bits)

    @classmethod
    def from_dict(cls, comps: Mapping[int, Sequence[int]]) -> "FinAbGroup":
        items = []
        for p in sorted(comps):
            parts = tuple(sorted((int(a) for a in comps[p]), reverse=True))
            if parts:
                items.append((int(p), parts))
        return cls(tuple(items))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(())

    @classmethod
    def elementary(cls, p: int, rank: int) -> "FinAbGroup":
        if rank == 0:
            return cls.trivial()
        return cls(((p, (1,) * rank),))

    @classmethod
    def from_orders(cls, *orders: int) -> "FinAbGroup":
        """Group from cyclic factor orders, e.g. from_orders(12, 2) = Z/12 x Z/2."""
        comps: dict[int, list[int]] = {}
        for n in orders:
            if n < 1:
                raise InputError(f"cyclic order must be >= 1, got {n}")
            m, d = n, 2
            while d * d <= m:
                if m % d == 0:
                    a = 0
                    while m % d == 0:
                        m //= d
                        a += 1
                    comps.setdefault(d, []).append(a)
                d += 1
            if m > 1:
                comps.setdefault(m, []).append(1)
        return cls.from_dict(comps)

    @property
    def order(self) -> int:
        return prod(p ** sum(parts) for p, parts in self.components)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.components)

    def partition(self, p: int) -> tuple[int, ...]:
        for q, parts in self.components:
            if q == p:
                return parts
        return ()

    def rank(self, p: int) -> int:
        return len(self.partition(p))

    def conjugate(self, p: int) -> tuple[int, ...]:
        """Conjugate partition at p: entry j counts parts >= j+1."""
        return _conjugate(self.partition(p))

    @property
    def is_trivial(self) -> bool:
        return not self.components

    @property
    def is_semisimple(self) -> bool:
        """True when every cyclic factor is of prime order."""
        return all(all(a == 1 for a in parts) for _, parts in self.components)

    @property
    def cyclic_moduli(self) -> tuple[int, ...]:
        """Orders of the canonical cyclic factors, primes ascending."""
        return tuple(p**a for p, parts in self.components for a in parts)

    def to_json_obj(self) -> dict:
        return {str(p): list(parts) for p, parts in self.components}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FinAbGroup":
        """Group from JSON like {"2": [2, 1], "3": [1]}; see group_components."""
        return cls(group_components(obj))

    def __str__(self) -> str:
        return " x ".join(f"Z/{p**a}" for p, parts in self.components for a in parts) or "0"

    def sort_key(self):
        return (self.order, self.components)


@lru_cache(maxsize=1024)
def _json_prime(key: str) -> int | None:
    """The integer a group-JSON key spells in ASCII digits, else None."""
    return int(key) if key.isascii() and key.isdigit() else None  # not "1_1", " 3", "٣"


def group_components(obj) -> Components:
    """FinAbGroup components of group JSON like {"2": [2, 1], "3": [1]}: prime
    keys, lists of integer exponents in any order. Canonicalizes in one pass
    and makes every check FinAbGroup makes, MAX_ORDER_BITS included, so the
    result can key a group that is never built. Floats, booleans and strings
    are rejected, not truncated, and so are prime keys that int() would bend,
    such as "1_1" or " 3"."""
    if not isinstance(obj, dict):
        raise InputError(f"group JSON must be an object, got {obj!r}")
    comps: dict[int, tuple[int, ...]] = {}
    for key, parts in obj.items():
        try:
            p = _json_prime(key) if isinstance(key, str) else None
        except ValueError:  # past sys.get_int_max_str_digits()
            raise InputError(f"bad group JSON: a {len(key)}-digit prime key is too large") from None
        if p is None:
            raise InputError(f"bad group JSON {obj!r}: prime {key!r} is not a decimal integer")
        if not isinstance(parts, (list, tuple)):
            raise InputError(f"bad group JSON {obj!r}: exponents must be a list of integers")
        for a in parts:
            if type(a) is not int:
                raise InputError(f"bad group JSON {obj!r}: exponents must be a list of integers")
        if p in comps:
            raise InputError(f"bad group JSON {obj!r}: prime {p} appears twice")
        comps[p] = tuple(sorted(parts, reverse=True))
    out, bits = [], 0
    for p in sorted(comps):
        parts = comps[p]
        if parts:
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
            if parts[-1] < 1:
                raise InputError(f"partition for prime {p} must be weakly decreasing >= 1")
            bits += sum(parts) * (p - 1).bit_length()
            out.append((p, parts))
    if bits > MAX_ORDER_BITS:
        raise _too_large(out, bits)
    return tuple(out)


def enumerate_groups(primes: Iterable[int], order_bound: int) -> list[FinAbGroup]:
    """All groups supported on `primes` of order <= order_bound, each once,
    sorted by (order, partition data)."""
    ps = tuple(sorted(set(int(p) for p in primes)))
    for p in ps:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    if order_bound < 1:
        raise InputError(f"order_bound must be >= 1, got {order_bound}")
    return list(_enumerate_cached(ps, order_bound))


@lru_cache(maxsize=1024)
def _enumerate_cached(ps: tuple[int, ...], order_bound: int) -> tuple[FinAbGroup, ...]:
    out: list[FinAbGroup] = []

    def rec(i: int, bound: int, chosen: list[tuple[int, tuple[int, ...]]]):
        if i == len(ps):
            out.append(FinAbGroup(tuple(chosen)))
            return
        p = ps[i]
        a, pa = 0, 1
        while pa <= bound:
            if a == 0:
                rec(i + 1, bound, chosen)
            else:
                for parts in partitions(a):
                    rec(i + 1, bound // pa, chosen + [(p, parts)])
            a += 1
            pa *= p

    rec(0, order_bound, [])
    out.sort(key=FinAbGroup.sort_key)
    return tuple(out)


# --------------------------------------------------------------------------
# Homomorphism enumeration and F_p spans of generator images
# --------------------------------------------------------------------------

_BLOCK = 1 << 16  # candidate homomorphisms per block


@lru_cache(maxsize=1024)
def _killed_by(B: FinAbGroup, d: int) -> np.ndarray:
    """Coordinates in B of the elements y with d*y = 0, by scanning all of B."""
    import numpy as np

    coords = np.indices(B.cyclic_moduli, dtype=np.int64).reshape(-1, B.order).T
    return coords[(coords * d % np.array(B.cyclic_moduli, dtype=np.int64) == 0).all(axis=1)]


@lru_cache(maxsize=8)
def _fp_tables(p: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(sub, mul) for F_p**c, a vector coded base p, first coordinate most
    significant: sub[x, w] codes x - w and mul[s, v] codes s*v."""
    import numpy as np

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
    `what`, before anything is built."""
    import numpy as np

    budget.check_order(A.order, what)
    budget.check_order(B.order, what)
    choices = [_killed_by(B, d) for d in A.cyclic_moduli]
    total = prod(len(ch) for ch in choices)
    budget.check_candidates(total, what)
    inner = _inner(choices)
    runs = len(choices[inner]) if choices else 1
    step = max(1, _BLOCK // runs) * runs
    digits = sorted(range(len(choices)), key=lambda i: i == inner)  # inner last
    for start in range(0, total, step):
        rest = np.arange(start, min(start + step, total), dtype=np.int64)
        block = np.empty((len(rest), len(choices)), dtype=np.int64, order="F")
        for i in reversed(digits):  # the last digit varies fastest
            rest, block[:, i] = np.divmod(rest, len(choices[i]))
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
    import numpy as np

    gens = [(p, a) for p, parts in A.components for a in parts]
    factors = [(p, b) for p, parts in B.components for b in parts]
    inner = _inner(choices)
    runs = len(choices[inner]) if choices else 1
    ranks = np.zeros((len(block) // runs, runs, len(primes)), dtype=np.int64)
    for j, p in enumerate(primes):
        cols = [c for c, (q, _) in enumerate(factors) if q == p]
        rows = [i for i, (q, _) in enumerate(gens) if q == p and i != inner]
        inner_at_p = bool(choices) and gens[inner][0] == p
        if not cols or not (rows or inner_at_p):
            continue  # no p-part in B or in A, so the rank at p is 0
        low = np.array([p ** (factors[c][1] - 1) for c in cols], dtype=np.int64)
        place = p ** np.arange(len(cols) - 1, -1, -1, dtype=np.int64)

        def codes(i: int) -> np.ndarray:  # the code of generator i's row, per choice
            y = choices[i][:, cols]
            return (y * p ** (gens[i][1] - 1) // low % p if socle else y % p) @ place

        span = np.zeros((len(ranks), p ** len(cols)), dtype=bool)
        span[:, 0] = True
        for n, i in enumerate(rows):
            v = codes(i)[block[::runs, i]]
            ranks[..., j] += ~span[np.arange(len(span)), v][:, None]
            if n + 1 < len(rows) or inner_at_p:
                sub, mul = _fp_tables(p, len(cols))
                for s in range(1, p):  # spans are symmetric: s*v - x serves for x - s*v
                    span |= np.take_along_axis(span, sub[mul[s, v]], axis=1)
        if inner_at_p:
            ranks[..., j] += ~span[:, codes(inner)]
    return ranks.reshape(len(block), len(primes))


def _onto(A: FinAbGroup, B: FinAbGroup, choices: list[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Which candidates of a block map A onto B: onto B/pB at each prime p."""
    ranks = _span_ranks(A, B, choices, block, B.primes, socle=False)
    return (ranks == [B.rank(p) for p in B.primes]).all(axis=1)


def hom_count(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Hom(A, B)| = prod_p prod_{i,j} p**min(lambda_i(A), lambda_j(B))."""
    return prod(p ** _hom_exponent(parts, B.partition(p)) for p, parts in A.components)


def _hom_exponent(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """log_p |Hom(A, B)| for p-groups A, B of types alpha, beta."""
    return sum(min(i, j) for i in alpha for j in beta)


def hom_count_bruteforce(A: FinAbGroup, B: FinAbGroup, budget: Budget | None = None) -> int:
    """|Hom(A, B)| by scanning B's elements for each generator order of A."""
    budget = resolve(budget)
    what = f"hom enumeration {A} -> {B}"
    budget.check_order(A.order, what)
    budget.check_order(B.order, what)
    return prod(len(_killed_by(B, d)) for d in A.cyclic_moduli)


def aut_count(A: FinAbGroup) -> int:
    """|Aut(A)| via the per-prime closed form for abelian p-groups.

    Agrees with aut_bruteforce wherever the latter is affordable; the
    extension-class machinery relies on this for middles whose endomorphism
    sets are far too large to enumerate.
    """
    out = 1
    for p, parts in A.components:
        out *= _aut_count_p(p, parts)
    return out


def _aut_count_p(p: int, parts: tuple[int, ...]) -> int:
    e = sorted(parts)  # nondecreasing exponents e_1 <= ... <= e_n
    n = len(e)
    d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    out = 1
    for k in range(n):
        out *= p ** d[k] - p**k
    for j in range(n):
        out *= (p ** e[j]) ** (n - d[j])
    for i in range(n):
        out *= (p ** (e[i] - 1)) ** (n - c[i] + 1)
    return out


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition: entry j counts parts >= j+1."""
    return tuple(sum(1 for a in parts if a > j) for j in range(parts[0] if parts else 0))


@lru_cache(maxsize=65536)
def _hall_number(p: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int) -> int:
    """Hall number g^lam_{mu,(1^m)}(p): the number of subgroups H of a
    p-group G of type lam with H elementary of rank m and G/H of type mu.

    Macdonald, Symmetric Functions and Hall Polynomials, ch. II (4.6): with
    lam', mu' the conjugate partitions and n(lam) = sum_j C(lam'_j, 2),

        g = p**(n(lam) - n(mu) - C(m, 2))
            * prod_j [lam'_j - lam'_{j+1} choose lam'_j - mu'_j]_{1/p},

    nonzero exactly when lam/mu is a vertical m-strip. By duality of finite
    abelian groups it also counts subgroups of type mu with quotient (1^m).
    """
    lc, mc = _conjugate(lam), _conjugate(mu)
    if sum(lam) - sum(mu) != m or len(mc) > len(lc):
        return 0
    mc += (0,) * (len(lc) - len(mc))
    exponent = sum(c * (c - 1) for c in lc) // 2 - sum(c * (c - 1) for c in mc) // 2
    exponent -= m * (m - 1) // 2
    out = 1
    for j, (l, u) in enumerate(zip(lc, mc)):
        free = l - (lc[j + 1] if j + 1 < len(lc) else 0)
        k = l - u
        if not 0 <= k <= free:
            return 0
        # [free choose k]_{1/p} = p**(-k(free - k)) [free choose k]_p
        exponent -= k * (free - k)
        out *= q_binomial(free, k, p)
    return out * p**exponent


def _blocks(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(part, multiplicity) per block of equal parts, largest part first."""
    return [(a, parts.count(a)) for a in sorted(set(parts), reverse=True)]


def _strips_below(beta: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every gamma with beta/gamma a vertical strip: in each block of equal
    parts, the last j parts drop by one."""
    blocks = _blocks(beta)
    for js in itertools.product(*(range(c + 1) for _, c in blocks)):
        gamma: list[int] = []
        for (a, c), j in zip(blocks, js):
            gamma += [a] * (c - j) + [a - 1] * j
        yield tuple(g for g in gamma if g)


def _strips_above(mu: tuple[int, ...], m: int) -> Iterator[tuple[int, ...]]:
    """Every lam with lam/mu a vertical m-strip: in each block of equal
    parts the first j parts grow by one, and the rest of the m boxes start
    new parts of size 1."""
    blocks = _blocks(mu)
    for js in itertools.product(*(range(min(c, m) + 1) for _, c in blocks)):
        new = m - sum(js)
        if new < 0:
            continue
        lam: list[int] = []
        for (a, c), j in zip(blocks, js):
            lam += [a + 1] * j + [a] * (c - j)
        yield tuple(lam) + (1,) * new


def aut_bruteforce(A: FinAbGroup, budget: Budget | None = None) -> int:
    """|Aut(A)| by enumerating endomorphisms and keeping the bijective ones:
    those injective on the socle A[p] at every prime p."""
    full = [A.rank(p) for p in A.primes]
    return sum(
        int((_span_ranks(A, A, choices, block, A.primes, socle=True) == full).all(axis=1).sum())
        for choices, block in _hom_images(A, A, resolve(budget), f"aut enumeration {A}")
    )


def sur_bruteforce(A: FinAbGroup, B: FinAbGroup, budget: Budget | None = None) -> int:
    """Exact |Sur(A, B)| by exhausting generator-image tuples.

    Surjectivity test: a hom is onto iff it is onto B/pB at every prime p.
    """
    return _sur_bruteforce_cached(A, B, resolve(budget))


@lru_cache(maxsize=65536)
def _sur_bruteforce_cached(A: FinAbGroup, B: FinAbGroup, budget: Budget) -> int:
    blocks = _hom_images(A, B, budget, f"surjection enumeration {A} -> {B}")
    return sum(int(_onto(A, B, choices, block).sum()) for choices, block in blocks)


def sur_count(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Sur(A, B)| in closed form, one Sylow part at a time.

    Quotients of A can only shrink conjugate partitions, so a failed
    domination check forces 0. Otherwise Moebius inversion on the subgroup
    lattice of B_p: P. Hall's Moebius function mu(H, B_p) is
    (-1)**k p**C(k, 2) when B_p/H is elementary of rank k and 0 otherwise,
    so with beta the type of B_p

        Sur(A_p, B_p) = sum over vertical k-strips beta/gamma of
            (-1)**k p**C(k, 2) g^beta_{gamma,(1^k)}(p) |Hom(A_p, C_gamma)|,

    where g is the Hall number of Macdonald, Symmetric Functions and Hall
    Polynomials, ch. II (4.6). sur_bruteforce is the oracle for it.
    """
    if B.is_trivial:
        return 1
    if A.order % B.order:
        return 0
    for p in B.primes:
        ca, cb = A.conjugate(p), B.conjugate(p)
        if len(cb) > len(ca) or any(b > a for a, b in zip(ca, cb)):
            return 0
    return prod(_sur_p(p, A.partition(p), B.partition(p)) for p in B.primes)


@lru_cache(maxsize=65536)
def _sur_p(p: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    out = 0
    for gamma in _strips_below(beta):
        k = sum(beta) - sum(gamma)
        out += (
            (-1) ** k
            * p ** (k * (k - 1) // 2)
            * _hall_number(p, beta, gamma, k)
            * p ** _hom_exponent(alpha, gamma)
        )
    return out


# --------------------------------------------------------------------------
# Kernel bookkeeping
# --------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _kernel_profile(X: FinAbGroup, M: FinAbGroup, budget: Budget) -> tuple:
    """For each surjection X ->> M, the semisimplification of its kernel.

    Returns ((elementary_group, multiplicity), ...): how many surjections
    have a kernel whose quotient mod the radical is that group, read off
    the p-ranks of the kernels: rank_p(X) minus the rank on the socle X[p],
    counted as mixed-radix codes with digit j in [0, rank_p(X)], p = X.primes[j].
    """
    import numpy as np

    dims = np.array([X.rank(p) + 1 for p in X.primes], dtype=np.int64)
    place = np.array([prod(dims[j + 1 :]) for j in range(len(dims))], dtype=np.int64)
    counts = np.zeros(prod(dims), dtype=np.int64)
    for choices, block in _hom_images(X, M, budget, f"kernel enumeration {X} -> {M}"):
        onto = _onto(X, M, choices, block)
        ranks = dims - 1 - _span_ranks(X, M, choices, block, X.primes, socle=True)[onto]
        counts += np.bincount(ranks @ place, minlength=len(counts))
    profile = [
        (FinAbGroup.from_dict({p: [1] * r for p, r in zip(X.primes, np.unravel_index(c, dims))}), n)
        for c, n in enumerate(counts.tolist())
        if n
    ]
    return tuple(sorted(profile, key=lambda kv: kv[0].sort_key()))


def surjection_kernel_profile(
    X: FinAbGroup, M: FinAbGroup, budget: Budget | None = None
) -> dict[FinAbGroup, int]:
    """Multiset of semisimplified kernels over all surjections X ->> M."""
    return dict(_kernel_profile(X, M, resolve(budget)))


def kernel_pair_count(
    X: FinAbGroup, M: FinAbGroup, N: FinAbGroup, budget: Budget | None = None
) -> int:
    """Number of pairs (pi: X ->> M, f: (ker pi)/rad ->> N), by enumeration."""
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    budget = resolve(budget)
    out = 0
    for ker_ss, mult in _kernel_profile(X, M, budget):
        out += mult * sur_bruteforce(ker_ss, N, budget)
    return out


# --------------------------------------------------------------------------
# Extension classes
# --------------------------------------------------------------------------


def extension_pair_count(N: FinAbGroup, middle: FinAbGroup, M: FinAbGroup) -> int:
    """Number of pairs (iota: N into M', pi: M' ->> M) with im iota = ker pi.

    Such a pair is a subgroup H of M' with H isomorphic to N and M'/H to M,
    plus one of the |Aut(N)| isomorphisms N -> H and one of the |Aut(M)|
    isomorphisms M'/H -> M. Subgroups split over Sylow parts, and for
    elementary N the subgroups at p are counted by the Hall number
    g^lam_{mu,(1^m)}(p) of Macdonald, Symmetric Functions and Hall
    Polynomials, ch. II (4.6), with lam, mu the p-types of M', M and
    m = rank_p(N). So the count is |Aut N| |Aut M| prod_p g. Its oracle, a
    join of enumerated embeddings and surjections, lives with the tests.
    """
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    out = aut_count(N) * aut_count(M)
    for p in sorted(set(middle.primes) | set(N.primes) | set(M.primes)):
        out *= _hall_number(p, middle.partition(p), M.partition(p), N.rank(p))
    return out


def extension_class_count(N: FinAbGroup, M: FinAbGroup, middle: FinAbGroup) -> Fraction:
    """Number of isomorphism classes of exact sequences 0->N->M'->M->0 with
    the given middle: pair count times |Hom(M, N)| / |Aut(M')|.

    The automorphisms of a fixed sequence are the unipotent maps
    id + iota f pi for f in Hom(M, N), and they act freely, so the orbit
    count under Aut(M') is as stated. Must come out a nonnegative integer;
    anything else is an internal inconsistency.
    """
    pairs = extension_pair_count(N, middle, M)
    entry = Fraction(pairs * hom_count(M, N), aut_count(middle))
    if entry.denominator != 1:
        raise ConsistencyError(
            f"extension class count for 0 -> {N} -> {middle} -> {M} -> 0 "
            f"is not an integer: {entry}"
        )
    return entry


def candidate_middles(N: FinAbGroup, M: FinAbGroup) -> list[FinAbGroup]:
    """Every M' with an exact sequence 0 -> N -> M' -> M -> 0, sorted.

    For elementary N these are the groups whose partition at each prime p
    is M's plus a vertical strip of rank_p(N) boxes: exactly where the Hall
    number in extension_pair_count is nonzero.
    """
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    primes = sorted(set(N.primes) | set(M.primes))
    per_prime = [
        [(p, lam) for lam in _strips_above(M.partition(p), N.rank(p))] for p in primes
    ]
    middles = [FinAbGroup(comps) for comps in itertools.product(*per_prime)]
    return sorted(middles, key=FinAbGroup.sort_key)


# --------------------------------------------------------------------------
# Measures
# --------------------------------------------------------------------------


class Measure:
    """Finitely supported measure on isomorphism classes: group -> mass >= 0.

    Total mass is whatever it is; nothing here assumes probability.
    """

    def __init__(self, masses: Mapping[FinAbGroup, Fraction | int]):
        store: dict[FinAbGroup, Fraction] = {}
        for g, v in masses.items():
            v = Fraction(v)
            if v < 0:
                raise InputError(f"negative mass {v} at {g}")
            if v:
                store[g] = v
        self._masses = store

    def mass(self, g: FinAbGroup) -> Fraction:
        return self._masses.get(g, Fraction(0))

    def support(self) -> list[FinAbGroup]:
        return sorted(self._masses, key=FinAbGroup.sort_key)

    def items(self) -> list[tuple[FinAbGroup, Fraction]]:
        return sorted(self._masses.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other) -> bool:
        return isinstance(other, Measure) and self._masses == other._masses

    def __len__(self) -> int:
        return len(self._masses)

    def to_json_obj(self) -> dict:
        from .rationals import format_rational

        return {
            "masses": [
                {"group": g.to_json_obj(), "value": format_rational(v)}
                for g, v in self.items()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Measure":
        from .rationals import parse_rational

        if not isinstance(obj, Mapping) or "masses" not in obj:
            raise InputError(f"measure JSON needs a 'masses' list, got {obj!r}")
        masses: dict[FinAbGroup, Fraction] = {}
        for rec in obj["masses"]:
            g = FinAbGroup.from_json_obj(rec["group"])
            if g in masses:
                raise InputError(f"duplicate group {g} in measure JSON")
            masses[g] = parse_rational(rec["value"])
        return cls(masses)


# --------------------------------------------------------------------------
# Matrix oracle for the abelian surjection formula
# --------------------------------------------------------------------------


def count_surjective_matrices(h: int, e: int, k: int, budget: Budget | None = None) -> int:
    """Brute-force count of surjective k x e matrices over the h-element field.

    Walks all tuples of linearly independent rows level by level, keeping
    the span of each prefix as a bitmask; prefixes with the same span are
    merged into one row that carries their number. The final count sums,
    over every independent (k-1)-prefix, the vectors outside its span.
    Independent of the closed-form product it is used to check.
    """
    if h < 2 or not is_prime(h):
        raise InputError(f"matrix oracle needs a prime field size, got h={h}")
    if e < 0 or k < 0:
        raise InputError("e and k must be nonnegative")
    if k == 0:
        return 1
    if e == 0:
        return 0
    import numpy as np

    budget = resolve(budget)
    n = h**e
    budget.check_order(n, f"matrix oracle over F_{h}^{e}")
    budget.check_candidates(n * n, f"matrix oracle difference table over F_{h}^{e}")

    sub, mul = _fp_tables(h, e)
    spans = np.zeros((1, n), dtype=bool)
    spans[0, 0] = True
    mult = np.ones(1, dtype=np.int64)  # prefixes with each span
    for level in range(k):
        valid = ~spans
        tuples = sum(m * o for m, o in zip(mult.tolist(), valid.sum(axis=1).tolist()))
        if level == k - 1:
            return tuples
        budget.check_candidates(tuples, f"matrix oracle level {level + 1}")
        parent, vec = np.nonzero(valid)
        children = np.zeros((len(parent), n), dtype=bool)
        for c in range(h):  # spans are symmetric, so c*v - x serves for x - c*v
            children |= spans[parent[:, None], sub[mul[c, vec]]]
        packed, inverse = np.unique(np.packbits(children, axis=1), axis=0, return_inverse=True)
        spans = np.unpackbits(packed, axis=1, count=n).astype(bool)
        weights, mult = mult[parent], np.zeros(len(spans), dtype=np.int64)
        np.add.at(mult, inverse.reshape(-1), weights)
    raise AssertionError("unreachable")
