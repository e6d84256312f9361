"""Finite abelian groups in canonical form and their closed-form counts.

A group is stored per prime as a weakly decreasing partition of cyclic
exponents, so Z/4 x Z/2 x Z/3 is {2: (2, 1), 3: (1,)}. The canonical form
is unique per isomorphism class, which lets groups serve as dict keys for
measures and moment tables.

Every group is bounded: FinAbGroup and group_components refuse one whose sum
over p of (sum of exponents) * ceil(log2 p), read off the exponents without
forming p**a, passes MAX_ORDER_BITS = 2048. So every order is below 2**2048 <
10**617 and prints under any digit limit Python allows (640 or more), far
above the groups a localization reads: M plus a vertical strip at each prime.

Counts are closed forms on these partitions. sur_count and aut_count
(|Aut A| = |Sur(A, A)|) are one product per prime, _sur_p: a homomorphism
is onto exactly when it is onto B/pB, so a surjection count is a count of
full-rank matrices over F_p with a staircase of forced zeros: qseries.frames.
candidate_middles pairs each middle of an extension of M by a semisimple N
with its class count, one product per prime too: a class in Ext^1(M, F_p**m)
is one vector of F_p**m per cyclic factor of M, and the middle depends only
on the ranks those vectors add block by block, so one walk over rank
profiles builds each vertical strip and counts its classes. None of them
enumerates group elements, so none is metered by a Budget, and this module
imports neither Budget nor numpy. The brute-force oracles that check them
live in momentforge.oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError, Value
from .qseries import check_primes, frames, is_prime, q_binomial
from .rationals import MAX_DIGITS, clip_int, exact, format_rational, natural, quote


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples; () for n = 0."""
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


def order_bits(p: int, parts: tuple[int, ...]) -> int:
    """(sum of parts) * ceil(log2 p): a bound on log2 of the order of the
    p-part with these exponents, read off the exponents."""
    return sum(parts) * (p - 1).bit_length()


def _check_components(comps: Components) -> None:
    """The one rule for what a group's components are, checked in one pass:
    each prime an int (not a bool or float) that is prime, primes strictly
    increasing, each partition a non-empty weakly decreasing tuple of int
    parts >= 1, and the order within MAX_ORDER_BITS. A group too large is
    named by its first Z/p^a factors, each exponent clipped."""
    last, bits = 0, 0
    for p, parts in comps:
        if type(p) is not int or not is_prime(p):
            raise InputError(f"{quote(p)} is not prime")
        if p <= last:
            raise InputError(f"primes must be strictly increasing, got {p} after {last}")
        if type(parts) is not tuple or not parts:
            raise InputError(f"partition for prime {p} must be a non-empty tuple")
        prev = parts[0]
        for a in parts:
            if type(a) is not int or not 0 < a <= prev:
                raise InputError(f"partition for prime {p} must be weakly decreasing >= 1")
            prev = a
        bits += order_bits(p, parts)
        last = p
    if bits > MAX_ORDER_BITS:
        factors = itertools.islice(((p, a) for p, parts in comps for a in parts), 9)
        names = [f"Z/{p}^{clip_int(a)}" if a > 1 else f"Z/{p}" for p, a in factors]
        raise InputError(
            f"group {' x '.join(names[:8])}{' x ...' * (len(names) > 8)} is too large: "
            f"its order has up to {clip_int(bits)} bits, past the bound of {MAX_ORDER_BITS}"
        )


class FinAbGroup(Value):
    """Canonical form of a finite abelian group.

    components maps each prime (in increasing order) to its weakly
    decreasing exponent partition. No prime appears with an empty
    partition, so the trivial group is the empty tuple. __init__ checks
    them by _check_components, the one rule behind every constructor.
    """

    __slots__ = ("components",)

    def __init__(self, components: Components) -> None:
        _check_components(components)
        object.__setattr__(self, "components", components)

    def __eq__(self, other):  # the components alone, as cheap as a key needs
        if other.__class__ is self.__class__:
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    @classmethod
    def from_dict(cls, comps: Mapping[int, Sequence[int]]) -> "FinAbGroup":
        """Group from prime -> exponents in any order; empty lists are dropped."""
        return cls(tuple(
            (p, tuple(sorted(parts, reverse=True))) for p, parts in sorted(comps.items()) if parts
        ))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(())

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

    @property
    def is_semisimple(self) -> bool:
        """True when every cyclic factor is of prime order."""
        return all(parts[0] == 1 for _, parts in self.components)

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


def _bad_group(obj, why: str) -> InputError:
    return InputError(f"bad group JSON {quote(obj)}: {why}")


def json_component(key, parts, obj=None) -> tuple[int, tuple[int, ...]]:
    """The component one prime key of group JSON gives, (p, exponents sorted
    decreasing): the key must spell p in ASCII digits, not "1_1" or " 3" that
    int() would bend, and parts must be a list or tuple of ints, not floats,
    booleans or strings. An empty list gives (p, ()); any other component ends
    in _check_components. A refusal of the JSON's shape quotes obj, the group
    JSON the key is read from, by default {key: parts}."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise _bad_group(obj or {key: parts}, f"prime {quote(key)} is not a decimal integer")
    try:
        if len(key) > MAX_DIGITS:
            raise ValueError
        p = int(key)
    except ValueError:  # past MAX_DIGITS or sys.get_int_max_str_digits()
        raise InputError(f"bad group JSON: a {len(key)}-digit prime key is too large") from None
    for a in parts if isinstance(parts, (list, tuple)) else [None]:  # None: not a list
        if type(a) is not int:
            raise _bad_group(obj or {key: parts}, "exponents must be a list of integers")
    parts = tuple(sorted(parts, reverse=True))
    if parts:
        _check_components(((p, parts),))
    return p, parts


def group_components(obj) -> Components:
    """FinAbGroup components of group JSON like {"2": [2, 1], "3": [1]}: each
    key and its exponents through json_component, no prime twice, empty lists
    dropped, and a group past MAX_ORDER_BITS, the one rule of _check_components
    left, refused by it; so the result can key a group that is never built."""
    if not isinstance(obj, dict):
        raise InputError(f"group JSON must be an object, got {quote(obj)}")
    comps: dict[int, tuple[int, ...]] = {}
    for p, parts in map(json_component, obj, obj.values(), itertools.repeat(obj)):
        if p in comps:
            raise _bad_group(obj, f"prime {p} appears twice")
        comps[p] = parts
    out = tuple((p, parts) for p, parts in sorted(comps.items()) if parts)
    if sum(order_bits(p, parts) for p, parts in out) > MAX_ORDER_BITS:
        _check_components(out)
    return out


# groups one enumerate_groups call may list: its largest caller lists 17,388,
# and at about 10 us a group (2 vCPUs) a refusal comes well under a second
MAX_GROUPS = 2**15


def enumerate_groups(primes: Iterable[int], order_bound: int) -> list[FinAbGroup]:
    """All groups supported on `primes` of order <= order_bound, each once,
    sorted by (order, partition data); BudgetExceededError past MAX_GROUPS."""
    ps = tuple(sorted(set(check_primes(primes))))
    return list(_enumerate_cached(ps, natural(order_bound, "order_bound", 1)))


@lru_cache(maxsize=1024)
def _enumerate_cached(ps: tuple[int, ...], order_bound: int) -> tuple[FinAbGroup, ...]:
    out: list[FinAbGroup] = []

    def rec(i: int, bound: int, chosen: list[tuple[int, tuple[int, ...]]]):
        if i == len(ps):
            if len(out) == MAX_GROUPS:
                what = f"groups on primes {list(ps)} of order <= {clip_int(order_bound)}"
                raise BudgetExceededError(f"there are more than {MAX_GROUPS} {what}")
            out.append(FinAbGroup(tuple(chosen)))
            return
        p = ps[i]
        a, pa = 0, 1
        while pa <= bound:  # the empty partition of 0 adds no component
            for parts in partitions(a):
                rec(i + 1, bound // pa, chosen + [(p, parts)] if parts else chosen)
            a += 1
            pa *= p

    rec(0, order_bound, [])
    out.sort(key=FinAbGroup.sort_key)
    return tuple(out)


def hom_count(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Hom(A, B)| = prod_p prod_{i,j} p**min(lambda_i(A), lambda_j(B))."""
    return prod(
        p ** sum(min(i, j) for i in parts for j in B.partition(p)) for p, parts in A.components
    )


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition: entry j counts parts >= j+1."""
    return tuple(sum(1 for a in parts if a > j) for j in range(parts[0] if parts else 0))


def _blocks(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(part, multiplicity) per block of equal parts, largest part first."""
    return [(a, parts.count(a)) for a in sorted(set(parts), reverse=True)]


def _strips_above(p: int, mu: tuple[int, ...], m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every lam with lam/mu a vertical m-strip, with its class count at p
    (see candidate_middles): in each block (a, c_a) of equal parts the first
    j_a parts grow by one and give the block's factor of the count, and the
    rest of the m boxes start new parts of size 1."""
    blocks = _blocks(mu)
    for js in itertools.product(*(range(min(c, m) + 1) for _, c in blocks)):
        new = m - sum(js)
        if new < 0:
            continue
        lam: list[int] = []
        count, s = 1, 0
        for (a, c), j in zip(blocks, js):
            lam += [a + 1] * j + [a] * (c - j)
            count *= p ** (s * c) * q_binomial(m - s, j, p) * frames(p, [c] * j)
            s += j
        yield tuple(lam) + (1,) * new, count


def sur_count(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Sur(A, B)| = prod over the primes p of B of _sur_p(p, alpha, beta),
    with alpha, beta the types of A_p, B_p. sur_bruteforce is its oracle."""
    return prod(_sur_p(p, A.partition(p), parts) for p, parts in B.components)


def aut_count(A: FinAbGroup) -> int:
    """|Aut(A)| = |Sur(A, A)|, one _sur_p per prime; aut_bruteforce is its
    oracle. A bracket at M divides by |Aut(M)|, for groups whose endomorphism
    sets are far too large to enumerate."""
    return prod(_sur_p(p, parts, parts) for p, parts in A.components)


@lru_cache(maxsize=65536)
def _sur_p(p: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """|Sur(A, B)| for p-groups A, B of types alpha, beta (b_0 >= b_1 >= ...):

        p**(sum_{a, b} min(a, b - 1)) * prod_i (p**n(b_i) - p**i),

    with n(b) the number of parts a >= b of alpha. A homomorphism is onto
    exactly when the map A/pA -> B/pB it induces is (Burnside's basis
    theorem). The induced maps are the matrices whose row for a factor Z/p^b
    is zero outside the n(b) generators of order >= p^b, and each comes from
    p**(sum min(a, b - 1)) homomorphisms: an entry Z/p^a -> Z/p^b has
    p**min(a, b) choices, and p**min(a, b - 1) of them give each residue it
    can take mod p (any when a >= b, only 0 when a < b). Taken largest b
    first, n(b_i) weakly increases and row i has p**n(b_i) - p**i choices
    outside the span of the rows before it: qseries.frames, which reads no
    row past its first zero one."""
    ac = _conjugate(alpha)  # n(b) = ac[b - 1]
    rows = frames(p, (ac[b - 1] if b <= len(ac) else 0 for b in beta))
    # sum_{a, b} min(a, b - 1) = sum_{j >= 1} #{a >= j} #{b >= j + 1}, read only when rows > 0
    return rows and rows * p ** sum(x * y for x, y in zip(ac, _conjugate(beta)[1:]))


# --------------------------------------------------------------------------
# Extension classes
# --------------------------------------------------------------------------


def candidate_middles(N: FinAbGroup, M: FinAbGroup) -> list[tuple[FinAbGroup, int]]:
    """Every M' with an exact sequence 0 -> N -> M' -> M -> 0, paired with
    the number of isomorphism classes of those sequences with middle M', for
    semisimple N; sorted by middle.

    The count is a product over the primes p, with m = rank_p(N).
    Ext^1(Z/p^a, F_p) = F_p, so at p a class is one vector x_i in F_p**m for
    each cyclic factor Z/p^(a_i) of M. For a_i > a_j, replacing the generator
    e_j by e_j - p**(a_i - a_j) e_i moves x_j by x_i, so M' depends only on a
    rank profile. Take M's blocks (a, c_a) of equal parts largest first: block
    a adds j_a to the rank s of the larger blocks' x's, j_a of its parts grow
    to a + 1, and the m - sum j_a dimensions left become parts of size 1. The
    x's with that profile number

        prod_a p**(s c_a) * [m - s choose j_a]_p * prod_{i<j_a} (p**c_a - p**i),

    a part in the span so far for each of the c_a vectors, a j_a-space of the
    quotient and a map of the c_a vectors onto it. So the middles are the
    groups whose partition at each p is M's plus a vertical strip of m boxes,
    each count is at least 1, and the counts sum to |Ext^1(M, N)| =
    |Hom(M, N)|. Their oracles, Riedtmann's formula by Hall numbers and a join
    of enumerated embeddings and surjections, live with the tests.
    """
    if not N.is_semisimple:
        raise InputError(f"N must be semisimple, got {N}")
    primes = sorted(set(N.primes) | set(M.primes))
    per_prime = [
        [((p, lam), n) for lam, n in _strips_above(p, M.partition(p), N.rank(p))] for p in primes
    ]
    pairs = [
        (FinAbGroup(tuple(comp for comp, _ in combo)), prod(n for _, n in combo))
        for combo in itertools.product(*per_prime)
    ]
    return sorted(pairs, key=lambda pair: pair[0].sort_key())


def extension_class_count(N: FinAbGroup, M: FinAbGroup, middle: FinAbGroup) -> int:
    """Number of isomorphism classes of exact sequences 0->N->M'->M->0 with
    the given middle M', for semisimple N: its count in candidate_middles,
    0 for a middle it does not list."""
    return dict(candidate_middles(N, M)).get(middle, 0)


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
            v = exact(v, "a mass")
            if v < 0:
                raise InputError(f"negative mass at {g}")  # v may pass the digit limit
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
        return {
            "masses": [
                {"group": g.to_json_obj(), "value": format_rational(v)}
                for g, v in self.items()
            ]
        }


# The benchmark tracer (perfbench/trace_child.py) finds these four oracles
# under finab by name. This forwarder is the tracer's alone, and goes when the
# package counts its own spans (ROADMAP item 1).
_TRACED_ORACLES = ("sur_bruteforce", "aut_bruteforce", "hom_count_bruteforce", "kernel_pair_count")


def __getattr__(name: str):
    if name in _TRACED_ORACLES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
