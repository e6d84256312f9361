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

Counts are closed forms on these partitions: hom_count, aut_count, and the
Hall numbers g^lambda_{mu,(1^m)}(p) of Macdonald, Symmetric Functions and
Hall Polynomials, ch. II (4.6), from which sur_count, extension_pair_count
and candidate_middles follow. None of them enumerates group elements, so
none is metered by a Budget, and this module imports neither Budget nor
numpy. The brute-force oracles that check them live in momentforge.oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConsistencyError, InputError
from .qseries import is_prime, q_binomial
from .rationals import MAX_DIGITS, clip, format_rational, parse_rational


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


def order_bits(p: int, parts: tuple[int, ...]) -> int:
    """(sum of parts) * ceil(log2 p): a bound on log2 of the order of the
    p-part with these exponents, read off the exponents."""
    return sum(parts) * (p - 1).bit_length()


def _bounded(items: Iterable[tuple[int, tuple[int, ...]]]) -> Components:
    """Components from (prime, weakly decreasing partition) pairs, primes
    increasing, with empty partitions dropped: the one check FinAbGroup and
    group_components share. Refuses a p that is not prime, a part below 1 and
    an order past MAX_ORDER_BITS, naming such a group by its first Z/p^a
    factors."""
    out, bits = [], 0
    for p, parts in items:
        if parts:
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
            if parts[-1] < 1:
                raise InputError(f"partition for prime {p} must be weakly decreasing >= 1")
            bits += order_bits(p, parts)
            out.append((p, parts))
    if bits > MAX_ORDER_BITS:
        names = [f"Z/{p}^{a}" if a > 1 else f"Z/{p}" for p, parts in out for a in parts]
        raise InputError(
            f"group {' x '.join(names[:8])}{' x ...' * (len(names) > 8)} is too large: "
            f"its order has up to {bits} bits, past the bound of {MAX_ORDER_BITS}"
        )
    return tuple(out)


@dataclass(frozen=True)
class FinAbGroup:
    """Canonical form of a finite abelian group.

    components maps each prime (in increasing order) to its weakly
    decreasing exponent partition. No prime appears with an empty
    partition, so the trivial group is the empty tuple.
    """

    components: Components

    def __post_init__(self) -> None:
        last_p = 0
        for p, parts in self.components:
            if p <= last_p:
                raise InputError(f"primes must be strictly increasing, got {self.components}")
            if not parts:
                raise InputError(f"empty partition for prime {p}")
            if tuple(sorted(parts, reverse=True)) != parts:
                raise InputError(f"partition for prime {p} must be weakly decreasing >= 1")
            last_p = p
        _bounded(self.components)

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
    """The integer a group-JSON key spells in ASCII digits, else None; a key of
    more than MAX_DIGITS digits raises ValueError before int() reads it."""
    if not (key.isascii() and key.isdigit()):
        return None  # not "1_1", " 3", "٣"
    if len(key) > MAX_DIGITS:
        raise ValueError(f"{len(key)} digits")
    return int(key)


def _bad_group(obj, why: str) -> InputError:
    return InputError(f"bad group JSON {clip(repr(obj))}: {why}")


def group_components(obj) -> Components:
    """FinAbGroup components of group JSON like {"2": [2, 1], "3": [1]}: prime
    keys, lists of integer exponents in any order. Canonicalizes in one pass
    and makes every check FinAbGroup makes, MAX_ORDER_BITS included, so the
    result can key a group that is never built. Floats, booleans and strings
    are rejected, not truncated, and so are prime keys that int() would bend,
    such as "1_1" or " 3"."""
    if not isinstance(obj, dict):
        raise InputError(f"group JSON must be an object, got {clip(repr(obj))}")
    comps: dict[int, tuple[int, ...]] = {}
    for key, parts in obj.items():
        try:
            p = _json_prime(key) if isinstance(key, str) else None
        except ValueError:  # past MAX_DIGITS or sys.get_int_max_str_digits()
            raise InputError(f"bad group JSON: a {len(key)}-digit prime key is too large") from None
        if p is None:
            raise _bad_group(obj, f"prime {clip(repr(key))} is not a decimal integer")
        if not isinstance(parts, (list, tuple)):
            raise _bad_group(obj, "exponents must be a list of integers")
        for a in parts:
            if type(a) is not int:
                raise _bad_group(obj, "exponents must be a list of integers")
        if p in comps:
            raise _bad_group(obj, f"prime {p} appears twice")
        comps[p] = tuple(sorted(parts, reverse=True))
    return _bounded(sorted(comps.items()))


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


def hom_count(A: FinAbGroup, B: FinAbGroup) -> int:
    """|Hom(A, B)| = prod_p prod_{i,j} p**min(lambda_i(A), lambda_j(B))."""
    return prod(p ** _hom_exponent(parts, B.partition(p)) for p, parts in A.components)


def _hom_exponent(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """log_p |Hom(A, B)| for p-groups A, B of types alpha, beta."""
    return sum(min(i, j) for i in alpha for j in beta)


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


@lru_cache(maxsize=65536)
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
        return {
            "masses": [
                {"group": g.to_json_obj(), "value": format_rational(v)}
                for g, v in self.items()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Measure":
        if not isinstance(obj, Mapping) or "masses" not in obj:
            raise InputError(f"measure JSON needs a 'masses' list, got {clip(repr(obj))}")
        masses: dict[FinAbGroup, Fraction] = {}
        for rec in obj["masses"]:
            g = FinAbGroup.from_json_obj(rec["group"])
            if g in masses:
                raise InputError(f"duplicate group {g} in measure JSON")
            masses[g] = parse_rational(rec["value"])
        return cls(masses)


# The benchmark tracer (perfbench/trace_child.py) finds these four oracles
# under finab by name. This forwarder is the tracer's alone, and goes when the
# package counts its own spans (ROADMAP item 1).
_TRACED_ORACLES = ("sur_bruteforce", "aut_bruteforce", "hom_count_bruteforce", "kernel_pair_count")


def __getattr__(name: str):
    if name in _TRACED_ORACLES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
