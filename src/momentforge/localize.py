"""From moments of a measure on finite abelian groups to the mass of a
single group.

The route: moments of the localized measure at M are extension-class sums
of plain moments; inverting those localized moments brackets the localized
mass at 0, which is |Aut(M)| times the mass of M itself. The pipeline
consumes moment tables only; measures appear in the brute-force oracle
oracle.mu_local_direct used to cross-check it.

Localization is at a set of primes p, the simple groups Z/p, and reads a
table only at the groups localization_middles yields.
"""

from __future__ import annotations

import gc
import itertools
import json
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .finab import (
    MAX_ORDER_BITS,
    Components,
    FinAbGroup,
    aut_count,
    candidate_middles,
    extension_class_count,
    group_components,
    hom_count,
    is_prime,
    order_bits,
)
from .inversion import Bracket, MomentTable, multi_invert_zero
from .qseries import SimpleType
from .rationals import MAX_DIGITS, clip, format_rational, parse_rational
from .surjcount import MultiIndex, check_index


class ModuleMomentTable:
    """Moments of a measure at finite abelian targets: group -> integral of
    the surjection count onto it.

    Records are keyed by canonical exponent data, FinAbGroup.components.
    Every record is validated when the table is made, but a group is built
    only for a record that is read, and a value read from JSON as plain
    digits becomes a Fraction only then. The table promises exactly the
    groups it lists; localizing at M reads only the middles that
    localization_middles yields, and names any the table lacks. A record
    whose group passes finab.MAX_ORDER_BITS (2048 bits of order, judged from
    its exponents) is invalid: no middle comes near it. A legacy
    `order_bound` field in JSON is type-checked and otherwise ignored.

    from_json_obj ingests the records column-wise: over slices of _SLICE
    records, a few builtin passes prove that the record loop would accept
    them (types first, then each distinct prime key and exponent list by
    group_components, each distinct value by _parse_value, and no duplicate
    by the growth of the store). Every distinct (key, exponents) pair becomes
    one shared component, so a record's key is the only tuple made for it. On
    any doubt the record loop runs from the first record: it is the reference
    and the only code that words a refusal. The cyclic garbage collector is
    paused meanwhile, since JSON and the store hold no cycles.
    """

    def __init__(self, primes: Iterable[int], values: Mapping[FinAbGroup, Fraction | int]):
        try:
            primes = tuple(primes)
        except TypeError as exc:
            raise InputError(
                f"primes must be a list of integers, got {clip(repr(primes))}"
            ) from exc
        if any(type(p) is not int for p in primes):
            raise InputError(f"primes must be a list of integers, got {clip(repr(primes))}")
        self.primes = tuple(sorted(set(primes)))
        for p in self.primes:
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
        self._store: dict[Components, Fraction | int] = {}
        for g, v in values.items():
            if not isinstance(g, FinAbGroup):
                raise InputError(f"moment keys must be groups, got {clip(repr(g))}")
            self._put(g.components, Fraction(v))

    def _put(self, comps: Components, value: Fraction | int) -> None:
        for p, _ in comps:
            if p not in self.primes:
                g = FinAbGroup(comps)
                raise InputError(f"group {g} is not supported on primes {self.primes}")
        if value < 0:
            raise InputError(f"moment at {FinAbGroup(comps)} is negative")
        self._store[comps] = value

    def __contains__(self, g: FinAbGroup) -> bool:
        return g.components in self._store

    def __call__(self, g: FinAbGroup) -> Fraction:
        try:
            return Fraction(self._store[g.components])
        except KeyError:
            raise InputError(f"moment table has no entry for {g}") from None

    @property
    def values(self) -> dict[FinAbGroup, Fraction]:
        """Every record as group -> value; builds them all."""
        return {FinAbGroup(comps): Fraction(v) for comps, v in self._store.items()}

    def to_json_obj(self) -> dict:
        return {
            "primes": list(self.primes),
            "moments": [
                {"group": g.to_json_obj(), "value": format_rational(v)}
                for g, v in sorted(self.values.items(), key=lambda kv: kv[0].sort_key())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ModuleMomentTable":
        """Table from JSON, every record checked: its group, the group's
        support on the table primes, duplicates after canonicalization, and
        its value, which must parse and be >= 0. The column pass proves the
        records valid a slice at a time; on any doubt the record loop below,
        the reference, runs from the first record and names the first bad one."""
        with collector_paused():
            try:
                table = cls(obj["primes"], {})
                if "order_bound" in obj:
                    order_bound = obj["order_bound"]
                    if type(order_bound) is not int or order_bound < 1:
                        raise InputError(
                            f"order_bound must be an integer >= 1, got {clip(repr(order_bound))}"
                        )
                records = obj["moments"]
                if not _ingest_columns(table, records):
                    table._store.clear()
                    for rec in records:
                        comps = group_components(rec["group"])
                        if comps in table._store:
                            raise InputError(
                                f"duplicate group {FinAbGroup(comps)} in module moment-table JSON"
                            )
                        table._put(comps, _parse_value(rec["value"]))
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad module moment-table JSON: {exc}") from exc
        return table

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())


class collector_paused:
    """Context manager: the cyclic garbage collector off for the block, and on
    again after it only if it was on before. Parsed JSON and a table's store
    hold no cycles, so a collection during ingest walks them and frees nothing.
    Leaving the block allocates nothing, so no collection starts before the
    caller's next allocation."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.enabled:
            gc.enable()


_SLICE = 1024  # records the column pass proves at a time
_GROUP, _VALUE = operator.itemgetter("group"), operator.itemgetter("value")
_PRIME = operator.itemgetter(0)  # of a component (p, parts)


def _ingest_columns(table: ModuleMomentTable, records) -> bool:
    """Store the records as the record loop of from_json_obj would, proving a
    slice at a time with builtin passes that the loop would accept it: each
    distinct (prime key, exponent list) pair and each distinct value is checked
    once, by group_components and _parse_value. Records with n prime keys are
    taken together, so that zip cuts their shared components into keys n at a
    time; keys are sorted by prime where the JSON lists a record's primes out
    of order. False, with the store part filled, at anything not proved, rare
    valid shapes such as an empty exponent list too."""
    if type(records) is not list:
        return False
    store = table._store
    shared: dict[tuple[str, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
    key_of: dict[int, str] = {}  # prime -> the one key that names it
    parsed: dict[str | int, Fraction | int] = {}
    most_bits = 0  # order bits of the largest component
    for start in range(0, len(records), _SLICE):
        chunk = records[start : start + _SLICE]
        if set(map(type, chunk)) != {dict}:
            return False
        try:
            groups, values = list(map(_GROUP, chunk)), list(map(_VALUE, chunk))
        except KeyError:
            return False
        if set(map(type, groups)) != {dict} or not set(map(type, values)) <= {str, int}:
            return False
        for v in set(values).difference(parsed):
            try:
                parsed[v] = _parse_value(v)
            except InputError:
                return False
            if parsed[v] < 0:
                return False
        sizes = list(map(len, groups))
        keys = [()] * len(chunk)
        for n in set(sizes).difference((0,)):
            of_size = list(map(n.__eq__, sizes))
            alike = list(itertools.compress(groups, of_size))
            prime_keys = list(itertools.chain.from_iterable(alike))
            exponents = list(itertools.chain.from_iterable(map(dict.values, alike)))
            # types first: True and 1.0 hash as 1 does
            if not set(map(type, prime_keys)) <= {str}:
                return False
            if not set(map(type, exponents)) <= {list}:
                return False
            if not set(map(type, itertools.chain.from_iterable(exponents))) <= {int}:
                return False
            pairs = list(zip(prime_keys, map(tuple, exponents)))
            for key, parts in set(pairs).difference(shared):
                try:
                    found = group_components({key: parts})
                except InputError:
                    return False
                if len(found) != 1 or found[0][0] not in table.primes:
                    return False
                if key_of.setdefault(found[0][0], key) != key:  # "2" and "02"
                    return False
                most_bits = max(most_bits, order_bits(*found[0]))
                shared[key, parts] = found[0]
            if most_bits * n > MAX_ORDER_BITS:
                return False
            comps = list(map(shared.__getitem__, pairs))
            cut = zip(*[iter(comps)] * n)
            primes = list(map(_PRIME, comps))
            if not all(all(map(operator.lt, primes[j::n], primes[j + 1 :: n]))
                       for j in range(n - 1)):
                cut = map(tuple, map(sorted, cut))
            for i, key in zip(itertools.compress(itertools.count(), of_size), cut):
                keys[i] = key
        before = len(store)
        store.update(zip(keys, map(parsed.__getitem__, values)))
        if len(store) != before + len(chunk):  # two records are one group
            return False
    return True


def _parse_value(v) -> Fraction | int:
    """A record's value: plain ASCII digits as an int, anything else, and a run
    past MAX_DIGITS, by parse_rational."""
    if type(v) is str and v.isascii() and v.isdigit() and len(v) <= MAX_DIGITS:
        try:
            return int(v)
        except ValueError:  # past sys.get_int_max_str_digits(): parse_rational says so
            pass
    return parse_rational(v)


def localization_middles(
    M: FinAbGroup, primes: Sequence[int], k_bound: Sequence[int]
) -> Iterator[tuple[MultiIndex, FinAbGroup, list[FinAbGroup]]]:
    """The one rule for what localizing at M reads: (k, N_k, middles) for each
    k <= k_bound, k_i the exponent of F_p for the i-th of the distinct `primes`,
    N_k = prod F_p**k_i and the middles the M' of 0 -> N_k -> M' -> M -> 0,
    M plus a vertical strip of k_i boxes at each p (candidate_middles). The
    primes and k_bound are checked as the first item is drawn."""
    primes = tuple(primes)
    not_prime = any(type(p) is not int or not is_prime(p) for p in primes)
    if not_prime or len(set(primes)) < len(primes):
        raise InputError(f"localization needs distinct primes, got {list(primes)}")
    k_bound = check_index(tuple(map(SimpleType.abelian, primes)), k_bound, "k_bound")
    by_prime = sorted(range(len(primes)), key=primes.__getitem__)
    for k in itertools.product(*(range(b + 1) for b in k_bound)):
        N = FinAbGroup(tuple((primes[i], (1,) * k[i]) for i in by_prime if k[i]))
        yield k, N, candidate_middles(N, M)


def localized_moments(
    table: ModuleMomentTable,
    M: FinAbGroup,
    primes: Sequence[int],
    k_bound: Sequence[int],
) -> MomentTable:
    """Moments of the localized measure at M, one per multi-index k <= k_bound
    of localization_middles, which also names the only groups read.

    The k-th localized moment is the extension-class sum
    sum_{M'} classCount(N_k, M', M) * table(M') / |Hom(M, N_k)| over the
    middles M' of 0 -> N_k -> M' -> M -> 0. A middle the table lacks is a
    hard error naming it.
    """
    primes = tuple(primes)
    values: dict[MultiIndex, Fraction] = {}
    for k, N, middles in localization_middles(M, primes, k_bound):
        missing = [mid for mid in middles if mid not in table]
        if missing:  # the middles are bounded groups, so their order prints
            raise InputError(
                f"moment table lacks middles for N={N}, M={M} "
                f"(order {N.order * M.order}): "
                + ", ".join(str(g) for g in missing[:8])
                + ("..." if len(missing) > 8 else "")
            )
        total = Fraction(0)
        for mid in middles:
            v = table(mid)
            if v:
                total += extension_class_count(N, M, mid) * v
        values[k] = total / hom_count(M, N)
    return MomentTable(tuple(map(SimpleType.abelian, primes)), k_bound, values)


def reconstruct_probability(
    table: ModuleMomentTable,
    M: FinAbGroup,
    primes: Sequence[int],
    r_max: Sequence[int],
) -> Bracket:
    """Certified bracket for the mass at M of any nonnegative measure with
    the given moments: invert the moments localized at the given primes, then
    divide by |Aut(M)|."""
    moments = localized_moments(table, M, primes, r_max)
    bracket = multi_invert_zero(moments, r_max)
    return bracket.scale(Fraction(1, aut_count(M)))
