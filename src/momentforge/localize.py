"""From moments of a measure on finite abelian groups to the mass of a
single group.

The route: moments of the localized measure at M are extension-class sums
of plain moments; inverting those localized moments brackets the localized
mass at 0, which is |Aut(M)| times the mass of M itself. The pipeline
consumes moment tables only; measures appear in the brute-force oracle
oracle.mu_local_direct used to cross-check it.

Localization is at a set of primes p, the simple groups Z/p, and reads a
table only at the groups a Localization yields.
"""

from __future__ import annotations

import gc
import itertools
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
    group_components,
    json_component,
    order_bits,
)
from .inversion import Bracket, MomentTable, multi_invert_zero
from .qseries import SimpleType, check_primes
from .rationals import exact, format_rational, natural, parse_rational, quote
from .surjcount import MultiIndex, check_index


Row = tuple[tuple[int, ...], ...]  # a group's exponent partitions at a table's primes


class ModuleMomentTable:
    """Moments of a measure at finite abelian targets: group -> integral of
    the surjection count onto it.

    Records are keyed by row: the tuple of a group's exponent partitions at
    the table primes, () at a prime where it has none. Every record is
    validated when the table is made; from JSON that costs one check per
    distinct (prime key, exponents) pair and per distinct value, with the
    store filled in record order. A group is built only for a record that is
    read, and a value read from JSON as an int or plain digits becomes a
    Fraction only then. The table promises exactly the groups it lists;
    localizing at M reads only the middles of its Localization, and names any
    the table lacks. A record whose group passes finab.MAX_ORDER_BITS (2048
    bits of order, judged from its exponents) is invalid: no middle comes near
    it. A legacy `order_bound` field in JSON is type-checked and otherwise
    ignored.
    """

    def __init__(self, primes: Iterable[int], values: Mapping[FinAbGroup, Fraction | int]):
        self.primes = tuple(sorted(set(check_primes(primes))))
        self._store: dict[Row, Fraction | int] = {}
        for g, v in values.items():
            if not isinstance(g, FinAbGroup):
                raise InputError(f"moment keys must be groups, got {quote(g)}")
            self._put(g.components, exact(v, "a moment"))

    def _row(self, comps: Components) -> Row | None:
        """The row of the group with these components, None if it has a prime
        the table lacks."""
        parts = dict(comps)
        row = tuple(map(parts.pop, self.primes, itertools.repeat(())))
        return None if parts else row

    def _put(self, comps: Components, value: Fraction | int) -> None:
        row = self._row(comps)
        if row is None:
            raise InputError(f"group {FinAbGroup(comps)} is not supported on primes {self.primes}")
        if value < 0:
            raise InputError(f"moment at {FinAbGroup(comps)} is negative")
        self._store[row] = value

    def __contains__(self, g: FinAbGroup) -> bool:
        return self._row(g.components) in self._store

    def __call__(self, g: FinAbGroup) -> Fraction:
        try:
            return Fraction(self._store[self._row(g.components)])
        except KeyError:
            raise InputError(f"moment table has no entry for {g}") from None

    @property
    def values(self) -> dict[FinAbGroup, Fraction]:
        """Every record as group -> value; builds them all."""
        return {
            FinAbGroup(tuple((p, parts) for p, parts in zip(self.primes, row) if parts)): Fraction(v)
            for row, v in self._store.items()
        }

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
        its value, which must parse and be >= 0. _ingest_columns proves them
        all in one pass, at one json_component check per distinct (prime key,
        exponents) pair and one parse per distinct value, and fills the store
        in record order. Where it cannot, the record loop below runs from the
        first record: it is the reference and the only code that words a
        refusal.

        The cyclic garbage collector is off meanwhile, and on again after only
        if it was on before: parsed JSON and the store hold no cycles, so a
        collection during ingest walks them and frees nothing. Turning it on
        allocates nothing, so no collection starts before the caller's next
        allocation. cli.run() turns the collector off for good."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            table = cls(obj["primes"], {})
            if "order_bound" in obj:
                natural(obj["order_bound"], "order_bound", 1)
            records = obj["moments"]
            if not _ingest_columns(table, records):
                table._store.clear()
                for rec in records:
                    comps = group_components(rec["group"])
                    if table._row(comps) in table._store:
                        raise InputError(
                            f"duplicate group {FinAbGroup(comps)} in module moment-table JSON"
                        )
                    table._put(comps, parse_rational(rec["value"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad module moment-table JSON: {exc}") from exc
        finally:
            if enabled:
                gc.enable()
        return table


_GROUP, _VALUE = operator.itemgetter("group"), operator.itemgetter("value")


def _ingest_columns(table: ModuleMomentTable, records) -> bool:
    """Store the records in the empty store of `table` as the record loop of
    from_json_obj would, proving in one pass over them, with builtin passes,
    that the loop would accept them all: types first, each distinct value
    once by parse_rational, each distinct (prime key, exponents) pair once by
    json_component, one key per table prime, and no duplicate by the size of
    the store. Each key gives a column over all records, its exponent list
    or () where a record lacks the key, made tuples and checked a column at
    a time; one zip of the columns in prime order makes the rows, none
    sorted, and fills the store in record order. False at anything not
    proved, rare valid shapes such as an empty exponent list too; the store
    is then filled only if two records are one group."""
    if type(records) is not list:
        return False
    try:  # whatever rec["group"] reads, as in the record loop
        groups, values = list(map(_GROUP, records)), list(map(_VALUE, records))
    except (KeyError, TypeError):
        return False
    if not set(map(type, groups)) <= {dict} or not set(map(type, values)) <= {str, int}:
        return False
    parsed: dict[str | int, Fraction | int] = {}
    for v in set(values):
        try:
            parsed[v] = parse_rational(v)
        except InputError:
            return False
        if parsed[v] < 0:
            return False
    columns = {}  # prime -> its column of exponent tuples, sorted decreasing
    bits = 0  # order bits of each prime's largest component, summed
    for key in set(itertools.chain.from_iterable(groups)):
        raw = list(map(dict.get, groups, itertools.repeat(key), itertools.repeat(())))
        if not set(map(type, raw)) <= {list, tuple} or [] in raw:
            return False
        exponents = list(map(tuple, raw))
        # types before hashing: True and 1.0 hash as 1 does
        if not set(map(type, itertools.chain.from_iterable(exponents))) <= {int}:
            return False
        known = {(): ()}
        new = set(exponents).difference(known)
        for parts in new:
            try:
                p, known[parts] = json_component(key, parts)
            except InputError:
                return False
        if not new or p not in table.primes or p in columns:
            return False
        bits += order_bits(p, max(new, key=sum))
        columns[p] = map(known.__getitem__, exponents)
    if bits > MAX_ORDER_BITS:
        return False
    rows = zip(*(columns.get(p, itertools.repeat(())) for p in table.primes))
    store = table._store
    store.update(zip(rows, map(parsed.__getitem__, values)))
    return len(store) == len(records)  # else two records are one group


class Localization:
    """The one rule for what localizing at M reads, as a plan every walk
    replays: for each k <= k_bound, k_i the exponent of F_p for the i-th of
    the distinct `primes`, the middles M' of 0 -> N_k -> M' -> M -> 0 with
    N_k = prod F_p**k_i, M plus a vertical strip of k_i boxes at each p. The
    primes and k_bound are checked when the plan is made; a step when an
    iteration first reaches it, and then kept. Iterating yields (k, step),
    step the (middle, class count) pairs of candidate_middles(N_k, M);
    kernel(k) builds N_k, which is not kept."""

    def __init__(self, M: FinAbGroup, primes: Sequence[int], k_bound: Sequence[int]):
        primes = check_primes(primes)
        if len(set(primes)) < len(primes):
            raise InputError(f"localization needs distinct primes, got {list(primes)}")
        self.M, self.primes = M, primes
        self.basis = tuple(map(SimpleType.abelian, primes))
        self.k_bound = check_index(self.basis, k_bound, "k_bound")
        self._steps: list[list[tuple[FinAbGroup, int]]] = []  # the steps made, in the order of k

    def kernel(self, k: MultiIndex) -> FinAbGroup:
        return FinAbGroup(tuple(sorted((p, (1,) * n) for p, n in zip(self.primes, k) if n)))

    def __iter__(self) -> Iterator[tuple[MultiIndex, list[tuple[FinAbGroup, int]]]]:
        steps = self._steps
        for i, k in enumerate(itertools.product(*(range(b + 1) for b in self.k_bound))):
            if i == len(steps):
                steps.append(candidate_middles(self.kernel(k), self.M))
            yield k, steps[i]

    def bracket(self, table: ModuleMomentTable) -> Bracket:
        """Certified bracket for the mass at M of any nonnegative measure with
        the moments in `table`: the localized moments inverted, over |Aut(M)|."""
        bracket = multi_invert_zero(localized_moments(table, self), self.k_bound)
        return bracket.scale(Fraction(1, aut_count(self.M)))


def localized_moments(table: ModuleMomentTable, loc: Localization) -> MomentTable:
    """Moments of the localized measure at loc.M, one per step of the plan
    loc, whose middles are the only groups read.

    The k-th localized moment is the extension-class sum
    sum n * table(M') / sum n over the (middle M', class count n) pairs of
    the step: the counts sum to |Ext^1(M, N_k)| = |Hom(M, N_k)|. A middle
    the table lacks is a hard error naming it, and N_k is built again only
    to name it there."""
    M, values = loc.M, {}
    for k, step in loc:
        missing = [mid for mid, _ in step if mid not in table]
        if missing:  # the middles are bounded groups, so their order prints
            N, named = loc.kernel(k), ", ".join(map(str, missing[:8]))
            raise InputError(f"moment table lacks middles for N={N}, M={M} (order "
                             f"{N.order * M.order}): {named}{'...' * (len(missing) > 8)}")
        total = Fraction(0)
        for mid, n in step:
            v = table(mid)
            if v:
                total += n * v
        values[k] = total / sum(n for _, n in step) if total else total
    return MomentTable(loc.basis, loc.k_bound, values)

