"""From moments of a measure on finite abelian groups to the mass of a
single group.

The route: moments of the localized measure at M are extension-class sums
of plain moments; inverting those localized moments brackets the localized
mass at 0, which is |Aut(M)| times the mass of M itself. The pipeline
consumes moment tables only; measures appear in the brute-force oracle
oracle.mu_local_direct used to cross-check it.

Localization is at a set of primes p, the simple groups Z/p: the sums read
the table only at the middles of extensions of M by products of the F_p**k_p,
M plus a vertical strip at each p. A table needs those groups and no others.
Its records are keyed by canonical exponent data, and every one of them is
validated when the table is loaded, but a group is built only for a record
that is read.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .finab import (
    Components,
    FinAbGroup,
    aut_count,
    candidate_middles,
    extension_class_count,
    group_components,
    hom_count,
    is_prime,
)
from .inversion import Bracket, MomentTable, multi_invert_zero
from .qseries import SimpleType
from .rationals import MAX_DIGITS, format_rational, parse_rational
from .surjcount import MultiIndex, check_index


class ModuleMomentTable:
    """Moments of a measure at finite abelian targets: group -> integral of
    the surjection count onto it.

    Records are keyed by canonical exponent data, FinAbGroup.components.
    Every record is validated when the table is made, but a group is built
    only for a record that is read, and a value read from JSON as plain
    digits becomes a Fraction only then. The table promises exactly the
    groups it lists. Reconstruction at M reads only M plus a vertical strip
    at each basis prime (see localized_moments), and names any of those the
    table lacks; nothing else is required. A record whose group passes
    finab.MAX_ORDER_BITS (2048 bits of order, judged from its exponents) is
    invalid: no middle comes near it. A legacy `order_bound` field in JSON
    is type-checked and otherwise ignored.
    """

    def __init__(self, primes: Iterable[int], values: Mapping[FinAbGroup, Fraction | int]):
        try:
            primes = tuple(primes)
        except TypeError as exc:
            raise InputError(f"primes must be a list of integers, got {primes!r}") from exc
        if any(type(p) is not int for p in primes):
            raise InputError(f"primes must be a list of integers, got {primes!r}")
        self.primes = tuple(sorted(set(primes)))
        for p in self.primes:
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
        self._store: dict[Components, Fraction | int] = {}
        for g, v in values.items():
            if not isinstance(g, FinAbGroup):
                raise InputError(f"moment keys must be groups, got {g!r}")
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
        """Table from JSON, every record checked in one pass: its group, the
        group's support on the table primes, duplicates after
        canonicalization, and its value, which must parse and be >= 0."""
        try:
            table = cls(obj["primes"], {})
            if "order_bound" in obj:
                order_bound = obj["order_bound"]
                if type(order_bound) is not int or order_bound < 1:
                    raise InputError(f"order_bound must be an integer >= 1, got {order_bound!r}")
            for rec in obj["moments"]:
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


def _parse_value(v) -> Fraction | int:
    """A record's value: plain ASCII digits as an int, anything else, and a run
    past MAX_DIGITS, by parse_rational."""
    if type(v) is str and v.isascii() and v.isdigit() and len(v) <= MAX_DIGITS:
        try:
            return int(v)
        except ValueError:  # past sys.get_int_max_str_digits(): parse_rational says so
            pass
    return parse_rational(v)


def _semisimple_target(primes: Sequence[int], k: MultiIndex) -> FinAbGroup:
    return FinAbGroup.from_dict({p: [1] * ki for p, ki in zip(primes, k) if ki})


def localized_moments(
    table: ModuleMomentTable,
    M: FinAbGroup,
    primes: Sequence[int],
    k_bound: Sequence[int],
) -> MomentTable:
    """Moments of the localized measure at M, one per multi-index k <= k_bound,
    with k_i the exponent of F_p for the i-th of the distinct `primes`.

    The k-th localized moment is the extension-class sum
    sum_{M'} classCount(N_k, M', M) * table(M') / |Hom(M, N_k)| over middles
    of exact sequences 0 -> N_k -> M' -> M -> 0. Those middles are exactly
    the candidate_middles: M plus a vertical strip at each prime, each with
    a positive class count. They are the only groups the table must hold: a
    missing one is a hard error naming it, and no other entry is looked up.
    """
    primes = tuple(primes)
    not_prime = any(type(p) is not int or not is_prime(p) for p in primes)
    if not_prime or len(set(primes)) < len(primes):
        raise InputError(f"localization needs distinct primes, got {list(primes)}")
    basis = tuple(SimpleType.abelian(p) for p in primes)
    k_bound = check_index(basis, k_bound, "k_bound")

    values: dict[MultiIndex, Fraction] = {}
    for k in itertools.product(*(range(b + 1) for b in k_bound)):
        target = _semisimple_target(primes, k)
        middles = candidate_middles(target, M)
        missing = [mid for mid in middles if mid not in table]
        if missing:  # the middles are bounded groups, so their order prints
            raise InputError(
                f"moment table lacks middles for N={target}, M={M} "
                f"(order {target.order * M.order}): "
                + ", ".join(str(g) for g in missing[:8])
                + ("..." if len(missing) > 8 else "")
            )
        denom = hom_count(M, target)
        total = Fraction(0)
        for mid in middles:
            v = table(mid)
            if v:
                total += extension_class_count(target, M, mid) * v
        values[k] = total / denom
    return MomentTable(basis, k_bound, values)


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
