"""From moments of a measure on finite abelian groups to the mass of a
single group.

The route: moments of the localized measure at M are extension-class sums
of plain moments; inverting those localized moments brackets the localized
mass at 0, which is |Aut(M)| times the mass of M itself. The pipeline
consumes moment tables only; measures appear in the brute-force oracle
mu_local_direct used to cross-check it.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .finab import (
    FinAbGroup,
    Measure,
    aut_count,
    candidate_middles,
    enumerate_groups,
    extension_class_count,
    group_count,
    hom_count,
    is_prime,
    surjection_kernel_profile,
)
from .inversion import Bracket, MomentTable, multi_invert_zero
from .rationals import format_rational, parse_rational
from .surjcount import MultiIndex, TypeBasis, check_index


class ModuleMomentTable:
    """Moments of a measure at finite abelian targets: group -> integral of
    the surjection count onto it.

    The table is complete for every group on `primes` with order up to
    order_bound; extra entries beyond that bound are allowed and used when
    present.

    Completeness is checked by counting, not by building every group: the
    keys are distinct groups, each checked to lie on the table primes, so
    the keys of order <= order_bound are a subset of the groups on those
    primes of that order. The subset is all of them exactly when both have
    the same size, and group_count gives the size of the latter in closed
    form. Only an incomplete table enumerates groups, to name what it lacks.
    """

    def __init__(
        self,
        primes: Iterable[int],
        order_bound: int,
        values: Mapping[FinAbGroup, Fraction | int],
    ):
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
        if type(order_bound) is not int:
            raise InputError(f"order_bound must be an integer, got {order_bound!r}")
        if order_bound < 1:
            raise InputError(f"order_bound must be >= 1, got {order_bound}")
        self.order_bound = order_bound
        table: dict[FinAbGroup, Fraction] = {}
        for g, v in values.items():
            if not isinstance(g, FinAbGroup):
                raise InputError(f"moment keys must be groups, got {g!r}")
            if any(p not in self.primes for p in g.primes):
                raise InputError(f"group {g} is not supported on primes {self.primes}")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v < 0:
                raise InputError(f"moment at {g} is negative: {v}")
            table[g] = v
        orders = sorted(g.order for g in table)
        if _shortfall(self.primes, orders, order_bound, 1):
            missing = _missing_groups(self.primes, orders, order_bound, table)
            raise InputError(
                f"moment table is not complete up to order {order_bound}; "
                f"missing {', '.join(str(g) for g in missing[:8])}"
                + ("..." if len(missing) > 8 else "")
            )
        self.values = table

    def __contains__(self, g: FinAbGroup) -> bool:
        return g in self.values

    def __call__(self, g: FinAbGroup) -> Fraction:
        try:
            return self.values[g]
        except KeyError:
            raise InputError(f"moment table has no entry for {g}") from None

    def to_json_obj(self) -> dict:
        return {
            "primes": list(self.primes),
            "order_bound": self.order_bound,
            "moments": [
                {"group": g.to_json_obj(), "value": format_rational(v)}
                for g, v in sorted(self.values.items(), key=lambda kv: kv[0].sort_key())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ModuleMomentTable":
        try:
            primes = obj["primes"]
            order_bound = obj["order_bound"]
            values: dict[FinAbGroup, Fraction] = {}
            for rec in obj["moments"]:
                g = FinAbGroup.from_json_obj(rec["group"])
                if g in values:
                    raise InputError(f"duplicate group {g} in module moment-table JSON")
                values[g] = parse_rational(rec["value"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad module moment-table JSON: {exc}") from exc
        return cls(primes, order_bound, values)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())


def _shortfall(primes: Sequence[int], orders: list[int], bound: int, cap: int) -> int:
    """min(cap, number of groups on `primes` of order <= bound that are not
    keys), given the sorted orders of the keys, all groups on `primes`."""
    keys = bisect_right(orders, bound)
    return min(cap, group_count(primes, bound, stop=keys + cap - 1) - keys)


def _least_short_order(primes: Sequence[int], orders: list[int], bound: int, want: int) -> int:
    """Least b <= bound by which `want` groups are missing; the shortfall at
    bound must reach want. Keys are a subset of the groups, so the shortfall
    never decreases as b grows, and bisection finds b."""
    lo, hi = 1, bound
    while lo < hi:
        mid = (lo + hi) // 2
        if _shortfall(primes, orders, mid, want) >= want:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _missing_groups(
    primes: Sequence[int], orders: list[int], bound: int, table: Mapping[FinAbGroup, Fraction]
) -> list[FinAbGroup]:
    """Groups up to `bound` the table lacks, enumerated only up to the least
    order by which nine are missing (or all of them, if fewer): enough to
    name the first eight and to tell whether there are more."""
    want = _shortfall(primes, orders, bound, 9)
    last = _least_short_order(primes, orders, bound, want)
    return [g for g in enumerate_groups(primes, last) if g not in table]


def complete_order_bound(primes: Sequence[int], keys: set[FinAbGroup]) -> int:
    """Largest B such that every group on `primes` of order <= B is a key.
    `primes` must be primes (see group_count)."""
    on_primes = set(primes)
    orders = sorted(g.order for g in keys if on_primes.issuperset(g.primes))
    if not orders:
        return 0
    if not _shortfall(primes, orders, orders[-1], 1):
        return orders[-1]
    return _least_short_order(primes, orders, orders[-1], 1) - 1


def _basis_primes(basis: TypeBasis) -> tuple[int, ...]:
    ps = []
    for i, t in enumerate(basis):
        if not t.is_abelian or not is_prime(t.h):
            raise InputError(
                f"localization needs prime-field abelian basis entries, got {t} at {i}"
            )
        if t.h in ps:
            raise InputError(f"duplicate prime {t.h} in basis")
        ps.append(t.h)
    return tuple(ps)


def _semisimple_target(primes: Sequence[int], k: MultiIndex) -> FinAbGroup:
    return FinAbGroup.from_dict({p: [1] * ki for p, ki in zip(primes, k) if ki})


def localized_moments(
    table: ModuleMomentTable,
    M: FinAbGroup,
    basis: TypeBasis,
    k_bound: Sequence[int],
) -> MomentTable:
    """Moments of the localized measure at M, one per multi-index k <= k_bound.

    The k-th localized moment is the extension-class sum
    sum_{M'} classCount(N_k, M', M) * table(M') / |Hom(M, N_k)| over middles
    of exact sequences 0 -> N_k -> M' -> M -> 0. Those middles are exactly
    the candidate_middles: M plus a vertical strip at each prime, each with
    a positive class count. Completeness is checked eagerly for them and
    only them: a missing one is a hard error naming it, while groups of
    that order with no such sequence are never looked up.
    """
    ps = _basis_primes(basis)
    k_bound = check_index(basis, k_bound, "k_bound")
    if any(p not in table.primes for p in ps):
        raise InputError(
            f"basis primes {ps} are not all covered by the table primes {table.primes}"
        )
    if any(p not in table.primes for p in M.primes):
        raise InputError(f"{M} is not supported on the table primes {table.primes}")

    values: dict[MultiIndex, Fraction] = {}
    for k in itertools.product(*(range(b + 1) for b in k_bound)):
        target = _semisimple_target(ps, k)
        middles = candidate_middles(target, M)
        missing = [mid for mid in middles if mid not in table]
        if missing:
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


def mu_local_direct(mu: Measure, M: FinAbGroup, N: FinAbGroup) -> Fraction:
    """Mass the localized measure at M puts on N, by brute force.

    Integrates, over the support of mu, the number of surjections
    pi: X ->> M whose kernel semisimplifies to N. Oracle for the pipeline;
    its enumeration is metered by the Budget from the environment.
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


def reconstruct_probability(
    table: ModuleMomentTable,
    M: FinAbGroup,
    basis: TypeBasis,
    r_max: Sequence[int],
) -> Bracket:
    """Certified bracket for the mass at M of any nonnegative measure with
    the given moments: invert the localized moments, then divide by |Aut(M)|."""
    moments = localized_moments(table, M, basis, r_max)
    bracket = multi_invert_zero(moments, r_max)
    return bracket.scale(Fraction(1, aut_count(M)))
