"""Truncated moment inversion with certified two-sided brackets.

The alternating sums sum_{k<=r} c_k * moment(k) bound the mass at the
trivial index from above at every even r and from below at every odd r,
for any nonnegative mass function with the given moments. Taking the best
truncation on each side produces an exact-rational interval that is sound
unconditionally; it shrinks to a point as soon as the moments vanish
beyond the truncation.

Several types are eliminated one at a time: each stage turns the inner
sum over one exponent into a Bracket, and later stages consume those
Brackets with monotone (sign-directed) interval arithmetic, so soundness
survives the induction. A stage refuses at the first truncation where its
bounds cross, and sums no later term. multi_invert_zero is the only
inversion: a one-type table is its m = 1 case, and an empty basis returns
the single moment as a point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InfeasibleMomentsError, InputError, Value
from .qseries import SimpleType, inversion_coefficients
from .rationals import clip_int, exact, format_rational, parse_rational, quote
from .surjcount import Basis, MultiIndex, basis_from_json_obj, check_index


class Bracket(Value):
    """Certified exact-rational interval [lower, upper]."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction) -> None:
        self._init(lower, upper)
        if lower > upper:
            raise InfeasibleMomentsError(  # no numbers: they may pass the digit limit
                "bracket lower bound exceeds upper bound; "
                "the inputs are not moments of any nonnegative measure"
            )

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value: Fraction | int) -> bool:
        return self.lower <= value <= self.upper

    def scale(self, factor: Fraction) -> "Bracket":
        factor = exact(factor, "a bracket scaling factor")
        if factor < 0:
            raise InputError("bracket scaling factor must be nonnegative")
        return Bracket(self.lower * factor, self.upper * factor)

    def to_json_obj(self) -> dict:
        return {"lower": format_rational(self.lower), "upper": format_rational(self.upper)}

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


class MomentTable:
    """Complete grid of moments over a type basis.

    values[k] holds the k-th joint moment (the integral of the surjection
    count onto the k-th product power) for every multi-index k with
    k_i <= bound_i. All values must be nonnegative exact rationals.
    """

    def __init__(
        self,
        basis: Sequence[SimpleType],
        bound: Sequence[int],
        values: Mapping[MultiIndex, Fraction | int],
    ):
        self.basis: Basis = tuple(basis)
        self.bound = check_index(self.basis, bound, "bound")
        table: dict[MultiIndex, Fraction] = {}
        for k, v in values.items():
            k = check_index(self.basis, k, "moment index")
            v = exact(v, "a moment")
            if v < 0:
                raise InputError(f"moment at {quote(k)} is negative")
            table[k] = v
        for k in itertools.product(*(range(b + 1) for b in self.bound)):
            if k not in table:
                raise InputError(f"moment table is missing index {k}")
        self.values = table

    @classmethod
    def one_type(
        cls, t: SimpleType, values: Sequence[Fraction | int]
    ) -> "MomentTable":
        """Table over a single type from the list of moments at k = 0, 1, ..."""
        return cls(
            (t,),
            (len(values) - 1,),
            {(k,): v for k, v in enumerate(values)},
        )

    def reorder(self, perm: Sequence[int]) -> "MomentTable":
        """Table with the basis types permuted; entry i comes from perm[i]."""
        perm = tuple(perm)
        if any(type(i) is not int for i in perm) or sorted(perm) != list(range(len(self.basis))):
            raise InputError(f"not a permutation of 0..{len(self.basis) - 1}: {quote(perm)}")
        basis = tuple(self.basis[i] for i in perm)
        bound = tuple(self.bound[i] for i in perm)
        values = {
            tuple(k[i] for i in perm): v for k, v in self.values.items()
        }
        return MomentTable(basis, bound, values)

    def to_json_obj(self) -> dict:
        return {
            "basis": [t.to_json_obj() for t in self.basis],
            "bound": list(self.bound),
            "moments": [
                {"k": list(k), "value": format_rational(v)}
                for k, v in sorted(self.values.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "MomentTable":
        try:
            basis = basis_from_json_obj(obj["basis"])
            bound = obj["bound"]
            values: dict[tuple, Fraction] = {}
            for rec in obj["moments"]:
                k = check_index(basis, rec["k"], "moment index")
                if k in values:
                    raise InputError(
                        f"duplicate moment index {quote(list(k))} in moment-table JSON"
                    )
                values[k] = parse_rational(rec["value"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad moment-table JSON: {exc}") from exc
        return cls(basis, bound, values)


def _bracket_from_intervals(t: SimpleType, intervals: Sequence[Bracket]) -> Bracket:
    """Best even-truncation upper bound and odd-truncation lower bound of
    sum_k c_k * interval_k, evaluated endpoint-wise by the sign of c_k, with
    the coefficients c_k of t taken in order from one running sequence.

    Past the last interval L that is not the point 0 the partial sums stop
    at S_L, so the sum stops one term later: term L gives S_L to its parity
    and term L + 1 to the other, and no later term can cross them.

    The lower bound only rises and the upper bound only falls, so bounds
    that cross stay crossed: the sum stops at the first crossing, and
    Bracket refuses them. Bounds that merely meet go on, since a later term
    can still cross them."""
    last = len(intervals) - 1
    while last >= 0 and intervals[last].lower == 0 == intervals[last].upper:
        last -= 1
    lo_sum = hi_sum = Fraction(0)
    best_lower, best_upper = Fraction(0), intervals[0].upper  # masses are nonnegative; c_0 = 1
    terms = zip(inversion_coefficients(t), intervals[: last + 2])
    for r, (c, iv) in enumerate(terms):
        lo, hi = (iv.lower, iv.upper) if c > 0 else (iv.upper, iv.lower)
        lo_sum += c * lo
        hi_sum += c * hi
        if r % 2:
            if lo_sum > best_lower:
                best_lower = lo_sum
                if best_lower > best_upper:
                    break
        elif hi_sum < best_upper:
            best_upper = hi_sum
            if best_lower > best_upper:
                break
    return Bracket(best_lower, best_upper)


def multi_invert_zero(moments: MomentTable, r_max: Sequence[int]) -> Bracket:
    """Certified bracket for the mass at the all-zero multi-index.

    Types are eliminated in basis order. Stage j turns, for each remaining
    index, the family of Brackets over k_j into one Bracket via the
    even/odd truncation bounds; stage-one inputs are exact points. A stage
    whose bounds cross raises InfeasibleMomentsError from Bracket itself.
    The result contains the mass at (0,...,0) of any nonnegative mass
    function with the given joint moments.
    """
    r_max = check_index(moments.basis, r_max, "r_max")
    for i, (r, b) in enumerate(zip(r_max, moments.bound)):
        if r > b:
            raise InputError(f"r_max {clip_int(r)} exceeds the table bound {b} at type {i}")
    # current[idx] for idx over the remaining types j..m-1
    current: dict[MultiIndex, Bracket] = {
        idx: Bracket(moments.values[idx], moments.values[idx])
        for idx in itertools.product(*(range(r + 1) for r in r_max))
    }
    for j, t in enumerate(moments.basis):
        rest = [range(r + 1) for r in r_max[j + 1 :]]
        current = {
            tail: _bracket_from_intervals(t, [current[(k,) + tail] for k in range(r_max[j] + 1)])
            for tail in itertools.product(*rest)
        }
    return current[()]
