"""Resource budgets: caps on the work a call may start.

The closed-form hom, aut, surjection and extension counts enumerate no
group elements and take no budget. The oracles that check them, in
momentforge.oracle, do: each exhaustive search is metered by the number of
candidate generator-image tuples it would visit, not by group order,
because a cyclic group of order 2**20 admits a 20-element image search
while (Z/2)**10 admits 2**100, so order is the wrong resource measure.

The cokernel sampler takes one too. Before drawing, it estimates its work
as count * (n**2 * (n+u) + 1) * cap: the entry updates of count Smith
reductions of n x (n+u) matrices, times the cap compares of a valuation,
and at least one unit per draw. The default cap admits one draw of every
matrix size and modulus the sampler accepts (n * (n+u) <= 2**20 entries,
cap <= 30) and 10**5 draws of 8 x 8 at cap 3 with room to spare, and
refuses in advance the runs that would take hours.

The environment variable MOMENTFORGE_BUDGET is the one way to set a cap:
it overrides the candidate cap (a bare integer) or any field (a JSON object
such as {"max_candidates": 10000000, "max_order": 100000}).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .errors import BudgetExceededError, InputError, Value
from .rationals import clip, clip_int, natural

ENV_VAR = "MOMENTFORGE_BUDGET"


class Budget(Value):
    """Caps on work, each a positive integer.

    max_candidates: largest number of generator-image tuples a single
        enumeration may visit.
    max_order: largest order of a group an oracle accepts, domain or target.
    max_sample_work: largest estimated work of one sampler run.
    """

    __slots__ = ("max_candidates", "max_order", "max_sample_work")

    def __init__(self, max_candidates: int = 4_000_000, max_order: int = 65_536,
                 max_sample_work: int = 2**35) -> None:
        self._init(max_candidates, max_order, max_sample_work)
        for name in self.__slots__:
            natural(getattr(self, name), f"budget field {name}", 1)

    def check_candidates(self, count: int, what: str) -> None:
        if count > self.max_candidates:
            raise BudgetExceededError(
                f"{what}: {clip_int(count)} candidate tuples exceed the budget of "
                f"{self.max_candidates} (override with {ENV_VAR})"
            )

    def check_order(self, order: int, what: str) -> None:
        if order > self.max_order:
            raise BudgetExceededError(
                f"{what}: group order {clip_int(order)} exceeds the element-table cap of "
                f"{self.max_order} (override with {ENV_VAR})"
            )

    def check_sample_work(self, work: int, what: str) -> None:
        if work > self.max_sample_work:
            raise BudgetExceededError(
                f"{what}: estimated work {clip_int(work)} exceeds the sampler cap of "
                f"{self.max_sample_work} (override with {ENV_VAR})"
            )


def budget_from_env() -> Budget:
    """Budget with any overrides from MOMENTFORGE_BUDGET applied."""
    return _budget(os.environ.get(ENV_VAR))


@lru_cache(maxsize=16)  # the variable is read on every call, each value parsed once
def _budget(raw: str | None) -> Budget:
    if raw is None:
        return Budget()
    raw = raw.strip()
    try:
        if raw.startswith("{"):
            fields = json.loads(raw)
            return Budget(**fields)
        return Budget(max_candidates=int(raw))
    except (ValueError, TypeError, InputError) as exc:
        raise InputError(f"cannot parse {ENV_VAR}={clip(repr(raw))}: {clip(str(exc))}") from exc
