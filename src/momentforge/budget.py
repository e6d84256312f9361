"""Resource budgets for the brute-force oracles.

The production path (closed-form hom, aut, surjection and extension counts)
enumerates no group elements and takes no budget. Only the oracles that
check it, in momentforge.oracle, do: each exhaustive search is metered by
the number of candidate generator-image tuples it would visit, not by group
order, because a cyclic group of order 2**20 admits a 20-element image
search while (Z/2)**10 admits 2**100, so order is the wrong resource measure.

The environment variable MOMENTFORGE_BUDGET overrides the candidate cap
(a bare integer) or any field (a JSON object such as
{"max_candidates": 10000000, "max_order": 100000}).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import BudgetExceededError, InputError

ENV_VAR = "MOMENTFORGE_BUDGET"


@dataclass(frozen=True)
class Budget:
    """Caps for exhaustive enumeration, each a positive integer.

    max_candidates: largest number of generator-image tuples a single
        enumeration may visit.
    max_order: largest order of a group an oracle accepts, domain or target.
    """

    max_candidates: int = 4_000_000
    max_order: int = 65_536

    def __post_init__(self):
        for name in ("max_candidates", "max_order"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise InputError(f"budget field {name} must be a positive integer, got {value!r}")

    def check_candidates(self, count: int, what: str) -> None:
        if count > self.max_candidates:
            raise BudgetExceededError(
                f"{what}: {count} candidate tuples exceed the budget of "
                f"{self.max_candidates} (override with {ENV_VAR})"
            )

    def check_order(self, order: int, what: str) -> None:
        if order > self.max_order:
            raise BudgetExceededError(
                f"{what}: group order {order} exceeds the element-table cap of "
                f"{self.max_order} (override with {ENV_VAR})"
            )


def budget_from_env() -> Budget:
    """Budget with any overrides from MOMENTFORGE_BUDGET applied."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return Budget()
    raw = raw.strip()
    try:
        if raw.startswith("{"):
            fields = json.loads(raw)
            return Budget(**fields)
        return Budget(max_candidates=int(raw))
    except (ValueError, TypeError, InputError) as exc:
        raise InputError(f"cannot parse {ENV_VAR}={raw!r}: {exc}") from exc


def resolve(budget: Budget | None) -> Budget:
    return budget if budget is not None else budget_from_env()
