"""Groups by name for the tests: Z(12, 2) is Z/12 x Z/2, elementary(p, r) is (Z/p)**r."""

from __future__ import annotations

from momentforge.finab import FinAbGroup


def Z(*orders: int) -> FinAbGroup:
    """Product of cyclic groups of the given orders, factored by trial division."""
    comps: dict[int, list[int]] = {}
    for n in orders:
        for p in range(2, n + 1):
            a = 0
            while n % p == 0:
                n, a = n // p, a + 1
            if a:
                comps.setdefault(p, []).append(a)
    return FinAbGroup.from_dict(comps)


def elementary(p: int, rank: int) -> FinAbGroup:
    return FinAbGroup.from_dict({p: [1] * rank})
