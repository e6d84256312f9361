"""Groups by name for the tests: Z(12, 2) is Z/12 x Z/2, elementary(p, r) is (Z/p)**r.
Also the Hall numbers g^lam_{mu,(1^m)}(p), the reference the tests hold the
surjection and extension-class products against."""

from __future__ import annotations

from functools import lru_cache

from momentforge.finab import FinAbGroup, _conjugate
from momentforge.qseries import q_binomial


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


@lru_cache(maxsize=None)
def hall_number(p: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int) -> int:
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
