"""Exact q-series arithmetic: frames, q-Pochhammer products, Gaussian
binomials, and the alternating inversion coefficients used to recover the
mass at the trivial group from surjection moments.

Everything here is exact: integers are arbitrary precision and the
coefficients are `fractions.Fraction`. No float enters a result. Long
products, as in frames and q_pochhammer, go through one balanced _product.
"""

from __future__ import annotations

import decimal
import itertools
from fractions import Fraction
from functools import lru_cache
from math import log2, prod
from typing import Iterable, Iterator

from .errors import InputError, Value
from .rationals import clip_int, natural, quote

ABELIAN = "abelian"
NONABELIAN = "nonabelian"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is exact below this bound, the least
# strong pseudoprime to all of them; 2..37 alone pass 318665857834031151167461.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=4096)  # group construction asks about the same few primes
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InputError at or above PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise InputError(f"a {n.bit_length()}-bit integer is too large for the primality test")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_primes(primes) -> tuple[int, ...]:
    """primes as a tuple, each an int (not a bool) that is prime: the one rule
    for a list of primes. A caller that needs them distinct says so."""
    try:
        ps = tuple(primes)
    except TypeError as exc:
        raise InputError(f"primes must be a list of integers, got {quote(primes)}") from exc
    if any(type(p) is not int for p in ps):
        raise InputError(f"primes must be a list of integers, got {quote(ps)}")
    for p in ps:
        if not is_prime(p):
            raise InputError(f"{clip_int(p)} is not prime")
    return ps


_LN = decimal.Context(prec=40)  # ln n to 40 digits: a root below 2**82 to within 1e-13


def is_prime_power(n: int) -> bool:
    """True iff n = p**r for a prime p and r >= 1. Roots are tried from r =
    n.bit_length() down, n itself last: the first exact root c is the least
    base, prime iff n is a prime power. A float estimates a root below 2**32
    (within 1e-4), ln n one up to PRIME_TEST_LIMIT, past which none is sought;
    c**r is formed only for an estimate within 1e-3 of a c that divides n."""
    if n < 2:
        return False
    log2n, s = log2(n), max(n.bit_length() - 128, 0)  # ln n from its top 128 bits
    with decimal.localcontext(_LN):
        ln_n = decimal.Decimal(n >> s).ln() + s * decimal.Decimal(2).ln() if log2n >= 64 else None
        for r in range(n.bit_length(), 1, -1):
            root = 2 ** (log2n / r) if log2n < 32 * r else (ln_n / r).exp()
            if root >= PRIME_TEST_LIMIT:
                break
            c = round(root)
            if abs(root - c) < 1e-3 and n % c == 0 and c**r == n:
                return is_prime(c)
    return is_prime(n)


class SimpleType(Value):
    """An isomorphism class of simple building block.

    Abelian blocks carry the size h of their endomorphism field; h must be
    a prime power. Non-abelian blocks carry their automorphism count.
    """

    __slots__ = ("kind", "h", "aut")

    def __init__(self, kind: str, h: int | None = None, aut: int | None = None) -> None:
        self._init(kind, h, aut)
        if kind == ABELIAN:
            if aut is not None:
                raise InputError("abelian type takes h, not aut")
            if not is_prime_power(natural(h, "h", 2)):  # is_prime bounds h
                raise InputError(f"abelian type needs a prime-power h, got {h}")
        elif kind == NONABELIAN:
            if h is not None:
                raise InputError("nonabelian type takes aut, not h")
            natural(aut, "aut", 1)
        else:
            raise InputError(f"unknown simple type kind {quote(kind)}")

    @classmethod
    def abelian(cls, h: int) -> "SimpleType":
        return cls(kind=ABELIAN, h=h)

    @classmethod
    def nonabelian(cls, aut: int) -> "SimpleType":
        return cls(kind=NONABELIAN, aut=aut)

    @property
    def is_abelian(self) -> bool:
        return self.kind == ABELIAN

    def to_json_obj(self) -> dict:
        if self.is_abelian:
            return {"kind": ABELIAN, "h": self.h}
        return {"kind": NONABELIAN, "aut": self.aut}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimpleType":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError(f"bad simple-type JSON: {quote(obj)}")
        kind = obj["kind"]  # __init__ refuses any other kind
        field = "h" if kind == ABELIAN else "aut"
        return cls(kind=kind, **{field: obj.get(field)})


def _product(factors: list[int]) -> int:
    """prod(factors), multiplied in pairs, then pairs of pairs: one at a time,
    the k factors of |GL_k(F_h)| would take time quadratic in its k**2 bits."""
    while len(factors) > 8:  # a few factors multiply as fast one at a time
        pairs = itertools.zip_longest(factors[::2], factors[1::2], fillvalue=1)
        factors = [x * y for x, y in pairs]
    return prod(factors)


def frames(h: int, dims: Iterable[int]) -> int:
    """prod_i (h**dims[i] - h**i), unchecked, for weakly increasing dims: the
    tuples over F_h whose i-th vector lies in a dims[i]-space holding the ones
    before it, outside their span. dims is read lazily: the count is 0 at the
    first i with dims[i] <= i, and no later power is formed."""
    out, h_i, n_last, h_n = [], 1, -1, 1  # h_i = h**i, h_n = h**n_last
    for i, n in enumerate(dims):
        if n <= i:
            return 0
        if n != n_last:
            n_last, h_n = n, h**n
        out.append(h_n - h_i)
        h_i *= h
    return prod(out) if len(out) <= 8 else _product(out)


def q_pochhammer(h: int, k: int) -> int:
    """prod_{j=1..k} (h**j - 1) by _product, 1 for k = 0: not frames' factors, so
    it checks inversion_coefficients' running denominator without sharing code."""
    h, k = natural(h, "h", 2), natural(k, "k")
    return _product([h**j - 1 for j in range(1, k + 1)])


def q_binomial(e: int, k: int, h: int) -> int:
    """Gaussian binomial coefficient (e choose k) with base h.

    Counts k-dimensional subspaces of an e-dimensional space over the
    h-element field; 0 when k > e.
    """
    h, e, k = natural(h, "h", 2), natural(e, "e"), natural(k, "k")
    if k > e:
        return 0
    k = min(k, e - k)
    return frames(h, [e] * k) // frames(h, [k] * k)


def inversion_coefficients(t: SimpleType) -> Iterator[Fraction]:
    """The coefficients c_0, c_1, ... of the alternating inversion sum for type t.

    c_0 = 1, and c_k = -c_(k-1) / (h**k - 1) for an abelian type with field
    size h, or -c_(k-1) / (k * aut) for a non-abelian one; one step per term,
    so the first r terms cost r products, not r q-Pochhammer products. Signs
    alternate and magnitudes decay superexponentially, which is what makes
    truncations two-sided bounds.
    """
    sign, den = 1, 1
    for k in itertools.count(1):
        yield Fraction(sign, den)
        sign, den = -sign, den * (t.h**k - 1 if t.is_abelian else k * t.aut)


def inversion_coefficient(t: SimpleType, k: int) -> Fraction:
    """The k-th term of inversion_coefficients(t)."""
    return next(itertools.islice(inversion_coefficients(t), natural(k, "k"), None))
