"""Closed-form surjection counts between powers and products of simple types.

For an abelian type with endomorphism field of size h,
Sur(G**e, G**k) = (h**e - 1)(h**e - h)...(h**e - h**(k-1)), the number of
surjective k x e matrices over the field: qseries.frames. For a non-abelian
type, Sur(G**e, G**k) = e(e-1)...(e+1-k) * aut**k. Counts across a basis, a
tuple of types taken as pairwise non-isomorphic (distinctness is positional,
not checked), multiply coordinatewise; some k_i > e_i gives 0 at once.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InputError
from .qseries import SimpleType, frames
from .rationals import natural, quote

MultiIndex = tuple[int, ...]
Basis = tuple[SimpleType, ...]


def basis_from_json_obj(obj: list) -> Basis:
    if not isinstance(obj, list):
        raise InputError(f"basis JSON must be a list of simple types, got {quote(obj)}")
    return tuple(SimpleType.from_json_obj(entry) for entry in obj)


def check_index(basis: Basis, idx: Sequence[int], name: str) -> MultiIndex:
    try:
        idx = tuple(idx)
    except TypeError as exc:
        raise InputError(f"{name} must be a list of integers, got {quote(idx)}") from exc
    if len(idx) != len(basis):
        raise InputError(f"{name} has length {len(idx)}, not {len(basis)}")
    what = f"each entry of {name}"  # no silent truncation of 1.9 or True
    return tuple([natural(v, what) for v in idx])


def sur_single(t: SimpleType, e: int, k: int) -> int:
    """Number of surjections from the e-th power of t onto the k-th power:
    0 whenever k > e and 1 when k = 0."""
    e, k = natural(e, "e"), natural(k, "k")
    if k > e:
        return 0
    if t.is_abelian:
        return frames(t.h, [e] * k)
    return math.perm(e, k) * t.aut**k


def sur_product(basis: Basis, e: Sequence[int], k: Sequence[int]) -> int:
    """Surjection count between products prod t_i**e_i -> prod t_i**k_i."""
    e = check_index(basis, e, "e")
    k = check_index(basis, k, "k")
    if any(ki > ei for ei, ki in zip(e, k)):
        return 0
    return math.prod(sur_single(t, ei, ki) for t, ei, ki in zip(basis, e, k))
