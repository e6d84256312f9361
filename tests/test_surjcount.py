import pytest

from momentforge.errors import InputError
from momentforge.qseries import SimpleType
from momentforge.surjcount import basis_from_json_obj, sur_product, sur_single

F2 = SimpleType.abelian(2)
F3 = SimpleType.abelian(3)
A5 = SimpleType.nonabelian(120)


def test_sur_single_values():
    assert sur_single(F2, 2, 1) == 3
    assert sur_single(F2, 0, 0) == 1
    assert sur_single(A5, 0, 0) == 1
    assert sur_single(A5, 2, 1) == 240
    assert sur_single(A5, 2, 2) == 28800
    assert sur_single(F3, 2, 2) == (9 - 1) * (9 - 3)


@pytest.mark.parametrize("t", [F2, F3, SimpleType.abelian(4), A5])
def test_vanishing_iff_k_exceeds_e(t):
    for e in range(5):
        for k in range(6):
            val = sur_single(t, e, k)
            assert (val == 0) == (k > e), (t, e, k, val)


@pytest.mark.parametrize("t", [F2, F3, A5])
def test_monotone_in_e(t):
    for k in range(4):
        prev = sur_single(t, 0, k)
        for e in range(1, 7):
            cur = sur_single(t, e, k)
            assert cur >= prev
            prev = cur


def test_sur_product():
    basis = (F2, F3)
    assert sur_product(basis, (2, 1), (1, 1)) == 6
    assert sur_product(basis, (0, 0), (0, 0)) == 1
    assert sur_product(basis, (1, 0), (0, 1)) == 0
    mixed = (F2, A5)
    assert sur_product(mixed, (2, 2), (1, 1)) == 3 * 240
    # a coordinate with k > e is 0 whatever the others; k = 0 everywhere is 1
    assert sur_product(basis, (10**9, 1), (1, 2)) == 0
    assert sur_product(mixed, (1, 10**9), (2, 1)) == 0
    assert sur_product(mixed, (10**9, 10**9), (0, 0)) == 1


def test_length_mismatch_is_hard_error():
    basis = (F2, F3)
    with pytest.raises(InputError):
        sur_product(basis, (1,), (1, 1))
    with pytest.raises(InputError):
        sur_product(basis, (1, 1), (1, 1, 1))
    with pytest.raises(InputError):
        sur_product(basis, (1, -1), (0, 0))


def test_basis_json_roundtrip():
    basis = (F2, A5, F3)
    assert basis_from_json_obj([t.to_json_obj() for t in basis]) == basis
    for bad in ({"kind": "abelian", "h": 2}, "F2", None):
        with pytest.raises(InputError, match="basis JSON must be a list of simple types"):
            basis_from_json_obj(bad)
