from itertools import combinations

import pytest

from momentforge.errors import BudgetExceededError
from momentforge.nonab_oracle import _a5, hom_a5_count, sur_a5_bruteforce
from momentforge.qseries import SimpleType
from momentforge.surjcount import sur_single

A5 = SimpleType.nonabelian(120)


def test_a5_has_sixty_even_permutations():
    # the element list every A5 enumeration walks
    elements = _a5()
    assert len(elements) == len(set(elements)) == 60
    for e in elements:
        assert sorted(e) == [0, 1, 2, 3, 4]
        assert sum(a > b for a, b in combinations(e, 2)) % 2 == 0  # even


def test_hom_count_is_121():
    # the trivial map plus the 120 automorphisms
    assert hom_a5_count() == 121


def test_oracle_examples():
    assert sur_a5_bruteforce(1, 1) == 120
    assert sur_a5_bruteforce(1, 2) == 0
    assert sur_a5_bruteforce(2, 1) == 240
    assert sur_a5_bruteforce(2, 2) == 28800


def test_oracle_matches_formula_up_to_two():
    for e in range(3):
        for k in range(3):
            assert sur_a5_bruteforce(e, k) == sur_single(A5, e, k), (e, k)


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        sur_a5_bruteforce(3, 1)
    with pytest.raises(BudgetExceededError):
        sur_a5_bruteforce(1, 3)
