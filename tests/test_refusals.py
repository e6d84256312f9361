"""A refusal names the value it refuses without itself failing: an integer past
Python's int-to-str digit limit (4300 digits by default) is quoted by its bit
length, so every bad argument ends in the package's own error, whatever its size."""

import pytest

from momentforge.budget import Budget
from momentforge.errors import BudgetExceededError, InputError
from momentforge.finab import FinAbGroup, Measure, enumerate_groups
from momentforge.inversion import MomentTable, multi_invert_zero
from momentforge.localize import Localization, ModuleMomentTable
from momentforge.nonab_oracle import sur_a5_bruteforce
from momentforge.qseries import SimpleType, inversion_coefficient, q_binomial, q_pochhammer
from momentforge.rationals import natural
from momentforge.sampler import SamplerConfig, convergence_report, sample_cokernel
from momentforge.surjcount import sur_product, sur_single

HUGE = 10**5000  # past the default digit limit: str() of it raises ValueError
F2 = SimpleType.abelian(2)
CONFIG = SamplerConfig(p=2, cap=3, n=2, seed=1, count=1)
ONE_TYPE = MomentTable.one_type(F2, [1])

CALLS = {
    "q_pochhammer": lambda x: q_pochhammer(2, x),
    "q_binomial": lambda x: q_binomial(x, 1, 2),
    "inversion_coefficient": lambda x: inversion_coefficient(F2, x),
    "SimpleType.abelian": lambda x: SimpleType.abelian(x),
    "SimpleType.nonabelian": lambda x: SimpleType.nonabelian(x),
    "sur_single": lambda x: sur_single(F2, x, 1),
    "sur_product": lambda x: sur_product((F2,), (x,), (1,)),
    "MomentTable-bound": lambda x: MomentTable((F2,), (x,), {}),
    "multi_invert_zero": lambda x: multi_invert_zero(ONE_TYPE, (x,)),
    "Localization": lambda x: Localization(FinAbGroup.trivial(), (2,), (x,)),
    "ModuleMomentTable-primes": lambda x: ModuleMomentTable((x,), {}),
    "FinAbGroup-prime": lambda x: FinAbGroup(((x, (1,)),)),
    "enumerate_groups-prime": lambda x: enumerate_groups((x,), 4),
    "enumerate_groups-order_bound": lambda x: enumerate_groups((2,), x),
    "Budget": lambda x: Budget(max_order=x),
    "SamplerConfig": lambda x: SamplerConfig(p=2, cap=3, n=2, seed=x, count=1),
    "sample_cokernel": lambda x: sample_cokernel(CONFIG, x),
    "convergence_report": lambda x: convergence_report(CONFIG, [1], [], x),
    "sur_a5_bruteforce": lambda x: sur_a5_bruteforce(x, 1),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_a_huge_negative_int_is_an_input_error(call):
    with pytest.raises(InputError):
        call(-HUGE)


BITS = "<a 16610-bit integer>"


@pytest.mark.parametrize("call, error, message", [
    (lambda: multi_invert_zero(ONE_TYPE, (HUGE,)), InputError, BITS),
    (lambda: sample_cokernel(CONFIG, HUGE), InputError, BITS),
    (lambda: SamplerConfig(p=2, cap=3, n=2, seed=HUGE, count=1), InputError, BITS),
    (lambda: convergence_report(CONFIG, [HUGE], [], 1), InputError, BITS),
    (lambda: sur_a5_bruteforce(HUGE, 0), BudgetExceededError, BITS),
    (lambda: Budget().check_candidates(HUGE, "a search"), BudgetExceededError, BITS),
    (lambda: MomentTable((F2,), (0,), {(0,): 1, (HUGE,): -1}), InputError,
     "^moment at <a tuple too long to print> is negative$"),
    (lambda: ONE_TYPE.reorder((HUGE,)), InputError, "<a tuple too long to print>$"),
    (lambda: Measure({FinAbGroup.trivial(): -HUGE}), InputError, "^negative mass at 0$"),
], ids=["r_max", "draw-index", "seed", "counts", "a5-power", "budget", "moment-index",
        "permutation", "mass"])
def test_a_huge_int_past_the_first_check_is_quoted_safely(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_natural_quotes_what_it_refuses():
    with pytest.raises(InputError, match="^h must be an integer >= 2, got True$"):
        natural(True, "h", 2)
    with pytest.raises(InputError, match="^k must be an integer >= 0, got <a 16610-bit integer>$"):
        natural(-HUGE, "k")
    with pytest.raises(InputError, match="^k must be .* got <a list too long to print>$"):
        natural([HUGE], "k")
    assert natural(3, "k") == 3 and natural(2, "h", 2) == 2
