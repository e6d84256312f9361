import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from momentforge.errors import InfeasibleMomentsError, InputError
from momentforge.finab import FinAbGroup
from momentforge.inversion import Bracket, MomentTable, _bracket_from_intervals, multi_invert_zero
from momentforge.qseries import SimpleType, inversion_coefficient
from momentforge.sampler import reference_mass
from momentforge.surjcount import sur_product, sur_single
from momentforge.verify import one_type_moments, random_mass_function

T2 = SimpleType.abelian(2)
T3 = SimpleType.abelian(3)
BASIS = (T2, T3)


def all_ones(n):
    return MomentTable.one_type(T2, [1] * (n + 1))


def partial_sums(moments, t, r_max):
    """sum_{k<=r} c_k * moment(k) for r = 0..r_max."""
    out, s = [], Fraction(0)
    for r in range(r_max + 1):
        s += inversion_coefficient(t, r) * moments.values[(r,)]
        out.append(s)
    return out


def test_partial_sum_examples():
    # the partial sums at r = 0, 1, 2, 3 are 1, 0, 1/3, 2/7: the bracket
    # takes its upper end from r = 2 and its lower end from r = 3
    assert partial_sums(all_ones(3), T2, 3) == [1, 0, Fraction(1, 3), Fraction(2, 7)]
    br = multi_invert_zero(all_ones(3), (3,))
    assert (br.lower, br.upper) == (Fraction(2, 7), Fraction(1, 3))


def test_partial_sum_bounds_checked():
    # truncation depths beyond the table are refused, not padded
    with pytest.raises(InputError):
        multi_invert_zero(all_ones(4), (5,))


def test_invert_zero_examples():
    point0 = MomentTable.one_type(T2, [1, 0, 0, 0, 0])
    br = multi_invert_zero(point0, (4,))
    assert (br.lower, br.upper) == (1, 1)

    br = multi_invert_zero(all_ones(4), (4,))
    assert br.lower == Fraction(2, 7)
    assert br.upper == Fraction(91, 315)

    point1 = MomentTable.one_type(T2, [1, 1, 0])
    br = multi_invert_zero(point1, (2,))
    assert (br.lower, br.upper) == (0, 0)


def test_euler_limit():
    br = multi_invert_zero(all_ones(12), (12,))
    ref = reference_mass(2, 0, FinAbGroup.trivial())
    assert br.width < Fraction(1, 10**6)
    assert br.lower - Fraction(1, 10**9) <= ref <= br.upper + Fraction(1, 10**9)
    assert abs(ref - Fraction("0.2887880951")) < Fraction(1, 10**9)


def linear_solve_zero_mass(t, moments, support_bound):
    """Independent oracle: solve the exact triangular system
    moment(k) = sum_e Sur(t^e, t^k) m(e) for m, return m(0)."""
    m = {}
    for e in range(support_bound, -1, -1):
        residue = moments.values[(e,)] - sum(
            sur_single(t, f, e) * m[f] for f in range(e + 1, support_bound + 1)
        )
        m[e] = residue / sur_single(t, e, e)
    return m[0]


def test_linear_solve_oracle_matches_bracket_point():
    rng = random.Random(7)
    for _ in range(50):
        t = rng.choice([T2, T3, SimpleType.nonabelian(120)])
        masses = random_mass_function(rng, 6, 5)
        moments = one_type_moments(t, masses, 7)
        br = multi_invert_zero(moments, (7,))
        assert br.lower == br.upper  # finite support, full depth
        assert br.lower == linear_solve_zero_mass(t, moments, 7)
        assert br.lower == masses.get(0, Fraction(0))


def test_bracketing_soundness_randomized():
    rng = random.Random(3)
    for _ in range(100):
        t = rng.choice([T2, T3, SimpleType.abelian(4), SimpleType.nonabelian(6)])
        masses = random_mass_function(rng, 8, 6)
        m0 = masses.get(0, Fraction(0))
        moments = one_type_moments(t, masses, 9)
        for r, s in enumerate(partial_sums(moments, t, 9)):
            assert s >= m0 if r % 2 == 0 else s <= m0
        for r_max in (0, 1, 2, 5, 9):
            assert multi_invert_zero(moments, (r_max,)).contains(m0)


def two_type_moments(masses, bound):
    values = {
        (k1, k2): sum(
            (m * sur_product(BASIS, e, (k1, k2)) for e, m in masses.items()),
            Fraction(0),
        )
        for k1 in range(bound[0] + 1)
        for k2 in range(bound[1] + 1)
    }
    return MomentTable(BASIS, bound, values)


def test_multi_invert_examples():
    # point mass at (0, 0)
    table = two_type_moments({(0, 0): Fraction(1)}, (2, 2))
    br = multi_invert_zero(table, (2, 2))
    assert (br.lower, br.upper) == (1, 1)

    # point mass at (1, 0) collapses like the one-type case
    table = two_type_moments({(1, 0): Fraction(1)}, (2, 2))
    br = multi_invert_zero(table, (2, 2))
    assert (br.lower, br.upper) == (0, 0)


def test_multi_invert_all_ones_hits_euler_product():
    values = {(i, j): 1 for i in range(13) for j in range(9)}
    table = MomentTable(BASIS, (12, 8), values)
    br = multi_invert_zero(table, (12, 8))
    ref = reference_mass(2, 0, FinAbGroup.trivial()) * reference_mass(3, 0, FinAbGroup.trivial())
    assert br.width < Fraction(1, 10**6)
    assert br.lower - Fraction(1, 10**7) <= ref <= br.upper + Fraction(1, 10**7)


def test_multi_invert_soundness_randomized():
    rng = random.Random(11)
    for _ in range(100):
        masses = {}
        for e1 in range(3):
            for e2 in range(3):
                if rng.random() < 0.5:
                    masses[(e1, e2)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        m0 = masses.get((0, 0), Fraction(0))
        table = two_type_moments(masses, (3, 3))
        br = multi_invert_zero(table, (3, 3))
        assert br.lower == m0 and br.upper == m0
        loose = multi_invert_zero(table, (1, 1))
        assert loose.contains(m0)
        # elimination order does not change the collapsed point
        swapped = multi_invert_zero(table.reorder((1, 0)), (3, 3))
        assert (swapped.lower, swapped.upper) == (m0, m0)


def test_empty_basis():
    table = MomentTable((), (), {(): Fraction(5, 3)})
    br = multi_invert_zero(table, ())
    assert (br.lower, br.upper) == (Fraction(5, 3), Fraction(5, 3))


def test_infeasible_moments_raise():
    bogus = MomentTable.one_type(T2, [1, 5, 0])
    with pytest.raises(InfeasibleMomentsError):
        multi_invert_zero(bogus, (2,))


def test_bracket_invariant():
    with pytest.raises(InfeasibleMomentsError):
        Bracket(Fraction(1), Fraction(0))
    br = Bracket(Fraction(1, 3), Fraction(1, 2))
    assert br.width == Fraction(1, 6)
    assert Bracket.from_json_obj(br.to_json_obj()) == br


def test_moment_table_validation():
    with pytest.raises(InputError):
        MomentTable.one_type(T2, [1, Fraction(-1, 2)])
    with pytest.raises(InputError):
        MomentTable(BASIS, (1, 1), {(0, 0): 1})  # incomplete grid
    with pytest.raises(InputError):
        multi_invert_zero(all_ones(3), (9,))


def test_moment_table_json_roundtrip():
    values = {
        (i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(2)
    }
    table = MomentTable(BASIS, (2, 1), values)
    again = MomentTable.from_json_obj(table.to_json_obj())
    assert again.values == table.values
    assert again.basis == table.basis
    assert again.bound == table.bound


def full_loop_bracket(t, intervals):
    """Every truncation of sum_k c_k * interval_k, with no early stop: the
    reference for _bracket_from_intervals, or None where the bounds cross."""
    lo_sum = hi_sum = Fraction(0)
    best_lower, best_upper = Fraction(0), intervals[0].upper
    for r, iv in enumerate(intervals):
        c = inversion_coefficient(t, r)
        lo, hi = (iv.lower, iv.upper) if c > 0 else (iv.upper, iv.lower)
        lo_sum += c * lo
        hi_sum += c * hi
        if r % 2:
            best_lower = max(best_lower, lo_sum)
        else:
            best_upper = min(best_upper, hi_sum)
    return (best_lower, best_upper) if best_lower <= best_upper else None


ZERO = Bracket(Fraction(0), Fraction(0))
_ends = st.just(Fraction(0)) | st.fractions(min_value=0, max_value=10, max_denominator=12)
_intervals = st.lists(
    st.one_of(st.just(ZERO), st.tuples(_ends, _ends).map(lambda e: Bracket(min(e), max(e)))),
    min_size=1,
    max_size=8,
)


def _point(*values):
    return [Bracket(Fraction(v), Fraction(v)) for v in values]


@given(
    st.sampled_from([T2, T3, SimpleType.nonabelian(120)]),
    _intervals,
    st.integers(min_value=0, max_value=6),
)
@example(T2, _point(1, 0, 3), 3)  # the odd sum at r = 3 crosses, past the last nonzero moment
@example(T2, _point(1, 0, 3), 0)  # the same moments stopped at r = 2 do not cross
@example(T2, _point(0), 4)
def test_early_stop_matches_the_full_loop(t, head, trailing_zeros):
    intervals = head + [ZERO] * trailing_zeros
    want = full_loop_bracket(t, intervals)
    if want is None:
        with pytest.raises(InfeasibleMomentsError):
            _bracket_from_intervals(t, intervals)
    else:
        br = _bracket_from_intervals(t, intervals)
        assert (br.lower, br.upper) == want
