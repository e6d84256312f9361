import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from momentforge import finab, oracle

from momentforge.budget import Budget
from momentforge.errors import BudgetExceededError, InputError
from momentforge.finab import (
    FinAbGroup,
    Measure,
    aut_count,
    candidate_middles,
    enumerate_groups,
    extension_class_count,
    extension_pair_count,
    hom_count,
    partitions,
    sur_count,
)
from momentforge.localize import ModuleMomentTable, localized_moments
from momentforge.oracle import (
    aut_bruteforce,
    count_surjective_matrices,
    hom_count_bruteforce,
    kernel_pair_count,
    sur_bruteforce,
    surjection_kernel_profile,
)
from momentforge.qseries import SimpleType, q_binomial
from momentforge.surjcount import sur_single

from element_tables import (
    aut_by_tables,
    extension_pair_count_direct,
    kernel_profile_by_tables,
    sur_by_tables,
)

Z = FinAbGroup.from_orders
triv = FinAbGroup.trivial()
F2 = FinAbGroup.elementary(2, 1)
F3 = FinAbGroup.elementary(3, 1)

partition = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
group_st = st.builds(
    FinAbGroup.from_dict,
    st.dictionaries(st.sampled_from([2, 3, 5, 7]), partition, max_size=3),
)
# differential tests against the oracles: groups of order <= 64, and
# enumerations of at most ORACLE_HOMS candidate tuples, so each example
# costs milliseconds
small_group_st = st.sampled_from(enumerate_groups({2, 3}, 64))
ORACLE_HOMS = 50_000


def sequence_ends_st(max_order):
    """(N, M) with N elementary and |N||M| <= max_order."""
    elementary = st.builds(
        lambda r2, r3: FinAbGroup.from_dict({2: [1] * r2, 3: [1] * r3}),
        st.integers(0, 3),
        st.integers(0, 2),
    ).filter(lambda N: N.order <= max_order)
    return elementary.flatmap(
        lambda N: st.tuples(
            st.just(N), st.sampled_from(enumerate_groups({2, 3}, max_order // N.order))
        )
    )


def extension_classes(N, M):
    """Class counts of 0 -> N -> M' -> M -> 0, keyed by the middle M'."""
    return {mid: extension_class_count(N, M, mid) for mid in candidate_middles(N, M)}


def middles_of_order(N, M):
    primes = set(N.primes) | set(M.primes)
    order = N.order * M.order
    return [G for G in enumerate_groups(primes, order) if G.order == order]


class TestCanonicalForm:
    def test_from_orders_merges_primes(self):
        assert Z(12, 2) == FinAbGroup.from_dict({2: [2, 1], 3: [1]})
        assert Z(4, 2) != Z(8)
        assert Z(1) == triv

    def test_partition_must_be_canonical(self):
        with pytest.raises(InputError):
            FinAbGroup(((2, (1, 2)),))  # increasing parts
        with pytest.raises(InputError):
            FinAbGroup(((4, (1,)),))  # 4 is not prime
        with pytest.raises(InputError):
            FinAbGroup(((3, (1,)), (2, (1,))))  # primes out of order
        with pytest.raises(InputError):
            FinAbGroup(((2, ()),))  # empty partition

    def test_accessors(self):
        g = Z(8, 2, 9)
        assert g.order == 144
        assert g.partition(2) == (3, 1)
        assert g.rank(2) == 2 and g.rank(3) == 1 and g.rank(5) == 0
        assert g.conjugate(2) == (2, 1, 1)
        assert str(g) == "Z/8 x Z/2 x Z/9"
        assert not g.is_semisimple
        assert FinAbGroup.elementary(2, 3).is_semisimple

    @given(group_st)
    @settings(max_examples=150)
    def test_json_roundtrip(self, g):
        assert FinAbGroup.from_json_obj(g.to_json_obj()) == g


def test_finab_forwards_only_the_traced_oracles():
    for name in ("sur_bruteforce", "aut_bruteforce", "hom_count_bruteforce", "kernel_pair_count"):
        assert getattr(finab, name) is getattr(oracle, name)
    for name in ("surjection_kernel_profile", "count_surjective_matrices", "_hom_images"):
        with pytest.raises(AttributeError):
            getattr(finab, name)


class TestEnumeration:
    def test_counts(self):
        assert [str(g) for g in enumerate_groups({2}, 1)] == ["0"]
        assert len(enumerate_groups({2}, 8)) == 7
        assert len(enumerate_groups({2, 3}, 12)) == 13

    def test_sorted_and_unique(self):
        groups = enumerate_groups({2, 3}, 72)
        assert len(set(groups)) == len(groups)
        orders = [g.order for g in groups]
        assert orders == sorted(orders)

    def test_roundtrips_through_serialization(self):
        for g in enumerate_groups({2, 3}, 36):
            assert FinAbGroup.from_json_obj(g.to_json_obj()) == g

    @pytest.mark.parametrize("obj", [
        {"2": [1.9]}, {"2": [True]}, {"2": [2, "1"]}, {"2": 1}, {"x": [1]},
        {"2": [1], "02": [1]}, [["2", [1]]], {"1_1": [1]}, {" 3": [1]}, {"+3": [1]},
    ])
    def test_from_json_obj_rejects_non_integers(self, obj):
        with pytest.raises(InputError):
            FinAbGroup.from_json_obj(obj)

    def test_from_json_obj_canonicalizes(self):
        g = FinAbGroup.from_json_obj({"3": [1], "2": [1, 2], "5": []})
        assert g == FinAbGroup.from_orders(12, 2)


class TestHomAut:
    def test_hom_count_examples(self):
        assert hom_count(Z(4), Z(2)) == 2
        assert hom_count(Z(4, 2, 3), triv) == 1
        assert hom_count(Z(2, 2), Z(4)) == 4

    def test_aut_count_examples(self):
        assert aut_count(triv) == 1
        assert aut_count(Z(2, 2)) == 6
        assert aut_count(Z(4, 2)) == 8
        assert aut_count(FinAbGroup.elementary(2, 3)) == 168
        assert aut_count(Z(6)) == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cohen_lenstra_mass_identity(self, p):
        # sum_{lam |- n} 1/|Aut lam| = p**-n prod_{i<=n} (1 - p**-i)**-1
        # (Cohen-Lenstra 1984; Macdonald, Symmetric Functions, ch. II)
        for n in range(21):
            mass = sum(Fraction(1, aut_count(FinAbGroup.from_dict({p: lam}))) for lam in partitions(n))
            euler = math.prod(1 - Fraction(1, p**i) for i in range(1, n + 1))
            assert mass == Fraction(1, p**n) / euler, (p, n)

    @pytest.mark.parametrize("p", [2, 3])
    def test_surjection_sums(self, p):
        # sum_{lam |- n} Sur(lam, mu)/|Aut lam| = sum_{nu |- n - |mu|} 1/|Aut nu|
        # for every mu (Riedtmann's formula and |Ext^1| = |Hom|): the per-mu
        # constraint on sur_count, far past the reach of sur_bruteforce
        groups = {n: [FinAbGroup.from_dict({p: lam}) for lam in partitions(n)] for n in range(10)}
        mass = {n: sum(Fraction(1, aut_count(g)) for g in gs) for n, gs in groups.items()}
        for n in range(10):
            for size in range(n + 1):
                for mu in groups[size]:
                    total = sum(Fraction(sur_count(g, mu), aut_count(g)) for g in groups[n])
                    assert total == mass[n - size], (p, n, mu)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_socle_counts(self, p):
        # sum_mu g^lam_{mu,(1^m)}(p) = [rank_p lam choose m]_p: the elementary
        # subgroups of rank m all lie in the socle, of rank rank_p lam
        for n in range(11):
            for lam in partitions(n):
                for m in range(len(lam) + 1):
                    total = sum(finab._hall_number(p, lam, mu, m) for mu in partitions(n - m))
                    assert total == q_binomial(len(lam), m, p), (p, lam, m)

    def test_closed_forms_match_bruteforce(self):
        # every group where full endomorphism enumeration fits the budget
        budget = Budget(max_candidates=2_000_000)
        checked = 0
        for g in enumerate_groups({2}, 64) + enumerate_groups({3}, 81):
            assert hom_count_bruteforce(g, g) == hom_count(g, g)
            try:
                assert aut_bruteforce(g, budget) == aut_count(g), g
                checked += 1
            except BudgetExceededError:
                continue
        assert checked >= 30

    def test_hom_bruteforce_cross_pairs(self):
        pool = enumerate_groups({2, 3}, 18)
        for a in pool:
            for b in pool:
                assert hom_count_bruteforce(a, b) == hom_count(a, b)


class TestSpanOraclesAgainstElementTables:
    """The oracles decide bijectivity, surjectivity and kernel ranks from F_p
    spans of generator images; the element-table versions in the tests map
    every element instead. Both must agree, refusals included."""

    GROUPS = enumerate_groups({2, 3}, 32)
    BUDGET = Budget(max_candidates=2**15)  # keeps the element tables to seconds

    @staticmethod
    def outcome(oracle, *args):
        try:
            return oracle(*args)
        except BudgetExceededError as exc:
            return f"refused: {exc}"

    def test_aut(self):
        for A in self.GROUPS:
            assert self.outcome(aut_bruteforce, A, self.BUDGET) == self.outcome(
                aut_by_tables, A, self.BUDGET
            ), A

    @pytest.mark.parametrize(
        "oracle, reference",
        [(sur_bruteforce, sur_by_tables), (surjection_kernel_profile, kernel_profile_by_tables)],
        ids=["sur", "kernel_profile"],
    )
    def test_pairs(self, oracle, reference):
        for A in self.GROUPS:
            for B in self.GROUPS:
                assert self.outcome(oracle, A, B, self.BUDGET) == self.outcome(
                    reference, A, B, self.BUDGET
                ), (A, B)

    def test_refusal_messages(self):
        E4, E6 = FinAbGroup.elementary(2, 4), FinAbGroup.elementary(2, 6)
        tail = "exceed the budget of 4000000 (override with MOMENTFORGE_BUDGET)"
        cases = [
            (
                lambda: aut_bruteforce(E6, Budget()),
                f"aut enumeration {E6}: 68719476736 candidate tuples {tail}",
            ),
            (
                lambda: surjection_kernel_profile(E6, E4, Budget()),
                f"kernel enumeration {E6} -> {E4}: 16777216 candidate tuples {tail}",
            ),
            (
                lambda: aut_bruteforce(Z(2**17), Budget()),
                "aut enumeration Z/131072: group order 131072 exceeds the element-table "
                "cap of 65536 (override with MOMENTFORGE_BUDGET)",
            ),
        ]
        for call, message in cases:
            with pytest.raises(BudgetExceededError) as info:
                call()
            assert str(info.value) == message


def elimination_rank(rows: list[list[int]], p: int) -> int:
    """F_p-rank of integer rows by plain Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] * inverse
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fp_rows(A, B, images, p, socle):
    """One F_p row per generator of A at p, from its image (coordinates in B):
    p**(a-1) y read in B[p], or y mod p."""
    gens = [(q, a) for q, parts in A.components for a in parts]
    factors = [(q, b) for q, parts in B.components for b in parts]
    return [
        [
            (y * p ** (a - 1) % p**b) // p ** (b - 1) if socle else y
            for y, (r, b) in zip(image, factors)
            if r == p
        ]
        for image, (q, a) in zip(images, gens)
        if q == p
    ]


# small groups at 2, 3 and 5; the examples pin the shapes the kernel special-cases
span_group_st = st.builds(
    FinAbGroup.from_dict,
    st.dictionaries(
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(1, 2), min_size=1, max_size=3),
        max_size=2,
    ),
)
SPAN_SHAPES = [
    (Z(4, 2), Z(4, 2)),  # the inner generator, Z/4's, is not A's last
    (Z(2, 2, 3), Z(2, 2, 2)),  # B lacks 3, the prime of A's last generator
    (Z(5, 5), Z(25, 5)),
    (Z(9, 3), Z(9, 3)),
    (Z(6, 2), Z(2, 3, 3)),  # runs of length 3 inside (Z/2)**2 outer rows
    (triv, Z(4)),
    (Z(4), triv),
]


class TestSpanMasks:
    """_span_ranks reads ranks off masks of spans kept per run of the inner
    generator; here every candidate is eliminated on its own instead."""

    @staticmethod
    def blocks(A, B, size):
        with mock.patch.object(oracle, "_BLOCK", size):
            return list(oracle._hom_images(A, B, Budget(), "test"))

    @given(span_group_st, span_group_st, st.sampled_from([4, 64, 1 << 16]))
    @settings(max_examples=80, deadline=None)
    @example(*SPAN_SHAPES[0], 4)
    @example(*SPAN_SHAPES[1], 64)
    @example(*SPAN_SHAPES[2], 1 << 16)
    @example(*SPAN_SHAPES[3], 4)
    @example(*SPAN_SHAPES[4], 4)
    @example(*SPAN_SHAPES[5], 4)
    @example(*SPAN_SHAPES[6], 4)
    def test_ranks_match_plain_elimination(self, A, B, size):
        assume(max(A.order, B.order) <= 4096 and hom_count(A, B) <= 1500)
        primes = tuple(sorted(set(A.primes) | set(B.primes)))
        for choices, block in self.blocks(A, B, size):
            for socle in (True, False):
                got = oracle._span_ranks(A, B, choices, block, primes, socle)
                for t, row in enumerate(block):
                    images = [choices[i][c].tolist() for i, c in enumerate(row)]
                    want = [elimination_rank(fp_rows(A, B, images, p, socle), p) for p in primes]
                    assert got[t].tolist() == want, (A, B, socle, images)

    def test_shapes_exercise_the_inner_generator(self):
        inners = {}
        for A, B in SPAN_SHAPES[:2]:
            choices = self.blocks(A, B, 1 << 16)[0][0]
            inners[A] = oracle._inner(choices)
        assert inners == {Z(4, 2): 0, Z(2, 2, 3): 1}  # neither is A's last

    @given(span_group_st, span_group_st, st.sampled_from([4, 64, 1 << 16]))
    @settings(max_examples=80, deadline=None)
    @example(*SPAN_SHAPES[0], 4)
    @example(*SPAN_SHAPES[1], 4)
    def test_hom_images_yield_every_tuple_once(self, A, B, size):
        assume(max(A.order, B.order) <= 4096 and hom_count(A, B) <= 20_000)
        blocks = self.blocks(A, B, size)
        choices = blocks[0][0]
        rows = np.concatenate([block for _, block in blocks])
        assert len(rows) == math.prod(len(ch) for ch in choices) == hom_count(A, B)
        if choices:
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert ((rows >= 0) & (rows < [len(ch) for ch in choices])).all()
            inner = oracle._inner(choices)
            for _, block in blocks:  # whole runs of the inner generator, in order
                runs = block[:, inner].reshape(-1, len(choices[inner]))
                assert (runs == np.arange(len(choices[inner]))).all()
                others = np.delete(block, inner, axis=1).reshape(len(runs), runs.shape[1], -1)
                assert (others == others[:, :1]).all()


class TestSurjectionOracles:
    def test_examples(self):
        assert sur_bruteforce(Z(2, 2), Z(2)) == 3
        assert sur_bruteforce(Z(2), Z(4)) == 0
        assert sur_bruteforce(Z(4), Z(2)) == 1

    def test_matrix_oracle_matches_formula(self):
        for h in (2, 3):
            t = SimpleType.abelian(h)
            for e in range(5):
                for k in range(5):
                    assert count_surjective_matrices(h, e, k) == sur_single(t, e, k)
        # (3, 5, 3) merges 29,040 spans of 243 points each; packed rows keep it under 1 s
        started = time.perf_counter()
        got = count_surjective_matrices(3, 5, 3, Budget(max_candidates=2 * 10**7))
        assert time.perf_counter() - started < 1.0
        assert got == sur_single(SimpleType.abelian(3), 5, 3)

    def test_matrix_oracle_matches_elementary_bruteforce(self):
        for e in range(4):
            for k in range(4):
                a = FinAbGroup.elementary(2, e)
                b = FinAbGroup.elementary(2, k)
                assert count_surjective_matrices(2, e, k) == sur_bruteforce(a, b)

    def test_sur_count_agrees_with_bruteforce(self):
        pool = enumerate_groups({2, 3}, 24)
        for a in pool:
            for b in pool:
                assert sur_count(a, b) == sur_bruteforce(a, b), (a, b)

    @given(small_group_st, small_group_st)
    @settings(max_examples=200, deadline=None)
    def test_sur_count_matches_bruteforce_property(self, a, b):
        assume(hom_count(a, b) <= ORACLE_HOMS)
        assert sur_count(a, b) == sur_bruteforce(a, b)

    def test_budget_error_names_the_pair(self):
        with pytest.raises(BudgetExceededError, match="surjection enumeration"):
            sur_bruteforce(
                FinAbGroup.elementary(2, 6), FinAbGroup.elementary(2, 6), Budget(1000)
            )


class TestSemisimplify:
    """X modulo its radical is prod_p F_p**rank_p(X): kernel profiles and
    localization read semisimplifications off as ranks."""

    def test_examples(self):
        # the kernel of X ->> 0 is X itself
        for X, ss in ((triv, triv), (Z(8, 2), Z(2, 2)), (Z(4, 3), Z(2, 3))):
            assert surjection_kernel_profile(X, triv) == {ss: 1}

    def test_basis_must_be_prime_fields(self):
        table = ModuleMomentTable([2], {g: 1 for g in enumerate_groups([2], 4)})
        for primes in ((4,), (2, 2), (True,)):
            with pytest.raises(InputError, match="distinct primes"):
                localized_moments(table, triv, primes, (1,) * len(primes))

    def test_respects_surjections(self):
        # Sur(X, S) = Sur(X mod radical, S) for semisimple S
        for X in enumerate_groups({2, 3}, 72):
            if 72 % X.order:
                continue
            for k2 in range(3):
                for k3 in range(2):
                    S = FinAbGroup.from_dict({2: [1] * k2, 3: [1] * k3})
                    want = sur_bruteforce(X, S)
                    got = sur_single(SimpleType.abelian(2), X.rank(2), k2) * sur_single(
                        SimpleType.abelian(3), X.rank(3), k3
                    )
                    assert got == want


class TestKernelPairs:
    def test_examples(self):
        assert kernel_pair_count(Z(4), Z(2), F2) == 1
        assert kernel_pair_count(Z(2), Z(2), triv) == 1
        assert kernel_pair_count(Z(2, 2), Z(2), F2) == 3

    def test_profile_of_isomorphisms(self):
        # surjections G ->> G are automorphisms; kernels all trivial
        g = Z(4, 2)
        profile = surjection_kernel_profile(g, g)
        assert profile == {triv: aut_count(g)}

    def test_nonsemisimple_n_rejected(self):
        with pytest.raises(InputError):
            kernel_pair_count(Z(8), Z(2), Z(4))


class TestExtensions:
    def test_table_examples(self):
        assert extension_classes(F2, Z(2)) == {Z(4): 1, Z(2, 2): 1}
        assert extension_classes(triv, Z(6)) == {Z(6): 1}
        assert extension_classes(F2, triv) == {Z(2): 1}

    def test_extension_of_z3_by_f3(self):
        # two classes share the middle Z/9: sequence isomorphisms fix the
        # outer groups, so inequivalent embeddings of F3 stay inequivalent
        assert extension_classes(F3, Z(3)) == {Z(9): 2, Z(3, 3): 1}

    def test_total_classes_equal_hom_count(self):
        # summed over middles, extension classes of N by M number |Hom(M, N)|;
        # checked far past the oracles for N = F_p**k, middles up to order p**14
        cases = [
            (N, M)
            for N in (F2, FinAbGroup.elementary(2, 2), F3, Z(6))
            for M in enumerate_groups({2, 3}, 12)
        ] + [
            (FinAbGroup.elementary(p, k), M)
            for p in (2, 3)
            for k in (1, 2)
            for M in enumerate_groups({p}, p ** (14 - k))
        ]
        for N, M in cases:
            total = sum(extension_classes(N, M).values())
            assert total == hom_count(M, N), (N, M)

    def test_entries_are_nonnegative_integers(self):
        for N in (F2, FinAbGroup.elementary(2, 2), F3, Z(6)):
            for M in enumerate_groups({2, 3}, 12):
                for entry in extension_classes(N, M).values():
                    assert entry.denominator == 1 and entry >= 1

    def test_pair_count_against_direct_join(self):
        cases = [
            (F2, Z(4), Z(2)),
            (F2, Z(2, 2), Z(2)),
            (FinAbGroup.elementary(2, 2), Z(4, 2), Z(2)),
            (FinAbGroup.elementary(2, 2), Z(2, 2, 2), Z(2)),
            (F3, Z(9), Z(3)),
            (F3, Z(3, 3), Z(3)),
            (Z(6), Z(12), Z(2, 3)),
            (F2, Z(8), Z(4)),
            (F2, Z(4, 2), Z(4)),
            (triv, Z(6), Z(6)),
        ]
        for N, mid, M in cases:
            assert extension_pair_count(N, mid, M) == extension_pair_count_direct(N, mid, M)

    @given(sequence_ends_st(64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_count_matches_direct_property(self, ends, data):
        N, M = ends
        mid = data.draw(st.sampled_from(middles_of_order(N, M)))
        assume(hom_count(N, mid) <= ORACLE_HOMS and hom_count(mid, M) <= ORACLE_HOMS)
        assert extension_pair_count(N, mid, M) == extension_pair_count_direct(N, mid, M)

    # Of all draws of sequence_ends_st(32), only N = 0, M = (Z/2)^5 puts the
    # oracle over the default budget: its middle (Z/2)^5 needs 2^25
    # surjection tuples onto M. That draw is left out here and its closed
    # form is checked on its own below.
    @given(
        sequence_ends_st(32).filter(lambda ends: ends != (triv, FinAbGroup.elementary(2, 5)))
    )
    @settings(max_examples=25, deadline=None)
    def test_candidate_middles_are_the_nonzero_middles(self, ends):
        # exactness here is what makes a "lacks middles" error name only
        # middles the localized sum needs
        N, M = ends
        nonzero = {
            G for G in middles_of_order(N, M) if extension_pair_count_direct(N, G, M)
        }
        assert set(candidate_middles(N, M)) == nonzero

    def test_candidate_middles_of_the_draw_over_budget(self):
        E5 = FinAbGroup.elementary(2, 5)
        assert candidate_middles(triv, E5) == [E5]

    def test_orbit_stabilizer_consistency(self):
        # classCount * |Aut(M')| == P * |Hom(M, N)| by construction; check
        # against the independently joined pair count
        N, M = F2, Z(2)
        for mid in (Z(4), Z(2, 2)):
            cc = extension_class_count(N, M, mid)
            assert cc * aut_count(mid) == extension_pair_count_direct(N, mid, M) * hom_count(
                M, N
            )

    def test_middle_with_wrong_order_contributes_nothing(self):
        assert extension_pair_count(F2, Z(8), Z(2)) == 0


class TestMeasure:
    def test_validation(self):
        with pytest.raises(InputError):
            Measure({triv: Fraction(-1, 2)})

    def test_json_roundtrip(self):
        mu = Measure({triv: Fraction(1, 3), Z(4, 3): Fraction(2, 7)})
        assert Measure.from_json_obj(mu.to_json_obj()) == mu
        assert sum(v for _, v in mu.items()) == Fraction(1, 3) + Fraction(2, 7)

    def test_zero_masses_dropped(self):
        mu = Measure({triv: Fraction(0), Z(2): Fraction(1)})
        assert mu.support() == [Z(2)]
