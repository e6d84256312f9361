import gc
import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from momentforge import localize
from momentforge.cli import main
from momentforge.errors import InputError
from momentforge.finab import (
    MAX_ORDER_BITS,
    FinAbGroup,
    Measure,
    aut_count,
    candidate_middles,
    enumerate_groups,
    extension_class_count,
)
from momentforge.localize import (
    ModuleMomentTable,
    localization_middles,
    localized_moments,
    reconstruct_probability,
)
from momentforge.oracle import mu_local_direct, sur_bruteforce
from momentforge.rationals import parse_rational
from momentforge.sampler import empirical_moments, reference_mass
from momentforge.verify import synthetic_measure

Z = FinAbGroup.from_orders
triv = FinAbGroup.trivial()
F2 = FinAbGroup.elementary(2, 1)
P2 = (2,)
P23 = (2, 3)
HALF = Fraction(1, 2)
# the all-ones {2,3} table, complete far enough for |M| <= 6 at depth (3, 2)
FULL_23 = ModuleMomentTable([2, 3], {g: 1 for g in enumerate_groups([2, 3], 6 * 2**3 * 3**2)})


@pytest.fixture(scope="module")
def mu_half():
    return Measure({triv: HALF, Z(2): HALF})


@pytest.fixture(scope="module")
def table_half(mu_half):
    return empirical_moments(mu_half, enumerate_groups([2], 16))


class TestModuleMomentTable:
    def test_negative_rejected(self):
        with pytest.raises(InputError):
            ModuleMomentTable([2], {triv: Fraction(-1)})

    def test_prime_support_checked(self):
        with pytest.raises(InputError):
            ModuleMomentTable([2], {triv: 1, Z(2): 1, Z(3): 1})

    def test_json_roundtrip(self):
        table = ModuleMomentTable(
            [2, 3], {g: Fraction(1, 1 + g.order) for g in enumerate_groups([2, 3], 4)}
        )
        obj = table.to_json_obj()
        assert "order_bound" not in obj
        again = ModuleMomentTable.from_json_obj(obj)
        assert again.values == table.values
        assert again.primes == (2, 3)
        # a legacy order_bound is read, not enforced: nothing here is complete to 10**40
        again = ModuleMomentTable.from_json_obj({**obj, "order_bound": 10**40})
        assert again.values == table.values

    @pytest.mark.parametrize("primes", [[4], [1], [6], [2, 4]])
    def test_non_prime_table_primes_rejected(self, primes):
        with pytest.raises(InputError, match="not prime"):
            ModuleMomentTable(primes, {triv: 1})

    @pytest.mark.parametrize("field, value", [
        ("primes", [2.0]), ("primes", [True]), ("primes", 2), ("order_bound", 16.5),
        ("order_bound", True), ("order_bound", "16"),
    ])
    def test_non_integer_fields_rejected(self, field, value):
        obj = {"primes": [2], "order_bound": 1, "moments": [{"group": {}, "value": "1"}]}
        with pytest.raises(InputError, match=field):
            ModuleMomentTable.from_json_obj({**obj, field: value})

    def test_duplicate_json_group_rejected(self):
        obj = {"primes": [2], "order_bound": 1, "moments": [
            {"group": {}, "value": "1"}, {"group": {}, "value": "2"}]}
        with pytest.raises(InputError, match="duplicate"):
            ModuleMomentTable.from_json_obj(obj)

    @given(
        st.sets(st.sampled_from(enumerate_groups([2, 3], 72)), max_size=4),
        st.sampled_from([triv, Z(2), Z(3), Z(6), Z(2, 2)]),
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_sparse_table_needs_only_the_middles_read(self, drop, M, r_max):
        # a table with groups dropped answers as the complete one unless a
        # dropped group is a middle of some 0 -> N_k -> M' -> M -> 0, k <= r_max
        sparse = ModuleMomentTable([2, 3], {g: 1 for g in FULL_23.values if g not in drop})
        needed = {
            mid
            for k2 in range(r_max[0] + 1)
            for k3 in range(r_max[1] + 1)
            for mid in candidate_middles(FinAbGroup.from_dict({2: [1] * k2, 3: [1] * k3}), M)
        }
        lost = {str(g) for g in drop & needed}
        if not lost:
            assert reconstruct_probability(sparse, M, P23, r_max) == (
                reconstruct_probability(FULL_23, M, P23, r_max)
            )
            return
        with pytest.raises(InputError, match="lacks middles") as info:
            reconstruct_probability(sparse, M, P23, r_max)
        named = str(info.value).rsplit("): ", 1)[1].removesuffix("...").split(", ")
        assert named and set(named) <= lost


@pytest.fixture(scope="module")
def wide_23():
    """The {2,3} table the cl-2x3-wide benchmark reads, as JSON: 17,388 groups."""
    groups = enumerate_groups([2, 3], 6 * 2**8 * 3**6)
    return {"primes": [2, 3], "moments": [{"group": g.to_json_obj(), "value": "1"} for g in groups]}


@pytest.fixture
def groups_built(monkeypatch):
    """Counts the FinAbGroups made from here on."""
    built = [0]
    check = FinAbGroup.__post_init__

    def counted(self):
        built[0] += 1
        check(self)

    monkeypatch.setattr(FinAbGroup, "__post_init__", counted)
    return built


class TestTableIngest:
    def test_json_ingest_builds_no_group_per_record(self, wide_23, groups_built):
        table = ModuleMomentTable.from_json_obj(wide_23)
        assert len(wide_23["moments"]) == 17_388
        assert groups_built[0] <= 2
        assert Z(2, 3) in table and table(Z(2, 3)) == 1

    @pytest.mark.parametrize("M", [triv, Z(2), Z(3), Z(6)], ids=str)
    def test_reconstruct_builds_only_the_groups_it_reads(self, M, wide_23, groups_built,
                                                          monkeypatch):
        table = ModuleMomentTable.from_json_obj(wide_23)
        middles = []

        def counted_middles(N, M):
            found = candidate_middles(N, M)
            middles.extend(found)
            return found

        monkeypatch.setattr(localize, "candidate_middles", counted_middles)
        groups_built[0] = 0
        reconstruct_probability(table, M, P23, (8, 6))
        # one group per middle read, one per target N_k (63 at depth (8, 6)), no more
        assert groups_built[0] <= len(middles) + 9 * 7 + 2

    @given(st.dictionaries(
        st.sampled_from(["2", "02", "3", "11", "1_1", " 3", "4", "٣"]),
        st.lists(st.sampled_from([0, -1, 1, 2, 1.0, True, "1"]), max_size=3),
        max_size=3,
    ))
    @settings(max_examples=200, deadline=None)
    def test_table_accepts_the_group_json_finabgroup_accepts(self, group):
        obj = {"primes": [2, 3, 11], "moments": [{"group": group, "value": "1"}]}
        try:
            g = FinAbGroup.from_json_obj(group)
        except InputError as exc:
            with pytest.raises(InputError) as info:
                ModuleMomentTable.from_json_obj(obj)
            assert str(info.value) == str(exc)
        else:
            assert ModuleMomentTable.from_json_obj(obj).values == {g: 1}

    @pytest.mark.parametrize("value", [
        "1", "00", " 1 ", "+1", "1_000", "-0", "\u0661", True, 1.5, -1, 7, "3/6", "-1/2", "x",
        "1" * 4300, "1" * 4301, "1e4301",
    ])
    def test_values_read_as_parse_rational_reads_them(self, value):
        obj = {"primes": [2], "moments": [{"group": {}, "value": value}]}
        try:
            want = parse_rational(value)
            if want < 0:
                raise InputError("moment at 0 is negative")
        except InputError as exc:
            with pytest.raises(InputError) as info:
                ModuleMomentTable.from_json_obj(obj)
            assert str(info.value) == str(exc)
        else:
            got = ModuleMomentTable.from_json_obj(obj)(triv)
            assert type(got) is Fraction and got == want

    def test_init_table_survives_json(self):
        values = {g: (g.order if g.order % 2 else Fraction(1, g.order)) for g in
                  enumerate_groups([2, 3], 72)}
        values[triv] = 0
        table = ModuleMomentTable([3, 2], values)
        again = ModuleMomentTable.from_json_obj(json.loads(table.dumps()))
        assert again.primes == table.primes == (2, 3)
        assert again.values == table.values == values
        assert all(type(v) is Fraction for v in again.values.values())


# valid tables of random shape: a pool of groups per set of table primes
_POOLS = {
    primes: enumerate_groups(primes, bound)
    for primes, bound in [((2,), 2**7), ((3,), 3**4), ((2, 3), 2**4 * 3**2), ((2, 3, 5), 120)]
}
_MUTATIONS = (
    "none", "bad-key", "non-prime-key", "off-table-prime", "bad-exponent", "not-a-list",
    "empty-list", "reversed-keys", "duplicate", "too-large", "bad-value", "missing-field",
    "not-a-dict",
)


@st.composite
def _mutated_tables(draw):
    """A valid table as JSON with one mutation applied, and the mutation's name."""
    primes = draw(st.sampled_from(sorted(_POOLS)))
    groups = draw(st.lists(st.sampled_from(_POOLS[primes]), min_size=1, max_size=30, unique=True))
    values = st.sampled_from(["1", "0", "2/3", "12", 5, "1e3", " 7 "])
    records = [
        {"group": {str(p): draw(st.permutations(parts)) for p, parts in g.components},
         "value": draw(values)}
        for g in groups
    ]
    mutation = draw(st.sampled_from(_MUTATIONS))
    rec = draw(st.sampled_from(records))
    group = rec["group"]
    anywhere = st.integers(0, len(records))
    if mutation == "bad-key":
        group[draw(st.sampled_from(["02", "1_1", " 3", "9" * 4301]))] = [1]
    elif mutation in ("non-prime-key", "off-table-prime"):
        group["4" if mutation == "non-prime-key" else "7"] = [1]
    elif mutation == "bad-exponent":
        # a last record of one prime key of a record, an exponent 1 replaced:
        # True and 1.0 then hash as a pair an earlier slice has seen
        bad = draw(st.sampled_from([True, 1.0, 0, "1"]))
        spots = [(key, exps, i) for r in records for key, exps in r["group"].items()
                 for i, a in enumerate(exps) if a == 1]
        key, exps, i = draw(st.sampled_from(spots)) if spots else (str(primes[0]), [1], 0)
        alone = FinAbGroup.from_dict({int(key): exps})
        records = [r for r in records if FinAbGroup.from_json_obj(r["group"]) != alone]
        records.append({"group": {key: [*exps[:i], bad, *exps[i + 1 :]]}, "value": "1"})
    elif mutation == "not-a-list":
        group[str(primes[0])] = draw(st.sampled_from([1, "1", {"1": 1}, None]))
    elif mutation == "empty-list":
        group[str(draw(st.sampled_from(primes)))] = []
    elif mutation == "reversed-keys":
        rec["group"] = dict(reversed(group.items()))
    elif mutation == "duplicate":
        twin = {key: exps[::-1] for key, exps in reversed(group.items())}
        records.insert(draw(anywhere), {"group": twin, "value": "1"})
    elif mutation == "too-large":
        # past MAX_ORDER_BITS alone, or only in sum
        huge = [{str(primes[0]): [MAX_ORDER_BITS + 1]}]
        if primes[:2] == (2, 3):
            huge.append({"2": [MAX_ORDER_BITS - 40], "3": [30]})
        records.insert(draw(anywhere), {"group": draw(st.sampled_from(huge)), "value": "1"})
    elif mutation == "bad-value":
        rec["value"] = draw(st.sampled_from([-1, "-1/2", "1/0", True, 1.0, [1], None, "x"]))
    elif mutation == "missing-field":
        del rec[draw(st.sampled_from(["group", "value"]))]
    elif mutation == "not-a-dict":
        records[records.index(rec)] = draw(st.sampled_from([[], "group", None, 1, [rec]]))
    return {"primes": list(primes), "moments": records}, mutation


def _ingested(obj):
    """The store from_json_obj makes, keys, values and value types in order, or
    the text of its refusal."""
    try:
        table = ModuleMomentTable.from_json_obj(obj)
    except InputError as exc:
        return str(exc)
    return [(comps, v, type(v)) for comps, v in table._store.items()]


def _record_loop_only(table, records):
    return False


class TestColumnPass:
    @given(_mutated_tables(), st.sampled_from([1, 2, 3, 5, 4096]))
    @example(({"primes": [2, 3], "moments": [{"group": {"2": [1]}, "value": "1"},
                                             {"group": {"2": [True], "3": [1]}, "value": "1"}]},
              "bad-exponent"), 4096)
    @settings(max_examples=300, deadline=None)
    def test_column_pass_matches_the_record_loop(self, case, size):
        # over slices of `size` records, from_json_obj either makes the store
        # the record loop alone makes, or refuses with the same text
        obj, mutation = case
        with mock.patch.object(localize, "_SLICE", size):
            got = _ingested(obj)
            with mock.patch.object(localize, "_ingest_columns", _record_loop_only):
                want = _ingested(obj)
            if mutation in ("none", "reversed-keys"):  # proved without the loop
                assert localize._ingest_columns(ModuleMomentTable(obj["primes"], {}),
                                                obj["moments"])
        assert got == want

    def test_records_share_their_components(self, wide_23):
        table = ModuleMomentTable.from_json_obj(wide_23)
        components = {id(c) for comps in table._store for c in comps}
        assert len(table._store) == 17_388 and len(components) == 2_984


class TestCollectorPause:
    def test_no_collection_during_ingest(self, wide_23):
        starts, counting = [], [False]

        def count(phase, info):
            if phase == "start" and counting[0]:
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            gc.collect()  # so the allocations before the pause start none
            counting[0] = True
            ModuleMomentTable.from_json_obj(wide_23)
            counting[0] = False
        finally:
            gc.callbacks.remove(count)
            if not was:
                gc.disable()
        assert len(wide_23["moments"]) == 17_388
        assert starts == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, enabled, tmp_path):
        good = {"primes": [2], "moments": [{"group": {}, "value": "1"}]}
        bad = {"primes": [2], "moments": [{"group": {}, "value": "-1"}]}
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            ModuleMomentTable.from_json_obj(good)
            assert gc.isenabled() is enabled
            with pytest.raises(InputError, match="negative"):
                ModuleMomentTable.from_json_obj(bad)
            assert gc.isenabled() is enabled
            for table, code in ((good, 0), (bad, 1)):
                path = tmp_path / "table.json"
                path.write_text(json.dumps(table))
                argv = ["reconstruct", "--file", str(path), "--group", "{}", "--rmax", "0"]
                assert main(argv) == code
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestLocalizedMoments:
    def test_spec_values(self, table_half):
        lm = localized_moments(table_half, triv, P2, (1,))
        assert lm.values[(0,)] == 1
        assert lm.values[(1,)] == HALF

        lm = localized_moments(table_half, Z(2), P2, (1,))
        assert lm.values[(0,)] == HALF
        assert lm.values[(1,)] == 0

    def test_zeroth_moment_is_table_value(self, table_half):
        for M in enumerate_groups([2], 8):
            lm = localized_moments(table_half, M, P2, (0,))
            assert lm.values[(0,)] == table_half(M)

    def test_missing_middles_named(self, mu_half):
        small = empirical_moments(mu_half, enumerate_groups([2], 4))
        with pytest.raises(InputError, match="lacks middles"):
            localized_moments(small, Z(4), P2, (1,))

    def test_zero_weight_middles_not_needed(self, table_half):
        # 0 -> F2 -> (Z/2)**3 -> Z/4 -> 0 is not exact for any maps, so a
        # table may lack (Z/2)**3 although it holds both other groups of order 8
        values = {g: table_half(g) for g in enumerate_groups([2], 4)}
        values.update({g: table_half(g) for g in (Z(8), Z(4, 2))})
        partial = ModuleMomentTable([2], values)
        assert localized_moments(partial, Z(4), P2, (1,)).values == (
            localized_moments(table_half, Z(4), P2, (1,)).values
        )

    def test_basis_must_cover_group(self, table_half):
        with pytest.raises(InputError):
            localized_moments(table_half, Z(3), P2, (1,))


class TestLocalizationMiddles:
    @given(
        st.sampled_from(enumerate_groups([2, 3], 12)),  # FULL_23 covers depth (2, 2) here
        st.sampled_from([P23, (3, 2)]),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_table_of_the_middles_is_all_localizing_reads(self, M, primes, k_bound):
        plan = list(localization_middles(M, primes, k_bound))
        assert [k for k, _, _ in plan] == list(itertools.product(*(range(b + 1) for b in k_bound)))
        for k, N, middles in plan:  # k follows the caller's prime order
            assert N.is_semisimple and [N.rank(p) for p in primes] == list(k)
            assert middles == candidate_middles(N, M)
        reads = {mid: (N, mid) for _, N, middles in plan for mid in middles}
        exact = ModuleMomentTable([2, 3], {g: FULL_23(g) for g in reads})
        want = localized_moments(FULL_23, M, primes, k_bound).values
        assert localized_moments(exact, M, primes, k_bound).values == want
        for dropped, (N, mid) in reads.items():
            if extension_class_count(N, M, mid):
                lacking = ModuleMomentTable([2, 3], {g: FULL_23(g) for g in reads if g != dropped})
                with pytest.raises(InputError, match="lacks middles"):
                    localized_moments(lacking, M, primes, k_bound)

    @pytest.mark.parametrize("primes, k_bound, message", [
        ((2, 2), (1, 1), "distinct primes"), ((4, 3), (1, 1), "distinct primes"),
        ((2, 3), (1,), "k_bound has length 1"), ((2, 3), (-1, 0), "nonnegative"),
    ])
    def test_checks_come_with_the_first_localization(self, primes, k_bound, message):
        with pytest.raises(InputError, match=message):
            next(localization_middles(triv, primes, k_bound))


class TestMuLocalDirect:
    def test_spec_values(self, mu_half):
        assert mu_local_direct(mu_half, Z(2), triv) == HALF
        assert mu_local_direct(mu_half, triv, F2) == HALF
        assert mu_local_direct(mu_half, Z(4), F2) == 0
        assert mu_local_direct(mu_half, Z(4), triv) == 0

    def test_mass_identity(self):
        rng = random.Random(5)
        mu = synthetic_measure(rng, 24, 6)
        for M in enumerate_groups({2, 3}, 24):
            assert mu_local_direct(mu, M, triv) == aut_count(M) * mu.mass(M)

    def test_rejects_nonsemisimple_n(self, mu_half):
        with pytest.raises(InputError):
            mu_local_direct(mu_half, triv, Z(4))


def test_localized_moments_match_direct_definition():
    """Both routes compute the N-th moment of the localized measure: the
    extension-class sum of plain moments, and the direct integral
    sum_{N'} mu^M(N') Sur(N', N)."""
    rng = random.Random(9)
    mu = synthetic_measure(rng, 72, 8)
    bound = 24 * 4 * 9
    table = empirical_moments(mu, enumerate_groups({2, 3}, bound))
    semisimple = [
        g
        for g in enumerate_groups({2, 3}, 72)
        if g.is_semisimple and g.rank(2) <= 3 and g.rank(3) <= 2
    ]
    for M in enumerate_groups({2, 3}, 6):
        lm = localized_moments(table, M, P23, (2, 2))
        for k2 in range(3):
            for k3 in range(3):
                N = FinAbGroup.from_dict({2: [1] * k2, 3: [1] * k3})
                direct = sum(
                    (
                        mu_local_direct(mu, M, Np) * sur_bruteforce(Np, N)
                        for Np in semisimple
                    ),
                    Fraction(0),
                )
                assert lm.values[(k2, k3)] == direct, (M, N)


class TestReconstruct:
    def test_point_recovery(self, table_half):
        br = reconstruct_probability(table_half, Z(2), P2, (3,))
        assert (br.lower, br.upper) == (HALF, HALF)
        br = reconstruct_probability(table_half, Z(4), P2, (2,))
        assert (br.lower, br.upper) == (0, 0)

    def test_synthetic_end_to_end(self):
        rng = random.Random(13)
        mu = synthetic_measure(rng, 24, 5)
        r_max = (
            max(g.rank(2) for g in mu.support()) + 1,
            max(g.rank(3) for g in mu.support()) + 1,
        )
        bound = 12 * 2 ** r_max[0] * 3 ** r_max[1]
        table = empirical_moments(mu, enumerate_groups({2, 3}, bound))
        for M in enumerate_groups({2, 3}, 12):
            br = reconstruct_probability(table, M, P23, r_max)
            assert (br.lower, br.upper) == (mu.mass(M), mu.mass(M)), M

    @pytest.mark.parametrize("p", [2, 3])
    def test_cohen_lenstra_fixed_point(self, p):
        # all moments equal to 1: the mass of M is prod(1 - p**-k) / |Aut M|
        bound = p**14
        table = ModuleMomentTable([p], {g: 1 for g in enumerate_groups([p], bound)})
        tol = Fraction(1, 10**9)
        for M in (triv, Z(p), Z(p * p)):
            br = reconstruct_probability(table, M, (p,), (12,))
            ref = reference_mass(p, 0, M)
            assert br.width < Fraction(1, 10**4)
            assert br.lower - tol <= ref <= br.upper + tol
