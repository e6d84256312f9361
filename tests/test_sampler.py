import functools
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from momentforge import localize, sampler
from momentforge.budget import Budget
from momentforge.errors import BudgetExceededError, InputError
from momentforge.finab import FinAbGroup, Measure, enumerate_groups, sur_count
from momentforge.localize import Localization
from momentforge.rationals import format_rational
from momentforge.sampler import (
    SamplerConfig,
    _draw_matrices,
    cokernel_partition,
    convergence_report,
    empirical_moments,
    reference_mass,
    sample_cokernel,
    sample_measure,
)

from groups import Z

triv = FinAbGroup.trivial()


def smith_partition_oracle(mat, p, cap):
    """Per-matrix Smith reduction over Z/p**cap, the reference for the
    batched cokernel_partition: repeatedly move a minimum-valuation entry
    to the pivot, normalize it to a power of p and clear its row and column.
    Pivot p**v contributes a Z/p**v factor; pivotless rows contribute
    Z/p**cap."""
    q = p**cap

    def valuation(x):
        v = 0
        while v < cap and x % p ** (v + 1) == 0:
            v += 1
        return v

    a = np.mod(np.asarray(mat, dtype=np.int64), q)
    nrows, ncols = a.shape
    exps = []
    r = 0
    while r < nrows and r < ncols:
        sub = a[r:, r:]
        val = np.vectorize(valuation, otypes=[np.int64])(sub)
        flat = int(val.argmin())
        i, j = divmod(flat, sub.shape[1])
        v = int(val[i, j])
        if v >= cap:
            break
        if i:
            a[[r, r + i], :] = a[[r + i, r], :]
        if j:
            a[:, [r, r + j]] = a[:, [r + j, r]]
        unit = int(a[r, r]) // p**v
        uinv = pow(unit, -1, q)
        a[r, :] = a[r, :] * uinv % q
        colfac = a[r + 1 :, r] // p**v
        a[r + 1 :, :] = (a[r + 1 :, :] - np.outer(colfac, a[r, :])) % q
        rowfac = a[r, r + 1 :] // p**v
        a[:, r + 1 :] = (a[:, r + 1 :] - np.outer(a[:, r], rowfac)) % q
        exps.append(v)
        r += 1
    exps.extend([cap] * (nrows - r))
    return tuple(sorted((v for v in exps if v > 0), reverse=True))


def quotient_partition_oracle(mat, p, cap):
    """Partition of (Z/p**cap)**rows / colspan by explicit closure, torsion
    counting, and conjugation. Independent of the Smith reduction."""
    q = p**cap
    n = mat.shape[0]
    if n == 0:
        return ()
    cols = [tuple(int(x) % q for x in mat[:, j]) for j in range(mat.shape[1])]
    span = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        new = []
        for v in frontier:
            for c in cols:
                w = tuple((a + b) % q for a, b in zip(v, c))
                if w not in span:
                    span.add(w)
                    new.append(w)
        frontier = new
    counts = []
    for j in range(cap + 1):
        pj = p**j
        hits = sum(
            1
            for x in itertools.product(range(q), repeat=n)
            if tuple((pj * a) % q for a in x) in span
        )
        counts.append(hits // len(span))
    parts_ge = [round(math.log(counts[j] / counts[j - 1], p)) for j in range(1, cap + 1)]
    out = []
    for i in range(parts_ge[0]):
        out.append(sum(1 for r in parts_ge if r > i))
    return tuple(sorted(out, reverse=True))


def test_smith_matches_quotient_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(250):
        p = int(rng.choice([2, 3, 5]))
        cap = int(rng.integers(1, 3))
        n = int(rng.integers(0, 3))
        m = n + int(rng.integers(0, 2))
        mat = rng.integers(0, p**cap, size=(n, m))
        assert cokernel_partition(mat[None], p, cap) == [quotient_partition_oracle(mat, p, cap)]


def test_known_cokernels():
    assert cokernel_partition(np.array([[[2]]]), 2, 3) == [(1,)]
    assert cokernel_partition(np.array([[[0]]]), 2, 3) == [(3,)]
    assert cokernel_partition(np.array([[[1]]]), 2, 3) == [()]
    assert cokernel_partition(np.diag([1, 2, 4])[None], 2, 3) == [(2, 1)]
    assert cokernel_partition(np.array([[[2]], [[0]], [[1]]]), 2, 3) == [(1,), (3,), ()]
    # any integer stack is read, narrower or wider than its field's width
    assert cokernel_partition(np.ones((1, 2, 2), np.int16), 3, 10) == [(10,)]
    assert cokernel_partition(np.full((1, 1, 1), -6, np.int8), 2, 3) == [(1,)]


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    cap=st.integers(1, 3),
    n=st.integers(0, 6),
    u=st.integers(0, 2),
    count=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    sparsity=st.integers(0, 3),
)
def test_batched_smith_matches_per_matrix_oracle(p, cap, n, u, count, seed, sparsity):
    # multiplying entries by p**k with random k makes low ranks and zero
    # blocks common, so pivots of every valuation and early v = cap occur
    rng = np.random.default_rng(seed)
    q = p**cap
    mats = rng.integers(0, q, size=(count, n, n + u))
    mats = mats * p ** rng.integers(0, sparsity + 1, size=mats.shape) % q
    want = [smith_partition_oracle(m, p, cap) for m in mats]
    assert cokernel_partition(mats, p, cap) == want


def stacked_smith_oracle(mats, p, cap):
    """The int64 Smith reduction of a whole stack, one min and one argmin of
    the int64 valuations a step and a sorted tuple a row: the reference for
    the narrow-width cokernel_partition, which must agree with it draw for
    draw."""
    q = p**cap
    a = np.mod(np.asarray(mats, dtype=np.int64), q)
    count, nrows, ncols = a.shape
    idx = np.arange(count)
    exps = np.full((count, nrows), cap)

    def valuations(x):
        return sum((x % p**k == 0 for k in range(1, cap + 1)), np.zeros(x.shape, np.int64))

    for r in range(min(nrows, ncols) if count else 0):
        val = valuations(a).reshape(count, -1)
        v = exps[:, r] = val.min(axis=1)
        i, j = np.divmod(val.argmin(axis=1), ncols - r)
        a[idx, 0], a[idx, i] = a[idx, i], a[idx, 0]
        a[idx, :, 0], a[idx, :, j] = a[idx, :, j], a[idx, :, 0]
        unit = np.where(v < cap, a[:, 0, 0] // p**v, 1)[:, None, None]
        colfac = (a[:, 1:, 0] // p ** v[:, None])[:, :, None]
        a = (unit * a[:, 1:, 1:] - colfac * a[:, :1, 1:]) % q
    return [tuple(sorted(filter(None, row), reverse=True)) for row in exps.tolist()]


@pytest.mark.parametrize("q, width", [
    (8, np.int16), (127, np.int16), (128, np.int32), (3**9, np.int32), (181, np.int32),
    (2**15, np.int64), (3**10, np.int64), (2**30, np.int64),
])
def test_width_is_the_narrowest_that_holds_twice_q_squared(q, width):
    assert sampler._width(q) is width


# (p, cap) fields on each side of each width boundary: q = 127 and 9 in
# int16, 128 and 3**9 in int32, 3**10 in int64, and 2**25, whose partition
# codes pass int64 from 5 rows on, so the per-row tally runs
NARROW_FIELDS = [(2, 3), (3, 2), (127, 1), (2, 7), (3, 9), (3, 10), (2, 25)]


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(NARROW_FIELDS),
    n=st.integers(0, 7),
    u=st.integers(0, 3),
    count=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    sparsity=st.integers(0, 3),
    zeros=st.sampled_from([0.0, 0.5, 0.9]),
)
@example(field=(127, 1), n=0, u=2, count=1, seed=0, sparsity=0, zeros=0.0)
@example(field=(2, 7), n=5, u=1, count=1, seed=1, sparsity=2, zeros=0.5)
@example(field=(3, 10), n=6, u=0, count=1, seed=2, sparsity=0, zeros=0.9)
@example(field=(2, 25), n=7, u=0, count=3, seed=3, sparsity=3, zeros=0.0)
def test_narrow_reduction_matches_stack_oracle(field, n, u, count, seed, sparsity, zeros):
    # the stack comes at the width the draw gives it; scaling entries by
    # p**k and zeroing a share of them makes every valuation and zero blocks common
    p, cap = field
    q = p**cap
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, q, size=(count, n, n + u))
    mats = mats * p ** rng.integers(0, sparsity + 1, size=mats.shape) % q
    mats[rng.random(mats.shape) < zeros] = 0
    got = cokernel_partition(mats.astype(sampler._width(q)), p, cap)
    assert got == stacked_smith_oracle(mats, p, cap)


def test_draw_and_reduction_memory_of_one_stack():
    # 1024 draws of 8 x 8 over Z/8, the default stack: int64 stacks peaked
    # at 2.7 MB to draw and 2.6 MB to reduce
    config = SamplerConfig(p=2, cap=3, n=8, seed=1, count=1024)
    cokernel_partition(_draw_matrices(config, 0, 1024), 2, 3)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        stack = _draw_matrices(config, 0, 1024)
        draw_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        cokernel_partition(stack, 2, 3)
        smith_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert draw_peak < 1.5 * 2**20, draw_peak
    assert smith_peak < 2**20, smith_peak


def per_draw_generator(config, index):
    """Draw `index` one matrix at a time through numpy's generator, the
    reference for the stacked Philox kernel: Philox keyed by (seed, index),
    uniform entries over Z/p**cap by Generator.integers."""
    gen = np.random.Generator(np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64)))
    q, shape = config.p**config.cap, (config.n, config.n + config.u)
    return gen.integers(0, q, size=shape, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _oracle_draws(config, count):
    """Cokernels of draws 0 .. count-1, one matrix at a time through both oracles."""
    return tuple(
        FinAbGroup.from_dict(
            {config.p: smith_partition_oracle(per_draw_generator(config, i), config.p, config.cap)}
        )
        for i in range(count)
    )


# (p, cap, n, u, seed, start, stop). Words rejected by Lemire's method: none
# for q a power of 2, 2**32 mod q of every 2**32 otherwise, so 19% at 3**19
# and 15% at 5**13. 127 is the largest int16 field, 128 the smallest int32 one. No start but 0 is a multiple of the stack size (1024
# draws of 8 x 8); 35, 9 and 1 entries are odd counts, and n = 0 draws no word.
DRAW_CASES = [
    (2, 3, 8, 0, 2024, 0, 1500),
    (2, 30, 3, 1, 7, 1500, 2600),
    (3, 19, 8, 0, 5, 1000, 1600),
    (5, 13, 5, 2, 2**64 - 1, 1037, 1800),
    (3, 2, 3, 0, 1, 3000, 3700),
    (13, 5, 7, 0, 11, 99, 1200),
    (3, 19, 1, 0, 4, 0, 3000),
    (13, 8, 0, 0, 1, 0, 10),
    (13, 8, 0, 3, 1, 5, 9),
    (127, 1, 6, 1, 3, 0, 900),
    (2, 7, 5, 0, 8, 2000, 2700),
    (3, 9, 4, 2, 12, 0, 1100),
]
# the width each field's draws are held at: int16 while 2q**2 < 2**15, int32
# while 2q**2 < 2**31, else int64
DRAW_WIDTHS = {
    (2, 3): np.int16, (3, 2): np.int16, (127, 1): np.int16, (2, 7): np.int32, (3, 9): np.int32,
    (2, 30): np.int64, (3, 19): np.int64, (5, 13): np.int64, (13, 5): np.int64, (13, 8): np.int64,
}


@pytest.mark.parametrize("p, cap, n, u, seed, start, stop", DRAW_CASES)
def test_stacked_draws_match_per_draw_generator(p, cap, n, u, seed, start, stop):
    config = SamplerConfig(p=p, cap=cap, n=n, u=u, seed=seed, count=stop)
    got = _draw_matrices(config, start, stop)
    assert got.dtype == DRAW_WIDTHS[p, cap] and got.shape == (stop - start, n, n + u)
    for i, mat in enumerate(got, start):
        assert np.array_equal(mat, per_draw_generator(config, i)), i


@pytest.mark.parametrize("max_blocks", [1, 3, 40])
@pytest.mark.parametrize("p, cap, n, u", [(3, 19, 8, 0), (5, 13, 5, 2), (2, 3, 3, 1), (3, 19, 40, 3)])
def test_draws_split_over_many_passes_match(monkeypatch, max_blocks, p, cap, n, u):
    # a small pass cap leaves draws short after each pass, so the kernel
    # extends a changing subset of the rows, each from its own offset; a
    # 40 x 43 draw takes several passes even alone
    monkeypatch.setattr(sampler, "_MAX_BLOCKS", max_blocks)
    config = SamplerConfig(p=p, cap=cap, n=n, u=u, seed=3, count=1)
    got = _draw_matrices(config, 10, 10 + (3 if n > 8 else 60))
    for i, mat in enumerate(got, 10):
        assert np.array_equal(mat, per_draw_generator(config, i)), i


def test_sample_cokernel_is_draw_i_of_a_stacked_run():
    config = SamplerConfig(p=3, cap=19, n=6, u=1, seed=2**64 - 1, count=1300)
    stacked = cokernel_partition(_draw_matrices(config, 0, 1300), config.p, config.cap)
    for i in (0, 1, 1023, 1024, 1299):
        assert sample_cokernel(config, i) == FinAbGroup.from_dict({3: stacked[i]})
    last = 2**64 - 1  # the largest Philox key
    want = smith_partition_oracle(per_draw_generator(config, last), config.p, config.cap)
    assert sample_cokernel(config, last) == FinAbGroup.from_dict({3: want})
    with pytest.raises(InputError, match="draw index"):
        sample_cokernel(config, 2**64)


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "1", np.int64(1)], ids=repr)
def test_draw_index_is_an_exact_int(bad):
    # no draw 1 for True, and no bare TypeError from numpy for 1.0
    with pytest.raises(InputError, match="draw index must be an integer"):
        sample_cokernel(SamplerConfig(p=2, cap=3, n=3, seed=1, count=1), bad)


@pytest.mark.parametrize(
    "p, cap, n, u, count",
    [(2, 3, 8, 0, 1100), (3, 2, 6, 1, 1600), (2, 3, 8, 0, 0), (2, 3, 0, 0, 300), (5, 1, 0, 2, 7)],
)
def test_sample_measure_matches_oracle_draws(p, cap, n, u, count):
    # 1100 and 1600 draws straddle stacks of 1024 (8 x 8) and 1560 (6 x 7) draws
    config = SamplerConfig(p=p, cap=cap, n=n, u=u, seed=2024, count=count)
    tally = Counter(_oracle_draws(config, count))
    assert sample_measure(config) == Measure({g: Fraction(c, count) for g, c in tally.items()})


def test_convergence_report_matches_oracle_draws():
    # the prefixes straddle the first stack of 1024 draws; the oracle draws
    # are those of the 8 x 8 case above
    config = SamplerConfig(p=2, cap=3, n=8, seed=2024, count=1100)
    targets = [triv, Z(2), Z(4)]
    ts = (100, 1024, 1025, 1100)
    records = convergence_report(config, ts, targets, r_max=2)
    assert [rec["t"] for rec in records] == [t for t in ts for _ in targets]
    draws = _oracle_draws(config, 1100)
    for rec in records:
        tally = Counter(draws[: rec["t"]])
        group = FinAbGroup.from_json_obj(rec["group"])
        assert rec["frequency"] == format_rational(Fraction(tally[group], rec["t"]))


def test_report_walks_each_target_once(monkeypatch):
    # one plan per target gives both the middles to tabulate and every
    # prefix's bracket: depth + 1 steps per target, however many prefixes,
    # with the depth r_max = 20 capped at n + 1 = 9
    walked = []
    middles = localize.candidate_middles
    monkeypatch.setattr(localize, "candidate_middles",
                        lambda N, M: walked.append(N) or middles(N, M))
    config = SamplerConfig(p=2, cap=3, n=8, seed=1, count=100)
    convergence_report(config, [10, 50, 100], [triv, Z(2)], r_max=20)
    assert len(walked) == 2 * 10


@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_report_depth_cap_keeps_every_bracket(seed, n, r_max):
    # a draw has p-rank <= n, so the report walks to depth min(r_max, n + 1)
    # and still gives each bracket the full depth r_max gives
    config = SamplerConfig(p=2, cap=3, n=n, u=1, seed=seed, count=60)
    ts, targets = [20, 60], [triv, Z(2), Z(2, 2), Z(4)]
    records = iter(convergence_report(config, ts, targets, r_max))
    for t in ts:
        mu = sample_measure(SamplerConfig(p=2, cap=3, n=n, u=1, seed=seed, count=t))
        for M in targets:
            plan = Localization(M, (2,), (r_max,))
            table = empirical_moments(mu, [mid for _, step in plan for mid, _ in step])
            assert next(records)["bracket"] == plan.bracket(table).to_json_obj(), (t, M)


def test_sample_work_over_the_cap_is_refused_before_drawing(monkeypatch):
    config = SamplerConfig(p=2, cap=3, n=8, seed=1, count=100)
    work = 100 * (8 * 64 + 1) * 3
    monkeypatch.setenv("MOMENTFORGE_BUDGET", json.dumps({"max_sample_work": work}))
    sample_measure(config)
    monkeypatch.setenv("MOMENTFORGE_BUDGET", json.dumps({"max_sample_work": work - 1}))
    monkeypatch.setattr(sampler, "_draw_matrices", None)  # a draw would raise TypeError
    with pytest.raises(BudgetExceededError, match=f"estimated work {work} exceeds"):
        sample_measure(config)
    with pytest.raises(BudgetExceededError):
        convergence_report(config, [10, 100], [triv], r_max=2)


def test_default_cap_admits_every_single_draw_and_criterion_9():
    cap = Budget().max_sample_work
    assert 10**5 * (8 * 64 + 1) * 3 <= cap
    for n, u in ((1024, 0), (1, 2**20 - 1), (512, 1536)):
        assert n * (n + u) <= sampler.MAX_MATRIX_ENTRIES
        assert (n * n * (n + u) + 1) * 30 <= cap
    assert 1000 * (1024**3 + 1) * 3 > cap


def test_trivial_matrix_sizes():
    assert sample_cokernel(SamplerConfig(p=2, cap=3, n=0, seed=1, count=1)) == triv


def test_determinism_and_prefix():
    base = SamplerConfig(p=2, cap=3, n=4, seed=99, count=60)
    longer = SamplerConfig(p=2, cap=3, n=4, seed=99, count=240)
    first = [sample_cokernel(base, i) for i in range(60)]
    assert first == [sample_cokernel(longer, i) for i in range(60)]
    assert sample_measure(base) == Measure({g: Fraction(c, 60) for g, c in Counter(first).items()})
    other = SamplerConfig(p=2, cap=3, n=4, seed=100, count=60)
    assert [sample_cokernel(other, i) for i in range(60)] != first


def test_config_validation():
    with pytest.raises(InputError):
        SamplerConfig(p=4, cap=3, n=2, seed=1, count=1)
    with pytest.raises(InputError):
        SamplerConfig(p=2, cap=0, n=2, seed=1, count=1)
    with pytest.raises(InputError):
        SamplerConfig(p=2, cap=3, n=2, seed=-1, count=1)
    with pytest.raises(InputError):
        SamplerConfig(p=2, cap=40, n=2, seed=1, count=1)  # int64 overflow guard
    # the size guard answers before p**(2*cap) or the primality test is computed
    with pytest.raises(InputError, match="2\\*\\*62"):
        SamplerConfig(p=1152921504606846883, cap=1, n=2, seed=1, count=1)
    with pytest.raises(InputError, match="2\\*\\*62"):
        SamplerConfig(p=3, cap=10**9, n=2, seed=1, count=1)
    # the matrix-size cap answers before any entry is drawn
    with pytest.raises(InputError, match="entries"):
        SamplerConfig(p=2, cap=3, n=20_000, seed=1, count=1)
    with pytest.raises(InputError, match="entries"):
        SamplerConfig(p=2, cap=3, n=1024, u=1, seed=1, count=1)
    SamplerConfig(p=2, cap=3, n=1024, seed=1, count=1)  # exactly at the cap


@pytest.mark.parametrize("field", ["p", "cap", "n", "u", "seed", "count"])
@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
def test_config_fields_are_exact_ints(field, bad):
    fields = {"p": 2, "cap": 3, "n": 2, "u": 0, "seed": 1, "count": 4, field: bad}
    with pytest.raises(InputError, match=f"{field} must be an integer"):
        SamplerConfig(**fields)


def test_unit_entry_probability():
    # a 1x1 matrix over Z/8 has unit entry with probability 1/2
    cfg = SamplerConfig(p=2, cap=3, n=1, seed=7, count=4000)
    freq = sample_measure(cfg).mass(triv)
    assert abs(float(freq) - 0.5) < 0.03


def test_trivial_frequency_near_limit():
    # statistical: at n=8, cap=3 the trivial cokernel shows up with the exact
    # chance that an 8 x 8 matrix over F_2 is invertible, prod (1 - 2**-i)
    # for i <= 8 = 0.289919..., well within a 0.015 band at t=10**4
    exact = math.prod(1 - Fraction(1, 2**i) for i in range(1, 9))
    cfg = SamplerConfig(p=2, cap=3, n=8, seed=20260810, count=10_000)
    freq = sample_measure(cfg).mass(triv)
    assert abs(freq - exact) < Fraction(15, 1000)


class TestEmpiricalMoments:
    def test_point_measure(self):
        mu = Measure({triv: Fraction(1)})
        table = empirical_moments(mu, enumerate_groups([2], 4))
        assert table(triv) == 1
        assert table(Z(2)) == 0 and table(Z(4)) == 0

    def test_half_half(self):
        mu = Measure({triv: Fraction(1, 2), Z(2): Fraction(1, 2)})
        table = empirical_moments(mu, enumerate_groups([2, 3], 6))
        assert table(Z(2)) == Fraction(1, 2)
        assert table(Z(3)) == 0

    def test_table_holds_exactly_the_targets(self):
        mu = Measure({Z(2): Fraction(1)})
        table = empirical_moments(mu, [Z(2), Z(4), Z(2)])
        assert table.values == {Z(2): 1, Z(4): 0}
        assert empirical_moments(mu, []).values == {}

    @given(st.dictionaries(
        st.sampled_from(enumerate_groups([2, 3], 12)),
        st.fractions(min_value=0, max_value=5, max_denominator=60),
        max_size=6,
    ))
    @settings(max_examples=60, deadline=None)
    def test_values_are_the_fraction_sums(self, masses):
        # one integer sum over the common denominator per target
        mu, targets = Measure(masses), enumerate_groups([2, 3], 12)
        table = empirical_moments(mu, targets)
        for t in targets:
            want = sum((m * sur_count(X, t) for X, m in mu.items()), Fraction(0))
            assert table(t) == want and type(table(t)) is Fraction


class TestConvergenceReport:
    def test_exact_consistency_on_prefixes(self):
        # reconstructed bracket from exact empirical moments must contain the
        # exact empirical frequency at every sample count
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=400)
        targets = [triv, Z(2), Z(4)]
        records = convergence_report(cfg, [100, 400], targets, r_max=6)
        assert len(records) == 6
        for rec in records:
            freq = Fraction(rec["frequency"])
            assert Fraction(rec["bracket"]["lower"]) <= freq <= Fraction(rec["bracket"]["upper"]), rec
            assert {"t", "group", "frequency", "bracket", "reference"} <= set(rec)

    def test_each_reference_is_computed_once(self, monkeypatch):
        calls = Counter()

        def counted(p, u, M):
            calls[M] += 1
            return reference_mass(p, u, M)

        monkeypatch.setattr(sampler, "reference_mass", counted)
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=400)
        records = convergence_report(cfg, [100, 200, 400], [triv, Z(2)], r_max=2)
        assert calls == {triv: 1, Z(2): 1}
        for rec in records:
            M = FinAbGroup.from_json_obj(rec["group"])
            assert rec["reference"] == repr(float(reference_mass(2, 0, M)))

    def test_exponent_cap_enforced(self):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError, match="exponent"):
            convergence_report(cfg, [10], [Z(8)], r_max=2)

    def test_counts_are_refused_by_the_integer_rule(self):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError, match=r"^each entry of counts must be an integer >= 1, got 0$"):
            convergence_report(cfg, [5, 0], [triv], r_max=2)
        with pytest.raises(InputError, match="^counts must be a list of integers, got None$"):
            convergence_report(cfg, None, [triv], r_max=2)

    def test_counts_must_increase(self):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError):
            convergence_report(cfg, [10, 10], [triv], r_max=2)

    @pytest.mark.parametrize("counts, r_max", [
        ([5.5], 2), ([5.0], 2), ([True], 2), (["5"], 2), ([5], 2.0), ([5], True),
        ([0], 2), ([], 2), (None, 2), (5, 2),
    ], ids=repr)
    def test_counts_and_depth_are_exact_ints(self, counts, r_max):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError):
            convergence_report(cfg, counts, [triv], r_max=r_max)


def test_reference_mass():
    want = Fraction(1)
    for k in range(1, 31):
        want *= 1 - Fraction(1, 2**k)
    assert reference_mass(2, 0, triv) == want
    assert reference_mass(2, 0, Z(4)) == want / 2
    shifted = Fraction(1)
    for k in range(2, 32):
        shifted *= 1 - Fraction(1, 2**k)
    assert reference_mass(2, 1, Z(2)) == shifted / 2
