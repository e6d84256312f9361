import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentforge.errors import InputError
from momentforge.finab import FinAbGroup, Measure, enumerate_groups
from momentforge.inversion import Bracket
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

Z = FinAbGroup.from_orders
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


def _oracle_draws(config, count):
    """Cokernels of draws 0 .. count-1, one matrix at a time through the oracle."""
    return [
        FinAbGroup.from_dict({config.p: smith_partition_oracle(mat, config.p, config.cap)})
        for mat in _draw_matrices(config, range(count))
    ]


def test_reused_philox_matches_fresh_philox_per_draw():
    # one bit generator per run, reset for each draw, gives the stream a
    # fresh Philox keyed by (seed, index) gives
    for config in (
        SamplerConfig(p=2, cap=3, n=8, seed=2024, count=1),
        SamplerConfig(p=3, cap=2, n=5, u=2, seed=2**64 - 1, count=1),
    ):
        for i, got in enumerate(_draw_matrices(config, range(2000))):
            fresh = np.random.Generator(
                np.random.Philox(key=np.array([config.seed, i], dtype=np.uint64))
            )
            want = fresh.integers(
                0, config.p**config.cap, size=(config.n, config.n + config.u), dtype=np.int64
            )
            assert np.array_equal(got, want), (config, i)


@pytest.mark.parametrize(
    "p, cap, n, u, count",
    [(2, 3, 8, 0, 600), (3, 2, 6, 1, 600), (2, 3, 8, 0, 0), (2, 3, 0, 0, 300), (5, 1, 0, 2, 7)],
)
def test_sample_measure_matches_oracle_draws(p, cap, n, u, count):
    # 600 draws straddle stacks of 64 (8 x 8) and 97 (6 x 7) draws
    config = SamplerConfig(p=p, cap=cap, n=n, u=u, seed=2024, count=count)
    tally = Counter(_oracle_draws(config, count))
    assert sample_measure(config) == Measure({g: Fraction(c, count) for g, c in tally.items()})


def test_convergence_report_matches_oracle_draws():
    config = SamplerConfig(p=2, cap=3, n=8, seed=5, count=600)
    targets = [triv, Z(2), Z(4)]
    records = convergence_report(config, [100, 256, 257, 600], targets, r_max=2)
    assert [rec["t"] for rec in records] == [t for t in (100, 256, 257, 600) for _ in targets]
    draws = _oracle_draws(config, 600)
    for rec in records:
        tally = Counter(draws[: rec["t"]])
        group = FinAbGroup.from_json_obj(rec["group"])
        assert rec["frequency"] == format_rational(Fraction(tally[group], rec["t"]))


def test_trivial_matrix_sizes():
    assert sample_cokernel(SamplerConfig(p=2, cap=3, n=0, seed=1, count=1)).is_trivial


def test_determinism_and_prefix():
    base = SamplerConfig(p=2, cap=3, n=4, seed=99, count=60)
    longer = SamplerConfig(p=2, cap=3, n=4, seed=99, count=240)
    first = [sample_cokernel(base, i) for i in range(60)]
    assert first == [sample_cokernel(longer, i) for i in range(60)]
    assert sample_measure(longer, 60) == sample_measure(base)
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


def test_unit_entry_probability():
    # a 1x1 matrix over Z/8 has unit entry with probability 1/2
    cfg = SamplerConfig(p=2, cap=3, n=1, seed=7, count=4000)
    freq = sample_measure(cfg).mass(triv)
    assert abs(float(freq) - 0.5) < 0.03


def test_trivial_frequency_near_limit():
    # statistical: at n=8, cap=3 the trivial cokernel shows up with the
    # limiting frequency 0.2888 well within a 0.015 band at t=10**4
    cfg = SamplerConfig(p=2, cap=3, n=8, seed=20260810, count=10_000)
    freq = sample_measure(cfg).mass(triv)
    assert abs(float(freq) - 0.2888) < 0.015


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
            br = Bracket.from_json_obj(rec["bracket"])
            assert br.contains(freq), rec
            assert {"t", "group", "frequency", "bracket", "reference"} <= set(rec)

    def test_exponent_cap_enforced(self):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError, match="exponent"):
            convergence_report(cfg, [10], [Z(8)], r_max=2)

    def test_counts_must_increase(self):
        cfg = SamplerConfig(p=2, cap=3, n=4, seed=11, count=10)
        with pytest.raises(InputError):
            convergence_report(cfg, [10, 10], [triv], r_max=2)


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
