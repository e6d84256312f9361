"""Random-matrix cokernel sampling and empirical convergence reports.

Each draw is the cokernel of a uniformly random n x (n+u) matrix over
Z/p**cap, diagonalized Smith-style over that chain ring. Randomness is
counter-based: draw i is the matrix numpy's Generator(Philox(key=[seed, i]))
draws, so sample streams are reproducible and independent of batching or
parallel order. One vectorized Philox4x64-10 pass computes the words of a
whole stack of keys, so numpy.random is never imported.

Draws are stacked, 1024 of 8 x 8 or as many matrix entries at a time, and
one Smith reduction vectorized over the stack reduces them together. On 2
vCPUs, 10**5 draws of 8 x 8 take 1.45 s at a peak RSS of 33 MB this way,
and 5.2 s and 35 MB through numpy's generator one matrix at a time with
stacks of 64. A 1024 x 1024 draw is a stack by itself, drawn in passes of
bounded size: drawing it peaks at 43 MB, against 42 MB through numpy's
generator.

Working modulo p**cap truncates cokernel exponents at cap; moments of
targets with exponent below cap are unaffected by the truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budget import budget_from_env
from .errors import InputError
from .finab import FinAbGroup, Measure, aut_count, is_prime, sur_count
from .localize import ModuleMomentTable, localization_middles, reconstruct_probability
from .rationals import format_rational


# Entry cap on one drawn matrix, checked before anything is allocated: an
# int64 matrix of 2**20 entries takes 8 MB, and the Smith reduction a few
# copies of it.
MAX_MATRIX_ENTRIES = 2**20


@dataclass(frozen=True, kw_only=True)
class SamplerConfig:
    """Cokernel sampler parameters; seed and draw index fully determine a draw."""

    p: int
    cap: int
    n: int
    u: int = 0
    seed: int
    count: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise InputError(f"cap must be >= 1, got {self.cap}")
        if self.cap * (self.p.bit_length() - 1) >= 31 or self.p ** (2 * self.cap) >= 2**62:
            raise InputError("p**(2*cap) must be below 2**62 for int64 Smith reduction")
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.n < 0 or self.u < 0 or self.count < 0:
            raise InputError("n, u and count must be nonnegative")
        if self.n * (self.n + self.u) > MAX_MATRIX_ENTRIES:
            raise InputError(
                f"an n x (n+u) matrix may have at most {MAX_MATRIX_ENTRIES} entries, "
                f"got {self.n} x {self.n + self.u}"
            )
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must fit in 64 bits, got {self.seed}")


# Philox4x64-10 constants (Salmon et al., SC 2011), as numpy's Philox uses them
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(2**32 - 1)
# Philox blocks per pass, so no round array passes 128 KB. A stack of 1024
# draws of 8 x 8 takes one pass of 8192 blocks (13312 where 19% of words are
# rejected); one --n 1024 draw takes 8 to 10 passes, no temporary above 1 MB.
_MAX_BLOCKS = 2**14


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product a * b, from 32-bit
    limbs (Hacker's Delight, mulhu): no partial sum overflows 64 bits."""
    a0, a1 = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b0, b1 = b & _LOW32, b >> 32
    t = a0 * b0
    t >>= 32
    t += np.multiply(a1, b0, out=b0)
    w = t & _LOW32
    w += a0 * b1
    t >>= 32
    w >>= 32
    t += w
    t += np.multiply(a1, b1, out=b1)
    return t, np.uint64(a) * b


def _philox_words(seed: int, keys: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """uint32 words of Philox4x64-10 blocks first .. first+blocks-1 under key
    [seed, k], one row per k of keys, in the order numpy's Philox(key=[seed, k])
    hands them to Generator.integers: counter 1 first, each 64-bit output low
    half first. Counter words 1-3 and the key broadcast, so the first round
    costs one product per counter."""
    k0, k1 = np.full((1, 1), seed, np.uint64), keys[:, None]
    zero = np.zeros((1, 1), np.uint64)
    ctr = [np.arange(first, first + blocks, dtype=np.uint64)[None], zero, zero, zero]
    for r in range(10):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0]
    out = np.stack(ctr, axis=-1).astype("<u8", copy=False).view("<u4")
    return out.reshape(len(keys), 8 * blocks)


def _draw_matrices(config: SamplerConfig, start: int, stop: int) -> np.ndarray:
    """Draws start .. stop-1 as one (stop-start, n, n+u) stack, each equal to
    Generator(Philox(key=[seed, i])).integers(0, q, (n, n+u)) with q = p**cap.

    That generator maps each uint32 word x to (x * q) >> 32 and rejects x when
    (x * q) mod 2**32 < 2**32 mod q (Lemire's method), so whether a word is
    kept depends on x alone, and draw i is the first n*(n+u) kept words of its
    Philox stream. A pass computes enough blocks that a draw falls short only
    some six standard deviations out; the draws that do, and draws too large
    for one pass, get further passes at the next counters.
    """
    q, shape = config.p**config.cap, (config.n, config.n + config.u)
    entries, threshold = shape[0] * shape[1], 2**32 % q
    reject = threshold / 2**32
    out = np.zeros((stop - start) * entries, np.int64)
    have = np.zeros(stop - start, np.int64)  # kept words so far, per draw
    rows = np.arange(stop - start if entries else 0)  # draws still short
    block = 1
    while rows.size:
        short = entries - int(have[rows].min())
        words = (short + 6 * (short * reject) ** 0.5) / (1 - reject)
        blocks = max(1, min(-(-int(words) // 8), _MAX_BLOCKS // rows.size))
        keys = np.uint64(start) + rows.astype(np.uint64)
        scaled = _philox_words(config.seed, keys, block, blocks) * np.uint64(q)
        vals, kept = (scaled >> 32).view(np.int64), (scaled & _LOW32) >= threshold
        col = have[rows, None] + np.cumsum(kept, axis=1)  # 1 + target column of each word
        kept &= col <= entries
        got, lo = vals[kept], rows[0] * entries + have[rows[0]]
        have[rows] = np.minimum(col[:, -1], entries)
        if lo + got.size == rows[-1] * entries + have[rows[-1]]:
            out[lo : lo + got.size] = got  # the new entries fill one run of out
        else:
            out[(rows[:, None] * entries + col - 1)[kept]] = got
        rows = rows[have[rows] < entries]
        block += blocks
    return out.reshape(stop - start, *shape)


def _valuations(a: np.ndarray, p: int, cap: int) -> np.ndarray:
    """p-adic valuation of each entry, with 0 mapped to cap."""
    return sum((a % p**k == 0 for k in range(1, cap + 1)), np.zeros(a.shape, np.int64))


# Matrix entries per stacked Smith reduction: 1024 draws of 8 x 8. For 10**5
# such draws in one process (28 MB after import), stacks of 64, 256, 1024 and
# 4096 draws took 3.4, 2.1, 1.45 and 1.6 s at peak RSS 29.0, 29.5, 33.2 and
# 40.5 MB, on 2 vCPUs.
_CHUNK_ENTRIES = 1024 * 8 * 8


def cokernel_partition(mats: np.ndarray, p: int, cap: int) -> list[tuple[int, ...]]:
    """Exponent partition of (Z/p**cap)**rows / columnspan(mat) for each mat
    of a (B, rows, cols) stack, one reduction step for the whole stack.

    Smith-style reduction over the chain ring Z/p**cap: repeatedly move a
    minimum-valuation entry u * p**v (u a unit) to the pivot and clear its
    column by the invertible row operations row_i <- u * row_i -
    (a_i0 / p**v) * row_0, so no unit is ever inverted; every product stays
    below p**(2*cap) < 2**62. Pivot p**v contributes a Z/p**v factor;
    pivotless rows and zero blocks (v = cap) contribute Z/p**cap.
    """
    q = p**cap
    a = np.mod(np.asarray(mats, dtype=np.int64), q)
    count, nrows, ncols = a.shape
    idx = np.arange(count)
    exps = np.full((count, nrows), cap)
    # one table lookup replaces cap compares when the table is no larger than the stack
    lut = _valuations(np.arange(q), p, cap) if q <= min(2**16, a.size) else None
    for r in range(min(nrows, ncols) if count else 0):
        val = (lut[a] if lut is not None else _valuations(a, p, cap)).reshape(count, -1)
        v = exps[:, r] = val.min(axis=1)
        i, j = np.divmod(val.argmin(axis=1), ncols - r)
        a[idx, 0], a[idx, i] = a[idx, i], a[idx, 0]
        a[idx, :, 0], a[idx, :, j] = a[idx, :, j], a[idx, :, 0]
        unit = np.where(v < cap, a[:, 0, 0] // p**v, 1)[:, None, None]
        colfac = (a[:, 1:, 0] // p ** v[:, None])[:, :, None]
        a = (unit * a[:, 1:, 1:] - colfac * a[:, :1, 1:]) % q
    return [tuple(sorted(filter(None, row), reverse=True)) for row in exps.tolist()]


def _prefix_measures(config: SamplerConfig, counts: Sequence[int]) -> Iterator[Measure]:
    """Empirical measure of the first t draws, for each t of the increasing counts."""
    entries = config.n * (config.n + config.u)
    budget_from_env().check_sample_work(
        counts[-1] * (config.n * entries + 1) * config.cap,
        f"{counts[-1]} draws of {config.n} x {config.n + config.u} over Z/{config.p}**{config.cap}",
    )
    step = max(1, _CHUNK_ENTRIES // max(1, entries))
    tally: Counter = Counter()
    for done, t in zip([0, *counts], counts):
        for start in range(done, t, step):
            stack = _draw_matrices(config, start, min(start + step, t))
            tally.update(cokernel_partition(stack, config.p, config.cap))
        groups = {FinAbGroup.from_dict({config.p: k}): c for k, c in tally.items()}
        yield Measure({g: Fraction(c, t) for g, c in groups.items()})


def sample_cokernel(config: SamplerConfig, index: int = 0) -> FinAbGroup:
    """Cokernel of the index-th random matrix draw, in canonical form."""
    if not 0 <= index < 2**64:
        raise InputError(f"draw index must be in [0, 2**64), got {index}")
    parts = cokernel_partition(_draw_matrices(config, index, index + 1), config.p, config.cap)[0]
    return FinAbGroup.from_dict({config.p: parts})


def sample_measure(config: SamplerConfig, count: int | None = None) -> Measure:
    """Empirical measure of the first `count` draws (default config.count)."""
    count = config.count if count is None else count
    if count > config.count:
        raise InputError(f"asked for {count} draws but config.count = {config.count}")
    return next(_prefix_measures(config, [count]))


def empirical_moments(mu: Measure, targets: Iterable[FinAbGroup]) -> ModuleMomentTable:
    """Moment table of a finitely supported measure at the given targets,
    and no others: value(T) = sum_X mu(X) * Sur(X, T), exactly."""
    targets = list(dict.fromkeys(targets))
    primes = {p for t in targets for p in t.primes} | {p for g in mu.support() for p in g.primes}
    values = {
        t: sum((mass * sur_count(X, t) for X, mass in mu.items()), Fraction(0))
        for t in targets
    }
    return ModuleMomentTable(primes, values)


def reference_mass(p: int, u: int, M: FinAbGroup, factors: int = 30) -> Fraction:
    """Limit mass of M under the cokernel distribution, by truncated product:
    (1/|M|**u) * (1/|Aut M|) * prod_{k=u+1}^{u+factors} (1 - p**-k)."""
    out = Fraction(1, M.order**u * aut_count(M))
    for k in range(u + 1, u + factors + 1):
        out *= 1 - Fraction(1, p**k)
    return out


def convergence_report(
    config: SamplerConfig,
    counts: Sequence[int],
    targets: Sequence[FinAbGroup],
    r_max: int,
) -> list[dict]:
    """One record per (sample count, target): empirical frequency, the
    bracket reconstructed from empirical moments, and the limit reference.

    Deterministic given the config seed. Targets must have exponent at most
    cap - 1 so the modulus truncation cannot bias their moments.
    """
    counts = [int(t) for t in counts]
    if not counts or any(t <= 0 for t in counts):
        raise InputError("counts must be positive")
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise InputError("counts must be strictly increasing")
    if counts[-1] > config.count:
        raise InputError(f"counts go up to {counts[-1]} but config.count = {config.count}")
    if r_max < 0:
        raise InputError("r_max must be >= 0")
    for M in targets:
        if any(p != config.p for p in M.primes):
            raise InputError(f"target {M} is not a {config.p}-group")
        parts = M.partition(config.p)
        if parts and parts[0] > config.cap - 1:
            raise InputError(
                f"target {M} has exponent {config.p}**{parts[0]}; the sampler works "
                f"modulo {config.p}**{config.cap} and certifies exponents up to "
                f"{config.cap - 1}"
            )

    moment_targets = [
        mid for M in targets for _, _, mids in localization_middles(M, (config.p,), (r_max,))
        for mid in mids
    ]

    records: list[dict] = []
    for t, mu in zip(counts, _prefix_measures(config, counts)):
        table = empirical_moments(mu, moment_targets)
        for M in targets:
            bracket = reconstruct_probability(table, M, (config.p,), (r_max,))
            records.append(
                {
                    "t": t,
                    "group": M.to_json_obj(),
                    "frequency": format_rational(mu.mass(M)),
                    "bracket": bracket.to_json_obj(),
                    "reference": repr(float(reference_mass(config.p, config.u, M))),
                }
            )
    return records
