"""Random-matrix cokernel sampling and empirical convergence reports.

Each draw is the cokernel of a uniformly random n x (n+u) matrix over
Z/p**cap, diagonalized Smith-style over that chain ring. Randomness is
counter-based: draw i uses a Philox stream keyed by (seed, i), so sample
streams are reproducible and independent of batching or parallel order.
Draws are stacked, 64 of 8 x 8 or as many matrix entries at a time, and
one Smith reduction vectorized over the stack reduces them together; larger
stacks save little time and raise peak memory.

Working modulo p**cap truncates cokernel exponents at cap; moments of
targets with exponent below cap are unaffected by the truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .finab import FinAbGroup, Measure, aut_count, candidate_middles, is_prime, sur_count
from .localize import ModuleMomentTable, reconstruct_probability
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


def _draw_matrices(config: SamplerConfig, indices: Iterable[int]) -> Iterator[np.ndarray]:
    """Draw i for each i of indices, from the Philox stream keyed by (seed, i): one
    bit generator is reset for each draw, which is cheaper than building a new one."""
    bitgen = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    gen, fresh, shape = np.random.Generator(bitgen), bitgen.state, (config.n, config.n + config.u)
    for i in indices:
        fresh["state"]["key"][1] = i  # the state of a fresh Philox(key=[seed, i])
        bitgen.state = fresh
        yield gen.integers(0, config.p**config.cap, size=shape, dtype=np.int64)


def _valuations(a: np.ndarray, p: int, cap: int) -> np.ndarray:
    """p-adic valuation of each entry, with 0 mapped to cap."""
    return sum((a % p**k == 0 for k in range(1, cap + 1)), np.zeros(a.shape, np.int64))


# Matrix entries per stacked Smith reduction: 64 draws of 8 x 8. For `sample`
# (36 MB peak) stacks of 128, 256 and 1024 draws add 0.45, 0.9 and 4.5 MB but
# save at most 15% of the time; 64 draws add 0.15 MB.
_CHUNK_ENTRIES = 64 * 8 * 8


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
    for r in range(min(nrows, ncols) if count else 0):
        val = _valuations(a, p, cap).reshape(count, -1)
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
    step = max(1, _CHUNK_ENTRIES // max(1, config.n * (config.n + config.u)))
    draws = _draw_matrices(config, range(counts[-1]))
    tally: Counter = Counter()
    for done, t in zip([0, *counts], counts):
        for start in range(done, t, step):
            stack = [next(draws) for _ in range(start, min(start + step, t))]
            tally.update(cokernel_partition(np.stack(stack), config.p, config.cap))
        groups = {FinAbGroup.from_dict({config.p: k}): c for k, c in tally.items()}
        yield Measure({g: Fraction(c, t) for g, c in groups.items()})


def sample_cokernel(config: SamplerConfig, index: int = 0) -> FinAbGroup:
    """Cokernel of the index-th random matrix draw, in canonical form."""
    if not 0 <= index:
        raise InputError(f"draw index must be nonnegative, got {index}")
    parts = cokernel_partition(next(_draw_matrices(config, [index]))[None], config.p, config.cap)[0]
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

    # the localized sums at M read only the middles of 0 -> F_p**k -> M' -> M -> 0
    moment_targets = [
        mid
        for M in targets
        for k in range(r_max + 1)
        for mid in candidate_middles(FinAbGroup.elementary(config.p, k), M)
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
