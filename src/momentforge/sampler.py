"""Random-matrix cokernel sampling and empirical convergence reports.

Each draw is the cokernel of a uniformly random n x (n+u) matrix over
Z/p**cap, diagonalized Smith-style over that chain ring. Randomness is
counter-based: draw i uses a Philox stream keyed by (seed, i), so sample
streams are reproducible and independent of batching or parallel order.

Working modulo p**cap truncates cokernel exponents at cap; moments of
targets with exponent below cap are unaffected by the truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .finab import FinAbGroup, Measure, aut_count, enumerate_groups, is_prime, sur_count
from .inversion import Bracket
from .localize import ModuleMomentTable, complete_order_bound, reconstruct_probability
from .rationals import format_rational
from .surjcount import TypeBasis


@dataclass(frozen=True)
class SamplerConfig:
    """Cokernel sampler parameters; seed and draw index fully determine a draw."""

    p: int
    cap: int
    n: int
    seed: int
    count: int
    u: int = 0

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.cap < 1:
            raise InputError(f"cap must be >= 1, got {self.cap}")
        if self.n < 0 or self.u < 0 or self.count < 0:
            raise InputError("n, u and count must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must fit in 64 bits, got {self.seed}")
        if self.p ** (2 * self.cap) >= 2**62:
            raise InputError(
                f"p**(2*cap) = {self.p ** (2 * self.cap)} too large for int64 "
                "Smith reduction"
            )


def _draw_matrix(config: SamplerConfig, index: int) -> np.ndarray:
    bitgen = np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    q = config.p**config.cap
    return gen.integers(0, q, size=(config.n, config.n + config.u), dtype=np.int64)


def _valuations(a: np.ndarray, p: int, cap: int) -> np.ndarray:
    """p-adic valuation of each entry, with 0 mapped to cap."""
    val = np.full(a.shape, cap, dtype=np.int64)
    work = a.copy()
    alive = work != 0
    val[alive] = 0
    for _ in range(cap):
        div = alive & (work % p == 0)
        if not div.any():
            break
        val[div] += 1
        work[div] //= p
        alive = div
    return val


def cokernel_partition(mat: np.ndarray, p: int, cap: int) -> tuple[int, ...]:
    """Exponent partition of (Z/p**cap)**rows / columnspan(mat).

    Smith-style reduction over the chain ring Z/p**cap: repeatedly move a
    minimum-valuation entry to the pivot, normalize it to a power of p and
    clear its row and column. Pivot p**v contributes a Z/p**v factor;
    pivotless rows contribute Z/p**cap.
    """
    q = p**cap
    a = np.mod(np.asarray(mat, dtype=np.int64), q)
    nrows, ncols = a.shape
    exps = []
    r = 0
    while r < nrows and r < ncols:
        sub = a[r:, r:]
        val = _valuations(sub, p, cap)
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


def sample_cokernel(config: SamplerConfig, index: int = 0) -> FinAbGroup:
    """Cokernel of the index-th random matrix draw, in canonical form."""
    if not 0 <= index:
        raise InputError(f"draw index must be nonnegative, got {index}")
    parts = cokernel_partition(_draw_matrix(config, index), config.p, config.cap)
    return FinAbGroup.from_dict({config.p: parts} if parts else {})


def sample_measure(config: SamplerConfig, count: int | None = None) -> Measure:
    """Empirical measure of the first `count` draws (default config.count)."""
    count = config.count if count is None else count
    if count > config.count:
        raise InputError(f"asked for {count} draws but config.count = {config.count}")
    tally = Counter(sample_cokernel(config, i) for i in range(count))
    if count == 0:
        return Measure({})
    return Measure({g: Fraction(c, count) for g, c in tally.items()})


def empirical_moments(mu: Measure, targets: Iterable[FinAbGroup]) -> ModuleMomentTable:
    """Moment table of a finitely supported measure at the given targets:
    value(T) = sum_X mu(X) * Sur(X, T), exactly."""
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise InputError("empirical_moments needs at least one target")
    primes = sorted({p for t in targets for p in t.primes} | {p for g in mu.support() for p in g.primes})
    values = {
        t: sum((mass * sur_count(X, t) for X, mass in mu.items()), Fraction(0))
        for t in targets
    }
    bound = complete_order_bound(primes, set(values))
    if bound < 1:
        raise InputError("targets must include the trivial group")
    return ModuleMomentTable(primes, bound, values)


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

    basis = TypeBasis.abelian_primes([config.p])
    max_middle = max((M.order for M in targets), default=1) * config.p**r_max
    moment_targets = enumerate_groups([config.p], max_middle)

    records: list[dict] = []
    for t in counts:
        mu = sample_measure(config, t)
        table = empirical_moments(mu, moment_targets)
        for M in targets:
            bracket = reconstruct_probability(table, M, basis, (r_max,))
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
