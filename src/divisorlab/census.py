"""Exact census of ordered k-fold factorizations of squarefree integers.

For squarefree n, an ordered factorization n = d_1 * ... * d_k is exactly
an assignment of each distinct prime of n to one of k slots, so there are
k**omega(n) of them.  The census counts, over all of them, how many slots
hold a small part (d_i**k <= n).  By slot symmetry that total is k times
the number of assignments whose first slot is small, and fixing the first
slot's divisor d leaves (k-1)**(omega(n)-omega(d)) ways to place the other
primes, so only the divisors d <= n**(1/k) are visited, never the
assignments.  The mean count per factorization is reported against the k/2
heuristic but never asserted: it is an open question, and the census only
produces evidence.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .divisor_sums import integer_kth_root
from .errors import DomainError, InsufficientPopulationError, RangeError
from .sieve import SieveTables, factor_squarefree, omega_class_counts

# Synthetic samples draw from the first 18 primes, those up to 61.
_SYNTHETIC_POOL, _SYNTHETIC_TOP = 18, 61


@dataclass(frozen=True)
class CensusRecord:
    n: int
    k: int
    tau_k: int
    g_k: int
    ratio: float
    omega_n: int


@dataclass(frozen=True)
class CensusSummary:
    k: int
    omega: int
    count: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    half_k_distance: float  # |mean_ratio - k/2|


def census(n: int, k: int, tables: SieveTables) -> CensusRecord:
    """Count the small parts over all k**omega(n) ordered factorizations of squarefree n.

    Raises:
        DomainError: if k < 2, or n is not squarefree or not factorable
            over the table.
        RangeError: if omega(n) > 25.
    """
    return _census(n, k, factor_squarefree(n, tables))


def _census(n: int, k: int, primes: list[int]) -> CensusRecord:
    """The census of squarefree n, given its distinct primes in ascending order.

    g_k = k * sum over divisors d of n with d**k <= n of
    (k-1)**(omega(n)-omega(d)), in exact integers.  The divisors are walked
    depth first over the ascending primes of n, and a branch stops at the
    first prime that takes d past the integer k-th root of n.
    """
    if k < 2:
        raise DomainError(f"k={k} must be >= 2")
    om = len(primes)
    if om > 25:
        raise RangeError(f"omega(n)={om} exceeds the supported 25")
    r = integer_kth_root(n, k)
    # small[j]: divisors d <= r with j primes
    small = [0] * (om + 1)
    stack = [(1, 0, 0)]  # (d, omega(d), index of the next prime to try)
    while stack:
        d, j, i = stack.pop()
        small[j] += 1
        for t in range(i, om):
            e = d * primes[t]
            if e > r:
                break
            stack.append((e, j + 1, t + 1))
    states = k**om
    g_k = k * sum(c * (k - 1) ** (om - j) for j, c in enumerate(small))
    return CensusRecord(n=n, k=k, tau_k=states, g_k=g_k, ratio=g_k / states, omega_n=om)


def census_sample(
    omega_target: int,
    k: int,
    count: int,
    seed: int,
    tables: SieveTables,
) -> tuple[list[CensusRecord], CensusSummary]:
    """Seeded sample of squarefree n <= limit with the given omega, censused.

    Sampling is uniform over the in-table population; if the population is
    smaller than count the draw is with replacement (and without it
    otherwise), so output is a pure function of (seed, count, limit).
    The generator draws ranks in the population, whose size N_omega(limit)
    the squarefree rows give, and each rank's n is read off those rows and
    one block of keys: Generator.choice over the population itself draws
    the same ranks, so it is the same sample.

    Raises:
        InsufficientPopulationError: if no such n exists in the tables.
    """
    if count < 1:
        raise DomainError(f"count={count} must be >= 1")
    if omega_target < 1:
        raise InsufficientPopulationError(
            "omega_target=0 selects only n=1, which sits outside the bound regime"
        )
    size = omega_class_counts(tables.limit, tables).get(omega_target, 0)
    if size == 0:
        raise InsufficientPopulationError(
            f"no squarefree n <= {tables.limit} with omega(n) = {omega_target}"
        )
    rng = np.random.default_rng(seed)
    ranks = rng.choice(size, size=count, replace=size < count)
    records = [census(n, k, tables) for n in tables._squarefree_omega_select(omega_target, ranks).tolist()]
    return records, _summarize(records, k, omega_target)


def census_sample_synthetic(
    omega_target: int,
    k: int,
    count: int,
    seed: int,
    tables: SieveTables,
) -> tuple[list[CensusRecord], CensusSummary]:
    """Census of seeded products of omega_target distinct small primes.

    Covers omega ranges whose smallest representative exceeds any feasible
    sieve limit (the 12-prime primorial is already ~7.4e12).  Each n is a
    product of omega_target primes drawn without replacement from the
    first 18 primes; the pool is fixed so that a seed always yields the
    same products.  The census reads n's primes from the draw, so n is
    never factored.

    Raises:
        RangeError: if the table holds fewer than 18 primes.
    """
    if count < 1:
        raise DomainError(f"count={count} must be >= 1")
    if omega_target < 1:
        raise InsufficientPopulationError("omega_target must be >= 1")
    pool = tables.primes(_SYNTHETIC_TOP)
    if len(pool) < _SYNTHETIC_POOL:
        raise RangeError(f"table holds only {len(pool)} primes; {_SYNTHETIC_POOL} requested")
    if omega_target > len(pool):
        raise InsufficientPopulationError(
            f"prime pool of {len(pool)} cannot supply omega = {omega_target}"
        )
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        primes = sorted(rng.choice(pool, size=omega_target, replace=False).tolist())
        records.append(_census(prod(primes), k, primes))
    return records, _summarize(records, k, omega_target)


def _summarize(records, k, omega_target) -> CensusSummary:
    ratios = [rec.ratio for rec in records]
    mean = sum(ratios) / len(ratios)
    return CensusSummary(
        k=k,
        omega=omega_target,
        count=len(records),
        mean_ratio=mean,
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        half_k_distance=abs(mean - k / 2.0),
    )
