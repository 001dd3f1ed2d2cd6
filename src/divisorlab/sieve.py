"""Exact arithmetic tables up to a configurable limit.

Builds three per-integer tables in one factoring pass: the smallest
prime factor is sieved by the primes up to sqrt(limit) only, and the
Mobius function and the count of distinct prime divisors follow from it
by the recurrence n -> n / spf(n) (Gries and Misra, CACM 21, 1978),
vectorised over chunks of integers.  Every aggregate in the package
reads these tables; they are written once and frozen.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError

_LIMIT_MAX = 2**31
# Widest chunk of the n -> n / spf(n) recurrences.
CHUNK = 2**18
# What a build holds per integer: spf (uint32), mu (int8) and omega
# (uint8); a chunk of the recurrence adds about 32 bytes per integer.
_BYTES_PER_INT = 6
_BYTES_PER_CHUNK_INT = 32


@dataclass(frozen=True)
class SieveTables:
    """Immutable factor tables for 1..limit.

    Attributes:
        limit: Largest integer covered (inclusive).
        spf: uint32 array of length limit+1; spf[n] is the smallest prime
            factor of n, with spf[1] = 1 and spf[p] = p for primes.
        mu: int8 array; mu[n] is the Mobius function (0 on non-squarefree n).
        omega: uint8 array; omega[n] counts distinct prime divisors.
            omega(n) <= 9 for n <= 2**31, since the product of the first
            ten primes exceeds 2**31; omega_flag_histogram packs omega
            into 4 bits on that bound.
        memo: values derived from the tables that an aggregate keeps for
            later requests (divisor_sums keeps a bounded number of class
            counts here); it dies with the table.
    """

    limit: int
    spf: np.ndarray
    mu: np.ndarray
    omega: np.ndarray
    memo: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)

    def is_squarefree(self, n: int) -> bool:
        self._check_range(n)
        return bool(self.mu[n] != 0)

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (int64, read-only).

        Built from spf on the first call, chunk by chunk, and kept on the
        instance, so a table that is never asked for its primes holds no
        prime list.
        """
        primes = self.__dict__.get("_primes")
        if primes is None:
            primes = np.concatenate([
                a + np.flatnonzero(self.spf[a:b] == np.arange(a, b, dtype=np.uint32))
                for a, b in chunks(2, self.limit + 1)
            ]).astype(np.int64, copy=False)
            primes.setflags(write=False)
            self.__dict__["_primes"] = primes  # frozen: bypass __setattr__
        return primes

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise RangeError(f"n={n} outside table range 1..{self.limit}")


def chunks(lo: int, hi: int):
    """Yield [a, b) covering [lo, hi), each at most a (and CHUNK) wide.

    Widths double from lo until they reach CHUNK.  Since b - a <= a, every
    n // spf(n) <= n / 2 of a chunk lies below a, so a recurrence over
    n -> n / spf(n) reads only entries of earlier chunks.
    """
    a = lo
    while a < hi:
        b = min(a + min(a, CHUNK), hi)
        yield a, b
        a = b


def _available_bytes() -> int | None:
    """Memory the system can still give this process, or None if unknown."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def build_sieve(limit: int) -> SieveTables:
    """Build SieveTables for 1..limit.

    The construction is deterministic plain integer sieving, so equal
    limits give identical tables.  It holds about 6 bytes per integer.

    Raises:
        ConfigurationError: if limit is outside [2, 2**31].
        RangeError: if the estimated peak exceeds the available memory.
    """
    if not 2 <= limit <= _LIMIT_MAX:
        raise ConfigurationError(f"limit={limit} outside supported range [2, 2**31]")
    need = _BYTES_PER_INT * (limit + 1) + _BYTES_PER_CHUNK_INT * CHUNK
    have = _available_bytes()
    if have is not None and need > have:
        raise RangeError(
            f"build_sieve({limit}) needs about {need / 2**20:.0f} MB; "
            f"{have / 2**20:.0f} MB available"
        )

    # Descending, so each entry ends with its smallest prime; the entries
    # no root prime touches (0, 1 and the primes) keep spf[n] = n.
    spf = np.arange(limit + 1, dtype=np.uint32)
    for p in primes_up_to(isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p

    omega = np.zeros(limit + 1, dtype=np.uint8)
    mu = np.zeros(limit + 1, dtype=np.int8)
    mu[1] = 1
    for a, b in chunks(2, limit + 1):
        p = spf[a:b]
        q = np.arange(a, b, dtype=np.uint32) // p
        new = spf[q] != p  # p does not divide q
        omega[a:b] = omega[q] + new
        mu[a:b] = np.where(new, -mu[q], 0)

    for arr in (spf, mu, omega):
        arr.setflags(write=False)
    return SieveTables(limit=limit, spf=spf, mu=mu, omega=omega)


def distinct_primes(n: int, tables: SieveTables) -> list[int]:
    """Ordered distinct prime factors of n, via repeated spf division."""
    tables._check_range(n)
    primes = []
    m = n
    while m > 1:
        p = int(tables.spf[m])
        primes.append(p)
        while m % p == 0:
            m //= p
    return primes


def factor_squarefree(m: int, tables: SieveTables) -> list[int]:
    """Distinct primes of a squarefree m, allowing m beyond the table limit.

    Beyond the limit, falls back to trial division by sieved primes; that
    covers exactly the m whose prime factors are all <= limit.

    Raises:
        DomainError: if m is not squarefree or cannot be fully factored.
    """
    if m < 1:
        raise DomainError(f"m={m} must be a positive integer")
    if m <= tables.limit:
        if tables.mu[m] == 0:
            raise DomainError(f"m={m} is not squarefree")
        return distinct_primes(m, tables)
    primes = []
    rem = m
    for p in map(int, tables.primes()):
        if p * p > rem:
            break
        if rem % p == 0:
            rem //= p
            if rem % p == 0:
                raise DomainError(f"m={m} is not squarefree")
            primes.append(p)
    if rem > 1:
        if rem > tables.limit * tables.limit or (
            rem <= tables.limit and tables.spf[rem] != rem
        ):
            raise DomainError(
                f"m={m} has a factor beyond the table limit {tables.limit}"
            )
        primes.append(rem)
    return sorted(primes)


def squarefree_mask(x: int, tables: SieveTables) -> np.ndarray:
    """Boolean mask over 1..x (index i <-> integer i+1) of squarefree integers."""
    if not 0 <= x <= tables.limit:
        raise RangeError(f"x={x} outside table range 0..{tables.limit}")
    return tables.mu[1 : x + 1] != 0


def squarefree_coprime_count(x: int, m: int, tables: SieveTables) -> int:
    """Exact count of squarefree n <= x with gcd(n, m) = 1.

    Counts by direct divisibility tests against the distinct primes of m,
    not by a density formula; this is the enumeration oracle that the
    main-term predictions are judged against.
    """
    mprimes = factor_squarefree(m, tables)
    mask = np.array(squarefree_mask(x, tables))
    for p in mprimes:
        if p <= x:
            mask[p - 1 :: p] = False
    return int(np.count_nonzero(mask))


def squarefree_coprime_count_range(
    lo: int, hi: int, mprimes: list[int], tables: SieveTables
) -> int:
    """Count squarefree n in [lo, hi] divisible by none of mprimes.

    Internal building block for divisor-major aggregation; lo/hi inclusive.
    """
    lo = max(lo, 1)
    if hi < lo:
        return 0
    if hi > tables.limit:
        raise RangeError(f"hi={hi} outside table range")
    mask = tables.mu[lo : hi + 1] != 0
    for p in mprimes:
        first = lo + (-lo) % p
        if first <= hi:
            mask[first - lo :: p] = False
    return int(np.count_nonzero(mask))


# Integers per block of omega_flag_histogram: its key and the bincount's
# int64 copy of it stay near 2 MB, so a count adds little to the peak.
_HIST_BLOCK = CHUNK


def omega_flag_histogram(x: int, ops: tuple[int, ...], tables: SieveTables) -> np.ndarray:
    """Counts of squarefree n <= x by omega(n) and the override primes dividing n.

    Returns an int64 array h of shape (16, 2**r), r = len(ops): h[i, f] counts
    the squarefree n <= x with omega(n) = i that are divisible by ops[j]
    exactly for the bits j set in f.  ops are distinct primes; rows 10-15
    are zero.

    The key omega(n) | flags(n) << 4 is built block by block in the
    narrowest unsigned type that holds it, so no array of length x is made.
    The 4 bits rest on omega(n) <= 9 for n <= 2**31 (the product of the
    first ten primes exceeds 2**31): the unused value 15 marks the n that
    are not squarefree, and their row is dropped after counting.  Byte keys
    (r <= 4) are counted two at a time: a uint16 view of the block indexes
    65,536 bins, whose row and column sums are the counts of the two bytes.
    """
    r = len(ops)
    bins = 16 << r
    pairs = r <= 4
    dtype = np.uint8 if pairs else np.uint16 if r <= 12 else np.uint32
    counts = np.zeros(1 << 16 if pairs else bins, dtype=np.int64)
    odd = np.zeros(256, dtype=np.int64)  # the last byte of odd-length blocks
    block = max(_HIST_BLOCK, bins)  # no block shorter than its histogram
    for lo in range(1, x + 1, block):
        hi = min(lo + block, x + 1)
        key = (tables.mu[lo:hi] == 0).astype(dtype)
        key *= 15
        key |= tables.omega[lo:hi]
        for i, q in enumerate(ops):
            key[(-lo) % q :: q] |= 1 << (4 + i)
        if pairs:
            even = len(key) & ~1
            counts += np.bincount(key[:even].view(np.uint16), minlength=1 << 16)
            if even < len(key):
                odd[key[-1]] += 1
        else:
            counts += np.bincount(key, minlength=bins)
    if pairs:
        counts = counts.reshape(256, 256)
        counts = (counts.sum(axis=0) + counts.sum(axis=1) + odd)[:bins]
    counts = counts.reshape(1 << r, 16).T  # row omega, column flags
    counts[15] = 0
    return counts


def omega_class_counts(x: int, tables: SieveTables) -> dict[int, int]:
    """Counts of squarefree n <= x, grouped by number of distinct primes.

    The returned map lets sums of the form  sum z**omega(n) mu^2(n)  be
    evaluated exactly as  sum_j z**j * count_j.
    """
    if not 0 <= x <= tables.limit:
        raise RangeError(f"x={x} outside table range 0..{tables.limit}")
    counts = omega_flag_histogram(x, (), tables)[:, 0]
    return {int(j): int(c) for j, c in enumerate(counts) if c > 0}


def primes_up_to(n: int) -> np.ndarray:
    """Standalone ascending prime list (int64), independent of SieveTables."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    comp = np.zeros(n + 1, dtype=bool)
    for p in range(2, isqrt(n) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    comp[:2] = True
    return np.flatnonzero(~comp).astype(np.int64)
