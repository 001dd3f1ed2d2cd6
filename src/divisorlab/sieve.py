"""Exact arithmetic tables up to a configurable limit.

Builds two per-integer tables, the Mobius function and the count of
distinct prime divisors, in one pass over chunks of integers: a chunk's
smallest prime factors come from a segmented sieve by the primes up to
sqrt(limit) (Bays and Hudson, BIT 17, 1977) and live only as long as the
chunk, and mu and omega follow by the recurrence n -> n / spf(n) (Gries
and Misra, CACM 21, 1978).  Every aggregate in the package reads these
tables; they are written once and frozen.

Counts of squarefree integers up to y are read from a rank index over
mu (Jacobson, "Space-efficient static trees and graphs", FOCS 1989),
and the count of those coprime to a squarefree d follows from them by
the Liouville-signed sum of coprime_squarefree_counts.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from math import isqrt, prod

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError

_LIMIT_MAX = 2**31
# Widest chunk of the n -> n / spf(n) recurrences.
CHUNK = 2**18
# What a build holds per integer: mu (int8) and omega (uint8); a chunk
# of the sieve and the recurrence adds about 32 bytes per integer.
_BYTES_PER_INT = 2
_BYTES_PER_CHUNK_INT = 32


@dataclass(frozen=True)
class SieveTables:
    """Immutable factor tables for 1..limit.

    Attributes:
        limit: Largest integer covered (inclusive).
        mu: int8 array; mu[n] is the Mobius function (0 on non-squarefree n).
        omega: uint8 array; omega[n] counts distinct prime divisors.
            omega(n) <= 9 for n <= 2**31, since the product of the first
            ten primes exceeds 2**31; omega_flag_histogram packs omega
            into 4 bits on that bound.
        memo: values derived from the tables that an aggregate keeps for
            later requests (divisor_sums keeps a bounded number of class
            counts here); it dies with the table.

    The first squarefree_rank call also builds a rank index over mu and
    keeps it: a bitmap of the squarefree n <= limit in uint64 words and a
    uint32 count of the squarefree n below each word, about 0.19 bytes
    per integer (1.9 MB at 1e7).
    """

    limit: int
    mu: np.ndarray
    omega: np.ndarray
    memo: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)

    def is_prime(self, p: int) -> bool:
        """Whether p is a prime <= limit; p < 2 is not (omega[-1] is omega[limit])."""
        return bool(2 <= p <= self.limit and self.omega[p] == 1 and self.mu[p] != 0)

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (int64, read-only).

        Read off omega and mu on the first call, chunk by chunk, and kept
        on the instance, so a table that is never asked for its primes
        holds no prime list.
        """
        primes = self.__dict__.get("_primes")
        if primes is None:
            primes = np.concatenate([
                a + np.flatnonzero((self.omega[a:b] == 1) & (self.mu[a:b] != 0))
                for a, b in chunks(2, self.limit + 1)
            ]).astype(np.int64, copy=False)
            primes.setflags(write=False)
            self.__dict__["_primes"] = primes  # frozen: bypass __setattr__
        return primes

    def squarefree_rank(self, y: np.ndarray) -> np.ndarray:
        """Q(y), the number of squarefree n <= y, at every entry of y (int64).

        y holds integers in [0, limit].  Q(y) is the count of squarefree n
        below y's word plus the set bits of the word up to bit y mod 64.
        """
        index = self.__dict__.get("_rank_index")
        if index is None:
            index = _squarefree_rank_index(self.mu)
            self.__dict__["_rank_index"] = index  # frozen: bypass __setattr__
        words, below = index
        y = np.asarray(y, dtype=np.int64)
        flat = y.reshape(-1)  # array arithmetic: the wrap below is silent
        w = flat >> 6
        # Bits 0..y mod 64: at y mod 64 = 63 the shift wraps to 0 and the
        # subtraction to all ones.
        mask = (np.uint64(2) << (flat & 63).astype(np.uint64)) - np.uint64(1)
        rank = below[w].astype(np.int64) + np.bitwise_count(words[w] & mask)
        return rank.reshape(y.shape)

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


def _squarefree_rank_index(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(words, below): bit n % 64 of words[n // 64] is set iff mu[n] != 0,
    and below[i] counts the set bits of words[:i].  Packed chunk by chunk,
    so no boolean array of length limit is made."""
    words = np.zeros(len(mu) // 64 + 1, dtype="<u8")
    raw = words.view(np.uint8)  # little-endian words: byte j holds bits 8j..8j+7
    for a in range(0, len(mu), CHUNK):  # CHUNK is a multiple of 64
        packed = np.packbits(mu[a : a + CHUNK] != 0, bitorder="little")
        raw[a // 8 : a // 8 + len(packed)] = packed
    below = np.zeros(len(words), dtype=np.uint32)
    np.cumsum(np.bitwise_count(words[:-1]), dtype=np.uint32, out=below[1:])
    for arr in (words, below):
        arr.setflags(write=False)
    return words, below


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
    limits give identical tables.  It holds about 2 bytes per integer.

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

    roots = primes_up_to(isqrt(limit))
    omega = np.zeros(limit + 1, dtype=np.uint8)
    mu = np.zeros(limit + 1, dtype=np.int8)
    mu[1] = 1
    for a, b in chunks(2, limit + 1):
        p = smallest_prime_factors(a, b, roots)
        q = np.arange(a, b, dtype=np.uint32) // p
        new = q % p != 0  # p does not divide q
        omega[a:b] = omega[q] + new
        mu[a:b] = np.where(new, -mu[q], 0)

    for arr in (mu, omega):
        arr.setflags(write=False)
    return SieveTables(limit=limit, mu=mu, omega=omega)


def smallest_prime_factors(a: int, b: int, roots: np.ndarray) -> np.ndarray:
    """spf[n - a], the smallest prime factor of n, for n in [a, b) (uint32).

    0, 1 and the primes keep spf[n] = n.  roots holds at least the primes
    up to isqrt(b - 1), ascending; they strike their multiples from p*p on
    in descending order, so each n ends with its smallest prime.
    """
    spf = np.arange(a, b, dtype=np.uint32)
    for p in roots[: np.searchsorted(roots, isqrt(b - 1), side="right")][::-1].tolist():
        spf[max(p * p, -(-a // p) * p) - a :: p] = p
    return spf


def distinct_primes(n: int, tables: SieveTables) -> list[int]:
    """Ordered distinct prime factors of n <= limit, by trial division."""
    tables._check_range(n)
    return _trial_divide(n, tables)


def _trial_divide(m: int, tables: SieveTables) -> list[int]:
    """The primes p of tables.primes() dividing m >= 1, ascending, then the
    cofactor left (if > 1) once p*p exceeds it or the primes run out."""
    primes = []
    for p in map(int, tables.primes()):
        if p * p > m:
            break
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    return primes + [m] if m > 1 else primes


def factor_squarefree(m: int, tables: SieveTables) -> list[int]:
    """Distinct primes of a squarefree m, allowing m beyond the table limit.

    Trial division by the sieved primes covers exactly the m whose prime
    factors are all <= limit, and those with one prime above limit, up to
    limit**2: a cofactor with no prime <= limit is prime if it is <= limit**2.

    Raises:
        DomainError: if m is not squarefree or cannot be fully factored.
    """
    if m < 1:
        raise DomainError(f"m={m} must be a positive integer")
    primes = _trial_divide(m, tables)
    if prod(primes) != m:
        raise DomainError(f"m={m} is not squarefree")
    if primes and primes[-1] > tables.limit * tables.limit:
        raise DomainError(f"m={m} has a factor beyond the table limit {tables.limit}")
    return primes


def coprime_squarefree_counts(y, d, tables: SieveTables) -> np.ndarray:
    """#{squarefree m <= y_i : gcd(m, d_i) = 1} for int64 arrays y and d.

    y and d broadcast against each other; each d_i is squarefree and at
    most limit, each y_i at most limit (y_i < 1 counts nothing).  Since
    the squarefree m coprime to d have the Dirichlet series
    zeta(s)/zeta(2s) * prod_{p | d} (1 + p**-s)**-1,

        Q(y; d) = sum over a <= y with rad(a) | d of lambda(a) * Q(y // a),

    with Q = SieveTables.squarefree_rank and lambda(a) = (-1)**Omega(a).
    The terms (i, y_i // a, lambda(a)) are expanded one prime of d at a
    time: each pass over a prime p of d_i divides the live terms by p
    again and flips their sign, at most log2(y_i) passes per prime.
    """
    y, d = np.broadcast_arrays(np.asarray(y, dtype=np.int64), np.asarray(d, dtype=np.int64))
    shape = y.shape
    y, rem = np.maximum(y.ravel(), 0), d.ravel().copy()
    if len(y) == 0:
        return np.zeros(shape, dtype=np.int64)
    if y.max() > tables.limit or not 1 <= rem.min() <= rem.max() <= tables.limit:
        raise RangeError(f"y or d outside table range 1..{tables.limit}")
    if not tables.mu[rem].all():
        raise DomainError("every d must be squarefree")
    spf = smallest_prime_factors(0, rem.max() + 1, primes_up_to(isqrt(rem.max())))
    owner = np.arange(len(y))  # the entry each term belongs to
    quot = y  # y_i // a
    sign = np.ones(len(y), dtype=np.int64)  # lambda(a)
    while True:
        p = spf[rem].astype(np.int64)  # the next prime of d_i, 1 when none is left
        if p.max() == 1:
            break
        rem //= p
        p = p[owner]
        live = np.flatnonzero((p > 1) & (quot >= p))
        o, q, s, p = owner[live], quot[live], sign[live], p[live]
        grown = [(owner, quot, sign)]
        while len(o):
            q = q // p
            s = -s
            grown.append((o, q, s))
            more = q >= p
            o, q, s, p = o[more], q[more], s[more], p[more]
        owner, quot, sign = (np.concatenate(col) for col in zip(*grown))
    # The terms of entry i add up in size to at most y_i * (1 + ln y_i) <
    # 2**53 (y_i <= 2**31), so every float partial sum is an exact integer.
    terms = (sign * tables.squarefree_rank(quot)).astype(np.float64)
    return np.bincount(owner, weights=terms, minlength=len(y)).astype(np.int64).reshape(shape)


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
