"""Exact arithmetic tables up to a configurable limit.

Builds one byte per integer, key[n] = omega(n) | NOT_SQUAREFREE when n
is not squarefree, in one pass over chunks of integers, striking each
chunk with the primes up to sqrt(limit) as a segmented sieve does (Bays
and Hudson, BIT 17, 1977).  Each strike by p writes key[p*m] from the
finished key[m] of an earlier chunk: one prime more than m has, unless p
divides m, and then p*p divides p*m.  That holds for every prime of n,
so the strikes need no order, no smallest prime factor and no division.
Every aggregate in the package reads this table; it is written once and
frozen.

Counts up to y are read from a count index over the table (in the
manner of Jacobson's rank index, "Space-efficient static trees and
graphs", FOCS 1989): per block of 256 integers, rows j of the count of n
below the block with v(n) <= j, plus the block's own keys up to y.  The
squarefree rows take v = key, so they count squarefree n with omega(n)
<= j (a non-squarefree key is above every j), and the band rows take v =
key & 15, which counts all n by omega for the Erdos-Kac distribution.
One builder makes both sets and one in-block count serves both ranks.

Both class-count kernels sum lambda(a) * R(y // a) over the a <= y built
from the primes of a squarefree number, and one expander, _slot_multiples,
lists those a with Omega(a) and the primes they use.  With R = Q, the
squarefree rank, and the primes of d, the sum is coprime_squarefree_counts,
the count of squarefree n <= y coprime to d; with R = N_j, the squarefree
omega rank, and the override primes, it gives the full class counts of
divisor_sums, one lookup per distinct floor value x // b.
"""

import mmap
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, prod

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, DomainError, RangeError

_LIMIT_MAX = 2**31
# Widest chunk of the build's strikes.
CHUNK = 2**20
# The key bit of a non-squarefree n, above the four bits of omega(n) <= 9.
NOT_SQUAREFREE = 16
# What a build holds per integer: the key; and per integer of the widest
# chunk, the strike's buffer of half a byte, with as much again for the
# list of root primes (under 0.25 MB up to 2**31).
_BYTES_PER_INT = 1
_BYTES_PER_CHUNK_INT = 1


@dataclass(frozen=True)
class SieveTables:
    """Immutable factor table for 1..limit.

    Attributes:
        limit: Largest integer covered (inclusive).
        key: uint8 array; key[n] is omega(n), the count of distinct prime
            divisors, with the bit NOT_SQUAREFREE set where n is not
            squarefree and at n = 0.  So mu(n) = (-1)**key[n] if key[n] <
            NOT_SQUAREFREE, else 0, and n is prime iff key[n] == 1.
            omega(n) <= 9 for n <= 2**31, since the product of the first
            ten primes exceeds 2**31; squarefree_omega_rank keeps ten
            omega columns on that bound, and the full class counts read
            no more.
        memo: values derived from the tables that an aggregate keeps for
            later requests (divisor_sums keeps the per-d small counts of
            a bounded number of (x, k) here, and, outside that bound, a
            weak reference to the last excluded-prime series H it handed
            out); it dies with the table.

    The first squarefree_rank or squarefree_omega_rank call builds the
    squarefree rows of the count index and keeps them, and the first
    _band_rank call (the Erdos-Kac routes) the band rows, so a run that
    reads only one set pays for that one.  Each set holds, per block of
    256 integers, the count below it of the n with v(n) <= j, for each j
    from the least v of an n >= 2 to the largest key & 15 in the table
    (1 to 8 from 9699690 to 223092869), a uint32 per 2**16 integers and a
    uint16 within: 2 * 8 / 256 = 0.0625 bytes per integer and a little
    more for the uint32s (0.63 MB at 1e7).  The squarefree rows add a
    bitmap of the squarefree n in uint64 words, for 0.1875 bytes per
    integer in all (1.88 MB at 1e7).  A query adds y's block up to y;
    squarefree_rank popcounts its words.  A request whose rows would not
    fit in the available memory raises RangeError before it allocates.
    """

    limit: int
    key: np.ndarray
    memo: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)

    def is_prime(self, p: int) -> bool:
        """Whether p is a prime <= limit; p < 2 is not (key[-1] is key[limit])."""
        return bool(2 <= p <= self.limit and self.key[p] == 1)

    def primes(self, n: int) -> np.ndarray:
        """The primes <= min(n, limit), ascending (int64), read off the key.

        A fresh array per call: the table keeps no prime list, so a caller
        pays only for the prefix of the key it asks for.
        """
        return np.flatnonzero(self.key[: min(max(n, 0), self.limit) + 1] == 1).astype(np.int64, copy=False)

    def squarefree_rank(self, y: np.ndarray) -> np.ndarray:
        """Q(y), the number of squarefree n <= y, at every entry of y (int64).

        y holds integers in [0, limit].  Q(y) is the count of squarefree n
        below y's block plus the set bits of the block's words up to y.
        """
        _, high, low, words = self._index(band=False)
        y = np.asarray(y, dtype=np.int64)
        flat = y.reshape(-1)  # array arithmetic: the wrap below is silent
        w = flat >> 6
        rank = high[-1][flat >> 16].astype(np.int64)
        rank += low[-1][w >> 2]
        # Bits 0..y mod 64 of y's word: at y mod 64 = 63 the shift wraps
        # to 0 and the subtraction to all ones.
        bits = (np.uint64(2) << (flat & 63).astype(np.uint64)) - np.uint64(1)
        bits &= words[w]
        rank += np.bitwise_count(bits)
        del bits
        lane = (w & 3).astype(np.uint8)
        for i in range(1, _BLOCK // 64):  # the whole words of the block before y's
            w -= 1
            rank += np.bitwise_count(words[w]) * (lane >= i)
        return rank.reshape(y.shape)

    def squarefree_omega_rank(self, y: np.ndarray) -> np.ndarray:
        """N_j(y), the number of squarefree n <= y with omega(n) = j (int64).

        y is a 1-D array of integers in [0, limit]; row i of the result
        holds N_0(y_i) .. N_9(y_i), the differences of the counts of n <= y
        with key[n] <= j: a squarefree key is omega, and a non-squarefree
        key is above every j.
        """
        at = self._at_most(y, band=False)[:, :_OMEGA_ROWS]
        at[:, 1:] -= at[:, :-1]
        return at

    def _squarefree_omega_select(self, j: int, ranks: np.ndarray) -> np.ndarray:
        """The squarefree n of each 0-based rank among those with omega(n) = j.

        j >= 1 and every rank is below N_j(limit).  The count of such n
        below each block is the squarefree rows' count with key <= j less
        that with key <= j - 1; a rank's block is the last whose count is
        at most the rank, and its n is found among the 256 keys from the
        block's start (clipped to the table, where only keys past n
        repeat).
        """
        head, high, low, _ = self._index(band=False)
        blocks = np.arange(low.shape[1])

        def below(v):  # the n with key <= v below each block; below the rows, n = 1 alone
            r = v - len(head)
            return high[r][blocks >> 8].astype(np.int64) + low[r] if r >= 0 else head[v] * (blocks > 0)

        counts = below(j) - below(j - 1)
        start = (np.searchsorted(counts, ranks, side="right") - 1) * _BLOCK
        hits = self.key[np.minimum(start[:, None] + np.arange(_BLOCK), self.limit)] == j
        return start + np.argmax(np.cumsum(hits, axis=1) > (ranks - counts[start // _BLOCK])[:, None], axis=1)

    def _band_rank(self, y: np.ndarray, band: np.ndarray) -> np.ndarray:
        """C_j(y), the number of n <= y with key[n] & 15 == j (int64).

        y (integers in [0, limit]) and band (integers j in [0, 15])
        broadcast together.  C_j(y) = A_j(y) - A_{j-1}(y), where A_j(y)
        counts the n <= y with key[n] & 15 <= j, read once per distinct y.
        """
        y, band = np.broadcast_arrays(np.asarray(y, dtype=np.int64), np.asarray(band, dtype=np.int64))
        distinct, at = np.unique(y, return_inverse=True)
        at = at.reshape(y.shape)
        counts = self._at_most(distinct, band=True)
        return counts[at, band] - counts[at, band - 1] * (band > 0)

    def _at_most(self, y: np.ndarray, band: bool) -> np.ndarray:
        """A_j(y_i), the number of n <= y_i with v(n) <= j, in row i, column j (int64).

        v = key & 15 for the band rows and v = key for the squarefree
        rows; y is a 1-D array of integers in [0, limit], and j runs over
        0 .. 15.  A_j(y) is the index's count below y's block plus the
        block's keys up to y, counted by _block_counts _ROW_PASS blocks at
        a time from the 256 keys that start at the block (at the table's
        end, the last 256 keys).  Below the index's first row only n = 0
        and 1 count (its head), and from its last row on A_j is constant.
        """
        head, high, low, _ = self._index(band)
        hi = len(head) + len(high) - 1
        y = np.asarray(y, dtype=np.int64)
        key = self.key if len(self.key) >= _BLOCK else np.pad(self.key, (0, _BLOCK - len(self.key)))
        rows = as_strided(key, (len(key) - _BLOCK + 1, _BLOCK), key.strides * 2, writeable=False)
        start = np.minimum(y & -_BLOCK, len(key) - _BLOCK)
        # the columns of a row, and those of the block's first n and of y
        col = np.arange(_BLOCK, dtype=np.uint8)
        first = ((y & -_BLOCK) - start).astype(np.uint8)[:, None]
        last = (y - start).astype(np.uint8)[:, None]
        at = np.empty((len(y), _VALUES), dtype=np.int64)
        for i in range(0, len(y), _ROW_PASS):
            part = slice(i, i + _ROW_PASS)
            v = _values(rows[start[part]], band)
            v |= ((col < first[part]) | (col > last[part])).view(np.uint8) << 4  # above every j
            at[part, : hi + 1] = _block_counts(v, 0, hi).T
        at[:, : len(head)] += (y >= _BLOCK)[:, None] * np.array(head, dtype=np.int64)
        at[:, len(head) : hi + 1] += (high[:, y >> 16] + low[:, y >> 8]).T
        at[:, hi + 1 :] = at[:, hi, None]
        return at

    def _index(self, band: bool) -> tuple:
        """The table's band or squarefree rows, built on the first call and kept."""
        return self._band_rows if band else self._squarefree_rows

    # Each row set, and the value range that one read of the key gives both.
    _squarefree_rows = cached_property(lambda self: self._build_rows(band=False))
    _band_rows = cached_property(lambda self: self._build_rows(band=True))
    _row_span = cached_property(lambda self: _value_range(self.key))

    def _build_rows(self, band: bool) -> tuple:
        """One row set; RangeError first if it would not fit in the available memory."""
        name = "band rows" if band else "squarefree rows"
        lo, hi = self._row_span
        need = _index_bytes(self.limit, hi - lo + 1, band)
        have = _available_bytes()
        if have is not None and need > have:
            raise RangeError(
                f"the {name} of a {self.limit} table need about "
                f"{need / 2**20:.0f} MB; {have / 2**20:.0f} MB available"
            )
        return _build_index(self.key, lo, hi, band)

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise RangeError(f"n={n} outside table range 1..{self.limit}")


def chunks(lo: int, hi: int):
    """Yield [a, b) covering [lo, hi), each at most a (and CHUNK) wide.

    Widths double from lo until they reach CHUNK.  Since b - a <= a, every
    n / p <= n / 2 of a chunk, p a prime of n, lies below a, so a strike
    that writes key[n] from key[n / p] reads only entries of earlier
    chunks.
    """
    a = lo
    while a < hi:
        b = min(a + min(a, CHUNK), hi)
        yield a, b
        a = b


# The count index: integers per block and per superblock; the values j of
# A_j(y) that a rank returns, and the omega rows of N_j(y) (omega(n) <= 9
# for n <= 2**31: the product of the first ten primes exceeds 2**31).
_BLOCK = 256
_SUPER = 2**16
_VALUES = 16
_OMEGA_ROWS = 10
# Integers per pass of the index build, and blocks per pass of a rank's
# in-block count: 64 KB of keys, and as much per row compared.
_INDEX_CHUNK = _SUPER
_ROW_PASS = _SUPER // _BLOCK


def _values(key: np.ndarray, band: bool) -> np.ndarray:
    """v(n) of the band rows (key & 15) or of the squarefree rows (key itself)."""
    return key & (_VALUES - 1) if band else key


def _value_range(key: np.ndarray) -> tuple[int, int]:
    """(lo, hi): the least key & 15 of an n >= 2 and the largest of any n.

    Rows j = lo .. hi hold both row sets: below lo only n = 0 and 1 count,
    and from hi on every n of the band rows and every squarefree n (a
    squarefree key is below 16, so it is its own key & 15).
    """
    lo, hi = _VALUES - 1, 0
    values = np.empty(_INDEX_CHUNK, dtype=np.uint8)
    for a in range(0, len(key), _INDEX_CHUNK):
        v = np.bitwise_and(key[a : a + _INDEX_CHUNK], _VALUES - 1, out=values[: len(key) - a])
        lo = min(lo, int(v[max(2 - a, 0) :].min()))
        hi = max(hi, int(v.max()))
    return lo, hi


def _index_bytes(limit: int, rows: int, band: bool) -> int:
    """What _build_index holds at its peak for a table of limit."""
    blocks = limit // _BLOCK + 1
    kept = rows * (2 * blocks + 4 * (limit // _SUPER + 1)) + (0 if band else blocks * _BLOCK // 8)
    # a pass holds its values, and per row a comparison, its packed bits and counts
    return kept + (2 + 3 * rows // 2) * _INDEX_CHUNK


def _block_counts(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """counts[j - lo, i], the entries <= j of row i of v, for j = lo .. hi (int64).

    v holds rows of 256 uint8 values.  A row's comparison packs into four
    uint64 words, whose popcounts add up per row; a row can hold 256
    hits, so the four are summed in int64.
    """
    hits = v <= np.arange(lo, hi + 1, dtype=np.uint8)[:, None, None]
    bits = np.bitwise_count(np.packbits(hits, bitorder="little").view(np.uint64)).reshape(len(hits), len(v), 4)
    return bits[..., 0].astype(np.int64) + bits[..., 1] + bits[..., 2] + bits[..., 3]


def _mapped_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous mapping of its own, freed with it.

    The count index outlives the temporaries of every later call.  Taken
    from the malloc heap, it can sit on top of the heap and keep the
    length-x temporaries freed below it resident: after the series layer
    on a 1e7 table, a 1.9 MB index so kept 8 MB more resident.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype=dtype, count=size).reshape(shape)


def _store_counts(counts: np.ndarray, below: np.ndarray, a: int, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Store the counts below each block of the pass from integer a on.

    counts[r, i] is row r's count in the pass's block i and below[r] its
    count below the pass; high[r, s] takes the count below the first block
    of superblock s (2**16 integers), low[r, b] the count below block b
    less that.  Returns below for the next pass.
    """
    per_super = _SUPER // _BLOCK
    at = np.cumsum(counts, axis=1)
    at -= counts
    at += below
    opens = at[:, ::per_super]
    high[:, a // _SUPER : a // _SUPER + opens.shape[1]] = opens
    b = a // _BLOCK
    low[:, b : b + counts.shape[1]] = at - np.repeat(opens, per_super, axis=1)[:, : counts.shape[1]]
    return at[:, -1:] + counts[:, -1:]


def _build_index(key: np.ndarray, lo: int, hi: int, band: bool) -> tuple:
    """(head, high, low, words) over the table, in passes of _INDEX_CHUNK integers.

    Row j - lo of (high, low) counts the n with v(n) <= j below each
    block, for j = lo .. hi; v is key & 15 for the band rows and key for
    the squarefree rows.  Below lo only n = 0 and 1 count, so the count
    below every block but the first is head[j], for j < lo.  The
    squarefree rows also set bit n % 64 of words[n // 64] iff n is
    squarefree, four words to a block; the band rows have no words.
    """
    # Python ints, not an array from the heap (see _mapped_zeros)
    head = tuple(int(np.count_nonzero(_values(key[:2], band) <= j)) for j in range(lo))
    high = _mapped_zeros((hi - lo + 1, (len(key) - 1) // _SUPER + 1), np.uint32)
    low = _mapped_zeros((hi - lo + 1, (len(key) - 1) // _BLOCK + 1), np.uint16)
    words = None if band else _mapped_zeros(low.shape[1] * _BLOCK // 64, "<u8")
    below = np.zeros((hi - lo + 1, 1), dtype=np.int64)
    for a in range(0, len(key), _INDEX_CHUNK):
        part = _values(key[a : a + _INDEX_CHUNK], band)
        if len(part) % _BLOCK:  # the padding is above every j
            part = np.pad(part, (0, -len(part) % _BLOCK), constant_values=NOT_SQUAREFREE)
        v = part.reshape(-1, _BLOCK)
        if not band:
            packed = np.packbits(v < NOT_SQUAREFREE, bitorder="little")
            words.view(np.uint8)[a // 8 : a // 8 + len(packed)] = packed  # little-endian words
        below = _store_counts(_block_counts(v, lo, hi), below, a, high, low)
    for arr in (high, low) if band else (high, low, words):
        arr.setflags(write=False)
    return head, high, low, words


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
    limits give identical tables.  It holds about 1 byte per integer.
    Chunk by chunk, the n start at key 1, which the primes keep; each
    root prime p <= sqrt(b - 1) of chunk [a, b) then sets, for its
    multiples n = p*m >= p*p in the chunk, key[n] = key[m] + 1 where p
    does not divide m, and key[m] | NOT_SQUAREFREE where it does: one add
    of the finished run key[m0:m1] into a buffer, one strided bitwise or
    over the m that p divides, and one strided store.  Every composite n
    has such a p, and all its p write the same byte.

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

    roots = primes_up_to(isqrt(limit)).tolist()
    key = np.empty(limit + 1, dtype=np.uint8)
    key[:2] = NOT_SQUAREFREE, 0
    buf = np.empty((CHUNK + 1) // 2, dtype=np.uint8)
    for a, b in chunks(2, limit + 1):
        key[a:b] = 1  # the primes keep it
        for p in roots[: bisect_right(roots, isqrt(b - 1))]:
            m0, m1 = max(-(-a // p), p), (b - 1) // p + 1  # n = p*m in [max(a, p*p), b)
            # key[m] + 1, or key[m] | NOT_SQUAREFREE where p | m
            new = np.add(key[m0:m1], 1, out=buf[: m1 - m0])
            j = -m0 % p
            np.bitwise_or(key[m0 + j : m1 : p], NOT_SQUAREFREE, out=new[j::p])
            key[p * m0 : b : p] = new

    key.setflags(write=False)
    return SieveTables(limit=limit, key=key)


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m], the smallest prime factor of m, for m in [0, n] (uint32).

    0, 1 and the primes keep spf[m] = m.  The primes up to isqrt(n)
    strike their multiples from p*p on in descending order, so each m ends
    with its smallest prime.  coprime_squarefree_counts reads the primes
    of its d from it.
    """
    spf = np.arange(n + 1, dtype=np.uint32)
    for p in primes_up_to(isqrt(n))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


def distinct_primes(n: int, tables: SieveTables) -> list[int]:
    """Ordered distinct prime factors of n <= limit, by trial division."""
    tables._check_range(n)
    return _trial_divide(n, tables)


def _trial_divide(m: int, tables: SieveTables) -> list[int]:
    """The primes p <= sqrt(m) of the table dividing m >= 1, ascending, then
    the cofactor left (if > 1) once p*p exceeds it or the primes run out."""
    primes = []
    for p in tables.primes(isqrt(m)).tolist():
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
    The a come from _slot_multiples, slot j of entry i holding the j-th
    smallest prime of d_i, _COPRIME_GROUP entries at a time.
    """
    y, d = np.broadcast_arrays(np.asarray(y, dtype=np.int64), np.asarray(d, dtype=np.int64))
    shape = y.shape
    y, d = y.ravel(), d.ravel()
    out = np.zeros(len(y), dtype=np.int64)
    if len(y) == 0:
        return out.reshape(shape)
    if y.max() > tables.limit or not 1 <= d.min() <= d.max() <= tables.limit:
        raise RangeError(f"y or d outside table range 1..{tables.limit}")
    if (tables.key[d] >= NOT_SQUAREFREE).any():
        raise DomainError("every d must be squarefree")
    spf = smallest_prime_factors(int(d.max()))

    def slots(rem):  # the primes of each rem, ascending
        while (p := spf[rem].astype(np.int64)).max() > 1:
            rem = rem // p
            yield p

    for lo in range(0, len(y), _COPRIME_GROUP):
        part = slice(lo, lo + _COPRIME_GROUP)
        owner, quot, omega, _ = _slot_multiples(y[part], slots(d[part]))
        # The terms of entry i add up in size to at most y_i * (1 + ln y_i) <
        # 2**53 (y_i <= 2**31), so every float partial sum is an exact integer.
        terms = (tables.squarefree_rank(quot) * (1 - 2 * (omega & 1))).astype(np.float64)
        out[part] = np.bincount(owner, weights=terms, minlength=len(out[part]))
    return out.reshape(shape)


# Entries per expansion of coprime_squarefree_counts.  The terms of a
# group, and so its temporaries, then stay below the size from which malloc
# maps fresh pages for an array (128 KB by default) and the groups reuse
# the heap's pages: the small counts at k = 2 near 1e7 expand 85.7k terms
# in all, the first 256 entries (the smallest d, the largest y) about 10k.
_COPRIME_GROUP = 256


def _slot_multiples(y: np.ndarray, slots, most: int = 63) -> tuple[np.ndarray, ...]:
    """Every a <= y_i built from the primes of entry i, with Omega(a) <= most,
    as four int64 arrays over the terms: the owner i, y_i // a, Omega(a) and
    the slots a uses (bit j for slot j).

    y is a 1-D int64 array of bounds; slots yields, one slot at a time, an
    int64 array of one prime per entry, none equal to a prime of the same
    entry in another slot, or 1 where the entry has no prime in that slot.
    Each slot's prime p divides the terms once more per pass until
    y_i // a falls below p or Omega(a) reaches most: at most log2(y_i)
    passes per slot, which carry only the term's index, its quotient, its
    Omega before the slot and p.  The default most keeps every a (Omega(a)
    <= log2(y_i) < 63).
    """
    owner = np.flatnonzero(y >= 1)  # a = 1, where y_i >= 1
    quot = y[owner]
    omega = used = np.zeros(len(owner), dtype=np.int64)
    for j, p in enumerate(slots):
        p = p[owner]
        at = np.flatnonzero((p > 1) & (quot >= p) & (omega < most))  # the terms p divides into
        q, p, w = quot[at], p[at], omega[at]
        hits, quots = [], [quot]  # per power e of p: the terms it divides, y_i // (a * p**e)
        while len(at):
            q = q // p
            hits.append(at)
            quots.append(q)
            more = (q >= p) & (w < most - len(hits))
            at, q, p, w = at[more], q[more], p[more], w[more]
        at = np.concatenate([*hits, at])  # at is empty here
        owner = np.concatenate([owner, owner[at]])
        quot = np.concatenate(quots)
        power = np.repeat(np.arange(1, len(hits) + 1), [len(h) for h in hits])
        omega = np.concatenate([omega, omega[at] + power])
        used = np.concatenate([used, used[at] | 1 << j])
    return owner, quot, omega, used


def superset_sums(h: np.ndarray) -> np.ndarray:
    """h[s] := the sum of h[f] over the masks f >= s, in place on the 2**r rows of a C-contiguous h."""
    for j in range((len(h) - 1).bit_length()):
        pairs = h.reshape(-1, 2, h[0].size << j)
        pairs[:, 0] += pairs[:, 1]
    return h


def omega_class_counts(x: int, tables: SieveTables) -> dict[int, int]:
    """Counts of squarefree n <= x, grouped by number of distinct primes.

    The returned map lets sums of the form  sum z**omega(n) mu^2(n)  be
    evaluated exactly as  sum_j z**j * count_j.
    """
    if not 0 <= x <= tables.limit:
        raise RangeError(f"x={x} outside table range 0..{tables.limit}")
    counts = tables.squarefree_omega_rank(np.array([x]))[0]
    return {j: c for j, c in enumerate(counts.tolist()) if c > 0}


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
