"""Exact arithmetic tables up to a configurable limit.

Builds one byte per integer, key[n] = omega(n) | NOT_SQUAREFREE when n
is not squarefree, in one pass over chunks of integers: a chunk's
smallest prime factors come from a segmented sieve by the primes up to
sqrt(limit) (Bays and Hudson, BIT 17, 1977) and live only as long as the
chunk, and the key follows by the recurrence n -> n / spf(n) (Gries and
Misra, CACM 21, 1978).  Every aggregate in the package reads this
table; it is written once and frozen.

Counts of squarefree integers up to y, in all and by omega, are read
from a prefix index over the table (in the manner of Jacobson's rank
index, "Space-efficient static trees and graphs", FOCS 1989) below y's
block, plus the block's own part up to y: by omega, one bincount of its
key bytes.  The count of those coprime to a squarefree d follows from
them by the Liouville-signed sum of coprime_squarefree_counts, and the
histogram of squarefree n <= x by omega and override flags by the same
expansion over the override primes, one lookup per distinct floor value
x // b.  A band index over the same blocks counts all n by key & 15, for
the Erdos-Kac distribution.
"""

import mmap
from collections import OrderedDict
from dataclasses import dataclass, field
from math import isqrt, prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, RangeError

_LIMIT_MAX = 2**31
# Widest chunk of the n -> n / spf(n) recurrences.
CHUNK = 2**18
# The key bit of a non-squarefree n, above the four bits of omega(n) <= 9.
NOT_SQUAREFREE = 16
# What a build holds per integer: the key; a chunk of the sieve and the
# recurrence adds about 32 bytes per integer.
_BYTES_PER_INT = 1
_BYTES_PER_CHUNK_INT = 32


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
            ten primes exceeds 2**31; squarefree_omega_rank and
            omega_flag_histogram keep ten omega rows on that bound.
        memo: values derived from the tables that an aggregate keeps for
            later requests (divisor_sums keeps the per-d small counts of
            a bounded number of (x, k) here, and a weak reference to the
            last excluded-prime series H it handed out); it dies with the
            table.

    The first squarefree_rank or squarefree_omega_rank call also builds a
    prefix index over the key and keeps it: a bitmap of the
    squarefree n <= limit in uint64 words and, per block of 256 integers,
    the count of squarefree n below the block with omega(n) <= j for each
    j from 1 to the largest omega in the table (8 from 9699690 to
    223092869), a uint32 per 2**16 integers and a uint16 within.  That is
    (32 + 2 * 8) / 256 = 0.1875 bytes per integer and a little more for
    the uint32s (1.88 MB at 1e7).  A query adds y's block up to y;
    squarefree_omega_rank bincounts its keys.

    The first _band_rank call (the Erdos-Kac routes) builds a band index
    the same way and keeps it: per block, the count of all n below it
    with key[n] & 15 == j for each of the 16 values j, so 16 * 2 / 256 =
    0.125 bytes per integer and a little more (1.26 MB at 1e7).  A
    request whose index would not fit in the available memory raises
    RangeError before it allocates.
    """

    limit: int
    key: np.ndarray
    memo: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)

    def is_prime(self, p: int) -> bool:
        """Whether p is a prime <= limit; p < 2 is not (key[-1] is key[limit])."""
        return bool(2 <= p <= self.limit and self.key[p] == 1)

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (int64, read-only).

        Read off the key on the first call, chunk by chunk, and kept
        on the instance, so a table that is never asked for its primes
        holds no prime list.
        """
        primes = self.__dict__.get("_primes")
        if primes is None:
            primes = np.concatenate([
                a + np.flatnonzero(self.key[a:b] == 1)
                for a, b in chunks(2, self.limit + 1)
            ]).astype(np.int64, copy=False)
            primes.setflags(write=False)
            self.__dict__["_primes"] = primes  # frozen: bypass __setattr__
        return primes

    def squarefree_rank(self, y: np.ndarray) -> np.ndarray:
        """Q(y), the number of squarefree n <= y, at every entry of y (int64).

        y holds integers in [0, limit].  Q(y) is the count of squarefree n
        below y's block plus the set bits of the block's words up to y.
        """
        words, high, low = self._prefix_index()
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
        holds N_0(y_i) .. N_9(y_i).  The count of squarefree n <= y with
        omega(n) <= j is the count below y's block plus bins 0..j of one
        bincount of the block's keys up to y: a squarefree key is omega,
        and a non-squarefree key falls beyond the ten omega bins.
        """
        _, high, low = self._prefix_index()
        y = np.asarray(y, dtype=np.int64)
        cols = len(low)
        at_most = np.zeros((len(y), _OMEGA_ROWS), dtype=np.int64)
        for i, v in enumerate(y.tolist()):
            at_most[i] = np.bincount(self.key[v & -_BLOCK : v + 1], minlength=_OMEGA_ROWS)[:_OMEGA_ROWS]
        np.cumsum(at_most, axis=1, out=at_most)
        at_most[:, 1 : cols + 1] += (high[:, y >> 16] + low[:, y >> 8]).T
        at_most[:, cols + 1 :] = at_most[:, cols, None]
        at_most[:, 0] = y >= 1  # omega(n) = 0 only at n = 1
        return np.diff(at_most, axis=1, prepend=0)

    def _band_rank(self, y: np.ndarray, band: np.ndarray) -> np.ndarray:
        """C_j(y), the number of n <= y with key[n] & 15 == j (int64).

        y (integers in [0, limit]) and band (integers j in [0, 15])
        broadcast together; the table holds at least one block (limit >=
        255).  C_j(y) is the band index below y's block plus the count in
        the block up to y, from a 256-key row that starts at the block (at
        the table's end, at the last 256 keys), _ROW_PASS rows at a time.
        """
        high, low = self._band_index()
        y, band = np.broadcast_arrays(np.asarray(y, dtype=np.int64), np.asarray(band, dtype=np.int64))
        shape, y, band = y.shape, y.ravel(), band.ravel()
        rank = high[band, y >> 16].astype(np.int64)
        rank += low[band, y >> 8]
        start = np.minimum(y & -_BLOCK, len(self.key) - _BLOCK)
        rows = sliding_window_view(self.key, _BLOCK)
        # the columns of a row, and those of the block's first n and of y
        col = np.arange(_BLOCK, dtype=np.uint8)
        first = ((y & -_BLOCK) - start).astype(np.uint8)
        last = (y - start).astype(np.uint8)
        band8 = band.astype(np.uint8)
        for i in range(0, len(y), _ROW_PASS):
            at = slice(i, i + _ROW_PASS)
            hit = (rows[start[at]] & (_BANDS - 1)) == band8[at, None]
            hit &= col >= first[at, None]
            hit &= col <= last[at, None]
            rank[at] += _row_counts(hit)
        return rank.reshape(shape)

    def _prefix_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table's prefix index, built on the first call and kept."""
        return self._kept_index("prefix index", _index_bytes(self.limit), _build_prefix_index)

    def _band_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's band index, built on the first call and kept."""
        return self._kept_index("band index", _band_index_bytes(self.limit), _build_band_index)

    def _kept_index(self, name: str, need: int, build):
        """build(key), kept under name; RangeError first if need bytes do not fit."""
        index = self.__dict__.get(name)
        if index is None:
            have = _available_bytes()
            if have is not None and need > have:
                raise RangeError(
                    f"the {name} of a {self.limit} table needs about "
                    f"{need / 2**20:.0f} MB; {have / 2**20:.0f} MB available"
                )
            index = build(self.key)
            self.__dict__[name] = index  # frozen: bypass __setattr__
        return index

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


# The prefix index: integers per block and per superblock, and the rows of
# N_j(y) (omega(n) <= 9 for n <= 2**31: the product of the first ten primes
# exceeds 2**31).
_BLOCK = 256
_SUPER = 2**16
_OMEGA_ROWS = 10
# Integers per pass of the index build, whole superblocks.
_INDEX_CHUNK = 4 * _SUPER
# Rows of the band index: every value of key & 15.
_BANDS = NOT_SQUAREFREE
# Block rows that one pass of _band_rank gathers (64 KB per temporary).
_ROW_PASS = 256
_PRIMORIALS = (2, 6, 30, 210, 2310, 30030, 510510, 9699690, 223092870)


def _omega_columns(limit: int) -> int:
    """The largest omega(n) of n <= limit: the primorials up to limit."""
    return sum(q <= limit for q in _PRIMORIALS)


def _index_bytes(limit: int) -> int:
    """What _build_prefix_index holds at its peak for a table of limit."""
    blocks = limit // _BLOCK + 1
    cols = _omega_columns(limit)
    kept = blocks * (_BLOCK // 8 + 2 * cols) + (limit // _SUPER + 1) * 4 * cols
    # a pass holds the squarefree mask, its packed bits, the keys and one comparison
    return kept + 4 * _INDEX_CHUNK


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """The number of set entries in each 256-entry row of hits (int64).

    A row packs into four uint64 words, whose popcounts add up per row;
    a row of all n can hold 256 hits, so the four are summed in int64.
    """
    return _word_counts(np.packbits(hits, bitorder="little").view(np.uint64))


def _word_counts(words: np.ndarray) -> np.ndarray:
    """The set bits of each run of four uint64 words, one block's bitmap (int64)."""
    return np.bitwise_count(words).reshape(-1, _BLOCK // 64).sum(axis=1, dtype=np.int64)


def _mapped_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous mapping of its own, freed with it.

    The prefix index outlives the temporaries of every later call.  Taken
    from the malloc heap, it can sit on top of the heap and keep the
    length-x temporaries freed below it resident: after the series layer
    on a 1e7 table, a 1.9 MB index so kept 8 MB more resident.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype=dtype, count=size).reshape(shape)


def _count_rows(rows: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (high, low) for rows of block counts over a table of limit."""
    return (
        _mapped_zeros((rows, limit // _SUPER + 1), np.uint32),
        _mapped_zeros((rows, limit // _BLOCK + 1), np.uint16),
    )


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


def _build_prefix_index(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, high, low) over the table, in passes of _INDEX_CHUNK integers.

    Bit n % 64 of words[n // 64] is set iff n is squarefree, four words to a
    block of 256 integers.  Row j - 1 of (high, low) counts the squarefree n
    with omega(n) <= j, for j = 1 .. cols; row cols counts every squarefree n.
    """
    cols = _omega_columns(len(key) - 1)
    high, low = _count_rows(cols, len(key) - 1)
    words = _mapped_zeros(low.shape[1] * _BLOCK // 64, "<u8")
    raw = words.view(np.uint8)  # little-endian words: byte j holds bits 8j..8j+7
    below = np.zeros((cols, 1), dtype=np.int64)
    for a in range(0, len(key), _INDEX_CHUNK):
        part = key[a : a + _INDEX_CHUNK]
        packed = np.packbits(part < NOT_SQUAREFREE, bitorder="little")
        raw[a // 8 : a // 8 + len(packed)] = packed
        # a non-squarefree key is above every j counted
        rows = np.pad(part, (0, -len(part) % _BLOCK), constant_values=NOT_SQUAREFREE).reshape(-1, _BLOCK)
        b = a // _BLOCK
        counts = np.empty((cols, len(rows)), dtype=np.int64)
        counts[-1] = _word_counts(words[4 * b : 4 * (b + len(rows))])
        for j in range(1, cols):
            counts[j - 1] = _row_counts(rows <= j)
        below = _store_counts(counts, below, a, high, low)
    for arr in (words, high, low):
        arr.setflags(write=False)
    return words, high, low


def _band_index_bytes(limit: int) -> int:
    """What _build_band_index holds at its peak for a table of limit."""
    kept = _BANDS * (2 * (limit // _BLOCK + 1) + 4 * (limit // _SUPER + 1))
    # a pass holds the bands, their padded rows, one comparison and its packed bits
    return kept + 4 * _INDEX_CHUNK


def _build_band_index(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) over the table: row j counts the n with key[n] & 15 == j.

    Every n is counted, so one block can hold 256 of a row.  A pass
    compares only up to its largest band.
    """
    high, low = _count_rows(_BANDS, len(key) - 1)
    below = np.zeros((_BANDS, 1), dtype=np.int64)
    for a in range(0, len(key), _INDEX_CHUNK):
        part = key[a : a + _INDEX_CHUNK] & (_BANDS - 1)
        # the padding is in no band
        padded = np.pad(part, (0, -len(part) % _BLOCK), constant_values=_BANDS)
        counts = np.zeros((_BANDS, len(padded) // _BLOCK), dtype=np.int64)
        for j in range(int(part.max()) + 1):
            counts[j] = _row_counts(padded == j)
        below = _store_counts(counts, below, a, high, low)
    for arr in (high, low):
        arr.setflags(write=False)
    return high, low


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
    key = np.empty(limit + 1, dtype=np.uint8)
    key[:2] = NOT_SQUAREFREE, 0
    for a, b in chunks(2, limit + 1):
        p = smallest_prime_factors(a, b, roots)
        q = np.arange(a, b, dtype=np.uint32) // p
        same = (q % p == 0).view(np.uint8)  # 1 where p | q: no new prime, and p*p | n
        key[a:b] = (key[q] + 1 - same) | same * NOT_SQUAREFREE

    key.setflags(write=False)
    return SieveTables(limit=limit, key=key)


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
    if (tables.key[rem] >= NOT_SQUAREFREE).any():
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


def omega_flag_histogram(x: int, ops: tuple[int, ...], tables: SieveTables) -> np.ndarray:
    """Counts of squarefree n <= x by omega(n) and the override primes dividing n.

    Returns an int64 array h of shape (16, 2**r), r = len(ops): h[i, f] counts
    the squarefree n <= x with omega(n) = i that are divisible by ops[j]
    exactly for the bits j set in f.  ops are distinct primes; rows 10-15
    are zero (omega(n) <= 9 for n <= 2**31).

    The squarefree n divisible by the primes of a set T and coprime to
    the other primes of T's product t are n = t*m, m coprime to t, with the
    generating function prod_{p | t} (1 + z p**-s)**-1 over all squarefree
    m.  So with b over the products of override primes (Omega(b) <= 9, as
    no row i >= 10 is kept),

        G[i, supp(b)] += (-1)**Omega(b) * N_{i - Omega(b)}(x // b)

    gives (-1)**|T| times the count of those n with omega(n) = i divisible
    by all of T, and h[i, S] = (-1)**|S| * sum over T >= S of G[i, T], a
    superset sum over the 2**r masks.  N is SieveTables.squarefree_omega_rank,
    read once per distinct x // b (at most 2 * sqrt(x) of them).
    """
    r = len(ops)
    # the b of each Omega(b), each b once: its primes in ascending index
    level = (np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    levels = [level]  # (b, index of b's last prime, supp(b) as bits)
    for _ in range(1, _OMEGA_ROWS):
        b, last, supp = level
        grown = []
        for q, p in enumerate(ops):
            more = np.flatnonzero((last <= q) & (b <= x // p))
            grown.append((b[more] * p, np.full(len(more), q), supp[more] | 1 << q))
        if not sum(len(g[0]) for g in grown):
            break
        level = tuple(np.concatenate(col) for col in zip(*grown))
        levels.append(level)
    y, at = np.unique(np.concatenate([x // b for b, _, _ in levels]), return_inverse=True)
    counts = tables.squarefree_omega_rank(y)
    hist = np.zeros((1 << r, 16), dtype=np.int64)  # G, then h, mask-major
    lo = 0
    for e, (b, _, supp) in enumerate(levels):
        terms = counts[at[lo : lo + len(b)], : _OMEGA_ROWS - e]
        lo += len(b)
        np.add.at(hist, (supp[:, None], np.arange(e, _OMEGA_ROWS)), -terms if e & 1 else terms)
    superset_sums(hist)
    hist *= 1 - 2 * (np.bitwise_count(np.arange(1 << r)) & 1).astype(np.int64)[:, None]
    return hist.T


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
