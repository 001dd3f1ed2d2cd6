import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divisorlab import sieve
from divisorlab.errors import ConfigurationError, DomainError, RangeError
from divisorlab.sieve import (
    NOT_SQUAREFREE,
    build_sieve,
    coprime_squarefree_counts,
    distinct_primes,
    factor_squarefree,
    omega_class_counts,
    primes_up_to,
)
import loop_oracles as oracle
from loop_oracles import (
    loop_build_sieve,
    mu_of,
    omega_of,
    squarefree_coprime_count,
    squarefree_coprime_count_range,
)


def trial_mu(n: int) -> int:
    """Trial-division Mobius oracle."""
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def trial_factor(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_first_ten_mobius_values(tables_small):
    assert mu_of(tables_small)[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mu_matches_trial_division_oracle(tables_small):
    mu = mu_of(tables_small)
    for n in range(1, 10**4 + 1):
        assert int(mu[n]) == trial_mu(n), n


def test_smallest_case():
    t = build_sieve(2)
    assert t.primes(2).tolist() == [2]
    assert [t.is_prime(n) for n in (-1, 0, 1, 2, 3)] == [False, False, False, True, False]
    assert t.key.tolist() == [NOT_SQUAREFREE, 0, 1]


# tables ending either side of the edges of the doubling chunks (powers
# of two) and of the fixed-width ones (multiples of CHUNK)
EDGE_LIMITS = [2**18 - 1, 2**18 + 1, 2**19 + 1, sieve.CHUNK - 1, sieve.CHUNK + 1, 2 * sieve.CHUNK + 1]


@pytest.mark.parametrize("limit", [1009, *EDGE_LIMITS])
def test_key_encodes_squarefree_and_omega(limit):
    # every n up to 1009, and the n around each chunk edge of the build
    tables = build_sieve(limit)
    key = tables.key
    assert key.dtype == np.uint8 and len(key) == limit + 1 and key[0] == NOT_SQUAREFREE
    edges = {b for _, b in sieve.chunks(2, limit + 1)}
    ns = set(range(1, min(limit, 1009) + 1))
    ns |= {n for e in edges for n in range(e - 40, e + 40) if 1 <= n <= limit}
    for n in sorted(ns):
        primes = trial_factor(n)
        assert (key[n] < NOT_SQUAREFREE) == (math.prod(primes) == n), n
        assert key[n] & (NOT_SQUAREFREE - 1) == len(primes), n


def test_is_prime_matches_trial_division():
    tables = build_sieve(1009)  # prime: key[-1] == 1
    assert not tables.is_prime(-1) and not tables.is_prime(1010)
    assert [n for n in range(1010) if tables.is_prime(n)] == [
        n for n in range(2, 1010) if trial_factor(n) == [n]
    ]


@pytest.mark.parametrize(
    "a, b", [(0, 2), (0, 100), (2, 3), (97, 98), (1000, 1300), (2**18 - 7, 2**18 + 600)]
)
def test_smallest_prime_factors_of_a_segment(a, b):
    # the table on [0, b - 1] against the loop oracle, and its segment [a, b) by trial division
    spf = sieve.smallest_prime_factors(b - 1)
    assert spf.dtype == np.uint32
    assert np.array_equal(spf, oracle.loop_smallest_prime_factors(b - 1))
    assert spf[a:].tolist() == [n if n < 2 else trial_factor(n)[0] for n in range(a, b)]


def test_omega_30(tables_small):
    assert tables_small.key[30] == 3
    assert omega_of(tables_small)[30] == 3 and mu_of(tables_small)[30] == -1


def test_prime_rows(tables_small):
    mu, omega = mu_of(tables_small), omega_of(tables_small)
    for p in (2, 3, 5, 7, 97, 9973):
        assert tables_small.is_prime(p)
        assert tables_small.key[p] == 1
        assert mu[p] == -1
        assert omega[p] == 1


def test_omega_matches_trial_division(tables_small):
    omega = omega_of(tables_small)
    for n in range(2, 3000):
        assert omega[n] == len(distinct_primes(n, tables_small))


def test_multiplicative_across_coprime_splits(tables_small):
    rng = np.random.default_rng(1)
    mu, omega = mu_of(tables_small), omega_of(tables_small)
    pairs = 0
    while pairs < 300:
        a = int(rng.integers(2, 100))
        b = int(rng.integers(2, 100))
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        assert mu[a * b] == mu[a] * mu[b]
        assert omega[a * b] == omega[a] + omega[b]


def test_distinct_primes_examples(tables_small):
    assert distinct_primes(30, tables_small) == [2, 3, 5]
    assert distinct_primes(1, tables_small) == []
    assert distinct_primes(12, tables_small) == [2, 3]


def test_distinct_primes_reconstructs(tables_small):
    lists = oracle._prime_lists(2000)  # where the n- and d-major oracles read primes
    for n in range(2, 2000):
        primes = distinct_primes(n, tables_small)
        assert primes == sorted(primes) == sorted(set(primes))
        assert primes == trial_factor(n) == lists[n]


def test_limit_validation():
    with pytest.raises(ConfigurationError):
        build_sieve(1)
    with pytest.raises(ConfigurationError):
        build_sieve(2**31 + 1)


def test_out_of_range_queries(tables_small):
    with pytest.raises(RangeError):
        distinct_primes(10**4 + 1, tables_small)
    with pytest.raises(RangeError):
        omega_class_counts(10**4 + 1, tables_small)


def test_coprime_count_examples(tables_small):
    assert squarefree_coprime_count(10, 1, tables_small) == 7  # {1,2,3,5,6,7,10}
    assert squarefree_coprime_count(20, 6, tables_small) == 7  # {1,5,7,11,13,17,19}
    assert squarefree_coprime_count(1, 30, tables_small) == 1


def test_coprime_count_rejects_non_squarefree(tables_small):
    with pytest.raises(DomainError):
        squarefree_coprime_count(100, 12, tables_small)


def test_coprime_count_against_enumeration(tables_small):
    for m in (1, 2, 6, 30, 105):
        for x in (1, 10, 57, 500):
            expected = sum(
                1
                for n in range(1, x + 1)
                if trial_mu(n) != 0 and math.gcd(n, m) == 1
            )
            assert squarefree_coprime_count(x, m, tables_small) == expected


@pytest.mark.parametrize("limit", [2, 255, 4095, 4096, 10**4, 2**16 + 1, 2**18 + 65])
def test_squarefree_rank_counts_every_prefix(limit):
    # limits ending on bit 63 and bit 0 of a word, a table shorter than one
    # 256-integer block, one past a superblock (2**16) and one past a pass
    # of the index build
    tables = build_sieve(limit)
    y = np.arange(limit + 1)
    squarefree = tables.key < NOT_SQUAREFREE
    assert np.array_equal(tables.squarefree_rank(y), np.cumsum(squarefree))
    # word edges one at a time: bit 63 takes the mask whose shift wraps
    edges = sorted({e for w in range(0, limit + 1, 64) for e in (w, w + 63) if e <= limit} | {limit})
    want = [np.count_nonzero(squarefree[1 : e + 1]) for e in edges]
    assert [int(tables.squarefree_rank(e)) for e in edges] == want


@pytest.mark.parametrize("limit", [2, 255, 256, 257, 10**4, 2**16 + 1, 2**18 + 65])
def test_squarefree_omega_rank_counts_every_prefix(limit):
    # tables shorter than, equal to and one past a 256-integer block, one
    # past a superblock (2**16) and one past a pass of the index build
    tables = build_sieve(limit)
    squarefree = np.flatnonzero(mu_of(tables))
    onehot = np.zeros((limit + 1, 10), dtype=np.int64)
    onehot[squarefree, omega_of(tables)[squarefree]] = 1
    got = tables.squarefree_omega_rank(np.arange(limit + 1))
    assert got.dtype == np.int64 and np.array_equal(got, np.cumsum(onehot, axis=0))


# a table of one block, one past it, one past a superblock (2**16) and one
# past a pass of the index build
RANK_LIMITS = [255, 256, 257, 10**4, 2**16 + 1, 2**18 + 65]


def rank_queries(limit, rng):
    """Every y up to 600, each block's first and last n, 2000 drawn y and the limit."""
    edges = np.arange(0, limit + 1, 256)
    return np.unique(np.concatenate([
        np.arange(min(limit, 600) + 1), edges, np.maximum(edges - 1, 0), rng.integers(0, limit + 1, 2000), [limit],
    ]))


@pytest.mark.parametrize("limit", RANK_LIMITS)
def test_band_rank_counts_every_band(limit):
    # random keys fill all sixteen bands, and a constant key puts 256 n of
    # one band in every block
    real = build_sieve(limit)
    rng = np.random.default_rng(limit)
    y = rank_queries(limit, rng)
    for key in (real.key, rng.integers(0, 32, limit + 1).astype(np.uint8), np.full(limit + 1, 3, np.uint8)):
        tables = dataclasses.replace(real, key=key)
        want = np.stack([np.cumsum((key & 15) == j)[y] for j in range(16)], axis=1)
        got = tables._band_rank(y[:, None], np.arange(16))
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("limit", RANK_LIMITS)
def test_omega_rank_counts_every_omega(limit):
    # the in-block count of the band ranks, over the squarefree rows: random
    # keys put every omega 0..9 and non-squarefree keys anywhere, and a
    # constant key puts 256 n of one omega in every block
    real = build_sieve(limit)
    rng = np.random.default_rng(limit)
    y = rank_queries(limit, rng)
    drawn = np.concatenate([np.arange(10), np.arange(16, 32)]).astype(np.uint8)
    for key in (real.key, rng.choice(drawn, limit + 1), np.full(limit + 1, 3, np.uint8)):
        tables = dataclasses.replace(real, key=key)
        squarefree = np.flatnonzero(key < NOT_SQUAREFREE)
        onehot = np.zeros((limit + 1, 10), dtype=np.int64)
        onehot[squarefree, key[squarefree]] = 1
        got = tables.squarefree_omega_rank(y)
        assert got.dtype == np.int64 and np.array_equal(got, np.cumsum(onehot, axis=0)[y])


def test_coprime_counts_equal_enumeration_oracle(tables_small):
    ms = np.flatnonzero(mu_of(tables_small)[:301])
    for x in (1, 64, 1000, 4999):
        want = [squarefree_coprime_count(x, int(m), tables_small) for m in ms]
        assert coprime_squarefree_counts(x, ms, tables_small).tolist() == want


def test_coprime_counts_shapes_and_validation(tables_small):
    assert coprime_squarefree_counts(20, 6, tables_small) == 7
    assert coprime_squarefree_counts([-3, 0, 20], 6, tables_small).tolist() == [0, 0, 7]
    assert coprime_squarefree_counts([], [], tables_small).shape == (0,)
    with pytest.raises(DomainError):
        coprime_squarefree_counts(100, [6, 12], tables_small)
    with pytest.raises(RangeError):
        coprime_squarefree_counts(10**4 + 1, 6, tables_small)
    with pytest.raises(RangeError):
        coprime_squarefree_counts(100, 0, tables_small)


@pytest.mark.parametrize("entries", [sieve._COPRIME_GROUP + e for e in (-1, 0, 1)] + [2 * sieve._COPRIME_GROUP + 1])
def test_grouped_coprime_counts_equal_one_group_and_the_oracle(tables_small, entries):
    # one group short of, at and past the bound, and two groups and one entry
    rng = np.random.default_rng(entries)
    squarefree = np.flatnonzero(mu_of(tables_small)[:2311])
    d = rng.choice(squarefree, entries)
    d[:2] = 1, 2310  # no prime, and the five smallest
    y = rng.integers(-2, tables_small.limit + 1, entries)
    got = coprime_squarefree_counts(y, d, tables_small)
    with mock.patch.object(sieve, "_COPRIME_GROUP", entries):
        whole = coprime_squarefree_counts(y, d, tables_small)
    want = [squarefree_coprime_count(int(b), int(m), tables_small) if b >= 1 else 0 for b, m in zip(y, d)]
    assert got.tolist() == whole.tolist() == want


# slot primes: small ones, which have many multiples below y, and two above every y drawn
slot_primes = st.lists(
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 1009, 7919]), max_size=9, unique=True
).map(sorted)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(st.integers(-3, 1000), slot_primes), min_size=1, max_size=4))
@example(entries=[(1000, [2, 3, 5, 7, 11, 13, 17, 19, 23]), (1, []), (0, [2]), (-3, [3, 5])])
@example(entries=[(500, [1009]), (999, [29, 7919])])
def test_slot_multiples_are_every_a_of_each_entrys_primes(entries):
    # {a <= y : rad(a) | d} by trial division, with Omega(a) and the slots of a's primes
    y = np.array([b for b, _ in entries], dtype=np.int64)
    width = max(len(ps) for _, ps in entries)
    slots = (np.array([ps[j] if j < len(ps) else 1 for _, ps in entries]) for j in range(width))
    got = sorted(zip(*(col.tolist() for col in sieve._slot_multiples(y, slots))))
    want = []
    for i, (b, ps) in enumerate(entries):
        for a in range(1, b + 1):
            m, omega, used = a, 0, 0
            for j, p in enumerate(ps):
                while m % p == 0:
                    m, omega, used = m // p, omega + 1, used | 1 << j
            if m == 1:
                want.append((i, b // a, omega, used))
    assert got == sorted(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(st.integers(-3, 1000), slot_primes), min_size=1, max_size=4), most=st.integers(0, 9))
@example(entries=[(1000, [2, 3, 5, 7, 11, 13, 17, 19, 23])], most=9)
@example(entries=[(1000, [2, 3]), (999, [2])], most=0)
def test_slot_multiples_stop_at_most_omega(entries, most):
    # the capped expansion is the whole one less the a with Omega(a) > most
    y = np.array([b for b, _ in entries], dtype=np.int64)
    width = max(len(ps) for _, ps in entries)

    def slots():
        return (np.array([ps[j] if j < len(ps) else 1 for _, ps in entries]) for j in range(width))

    got = sorted(zip(*(col.tolist() for col in sieve._slot_multiples(y, slots(), most))))
    every = zip(*(col.tolist() for col in sieve._slot_multiples(y, slots())))
    assert got == sorted(t for t in every if t[2] <= most)


def test_coprime_range_count(tables_small):
    # n = d*m pairs used by the divisor-major route
    got = squarefree_coprime_count_range(4, 50, [2, 3], tables_small)
    expected = sum(
        1 for n in range(4, 51) if trial_mu(n) != 0 and math.gcd(n, 6) == 1
    )
    assert got == expected
    assert squarefree_coprime_count_range(10, 5, [], tables_small) == 0


def test_omega_class_counts_examples(tables_small):
    assert omega_class_counts(10, tables_small) == {0: 1, 1: 4, 2: 2}
    assert omega_class_counts(1, tables_small) == {0: 1}
    assert sum(omega_class_counts(30, tables_small).values()) == 19
    # both ends of the table's range
    assert omega_class_counts(0, tables_small) == {}
    assert omega_class_counts(10**4, tables_small) == oracle.omega_class_counts_masked(10**4, tables_small)


def test_class_counts_reproduce_direct_power_sums(tables_small):
    # weighting the classes by z**j equals the direct per-n sum, exactly, for integer z
    x = 10**4
    mu, omega = mu_of(tables_small), omega_of(tables_small)
    for z in (2, 3):
        direct = sum(z ** int(omega[n]) for n in range(1, x + 1) if mu[n] != 0)
        classed = sum(c * z**j for j, c in omega_class_counts(x, tables_small).items())
        assert direct == classed


def test_squarefree_density_classical_bound(tables_small):
    for x in (100, 1000, 10**4):
        count = squarefree_coprime_count(x, 1, tables_small)
        assert abs(count - (6 / math.pi**2) * x) <= 2 * math.sqrt(x)


def test_build_is_deterministic(tables_small):
    again = build_sieve(10**4)
    assert np.array_equal(again.primes(again.limit), tables_small.primes(tables_small.limit))
    assert np.array_equal(again.key, tables_small.key)


def test_tables_are_immutable(tables_small):
    with pytest.raises(ValueError):
        tables_small.key[4] = 1


def test_factor_squarefree_beyond_limit(tables_small):
    assert factor_squarefree(10**4 + 7, tables_small) == [10**4 + 7]  # prime
    assert factor_squarefree(6 * (10**4 + 7), tables_small) == [2, 3, 10**4 + 7]
    with pytest.raises(DomainError):
        factor_squarefree(4 * (10**4 + 7), tables_small)
    # a cofactor with no prime <= limit is certified prime only up to limit**2
    assert factor_squarefree(99999989, tables_small) == [99999989]  # past 9973**2
    with pytest.raises(DomainError):
        factor_squarefree(10007 * 10009, tables_small)
    with pytest.raises(DomainError):
        factor_squarefree(0, tables_small)


def test_primes_up_to():
    assert primes_up_to(1).size == 0
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_are_read_fresh_and_not_kept():
    tables = build_sieve(10**4)
    first = tables.primes(10**4)
    assert tables.primes(10**4) is not first
    first[0] = 4  # the caller's own array
    assert np.array_equal(tables.primes(10**4), primes_up_to(10**4))
    assert set(vars(tables)) == {"limit", "key", "memo"}


@pytest.mark.parametrize("limit", [2, 3, *EDGE_LIMITS])
def test_primes_equal_primes_up_to(limit):
    tables = build_sieve(limit)
    for n in (-1, 0, 1, 2, 3, limit // 3, limit, limit + 1, 2 * limit):
        primes = tables.primes(n)
        assert primes.dtype == np.int64
        assert np.array_equal(primes, primes_up_to(min(n, limit))), n


def assert_key_is_loops(got):
    # the per-prime loop's key up to any limit is a prefix of its key up to a larger one
    want = loop_key()[: got.limit + 1]
    assert got.key.dtype == want.dtype == np.uint8
    assert np.array_equal(got.key, want)
    assert not got.key.flags.writeable


# Every edge of the build's chunks, one either side: the doubling chunks
# end at powers of two, the fixed ones at multiples of CHUNK.
C = sieve.CHUNK
BOUNDARY_LIMITS = sorted(
    {2**k + d for k in range(2, 20) for d in (-1, 1)}
    | {m * C + d for m in (1, 2, 3) for d in (-1, 1)}
)


@functools.cache
def loop_key():
    """The per-prime loop's key up to the largest limit the build is compared at."""
    return loop_build_sieve(max(BOUNDARY_LIMITS)).key


@pytest.mark.parametrize("limit", list(range(2, 41)) + BOUNDARY_LIMITS + [10**6])
def test_build_equals_per_prime_loop(limit):
    got = build_sieve(limit)
    assert got.limit == limit
    assert_key_is_loops(got)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(chunk=st.sampled_from([2, 7, 64, C]), data=st.data())
def test_build_equals_per_prime_loop_any_limit(chunk, data):
    # a small chunk puts many fixed-width chunks inside the range; at most
    # about 500 of them, as each runs a Python pass over the root primes
    limit = data.draw(st.integers(2, min(2 * 10**5, 500 * chunk)), label="limit")
    with mock.patch.object(sieve, "CHUNK", chunk):
        got = build_sieve(limit)
    assert_key_is_loops(got)


IDENTITY_TABLES = build_sieve(2 * 10**5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(4, IDENTITY_TABLES.limit))
@example(n=2**17 - 1)  # the last n of a chunk and the first of the next (the chunks double up to CHUNK)
@example(n=2**17)
@example(n=2**17 + 1)
@example(n=2**16 * 3)
@example(n=2**4 * 3**2 * 5 * 7 * 11)  # 110880: one repeated prime and one not, five primes
@example(n=2 * 3 * 5 * 7 * 11 * 13)
@example(n=IDENTITY_TABLES.limit)
def test_key_follows_from_the_cofactor_of_every_prime(n):
    # key[n] from key[n // p] for every prime p of n, not only the least:
    # what lets the build strike its root primes in any order
    key = IDENTITY_TABLES.key
    for p in trial_factor(n):
        m = n // p
        repeated = m % p == 0
        assert key[n] == (key[m] + (not repeated)) | repeated * NOT_SQUAREFREE, (n, p)


def test_chunks_read_only_finished_entries():
    edges = list(sieve.chunks(2, 3 * C + 5))
    assert edges[0] == (2, 4) and edges[-1][1] == 3 * C + 5
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(edges, edges[1:]))
    assert all(0 < b - a <= min(a, C) for a, b in edges)


def test_memory_guard_rejects_before_allocating():
    with mock.patch.object(sieve, "_available_bytes", return_value=2 * 2**30):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=r"needs about 2049 MB; 2048 MB available"):
                build_sieve(2**31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert build_sieve(1000).limit == 1000


def test_build_peak_stays_below_two_bytes_per_integer():
    # the key holds 1 byte per integer; the strike's buffer half a byte per chunk integer
    limit = 2**23
    tracemalloc.start()
    try:
        tables = build_sieve(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    need = sieve._BYTES_PER_INT * (limit + 1) + sieve._BYTES_PER_CHUNK_INT * sieve.CHUNK
    assert peak < 2 * limit
    assert peak < need
    assert tables.limit == limit


def index_bytes(tables, band):
    """The byte estimate of the table's band or squarefree rows."""
    lo, hi = sieve._value_range(tables.key)
    return sieve._index_bytes(tables.limit, hi - lo + 1, band)


def test_both_row_sets_read_the_value_range_once():
    tables = build_sieve(2**17 + 3)
    with mock.patch.object(sieve, "_value_range", wraps=sieve._value_range) as value_range:
        tables.squarefree_rank(np.array([tables.limit]))
        tables._band_rank(np.array([tables.limit]), np.array([2]))
    assert value_range.call_count == 1


def test_index_memory_guard_rejects_before_allocating():
    limit = 2**20
    tables = build_sieve(limit)
    need = index_bytes(tables, band=False)
    with mock.patch.object(sieve, "_available_bytes", return_value=need - 1):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=r"squarefree rows of a 1048576 table need about 1 MB; 1 MB available"):
                tables.squarefree_rank(np.array([limit]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < need // 8
    with mock.patch.object(sieve, "_available_bytes", return_value=need):
        assert tables.squarefree_rank(np.array([limit]))[0] == np.count_nonzero(tables.key < NOT_SQUAREFREE)


def test_band_index_memory_guard_rejects_before_allocating():
    limit = 2**20
    tables = build_sieve(limit)
    need = index_bytes(tables, band=True)
    with mock.patch.object(sieve, "_available_bytes", return_value=need - 1):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=r"band rows of a 1048576 table need about 1 MB; 1 MB available"):
                tables._band_rank(np.array([limit]), np.array([2]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < need // 8
    with mock.patch.object(sieve, "_available_bytes", return_value=need):
        assert tables._band_rank(np.array([limit]), np.array([2]))[0] == np.count_nonzero(omega_of(tables) == 2)


def test_index_build_peak_stays_below_its_estimate():
    # at most 0.1875 bytes per integer kept (the squarefree rows and bitmap), in mappings of
    # their own that tracemalloc does not see, plus the temporaries of one pass of the build
    limit = 2**23
    tables = build_sieve(limit)
    tracemalloc.start()
    try:
        tables.squarefree_omega_rank(np.array([limit]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < index_bytes(tables, band=False)
    assert sum(part.nbytes for part in tables._index(band=False)[1:]) < 0.1875 * limit
    # the band rows: at most 16 rows of 2 bytes per block, 0.125 bytes per integer
    tracemalloc.start()
    try:
        tables._band_rank(np.array([limit]), np.array([2]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < index_bytes(tables, band=True)
    assert sum(part.nbytes for part in tables._index(band=True)[1:3]) < 0.13 * limit


def test_memory_guard_needs_a_known_figure():
    avail = sieve._available_bytes()
    assert avail is None or avail > 0
    with mock.patch.object(sieve, "_available_bytes", return_value=None):
        assert build_sieve(1000).limit == 1000
