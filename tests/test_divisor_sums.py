import gc
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divisorlab.divisor_sums as ds
import divisorlab.experiments as ex
import loop_oracles as oracle
from divisorlab.cli import parse_and_dispatch
from divisorlab.errors import DomainError, RangeError
from divisorlab.sieve import build_sieve
from divisorlab.weights import PrimeWeight


W1 = PrimeWeight(1.0, strict_mode=False)
W0 = PrimeWeight(0.0)
WHALF = PrimeWeight(0.5, strict_mode=False)
W3 = PrimeWeight(0.3, k_context=3)


def brute_s_full(x, w, tables):
    total = 0.0
    mu = oracle.mu_of(tables)
    for n in range(1, x + 1):
        if mu[n] == 0:
            continue
        total += sum(oracle.h_eval(d, w, tables) for d in range(1, n + 1) if n % d == 0)
    return total


def brute_s_small(x, k, w, tables):
    total = 0.0
    mu = oracle.mu_of(tables)
    for n in range(1, x + 1):
        if mu[n] == 0:
            continue
        total += sum(
            oracle.h_eval(d, w, tables)
            for d in range(1, n + 1)
            if n % d == 0 and d**k <= n
        )
    return total


def test_integer_kth_root_examples():
    assert ds.integer_kth_root(26, 3) == 2
    assert ds.integer_kth_root(27, 3) == 3
    assert ds.integer_kth_root(10**6, 2) == 1000
    assert ds.integer_kth_root(1, 5) == 1
    # any k >= n.bit_length() has root 1, with no Newton step forming 2**(k-1)
    assert ds.integer_kth_root(1000, 2**70) == 1
    assert ds.integer_kth_root(2**62, 63) == 1
    assert ds.integer_kth_root(2**62, 62) == 2


def test_numpy_integer_x_is_an_int():
    # a NumPy integer x gives the report of the int x, with an int x; a float x is refused
    tables = build_sieve(10**4)
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    assert ds.integer_kth_root(np.int64(27), 3) == 3
    got, want = ds.ratio(np.int64(5000), 3, w, tables), ds.ratio(5000, 3, w, tables)
    assert got == want and type(got.x) is int
    for counts in (ds.full_class_counts, lambda x, ops, tables: ds.small_class_counts(x, 3, ops, tables)):
        got = counts(np.int64(5000), (3,), tables)
        assert got == counts(5000, (3,), tables) and type(got.x) is int
    assert ds.abcd(np.int64(5000), 3, W3, 5, tables) == ds.abcd(5000, 3, W3, 5, tables)
    report = ex.ratio_convergence(3, 0.3, np.array([1000, 2000, 4000, 8000]), tables)
    assert report.observed == ex.ratio_convergence(3, 0.3, [1000, 2000, 4000, 8000], tables).observed
    for call in (lambda: ds.ratio(5000.0, 3, w, tables), lambda: ds.integer_kth_root(27.0, 3)):
        with pytest.raises(TypeError):
            call()


def test_integer_kth_root_definition():
    for n in list(range(1, 500)) + [10**12 - 1, 10**12, 2**62]:
        for k in (2, 3, 5):
            r = ds.integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_small_counts_at_a_huge_k_equal_those_at_root_one(tables_small):
    huge = ds.small_class_counts(1000, 2**70, (), tables_small)
    assert huge.classes == ds.small_class_counts(1000, 11, (), tables_small).classes
    assert huge.classes == {(0, 0): 608}
    assert ds.small_class_counts(1000, 2**70, (3,), tables_small).classes == {(0, 0): 608}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=st.integers(1, 2**250), k=st.integers(2, 8), shift=st.integers(-1, 1),
    n=st.integers(1, 2**2000),
)
def test_integer_kth_root_property(base, k, shift, n):
    # base**k + shift puts n on either side of a perfect power
    for m in (n, max(1, base**k + shift)):
        r = ds.integer_kth_root(m, k)
        assert r**k <= m < (r + 1) ** k


def test_s_full_examples(tables_small):
    assert ds.s_full(10, W1, tables_small) == pytest.approx(17.0)
    assert ds.s_full(10, W0, tables_small) == pytest.approx(7.0)
    assert ds.s_full(10, WHALF, tables_small) == pytest.approx(11.5)


def test_s_small_examples(tables_small):
    assert ds.s_small(10, 2, W1, tables_small) == pytest.approx(9.0)
    assert ds.s_small(1, 3, WHALF, tables_small) == 1.0
    assert ds.s_small(10, 4, W1, tables_small) == pytest.approx(7.0)


def test_aggregates_match_brute_force(tables_small):
    w = PrimeWeight(0.3, {2: 0.1, 5: 0.45}, k_context=3, strict_mode=False)
    for x in (1, 7, 50, 200):
        assert ds.s_full(x, w, tables_small) == pytest.approx(
            brute_s_full(x, w, tables_small), rel=1e-12
        )
        for k in (2, 3):
            assert ds.s_small(x, k, w, tables_small) == pytest.approx(
                brute_s_small(x, k, w, tables_small), rel=1e-12
            )


@pytest.mark.parametrize("ops", [(), (2,), (3, 7)])
def test_full_routes_agree_exactly(tables_small, ops):
    for x in (10, 999, 5000):
        counts = [
            route(x, ops, tables_small)
            for route in (oracle.full_n_major, oracle.full_d_major, ds.full_class_counts)
        ]
        assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("ops", [(), (2, 5)])
def test_small_routes_agree_exactly(tables_small, ops):
    for x in (10, 999, 5000):
        for k in (2, 3, 4):
            a = oracle.small_n_major(x, k, ops, tables_small)
            b = ds.small_class_counts(x, k, ops, tables_small)
            assert a == b == oracle.small_d_major(x, k, ops, tables_small)


# Differential properties of the production routes (joint histogram for the
# full counts, its split at p for abcd) against the enumeration oracles.
DIFF_LIMIT = 2 * 10**4
# The table reaches 2**19 + 1 for the kernel's block-edge examples.
DIFF_TABLES = build_sieve(2**19 + 1)
DIFF_PRIMES = [int(q) for q in DIFF_TABLES.primes() if q <= DIFF_LIMIT]
# small primes flag many n; the rest of the table's primes often lie above x
override_sets = st.lists(
    st.one_of(st.sampled_from(DIFF_PRIMES[:15]), st.sampled_from(DIFF_PRIMES)),
    max_size=6, unique=True,
).map(tuple)
differential = settings(max_examples=50, deadline=None, derandomize=True)


@differential
@given(x=st.integers(1, DIFF_LIMIT), ops=override_sets)
# the prefix index's block edges (256 integers) and superblock edges (2**16),
# the blocked oracle's 2**18-integer block edges and the table limit
@example(x=255, ops=(2, 3))
@example(x=256, ops=())
@example(x=257, ops=(2, 3, 5, 7, 11))
@example(x=2**16 - 1, ops=(2, 3, 5, 7))
@example(x=2**16 + 1, ops=(3, 7, 13, 4999))
@example(x=2**18 - 1, ops=())
@example(x=2**18 + 1, ops=(2, 3, 5, 7))
@example(x=2**19 + 1, ops=(2, 3, 5, 7, 11))
def test_histogram_route_equals_n_major(x, ops):
    want = oracle.full_n_major(x, ops, DIFF_TABLES)
    got = ds.full_class_counts(x, ops, DIFF_TABLES)
    assert got == want
    # against the blocked kernel's histogram, with a block size below x
    # that puts block edges inside the range, spread bin by bin
    with mock.patch.object(oracle, "HIST_BLOCK", 97):
        blocked = oracle.blocked_omega_flag_histogram(x, want.override_primes, DIFF_TABLES)
    assert got.classes == oracle.spread_histogram(blocked)
    # the two histogram oracles agree bit for bit
    hist = oracle.omega_flag_histogram(x, want.override_primes, DIFF_TABLES)
    assert hist.dtype == blocked.dtype and np.array_equal(hist, blocked)


@pytest.mark.parametrize("r", [5, 13, 16])
def test_histogram_route_wide_keys(r):
    # r > 4 and r > 12 take the uint16 and uint32 keys; two primes lie above x
    x = 5000
    ops = (*DIFF_PRIMES[: r - 2], 4999, DIFF_PRIMES[-1])
    got = ds.full_class_counts(x, ops, DIFF_TABLES)
    assert got == oracle.full_n_major(x, ops, DIFF_TABLES)
    blocked = oracle.blocked_omega_flag_histogram(x, ops, DIFF_TABLES)  # ops ascend
    assert got.classes == oracle.spread_histogram(blocked)
    assert np.array_equal(oracle.omega_flag_histogram(x, ops, DIFF_TABLES), blocked)


# up to 16 override primes: small ones, any of the table's (often above
# x) and the table's last prime, above every x drawn
spread_override_sets = st.lists(
    st.one_of(
        st.sampled_from(DIFF_PRIMES[:20]),
        st.sampled_from([int(q) for q in DIFF_TABLES.primes()]),
        st.just(int(DIFF_TABLES.primes()[-1])),
    ),
    max_size=16, unique=True,
).map(lambda ops: tuple(sorted(ops)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=st.integers(1, 2 * 10**5), ops=spread_override_sets)
@example(x=1, ops=(2, 3))
@example(x=30, ops=())
@example(x=2 * 10**5, ops=tuple(DIFF_PRIMES[:16]))
@example(x=2**19 + 1, ops=tuple(DIFF_PRIMES[:8]))  # Omega(b) > 9 in reach: 2**10 <= x
@example(x=99991, ops=(2, 199999))
def test_full_count_spread_equals_bin_by_bin_loop(x, ops):
    (got,) = ds._full_omega_identity(np.array([x]), ops, DIFF_TABLES)
    want = oracle.spread_histogram(oracle.blocked_omega_flag_histogram(x, ops, DIFF_TABLES))
    assert got == dict(want)
    assert all(type(v) is int and type(om) is int and type(fl) is int for (om, fl), v in got.items())


def test_histogram_with_sixteen_primes_peaks_below_blocked_kernel():
    # the 16 smallest primes: 2**16 flag masks and about 24,000 products b
    # with Omega(b) <= 9; the whole full count peaks below the blocked
    # kernel alone, and within 24.7 MiB
    x = DIFF_TABLES.limit
    ops = tuple(DIFF_PRIMES[:16])
    squarefree = int(DIFF_TABLES.squarefree_rank(np.array([x]))[0])  # the index is built once per table
    peaks, results = [], []
    for route in (ds.full_class_counts, oracle.blocked_omega_flag_histogram):
        tracemalloc.start()
        try:
            results.append(route(x, ops, DIFF_TABLES))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    full, hist = results
    assert hist.sum() == squarefree
    assert full.classes[0, 0] == squarefree  # each n has the divisor 1
    assert full.classes == oracle.spread_histogram(hist)
    assert peaks[0] <= peaks[1] and peaks[0] <= 24.7 * 2**20


# up to 4 override primes: small ones, any up to DIFF_LIMIT (often above
# sqrt(x)) and the table's last prime, above every x drawn
small_override_sets = st.lists(
    st.one_of(
        st.sampled_from(DIFF_PRIMES[:15]),
        st.sampled_from(DIFF_PRIMES),
        st.just(int(DIFF_TABLES.primes()[-1])),
    ),
    max_size=4, unique=True,
).map(tuple)


@differential
@given(x=st.integers(1, DIFF_LIMIT), k=st.integers(2, 6), ops=small_override_sets)
@example(x=1, k=2, ops=(2,))
@example(x=1000, k=10, ops=(2, 3))  # x**(1/k) < 2: only d = 1
@example(x=2**19 + 1, k=2, ops=(2, 3, 7, 523))  # the table limit
def test_small_route_equals_n_and_d_major(x, k, ops):
    want = oracle.small_n_major(x, k, ops, DIFF_TABLES)
    assert ds.small_class_counts(x, k, ops, DIFF_TABLES) == want
    assert oracle.small_d_major(x, k, ops, DIFF_TABLES) == want
    DIFF_TABLES.memo.clear()  # counted afresh, not binned from an earlier example's counts
    assert ds.small_class_counts(x, k, ops, DIFF_TABLES) == want


# (full route, small route) pairs that abcd's production split must match:
# all four pieces by the divisor walks, then all four by per-n enumeration
SPLIT_ORACLES = (
    (oracle.full_d_major, oracle.small_d_major),
    (oracle.full_n_major, oracle.small_n_major),
)


def oracle_split(x, k, p, ops, tables, full_route, small_route):
    """abcd_class_counts with the full and small counts taken from the given routes."""
    ops = tuple(sorted(set(ops) | {p}))
    return ds._split_counts(full_route(x, ops, tables), small_route(x, k, ops, tables), p)


@differential
@given(
    x=st.integers(1, 5000),
    k=st.integers(2, 5),
    p=st.sampled_from(DIFF_PRIMES[:15] + [4999, DIFF_PRIMES[-1]]),
    ops=override_sets.map(lambda ops: ops[:3]),
)
def test_abcd_auto_equals_single_routes(x, k, p, ops):
    auto = ds.abcd_class_counts(x, k, p, ops, DIFF_TABLES)
    for full_route, small_route in SPLIT_ORACLES:
        assert auto == oracle_split(x, k, p, ops, DIFF_TABLES, full_route, small_route)


# The small-count memo of a table: every answer, counted or binned from the
# kept per-d counts over any override set, equals fresh oracle counts.
MEMO_LIMIT = 2 * 10**5
MEMO_PRIMES = (2, 3, 5, 7, 11, 13, 1009, 199_999)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    x=st.integers(1, MEMO_LIMIT),
    x2=st.integers(1, MEMO_LIMIT),
    k=st.integers(2, 6),
    k2=st.integers(2, 6),
    ops=st.lists(st.sampled_from(MEMO_PRIMES), max_size=4, unique=True).map(tuple),
    keep=st.integers(0, 15),
)
@example(x=40_000, x2=90_000, k=2, k2=6, ops=(2, 7, 13, 199_999), keep=0b1011)
def test_memo_answers_equal_fresh_oracle_counts(x, x2, k, k2, ops, keep):
    tables = build_sieve(MEMO_LIMIT)
    sub = tuple(p for i, p in enumerate(ops) if keep >> i & 1)
    other = tuple(p for p in MEMO_PRIMES if p not in ops)[-3:]
    fresh = {}

    def check(x, k, ops):
        full = ds.full_class_counts(x, ops, tables)
        small = ds.small_class_counts(x, k, ops, tables)
        if (x, ops) not in fresh:
            fresh[x, ops] = oracle.full_n_major(x, ops, tables)
        if (x, k, ops) not in fresh:
            fresh[x, k, ops] = oracle.small_n_major(x, k, ops, tables)
        assert full == fresh[x, ops] and small == fresh[x, k, ops]
        full.classes[(99, 0)] = 1  # the caller's dicts are its own
        small.classes.clear()

    check(x, k, ops)
    with mock.patch.object(ds, "_small_coprime_ranks", side_effect=AssertionError):
        check(x, k, sub)  # binned from the kept counts, not counted
        check(x, k, other)  # over primes the first request did not have
        check(x, k, ops)  # kept as counted, whatever callers did to their copies
    check(x, k2, sub)
    check(x2, k, sub)
    assert len(tables.memo) <= ds._MEMO_ENTRIES


def test_memo_keeps_a_bounded_number_of_counts():
    tables = build_sieve(1000)
    xs = range(1, ds._MEMO_ENTRIES + 6)
    for x in xs:
        ds.small_class_counts(x, 2, (), tables)
    assert len(tables.memo) == ds._MEMO_ENTRIES
    # the least recently used go first: x = 1 is counted again, x = 6 is kept
    ds.small_class_counts(6, 2, (), tables)
    with mock.patch.object(ds, "_small_coprime_ranks", wraps=ds._small_coprime_ranks) as spy:
        ds.small_class_counts(6, 2, (3,), tables)
        ds.small_class_counts(1, 2, (), tables)
    assert spy.call_count == 1
    assert len(tables.memo) == ds._MEMO_ENTRIES
    ds.full_class_counts(7, (), tables)  # full counts are not kept
    assert ("small", 6, 2) in tables.memo and len(tables.memo) == ds._MEMO_ENTRIES


# grids of 1 to 6 points, repeats and any order allowed, and up to 4 override
# primes: small ones, and 524287, above every x drawn
grid_override_sets = st.lists(
    st.sampled_from(DIFF_PRIMES[:10] + [int(DIFF_TABLES.primes()[-1])]), max_size=4, unique=True
).map(tuple)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(xs=st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=6), k=st.integers(2, 6), ops=grid_override_sets)
@example(xs=[1, 2, 3, 2 * 10**5], k=2, ops=(2, 3, 5, 7))
@example(xs=[99991, 7, 99991], k=6, ops=(524287,))
def test_counts_along_a_grid_equal_per_x_counts(xs, k, ops):
    tables = DIFF_TABLES
    tables.memo.clear()
    full = ds._full_counts_along(xs, ops, tables)
    small = ds._small_counts_along(xs, k, ops, tables)
    assert [c.x for c in full] == [c.x for c in small] == xs
    for x, f, s in zip(xs, full, small):
        tables.memo.clear()  # the per-x small counts counted afresh
        assert f == ds.full_class_counts(x, ops, tables)
        assert s == ds.small_class_counts(x, k, ops, tables)


def test_trend_counts_with_one_kernel_call_each():
    tables = build_sieve(10**5)
    grid = [1000, 10_000, 50_000, 100_000]
    with mock.patch.object(ds, "_full_omega_identity", wraps=ds._full_omega_identity) as full, \
            mock.patch.object(ds, "_small_coprime_ranks", wraps=ds._small_coprime_ranks) as small:
        rep = ex.ratio_convergence(3, 0.3, grid, tables, overrides={2: 0.0, 7: 0.1})
        assert full.call_count == small.call_count == 1
        ex.ratio_convergence(3, 0.2, grid, tables)  # the small counts are kept per (x, k)
        assert full.call_count == 2 and small.call_count == 1
    w = PrimeWeight(0.3, {2: 0.0, 7: 0.1}, k_context=3)
    assert rep.observed == [ds.ratio(x, 3, w, tables).ratio for x in grid]


def test_small_counts_at_k2_near_1e7_stay_small(tables_large):
    # about 1.6 MiB traced; one expansion of all 85.7k terms held 5.3 MiB
    x = 9_982_270
    tables_large.squarefree_rank(np.array([x]))  # the index is built once per table
    tables_large.memo.pop(("small", x, 2), None)
    tracemalloc.start()
    try:
        ds.small_class_counts(x, 2, (), tables_large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_weight_one_total_counts_all_pairs(tables_small):
    x = 2000
    counts = ds.full_class_counts(x, (), tables_small)
    tau_sum = 0
    mu, omega = oracle.mu_of(tables_small), oracle.omega_of(tables_small)
    for n in range(1, x + 1):
        if mu[n] == 0:
            continue
        tau_sum += 2 ** int(omega[n])
    assert counts.total_pairs() == tau_sum
    assert ds.weighted_total(counts, W1) == tau_sum


def test_small_never_exceeds_full(tables_small):
    for x in (10, 100, 3000):
        for k in (2, 3, 4):
            assert ds.s_small(x, k, W3, tables_small) <= ds.s_full(x, W3, tables_small)


def test_ratio_report(tables_small):
    rep = ds.ratio(10, 2, W1, tables_small)
    assert rep.ratio == pytest.approx(9 / 17)
    assert rep.s_small <= rep.s_full
    assert 0 < rep.ratio <= 1
    assert ds.ratio(1, 3, W3, tables_small).ratio == 1.0
    assert rep.predicted_limit == pytest.approx(0.5)


def test_ratio_bounds_hold_on_grid(tables_small):
    for x in (1, 17, 444, 9999):
        for k in (2, 3):
            rep = ds.ratio(x, k, W3, tables_small)
            assert 0 < rep.ratio <= 1


def test_weighted_total_rejects_missing_override(tables_small):
    counts = ds.full_class_counts(100, (), tables_small)
    w = PrimeWeight(0.3, {2: 0.1}, k_context=3)
    with pytest.raises(DomainError):
        ds.weighted_total(counts, w)


# weights at their edges: both zeros, subnormals, the smallest normal and a
# value whose fifteenth power is far beyond any float
edge_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308, 1e200, 0.3, 1.0]),
    st.floats(0.0, 1e200),
)


@st.composite
def weighted_counts(draw):
    """Class counts over up to 16 override primes with omega <= 15, and a
    weight at edge values over a subset of those primes."""
    r = draw(st.integers(0, 16))
    ops = tuple(DIFF_PRIMES[:r])
    classes = {}
    for _ in range(draw(st.integers(0, 40))):
        flags = draw(st.integers(0, (1 << r) - 1))
        if flags.bit_count() > 15:
            flags &= flags - 1
        classes[draw(st.integers(flags.bit_count(), 15)), flags] = draw(st.integers(0, 2**62))
    named = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    overrides = {p: draw(edge_weights) for p, on in zip(ops, named) if on}
    w = PrimeWeight(draw(edge_weights), overrides, strict_mode=False)
    return ds.ClassCounts(x=1, override_primes=ops, classes=classes), w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=weighted_counts())
@example(case=(
    ds.ClassCounts(x=1, override_primes=tuple(DIFF_PRIMES[:16]),
                   classes={(15, 2**15 - 1): 3, (15, 2**16 - 2): 2**62, (15, 0): 1, (0, 0): 7}),
    PrimeWeight(1e200, {p: v for p, v in zip(DIFF_PRIMES[:16], [0.0, -0.0, 5e-324, 1e200] * 4)},
                strict_mode=False),
))
def test_dyadic_weighting_equals_the_fraction_oracle(case):
    counts, w = case
    got = ds.weighted_total(counts, w)
    assert type(got) is Fraction
    assert got == oracle.weighted_total_fractions(counts, w)


def test_zero_weight_counts_only_unit_divisor(tables_small):
    # 0**0 = 1 convention: the d = 1 class survives a zero base weight
    counts = ds.full_class_counts(50, (), tables_small)
    total = ds.weighted_total(counts, W0)
    assert total == np.count_nonzero(oracle.mu_of(tables_small)[1:51])


def test_h_series_examples(tables_small):
    assert ds.h_series(1, WHALF, 2, tables_small) == 1.0
    assert ds.h_series(3, WHALF, 2, tables_small) == pytest.approx(1 + 0.5 * 0.75 / 3)
    assert ds.h_series(10, W0, 5, tables_small) == 1.0


def test_h_series_brute_force(tables_small):
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    mu = oracle.mu_of(tables_small)
    for x, p in [(50, 2), (500, 3), (999, 7)]:
        expected = math.fsum(
            oracle.g_eval(j, tables_small) * oracle.h_eval(j, w, tables_small) / j
            for j in range(1, x + 1)
            if mu[j] != 0 and j % p != 0
        )
        assert ds.h_series(x, w, p, tables_small) == pytest.approx(expected, rel=1e-13)


def test_h_series_cumulative_consistency(tables_small):
    w = PrimeWeight(0.3, k_context=3)
    H = ds.h_series_cumulative(2000, w, 2, tables_small)
    assert H[0] == 0.0
    assert H[1] == 1.0
    assert np.all(np.diff(H) >= 0)
    for x in (1, 2, 17, 1999, 2000):
        assert H[x] == pytest.approx(ds.h_series(x, w, 2, tables_small), rel=1e-14)


def test_h_series_cumulative_is_h_series_exactly(tables_small, tables_medium):
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    for tables, x, p, points in (
        (tables_small, 2000, 2, (1, 2, 3, 17, 1999, 2000)),
        (tables_medium, 10**6, 5, (4, 262_144, 10**6 - 1, 10**6)),
    ):
        # h_series first: once H is held, h_series reads H
        sums = [ds.h_series(y, w, p, tables) for y in points]
        H = ds.h_series_cumulative(x, w, p, tables)
        for y, h in zip(points, sums):
            assert H[y] == h


SERIES_CASES = (
    (PrimeWeight(0.5), 2),
    (PrimeWeight(0.3, {3: 0.2}, k_context=3), 5),
    (PrimeWeight(0.7, {2: 0.1, 5: 0.9, 7: 0.0}), 11),
    # primes at the block edges: 32749 < 2**15 < 32771 and 65537 = 2**16 + 1,
    # and 2, whose multiples sit on every edge; 1e200 * 1e200 overflows at 6
    (PrimeWeight(0.6, {2: 0.1, 32749: 0.9}, strict_mode=False), 65537),
    (PrimeWeight(0.3, {65537: 0.2, 32771: 0.0}), 32749),
    (PrimeWeight(0.3, {2: 1e200, 3: 1e200}, strict_mode=False), 32771),
)
B = ds._SERIES_BLOCK


@pytest.mark.parametrize(
    "x", [1, 2, 3, 4, 7, 8, 9, 2**18 - 1, 2**18, 2**18 + 1, 2**19 + 1, 3 * 2**18, 1_500_000]
    + [k * B + d for k in (1, 2, 3) for d in (-1, 0, 1)]
)
def test_series_terms_match_loop_oracle(tables_large, x):
    # small x, x at and around powers of two and the block edges, and at 1.5e6
    for w, p in SERIES_CASES:
        with np.errstate(over="ignore", invalid="ignore"):
            got = ds._series_terms(x, w, p, tables_large)
            want = oracle.series_terms(x, w, p, tables_large)
        assert got.tobytes() == want.tobytes()


SERIES_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def series_weights(draw):
    base = draw(st.floats(0.0, 3.0))
    values = st.floats(0.0, 3.0)
    overrides = draw(st.dictionaries(st.sampled_from(SERIES_PRIMES), values, max_size=3))
    return PrimeWeight(base, overrides, strict_mode=False)


@settings(max_examples=40, deadline=None)
@given(w=series_weights(), p=st.sampled_from(SERIES_PRIMES + (97,)), data=st.data())
def test_held_series_reads_equal_the_sums_bitwise(tables_small, w, p, data):
    x = data.draw(st.integers(1, tables_small.limit))
    ys = data.draw(st.lists(st.integers(1, x), min_size=1, max_size=4))
    # the sums: a fresh table holds no H, and each H built here dies at once
    fresh = build_sieve(tables_small.limit)
    want = [(ds.h_series(y, w, p, fresh), ds.h_series_cumulative(y, w, p, fresh).tobytes()) for y in ys]
    H = ds.h_series_cumulative(x, w, p, tables_small)
    for y, (h, cumulative) in zip(ys, want):
        got = ds.h_series_cumulative(y, w, p, tables_small)
        assert got.base is H  # read, not summed
        assert got.tobytes() == cumulative
        assert ds.h_series(y, w, p, tables_small) == h


@settings(max_examples=40, deadline=None)
@given(w=series_weights(), p=st.sampled_from(SERIES_PRIMES + (97,)), x=st.integers(1, 10**4))
def test_series_terms_equal_per_integer_powers(tables_small, w, p, x):
    # the 16 powers of the table against np.power over the whole array
    got = ds._series_terms(x, w, p, tables_small)
    assert got.tobytes() == oracle.series_terms(x, w, p, tables_small).tobytes()


def test_overflowing_overrides_leave_no_nan(tables_small):
    # 1e200 * 1e200 overflows at n = 6 (squarefree: the sum is inf) and at
    # non-squarefree n such as 12, which must be zeroed after the products
    w = PrimeWeight(0.3, {2: 1e200, 3: 1e200}, strict_mode=False)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = ds._series_terms(1000, w, 5, tables_small)
        assert not np.isnan(terms).any()
        assert terms[12] == 0.0 and terms[6] == math.inf
        assert ds.h_series(1000, w, 5, tables_small) == math.inf


def test_overflowing_terms_make_the_cumulative_series_inf_from_there(tables_small):
    # the terms are inf from n = 6 on (1e200 * 1e200); H is their correctly
    # rounded sum before 6 and inf from 6 on, as h_series is inf at 1000
    w = PrimeWeight(0.3, {2: 1e200, 3: 1e200}, strict_mode=False)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = ds._series_terms(1000, w, 5, tables_small)
        H = ds.h_series_cumulative(1000, w, 5, tables_small)
        assert ds.fsum_nonnegative(terms) == math.inf
    assert H[:6].tolist() == [math.fsum(terms[: j + 1]) for j in range(6)]
    assert np.all(H[6:] == math.inf)


def test_infinite_terms_sum_without_an_invalid_value(tables_small):
    # an infinite term goes to math.fsum before the extractions, which would
    # subtract inf from inf; only the weight's own overflow at n = 6 warns
    w = PrimeWeight(0.3, {2: 1e200, 3: 1e200}, strict_mode=False)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        terms = ds._series_terms(1000, w, 5, tables_small)
        assert ds.h_series(1000, w, 5, tables_small) == math.fsum(terms) == math.inf
        assert ds.fsum_nonnegative(terms) == math.inf
        with pytest.raises(OverflowError):  # finite terms whose sum overflows, as math.fsum
            ds.fsum_nonnegative(np.array([1.5e308, 1.5e308]))


def test_held_series_is_read_only(tables_small):
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    H = ds.h_series_cumulative(2000, w, 2, tables_small)
    view = ds.h_series_cumulative(1000, w, 2, tables_small)
    assert view.base is H
    for arr in (H, view):
        with pytest.raises(ValueError):
            arr[5] = 1.0


def test_held_series_dies_with_its_caller(tables_small):
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    with mock.patch.object(ds, "_series_terms", wraps=ds._series_terms) as spy:
        H = ds.h_series_cumulative(2000, w, 2, tables_small)
        ref = tables_small.memo["series"][1]
        assert ref() is H
        ds.h_series(1500, w, 2, tables_small)
        assert spy.call_count == 1
        del H
        gc.collect()
        assert ref() is None
        ds.h_series(1500, w, 2, tables_small)
        ds.h_series_cumulative(1500, w, 2, tables_small)
        assert spy.call_count == 3


def test_held_series_is_kept_per_weight_bits_and_prime(tables_small):
    w = PrimeWeight(0.3, {3: 0.2}, k_context=3)
    with mock.patch.object(ds, "_series_terms", wraps=ds._series_terms) as spy:
        H = ds.h_series_cumulative(2000, w, 2, tables_small)
        ds.h_series(2000, PrimeWeight(0.3, {3: 0.2}), 2, tables_small)  # an equal weight
        assert spy.call_count == 1
        for other_w, other_p, y in (
            (w, 3, 100),  # another p
            (PrimeWeight(0.3), 2, 100),  # no override
            (PrimeWeight(0.3, {3: 0.2, 5: 0.1}), 2, 100),  # another override
            (PrimeWeight(0.3, {3: -0.0}), 2, 100),
            (w, 2, 2001),  # beyond H
        ):
            ds.h_series(y, other_w, other_p, tables_small)
        assert spy.call_count == 6
        # 0.0 and -0.0 are different weights
        H = ds.h_series_cumulative(2000, PrimeWeight(0.3, {3: 0.0}), 2, tables_small)
        ds.h_series(100, PrimeWeight(0.3, {3: -0.0}), 2, tables_small)
        assert spy.call_count == 8
    del H


def test_held_series_outlives_the_small_count_memo():
    # the small counts of more x than the memo keeps evict one another, not
    # the series H the caller still holds
    tables = build_sieve(10**4)
    H = ds.h_series_cumulative(10**4, W3, 3, tables)
    for x in range(1, ds._MEMO_ENTRIES + 2):
        ds.small_class_counts(x, 2, (), tables)
    with mock.patch.object(ds, "_series_terms", side_effect=AssertionError):
        assert ds.h_series(8000, W3, 3, tables) == H[8000]
        assert ds.h_series_cumulative(8000, W3, 3, tables).base is H
    assert sum(key != "series" for key in tables.memo) == ds._MEMO_ENTRIES


def test_held_series_checks_x_and_p_first(tables_small):
    w = PrimeWeight(0.3, k_context=3)
    H = ds.h_series_cumulative(2000, w, 2, tables_small)
    for x in (0, -1, tables_small.limit + 1):
        with pytest.raises(RangeError):
            ds.h_series(x, w, 2, tables_small)
        with pytest.raises(RangeError):
            ds.h_series_cumulative(x, w, 2, tables_small)
    with pytest.raises(DomainError):
        ds.h_series(100, w, 4, tables_small)
    del H


def test_series_study_builds_the_terms_once(tables_medium):
    # the calls of one round of a series study: H at x1, the sums at x1 and
    # x2, and the gamma check at N < x1, each with its own equal weight
    weight = lambda: PrimeWeight(0.4, {3: 0.7})
    x1, x2, n, p = 900_000, 450_000, 400_000, 5
    with mock.patch.object(ds, "_series_terms", wraps=ds._series_terms) as spy:
        H = ds.h_series_cumulative(x1, weight(), p, tables_medium)
        h1 = ds.h_series(x1, weight(), p, tables_medium)
        h2 = ds.h_series(x2, weight(), p, tables_medium)
        ex.gamma_lemma_check(n, "h_table", 50, tables_medium, weight=weight(), p=p)
        assert spy.call_count == 1
    assert (h1, h2) == (H[x1], H[x2])
    del H


def test_gamma_lemma_reads_a_held_series_to_the_same_bits(tables_medium):
    w = PrimeWeight(0.2, {2: 0.45}, strict_mode=False)
    runs = ((10**4, 25), (450_000, 50), (10**6, 77))
    with mock.patch.object(ds, "_series_terms", wraps=ds._series_terms) as spy:
        cold = [repr(ex.gamma_lemma_check(n, "h_table", m, tables_medium, weight=w, p=3))
                for n, m in runs]
        assert spy.call_count == 3  # each check built its own H, dropped on return
        H = ds.h_series_cumulative(10**6, w, 3, tables_medium)
        warm = [repr(ex.gamma_lemma_check(n, "h_table", m, tables_medium, weight=w, p=3))
                for n, m in runs]
        assert spy.call_count == 4
    assert warm == cold
    del H


def _exact_prefix_sums(t):
    """Correctly rounded prefix sums by exact integer accumulation."""
    scale = 1 << 1074  # every float is an integer multiple of 2**-1074
    acc = 0
    out = []
    for v in t.tolist():
        num, den = v.as_integer_ratio()
        acc += num * (scale // den)
        out.append(acc / scale)  # int / int is correctly rounded
    return np.array(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 10**4),
    low=st.integers(-600, 10),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
)
@example(seed=1, size=10**4, low=-600, zeros=0.3)
@example(seed=2, size=10**4, low=-40, zeros=0.0)
def test_prefix_fsum_is_correctly_rounded(seed, size, low, zeros):
    rng = np.random.default_rng(seed)
    t = np.ldexp(1.0 + rng.random(size), rng.integers(low, 11, size))
    t[rng.random(size) < zeros] = 0.0
    P = ds._prefix_fsum(t)
    assert P.tobytes() == _exact_prefix_sums(t).tobytes()
    for j in {0, size // 2, size - 1}:
        assert P[j] == math.fsum(t[: j + 1])
    assert ds.fsum_nonnegative(t) == math.fsum(t)


def test_prefix_fsum_rounds_midpoints_to_even():
    # 1 + 2**-53 and 1 + 5 * 2**-53 are rounding midpoints: no float bound
    # decides them, so the kernel falls back to math.fsum
    u = 2.0**-53
    t = np.array([0.0, 1.0, u, u, 0.0, 3 * u])
    with mock.patch.object(ds, "fsum", wraps=math.fsum) as spy:
        P = ds._prefix_fsum(t)
    assert spy.call_count == 2
    assert [v.hex() for v in P] == [
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000001p+0", "0x1.0000000000001p+0", "0x1.0000000000002p+0",
    ]
    with mock.patch.object(ds, "fsum", wraps=math.fsum) as spy:
        assert ds.fsum_nonnegative(t) == P[-1]
    assert spy.call_count == 1
    tiny = np.array([2.0**-1074] * 3 + [0.0, 2.0**-1000, 2.0**-1022])  # subnormal sums
    assert ds._prefix_fsum(tiny).tolist() == [math.fsum(tiny[: j + 1]) for j in range(6)]
    assert ds._prefix_fsum(np.zeros(3)).tobytes() == np.zeros(3).tobytes()
    assert len(ds._prefix_fsum(np.zeros(0))) == 0
    assert ds.fsum_nonnegative(tiny) == math.fsum(tiny)
    assert ds.fsum_nonnegative(np.zeros(3)) == ds.fsum_nonnegative(np.zeros(0)) == 0.0


@pytest.mark.parametrize("block", [2, 3, 1 << 15])
def test_prefix_fsum_carries_the_residual_across_blocks(block):
    # 1 + 2**-53 - 2**-90 + k * 2**-93 is below the midpoint 1 + 2**-53 for
    # k < 8, on it at k = 8 and above it after.  At 2**15 terms the -2**-90
    # and the 2**-93 fall below both extraction grids, so they reach the
    # result only through the residual cumsum, in many blocks.
    u = 2.0**-53
    t = np.zeros(1 << 15)
    t[:12] = [1.0, u - 2.0**-90] + [2.0**-93] * 10
    with mock.patch.object(ds, "_SERIES_BLOCK", block):
        P = ds._prefix_fsum(t)
    assert P[:12].tolist() == [math.fsum(t[: j + 1]) for j in range(12)]
    assert P[:12].tolist() == [1.0] * 10 + [1.0 + 2 * u] * 2
    assert np.all(P[12:] == 1.0 + 2 * u)


@pytest.mark.parametrize("block", [3, 64, 1 << 15])
def test_prefix_fsum_resolves_open_prefixes_in_late_blocks(block):
    # An infinite error bound leaves every prefix open, so each one past
    # the first block is resolved through the carry of the blocks before it.
    rng = np.random.default_rng(11)
    t = np.ldexp(1.0 + rng.random(3000), rng.integers(-90, 4, 3000))
    t[rng.random(3000) < 0.2] = 0.0
    t[:5] = 0.0  # a leading run of zeros is skipped
    grid = ds._extraction_grid
    with mock.patch.object(ds, "_SERIES_BLOCK", block), \
            mock.patch.object(ds, "_extraction_grid", lambda n, total: (*grid(n, total)[:2], math.inf)):
        P = ds._prefix_fsum(t)
    assert P.tolist() == [math.fsum(t[: j + 1]) for j in range(len(t))]


def test_prefix_fsum_resolves_ties_through_exact_block_totals():
    # Exact midpoints 1 + k*u (odd k, u = 2**-53) are open prefixes, here in
    # blocks 0 to 9 of 64 terms.  A 2**-300 in block 1 lies far below every
    # extraction grid, so only an exact carry of the blocks before turns the
    # ties at k = 5 from 1 + 4u (half to even) into 1 + 6u.
    u = 2.0**-53
    t = np.zeros(640)
    t[0] = 1.0
    t[[5, 130, 200, 400, 401]] = u
    t[70] = 2.0**-300
    with mock.patch.object(ds, "_SERIES_BLOCK", 64), mock.patch.object(ds, "fsum", wraps=math.fsum) as spy:
        P = ds._prefix_fsum(t)
    assert spy.call_count >= 3 * 64  # every prefix from 5 on but k = 2 and k = 6
    assert P.tolist() == [math.fsum(t[: j + 1]) for j in range(len(t))]
    assert P[4] == 1.0 and P[5] == 1.0 and P[130] == 1.0 + 2 * u
    assert P[200] == 1.0 + 4 * u and P[401] == P[-1] == 1.0 + 6 * u


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3000), low=st.integers(-1074, 900))
@example(seed=3, size=3000, low=-1074)  # subnormals and zeros
def test_exact_block_totals_hold_every_bit(seed, size, low):
    rng = np.random.default_rng(seed)
    t = np.ldexp(rng.random(size), rng.integers(low, 901, size))
    t[rng.random(size) < 0.1] = 0.0
    bins = np.zeros((2, ds._EXPONENTS), dtype=np.int64)
    for lo in range(0, size, 1000):
        ds._add_mantissas(bins, t[lo : lo + 1000])
    parts = ds._exact_floats(bins)
    assert sum(map(Fraction, parts)) == sum(map(Fraction, t.tolist()))
    assert all(abs(b) < abs(a) for a, b in zip(parts, parts[1:]))


def test_h_series_requires_prime(tables_small):
    with pytest.raises(DomainError):
        ds.h_series(100, W3, 6, tables_small)


def test_abcd_identities_exact(tables_small):
    w = PrimeWeight(0.3, {7: 0.2}, k_context=3)
    ops = w.override_primes()
    for x in (10, 100, 5000):
        for p in (2, 7, 11):
            dec = ds.abcd(x, 3, w, p, tables_small)
            full = ds.weighted_total(ds.full_class_counts(x, ops, tables_small), w)
            small = ds.weighted_total(ds.small_class_counts(x, 3, ops, tables_small), w)
            hp = Fraction(w.value_at(p))
            assert hp * dec.a_exact + dec.b_exact == small
            assert hp * dec.c_exact + dec.d_exact == full


def test_abcd_class_count_identity(tables_small):
    # integer-level statement: reassembling the split reproduces the counts
    x, k, p = 3000, 3, 5
    a_cc, b_cc, c_cc, d_cc = ds.abcd_class_counts(x, k, p, (), tables_small)
    small = ds.small_class_counts(x, k, (p,), tables_small)
    full = ds.full_class_counts(x, (p,), tables_small)
    assert oracle.compose_decomposition(a_cc, b_cc, p) == small
    assert oracle.compose_decomposition(c_cc, d_cc, p) == full


def test_abcd_methods_agree(tables_small):
    reference = ds.abcd_class_counts(2000, 3, 2, (3,), tables_small)
    for full_route, small_route in SPLIT_ORACLES:
        assert oracle_split(2000, 3, 2, (3,), tables_small, full_route, small_route) == reference


def test_abcd_x_below_p(tables_small):
    w = W3
    dec = ds.abcd(5, 2, w, 7, tables_small)
    assert dec.a == 0.0 and dec.c == 0.0
    assert dec.b == pytest.approx(ds.s_small(5, 2, w, tables_small))
    assert dec.d == pytest.approx(ds.s_full(5, w, tables_small))


def test_abcd_mobius_quotient_matches_recompute(tables_small):
    x, k, p = 5000, 3, 2
    base = PrimeWeight(0.3, k_context=k, strict_mode=False)
    dec = ds.abcd(x, k, base, p, tables_small)
    for v in (0.0, 0.1, 0.25, 0.5):
        w = base.with_override(p, v)
        recomputed = ds.ratio(x, k, w, tables_small).ratio
        assert abs(recomputed - dec.predicted_ratio(v)) <= 1e-12 * recomputed


def test_method_validation(tables_small):
    with pytest.raises(RangeError):
        ds.full_class_counts(10**5, (), tables_small)  # beyond limit
    with pytest.raises(DomainError):
        ds.counts_for_split(100, 3, 6, (), tables_small)  # p not prime
    with pytest.raises(DomainError):
        ds.abcd(100, 3, W3, 6, tables_small)
    with pytest.raises(RangeError):  # p beyond the table
        ds.abcd(100, 3, W3, 10**4 + 7, tables_small)
    with pytest.raises(RangeError):
        ex.monotonicity_scan(100, 3, 0.3, 10**4 + 7, [0.1, 0.2], tables_small)
    with pytest.raises(RangeError):  # x beyond the table
        ds.counts_for_split(10**5, 3, 2, (), tables_small)
    with pytest.raises(DomainError):
        ds.counts_for_split(100, 1, 2, (), tables_small)  # k < 2
    assert parse_and_dispatch(["adbc", "--x", "100", "--prime", "4"]) == 1
    with pytest.raises(DomainError):
        ds.full_class_counts(100, (3, 3), tables_small)  # a prime twice


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_zero_one_and_negative_keys_are_not_primes(p):
    # 1009 is prime, so omega[-1] == omega[1009] == 1 on this table
    tables = build_sieve(1009)
    w = PrimeWeight(0.3, k_context=3)
    with pytest.raises(DomainError):
        ds.full_class_counts(100, (p,), tables)
    with pytest.raises(DomainError):
        ds.small_class_counts(100, 3, (p,), tables)
    with pytest.raises(DomainError):
        ds.h_series(100, w, p, tables)
    with pytest.raises(DomainError):
        ds.abcd(100, 3, w, p, tables)
