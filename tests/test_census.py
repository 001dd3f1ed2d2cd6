import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divisorlab.census import (
    CensusRecord,
    census,
    census_sample,
    census_sample_synthetic,
)
from divisorlab.divisor_sums import integer_kth_root
from divisorlab.errors import DomainError, InsufficientPopulationError, RangeError
from divisorlab.experiments import prop32_scan
from divisorlab.sieve import NOT_SQUAREFREE, build_sieve, factor_squarefree, primes_up_to
from loop_oracles import census_population, count_small_parts_walk


def test_census_pair_example(tables_small):
    rec = census(6, 2, tables_small)
    assert (rec.tau_k, rec.g_k, rec.ratio) == (4, 4, 1.0)


def test_census_30_cubed_example(tables_small):
    rec = census(30, 3, tables_small)
    assert rec.tau_k == 27
    assert rec.g_k == 48
    assert rec.ratio == pytest.approx(48 / 27)


def test_census_unit(tables_small):
    for k in (2, 5):
        rec = census(1, k, tables_small)
        assert rec.tau_k == 1 and rec.g_k == k and rec.omega_n == 0


def test_census_matches_python_twin(tables_small):
    for n in (2, 6, 30, 210, 2310, 9699):
        if tables_small.key[n] >= NOT_SQUAREFREE:
            continue
        for k in (2, 3, 4):
            rec = census(n, k, tables_small)
            primes = factor_squarefree(n, tables_small)
            r = integer_kth_root(n, k)
            assert rec.g_k == count_small_parts_walk(primes, k, r)


FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
WALK_BUDGET = 10**5  # assignments the walk oracle may visit per example


def _primes_and_k(k):
    max_omega = min(9, int(math.log(WALK_BUDGET, k)))
    primes = st.lists(st.sampled_from(FIRST_PRIMES), max_size=max_omega, unique=True)
    return st.tuples(primes.map(sorted), st.just(k))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.integers(2, 6).flatmap(_primes_and_k))
@example(case=(FIRST_PRIMES[-13:], 2))  # n = 13*17*...*61 > 2**62
def test_census_matches_walk_oracle(tables_small, case):
    primes, k = case
    n = math.prod(primes)
    r = integer_kth_root(n, k)
    assert census(n, k, tables_small).g_k == count_small_parts_walk(primes, k, r)


def test_slot_relabeling_invariance(tables_small):
    # reversing the prime order permutes enumeration order but not the census
    for n in (30, 210, 2310):
        primes = factor_squarefree(n, tables_small)
        r = integer_kth_root(n, 3)
        assert count_small_parts_walk(primes, 3, r) == count_small_parts_walk(
            primes[::-1], 3, r
        )


def test_complementary_count_nonnegative(tables_small):
    for n in (2, 6, 30, 210):
        for k in (2, 3, 4):
            rec = census(n, k, tables_small)
            assert k * rec.tau_k - rec.g_k >= 0


def test_pairing_makes_g2_equal_tau(tables_small):
    sq = np.flatnonzero(tables_small.key[: 1001] < NOT_SQUAREFREE)
    for n in sq[1:]:  # skip n = 1
        rec = census(int(n), 2, tables_small)
        assert rec.g_k == rec.tau_k


def test_trivial_bounds(tables_small):
    for n in (2, 6, 30, 210, 4199):
        for k in (2, 3, 4):
            rec = census(n, k, tables_small)
            assert rec.tau_k <= rec.g_k <= (k - 1) * rec.tau_k or k == 2


def test_census_k_guard(tables_small):
    with pytest.raises(DomainError):
        census(30, 1, tables_small)


def test_census_of_a_billion_factorizations(tables_medium):
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23  # omega = 9
    rec = census(n, 10, tables_medium)
    assert rec.tau_k == 10**9
    assert rec.tau_k <= rec.g_k <= 9 * rec.tau_k


def test_census_omega_cap(tables_small):
    n = math.prod(int(p) for p in tables_small.primes(tables_small.limit)[:26])
    with pytest.raises(RangeError, match="omega"):
        census(n, 2, tables_small)


def test_census_rejects_non_squarefree(tables_small):
    with pytest.raises(DomainError):
        census(12, 2, tables_small)


def test_sample_deterministic(tables_small):
    recs1, summ1 = census_sample(3, 3, 10, 42, tables_small)
    recs2, summ2 = census_sample(3, 3, 10, 42, tables_small)
    assert [r.n for r in recs1] == [r.n for r in recs2]
    assert summ1 == summ2
    recs3, _ = census_sample(3, 3, 10, 43, tables_small)
    assert [r.n for r in recs1] != [r.n for r in recs3]


def test_sample_summary_fields(tables_small):
    recs, summ = census_sample(2, 3, 25, 7, tables_small)
    assert summ.count == 25 == len(recs)
    assert summ.min_ratio <= summ.mean_ratio <= summ.max_ratio
    assert summ.half_k_distance == pytest.approx(abs(summ.mean_ratio - 1.5))
    for rec in recs:
        assert rec.omega_n == 2
        assert tables_small.key[rec.n] < NOT_SQUAREFREE


def test_sample_k2_ratios_all_one(tables_small):
    _, summ = census_sample(4, 2, 20, 3, tables_small)
    assert summ.min_ratio == summ.max_ratio == 1.0


def test_sample_rejects_degenerate_omega(tables_small):
    with pytest.raises(InsufficientPopulationError):
        census_sample(0, 3, 5, 1, tables_small)


def _trial_division_population(limit: int, omega_target: int) -> list[int]:
    """The squarefree n <= limit with omega_target primes, all n at once by
    dividing out each prime up to sqrt(limit)."""
    rest = np.arange(1, limit + 1)  # n - 1 indexes n
    omega = np.zeros(limit, dtype=np.int64)
    squarefree = np.ones(limit, dtype=bool)
    for p in primes_up_to(math.isqrt(limit)).tolist():
        hit = rest % p == 0
        omega += hit
        rest[hit] //= p
        squarefree &= rest % p != 0
        while (hit := rest % p == 0).any():
            rest[hit] //= p
    omega += rest > 1  # a prime above sqrt(limit) is left
    return (1 + np.flatnonzero(squarefree & (omega == omega_target))).tolist()


def test_population_equals_trial_division():
    tables = build_sieve(10**5)
    for omega_target in range(1, 7):
        want = _trial_division_population(10**5, omega_target)
        assert census_population(omega_target, tables).tolist() == want, omega_target
    assert census_population(7, tables).size == 0  # 510510 is the first with 7 primes
    assert census_population(17, tables).size == 0  # not a key with the flag set


@pytest.fixture(scope="module")
def census_tables(tables_large):
    return [build_sieve(10**5), build_sieve(10**6 + 3), tables_large]


def test_sample_equals_choice_over_the_population(census_tables):
    # the ranks drawn from the population's size and read off the squarefree
    # rows give the n that Generator.choice draws from the population itself
    replace_modes = set()
    for tables in census_tables:
        for omega in range(1, 9):
            pop = census_population(omega, tables)
            for seed, count in ((s, c) for s in (1, 7, 42, 2**31 - 1, 123456789) for c in (1, 20, 50)):
                if len(pop) == 0:
                    with pytest.raises(InsufficientPopulationError):
                        census_sample(omega, 3, count, seed, tables)
                    continue
                replace_modes.add(len(pop) < count)
                want = np.random.default_rng(seed).choice(pop, size=count, replace=len(pop) < count)
                records, summary = census_sample(omega, 3, count, seed, tables)
                assert records == [census(n, 3, tables) for n in want.tolist()]
                assert summary.count == count
        for omega in (0, 10):
            with pytest.raises(InsufficientPopulationError):
                census_sample(omega, 3, 5, 1, tables)
    assert replace_modes == {False, True}


def test_sample_rejects_empty_population(tables_small):
    # products of 7 distinct primes start at 510510 > 1e4
    with pytest.raises(InsufficientPopulationError):
        census_sample(7, 3, 5, 1, tables_small)


def test_synthetic_sample_reaches_high_omega(tables_small):
    recs, summ = census_sample_synthetic(9, 3, 4, 11, tables_small)
    assert all(rec.omega_n == 9 for rec in recs)
    assert all(rec.tau_k == 3**9 for rec in recs)
    for rec in recs:
        assert rec.tau_k <= rec.g_k <= 2 * rec.tau_k


def test_synthetic_sample_deterministic(tables_small):
    a, _ = census_sample_synthetic(5, 3, 6, 9, tables_small)
    b, _ = census_sample_synthetic(5, 3, 6, 9, tables_small)
    assert [r.n for r in a] == [r.n for r in b]


def test_synthetic_pool_guard(tables_small):
    with pytest.raises(InsufficientPopulationError):
        census_sample_synthetic(19, 3, 2, 1, tables_small)


def test_synthetic_records_are_the_census_of_their_products(tables_small):
    recs, _ = census_sample_synthetic(7, 4, 10, 3, tables_small)
    assert recs == [census(rec.n, 4, tables_small) for rec in recs]


def test_synthetic_pool_needs_the_first_18_primes():
    with pytest.raises(RangeError, match=r"^table holds only 17 primes; 18 requested$"):
        census_sample_synthetic(3, 3, 2, 1, build_sieve(60))
    recs, _ = census_sample_synthetic(18, 2, 1, 1, build_sieve(61))
    assert recs[0].n == math.prod(primes_up_to(61).tolist())
    with pytest.raises(DomainError, match="k=1"):
        census_sample_synthetic(3, 1, 2, 1, build_sieve(61))


@pytest.fixture
def tables_2_24():  # fresh for each scan: a kept prime list would serve the next
    tables = build_sieve(2**24)
    tables.squarefree_rank(np.array([tables.limit]))  # the rows, in mappings tracemalloc does not see
    return tables


@pytest.mark.parametrize("scan", [
    lambda t: prop32_scan(1000, [10**4, 10**6, 2**24], t),
    lambda t: census_sample(6, 3, 20, 7, t),
    lambda t: census_sample_synthetic(10, 3, 2, 7, t),
], ids=["prop32_scan", "census_sample", "census_sample_synthetic"])
def test_pointwise_scans_read_only_the_primes_they_need(tables_2_24, scan):
    # the table's 1,077,871 primes would take 8.6 MB as one list
    tracemalloc.start()
    try:
        scan(tables_2_24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_census_submodule_is_not_shadowed_by_the_function():
    import divisorlab
    import divisorlab.census as m

    assert isinstance(m, types.ModuleType)
    assert m.census is census
    assert "census" not in divisorlab.__all__

