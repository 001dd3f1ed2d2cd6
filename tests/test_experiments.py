import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divisorlab.divisor_sums as ds
import divisorlab.experiments as ex
import loop_oracles as oracle
from divisorlab.errors import ConfigurationError, DomainError, RangeError
from divisorlab.euler import gaussian_window
from divisorlab.sieve import NOT_SQUAREFREE, build_sieve, factor_squarefree
from divisorlab.weights import PrimeWeight


def test_trend_report_validation():
    with pytest.raises(ConfigurationError):
        ex.TrendReport("x", [1, 2], [0.5], 1.0, "pass", "")
    with pytest.raises(ConfigurationError):
        ex.TrendReport("x", [2, 1], [0.5, 0.6], 1.0, "pass", "")


def test_numpy_grid_points_are_ints(tables_medium):
    # a NumPy grid gives int points, so the grid serialises; a float point is refused
    grid = np.array([10**4, 10**5, 5 * 10**5, 9 * 10**5])
    for report in (
        ex.ratio_convergence(3, 0.3, grid, tables_medium),
        ex.prop32_scan(100, grid, tables_medium),
        ex.selberg_trend(1.0, False, grid, tables_medium),
        ex.erdos_kac_distance(grid, tables_medium),
    ):
        assert json.loads(json.dumps(report.grid)) == grid.tolist()
        assert all(type(g) is int for g in report.grid)
    with pytest.raises(TypeError):
        ex.ratio_convergence(3, 0.3, [10**4, 10**5, 5 * 10**5, 9.0 * 10**5], tables_medium)


def test_ratio_convergence_tiny_weight_pins_ratio_near_one(tables_small):
    rep = ex.ratio_convergence(2, 1e-6, [10, 100, 1000, 10**4], tables_small)
    for value in rep.observed:
        assert abs(value - 1.0) <= 1e-3
    assert rep.verdict == "pass"


def test_ratio_convergence_rejects_short_grid(tables_small):
    with pytest.raises(RangeError):
        ex.ratio_convergence(3, 0.3, [10**4], tables_small)
    with pytest.raises(RangeError):
        ex.ratio_convergence(3, 0.3, [10, 100, 1000], tables_small)


def test_ratio_convergence_reports_implied_constant(tables_small):
    rep = ex.ratio_convergence(3, 0.3, [10, 100, 1000, 10**4], tables_small)
    implied = rep.extra["implied_constant"]
    assert implied == pytest.approx(1.0 / rep.observed[-1], rel=1e-12)
    assert "implied constant" in rep.notes


def test_monotonicity_scan_small(tables_small):
    rep = ex.monotonicity_scan(
        10**4, 3, 0.3, 2, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], tables_small
    )
    assert rep.verdict == "pass"
    assert all(b < a for a, b in zip(rep.observed, rep.observed[1:]))
    assert rep.extra["ad_minus_bc"] < 0
    assert rep.extra["max_rel_deviation"] <= 1e-12


def test_monotonicity_scan_boundary_value_allowed(tables_small):
    # v = 1/(k-1) sits on the boundary; the scan must accept it
    rep = ex.monotonicity_scan(1000, 3, 0.1, 3, [0.4, 0.5], tables_small)
    assert rep.verdict in ("pass", "fail")


def test_monotonicity_scan_degenerate_cases(tables_small):
    rep = ex.monotonicity_scan(100, 3, 0.3, 2, [0.25], tables_small)
    assert rep.verdict == "informational"
    rep = ex.monotonicity_scan(5, 3, 0.3, 7, [0.1, 0.2], tables_small)
    assert rep.verdict == "informational"
    assert rep.observed[0] == rep.observed[1]


@pytest.mark.parametrize("x, k, p", [(10**4, 3, 2), (7777, 2, 5), (5000, 4, 3), (5, 3, 7)])
def test_monotonicity_scan_equals_separate_requests(tables_small, x, k, p):
    # the scan weights one pair of counts; each value must be the one a
    # fresh ratio or abcd request at the same weight gives, bit for bit
    c, vs = 0.3, [0.0, 0.1, 0.25, 0.3, 0.5]
    rep = ex.monotonicity_scan(x, k, c, p, vs, tables_small)
    base = PrimeWeight(c, k_context=k, strict_mode=False)
    for v, observed in zip(vs, rep.observed):
        assert observed == ds.ratio(x, k, base.with_override(p, v), tables_small).ratio
    dec = ds.abcd(x, k, base, p, tables_small)
    assert rep.extra["abcd"] == (dec.a, dec.b, dec.c, dec.d)
    assert rep.extra["ad_minus_bc"] == dec.ad_minus_bc


def test_monotonicity_scan_grid_validation(tables_small):
    with pytest.raises(ConfigurationError):
        ex.monotonicity_scan(100, 3, 0.3, 2, [0.2, 0.1], tables_small)
    with pytest.raises(DomainError):
        ex.monotonicity_scan(100, 3, 0.3, 2, [-0.1, 0.2], tables_small)


def test_prop32_scan_hand_example(tables_small):
    # m = 2, x = 10: odd squarefree up to 10 are {1, 3, 5, 7}
    assert oracle.squarefree_coprime_count(10, 2, tables_small) == 4
    resid = abs(4 - (6 / math.pi**2) * oracle.g_eval(2, tables_small) * 10)
    constant = resid / (2 ** (2 / 3) * math.sqrt(10))
    assert constant < 0.05
    rep = ex.prop32_scan(30, [10, 10**3], tables_small)
    assert rep.verdict == "pass"
    assert rep.extra["max_constant"] <= 6.0


@pytest.mark.parametrize("x", [10**3, 10**4])
def test_prop32_scan_equals_loop_oracle(tables_small, x):
    m_max = 300
    mu = oracle.mu_of(tables_small)
    worst, worst_m = 0.0, 1
    for m in range(1, m_max + 1):
        if mu[m] == 0:
            continue
        count = oracle.squarefree_coprime_count(x, m, tables_small)
        g = oracle.g_eval(m, tables_small)
        tau = 2.0 ** len(factor_squarefree(m, tables_small))
        constant = abs(count - 6.0 / math.pi**2 * g * x) / (tau ** (2.0 / 3.0) * math.sqrt(x))
        if constant > worst:
            worst, worst_m = constant, m
    rep = ex.prop32_scan(m_max, [x], tables_small)
    assert rep.grid == [x]
    assert rep.observed[0].hex() == worst.hex()
    assert rep.extra["argmax_m"] == [worst_m]


def test_prop32_scan_rejects_m_max_below_one(tables_small):
    for m_max in (0, -5):
        with pytest.raises(DomainError):
            ex.prop32_scan(m_max, [10**3], tables_small)


def test_prop32_scan_rejects_grid_points_below_one(tables_small):
    for grid in ([0], [-5], [0, 1000]):
        with pytest.raises(RangeError):
            ex.prop32_scan(30, grid, tables_small)


def test_prop32_scan_monotone_in_m_max(tables_small):
    small = ex.prop32_scan(50, [10**3], tables_small)
    bigger = ex.prop32_scan(200, [10**3], tables_small)
    assert bigger.extra["max_constant"] >= small.extra["max_constant"]


def test_gamma_lemma_log_shift(tables_small):
    rep = ex.gamma_lemma_check(10**4, "log_shift", 50, tables_small)
    assert rep.verdict == "pass"
    assert rep.extra["symmetry_max_rel"] <= 1e-12
    left, right = rep.extra["root_neighbors"]
    assert rep.extra["gamma_at_root"] >= left
    assert rep.extra["gamma_at_root"] >= right


def test_gamma_lemma_h_table_runs(tables_small):
    w = PrimeWeight(0.3, k_context=3)
    rep = ex.gamma_lemma_check(10**4, "h_table", 25, tables_small, weight=w, p=2)
    assert rep.extra["symmetry_max_rel"] <= 1e-12
    assert rep.verdict in ("pass", "fail")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    N=st.integers(100, 10**4),
    p=st.sampled_from([2, 3, 7]),
    t=st.lists(st.floats(0.0, 1.1e4, allow_nan=False), max_size=40),
)
def test_interp_at_integers_is_np_interp(tables_small, N, p, t):
    H = ds.h_series_cumulative(N, PrimeWeight(0.3, k_context=3), p, tables_small)
    t = np.array(t + [0.0, 1.0, N - 1.0, N - 0.5, float(N), N + 0.5, math.sqrt(N)])
    want = np.interp(t, np.arange(N + 1, dtype=np.float64), H.copy())
    assert ex._interp_at_integers(H, t).tobytes() == want.tobytes()


def test_gamma_lemma_on_a_held_series_allocates_no_length_n_array(tables_medium):
    # two float arrays of length N would take 7.2 MB
    N, w = 450_000, PrimeWeight(0.2, k_context=2, strict_mode=False)
    H = ds.h_series_cumulative(N, w, 3, tables_medium)
    tracemalloc.start()
    try:
        rep = ex.gamma_lemma_check(N, "h_table", 50, tables_medium, weight=w, p=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.observed) == 50 and H[N] > 0
    assert peak < 2**20


def test_gamma_lemma_validation(tables_small):
    with pytest.raises(ConfigurationError):
        ex.gamma_lemma_check(50, "log_shift", 50, tables_small)
    with pytest.raises(ConfigurationError):
        ex.gamma_lemma_check(10**4, "h_table", 50, tables_small)  # missing weight/p
    with pytest.raises(ConfigurationError):
        ex.gamma_lemma_check(10**4, "nonsense", 50, tables_small)
    with pytest.raises(RangeError):
        ex.gamma_lemma_check(101, "log_shift", 2, tables_small)


def test_erdos_kac_full_window(tables_small):
    rep = ex.erdos_kac_histogram(10**4, -10.0, 10.0, tables_small)
    assert rep.observed[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "informational"


def test_erdos_kac_point_window(tables_small):
    rep = ex.erdos_kac_histogram(10**4, 0.0, 0.0, tables_small)
    assert rep.observed[0] <= 0.01


def test_erdos_kac_bookkeeping(tables_small):
    rep = ex.erdos_kac_histogram(10**4, -1.0, 1.0, tables_small)
    assert rep.extra["skipped"] == 2
    assert rep.extra["phi"] == pytest.approx(gaussian_window(-1.0, 1.0))
    assert rep.verdict == "informational"  # for every window and x
    with pytest.raises(DomainError):
        ex.erdos_kac_histogram(10**4, 1.0, -1.0, tables_small)
    with pytest.raises(RangeError):
        ex.erdos_kac_histogram(100, -1.0, 1.0, tables_small)


def test_erdos_kac_window_rejects_nan_edges_and_takes_infinite_ones(tables_small):
    for a, b in ((math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(DomainError):
            ex.erdos_kac_histogram(10**4, a, b, tables_small)
    assert ex.erdos_kac_histogram(10**4, -math.inf, math.inf, tables_small).observed == [1.0]
    below = ex.erdos_kac_histogram(10**4, -math.inf, 0.0, tables_small).observed[0]
    above = ex.erdos_kac_histogram(10**4, 0.0, math.inf, tables_small).observed[0]
    assert 0.0 < below < 1.0 and 0.0 < above < 1.0


def test_erdos_kac_window_counts_block_by_block(tables_medium):
    # x at the edges of the oracle's blocks; the statistic is the whole-array formula
    for x in (10**4, oracle.BLOCK + 2, oracle.BLOCK + 3, 2 * oracle.BLOCK + 2, tables_medium.limit):
        om = oracle.omega_of(tables_medium)[3 : x + 1].astype(np.float64)
        loglog = np.log(np.log(np.arange(3, x + 1, dtype=np.float64)))
        stat = (om - loglog) / np.sqrt(loglog)
        for a, b in ((-1.0, 1.0), (-0.5, 2.0), (0.0, 0.0)):
            inside = np.count_nonzero((stat >= a) & (stat <= b))
            assert ex.erdos_kac_histogram(x, a, b, tables_medium).observed == [inside / (x - 2)]


def test_erdos_kac_window_peak_stays_below_one_byte_per_integer():
    x = 2**22
    tables = build_sieve(x)
    tracemalloc.start()
    try:
        ex.erdos_kac_histogram(x, -1.0, 1.0, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x


def test_erdos_kac_distance_matches_loop_oracle(tables_medium):
    grid = [10**4, 2 * 10**4, 5 * 10**4]
    rep = ex.erdos_kac_distance(grid, tables_medium)
    for x, got in zip(grid, rep.extra["distance"]):
        sample = sorted(oracle.erdos_kac_statistic(x, tables_medium).tolist())
        m = len(sample)
        want = 0.0
        for i, s in enumerate(sample, start=1):
            phi = 0.5 * (1.0 + math.erf(s / math.sqrt(2.0)))
            want = max(want, i / m - phi, phi - (i - 1) / m)
        assert got == want
    with pytest.raises(RangeError):
        ex.erdos_kac_distance([10**4, 10**5], tables_medium)
    with pytest.raises(RangeError):
        ex.erdos_kac_distance([1000, 10**4, 10**5], tables_medium)


def test_erdos_kac_statistic_matches_whole_array_formula(tables_medium):
    # the blocked statistic keeps the bits of the one-shot expression
    for x in (3, 10**4, oracle.BLOCK + 2, oracle.BLOCK + 3, tables_medium.limit):
        om = oracle.omega_of(tables_medium)[3 : x + 1].astype(np.float64)
        loglog = np.log(np.log(np.arange(3, x + 1, dtype=np.float64)))
        want = (om - loglog) / np.sqrt(loglog)
        assert oracle.erdos_kac_statistic(x, tables_medium).tobytes() == want.tobytes()


def test_statistic_decreases_within_each_band(tables_medium):
    # the premise of the band counts: in each omega band the whole-array
    # statistic strictly decreases in n, so its n with s <= t are a suffix
    stat = oracle.erdos_kac_statistic(tables_medium.limit, tables_medium)
    band = oracle.omega_of(tables_medium)[3:]
    for j in np.unique(band):
        assert np.all(np.diff(stat[band == j]) < 0)


def test_statistic_at_scattered_n_has_the_whole_array_bits(tables_medium):
    x = tables_medium.limit
    whole = oracle.erdos_kac_statistic(x, tables_medium)
    band = oracle.omega_of(tables_medium)
    rng = np.random.default_rng(11)
    n = np.concatenate([[3, 4, x - 1, x], rng.integers(3, x + 1, 5000)])
    assert ex._statistic(band[n], n).tobytes() == whole[n - 3].tobytes()
    for v in n[:50].tolist():  # one n at a time
        assert ex._statistic(band[[v]], np.array([v])).tobytes() == whole[v - 3 : v - 2].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    x=st.integers(10**4, 10**5),
    band=st.integers(0, NOT_SQUAREFREE - 1),
    t=st.one_of(st.floats(-3.0, 12.0), st.sampled_from([-math.inf, math.inf, 0.0])),
    at=st.integers(3, 10**4),
    guess=st.sampled_from([None, 3, 2**31]),
)
def test_first_at_most_is_the_first_n_at_or_below_t(x, band, t, at, guess):
    # t drawn, and t a value of the statistic; guess replaces the root so
    # that the bracket fails and the bisection starts from [2, x + 1]
    n = np.arange(3, x + 1)
    stat = ex._statistic(band, n)
    for threshold in (t, float(stat[at - 3])):
        below = np.flatnonzero(stat <= threshold)
        want = int(n[below[0]]) if len(below) else x + 1
        root = ex._root if guess is None else (lambda band, t, x: np.clip(np.full(t.shape, guess), 3, x + 1))
        with mock.patch.object(ex, "_root", root):
            assert ex._first_at_most(band, np.array([threshold]), x).tolist() == [want]


@settings(max_examples=12, deadline=None)
@given(
    grid=st.lists(st.integers(10**4, 10**6), min_size=3, max_size=3, unique=True).map(sorted),
    window=st.tuples(st.floats(-2.0, 3.0), st.floats(0.0, 1.0)),
)
def test_erdos_kac_routes_equal_the_sorted_sample(tables_medium, grid, window):
    # distances bit for bit against the sorted sample; the window of the
    # histogram against a count over that sample
    rep = ex.erdos_kac_distance(grid, tables_medium)
    for x, got in zip(grid, rep.extra["distance"]):
        assert got == oracle.kolmogorov_distance(np.sort(oracle.erdos_kac_statistic(x, tables_medium)))
    stat = oracle.erdos_kac_statistic(grid[-1], tables_medium)
    a, b = window[0], window[0] + window[1]
    inside = np.count_nonzero((stat >= a) & (stat <= b))
    assert ex.erdos_kac_histogram(grid[-1], a, b, tables_medium).observed == [inside / (grid[-1] - 2)]


def test_erdos_kac_distance_on_a_built_index_allocates_under_one_megabyte():
    x = 2**22
    tables = build_sieve(x)
    grid = [10**4, 10**5, 10**6, x]
    ex.erdos_kac_distance(grid, tables)  # builds the band index
    tracemalloc.start()
    try:
        ex.erdos_kac_distance(grid, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _kolmogorov_samples(tables):
    rng = np.random.default_rng(7)
    yield np.sort(rng.standard_normal(5000))
    yield np.sort(np.round(rng.standard_normal(20000), 1))  # many ties
    yield np.sort(rng.integers(-3, 6, 3000) / 1.7)  # nine distinct values
    yield np.sort(rng.exponential(size=4000) - 0.3)
    yield np.sort(rng.standard_normal(300) + 2.5)  # sup in the lower tail
    yield np.array([0.25])
    yield np.full(100, -0.5)
    yield np.sort(oracle.erdos_kac_statistic(10**4, tables))


@pytest.mark.parametrize("nodes, block", [(oracle.PHI_NODES, oracle.BLOCK), (8, oracle.BLOCK), (oracle.PHI_NODES, 64), (8, 64)])
def test_kolmogorov_kernel_matches_full_erf(tables_small, nodes, block):
    # 8 nodes make the interpolation bound loose, so many indices are refined;
    # 64-element blocks make the samples span many blocks
    with mock.patch.object(oracle, "PHI_NODES", nodes), mock.patch.object(oracle, "BLOCK", block):
        for sample in _kolmogorov_samples(tables_small):
            assert oracle.kolmogorov_distance(sample) == oracle.kolmogorov_distance_erf(sample)


@pytest.mark.parametrize("nodes, split, leaf", [(ex._EK_NODES, ex._EK_SPLIT, ex._EK_LEAF), (2, 2, 1), (5, 3, 7)])
def test_distance_refinement_matches_full_erf(tables_small, nodes, split, leaf):
    # small constants refine deep: one value per leaf, or ties that no
    # split can part, down to intervals between adjacent floats
    def count(t):
        return np.searchsorted(sample, t, side="right")

    def members(a, b):
        return [sample[(sample > lo) & (sample <= hi)] for lo, hi in zip(a.tolist(), b.tolist())]

    with mock.patch.multiple(ex, _EK_NODES=nodes, _EK_SPLIT=split, _EK_LEAF=leaf):
        for sample in _kolmogorov_samples(tables_small):
            lo = np.nextafter(sample[0], -math.inf)
            got = ex._kolmogorov_distance(count, members, lo, sample[-1], len(sample))
            assert got == oracle.kolmogorov_distance_erf(sample)


def test_erdos_kac_range_starts_at_each_bands_first_member(tables_medium):
    # omega + 1 puts the primes in band 2, below 6, and 2**j in band j + 1:
    # the first level spans the key's own first members, whatever the key
    x = 5 * 10**4
    for key in (tables_medium.key, (tables_medium.key & NOT_SQUAREFREE) | ((tables_medium.key & 15) + 1)):
        tables = dataclasses.replace(tables_medium, key=key)
        stat = oracle.erdos_kac_statistic(x, tables)
        _, _, lo, hi = ex._erdos_kac_sample(x, tables)
        assert lo < stat.min() and stat.max() <= hi
        assert ex.erdos_kac_distance([10**4, 2 * 10**4, x], tables).extra["distance"][-1] == (
            oracle.kolmogorov_distance_erf(np.sort(stat))
        )
    # on the sieve's key the range ends at the sample's largest value
    assert ex._erdos_kac_sample(x, tables_medium)[3] == oracle.erdos_kac_statistic(x, tables_medium).max()


def test_erdos_kac_distance_rejects_wrong_omega(tables_medium):
    grid = [10**4, 10**5, 10**6]
    n = np.arange(tables_medium.limit + 1)
    omega = oracle.omega_of(tables_medium).astype(np.int16)
    big_omega = omega.copy()  # prime factors counted with multiplicity
    for p in tables_medium.primes(tables_medium.limit):
        if p * p > tables_medium.limit:
            break
        q = p * p
        while q <= tables_medium.limit:
            big_omega[q::q] += 1
            q *= p

    def with_omega(values):
        # the statistic reads the four omega bits of the key, so Omega(n)
        # above 15 (a few n from 2**16 on) is capped at 15
        key = np.clip(values, 0, NOT_SQUAREFREE - 1).astype(np.uint8)
        key |= tables_medium.key & NOT_SQUAREFREE
        return dataclasses.replace(tables_medium, key=key)

    real = ex.erdos_kac_distance(grid, tables_medium)
    assert real.extra["non_increasing"] and real.extra["cap_ok"]
    assert real.verdict == "pass"
    for wrong in (big_omega, omega - (n % 2 == 0)):  # Omega; omega without 2
        rep = ex.erdos_kac_distance(grid, with_omega(wrong))
        assert not rep.extra["non_increasing"]
        assert rep.verdict == "fail"
    shifted = ex.erdos_kac_distance(grid, with_omega(omega + 1))
    assert shifted.extra["non_increasing"]  # the rate alone misses a shift
    assert not shifted.extra["cap_ok"]
    assert shifted.verdict == "fail"


def test_selberg_trend_z1(tables_small):
    # the squarefree-count error oscillates around zero, so the drift clause
    # can flip at small x; only the terminal value is stable here
    rep = ex.selberg_trend(1.0, False, [100, 1000, 10**4], tables_small)
    assert rep.observed[-1] == pytest.approx(1.0, abs=0.01)
    assert rep.verdict in ("pass", "fail")


def test_selberg_trend_weighted_z1(tables_small):
    rep = ex.selberg_trend(1.0, True, [100, 1000, 10**4], tables_small)
    assert rep.observed[-1] == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("weighted", [False, True])
def test_selberg_trend_rejects_grid_points_below_two(tables_small, weighted):
    # the predictor x log^(z-1) x is 0 at x = 1
    with pytest.raises(RangeError):
        ex.selberg_trend(2.0, weighted, [1], tables_small)
    with pytest.raises(RangeError):
        ex.selberg_trend(1.7, weighted, [1, 100, 1000], tables_small)
    assert ex.selberg_trend(2.0, weighted, [2], tables_small).observed[0] > 0


def test_selberg_trend_short_grid_is_informational(tables_small):
    rep = ex.selberg_trend(2.0, False, [1000, 10**4], tables_small)
    assert rep.verdict == "informational"


def test_scan_and_convergence_agree_at_base_point(tables_small):
    # the v = c point of a scan equals the plain ratio at the same (x, k, c)
    x, k, c, p = 5000, 3, 0.3, 2
    scan = ex.monotonicity_scan(x, k, c, p, [0.2, c, 0.4], tables_small)
    conv = ex.ratio_convergence(k, c, [10, 100, 1000, x], tables_small)
    assert scan.observed[1] == pytest.approx(conv.observed[-1], rel=1e-14)
