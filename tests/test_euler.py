import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import loop_oracles as oracle

from divisorlab.errors import DomainError, RangeError
from divisorlab.euler import (
    WEIGHT_ERROR_THRESHOLD,
    ZETA2,
    f0,
    f1,
    gamma_fn,
    gaussian_window,
    predict_s_full,
    predict_s_small,
    selberg_exact,
)
from divisorlab.experiments import selberg_trend
from divisorlab.sieve import build_sieve, primes_up_to
from divisorlab.weights import _SERIES_BLOCK, g_table


def test_f0_at_one_telescopes_to_inverse_zeta2():
    const = f0(1.0)
    assert abs(const.value - 1.0 / ZETA2) < 1e-6
    assert const.value * ZETA2 == pytest.approx(1.0, abs=1e-6)


def test_f0_near_zero_is_one():
    assert abs(f0(1e-9).value - 1.0) < 1e-6


def test_f0_self_consistency_across_truncations():
    a = f0(2.0, 10**6)
    b = f0(2.0, 10**7)
    assert abs(math.log(a.value) - math.log(b.value)) <= a.tail_bound + b.tail_bound


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("fn", [f0, f1])
def test_truncation_tail_budget(fn, z):
    small = fn(z, 10**4)
    big = fn(z, 10**5)
    gap = abs(math.log(small.value) - math.log(big.value))
    assert gap <= small.tail_bound + big.tail_bound


def test_f0_tail_bound_meets_budget_at_default_truncation():
    assert f0(4.0, 10**6).tail_bound <= 1e-6


def test_f1_identity_with_f0():
    for c in [0.1 * i for i in range(1, 10)] + [1.0]:
        assert abs(f1(c).value - ZETA2 * f0(1.0 + c).value) < 1e-6


def test_f_validation():
    with pytest.raises(DomainError):
        f0(0.0)
    with pytest.raises(DomainError):
        f0(4.5)
    with pytest.raises(DomainError):
        f1(1.0, truncation=50)


def test_f_values_against_slow_oracle():
    # direct float product over the same primes, no log-sum trick
    primes = primes_up_to(10**4)
    for z in (0.5, 2.0):
        direct = 1.0
        for p in map(float, primes):
            direct *= (1.0 + z / p) * (1.0 - 1.0 / p) ** z
        assert f0(z, 10**4).value == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("truncation", [100, 10**4, 10**6])
def test_f_values_equal_the_fsum_oracle(truncation):
    # the vectorised sum of the negated log-factors rounds as math.fsum does
    for z in (1e-300, 0.3, 1.0, 2.0, 4.0):
        assert f0(z, truncation).value == oracle.euler_product_fsum(z, truncation, 0)
        assert f1(z, truncation).value == oracle.euler_product_fsum(z, truncation, 1)


def test_gamma_classical_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-9
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-9)


def test_gamma_against_mpmath():
    mpmath.mp.dps = 30
    for z in [0.05, 0.1, 0.77, 1.5, 3.25, 10.0, 29.5]:
        assert gamma_fn(z) == pytest.approx(float(mpmath.gamma(z)), rel=1e-10)


def test_gamma_recurrence_grid():
    for i in range(1, 31):
        z = 0.1 * i
        resid = abs(gamma_fn(z + 1.0) / (z * gamma_fn(z)) - 1.0)
        assert resid <= 1e-9


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(31.0)


def test_gaussian_window_values():
    assert gaussian_window(-10.0, 10.0) == pytest.approx(1.0, abs=1e-7)
    assert gaussian_window(0.0, 0.0) == 0.0
    # independent quadrature oracle
    mpmath.mp.dps = 25
    density = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    oracle = float(mpmath.quad(density, [-1, 1]))
    assert gaussian_window(-1.0, 1.0) == pytest.approx(oracle, abs=1e-7)
    assert gaussian_window(-1.0, 1.0) == pytest.approx(0.6826895, abs=1e-7)


def test_gaussian_window_rejects_reversed():
    with pytest.raises(DomainError):
        gaussian_window(1.0, -1.0)


def test_predictor_ratio_cancels_algebraically():
    for c in (0.1, 0.3, 0.9):
        for k in (2, 3, 5):
            quotient = predict_s_small(10**6, k, c) / predict_s_full(10**6, c)
            assert quotient == pytest.approx(float(k) ** (-c), rel=1e-14)


def test_predictor_normalized_form_is_x_free():
    c = 0.3
    vals = [predict_s_full(x, c) / (x * math.log(x) ** c) for x in (10, 10**4, 10**7)]
    assert max(vals) - min(vals) < 1e-15 * max(vals)


def test_predictor_consistent_with_shifted_product_route():
    for c in [0.1 * i for i in range(1, 10)]:
        direct = f1(c).value / (c * gamma_fn(c)) / ZETA2
        shifted = f0(1.0 + c).value / gamma_fn(1.0 + c)
        assert direct == pytest.approx(shifted, rel=1e-6)


def test_predictor_domain():
    with pytest.raises(DomainError):
        predict_s_full(100, 0.0)
    with pytest.raises(DomainError):
        predict_s_full(100, 1.0)
    with pytest.raises(DomainError):
        predict_s_small(100, 1, 0.3)
    with pytest.raises(DomainError):
        predict_s_full(2, 0.3)


def test_selberg_exact_examples(tables_small):
    assert selberg_exact(10, 2.0, False, tables_small) == 17.0
    assert selberg_exact(10, 1.0, False, tables_small) == 7.0
    expected = 1 + 2 / 3 + 3 / 4 + 5 / 6 + 1 / 2 + 7 / 8 + (2 / 3) * (5 / 6)
    assert selberg_exact(10, 1.0, True, tables_small) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_selberg_exact_rejects_non_positive_and_non_finite_z(tables_small, z, weighted):
    # NaN fails "z <= 0" as well as "z > 0", so it is tested on its own
    with pytest.raises(DomainError):
        selberg_exact(1000, z, weighted, tables_small)


def test_selberg_exact_matches_direct_sum(tables_small):
    x = 10**4
    mu, omega = oracle.mu_of(tables_small), oracle.omega_of(tables_small)
    for z in (2.0, 3.0):
        direct = sum(int(z) ** int(omega[n]) for n in range(1, x + 1) if mu[n] != 0)
        assert selberg_exact(x, z, False, tables_small) == float(direct)
    # non-integer z: the float sum over the classes of the masked bincount
    classes = oracle.omega_class_counts_masked(x, tables_small)
    assert selberg_exact(x, 2.5, False, tables_small) == math.fsum(
        c * 2.5**j for j, c in classes.items())
    direct_w = math.fsum(
        2.0 ** int(omega[n]) * oracle.g_eval(n, tables_small)
        for n in range(1, 2001)
        if mu[n] != 0
    )
    assert selberg_exact(2000, 2.0, True, tables_small) == pytest.approx(
        direct_w, rel=1e-13
    )
    # the weighted sum is the correctly rounded sum of its float terms
    terms = (2.0 ** omega[1:2001].astype(float)) * g_table(2000, tables_small)[1:]
    assert selberg_exact(2000, 2.0, True, tables_small) == math.fsum(terms[mu[1:2001] != 0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(z=st.floats(0.0, 4.0, exclude_min=True), x=st.integers(1, 10**4))
@example(z=1.7, x=10**4)  # a float sum of the rounded class terms misses by one ulp
def test_selberg_exact_is_the_rounded_exact_class_sum(tables_small, z, x):
    classes = oracle.omega_class_counts_masked(x, tables_small)
    want = float(sum(Fraction(c) * Fraction(z) ** j for j, c in classes.items()))
    assert selberg_exact(x, z, False, tables_small) == want


@pytest.mark.parametrize("x", [1, 2, 3, 30, 1000, 99991, 2**18 - 1, 2**18, 2**18 + 1])
def test_weighted_selberg_equals_per_prime_loop_oracle(tables_medium, x):
    # small x, and x at and around 2**18
    for z in (0.5, 1.0, 1.7, 2.5, 4.0):
        terms = oracle.selberg_terms(x, z, tables_medium)
        assert selberg_exact(x, z, True, tables_medium) == math.fsum(terms)


@pytest.mark.parametrize("weighted", [True, False])
def test_selberg_trend_equals_per_point_sums(tables_medium, weighted):
    # one term build at the largest point; each point sums its own prefix
    B = _SERIES_BLOCK
    grid = [2, 3, B - 1, B, B + 1, 2 * B + 1, 3 * B, 600_000]
    for z in (0.5, 1.7, 2.5):
        rep = selberg_trend(z, weighted, grid, tables_medium)
        constant, gamma_z = (f1(z) if weighted else f0(z)).value, gamma_fn(z)
        want = [
            selberg_exact(x, z, weighted, tables_medium) / (x * math.log(x) ** (z - 1.0) / gamma_z * constant)
            for x in grid
        ]
        assert [v.hex() for v in rep.observed] == [v.hex() for v in want]


def test_weighted_selberg_peak_stays_below_twenty_bytes_per_integer():
    # the terms, one g table and the int16 exponent: about 18 bytes per integer
    x = 2**20
    tables = build_sieve(x)
    tracemalloc.start()
    try:
        selberg_exact(x, 2.5, True, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * x


def test_selberg_exact_validation(tables_small):
    with pytest.raises(DomainError):
        selberg_exact(10, 0.0, False, tables_small)
    with pytest.raises(RangeError):
        selberg_exact(10**5, 1.0, False, tables_small)


def test_weight_threshold_constant():
    # solving 2^(2/3)*c - 1 < c for c gives the bound 1/(2^(2/3) - 1)
    assert abs(WEIGHT_ERROR_THRESHOLD - 1.0 / (2.0 ** (2 / 3) - 1.0)) == 0.0
    assert abs(WEIGHT_ERROR_THRESHOLD - 1.70241) < 1e-5
