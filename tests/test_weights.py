import math

import numpy as np
import pytest

from divisorlab.errors import DomainError, RangeError
from divisorlab.weights import _SERIES_BLOCK, PrimeWeight, g_table
from divisorlab.sieve import build_sieve
from loop_oracles import e_of_m, g_eval, h_eval, loop_e_table, loop_g_table, mu_of, omega_of


def test_h_eval_examples(tables_small):
    assert h_eval(30, PrimeWeight(0.5), tables_small) == pytest.approx(0.125)
    assert h_eval(1, PrimeWeight(0.7, strict_mode=False), tables_small) == 1.0
    w = PrimeWeight(0.5, {2: 0.1})
    assert h_eval(6, w, tables_small) == pytest.approx(0.05)


def test_h_eval_rejects_non_squarefree(tables_small):
    with pytest.raises(DomainError):
        h_eval(12, PrimeWeight(0.5), tables_small)


def test_h_multiplicative(tables_small):
    w = PrimeWeight(0.3, {3: 0.05}, k_context=3)
    for a, b in [(2, 15), (7, 10), (7, 33), (7, 39), (5, 6), (11, 21)]:
        assert math.gcd(a, b) == 1
        assert h_eval(a * b, w, tables_small) == pytest.approx(
            h_eval(a, w, tables_small) * h_eval(b, w, tables_small), rel=1e-15
        )


def test_g_eval_examples(tables_small):
    assert g_eval(6, tables_small) == pytest.approx(0.5)
    assert g_eval(1, tables_small) == 1.0
    assert g_eval(2, tables_small) == pytest.approx(2 / 3)


def test_g_multiplicative(tables_small):
    assert g_eval(30, tables_small) == pytest.approx(
        g_eval(2, tables_small) * g_eval(15, tables_small)
    )


def test_e_of_m_examples(tables_small):
    assert e_of_m(1, tables_small) == 1.0
    assert e_of_m(2, tables_small) == pytest.approx(1 + 1 / math.sqrt(2))
    # 8-term divisor sum for m = 30
    expected = sum(1 / math.sqrt(d) for d in (1, 2, 3, 5, 6, 10, 15, 30))
    assert e_of_m(30, tables_small) == pytest.approx(expected, rel=1e-15)
    assert 2 * (2.0 ** 3) ** (2 / 3) == pytest.approx(8.0)
    assert e_of_m(30, tables_small) < 8.0


def test_e_table_matches_divisor_enumeration(tables_small):
    # the product table that criterion 04 reads, against the divisor sum
    table = loop_e_table(5000)
    for m in (1, 2, 6, 30, 105, 2310, 4199):
        assert table[m] == pytest.approx(e_of_m(m, tables_small), rel=1e-12)


def test_strict_mode_enforces_cap():
    with pytest.raises(DomainError):
        PrimeWeight(0.5, k_context=3)  # cap is 1/(3-1) = 0.5, strict
    PrimeWeight(0.5, k_context=3, strict_mode=False)
    with pytest.raises(DomainError):
        PrimeWeight(0.3, {5: 0.5}, k_context=3)
    with pytest.raises(DomainError):
        PrimeWeight(-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_rejected(bad):
    # NaN passes a plain >= 0 test and any strict cap test
    for strict in (True, False):
        with pytest.raises(DomainError, match="finite"):
            PrimeWeight(bad, strict_mode=strict)
        with pytest.raises(DomainError, match="finite"):
            PrimeWeight(0.1, {2: bad}, strict_mode=strict)
        with pytest.raises(DomainError, match="finite"):
            PrimeWeight(0.1, {3: 0.2}, strict_mode=strict).with_override(5, bad)


def test_zero_weight_is_indicator(tables_small):
    w = PrimeWeight(0.0)
    assert h_eval(1, w, tables_small) == 1.0
    assert h_eval(30, w, tables_small) == 0.0


def test_pointwise_bound_under_strict_mode(tables_small):
    # tau(p)^(2/3) * g(p) * h(p) <= 2^(2/3) * (3/2) * 1/(k-1) at every prime
    k = 3
    w = PrimeWeight(0.49, {7: 0.2}, k_context=k)
    cap = 2 ** (2 / 3) * 1.5 / (k - 1)
    for p in (2, 3, 5, 7, 11, 97):
        val = 2 ** (2 / 3) * g_eval(p, tables_small) * w.value_at(p)
        assert val <= cap


def test_override_value_lookup():
    w = PrimeWeight(0.3, {5: 0.1}, k_context=3)
    assert w.value_at(5) == 0.1
    assert w.value_at(7) == 0.3
    assert w.override_primes() == (5,)
    w2 = w.with_override(2, 0.05)
    assert w2.override_primes() == (2, 5)
    assert w.override_primes() == (5,)  # original unchanged


def test_e_bound_sweep_vectorized(tables_small):
    upper = 10**4
    table = loop_e_table(upper)
    mask = mu_of(tables_small)[: upper + 1] != 0
    tau = 2.0 ** omega_of(tables_small)[: upper + 1].astype(np.float64)
    idx = np.flatnonzero(mask)
    assert np.all(table[idx] < 2.0 * tau[idx] ** (2.0 / 3.0))


# Powers of two, multiples of 2**18 +-1 and of the window width
# _SERIES_BLOCK = 2**15 +-1, and p**2 - 1, p**2 and p**2 + 1, where the
# primes split at sqrt(upper) gain or lose one; all read from one table.
PRODUCT_UPPERS = sorted(
    {2**k + d for k in range(1, 20) for d in (-1, 0, 1)}
    | {m * 2**18 + d for m in (1, 2, 3) for d in (-1, 1)}
    | {m * _SERIES_BLOCK + d for m in (1, 2, 3) for d in (-1, 0, 1)}
    | {p * p + d for p in (2, 3, 5, 7, 31, 881) for d in (-1, 0, 1)}
)
PRODUCT_TABLES = build_sieve(3 * 2**18 + 1)


@pytest.mark.parametrize("upper", PRODUCT_UPPERS)
def test_g_and_e_tables_equal_per_prime_loop_bitwise(upper):
    assert np.array_equal(g_table(upper, PRODUCT_TABLES), loop_g_table(upper))


def test_g_and_e_tables_equal_per_prime_loop_at_scale():
    upper = 1_500_000
    tables = build_sieve(upper)
    assert g_table(upper, tables).tobytes() == loop_g_table(upper).tobytes()


def test_product_tables_reject_upper_beyond_limit(tables_small):
    with pytest.raises(RangeError):
        g_table(10**4 + 1, tables_small)


def _radical(m: int) -> int:
    rad, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            rad *= q
            while m % q == 0:
                m //= q
        q += 1
    return rad * m


def test_g_table_gives_a_non_squarefree_m_the_value_of_its_radical():
    # on both sides of each edge of the windows that write the large primes
    upper = 3 * _SERIES_BLOCK + 40
    got = g_table(upper, PRODUCT_TABLES)
    near = {m for e in range(_SERIES_BLOCK, upper, _SERIES_BLOCK) for m in range(e - 40, e + 40)}
    squareful = [m for m in sorted(near) if _radical(m) != m]
    assert len(squareful) > 40
    for m in squareful:
        assert got[m] == got[_radical(m)]
