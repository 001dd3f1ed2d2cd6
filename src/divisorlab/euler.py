"""Euler-product constants, gamma, the Gaussian window, and main-term predictors.

The two product constants are evaluated as compensated sums of
log-factors over sieved primes, exponentiated once, and carry an analytic
bound on the omitted tail so different truncations can be compared
honestly.  The exact Selberg sums that the predictors are checked against
weight the omega-class counts exactly (unweighted) or sum the
per-integer weight terms of divisor_sums (weighted).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divisor_sums import _dyadic, _dyadic_total, _weight_terms, fsum_nonnegative
from .errors import DomainError, RangeError
from .sieve import SieveTables, omega_class_counts, primes_up_to

ZETA2 = math.pi**2 / 6

# Largest constant prime weight for which the sqrt-scale error layer of the
# full divisor sum stays below the x*log^c(x) main term: solving
# 2^(2/3)*c - 1 < c gives c < 1/(2^(2/3) - 1).
WEIGHT_ERROR_THRESHOLD = 1.0 / (2.0 ** (2.0 / 3.0) - 1.0)

DEFAULT_TRUNCATION = 10**6

# pi(t) <= t / (ln t - 1.1) holds for t >= 60184 (Dusart); below that we
# fall back to the crude integer tail sum.
_DUSART_MIN = 60184


@dataclass(frozen=True)
class EulerConstant:
    """A truncated Euler-product value with its tail budget.

    tail_bound bounds |log(true/value)|, i.e. the log-scale contribution of
    all primes beyond truncation_prime.
    """

    z: float
    value: float
    truncation_prime: int
    tail_bound: float


@lru_cache(maxsize=None)
def _primes_cached(truncation: int) -> np.ndarray:
    return primes_up_to(truncation)


def _squared_reciprocal_prime_tail(truncation: int, prime_count: int) -> float:
    """Upper bound for sum of 1/p^2 over primes p > truncation."""
    if truncation >= _DUSART_MIN:
        bound = 2.0 / ((math.log(truncation) - 1.1) * truncation)
        bound -= prime_count / truncation**2
        return max(bound, 0.0)
    return 1.0 / truncation


def _euler_product(z: float, truncation: int, shift: int, linear_coeff: float) -> EulerConstant:
    """The product over the primes up to truncation of (1 + z/(p+shift)) * (1 - 1/p)**z.

    The log-factors are summed exactly and rounded once.  Each is
    negative: in z, log(1 + z/(p+s)) + z*log(1 - 1/p) is 0 at z = 0 with
    derivative 1/(p+s+z) + log(1 - 1/p) < 1/p + log(1 - 1/p) < 0.  So
    their sum is -fsum_nonnegative of their negatives, which equals
    math.fsum of them.
    """
    if not 0.0 < z <= 4.0:
        raise DomainError(f"z={z} outside supported range (0, 4]")
    if truncation < 100:
        raise DomainError(f"truncation={truncation} must be >= 100")
    primes = _primes_cached(truncation)
    p = primes.astype(np.float64)
    value = math.exp(-fsum_nonnegative(-(np.log1p(z / (p + shift)) + z * np.log1p(-1.0 / p))))
    # Per-prime log factor beyond the cut is bounded by
    # (0.521*z^2 + linear_coeff*z) / p^2 once p >= 100 >= 25*z.
    coeff = 0.521 * z * z + linear_coeff * z
    tail = coeff * _squared_reciprocal_prime_tail(truncation, len(primes))
    return EulerConstant(
        z=z, value=value, truncation_prime=int(primes[-1]), tail_bound=tail
    )


def f0(z: float, truncation: int = DEFAULT_TRUNCATION) -> EulerConstant:
    """prod over primes of (1 + z/p) * (1 - 1/p)**z, truncated.

    At z = 1 the product telescopes to prod (1 - 1/p^2) = 1/zeta(2).
    """
    return _euler_product(z, truncation, shift=0, linear_coeff=0.506)


def f1(z: float, truncation: int = DEFAULT_TRUNCATION) -> EulerConstant:
    """prod over primes of (1 + z/(p+1)) * (1 - 1/p)**z, truncated.

    Factor by factor this equals zeta(2)-normalized f0 at z+1:
    f1(z) = (pi^2/6) * f0(1 + z).
    """
    return _euler_product(z, truncation, shift=1, linear_coeff=1.506)


# Lanczos coefficients, g = 7, n = 9 (standard double-precision set).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(z: float) -> float:
    """Gamma function on (0, 30], Lanczos approximation (relative error ~1e-13)."""
    if not 0.0 < z <= 30.0:
        raise DomainError(f"z={z} outside supported range (0, 30]")
    if z < 0.5:
        return gamma_fn(z + 1.0) / z
    zz = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i, coef in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += coef / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * math.exp(-t) * acc


def gaussian_window(a: float, b: float) -> float:
    """Standard normal measure of [a, b]."""
    if a > b:
        raise DomainError(f"window [{a}, {b}] is empty the wrong way (a > b)")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return 0.5 * (math.erf(b * inv_sqrt2) - math.erf(a * inv_sqrt2))


def predict_s_full(x: float, c: float) -> float:
    """Main-term prediction (6/pi^2) * f1(c)/(c*Gamma(c)) * x * log(x)**c.

    A reporting aid for trend checks; never asserted against exact sums at
    a fixed tolerance (no rate is available for the omitted lower order).
    f1 is truncated at DEFAULT_TRUNCATION.
    """
    _check_predict_args(x, c)
    lead = f1(c).value / (c * gamma_fn(c))
    return lead / ZETA2 * x * math.log(x) ** c


def predict_s_small(x: float, k: int, c: float) -> float:
    """predict_s_full divided by k**c (the small-divisor main term)."""
    if k < 2:
        raise DomainError(f"k={k} must be >= 2")
    return predict_s_full(x, c) / float(k) ** c


def _check_predict_args(x: float, c: float) -> None:
    if not 0.0 < c < 1.0:
        raise DomainError(f"c={c} must lie in (0, 1)")
    if x < 3:
        raise DomainError(f"x={x} must be >= 3")


def selberg_exact(x: int, z: float, weighted: bool, tables: SieveTables) -> float:
    """Exact sum over squarefree n <= x of z**omega(n), optionally times g(n).

    Unweighted sums weight the omega-class counts by z**j exactly, as
    divisor_sums weights its class counts (_dyadic_total), and round once,
    for every z.  The weighted variant (g(n) = prod p/(p+1) over p | n) is
    the correctly rounded sum of its float terms, which
    divisor_sums._weight_terms builds as it builds the h_series terms:
    base z, no overrides.  The one-point case of _selberg_sums.
    """
    return _selberg_sums([x], z, weighted, tables)[0]


def _selberg_sums(xs: list[int], z: float, weighted: bool, tables: SieveTables) -> list[float]:
    """selberg_exact at every x of xs.  The weighted terms do not depend on
    how far they run, so they are built once, at the largest x, and each
    x sums its prefix."""
    if not 0 < z < math.inf:  # NaN fails too
        raise DomainError(f"z={z} must be positive and finite")
    for x in xs:
        if not 1 <= x <= tables.limit:
            raise RangeError(f"x={x} outside table range 1..{tables.limit}")
    if not weighted:
        zm, ze = _dyadic(z)
        return [
            float(_dyadic_total((c * zm**j, ze * j) for j, c in omega_class_counts(x, tables).items()))
            for x in xs
        ]
    terms = _weight_terms(max(xs), z, {}, tables)
    return [fsum_nonnegative(terms[: x + 1]) for x in xs]
