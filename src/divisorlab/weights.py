"""Multiplicative prime weights and companion multiplicative quantities.

A weight assigns a base constant to every prime, with finitely many
per-prime overrides; it is only ever evaluated on squarefree integers,
where its value is the product of its values at the distinct primes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .sieve import SieveTables, chunks


@dataclass(frozen=True)
class PrimeWeight:
    """Multiplicative weight: base_c at every prime except finitely many overrides.

    In strict mode (the default) all values must stay strictly below
    1/(k_context - 1), the regime where the averaged small-divisor
    comparison is meaningful; non-strict mode lifts the cap so the
    breakdown region can be explored.
    """

    base_c: float
    overrides: dict[int, float] = field(default_factory=dict)
    k_context: int = 2
    strict_mode: bool = True

    def __post_init__(self):
        if self.k_context < 2:
            raise DomainError(f"k_context={self.k_context} must be >= 2")
        if self.base_c < 0:
            raise DomainError(f"base_c={self.base_c} must be >= 0")
        for p, v in self.overrides.items():
            if p < 2:
                raise DomainError(f"override key {p} is not a prime")
            if v < 0:
                raise DomainError(f"override value {v} at p={p} must be >= 0")
        if self.strict_mode:
            cap = 1.0 / (self.k_context - 1)
            bad = [v for v in (self.base_c, *self.overrides.values()) if v >= cap]
            if bad:
                raise DomainError(
                    f"strict mode requires every value < 1/(k-1) = {cap}; got {bad}"
                )

    def value_at(self, p: int) -> float:
        return self.overrides.get(p, self.base_c)

    def override_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.overrides))

    def with_override(self, p: int, v: float) -> "PrimeWeight":
        ov = dict(self.overrides)
        ov[p] = v
        return PrimeWeight(self.base_c, ov, self.k_context, self.strict_mode)


def _prime_product_table(upper: int, tables: SieveTables, factor) -> np.ndarray:
    """out[m] = product of factor(p) over the distinct primes p of m, m = 0..upper.

    out[0] = out[1] = 1.  One chunked pass of n -> n / spf(n) over
    tables.spf carries P(m), the largest prime of m, and rad(m), and sets
    out[m] = out[rad(m) / P(m)] * factor(P(m)).  Every prime of rad(m) / P(m)
    is below P(m), so the factors are multiplied in ascending prime order
    and out[m] has the bits of the per-prime product; a non-squarefree m
    gets the value of its radical.  P and rad are kept only up to upper / 2,
    the largest n / spf(n).
    """
    if upper > tables.limit:
        raise RangeError(f"upper={upper} beyond table limit")
    out = np.ones(upper + 1)
    half = upper // 2
    big = np.zeros(half + 1, dtype=np.uint32)
    rad = np.ones(half + 1, dtype=np.uint32)
    spf = tables.spf
    for a, b in chunks(2, upper + 1):
        p = spf[a:b]
        q = np.arange(a, b, dtype=np.uint32) // p
        big_n = np.maximum(big[q], p)
        rad_n = np.where(spf[q] != p, rad[q] * p, rad[q])
        out[a:b] = out[rad_n // big_n] * factor(big_n.astype(np.float64))
        if a <= half:
            k = min(b, half + 1) - a
            big[a : a + k] = big_n[:k]
            rad[a : a + k] = rad_n[:k]
    return out


def g_table(upper: int, tables: SieveTables) -> np.ndarray:
    """Table of g(m) = prod p/(p+1) over the distinct primes p of m, m = 0..upper.

    The factors are multiplied in ascending prime order, so every caller
    gets the same bits; a non-squarefree m gets g(rad m).

    Raises:
        RangeError: if upper exceeds the table limit.
    """
    return _prime_product_table(upper, tables, lambda p: p / (p + 1.0))


def e_table(upper: int, tables: SieveTables) -> np.ndarray:
    """Table of e(m) = sum of 1/sqrt(d) over the divisors d of squarefree m, m = 0..upper.

    Uses the multiplicative product form prod (1 + 1/sqrt(p)), factors in
    ascending prime order; agrees with the divisor-sum enumeration because
    the summand is multiplicative.  A non-squarefree m gets e(rad m).

    Raises:
        RangeError: if upper exceeds the table limit.
    """
    return _prime_product_table(upper, tables, lambda p: 1.0 + 1.0 / np.sqrt(p))
