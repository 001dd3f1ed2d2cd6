"""Multiplicative prime weights and companion multiplicative quantities.

A weight assigns a base constant to every prime, with finitely many
per-prime overrides; it is only ever evaluated on squarefree integers,
where its value is the product of its values at the distinct primes.
"""

from dataclasses import dataclass, field
from math import inf, isqrt

import numpy as np

from .errors import DomainError, RangeError
from .sieve import SieveTables

# Integers per block of the series layer: g_table's windows and the bound
# on its wheel, the weight terms of divisor_sums and its prefix sums
# (256 KB of float64).
_SERIES_BLOCK = 1 << 15


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
        # Written as 0 <= v < inf, so that NaN fails too.
        if not 0 <= self.base_c < inf:
            raise DomainError(f"base_c={self.base_c} must be finite and >= 0")
        for p, v in self.overrides.items():
            if p < 2:
                raise DomainError(f"override key {p} is not a prime")
            if not 0 <= v < inf:
                raise DomainError(f"override value {v} at p={p} must be finite and >= 0")
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


def g_table(upper: int, tables: SieveTables) -> np.ndarray:
    """Table of g(m) = prod p/(p+1) over the distinct primes p of m, m = 0..upper.

    out[0] = out[1] = 1.  The primes up to upper are read off the table's
    key, and those up to sqrt(upper) multiply into their multiples in
    ascending order.  The first few, whose product W fits in
    a block (W = 30030 once upper >= 169), do so once, into a wheel of W
    entries that the table repeats: each divides m exactly when it
    divides m mod W.  An m <= upper has at most one prime P
    above sqrt(upper), its largest (m = s*P with s <= upper / P < P), so
    before P, out[s*P] holds the same ascending product as out[s], and
    out[s*P] = out[s] * f_P is what multiplying P in last gives.  Those
    entries are written one aligned window of _SERIES_BLOCK integers at a
    time, for all s <= sqrt(upper) at once: the P of s in a window are
    the run of large primes from the first with s*P in the window (above
    sqrt(upper) in the first) to the first with s*P past it, found by
    searchsorted.  So every caller gets the bits of the per-prime product
    at any upper; a non-squarefree m gets g(rad m).

    Raises:
        RangeError: if upper exceeds the table limit.
    """
    if upper > tables.limit:
        raise RangeError(f"upper={upper} beyond table limit")
    primes, root = tables.primes(upper), isqrt(upper)
    cut = int(np.searchsorted(primes, root, side="right"))
    factor = primes / (primes + 1.0)
    # the wheel: the first k root primes, whose product fits in a block
    k = int(np.searchsorted(np.log(primes[:cut]).cumsum(), np.log(_SERIES_BLOCK), side="right"))
    wheel = np.ones(int(np.prod(primes[:k])))
    for p, f in zip(primes[:k].tolist(), factor[:k].tolist()):
        wheel[::p] *= f
    out = np.resize(wheel, upper + 1)
    out[0] = 1.0
    for p, f in zip(primes[k:cut].tolist(), factor[k:cut].tolist()):
        out[p::p] *= f
    big, f_big = primes[cut:], factor[cut:]
    s = np.arange(1, root + 1)
    first = np.searchsorted(big, -(-(root + 1) // s))
    for lo in range((root + 1) // _SERIES_BLOCK * _SERIES_BLOCK, upper + 1, _SERIES_BLOCK):
        # the run of s ends at the first P >= hi / s; the next window starts there
        stop = np.searchsorted(big, -(-min(lo + _SERIES_BLOCK, upper + 1) // s))
        count = stop - first
        i, at = np.repeat([first - np.cumsum(count) + count, s], count, axis=1)
        i += np.arange(len(i))
        out[at * big[i]] = out[at] * f_big[i]
        first = stop
    return out
