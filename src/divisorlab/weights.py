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

    out[0] = out[1] = 1.  The primes up to sqrt(upper) multiply into their
    multiples in ascending order.  An m <= upper has at most one prime P
    above sqrt(upper), its largest (m = s*P with s <= upper / P < P), so P
    multiplies last, at step s for every P <= upper / s at once.  So the
    factors meet in ascending prime order and every caller gets the bits
    of the per-prime product; a non-squarefree m gets g(rad m).

    Raises:
        RangeError: if upper exceeds the table limit.
    """
    if upper > tables.limit:
        raise RangeError(f"upper={upper} beyond table limit")
    out = np.ones(upper + 1)
    primes, root = tables.primes(), isqrt(upper)
    cut, end = np.searchsorted(primes, [root, upper], side="right")
    factor = primes[:end] / (primes[:end] + 1.0)
    for p, f in zip(primes[:cut].tolist(), factor[:cut].tolist()):
        out[p::p] *= f
    big, f_big = primes[cut:end], factor[cut:]
    for s in range(1, root + 1):
        n = np.searchsorted(big, upper // s, side="right")
        out[s * big[:n]] *= f_big[:n]
    return out
