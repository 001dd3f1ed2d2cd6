"""Per-prime-loop builders that the production tables are checked against.

These are the earlier production routes: the sieve fills omega with one
strided pass per prime up to limit/2, and the g and e tables multiply in
one factor per prime up to upper.  They are slow but plainly correct.
"""

import math
from math import isqrt

import numpy as np

from divisorlab.sieve import SieveTables, primes_up_to


def loop_build_sieve(limit: int) -> SieveTables:
    spf = np.zeros(limit + 1, dtype=np.uint32)
    root = isqrt(limit)
    for p in range(2, root + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # Untouched entries are 0, 1 and the primes: each is its own spf.
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest

    idx = np.arange(limit + 1, dtype=np.uint32)
    is_prime = (spf == idx) & (idx >= 2)
    primes = np.flatnonzero(is_prime)

    omega = np.zeros(limit + 1, dtype=np.uint8)
    half = limit // 2
    for p in primes[primes <= half]:
        omega[p::p] += 1
    # Primes above limit/2 have themselves as their only multiple in range.
    omega[primes[primes > half]] = 1

    squarefree = np.ones(limit + 1, dtype=bool)
    squarefree[0] = False
    for p in primes[primes <= root]:
        squarefree[p * p :: p * p] = False

    mu = np.where(omega & 1, -1, 1).astype(np.int8)
    mu[~squarefree] = 0
    mu[0] = 0

    for arr in (spf, mu, omega):
        arr.setflags(write=False)
    return SieveTables(limit=limit, spf=spf, mu=mu, omega=omega)


def loop_g_table(upper: int) -> np.ndarray:
    out = np.ones(upper + 1)
    for q in map(int, primes_up_to(upper)):
        out[q::q] *= q / (q + 1.0)
    return out


def loop_e_table(upper: int) -> np.ndarray:
    out = np.ones(upper + 1)
    for p in map(int, primes_up_to(upper)):
        out[p::p] *= 1.0 + 1.0 / math.sqrt(p)
    return out
