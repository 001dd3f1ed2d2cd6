#!/usr/bin/env python3
"""Counting small parts across every ordered k-fold factorization.

Writing a squarefree n as an ordered product of k parts assigns each of
its primes to one of k slots.  At least one part is always small
(d^k <= n, by pigeonhole) and at most k-1 can be, but on average one
expects about k/2 of them to be small.  The census counts the small parts
over every assignment exactly, by a closed form over the small divisors
of n rather than a walk over the k^omega assignments; samples at growing
omega show the mean drifting toward k/2.
"""

from divisorlab import build_sieve
from divisorlab.census import census, census_sample, census_sample_synthetic

tables = build_sieve(10**6)

rec = census(30, 3, tables)
print(f"n = 30, k = 3: tau_3 = {rec.tau_k}, g_3 = {rec.g_k}, "
      f"mean small parts per factorization = {rec.ratio:.4f}")

print("\nk = 2 pairing: each divisor pair (d, n/d) has exactly one small member,")
rec = census(4199, 2, tables)  # 4199 = 13 * 17 * 19
print(f"so g_2 = tau_2 exactly: n = 4199 gives {rec.g_k} = {rec.tau_k}")

print("\nmean g_3 / tau_3 against the k/2 = 1.5 heuristic (seeded samples):")
for omega_t in (3, 4, 5, 6):
    _, summ = census_sample(omega_t, 3, 40, 7, tables)
    print(f"  omega = {omega_t}: mean = {summ.mean_ratio:.4f} "
          f"(range [{summ.min_ratio:.3f}, {summ.max_ratio:.3f}])")

print("\nhigher omega via products of small primes (a 12-prime n is ~7e12,")
print("far beyond any sieve, but the census only needs its prime list):")
for omega_t in (8, 10, 12):
    _, summ = census_sample_synthetic(omega_t, 3, 20, 7, tables)
    print(f"  omega = {omega_t}: mean = {summ.mean_ratio:.4f}, "
          f"|mean - 1.5| = {summ.half_k_distance:.4f}")
print("\nthe gap narrows as omega grows; the k/2 value itself stays a heuristic.")
