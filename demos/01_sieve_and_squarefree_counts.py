#!/usr/bin/env python3
"""Build the factor table and look at what lives inside it.

Everything else in divisorlab reads its one byte per integer: the
distinct-prime count omega(n), with a flag bit set when n is not
squarefree, from which the Mobius function follows.  This script builds
it at 10^6, checks the classical squarefree density 6/pi^2 against the
exact count, and prints how squarefree integers distribute over omega
classes.
"""

import math

from divisorlab import build_sieve, distinct_primes, omega_class_counts
from divisorlab.sieve import NOT_SQUAREFREE, coprime_squarefree_counts

LIMIT = 10**6

tables = build_sieve(LIMIT)
print(f"tables built up to {LIMIT:,}")
key = int(tables.key[30])
omega = key & (NOT_SQUAREFREE - 1)
mu = (-1) ** omega if key < NOT_SQUAREFREE else 0
print(f"  primes of 30 = {distinct_primes(30, tables)}, mu[30] = {mu}, omega[30] = {omega}")

print("\nexact squarefree counts vs (6/pi^2) x:")
XS = (10**3, 10**4, 10**5, 10**6)
for x, q in zip(XS, coprime_squarefree_counts(XS, 1, tables).tolist()):
    density = 6 / math.pi**2 * x
    print(f"  x = {x:>9,}: count = {q:>7,}   (6/pi^2)x = {density:>11.1f}   gap = {q - density:+.1f}")

print("\nsquarefree n <= 1e6 per omega class (distinct prime divisors):")
for om, count in sorted(omega_class_counts(LIMIT, tables).items()):
    bar = "#" * max(1, count * 60 // 300000)
    print(f"  omega = {om}: {count:>7,}  {bar}")

print("\ncoprimality restriction: squarefree n <= 1e6 coprime to 30:")
q30 = int(coprime_squarefree_counts(LIMIT, 30, tables))
g30 = (2 / 3) * (3 / 4) * (5 / 6)
print(f"  exact {q30:,} vs g(30)*(6/pi^2)*x = {g30 * 6 / math.pi**2 * LIMIT:,.1f}")
