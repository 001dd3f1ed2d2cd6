#!/usr/bin/env python3
"""The normal law hiding in omega(n), and how slowly it shows up.

Normalizing the distinct-prime count by its loglog mean and spread gives
a statistic that is asymptotically standard normal.  At desk scale the
window masses still sit visibly above their Gaussian limits -- loglog of
a million is only 2.6 -- which is exactly why window checks here are
reported as trends instead of hard assertions.
"""

import numpy as np

from divisorlab import build_sieve, erdos_kac_histogram, gaussian_window
from divisorlab.sieve import NOT_SQUAREFREE

LIMIT = 10**6
tables = build_sieve(LIMIT)

print("empirical window mass of (omega(n) - loglog n)/sqrt(loglog n), n <= 1e6:")
for a, b in ((-0.5, 0.5), (-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0)):
    rep = erdos_kac_histogram(LIMIT, a, b, tables)
    print(f"  [{a:+.1f}, {b:+.1f}]: fraction = {rep.observed[0]:.4f}   "
          f"normal mass = {gaussian_window(a, b):.4f}")

print("\nthe [-1, 1] window mass as x grows; omega takes integer values, so the")
print("mass jumps whenever a window edge crosses an integer band:")
for x in (10**4, 10**5, 10**6):
    rep = erdos_kac_histogram(x, -1.0, 1.0, tables)
    print(f"  x = {x:>9,}: {rep.observed[0]:.4f}  (limit 0.6827)")

print("\nraw distribution of omega(n) for n <= 1e6:")
counts = np.bincount(tables.key[2:] & (NOT_SQUAREFREE - 1))
for om, cnt in enumerate(counts):
    if cnt:
        print(f"  omega = {om}: {cnt:>7,}  {'#' * max(1, cnt * 50 // 400000)}")
