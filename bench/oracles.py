"""Recounts written apart from divisorlab, used by the benchmark's checks.

Nothing here imports divisorlab.  Plain-Python loops serve at reduced
sizes, and one block-wise numpy pass (trial division of each block by the
primes up to the square root) serves at full size.  Exact quantities are
computed in integers or Fractions.
"""

import functools
import math
from fractions import Fraction
from math import isqrt

import numpy as np


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division: {p: exponent}."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    out = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def mu(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def omega(n: int) -> int:
    return len(factorize(n))


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, by integer bisection."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


@functools.lru_cache(maxsize=8)
def primes_to(n: int) -> tuple[int, ...]:
    """Primes <= n by a plain sieve of Eratosthenes (kept for reuse, so a tuple)."""
    if n < 2:
        return ()
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def omega_table(limit: int, block: int = 1 << 20) -> tuple[np.ndarray, np.ndarray]:
    """(omega, squarefree) arrays over 0..limit, by block-wise trial division.

    Each block starts as the integers themselves; dividing out every prime
    up to sqrt(limit) with its full multiplicity leaves 1 or the single
    prime factor above the root, which adds one more to omega.
    """
    om = np.zeros(limit + 1, dtype=np.uint8)
    sqf = np.zeros(limit + 1, dtype=bool)
    primes = primes_to(isqrt(limit))
    for lo in range(1, limit + 1, block):
        hi = min(lo + block - 1, limit)
        rem = np.arange(lo, hi + 1, dtype=np.int64)
        o = np.zeros(hi - lo + 1, dtype=np.uint8)
        s = np.ones(hi - lo + 1, dtype=bool)
        for p in primes:
            if p * p > hi:
                break
            o[(-lo) % p :: p] += 1
            q = p
            while q <= hi:
                rem[(-lo) % q :: q] //= p
                q *= p
            s[(-lo) % (p * p) :: p * p] = False
        o += (rem > 1).astype(np.uint8)
        om[lo : hi + 1] = o
        sqf[lo : hi + 1] = s
    return om, sqf


def omega_flag_histograms(om: np.ndarray, sqf: np.ndarray, keys) -> dict:
    """For each (x, primes) in keys: {(j, flags): #squarefree n <= x with omega(n) = j}.

    om and sqf are omega_table's arrays; bit i of flags is set when
    primes[i] divides n; at most six primes.
    """
    code = np.where(sqf, om, 31).astype(np.uint8)  # 31 marks n that are not squarefree
    xs_of = {}
    for x, primes in keys:
        xs_of.setdefault(tuple(primes), set()).add(x)
    out = {}
    for primes, xs in xs_of.items():
        bits = len(primes)
        if bits > 6:
            raise ValueError("at most six primes")
        key = code[1 : max(xs) + 1].astype(np.uint16 if bits > 3 else np.uint8) << bits
        for i, p in enumerate(primes):
            key[p - 1 :: p] |= 1 << i
        counts = np.zeros(32 << bits, dtype=np.int64)
        lo = 0
        for x in sorted(xs):  # one pass per prime set: each x adds its segment
            counts += np.bincount(key[lo:x], minlength=32 << bits)
            lo = x
            out[x, primes] = {(j >> bits, j & ((1 << bits) - 1)): int(c)
                              for j, c in enumerate(counts) if c and j >> bits != 31}
    return out


def omega_histograms(limit: int, xs) -> dict[int, dict[int, int]]:
    """For each x in xs: {j: #squarefree n <= x with omega(n) = j}."""
    hists = omega_flag_histograms(*omega_table(limit), [(x, ()) for x in xs])
    return {x: {j: c for (j, _), c in hists[x, ()].items()} for x in xs}


# ---------------------------------------------------------------------------
# divisor sums


def _weight(p: int, base: float, overrides: dict) -> Fraction:
    return Fraction(overrides.get(p, base))


def s_full_exact(x: int, base: float, overrides: dict) -> Fraction:
    """sum over squarefree n <= x of prod_{p|n} (1 + h(p)), h at exact float values."""
    total = Fraction(0)
    for n in range(1, x + 1):
        f = factorize(n)
        if any(e > 1 for e in f.values()):
            continue
        term = Fraction(1)
        for p in f:
            term *= 1 + _weight(p, base, overrides)
        total += term
    return total


def s_small_exact(x: int, k: int, base: float, overrides: dict) -> Fraction:
    """sum over squarefree n <= x of h(d) over divisors d of n with d**k <= n."""
    total = Fraction(0)
    for n in range(1, x + 1):
        f = factorize(n)
        if any(e > 1 for e in f.values()):
            continue
        r = iroot(n, k)
        divs = [(1, Fraction(1))]
        for p in f:
            hp = _weight(p, base, overrides)
            divs += [(d * p, v * hp) for d, v in divs if d * p <= r]
        total += sum(v for _, v in divs)
    return total


def squarefree_multiple_counts(sqf: np.ndarray, x: int, k: int) -> list[tuple[int, int]]:
    """(d, #squarefree multiples n of d with d**k <= n <= x) for squarefree d with d**k <= x."""
    return [(d, int(np.count_nonzero(sqf[d**k : x + 1 : d])))
            for d in range(1, iroot(x, k) + 1) if sqf[d]]


def s_small_from_counts(counts: list[tuple[int, int]], base: float, overrides: dict) -> Fraction:
    """S_small, exact, from squarefree_multiple_counts: sum of h(d) times the count of d."""
    total = Fraction(0)
    for d, count in counts:
        total += count * math.prod((_weight(p, base, overrides) for p in factorize(d)), start=Fraction(1))
    return total


def project_flags(hist: dict, primes, subset) -> dict:
    """A joint (omega, flags) histogram over primes, marginalised onto the primes in subset
    (flag bit i for subset[i])."""
    bits = [primes.index(p) for p in subset]
    out = {}
    for (j, flags), cnt in hist.items():
        key = (j, sum(1 << i for i, b in enumerate(bits) if flags >> b & 1))
        out[key] = out.get(key, 0) + cnt
    return out


def s_full_from_flag_histogram(hist: dict, c: float, values) -> Fraction:
    """S_full with weight values[i] at the i-th flagged prime and c at all others, exact:
    sum over classes (j, flags) of count (1 + c)**(j - |flags|) prod_{i in flags} (1 + values[i])."""
    one_c = 1 + Fraction(c)
    one_v = [1 + Fraction(v) for v in values]
    total = Fraction(0)
    for (j, flags), cnt in hist.items():
        term = cnt * one_c ** (j - flags.bit_count())
        for i, f in enumerate(one_v):
            if flags >> i & 1:
                term *= f
        total += term
    return total


def s_full_from_histogram(hist: dict[int, int], c: float) -> Fraction:
    """S_full with constant weight c: sum_j count_j (1 + c)**j, exact."""
    return s_full_from_flag_histogram({(j, 0): cnt for j, cnt in hist.items()}, c, ())


def pairs_from_histogram(hist: dict[int, int]) -> int:
    """sum over squarefree n <= x of 2**omega(n): all (d, n) pairs with d | n."""
    return sum(cnt << j for j, cnt in hist.items())


def h_series_loop(x: int, base: float, overrides: dict, p: int) -> float:
    """sum over squarefree j <= x, p not dividing j, of g(j) h(j) / j."""
    terms = []
    for j in range(1, x + 1):
        if j % p == 0:
            continue
        f = factorize(j)
        if any(e > 1 for e in f.values()):
            continue
        t = 1.0
        for q in f:
            t *= q / (q + 1.0) * overrides.get(q, base)
        terms.append(t / j)
    return math.fsum(terms)


def selberg_weighted_loop(x: int, z: float) -> float:
    """sum over squarefree n <= x of z**omega(n) prod_{q|n} q/(q+1)."""
    terms = []
    for n in range(1, x + 1):
        f = factorize(n)
        if any(e > 1 for e in f.values()):
            continue
        t = z ** len(f)
        for q in f:
            t *= q / (q + 1.0)
        terms.append(t)
    return math.fsum(terms)


def selberg_unweighted_exact(hist: dict[int, int], z: int) -> int:
    return sum(cnt * z**j for j, cnt in hist.items())


def euler_product(z: float, truncation: int, shift: int) -> float:
    """prod over p <= truncation of (1 + z/(p + shift)) (1 - 1/p)**z."""
    logs = [math.log1p(z / (p + shift)) + z * math.log1p(-1.0 / p) for p in primes_to(truncation)]
    return math.exp(math.fsum(logs))


def kolmogorov_distance_loop(x: int) -> float:
    """sup_t |F_x(t) - Phi(t)| of (omega(n) - loglog n)/sqrt(loglog n), 3 <= n <= x."""
    om, _ = omega_table(x)
    stat = []
    for n in range(3, x + 1):
        ll = math.log(math.log(n))
        stat.append((int(om[n]) - ll) / math.sqrt(ll))
    stat.sort()
    m = len(stat)
    worst = 0.0
    for i, s in enumerate(stat, start=1):
        phi = 0.5 * (1.0 + math.erf(s / math.sqrt(2.0)))
        worst = max(worst, i / m - phi, phi - (i - 1) / m)
    return worst


def normal_mass(a: float, b: float) -> float:
    return 0.5 * (math.erf(b / math.sqrt(2.0)) - math.erf(a / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# census


def census_closed_form(n: int, k: int) -> int:
    """k * sum over divisors d of squarefree n with d**k <= n of (k-1)**(omega(n) - omega(d))."""
    primes = list(factorize(n))
    r = iroot(n, k)
    divs = [(1, 0)]
    for p in primes:
        divs += [(d * p, o + 1) for d, o in divs if d * p <= r]
    w = len(primes)
    return k * sum((k - 1) ** (w - o) for _, o in divs)
