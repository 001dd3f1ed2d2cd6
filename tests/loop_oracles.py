"""Slow, plainly correct routes that the production code is checked against.

These are the earlier production routes and the per-value references:
- the sieve fills omega with one strided pass per prime up to limit/2 and
  strikes the multiples of each p*p for the squarefree flag, and the g
  table multiplies in one factor per prime up to upper; mu_of and
  omega_of read mu and omega back off a table's key;
- the e table (criterion 04's sums of 1/sqrt(d) over the divisors d) is
  built the same way, here only;
- h, g and e at one squarefree n from its primes (h_eval, g_eval, e_of_m,
  the last by enumerating the divisors), and the squarefree count coprime
  to one m by a boolean mask (squarefree_coprime_count);
- the class counts enumerate the divisors of each squarefree n (n-major),
  or count the squarefree cofactors of each squarefree d (d-major), one
  boolean mask over the cofactor range per d; both take the primes of
  every n from one strided pass per prime;
- the inverse of the prime split (compose_decomposition), which must
  give the counts back;
- the omega classes are a bincount of omega gathered over a length-x
  squarefree mask, and the (omega, flags) histogram counts one key per
  n <= x, block by block (blocked_omega_flag_histogram), or reads the
  squarefree rank at the floor values x // b and turns the signed sums
  into the histogram by a superset sum and a sign pass
  (omega_flag_histogram); the full class counts spread each bin of it
  over the submasks of its flags (spread_histogram);
- the census walks all k**omega(n) assignments of primes to slots, and
  its sample's population is one comparison over the whole key
  (census_population);
- the series terms and the weighted Selberg terms are built from
  whole-length temporaries, the latter with the per-prime g table, the
  Euler products sum their log-factors by math.fsum, and the Kolmogorov
  distance evaluates math.erf at every sample point;
- the Erdos-Kac statistic of every n <= x, block by block, and the
  distance of its sorted sample through Phi interpolated on nodes
  (erdos_kac_statistic, kolmogorov_distance).
"""

import math
from collections import Counter
from math import isqrt

import numpy as np

from divisorlab.divisor_sums import ClassCounts, integer_kth_root
from divisorlab.errors import DomainError, InsufficientPopulationError
from divisorlab.weights import PrimeWeight, g_table
from divisorlab.sieve import NOT_SQUAREFREE, SieveTables, factor_squarefree, primes_up_to, superset_sums


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

    key = omega  # omega(n), with the flag set on the n that are not squarefree
    key[~squarefree] |= NOT_SQUAREFREE
    key.setflags(write=False)
    return SieveTables(limit=limit, key=key)


def mu_of(tables: SieveTables) -> np.ndarray:
    """mu(n) for n = 0..limit (int8): (-1)**omega(n) on squarefree n, else 0."""
    key = tables.key
    mu = np.where(key & 1, -1, 1).astype(np.int8)
    mu[key >= NOT_SQUAREFREE] = 0
    return mu


def omega_of(tables: SieveTables) -> np.ndarray:
    """omega(n) for n = 0..limit (uint8), the key less its squarefree flag."""
    return tables.key & (NOT_SQUAREFREE - 1)


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


# ---------------------------------------------------------------------------
# values at one integer


def h_eval(n: int, w: PrimeWeight, tables: SieveTables) -> float:
    """Weight of a squarefree n: product of per-prime values; h_eval(1) = 1."""
    out = 1.0
    for p in factor_squarefree(n, tables):
        out *= w.value_at(p)
    return out


def g_eval(m: int, tables: SieveTables) -> float:
    """Product of p/(p+1) over the distinct primes of squarefree m; g(1) = 1."""
    out = 1.0
    for p in factor_squarefree(m, tables):
        out *= p / (p + 1)
    return out


def e_of_m(m: int, tables: SieveTables) -> float:
    """Sum of 1/sqrt(d) over all 2**omega(m) divisors of squarefree m, compensated."""
    divisors = [1]
    for p in factor_squarefree(m, tables):
        divisors += [d * p for d in divisors]
    return math.fsum(1.0 / math.sqrt(d) for d in divisors)


def squarefree_coprime_count(x: int, m: int, tables: SieveTables) -> int:
    """Squarefree n <= x with gcd(n, m) = 1, by striking the primes of m from a mask."""
    mask = tables.key[1 : x + 1] < NOT_SQUAREFREE
    for p in factor_squarefree(m, tables):
        mask[p - 1 :: p] = False
    return int(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# class counts; each returns the ClassCounts the production route returns


def _prime_lists(x: int) -> list[list[int]]:
    """lists[n], the ascending distinct primes of n for n = 0..x (lists[0] = [])."""
    lists = [[] for _ in range(x + 1)]
    for p in primes_up_to(x).tolist():
        for n in range(p, x + 1, p):
            lists[n].append(p)
    return lists


def _flag_of_map(ops):
    return {p: 1 << i for i, p in enumerate(ops)}


def _divisor_triples(primes: list[int], flag_of: dict[int, int]):
    """All divisors of prod(primes) as (value, omega, flags), by doubling."""
    triples = [(1, 0, 0)]
    for p in primes:
        fb = flag_of.get(p, 0)
        triples += [(v * p, om + 1, fl | fb) for v, om, fl in triples]
    return triples


def full_n_major(x, ops, tables) -> ClassCounts:
    ops = tuple(sorted(ops))
    flag_of = _flag_of_map(ops)
    mu = mu_of(tables)
    primes_of = _prime_lists(x)
    out: Counter = Counter()
    for n in range(1, x + 1):
        if mu[n] == 0:
            continue
        for _, om, fl in _divisor_triples(primes_of[n], flag_of):
            out[(om, fl)] += 1
    return ClassCounts(x=x, override_primes=ops, classes=dict(out))


def squarefree_coprime_count_range(lo: int, hi: int, mprimes: list[int], tables: SieveTables) -> int:
    """Count squarefree n in [lo, hi] divisible by none of mprimes (inclusive)."""
    lo = max(lo, 1)
    if hi < lo:
        return 0
    mask = tables.key[lo : hi + 1] < NOT_SQUAREFREE
    for p in mprimes:
        first = lo + (-lo) % p
        if first <= hi:
            mask[first - lo :: p] = False
    return int(np.count_nonzero(mask))


def _d_major(x, lo_of, r, ops, tables) -> ClassCounts:
    """Each squarefree d <= r counts its squarefree cofactors m coprime to d
    with lo_of(d) <= m <= x // d, added to the class of d."""
    ops = tuple(sorted(ops))
    flag_of = _flag_of_map(ops)
    mu = mu_of(tables)
    primes_of = _prime_lists(r)
    out: Counter = Counter()
    for d in range(1, r + 1):
        if mu[d] == 0:
            continue
        primes = primes_of[d]
        cnt = squarefree_coprime_count_range(lo_of(d), x // d, primes, tables)
        if cnt:
            fl = 0
            for p in primes:
                fl |= flag_of.get(p, 0)
            out[(len(primes), fl)] += cnt
    return ClassCounts(x=x, override_primes=ops, classes=dict(out))


def full_d_major(x, ops, tables) -> ClassCounts:
    return _d_major(x, lambda d: 1, x, ops, tables)


def small_d_major(x, k, ops, tables) -> ClassCounts:
    # n = d*m with d**k <= n <= x, i.e. m in [d**(k-1), x//d]
    return _d_major(x, lambda d: d ** (k - 1), integer_kth_root(x, k), ops, tables)


def small_n_major(x, k, ops, tables) -> ClassCounts:
    ops = tuple(sorted(ops))
    flag_of = _flag_of_map(ops)
    mu = mu_of(tables)
    primes_of = _prime_lists(x)
    out: Counter = Counter()
    for n in range(1, x + 1):
        if mu[n] == 0:
            continue
        r_n = integer_kth_root(n, k)
        for val, om, fl in _divisor_triples(primes_of[n], flag_of):
            if val <= r_n:
                out[(om, fl)] += 1
    return ClassCounts(x=x, override_primes=ops, classes=dict(out))


def compose_decomposition(part_with_p: ClassCounts, part_without_p: ClassCounts, p: int) -> ClassCounts:
    """Reassemble a split: shift the p-part up by p and add the rest."""
    ops = part_with_p.override_primes
    if p not in ops or part_without_p.override_primes != ops:
        raise DomainError("decomposition parts must share an override set containing p")
    pbit = 1 << ops.index(p)
    classes: Counter = Counter()
    for (om, fl), count in part_with_p.classes.items():
        classes[(om + 1, fl | pbit)] += count
    for (om, fl), count in part_without_p.classes.items():
        classes[(om, fl)] += count
    return ClassCounts(x=part_with_p.x, override_primes=ops, classes=dict(classes))


def omega_class_counts_masked(x, tables) -> dict[int, int]:
    mask = tables.key[1 : x + 1] < NOT_SQUAREFREE
    counts = np.bincount(omega_of(tables)[1 : x + 1][mask])
    return {int(j): int(c) for j, c in enumerate(counts) if c > 0}


# Integers per block of blocked_omega_flag_histogram: its key and the
# bincount's int64 copy of it stay near 2 MB.
HIST_BLOCK = 2**18


def blocked_omega_flag_histogram(x: int, ops: tuple[int, ...], tables: SieveTables) -> np.ndarray:
    """omega_flag_histogram by one pass over n <= x.

    The key omega(n) | flags(n) << 4 is built block by block in the
    narrowest unsigned type that holds it; the unused omega value 15 marks
    the n that are not squarefree, and their row is dropped after counting.
    Byte keys (r <= 4) are counted two at a time: a uint16 view of the
    block indexes 65,536 bins, whose row and column sums are the counts of
    the two bytes.
    """
    r = len(ops)
    bins = 16 << r
    pairs = r <= 4
    dtype = np.uint8 if pairs else np.uint16 if r <= 12 else np.uint32
    counts = np.zeros(1 << 16 if pairs else bins, dtype=np.int64)
    odd = np.zeros(256, dtype=np.int64)  # the last byte of odd-length blocks
    block = max(HIST_BLOCK, bins)  # no block shorter than its histogram
    for lo in range(1, x + 1, block):
        hi = min(lo + block, x + 1)
        key = tables.key[lo:hi].astype(dtype)
        np.minimum(key, 15, out=key)  # every table key of a non-squarefree n is above 15
        for i, q in enumerate(ops):
            key[(-lo) % q :: q] |= 1 << (4 + i)
        if pairs:
            even = len(key) & ~1
            counts += np.bincount(key[:even].view(np.uint16), minlength=1 << 16)
            if even < len(key):
                odd[key[-1]] += 1
        else:
            counts += np.bincount(key, minlength=bins)
    if pairs:
        counts = counts.reshape(256, 256)
        counts = (counts.sum(axis=0) + counts.sum(axis=1) + odd)[:bins]
    counts = counts.reshape(1 << r, 16).T  # row omega, column flags
    counts[15] = 0
    return counts


# omega(n) <= 9 for n <= 2**31: the product of the first ten primes exceeds 2**31.
OMEGA_ROWS = 10


def omega_flag_histogram(x: int, ops: tuple[int, ...], tables: SieveTables) -> np.ndarray:
    """Counts of squarefree n <= x by omega(n) and the override primes dividing n,
    from the squarefree rank at the floor values x // b.

    Returns an int64 array h of shape (16, 2**r), r = len(ops): h[i, f] counts
    the squarefree n <= x with omega(n) = i that are divisible by ops[j]
    exactly for the bits j set in f.  ops are distinct primes; rows 10-15
    are zero (omega(n) <= 9 for n <= 2**31).

    The squarefree n divisible by the primes of a set T and coprime to
    the other primes of T's product t are n = t*m, m coprime to t, with the
    generating function prod_{p | t} (1 + z p**-s)**-1 over all squarefree
    m.  So with b over the products of override primes (Omega(b) <= 9, as
    no row i >= 10 is kept),

        G[i, supp(b)] += (-1)**Omega(b) * N_{i - Omega(b)}(x // b)

    gives (-1)**|T| times the count of those n with omega(n) = i divisible
    by all of T, and h[i, S] = (-1)**|S| * sum over T >= S of G[i, T], a
    superset sum over the 2**r masks.  N is SieveTables.squarefree_omega_rank,
    read once per distinct x // b (at most 2 * sqrt(x) of them).
    """
    r = len(ops)
    # the b of each Omega(b), each b once: its primes in ascending index
    level = (np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    levels = [level]  # (b, index of b's last prime, supp(b) as bits)
    for _ in range(1, OMEGA_ROWS):
        b, last, supp = level
        grown = []
        for q, p in enumerate(ops):
            more = np.flatnonzero((last <= q) & (b <= x // p))
            grown.append((b[more] * p, np.full(len(more), q), supp[more] | 1 << q))
        if not sum(len(g[0]) for g in grown):
            break
        level = tuple(np.concatenate(col) for col in zip(*grown))
        levels.append(level)
    y, at = np.unique(np.concatenate([x // b for b, _, _ in levels]), return_inverse=True)
    counts = tables.squarefree_omega_rank(y)
    hist = np.zeros((1 << r, 16), dtype=np.int64)  # G, then h, mask-major
    lo = 0
    for e, (b, _, supp) in enumerate(levels):
        terms = counts[at[lo : lo + len(b)], : OMEGA_ROWS - e]
        lo += len(b)
        np.add.at(hist, (supp[:, None], np.arange(e, OMEGA_ROWS)), -terms if e & 1 else terms)
    superset_sums(hist)
    hist *= 1 - 2 * (np.bitwise_count(np.arange(1 << r)) & 1).astype(np.int64)[:, None]
    return hist.T


def spread_histogram(hist: np.ndarray) -> Counter:
    """The full class counts of an (omega, flags) histogram, bin by bin.

    A squarefree n with omega(n) = i and flags f has C(i - |f|, j)
    divisors of class (|s| + j, s) for each submask s of f.
    """
    classes: Counter = Counter()
    for i, f in np.argwhere(hist).tolist():
        count = int(hist[i, f])
        free = i - f.bit_count()
        s = f
        while True:  # the submasks of f, from f down to 0
            for j in range(free + 1):
                classes[(s.bit_count() + j, s)] += math.comb(free, j) * count
            if s == 0:
                break
            s = (s - 1) & f
    return classes


# ---------------------------------------------------------------------------
# census


def census_population(omega_target: int, tables: SieveTables) -> np.ndarray:
    """The squarefree n <= limit with omega_target primes, by one comparison
    over the whole key (the population census_sample draws from)."""
    if omega_target < 1:
        raise InsufficientPopulationError(
            "omega_target=0 selects only n=1, which sits outside the bound regime"
        )
    # no n has omega >= NOT_SQUAREFREE, but the key of a non-squarefree n may
    key = tables.key if omega_target < NOT_SQUAREFREE else tables.key[:0]
    return np.flatnonzero(key == omega_target)


def count_small_parts_walk(primes, k, r) -> int:
    """Small slots (product <= r) summed over every assignment of primes to k slots."""
    slots = [1] * k
    small = sum(1 for s in slots if s <= r)
    total = 0

    def assign(i, small):
        nonlocal total
        if i == len(primes):
            total += small
            return
        p = primes[i]
        for s in range(k):
            old = slots[s]
            new = old * p
            slots[s] = new
            delta = (1 if new <= r else 0) - (1 if old <= r else 0)
            assign(i + 1, small + delta)
            slots[s] = old

    assign(0, small)
    return total


# ---------------------------------------------------------------------------
# series terms and the Kolmogorov distance


def series_terms(x, w, p, tables) -> np.ndarray:
    mask = tables.key[: x + 1] < NOT_SQUAREFREE
    if p <= x:
        mask[p::p] = False
    exponent = omega_of(tables)[: x + 1].astype(np.int64)
    hv_adjust = np.ones(x + 1)
    for q in w.override_primes():
        if q <= x:
            exponent[q::q] -= 1
            hv_adjust[q::q] *= w.overrides[q]
    hv = np.power(float(w.base_c), exponent) * hv_adjust
    gv = g_table(x, tables)
    j = np.arange(x + 1, dtype=np.float64)
    j[0] = 1.0
    return np.where(mask, hv * gv / j, 0.0)


def selberg_terms(x, z, tables) -> np.ndarray:
    """z**omega(n) * g(n) at index n - 1 for squarefree n <= x, else 0."""
    omega = omega_of(tables)[1 : x + 1].astype(np.float64)
    terms = np.power(z, omega) * loop_g_table(x)[1:]
    return np.where(tables.key[1 : x + 1] < NOT_SQUAREFREE, terms, 0.0)


def euler_product_fsum(z: float, truncation: int, shift: int) -> float:
    """The product of euler.f0 (shift 0) or f1 (shift 1): exp of math.fsum
    over the same float log-factors, a Python pass over every prime."""
    p = primes_up_to(truncation).astype(np.float64)
    return math.exp(math.fsum(np.log1p(z / (p + shift)) + z * np.log1p(-1.0 / p)))


def kolmogorov_distance_erf(sorted_stat: np.ndarray) -> float:
    m = len(sorted_stat)
    scaled = sorted_stat / math.sqrt(2.0)
    phi = 0.5 * (1.0 + np.fromiter(map(math.erf, scaled), np.float64, count=m))
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - phi), np.max(phi - (i - 1) / m)))


# Elements per block of erdos_kac_statistic and kolmogorov_distance.
BLOCK = 1 << 16
# Nodes of the interpolated Phi in kolmogorov_distance.
PHI_NODES = 2**14 + 1


def erdos_kac_statistic(x: int, tables: SieveTables) -> np.ndarray:
    """(omega(n) - loglog n)/sqrt(loglog n) for 3 <= n <= x, in order of n."""
    stat = np.empty(x - 2)
    for lo in range(0, len(stat), BLOCK):
        _erdos_kac_block(lo + 3, stat[lo : lo + BLOCK], tables)
    return stat


def _erdos_kac_block(n0: int, out: np.ndarray, tables: SieveTables) -> np.ndarray:
    """out, filled with the statistic above for n = n0, n0 + 1, ..."""
    out[:] = tables.key[n0 : n0 + len(out)] & (NOT_SQUAREFREE - 1)
    loglog = np.log(np.log(np.arange(n0, n0 + len(out), dtype=np.float64)))
    out -= loglog
    out /= np.sqrt(loglog)
    return out


def kolmogorov_distance(sorted_stat: np.ndarray) -> float:
    """sup_t |F(t) - Phi(t)| for the empirical distribution F of the sample.

    The i-th order statistic gives the one-sided differences i/m - Phi and
    Phi - (i-1)/m.  Phi is first interpolated linearly on PHI_NODES
    nodes over the sample range: in u = t/sqrt(2), |d^2 Phi/du^2| < 1/2,
    so nodes h apart err by at most h**2/16, plus rounding that 2**-40
    covers.  Only indices whose interpolated difference lies within twice
    that bound of the largest one can hold the supremum; there Phi is
    evaluated by math.erf in the float expressions of the direct formula,
    so the result has its bits.  The differences are computed block by
    block, twice for the few blocks that hold a candidate.
    """
    m = len(sorted_stat)
    root2 = math.sqrt(2.0)
    nodes = np.linspace(sorted_stat[0] / root2, sorted_stat[-1] / root2, PHI_NODES)
    h = float(np.max(np.diff(nodes)))
    tol = h * h / 16.0 + 2.0**-40
    node_phi = 0.5 * (1.0 + np.array([math.erf(u) for u in nodes]))

    def gap(lo):  # i/m - Phi on one block; Phi - (i-1)/m is 1/m - gap
        block = sorted_stat[lo : lo + BLOCK] / root2
        g = np.arange(lo + 1, lo + len(block) + 1, dtype=np.float64)
        g /= m
        g -= np.interp(block, nodes, node_phi)
        return g

    starts = range(0, m, BLOCK)
    extremes = [(float(np.max(g)), float(np.min(g))) for g in map(gap, starts)]
    floor = max(max(e[0] for e in extremes), 1.0 / m - min(e[1] for e in extremes)) - 2.0 * tol
    cand = []
    for lo, (top, bottom) in zip(starts, extremes):
        if top >= floor or bottom <= 1.0 / m - floor:
            g = gap(lo)
            cand.append(lo + np.flatnonzero((g >= floor) | (g <= 1.0 / m - floor)))
    cand = np.concatenate(cand)
    i = cand + 1
    phi = 0.5 * (1.0 + np.array([math.erf(u) for u in sorted_stat[cand] / root2]))
    return float(max(np.max(i / m - phi), np.max(phi - (i - 1) / m)))
