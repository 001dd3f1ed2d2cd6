"""Central divisor-sum aggregates over squarefree integers.

Every aggregate here -- the full divisor sum S_full(x) = sum mu^2(n) sum_{d|n} h(d),
its small-divisor restriction S_small(x,k) (only divisors with d^k <= n),
their ratio, and the prime-split A/B/C/D decomposition -- is computed by
first reducing the (d, n) pairs to exact integer counts per class
(omega(d), override-divisibility flags).  Weights enter only at the final
combine, done in exact rational arithmetic with a single rounding to
float, so any independent enumeration of the pairs must agree bit-for-bit.
Every float weight is an integer over a power of two, so that arithmetic
is integer sums over one common power of two, made a Fraction once.

The counts do not depend on the weight, so they are built once per
(x, override set) and weighted per request: ratio_from_counts and
abcd_from_counts weight a given pair of full and small counts (for a split
at p, counts_for_split builds them over the override set plus p), and
ratio and abcd are the wrappers that count first.  Each count has one
route, and both expand the same signed sum over the a built from given
primes (sieve._slot_multiples).  The full counts take the products b of
the override primes, read the squarefree omega rank N (the count behind
sieve.omega_class_counts and euler.selberg_exact) at the floor values
x // b, spread each flag set's signed sums over divisor classes by
binomials and add them up over the flag supersets in one pass.  The small
counts take, for all squarefree d <= x**(1/k) at once, the squarefree
cofactors coprime to d from sieve.coprime_squarefree_counts and bin them
by the class of d.  Both kernels take an array of x, so a trend
(experiments.ratio_convergence) counts all its grid points in one call
each; the one-x functions are its one-point case.  The per-n and per-d
enumerations and the (omega, flags) histograms they are checked against
live in the tests.

The per-d counts of the small route do not depend on the override set,
so each table keeps the last few of them (SieveTables.memo, keyed by
("small", x, k)) and bins them by (omega(d), flags) on every request: a
scan that asks again at the same x and k, over any override primes,
counts once.  The full counts cost a few lookups and are not kept.
Callers get their own dicts.

The excluded-prime series H(x) = sum g(j)h(j)/j is summed from float
terms built per request.  The memo also holds, under "series" and
outside the bound on the small counts, a weak reference to the last H
that h_series_cumulative built, with the exact bits of its weight and
its p: while the caller keeps that H, h_series and h_series_cumulative
with the same weight and p, at any x it reaches, read it instead of
summing again.  The reference keeps no array alive, and H is read-only:
a caller that writes into it gets ValueError instead of changing what
another caller reads.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, frexp, fsum, inf, isqrt, ldexp
import operator
import struct
import weakref

import numpy as np

from .errors import DomainError, RangeError
from .sieve import NOT_SQUAREFREE, SieveTables, _OMEGA_ROWS, _slot_multiples, coprime_squarefree_counts, superset_sums
from .weights import _SERIES_BLOCK, PrimeWeight, g_table

ClassKey = tuple[int, int]  # (distinct primes of d, override-divisibility bits)
_BINOMIAL = np.array([[comb(i, j) for j in range(16)] for i in range(16)], dtype=np.int64)  # C(i, j)


@dataclass(frozen=True)
class ClassCounts:
    """Exact (d, n)-pair counts grouped by divisor class.

    classes maps (omega_of_d, flags) -> count, where bit i of flags is set
    exactly when override_primes[i] divides d.  Counts are plain Python
    ints; two routes agree iff their ClassCounts compare equal.
    """

    x: int
    override_primes: tuple[int, ...]
    classes: dict[ClassKey, int]

    def total_pairs(self) -> int:
        return sum(self.classes.values())


@dataclass(frozen=True)
class RatioReport:
    x: int
    k: int
    weight: PrimeWeight
    s_full: float
    s_small: float
    ratio: float
    predicted_limit: float


@dataclass(frozen=True)
class AbcdDecomposition:
    """Split of both aggregates by divisibility by one prime p.

    S_small = h(p)*a + b and S_full = h(p)*c + d hold exactly; the exact
    rational values are kept alongside the rounded floats so identity
    residuals and the (a*v + b)/(c*v + d) prediction can be formed without
    rounding noise.
    """

    x: int
    k: int
    p: int
    weight: PrimeWeight
    a: float
    b: float
    c: float
    d: float
    a_exact: Fraction
    b_exact: Fraction
    c_exact: Fraction
    d_exact: Fraction

    @property
    def ad_minus_bc(self) -> float:
        return float(self.a_exact * self.d_exact - self.b_exact * self.c_exact)

    def predicted_ratio(self, v: float) -> float:
        """Ratio obtained by moving only the weight at p to v, all else frozen."""
        vf = Fraction(v)
        return float((self.a_exact * vf + self.b_exact) / (self.c_exact * vf + self.d_exact))


def integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, by exact integer arithmetic in O(log n) steps."""
    n = operator.index(n)
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    if k < 1:
        raise DomainError(f"k={k} must be >= 1")
    if k >= n.bit_length():  # 2**k > n
        return 1
    if k == 2:
        return isqrt(n)
    # Integer Newton from above: r stays >= the root and falls strictly
    # until it reaches it.
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# ---------------------------------------------------------------------------
# class-count construction


def _check_override_primes(ops: tuple[int, ...], tables: SieveTables) -> None:
    if len(ops) > 16:
        raise RangeError("more than 16 override primes is unsupported")
    if len(set(ops)) < len(ops):
        raise DomainError(f"override primes {ops} repeat")
    for p in ops:
        if p > tables.limit:
            raise RangeError(f"override prime {p} beyond table limit {tables.limit}")
        if not tables.is_prime(p):
            raise DomainError(f"override key {p} is not prime")


def full_class_counts(
    x: int,
    override_primes: tuple[int, ...],
    tables: SieveTables,
) -> ClassCounts:
    """Pair counts for the unrestricted divisor sum, from the omega rank.

    Each squarefree n is spread over divisor classes with binomial
    coefficients (for an empty override set this is exactly the statement
    that a squarefree n with omega(n) = i has C(i, j) divisors with j
    prime factors); _full_omega_identity does this for all n <= x at once.
    The one-point case of _full_counts_along.
    """
    return _full_counts_along([x], override_primes, tables)[0]


def _full_counts_along(xs, override_primes: tuple[int, ...], tables: SieveTables) -> list[ClassCounts]:
    """full_class_counts at every x of xs, from one _full_omega_identity call."""
    xs = _check_points(xs, tables)
    ops = tuple(sorted(override_primes))
    _check_override_primes(ops, tables)
    classes = _full_omega_identity(np.array(xs, dtype=np.int64), ops, tables)
    return [ClassCounts(x=x, override_primes=ops, classes=c) for x, c in zip(xs, classes)]


def _check_points(xs, tables: SieveTables) -> list[int]:
    """xs as ints (a NumPy integer becomes an int; a float raises TypeError), each in 1..limit."""
    xs = [operator.index(x) for x in xs]
    for x in xs:
        if not 1 <= x <= tables.limit:
            raise RangeError(f"x={x} outside table range 1..{tables.limit}")
    return xs


def _full_omega_identity(xs, ops, tables) -> list[dict[ClassKey, int]]:
    """The full class counts at each x of the int64 array xs, from the
    products b of the override primes.

    A squarefree n with omega(n) = i and override flags f has
    C(i - |f|, J - |s|) divisors of class (J, s) for each s <= f.  The n
    divisible by every prime of a set T of override primes are t*m, t the
    product of T and m squarefree and coprime to t, and those m have the
    series prod_{p | t} (1 + z p**-s)**-1 times that of all squarefree m.
    So with b over the products of override primes (sieve._slot_multiples,
    which stops at Omega(b) = 9, as N holds omega 0..9),

        G[T, i] = sum over supp(b) = T of (-1)**Omega(b) * N_{i - Omega(b)}(x // b)

    is (-1)**|T| times the count of those n with omega(n) = i.  Since
    sum_m (-1)**m C(n, m) C(N - m, j) = C(N - n, j - n), the count of class
    (J, s) is (-1)**|s| times the sum over T >= s of
    sum_i G[T, i] * C(i - |T|, J - |T|): each row of G spreads by
    binomials, and one superset sum over the 2**r masks adds them up.  N is
    SieveTables.squarefree_omega_rank, read once per distinct x // b over
    all of xs; G holds one row block per x, behind the mask axis.
    """
    rows = _OMEGA_ROWS  # N_0 .. N_9
    slots = (np.full(len(xs), p, dtype=np.int64) for p in ops)
    owner, quot, omega, used = _slot_multiples(xs, slots, most=rows - 1)
    y, at = np.unique(quot, return_inverse=True)
    counts = tables.squarefree_omega_rank(y)  # N at each distinct x // b
    col = np.arange(rows) - omega[:, None]  # b's term in column i is N_{i - Omega(b)}
    terms = np.where(col >= 0, counts[at[:, None], col], 0)  # a column below 0 wraps, then is dropped
    terms *= 1 - 2 * (omega[:, None] & 1)
    grid = np.zeros((1 << len(ops), len(xs), rows), dtype=np.int64)  # G, then its spread
    np.add.at(grid.reshape(-1, rows), used * len(xs) + owner, terms)  # row (T, x) of G
    size = np.bitwise_count(np.arange(len(grid))).astype(np.int64)  # |T|
    for t in range(min(len(ops), rows - 1) + 1):  # G[T, i] = 0 for i < |T| <= Omega(b)
        T = np.flatnonzero(size == t)
        grid[T, :, t:] = grid[T, :, t:] @ _BINOMIAL[: rows - t, : rows - t]
    superset_sums(grid)
    points, masks, js = np.nonzero(grid.transpose(1, 0, 2))
    values = (grid[masks, points, js] * (-1) ** size[masks]).tolist()
    keys = list(zip(js.tolist(), masks.tolist()))
    ends = np.searchsorted(points, np.arange(len(xs) + 1)).tolist()  # points ascend
    return [dict(zip(keys[a:b], values[a:b])) for a, b in zip(ends, ends[1:])]


def small_class_counts(
    x: int,
    k: int,
    override_primes: tuple[int, ...],
    tables: SieveTables,
) -> ClassCounts:
    """Pair counts restricted to small divisors (d**k <= n), counted per divisor.

    Each squarefree d <= x**(1/k) counts its squarefree cofactors m coprime
    to d with d**k <= d*m <= x, all d at once by coprime_squarefree_counts.
    The per-d counts are kept per (x, k) and binned by the class of d on
    each request.  The one-point case of _small_counts_along.
    """
    return _small_counts_along([x], k, override_primes, tables)[0]


def _small_counts_along(xs, k: int, override_primes: tuple[int, ...], tables: SieveTables) -> list[ClassCounts]:
    """small_class_counts at every x of xs; the per-d counts that the memo
    lacks come from one _small_coprime_ranks call."""
    xs = _check_points(xs, tables)
    if k < 2:
        raise DomainError(f"k={k} must be >= 2")
    ops = tuple(sorted(override_primes))
    _check_override_primes(ops, tables)
    wanted = list(dict.fromkeys(xs))
    missing = [x for x in wanted if ("small", x, k) not in tables.memo]
    fresh = dict(zip(missing, _small_coprime_ranks(np.array(missing, dtype=np.int64), k, tables))) if missing else {}
    # the kept ones first, so that keeping the fresh ones cannot drop them unread
    per_d = {x: _remembered(tables, ("small", x, k), lambda: fresh[x]) for x in wanted if x not in fresh}
    per_d.update((x, _remembered(tables, ("small", x, k), lambda: fresh[x])) for x in missing)
    out = []
    for x in xs:
        d, pairs = per_d[x]
        key = tables.key[d].astype(np.int64)  # omega(d): d is squarefree
        for i, p in enumerate(ops):
            key[d % p == 0] |= 1 << (4 + i)  # omega(d) <= 9 fits in 4 bits
        # The counts add up to at most x * (1 + ln x) < 2**53, so the float sums are exact.
        counts = np.bincount(key, weights=pairs)
        classes = {(int(b) & 15, int(b) >> 4): int(counts[b]) for b in np.flatnonzero(counts)}
        out.append(ClassCounts(x=x, override_primes=ops, classes=classes))
    return out


def _small_coprime_ranks(xs, k, tables) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per x of the int64 array xs: the squarefree d <= x**(1/k) and the
    pairs (d, m) of each (float64).

    n = d*m with d**k <= n <= x means m in [d**(k-1), x // d], so d adds
    Q(x // d; d) - Q(d**(k-1) - 1; d) pairs; both ranks of every d at
    every x come from one call.
    """
    k = min(k, int(xs.max()).bit_length())  # a larger k also leaves d = 1 alone; keeps k - 1 an int64
    roots = [integer_kth_root(x, k) for x in xs.tolist()]
    squarefree = np.flatnonzero(tables.key[: max(roots) + 1] < NOT_SQUAREFREE).astype(np.int64)
    lengths = np.searchsorted(squarefree, roots, side="right")
    d = np.concatenate([squarefree[:n] for n in lengths])
    ranks = coprime_squarefree_counts(
        np.concatenate([np.repeat(xs, lengths) // d, d ** (k - 1) - 1]), np.concatenate([d, d]), tables
    ).reshape(2, -1)
    pairs = (ranks[0] - ranks[1]).astype(np.float64)
    for arr in (d, pairs):
        arr.setflags(write=False)
    cuts = np.cumsum(lengths)[:-1]
    return list(zip(np.split(d, cuts), np.split(pairs, cuts)))


# Small-count entries a table keeps in SieveTables.memo (the series entry
# is not one of them): enough for what a few ratios, a prime split, a scan
# and a trend ask for at a handful of x.
_MEMO_ENTRIES = 32


def _remembered(tables: SieveTables, key: tuple, count):
    """The value at key in the table's memo, or else count(), then kept.

    At most _MEMO_ENTRIES values are kept, the least recently used going
    first; the series entry is not counted among them and stays.  Callers
    read the kept value itself, so count() returns read-only arrays.
    """
    memo = tables.memo
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    value = memo[key] = count()
    kept = [k for k in memo if k != "series"]
    if len(kept) > _MEMO_ENTRIES:
        del memo[kept[0]]
    return value


# ---------------------------------------------------------------------------
# weighting


def weighted_total(counts: ClassCounts, w: PrimeWeight) -> Fraction:
    """Exact rational value of the weighted aggregate.

    Weights are taken at their exact binary-float values, so algebraic
    identities between aggregates hold with no rounding at all.  Each
    value is m / 2**e with integers m and e >= 0, so the value of class
    (omega, flags), base**(omega - |flags|) times the overrides at the
    flags, is an integer product of mantissas over a power of two, and
    _dyadic_total adds the classes up as integers.
    """
    missing = set(w.overrides) - set(counts.override_primes)
    if missing:
        raise DomainError(
            f"counts were built without override primes {sorted(missing)}"
        )
    base_m, base_e = _dyadic(w.base_c)
    ov = [_dyadic(w.value_at(p)) for p in counts.override_primes]
    terms = []
    for (om, fl), count in counts.classes.items():
        free = om - fl.bit_count()
        m, e = base_m**free, base_e * free
        for i, (vm, ve) in enumerate(ov):
            if fl >> i & 1:
                m, e = m * vm, e + ve
        terms.append((count * m, e))
    return _dyadic_total(terms)


def _dyadic(v: float) -> tuple[int, int]:
    """(m, e) with v == m / 2**e exactly and e >= 0 (v finite)."""
    m, d = v.as_integer_ratio()
    return m, d.bit_length() - 1


def _dyadic_total(terms) -> Fraction:
    """The sum of m / 2**e over the (m, e) of terms, as one Fraction: every
    m is shifted to the largest e and the integers are added."""
    terms = list(terms)
    top = max((e for _, e in terms), default=0)
    return Fraction(sum(m << (top - e) for m, e in terms), 1 << top)


# ---------------------------------------------------------------------------
# public aggregates


def s_full(x: int, w: PrimeWeight, tables: SieveTables) -> float:
    """Full averaged divisor sum  sum_{n<=x} mu^2(n) sum_{d|n} h(d)."""
    counts = full_class_counts(x, w.override_primes(), tables)
    return float(weighted_total(counts, w))


def s_small(x: int, k: int, w: PrimeWeight, tables: SieveTables) -> float:
    """Small-divisor averaged sum  sum_{n<=x} mu^2(n) sum_{d|n, d^k<=n} h(d)."""
    counts = small_class_counts(x, k, w.override_primes(), tables)
    return float(weighted_total(counts, w))


def _check_matching_counts(full: ClassCounts, small: ClassCounts) -> None:
    if full.x != small.x or full.override_primes != small.override_primes:
        raise DomainError("full and small counts must share x and the override primes")


def ratio_from_counts(
    full: ClassCounts, small: ClassCounts, k: int, w: PrimeWeight
) -> RatioReport:
    """Ratio of the small counts (built for this k) to the full counts under w.

    The counts may carry more override primes than w; w is exact at all of
    them, so any weight can be applied to one pair of counts.
    """
    _check_matching_counts(full, small)
    full_exact = weighted_total(full, w)
    small_exact = weighted_total(small, w)
    return RatioReport(
        x=full.x,
        k=k,
        weight=w,
        s_full=float(full_exact),
        s_small=float(small_exact),
        ratio=float(small_exact / full_exact),
        predicted_limit=float(k) ** (-w.base_c),
    )


def ratio(x: int, k: int, w: PrimeWeight, tables: SieveTables) -> RatioReport:
    """Small-to-full ratio with the constant-weight limit k**(-c) attached."""
    ops = w.override_primes()
    return ratio_from_counts(
        full_class_counts(x, ops, tables), small_class_counts(x, k, ops, tables), k, w
    )


def h_series(x: int, w: PrimeWeight, p: int, tables: SieveTables) -> float:
    """Partial sum over squarefree j <= x, p not dividing j, of g(j)h(j)/j.

    Correctly rounded: the exact sum of the float terms, rounded once.
    Where the table holds an H from h_series_cumulative for this weight
    and p that reaches x, this is H[x], the same number; otherwise the
    terms are built and summed.
    """
    H = _held_series(x, w, p, tables)
    if H is not None:
        return float(H[x])
    return fsum_nonnegative(_series_terms(x, w, p, tables))


def h_series_cumulative(x: int, w: PrimeWeight, p: int, tables: SieveTables) -> np.ndarray:
    """Read-only array H[0..x] of partial sums of the series above (H[0] = 0).

    Every H[j] is the correctly rounded sum of the terms up to j, so
    H[x] == h_series(x) and H is non-decreasing.  The table holds a weak
    reference to the H it built last, and later series calls with the same
    weight and p read it while the caller keeps it: here, where it reaches
    x, a read-only view of its first x + 1 entries.
    """
    H = _held_series(x, w, p, tables)
    if H is not None:
        return H[: x + 1]
    # H before the terms: the terms, freed on return, then leave the malloc
    # heap a free block of H's size for the next array of that size (the
    # peak RSS of a series_tables bench worker fell from about 93 to 83 MB)
    H = np.zeros(x + 1)
    _prefix_fsum(_series_terms(x, w, p, tables), H)
    H.setflags(write=False)
    tables.memo["series"] = (_series_key(w, p), weakref.ref(H))
    return H


def _held_series(x: int, w: PrimeWeight, p: int, tables: SieveTables) -> np.ndarray | None:
    """The H that h_series_cumulative last built on this table, if it is
    still alive, was built for w and p and reaches x; else None.

    The terms do not depend on how far they run (g_table multiplies in
    ascending prime order at every upper), so H[: x + 1] is exactly what
    a build at x would give.  Checks x and p first, as the builds do.
    """
    if not 1 <= x <= tables.limit:
        raise RangeError(f"x={x} outside table range 1..{tables.limit}")
    if not tables.is_prime(p):
        raise DomainError(f"p={p} is not a prime in the table")
    key, ref = tables.memo.get("series", (None, None))
    H = ref() if key == _series_key(w, p) else None
    return H if H is not None and len(H) > x else None


def _series_key(w: PrimeWeight, p: int) -> tuple:
    """The weight's exact bits (0.0 and -0.0 differ) and p."""
    bits = lambda v: struct.pack("<d", v)
    return bits(w.base_c), tuple((q, bits(v)) for q, v in sorted(w.overrides.items())), p


def _series_terms(x: int, w: PrimeWeight, p: int, tables: SieveTables) -> np.ndarray:
    """terms[j] = ((c**e(j) * adjust(j)) * g(j)) / j on the summed j, else 0:
    the weight terms of _weight_terms over j, with the multiples of p zeroed.
    The callers check x and p first (_held_series)."""
    return _weight_terms(x, w.base_c, w.overrides, tables, p)


def _weight_terms(x: int, base: float, overrides: dict[int, float], tables: SieveTables, p: int = 0) -> np.ndarray:
    """terms[n] = (c**e(n) * adjust(n)) * g(n) for squarefree n <= x, else 0.

    c is base, e(n) counts the primes of n that overrides does not name,
    adjust(n) multiplies the overrides at the primes of n in ascending
    order, and g(n) = prod p/(p+1) over them; terms[0] = 0.  c**e(n) is
    taken from the 16 powers np.power(c, 0..15), which have the bits
    np.power gives element by element over a whole exponent array.  With
    a prime p, each term is then divided by n and the multiples of p are
    zeroed (the series terms).  All of it goes block by block
    (_SERIES_BLOCK integers) into g_table's own array, so the only
    length-x array is the result.  The non-squarefree n are zeroed after
    the products, so a product that overflows there leaves no NaN.
    The per-integer sums build their terms here: h_series with the
    weight and p and weighted euler.selberg_exact with base z and no
    overrides; both check 1 <= x <= tables.limit first.
    """
    ops = [(q, overrides[q]) for q in sorted(overrides) if q <= x]
    powers = np.power(float(base), np.arange(NOT_SQUAREFREE, dtype=np.int16))
    terms = g_table(x, tables)
    for lo in range(0, x + 1, _SERIES_BLOCK):
        key = tables.key[lo : min(lo + _SERIES_BLOCK, x + 1)]
        block = terms[lo : lo + len(key)]
        # omega <= 9, and an override prime of n is a prime of n, so e(n) stays in 0..9.
        exponent = key & (NOT_SQUAREFREE - 1)
        starts = [max(q - lo, -lo % q) for q, _ in ops]  # the multiples of q from q on
        for (q, _), at in zip(ops, starts):
            exponent[at::q] -= 1
        t = powers.take(exponent)
        if ops:
            adjust = np.ones(len(key))
            for (q, v), at in zip(ops, starts):
                adjust[at::q] *= v
            t *= adjust
        block *= t
        np.putmask(block, key >= NOT_SQUAREFREE, 0.0)
        if p:
            block[lo == 0 :] /= np.arange(max(lo, 1), lo + len(key), dtype=np.float64)  # not n = 0
            block[-lo % p :: p] = 0.0
    terms[0] = 0.0
    return terms


def _prefix_fsum(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P[j] = math.fsum(t[: j + 1]) for t >= 0 whose finite terms have a
    finite sum (inf from the first infinite term on), into out if given
    (zeros of t's length).

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008, Lemma 3.2): if |v_i| <= 2**(c-1) and sum |v_i| <= 2**(c-1), then
    q = (1.5*2**c + v) - 1.5*2**c is v rounded to a multiple of 2**(c-52),
    v - q is exact and at most 2**(c-53) in size, and every partial sum
    of q is an exact float.  t is split twice, at c = a and then at c = b;
    the float cumsum of the residual errs by at most 2**(2*size+b-104) for
    2**size >= len(t) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2).  Each prefix is rounded from both ends
    of its error interval; where the two roundings differ (a near or exact
    tie) it is recomputed by math.fsum over a few floats that hold the
    exact sum of the blocks before it, plus its own block up to it.  That
    carry is an exact integer sum (Neal, arXiv:1505.05571): the mantissas
    of each block, in two 26-bit halves, added up per exponent, and only
    the blocks before the last open prefix are added.  The work goes in
    blocks of _SERIES_BLOCK whose buffers are reused, each cumsum starting
    from the carry in its first element, so it holds one array of the
    length of t besides t.
    """
    out = np.zeros(len(t)) if out is None else out
    first = int(np.argmax(t > 0)) if len(t) else 0
    if not len(t) or t[first] == 0:
        return out
    v = t[first:]
    total = float(np.sum(v))
    if total == inf:  # from the first infinite term on (an overflowing weight), P is inf
        v = v[: np.argmax(v == inf)]
        out[first + len(v) :] = inf
        total = float(np.sum(v))
    a, b, bound = _extraction_grid(len(v), total)
    buffers = np.empty((5, min(len(v), _SERIES_BLOCK)))
    carry = (0.0, 0.0, 0.0)
    ties = []
    for lo in range(0, len(v), _SERIES_BLOCK):
        high, mid, rest, s, back = buffers[:, : len(v) - lo]
        _split(v[lo : lo + _SERIES_BLOCK], a, b, (high, mid, rest))
        for part, c in zip((high, mid, rest), carry):
            part[0] += c
            np.cumsum(part, out=part)
        carry = (high[-1], mid[-1], rest[-1])
        # TwoSum: high + mid == s + err exactly; tail = err + residual.
        np.add(high, mid, out=s)
        np.subtract(s, high, out=back)
        mid -= back
        np.subtract(s, back, out=back)
        high -= back
        high += mid
        high += rest
        below = out[first + lo : first + lo + len(s)]
        np.subtract(high, bound, out=below)
        below += s
        high += bound
        high += s
        ties.extend((lo + np.flatnonzero(below != high)).tolist())
    done, bins = 0, np.zeros((2, _EXPONENTS), dtype=np.int64)
    for j in ties:  # ascending
        lo = j - j % _SERIES_BLOCK
        for start in range(done, lo, _SERIES_BLOCK):
            _add_mantissas(bins, v[start : start + _SERIES_BLOCK])
        done = lo
        out[first + j] = fsum(_exact_floats(bins) + v[lo : j + 1].tolist())
    return out


# frexp exponents -1073 .. 1024 of the finite floats, shifted to 0 .. 2097
_EXPONENTS = 2098


def _add_mantissas(bins: np.ndarray, v: np.ndarray) -> None:
    """Add the finite v >= 0 into bins exactly: v = m * 2**(e - 53) with an
    integer m < 2**53, and bins[0, e + 1073] and bins[1, e + 1073] gather
    m's high and low 26 bits.  A block's bincount of fewer than 2**26
    halves is an exact float, and the int64 bins hold 2**31 terms."""
    m, e = np.frexp(v)
    m = np.ldexp(m, 53).astype(np.int64)
    for k, half in enumerate((m >> 26, m & (2**26 - 1))):
        bins[k] += np.bincount(e + 1073, half, _EXPONENTS).astype(np.int64)


def _exact_floats(bins: np.ndarray) -> list:
    """A few floats whose exact sum is that of the bins (finite)."""
    # in units of 2**-1126 (bin e), of which every float holds 2**52
    total = sum(((h << 26) + low) << e for e, (h, low) in enumerate(zip(*bins.tolist())) if h or low) >> 52
    parts = []
    while total:  # 53 bits at a time, from the top
        shift = max(total.bit_length() - 53, 0)
        parts.append(ldexp(total >> shift, shift - 1074))
        total &= (1 << shift) - 1
    return parts


def fsum_nonnegative(t: np.ndarray) -> float:
    """math.fsum(t) for t >= 0, the total of _prefix_fsum.

    The same two extractions split t: the sums of the two extracted parts
    are exact in any order, and np.sum of the residual errs by no more than
    its cumsum, so the total is rounded from both ends of the same error
    interval; math.fsum decides where the two roundings differ.  A t whose
    float total is infinite (an infinite term, or a sum that overflows)
    goes to math.fsum at once, which returns inf or raises OverflowError.
    """
    total = float(np.sum(t))
    if total == 0.0:
        return 0.0
    if total == inf:
        return fsum(t)
    a, b, bound = _extraction_grid(len(t), total)
    buffers = np.empty((3, min(len(t), _SERIES_BLOCK)))
    sums = [0.0, 0.0, 0.0]
    for lo in range(0, len(t), _SERIES_BLOCK):
        for k, part in enumerate(_split(t[lo : lo + _SERIES_BLOCK], a, b, buffers[:, : len(t) - lo])):
            sums[k] += float(np.sum(part))
    high, mid, rest = sums
    s = high + mid
    back = s - high
    tail = (high - (s - back)) + (mid - back) + rest
    below = (tail - bound) + s
    return below if below == (tail + bound) + s else fsum(t)


# Keeps 1.5 * 2**c and the grid 2**(c - 52) of an extraction normal floats.
_MIN_EXTRACT_EXP = -969


def _extraction_grid(n: int, total: float) -> tuple[int, int, float]:
    """Exponents a, b of the two extractions of n terms summing to total > 0,
    and the bound on the error of the residual's sum and of the final tail."""
    size = (n - 1).bit_length()  # n <= 2**size
    a = max(frexp(total)[1] + 2, _MIN_EXTRACT_EXP)  # total <= 2**(a-1)
    b = max(a - 52 + size, _MIN_EXTRACT_EXP)  # sum |v - q| <= n * 2**(a-53) <= 2**(b-1)
    # Twice the error of the residual sum, at most 2 * n additions deep,
    # plus four times the rounding of the tail err + residual, whose terms
    # are below 2**(a-52) and 2**(size+b-52).
    bound = (
        ldexp(1.0, 2 * size + b - 103)
        + ldexp(1.0, a - 103)
        + ldexp(1.0, size + b - 103)
    )
    return a, b, bound


def _split(v: np.ndarray, a: int, b: int, out):
    """v as high + mid + rest into the three arrays of out: extracted at a,
    the remainder extracted at b."""
    high, mid, rest = out
    _extract(v, a, high)
    np.subtract(v, high, out=rest)
    _extract(rest, b, mid)
    rest -= mid
    return out


def _extract(v: np.ndarray, c: int, out: np.ndarray) -> None:
    sigma = ldexp(1.5, c)
    np.add(v, sigma, out=out)
    out -= sigma


def abcd(x: int, k: int, w: PrimeWeight, p: int, tables: SieveTables) -> AbcdDecomposition:
    """Exact prime-split of both aggregates at p.

    Writing every divisor d as either p*m (p | d) or d (p not dividing d)
    splits S_small into h(p)*a + b and S_full into h(p)*c + d, where the
    four pieces are themselves class-counted double sums that do not
    involve the weight at p.  Identities hold exactly by construction of
    the counts: shifting the p-pieces a and c up by p and adding b and d
    gives back the small and full counts class for class.
    """
    full, small = counts_for_split(x, k, p, w.override_primes(), tables)
    return abcd_from_counts(full, small, k, p, w)


def abcd_from_counts(
    full: ClassCounts, small: ClassCounts, k: int, p: int, w: PrimeWeight
) -> AbcdDecomposition:
    """The prime-split at p of full and small counts whose override set holds p.

    The same counts give the ratio at every weight (ratio_from_counts), so a
    scan over the weight at p counts once.
    """
    _check_matching_counts(full, small)
    a_e, b_e, c_e, d_e = (weighted_total(part, w) for part in _split_counts(full, small, p))
    return AbcdDecomposition(
        x=full.x, k=k, p=p, weight=w,
        a=float(a_e), b=float(b_e), c=float(c_e), d=float(d_e),
        a_exact=a_e, b_exact=b_e, c_exact=c_e, d_exact=d_e,
    )


def abcd_class_counts(
    x: int,
    k: int,
    p: int,
    override_primes: tuple[int, ...],
    tables: SieveTables,
):
    """Class counts (a, b, c, d) for the prime-split at p.

    All four are keyed over override_primes plus p; since their outer
    variables are never divisible by p, the p bit is always clear in their
    own keys.  They split the production counts: the omega-rank spread for
    the full pieces, the coprime squarefree counts per d for the small ones.
    """
    full, small = counts_for_split(x, k, p, override_primes, tables)
    return _split_counts(full, small, p)


def counts_for_split(
    x: int,
    k: int,
    p: int,
    override_primes: tuple[int, ...],
    tables: SieveTables,
) -> tuple[ClassCounts, ClassCounts]:
    """Full and small counts over override_primes plus p.

    These are the counts that abcd_from_counts splits at p and that
    ratio_from_counts weights at any weight whose overrides they cover.
    The two counts check their arguments over the union: RangeError for x
    or p beyond the table, DomainError for a composite p or k < 2.  The
    small counts come first, so a bad k fails before the full pass.
    """
    ops = tuple(sorted(set(override_primes) | {p}))
    small = small_class_counts(x, k, ops, tables)
    return full_class_counts(x, ops, tables), small


def _split_counts(full: ClassCounts, small: ClassCounts, p: int):
    """(a, b, c, d): small and full counts split by whether p divides d."""
    ops = full.override_primes
    if p not in ops:
        raise DomainError(f"counts were built without the split prime {p}")
    pbit = 1 << ops.index(p)
    mk = lambda cls: ClassCounts(x=full.x, override_primes=ops, classes=dict(cls))
    a_cls, b_cls = _split_at_prime(small.classes, pbit)
    c_cls, d_cls = _split_at_prime(full.classes, pbit)
    return mk(a_cls), mk(b_cls), mk(c_cls), mk(d_cls)


def _split_at_prime(classes: dict, pbit: int) -> tuple[Counter, Counter]:
    """Split (omega, flags) classes by the p bit; p-classes shift down by one prime."""
    with_p: Counter = Counter()
    without_p: Counter = Counter()
    for (om, fl), count in classes.items():
        if fl & pbit:
            with_p[(om - 1, fl & ~pbit)] += count
        else:
            without_p[(om, fl)] += count
    return with_p, without_p

