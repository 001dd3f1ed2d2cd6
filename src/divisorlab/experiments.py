"""Top-level studies with machine-checkable verdicts.

Each experiment runs exact aggregates over a grid and reduces the outcome
to a TrendReport: the observed values, the target they should drift
toward, and a verdict.  Limits that come with no convergence rate are
checked as trends (monotone drift plus one loose terminal window) rather
than at a fixed tolerance; every tolerance used is recorded in the
report notes so the choice is visible in the output.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import divisor_sums as dsums
from .errors import ConfigurationError, DomainError, RangeError
from .euler import _selberg_sums, f0, f1, gamma_fn, gaussian_window
from .sieve import NOT_SQUAREFREE, SieveTables, coprime_squarefree_counts, primes_up_to
from .weights import PrimeWeight, g_table

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INFO = "informational"


@dataclass(frozen=True)
class TrendReport:
    name: str
    grid: list
    observed: list[float]
    target: object  # a float limit, or "drift-to-1"
    verdict: str
    notes: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.grid) != len(self.observed):
            raise ConfigurationError("grid and observed lengths differ")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigurationError("grid must be strictly increasing")


def _check_grid(x_grid, tables: SieveTables, min_points: int):
    xs = [operator.index(x) for x in x_grid]  # NumPy integers become ints; a float raises TypeError
    if len(xs) < min_points:
        raise RangeError(f"grid of {len(xs)} points is too short (need >= {min_points})")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigurationError("grid must be strictly increasing")
    if xs[-1] > tables.limit:
        raise RangeError(f"max grid point {xs[-1]} beyond table limit {tables.limit}")
    return xs


def _drift_non_increasing(errors: list[float]) -> bool:
    last3 = errors[-3:]
    return all(b <= a for a, b in zip(last3, last3[1:]))


def ratio_convergence(
    k: int,
    c: float,
    x_grid,
    tables: SieveTables,
    strict: bool = True,
    overrides: dict[int, float] | None = None,
) -> TrendReport:
    """Small-to-full ratio along an x grid, judged against k**(-c).

    overrides sets the weight at finitely many primes, as in PrimeWeight;
    the target stays k**(-c).  Pass requires |R - k^-c| non-increasing
    over the last three grid points and the final R within 15% of k^-c.
    The implied comparison constant s_full/s_small is reported against 2
    (informational only).
    """
    xs = _check_grid(x_grid, tables, min_points=4)
    w = PrimeWeight(c, overrides or {}, k_context=k, strict_mode=strict)
    target = float(k) ** (-c)
    reports = [dsums.ratio(x, k, w, tables) for x in xs]
    observed = [r.ratio for r in reports]
    errors = [abs(r - target) for r in observed]
    final_ok = abs(observed[-1] - target) <= 0.15 * target
    drift_ok = _drift_non_increasing(errors)
    implied = reports[-1].s_full / reports[-1].s_small
    verdict = VERDICT_PASS if (final_ok and drift_ok) else VERDICT_FAIL
    return TrendReport(
        name="ratio_convergence",
        grid=xs,
        observed=observed,
        target=target,
        verdict=verdict,
        notes=(
            f"pass needs |R-target| non-increasing over last 3 points "
            f"(got {'yes' if drift_ok else 'NO'}) and final within 0.15*target "
            f"(got {'yes' if final_ok else 'NO'}); implied constant "
            f"s_full/s_small = {implied:.6f} vs 2 (informational)"
        ),
        extra={
            "abs_error": errors,
            "s_full": [r.s_full for r in reports],
            "s_small": [r.s_small for r in reports],
            "implied_constant": implied,
        },
    )


def monotonicity_scan(
    x: int,
    k: int,
    c: float,
    p: int,
    v_grid,
    tables: SieveTables,
) -> TrendReport:
    """Ratio as a function of the weight at one prime p.

    Counts the full and small aggregates once over the override set {p},
    weights those counts into the exact ratio at every v in the grid, and
    cross-checks each value against (a*v + b)/(c*v + d) from the frozen
    prime-split of the same counts.  The boundary v = 1/(k-1) is admissible
    here, so weights are built non-strict.  Pass requires strictly
    decreasing observed values and the cross-check to agree to 1e-12
    relative.
    """
    vs = [float(v) for v in v_grid]
    if any(b <= a for a, b in zip(vs, vs[1:])):
        raise ConfigurationError("v_grid must be strictly increasing")
    if any(v < 0 for v in vs):
        raise DomainError("v_grid values must be >= 0")
    base = PrimeWeight(c, k_context=k, strict_mode=False)
    full, small = dsums.counts_for_split(x, k, p, (), tables)
    dec = dsums.abcd_from_counts(full, small, k, p, base)
    observed = []
    predicted = []
    for v in vs:
        w = base.with_override(p, v)
        observed.append(dsums.ratio_from_counts(full, small, k, w).ratio)
        predicted.append(dec.predicted_ratio(v))
    rel_dev = max(
        abs(o - q) / q for o, q in zip(observed, predicted)
    ) if observed else 0.0
    if len(vs) < 2 or x < p:
        verdict = VERDICT_INFO
        reason = "degenerate scan (single point or no multiples of p in range)"
    else:
        decreasing = all(b < a for a, b in zip(observed, observed[1:]))
        verdict = VERDICT_PASS if (decreasing and rel_dev <= 1e-12) else VERDICT_FAIL
        reason = (
            f"strictly decreasing: {'yes' if decreasing else 'NO'}; "
            f"max relative deviation from (Av+B)/(Cv+D): {rel_dev:.3e} (cap 1e-12)"
        )
    return TrendReport(
        name="monotonicity_scan",
        grid=vs,
        observed=observed,
        target=float("nan"),
        verdict=verdict,
        notes=f"{reason}; AD-BC = {dec.ad_minus_bc:.6e}",
        extra={
            "predicted": predicted,
            "ad_minus_bc": dec.ad_minus_bc,
            "abcd": (dec.a, dec.b, dec.c, dec.d),
            "max_rel_deviation": rel_dev,
        },
    )


def prop32_scan(m_max: int, x_grid, tables: SieveTables) -> TrendReport:
    """Error-constant sweep for the coprime squarefree count.

    For every squarefree m <= m_max and every grid x, form
    |count - (6/pi^2) g(m) x| / (tau(m)^(2/3) sqrt(x)) and track the
    maximum.  Pass iff the overall maximum stays below 6 (a documented
    engineering cap roughly three times the analytic error budget).  The
    counts at one x come from one coprime_squarefree_counts call, and g
    from one g_table.
    """
    xs = _check_grid(x_grid, tables, min_points=1)
    if xs[0] < 1:
        raise RangeError(f"grid point {xs[0]} below 1")
    if m_max < 1:
        raise DomainError(f"m_max={m_max} must be >= 1")
    if m_max > tables.limit:
        raise RangeError(f"m_max={m_max} beyond table limit")
    six_over_pi2 = 6.0 / math.pi**2
    ms = np.flatnonzero(tables.key[: m_max + 1] < NOT_SQUAREFREE)
    gs = g_table(m_max, tables)[ms]
    # tau(m)**(2/3) by omega(m) (m is squarefree), as Python float powers
    tau_pow = np.array([(2.0**j) ** (2.0 / 3.0) for j in range(NOT_SQUAREFREE)])[tables.key[ms]]
    observed = []
    argmax = []
    for x in xs:
        counts = coprime_squarefree_counts(x, ms, tables)
        constant = np.abs(counts - six_over_pi2 * gs * x) / (tau_pow * math.sqrt(x))
        i = int(np.argmax(constant))  # the first largest, as a strict > scan keeps
        observed.append(float(constant[i]))
        argmax.append(int(ms[i]))
    overall = max(observed)
    verdict = VERDICT_PASS if overall <= 6.0 else VERDICT_FAIL
    return TrendReport(
        name="prop32_scan",
        grid=xs,
        observed=observed,
        target=6.0,
        verdict=verdict,
        notes=f"max constant {overall:.4f} over squarefree m <= {m_max} (cap 6)",
        extra={"argmax_m": argmax, "max_constant": overall},
    )


def _log_shift(t: float) -> float:
    return math.log(math.e + t)


def _interp_at_integers(H: np.ndarray, t: np.ndarray) -> np.ndarray:
    """np.interp(t, np.arange(len(H)), H) at every t >= 0, bit for bit: its
    own expression at unit node spacing, and its clamp to the last node.
    Without np.interp's node array and its copy of a read-only H."""
    n = len(H) - 1
    j = np.minimum(t, n - 1).astype(np.int64)
    return np.where(t >= n, H[n], (H[j + 1] - H[j]) * (t - j) + H[j])


# Relative distance above sqrt(N) at which the gamma-lemma grid starts.
_ROOT_OFFSET = 0.02


def gamma_lemma_check(
    N: int,
    f_choice: str,
    sample_points: int,
    tables: SieveTables,
    weight: PrimeWeight | None = None,
    p: int | None = None,
) -> TrendReport:
    """Discrete check that f(x) f(N/x) peaks at sqrt(N) and falls beyond it.

    f_choice "log_shift" uses f(t) = log(e + t); "h_table" uses the
    monotone piecewise-linear interpolation of the excluded-prime series
    at integer arguments (requires weight and p), read from the read-only
    H of divisor_sums.h_series_cumulative, or from the H the caller
    already holds for that weight and p.  Samples a geometric grid from
    sqrt(N)*(1 + _ROOT_OFFSET) to N; pass iff the samples strictly
    decrease.  The symmetry defect max |gamma(x) - gamma(N/x)| / gamma(x)
    and the value at sqrt(N) are reported in extra.
    """
    if N < 100:
        raise ConfigurationError(f"N={N} must be >= 100")
    start = math.sqrt(N) * (1.0 + _ROOT_OFFSET)
    if sample_points < 3 or start >= N:
        raise RangeError(f"N={N} too small for a {sample_points}-point grid")
    if f_choice == "log_shift":
        f = lambda t: np.array([_log_shift(v) for v in t.tolist()])
    elif f_choice == "h_table":
        if weight is None or p is None:
            raise ConfigurationError("h_table choice requires weight and p")
        if N > tables.limit:
            raise RangeError(f"N={N} beyond table limit")
        H = dsums.h_series_cumulative(N, weight, p, tables)
        f = lambda t: _interp_at_integers(H, t)  # t >= 1
    else:
        raise ConfigurationError(f"unknown f_choice {f_choice!r}")

    # gamma(t) = f(t) f(N/t) at the grid, at its mirror N/t and at sqrt(N):
    # f of every argument at once, then the products.
    grid = np.geomspace(start, float(N), sample_points)
    mirror = N / grid
    root = math.sqrt(N)
    values = f(np.concatenate([grid, mirror, N / mirror, [root, N / root]]))
    at_grid, at_mirror, at_back = values[:-2].reshape(3, sample_points)
    observed = (at_grid * at_mirror).tolist()
    mirrored = (at_mirror * at_back).tolist()  # gamma(N/t)
    decreasing = all(b < a for a, b in zip(observed, observed[1:]))
    sym_defect = max(abs(m - obs) / obs for m, obs in zip(mirrored, observed))
    gamma_at_root = float(values[-2] * values[-1])
    left_neighbor = mirrored[0]
    right_neighbor = observed[0]
    verdict = VERDICT_PASS if decreasing else VERDICT_FAIL
    return TrendReport(
        name="gamma_lemma_check",
        grid=[float(t) for t in grid],
        observed=observed,
        target="strictly-decreasing",
        verdict=verdict,
        notes=(
            f"f={f_choice}; strictly decreasing: {'yes' if decreasing else 'NO'}; "
            f"symmetry defect {sym_defect:.3e}; gamma(sqrt(N)) = {gamma_at_root:.9f}"
        ),
        extra={
            "symmetry_max_rel": sym_defect,
            "gamma_at_root": gamma_at_root,
            "root_neighbors": (left_neighbor, right_neighbor),
        },
    )


def _statistic(band, n: np.ndarray) -> np.ndarray:
    """(band - loglog n)/sqrt(loglog n) at arrays band and n >= 3 (float64).

    The Erdos-Kac statistic of n with omega(n) = band.  Every route
    evaluates it by this one array expression, so the thresholds of
    _first_at_most and the values of an enumerated interval agree bit for
    bit with the statistic of the whole sample.
    """
    loglog = np.log(np.log(n.astype(np.float64)))
    return (band - loglog) / np.sqrt(loglog)


def _root(band: np.ndarray, t: np.ndarray, x: int) -> np.ndarray:
    """n near the root of s_band(n) = t, clipped to [3, x + 1] (int64).

    The root L = ((sqrt(t**2 + 4 band) - t)/2)**2 of (band - L)/sqrt(L) = t
    gives n = exp(exp(L)); an infinite t gives 3 or x + 1.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        n = np.exp(np.exp(((np.sqrt(t * t + 4 * band) - t) / 2) ** 2))
    return np.fmin(np.fmax(n, 3), x + 1).astype(np.int64)  # fmax takes 3 for a NaN


def _first_at_most(band, t, x: int) -> np.ndarray:
    """The first n in [3, x] whose statistic in band is <= t, else x + 1 (int64).

    band and t broadcast together; t may be infinite.  The statistic
    s_j(n) strictly decreases in n: with L = loglog n > 0, ds_j/dL =
    -(L + j)/(2 L**1.5) < 0, and consecutive n <= 2**31 differ in L by
    more than 2e-11, far above the few-ulp error of the computed L, so the
    computed values decrease too.  A bracket of 4 on either side of _root
    is checked and bisected; where it fails, the bisection runs from
    [2, x + 1].
    """
    band, t = np.broadcast_arrays(np.asarray(band, dtype=np.int64), np.asarray(t, dtype=np.float64))
    shape, band, t = band.shape, band.ravel(), t.ravel()
    guess = _root(band, t, x)
    # s(lo) > t or lo = 2, and s(hi) <= t or hi = x + 1
    lo, hi = np.maximum(guess - 4, 2), np.minimum(guess + 4, x + 1)
    i = np.flatnonzero(lo > 2)
    lo[i[_statistic(band[i], lo[i]) <= t[i]]] = 2
    i = np.flatnonzero(hi <= x)
    hi[i[_statistic(band[i], hi[i]) > t[i]]] = x + 1
    while len(i := np.flatnonzero(hi - lo > 1)):
        mid = (lo[i] + hi[i]) // 2
        below = _statistic(band[i], mid) <= t[i]
        hi[i[below]] = mid[below]
        lo[i[~below]] = mid[~below]
    return hi.reshape(shape)


# The least n with omega(n) = j, for j = 0 .. 15: 1 and the products of
# the first j primes.
_PRIMORIALS = np.concatenate([[1], np.cumprod(primes_up_to(47))])


def _erdos_kac_sample(x: int, tables: SieveTables):
    """(count, members, lo, hi) of the statistic over 3 <= n <= x.

    Band j holds the n with key & 15 == j.  Its n with statistic <= t are
    those from n_j(t) = _first_at_most(j, t, x) on, so with C_j the band
    counts of SieveTables._band_rank,

        count(t) = sum over j of C_j(x) - C_j(n_j(t) - 1),

    and the members of (a, b] in band j are its n in [n_j(b), n_j(a)),
    read off the key.  Only the bands that hold an n in [3, x] are read.
    Every value lies in (lo, hi], as s_j(x) <= s_j(n) <= s_j(f_j) for the
    first n >= 3 of band j, f_j: on the sieve's key, max(3, the least n
    with omega(n) = j), and 3 on a key that puts an n below that in band j.
    """
    bands = np.arange(NOT_SQUAREFREE)
    first = np.minimum(np.maximum(_PRIMORIALS, 3), x + 1)
    below, before, top = tables._band_rank(np.stack([np.full_like(first, 2), first - 1, np.full_like(first, x)]), bands)
    first = np.where(before > below, 3, first)
    bands, top, first = (v[top > below] for v in (bands, top, first))

    def count(t):
        n = _first_at_most(bands, t[:, None], x)
        return (top - tables._band_rank(n - 1, bands)).sum(axis=1)

    def members(a, b):
        first, stop = _first_at_most(bands, np.stack([b, a])[:, :, None], x)
        out = []
        for row in zip(first.tolist(), stop.tolist()):
            parts = [np.empty(0)]
            for j, lo, hi in zip(bands.tolist(), *row):
                if lo < hi:
                    n = lo + np.flatnonzero((tables.key[lo:hi] & (NOT_SQUAREFREE - 1)) == j)
                    parts.append(_statistic(j, n))
            out.append(np.concatenate(parts))
        return out

    lo = np.nextafter(_statistic(bands, np.full(len(bands), x)).min(), -math.inf)
    hi = _statistic(bands, first).max()
    return count, members, float(lo), float(hi)


def erdos_kac_histogram(
    x: int, window_a: float, window_b: float, tables: SieveTables
) -> TrendReport:
    """Empirical window mass of the normalized distinct-prime count.

    Compares the fraction of 3 <= n <= x with
    (omega(n) - loglog n)/sqrt(loglog n) in [a, b] against the standard
    normal window mass.  The verdict is always informational.  Up to
    x = 1e7 omega has variance 1.10 while the statistic divides by
    loglog x = 2.78 (and loglog x <= 3.07 for every table up to 2**31),
    so a window covers whole omega bands -- [-1, 1] near n = 1e7 is
    exactly omega in {2, 3, 4}, which holds 85.7% of n <= 1e7 -- and its
    mass jumps as the edges cross band boundaries instead of settling
    toward the normal mass.  erdos_kac_distance checks the normal law at
    its proven rate.  n = 1, 2 have no loglog and are skipped
    (counted in the notes).  The window holds F(b) - F(a-) of the n, two
    counts of erdos_kac_distance's distribution F (F(a-) is F at the
    float below a), so no temporary has length x.  Infinite edges are
    allowed; a NaN edge raises DomainError.
    """
    if not window_a <= window_b:  # NaN fails too
        raise DomainError(f"window [{window_a}, {window_b}] needs a <= b")
    if x < 10**4:
        raise RangeError(f"x={x} must be >= 1e4")
    if x > tables.limit:
        raise RangeError(f"x={x} beyond table limit")
    count = _erdos_kac_sample(x, tables)[0]
    below_a, upto_b = count(np.array([np.nextafter(window_a, -math.inf), window_b])).tolist()
    fraction = (upto_b - below_a) / (x - 2)
    phi = gaussian_window(window_a, window_b)
    diff = abs(fraction - phi)
    return TrendReport(
        name="erdos_kac_histogram",
        grid=[x],
        observed=[fraction],
        target=phi,
        verdict=VERDICT_INFO,
        notes=(
            f"window [{window_a}, {window_b}]: fraction {fraction:.6f} vs "
            f"normal mass {phi:.6f} (|diff| = {diff:.6f}); "
            f"skipped n in {{1, 2}} (2 integers, no loglog)"
        ),
        extra={"phi": phi, "abs_diff": diff, "skipped": 2},
    )


# Engineering cap on D(x) sqrt(loglog x) at the last grid point.  No
# constant for the Renyi-Turan bound is available here; the exact tables
# give 0.4226 at x = 1e7, and omega + 1 (one prime factor too many) gives
# 0.81 there, so 0.6 separates the two with room on both sides.
_EK_SCALED_CAP = 0.6

# The t-intervals of _kolmogorov_distance: nodes over the sample's range
# at the start, the parts a kept interval splits into, and the most values
# of an interval that is enumerated rather than split.
_EK_NODES = 64
_EK_SPLIT = 16
_EK_LEAF = 2048


def _phi(t: np.ndarray) -> np.ndarray:
    """The standard normal distribution function at each t, by math.erf."""
    return 0.5 * (1.0 + np.array([math.erf(u) for u in (t / math.sqrt(2.0)).tolist()]))


def _kolmogorov_distance(count, members, lo: float, hi: float, m: int) -> float:
    """sup_t |F(t)/m - Phi(t)| for a sample of m values, each in (lo, hi].

    count(t) gives F at an array of t, the number of values <= t;
    members(a, b) lists the values in (a_i, b_i] for arrays a and b.  The
    sup is the largest i/m - Phi(v_i) or Phi(v_i) - (i - 1)/m over the
    sorted values v_i.  Over the values in (a, b] those are at most
    max(F(b)/m - Phi(a), Phi(b) - F(a)/m), and |F(t)/m - Phi(t)| at any t
    is at most the sup; rounding moves each by far less than 2**-40.  So
    from _EK_NODES nodes over [lo, hi], each level drops the intervals
    that hold no value or whose bound is below the best value found less
    2**-40, enumerates those that hold at most _EK_LEAF values (or end at
    the float after their start), and splits the rest into _EK_SPLIT.  An
    enumerated interval's values are sorted and ranked from F(a), and the
    terms are evaluated there in the float expressions of the direct
    formula, so the result has its bits.
    """
    t = np.linspace(lo, hi, _EK_NODES)[None]
    F, P = count(t[0])[None], _phi(t[0])[None]
    found = best = 0.0  # the largest node value; the largest term
    while t.size:
        found = max(found, float(np.max(np.abs(F / m - P))))
        a, b, Fa, Fb, pa, pb = (v[:, cut].ravel() for v in (t, F, P) for cut in (np.s_[:-1], np.s_[1:]))
        keep = (Fb > Fa) & (np.maximum(Fb / m - pa, pb - Fa / m) >= max(found, best) - 2.0**-40)
        leaf = keep & ((Fb - Fa <= _EK_LEAF) | (np.nextafter(a, b) == b))
        for start, values in zip(Fa[leaf].tolist(), members(a[leaf], b[leaf])):
            values.sort()
            i = np.arange(start + 1, start + len(values) + 1)
            phi = _phi(values)
            best = max(best, float(np.max(i / m - phi)), float(np.max(phi - (i - 1) / m)))
        split = keep & ~leaf
        t = np.linspace(a[split], b[split], _EK_SPLIT + 1, axis=1)
        inner = t[:, 1:-1].ravel()
        F = np.column_stack([Fa[split], count(inner).reshape(-1, _EK_SPLIT - 1), Fb[split]])
        P = np.column_stack([pa[split], _phi(inner).reshape(-1, _EK_SPLIT - 1), pb[split]])
    return best


def erdos_kac_distance(x_grid, tables: SieveTables) -> TrendReport:
    """Kolmogorov distance of the normalized distinct-prime count from N(0, 1).

    D(x) = sup_t |F_x(t) - Phi(t)|, where F_x is the empirical
    distribution of the erdos_kac_histogram statistic over 3 <= n <= x.
    Renyi and Turan (Acta Arith. 4, 1958) proved D(x) is of order
    1/sqrt(loglog x), so observed holds D(x) sqrt(loglog x) per grid
    point.  Pass requires observed non-increasing over the last three
    grid points and the final value at most 0.6 (a documented
    engineering cap); the raw distances are in extra.  F_x is counted
    per omega band from the table's band rows (_erdos_kac_sample), and
    D(x) refined over t-intervals (_kolmogorov_distance), so no array
    has length x.
    """
    xs = _check_grid(x_grid, tables, min_points=3)
    if xs[0] < 10**4:
        raise RangeError(f"x={xs[0]} must be >= 1e4")
    distances = [_kolmogorov_distance(*_erdos_kac_sample(x, tables), x - 2) for x in xs]
    observed = [d * math.sqrt(math.log(math.log(x))) for d, x in zip(distances, xs)]
    drift_ok = _drift_non_increasing(observed)
    cap_ok = observed[-1] <= _EK_SCALED_CAP
    verdict = VERDICT_PASS if (drift_ok and cap_ok) else VERDICT_FAIL
    return TrendReport(
        name="erdos_kac_distance",
        grid=xs,
        observed=observed,
        target=_EK_SCALED_CAP,
        verdict=verdict,
        notes=(
            f"D(x) sqrt(loglog x) non-increasing over last 3 points: "
            f"{'yes' if drift_ok else 'NO'}; final {observed[-1]:.4f} "
            f"(cap {_EK_SCALED_CAP}): {'yes' if cap_ok else 'NO'}"
        ),
        extra={"distance": distances, "non_increasing": drift_ok, "cap_ok": cap_ok},
    )


def selberg_trend(z: float, weighted: bool, x_grid, tables: SieveTables) -> TrendReport:
    """Exact omega-power sums against their main-term prediction.

    observed = exact / (x log^(z-1) x * f(z) / Gamma(z)) per grid point,
    with f = f1 for the weighted sum and f0 otherwise, both truncated at
    euler.DEFAULT_TRUNCATION.  Pass iff |observed - 1| is non-increasing
    over the last three points and the final value lies in [0.8, 1.2].
    A grid point below 2 raises RangeError.  The exact sums are those of
    euler.selberg_exact; the weighted ones sum prefixes of one term build
    at the largest point.
    """
    xs = _check_grid(x_grid, tables, min_points=1)
    if xs[0] < 2:
        raise RangeError(f"grid point {xs[0]} below 2: the predictor is 0 at x = 1")
    if not 0.0 < z <= 4.0:
        raise DomainError(f"z={z} outside supported range (0, 4]")
    constant = (f1(z) if weighted else f0(z)).value
    gamma_z = gamma_fn(z)
    observed = [
        exact / (x * math.log(x) ** (z - 1.0) / gamma_z * constant)
        for x, exact in zip(xs, _selberg_sums(xs, z, weighted, tables))
    ]
    if len(observed) >= 3:
        errors = [abs(v - 1.0) for v in observed]
        drift_ok = _drift_non_increasing(errors)
        final_ok = 0.8 <= observed[-1] <= 1.2
        verdict = VERDICT_PASS if (drift_ok and final_ok) else VERDICT_FAIL
        note = (
            f"drift toward 1 over last 3: {'yes' if drift_ok else 'NO'}; "
            f"final {observed[-1]:.5f} in [0.8, 1.2]: {'yes' if final_ok else 'NO'}"
        )
    else:
        verdict = VERDICT_INFO
        note = "grid too short for a drift verdict"
    return TrendReport(
        name="selberg_trend",
        grid=xs,
        observed=observed,
        target="drift-to-1",
        verdict=verdict,
        notes=f"z={z}, weighted={weighted}; {note}",
        extra={},
    )
