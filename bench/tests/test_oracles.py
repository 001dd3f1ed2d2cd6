"""The benchmark's recounts against sympy, and its checks against corrupted outputs.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest
import sympy

import checks
import oracles
from checks import CheckFailed

RNG = random.Random(20261017)


def _squarefree(n):
    return all(e == 1 for e in sympy.factorint(n).values())


def _divisors(n):
    f = sympy.factorint(n)
    return [math.prod(p**e for p, e in zip(f, es))
            for es in itertools.product(*[range(e + 1) for e in f.values()])]


def test_factorize_mu_omega_match_sympy():
    for n in [1, 2, 4, 30, 97 * 97] + [RNG.randrange(1, 10**9) for _ in range(300)]:
        f = sympy.factorint(n)
        assert oracles.factorize(n) == f
        assert oracles.omega(n) == len(f)
        want_mu = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
        assert oracles.mu(n) == want_mu


def test_iroot():
    for _ in range(300):
        n, k = RNG.randrange(1, 10**15), RNG.randrange(1, 7)
        r = oracles.iroot(n, k)
        assert r**k <= n < (r + 1) ** k
        assert r == sympy.integer_nthroot(n, k)[0]


def test_omega_table_matches_sympy():
    limit = 300_000
    om, sqf = oracles.omega_table(limit, block=1 << 16)
    for n in [1, 2, limit, limit - 1] + [RNG.randrange(1, limit + 1) for _ in range(1000)]:
        f = sympy.factorint(n)
        assert om[n] == len(f), n
        assert sqf[n] == all(e == 1 for e in f.values()), n
    hist = oracles.omega_histograms(limit, [1000])[1000]
    want = {}
    for n in range(1, 1001):
        if _squarefree(n):
            j = len(sympy.factorint(n))
            want[j] = want.get(j, 0) + 1
    assert hist == want
    assert oracles.pairs_from_histogram(hist) == sum(2 ** len(sympy.factorint(n))
                                                     for n in range(1, 1001) if _squarefree(n))


def test_brute_force_sums_match_divisor_enumeration():
    base, ov = 0.3, {2: 0.1, 7: 0.25}
    h = lambda d: math.prod(ov.get(p, base) for p in sympy.factorint(d)) if d > 1 else 1.0
    from fractions import Fraction

    hf = lambda d: math.prod((Fraction(ov.get(p, base)) for p in sympy.factorint(d)), start=Fraction(1))
    x = 400
    full = sum(hf(d) for n in range(1, x + 1) if _squarefree(n) for d in _divisors(n))
    assert oracles.s_full_exact(x, base, ov) == full
    for k in (2, 3, 4):
        small = sum(hf(d) for n in range(1, x + 1) if _squarefree(n)
                    for d in _divisors(n) if d**k <= n)
        assert oracles.s_small_exact(x, k, base, ov) == small
    hist = oracles.omega_histograms(x, [x])[x]
    assert oracles.s_full_from_histogram(hist, base) == oracles.s_full_exact(x, base, {})
    om, sqf = oracles.omega_table(x)
    flags = oracles.omega_flag_histograms(om, sqf, [(x, (2, 7))])[x, (2, 7)]
    assert oracles.s_full_from_flag_histogram(flags, base, [ov[2], ov[7]]) == full
    for k in (2, 3, 4):
        counts = oracles.squarefree_multiple_counts(sqf, x, k)
        assert oracles.s_small_from_counts(counts, base, ov) == oracles.s_small_exact(x, k, base, ov)
    # a joint histogram over more primes (past the 8-bit key at four) marginalises to the same
    union = (2, 3, 5, 7, 11)
    joint = oracles.omega_flag_histograms(om, sqf, [(x, union)])[x, union]
    assert oracles.project_flags(joint, union, (2, 7)) == flags
    assert oracles.project_flags(joint, union, ()) == {(j, 0): c for j, c in hist.items()}
    assert h(1) == 1.0


def test_series_and_selberg_loops_match_sympy():
    x, p, base, ov = 600, 3, 0.4, {5: 0.7}
    g = lambda n: math.prod(q / (q + 1) for q in sympy.factorint(n))
    hv = lambda n: math.prod(ov.get(q, base) for q in sympy.factorint(n))
    want = math.fsum(g(j) * hv(j) / j for j in range(1, x + 1) if j % p and _squarefree(j))
    assert checks.close(oracles.h_series_loop(x, base, ov, p), want)
    z = 1.7
    want = math.fsum(z ** len(sympy.factorint(n)) * g(n) for n in range(1, x + 1) if _squarefree(n))
    assert checks.close(oracles.selberg_weighted_loop(x, z), want)
    hist = oracles.omega_histograms(x, [x])[x]
    assert oracles.selberg_unweighted_exact(hist, 3) == sum(
        3 ** len(sympy.factorint(n)) for n in range(1, x + 1) if _squarefree(n))


def test_kolmogorov_distance_loop_matches_sympy_omega():
    x = 3000
    stat = sorted((len(sympy.factorint(n)) - math.log(math.log(n))) / math.sqrt(math.log(math.log(n)))
                  for n in range(3, x + 1))
    m = len(stat)
    phi = [0.5 * (1 + math.erf(s / math.sqrt(2))) for s in stat]
    want = max(max(i / m - f, f - (i - 1) / m) for i, f in enumerate(phi, start=1))
    assert abs(oracles.kolmogorov_distance_loop(x) - want) <= 1e-15


def test_euler_product_and_normal_mass():
    assert abs(oracles.euler_product(1.0, 10**5, 0) - 6 / math.pi**2) < 2e-5
    assert checks.close(oracles.normal_mass(-1, 1), math.erf(1 / math.sqrt(2)))


def test_census_closed_form_matches_assignment_walk():
    primes = list(sympy.primerange(2, 60))
    for _ in range(40):
        ps = RNG.sample(primes, RNG.randrange(1, 7))
        n, k = math.prod(ps), RNG.choice((2, 3, 4))
        r = oracles.iroot(n, k)
        walk = 0
        for slots in itertools.product(range(k), repeat=len(ps)):
            parts = [math.prod(p for p, s in zip(ps, slots) if s == j) for j in range(k)]
            walk += sum(part <= r for part in parts)
        assert oracles.census_closed_form(n, k) == walk


# ---------------------------------------------------------------------------
# every check rejects a corrupted output


def test_ratio_check_rejects_one_ulp():
    x, k, base, ov = 500, 3, 0.2, {3: 0.1}
    full = oracles.s_full_exact(x, base, ov)
    small = oracles.s_small_exact(x, k, base, ov)
    good = SimpleNamespace(s_full=float(full), s_small=float(small), ratio=float(small / full))
    checks.check_ratio_small_x(good, x, k, base, ov)
    for field in ("s_full", "s_small", "ratio"):
        bad = SimpleNamespace(**vars(good))
        setattr(bad, field, math.nextafter(getattr(good, field), math.inf))
        with pytest.raises(CheckFailed):
            checks.check_ratio_small_x(bad, x, k, base, ov)
    hist = oracles.omega_histograms(x, [x])[x]
    c_full = float(oracles.s_full_from_histogram(hist, base))
    checks.check_s_full_histogram(c_full, hist, base, x)
    with pytest.raises(CheckFailed):
        checks.check_s_full_histogram(math.nextafter(c_full, 0), hist, base, x)
    pairs = oracles.pairs_from_histogram(hist)
    checks.check_pairs(pairs, (pairs + 1) // 2, hist, x)
    with pytest.raises(CheckFailed):
        checks.check_pairs(pairs, (pairs + 1) // 2 + 1, hist, x)


def test_census_check_rejects_g_plus_one():
    n, k = 2 * 3 * 5 * 7 * 11 * 13, 3
    g = oracles.census_closed_form(n, k)
    rec = SimpleNamespace(n=n, k=k, omega_n=6, tau_k=k**6, g_k=g, ratio=g / k**6)
    checks.check_census_record(rec, k, 6)
    bad = SimpleNamespace(**dict(vars(rec), g_k=g + 1, ratio=(g + 1) / k**6))
    with pytest.raises(CheckFailed):
        checks.check_census_record(bad, k, 6)
    with pytest.raises(CheckFailed):
        checks.check_census_record(SimpleNamespace(**dict(vars(rec), n=n * 2)), k, 6)


def test_series_check_rejects_one_dropped_term():
    import numpy as np

    x, p, base, ov = 800, 2, 0.5, {}
    terms = [0.0] * (x + 1)
    for j in range(1, x + 1):
        if j % p and oracles.mu(j):
            terms[j] = math.prod(q / (q + 1) * base for q in oracles.factorize(j)) / j
    H = np.array([math.fsum(terms[: j + 1]) for j in range(x + 1)])
    want = oracles.h_series_loop(x, base, ov, p)
    checks.check_float_loop(float(H[x]), want, "H")
    checks.check_cumulative(H, x, float(H[x]))
    dropped = float(H[x]) - terms[799]  # 799 = 17 * 47 is squarefree and odd
    with pytest.raises(CheckFailed):
        checks.check_float_loop(dropped, want, "H")
    with pytest.raises(CheckFailed):
        checks.check_cumulative(H, x, dropped)


def test_csv_json_check_rejects_differing_rows():
    csv_text = "x,v\n10,0.5\n20,0.25\n# verdict=pass\n"
    rows = [{"x": 10, "v": 0.5}, {"x": 20, "v": 0.25}]
    good = json.dumps({"inputs": {}, "rows": rows, "verdict": "pass"})
    assert checks.csv_json_rows(csv_text, good)[1] == [[10, 0.5], [20, 0.25]]
    for bad_rows, verdict in (([rows[0], {"x": 20, "v": 0.2500000001}], "pass"),
                              ([rows[0]], "pass"),
                              ([rows[0], {"v": 0.25, "x": 20}], "pass"),
                              (rows, "fail")):
        bad = json.dumps({"inputs": {}, "rows": bad_rows, "verdict": verdict})
        with pytest.raises(CheckFailed):
            checks.csv_json_rows(csv_text, bad)
