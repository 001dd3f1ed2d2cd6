"""The two workloads: inputs drawn per round, the operation list, checks.

A workload reaches divisorlab only through the package's public names
and the CLI entry `divisorlab.cli.parse_and_dispatch`, always looked up
on the module at call time, so that the tracer's wrappers are seen.

Each round draws fresh parameters from its own seeded generator, so a
memo kept across rounds cannot pass for a gain; the repeat work inside a
round (the same class counts asked for by a scan and by `abcd`, say)
stays for a real cache to remove.  Inputs are drawn from narrow bands so
that the cost of a round hardly depends on the seed.
"""

import contextlib
import io
import math
from fractions import Fraction
from types import SimpleNamespace

import checks
import oracles
from checks import CheckFailed, close, require

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SPLIT_PRIMES = (2, 3, 5, 7, 11, 13)
TRUNCATION = 10**6  # the program's default Euler-product truncation


def _c(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def failed(out) -> bool:
    """An operation that raised; the harness counts it, and checks skip it."""
    return isinstance(out, Exception)


# The trend `ratio` with an override, fixed inputs; a known fault makes its rows
# those of the run without the override, so it is counted as failed.
TREND_OVERRIDE = ["ratio", "--x", "1000", "--x", "10000", "--x", "100000", "--x", "400000",
                  "--k", "3", "--c", "0.3", "--override", "2=0.0"]


def _euler(memo: dict, z: float, shift: int) -> float:
    """Own f0 (shift 0) or f1 (shift 1) at the program's default truncation."""
    if (z, shift) not in memo:
        memo[z, shift] = oracles.euler_product(z, TRUNCATION, shift)
    return memo[z, shift]


class Workload:
    """A set-up, and rounds of operations with their checks.

    ops() returns (label, callable) pairs; the harness times the calls.
    check() returns how many operations failed by a known fault, and
    raises CheckFailed on a wrong output.  What needs a full-size recount
    goes to self.records, plain JSON values, and finish() checks the
    records of all the run's workers at once.
    """

    name = ""
    limit = 0

    def __init__(self, dl, cli):
        self.dl = dl
        self.cli = cli
        self.records = []
        self.memo = {}

    def setup(self):
        return self.dl.build_sieve(self.limit) if self.limit else None

    def finish(self, records):
        pass


# ---------------------------------------------------------------------------


class RatioScan(Workload):
    """ratio, abcd, monotonicity_scan and ratio_convergence on one 1e7 table,
    and the same questions through the CLI entry at small x."""

    name = "ratio_scan"
    limit = 10**7
    # (k, number of override primes) per ratio request.  Each slot keeps its k
    # in every round, because the d-major walk costs far more at k = 2 than
    # at k = 4 and a seeded k would make the round cost depend on the seed.
    REQUESTS = ((2, 0), (3, 1), (4, 2), (2, 3))
    SPLIT_K = 3  # abcd and the monotonicity scan
    CONV_K = 4  # ratio_convergence

    def draw(self, rng):
        x = rng.randint(9_900_000, self.limit)
        reqs = []
        for k, n_ov in self.REQUESTS:
            ov = {q: _c(rng, 0.0, 0.3) for q in rng.sample(SMALL_PRIMES, n_ov)}
            reqs.append((k, _c(rng, 0.05, 0.3), ov, rng.randint(1500, 3000)))
        return SimpleNamespace(
            x=x, reqs=reqs,
            k=self.SPLIT_K, c=_c(rng, 0.05, 0.3), p=rng.choice(SPLIT_PRIMES),
            vs=[v / 100 for v in sorted(rng.sample(range(61), 6))],
            conv_k=self.CONV_K, conv_c=_c(rng, 0.05, 0.3),
            grid=[rng.randint(10_000, 20_000), rng.randint(100_000, 200_000),
                  rng.randint(1_000_000, 2_000_000), x],
            cli_ratio=["ratio"] + [str(a) for a in (
                "--x", rng.randint(1000, 2000), "--x", rng.randint(2001, 3000), "--k", 3, "--c", _c(rng, 0.05, 0.3),
                "--override", f"{rng.choice(SMALL_PRIMES)}={_c(rng, 0.0, 0.3)}")],
        )

    def invoke(self, argv):
        """One in-process CLI invocation: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.parse_and_dispatch(list(argv))
        return code, out.getvalue(), err.getvalue()

    def ops(self, q, tb):
        dl = self.dl
        ops = [
            ("ratio", lambda k=k, c=c, ov=ov: dl.ratio(q.x, k, dl.PrimeWeight(c, ov, k_context=k), tb))
            for k, c, ov, _ in q.reqs
        ]
        ops += [
            ("abcd", lambda: dl.abcd(q.x, q.k, dl.PrimeWeight(q.c, k_context=q.k, strict_mode=False), q.p, tb)),
            ("monotonicity_scan", lambda: dl.monotonicity_scan(q.x, q.k, q.c, q.p, q.vs, tb)),
            ("ratio_convergence", lambda: dl.ratio_convergence(q.conv_k, q.conv_c, q.grid, tb)),
        ]
        ops += [(f"{name}/{fmt}", lambda argv=argv, fmt=fmt: self.invoke(argv + ["--format", fmt]))
                for name, argv in (("cli ratio", q.cli_ratio), ("cli trend-override", TREND_OVERRIDE))
                for fmt in ("csv", "json")]
        return ops

    def check(self, q, outs, tb):
        dl = self.dl
        for (k, c, ov, xr), rep in zip(q.reqs, outs):
            if failed(rep):
                continue
            require(rep.x == q.x and rep.k == k, "ratio report x, k")
            require(rep.predicted_limit == float(k) ** (-c), "predicted limit k**-c")
            checks.check_ratio_small_x(dl.ratio(xr, k, dl.PrimeWeight(c, ov, k_context=k), tb), xr, k, c, ov)
            # the timed report itself against the own recounts at full x, in finish()
            self.records.append(("ratio", q.x, k, c, sorted(ov.items()), rep.s_full, rep.s_small, rep.ratio))
        full = dl.full_class_counts(q.x, (), tb).total_pairs()
        small2 = dl.small_class_counts(q.x, 2, (), tb).total_pairs()
        self.records.append(("pairs", q.x, full, small2))

        dec, scan, conv = outs[len(q.reqs) : len(q.reqs) + 3]
        if not failed(dec):
            # h(p)a + b and h(p)c + d against the exact S_small and S_full, in finish()
            hp = Fraction(q.c)
            self.records.append(("abcd", q.x, q.k, q.c, str(hp * dec.a_exact + dec.b_exact),
                                 str(hp * dec.c_exact + dec.d_exact)))
            if not failed(scan):
                checks.check_scan(scan, dec)
        if not failed(scan):
            require(scan.verdict == "pass", f"scan verdict {scan.verdict}: {scan.notes}")
        if not failed(conv):
            require(conv.target == float(q.conv_k) ** (-q.conv_c), "convergence target")
            for xi, sf in zip(q.grid, conv.extra["s_full"]):
                self.records.append(("s_full", xi, q.conv_c, sf))
        return self._check_cli(q, outs[len(q.reqs) + 3 :])

    def _check_cli(self, q, outs):
        """CSV and JSON rows agree; the single-x rows equal the brute-force sums.

        Returns 2, the CSV and the JSON invocation, while the trend with an
        override prints other rows than the single-x runs at the same x.
        """
        rows = {}
        for name, pair in (("ratio", outs[:2]), ("trend", outs[2:])):
            if any(failed(o) for o in pair):
                continue
            (code_c, csv_text, err_c), (code_j, json_text, err_j) = pair
            require(code_c == code_j == 0, f"cli {name}: exit codes {code_c}, {code_j}: {err_c}{err_j}")
            rows[name] = checks.csv_json_rows(csv_text, json_text)[1]
        if "ratio" in rows:
            p_str, v_str = q.cli_ratio[-1].split("=")
            ov = {int(p_str): float(v_str)}
            require(len(rows["ratio"]) == 2, "cli ratio rows")
            for x, k, c, s_full, s_small, ratio, limit in rows["ratio"]:
                rep = SimpleNamespace(s_full=s_full, s_small=s_small, ratio=ratio)
                checks.check_ratio_small_x(rep, x, k, c, ov)
                require(limit == float(k) ** (-c), "k_pow_neg_c")
        if "trend" in rows and rows["trend"] != self._reference_trend_rows():
            return 2
        return 0

    def _reference_trend_rows(self):
        """The rows of single-x runs at the trend's x; the first against the brute-force sum."""
        if "trend" not in self.memo:
            common = TREND_OVERRIDE[9:]
            rows = []
            for xs in (TREND_OVERRIDE[1:7], TREND_OVERRIDE[7:9]):
                code, text, err = self.invoke(["ratio"] + xs + common)
                require(code == 0, f"single-x ratio: {err}")
                rows += checks.parse_csv(text)[1]
            x, k, c, s_full, s_small, ratio, _ = rows[0]
            want_full = oracles.s_full_exact(x, c, {2: 0.0})
            require(s_full == float(want_full), f"single-x ratio row at {x}")
            self.memo["trend"] = rows
        return self.memo["trend"]

    def finish(self, records):
        if not records:
            return
        om, sqf = oracles.omega_table(max(r[1] for r in records))
        # one joint histogram per x, over all override primes asked for at that x
        primes_at = {}
        for r in records:
            primes = primes_at.setdefault(r[1], set())
            if r[0] == "ratio":
                primes.update(p for p, _ in r[4])
        primes_at = {x: tuple(sorted(ps)) for x, ps in primes_at.items()}
        hists = oracles.omega_flag_histograms(om, sqf, list(primes_at.items()))
        counts = {}  # (x, k): squarefree multiple counts, shared by every weight at (x, k)

        def counts_at(x, k):
            if (x, k) not in counts:
                counts[x, k] = oracles.squarefree_multiple_counts(sqf, x, k)
            return counts[x, k]

        for r in records:
            kind, x, *rest = r
            joint = hists[x, primes_at[x]]
            plain = {j: cnt for (j, _), cnt in oracles.project_flags(joint, primes_at[x], ()).items()}
            if kind == "ratio":
                k, c, ov, s_full, s_small, ratio = rest
                ov = dict(ov)
                hist = oracles.project_flags(joint, primes_at[x], sorted(ov))
                rep = SimpleNamespace(x=x, s_full=s_full, s_small=s_small, ratio=ratio)
                checks.check_ratio_full_x(rep, hist, counts_at(x, k), k, c, ov)
            elif kind == "s_full":
                c, s_full = rest
                checks.check_s_full_histogram(s_full, plain, c, x)
            elif kind == "pairs":
                checks.check_pairs(rest[0], rest[1], plain, x)
            else:
                k, c, small, full = rest
                require(Fraction(small) == oracles.s_small_from_counts(counts_at(x, k), c, {}),
                        f"h(p)a + b != S_small at x={x}")
                require(Fraction(full) == oracles.s_full_from_histogram(plain, c),
                        f"h(p)c + d != S_full at x={x}")


# ---------------------------------------------------------------------------


class SeriesTables(Workload):
    """Excluded-prime series, gamma lemma, Selberg sums and D(x) on a 1e7 table,
    and the factorization census on the same table."""

    name = "series_tables"
    limit = 10**7
    SYNTHETIC = (10, 3, 2)  # (omega, k, records): 3**10 assignments per record
    IN_TABLE = (6, 3, 20)
    POOL = oracles.primes_to(61)  # the first 18 primes, the program's synthetic pool

    def draw(self, rng):
        p = rng.choice(SPLIT_PRIMES)
        oq = rng.choice([s for s in SMALL_PRIMES if s != p])
        return SimpleNamespace(
            c=_c(rng, 0.1, 0.9), ov={oq: _c(rng, 0.0, 0.9)}, p=p,
            x1=rng.randint(1_400_000, 1_500_000), x2=rng.randint(700_000, 750_000),
            xr=rng.randint(2000, 4000),
            n=rng.randint(400_000, 500_000),
            zw=_c(rng, 1.0, 2.5),
            gridw=[rng.randint(10_000, 20_000), rng.randint(100_000, 200_000),
                   rng.randint(500_000, 600_000)],
            zu=rng.choice((2, 3)),
            gridu=[rng.randint(10_000, 20_000), rng.randint(100_000, 200_000),
                   rng.randint(1_000_000, 2_000_000), rng.randint(9_900_000, self.limit)],
            gridek=[rng.randint(10_000, 12_000), rng.randint(100_000, 120_000),
                    rng.randint(1_000_000, 1_100_000), rng.randint(1_900_000, 2_000_000)],
            ekr=[10_000, 20_000, rng.randint(30_000, 40_000)],
            census_seeds=(rng.randrange(2**31), rng.randrange(2**31)),
        )

    def ops(self, q, tb):
        dl = self.dl

        def weight():
            return dl.PrimeWeight(q.c, q.ov)

        return [
            ("h_series_cumulative", lambda: dl.h_series_cumulative(q.x1, weight(), q.p, tb)),
            ("h_series", lambda: dl.h_series(q.x1, weight(), q.p, tb)),
            ("h_series", lambda: dl.h_series(q.x2, weight(), q.p, tb)),
            ("gamma_lemma_check", lambda: dl.gamma_lemma_check(q.n, "h_table", 50, tb, weight=weight(), p=q.p)),
            ("selberg_trend", lambda: dl.selberg_trend(q.zw, True, q.gridw, tb)),
            ("selberg_trend", lambda: dl.selberg_trend(q.zu, False, q.gridu, tb)),
            ("erdos_kac_distance", lambda: dl.erdos_kac_distance(q.gridek, tb)),
            ("census_sample_synthetic", lambda: dl.census_sample_synthetic(*self.SYNTHETIC, q.census_seeds[0], tb)),
            ("census_sample", lambda: dl.census_sample(*self.IN_TABLE, q.census_seeds[1], tb)),
        ]

    def check(self, q, outs, tb):
        dl = self.dl
        H, h1, h2, gam, selw, selu, ek, synthetic, in_table = outs
        for (om, k, cnt), out, where in ((self.SYNTHETIC, synthetic, "pool"), (self.IN_TABLE, in_table, "table")):
            if not failed(out):
                self._check_census(out, om, k, cnt, where)
        if not failed(H):
            # h_series has no oracle at x1 or x2 but H; where H raised they go unchecked
            if not failed(h1):
                checks.check_cumulative(H, q.x1, h1)
            if not failed(h2):
                checks.check_float_loop(float(H[q.x2]), h2, f"H[{q.x2}] against h_series")
            checks.check_float_loop(float(H[q.xr]), oracles.h_series_loop(q.xr, q.c, q.ov, q.p),
                                    f"H[{q.xr}]")
        if not failed(gam):
            require(len(gam.observed) == 50 and gam.extra["gamma_at_root"] > 0, "gamma grid")
            require(gam.extra["symmetry_max_rel"] <= 1e-12,
                    f"gamma symmetry defect {gam.extra['symmetry_max_rel']:.3e} > 1e-12")
        if not failed(selw):
            checks.check_float_loop(dl.selberg_exact(q.xr, q.zw, True, tb),
                                    oracles.selberg_weighted_loop(q.xr, q.zw), f"weighted Selberg at {q.xr}")
            require(len(selw.observed) == 3 and all(v > 0 for v in selw.observed), "weighted Selberg trend")
        if not failed(selu):
            x_top = q.gridu[-1]
            self.records.append(("selberg", x_top, q.zu, dl.selberg_exact(x_top, q.zu, False, tb),
                                 selu.observed[-1]))
        if not failed(ek):
            for x, d, obs in zip(q.gridek, ek.extra["distance"], ek.observed):
                require(close(obs, d * math.sqrt(math.log(math.log(x)))), f"D(x) scaling at {x}")
            for x, d in zip(q.ekr, dl.erdos_kac_distance(q.ekr, tb).extra["distance"]):
                want = oracles.kolmogorov_distance_loop(x)
                require(abs(d - want) <= 1e-12, f"D({x}) {d!r} vs loop {want!r}")
        return 0

    def _check_census(self, out, om, k, cnt, where):
        records, summary = out
        require(len(records) == cnt == summary.count, "census record count")
        for rec in records:
            checks.check_census_record(rec, k, om)
            if where == "pool":
                require(set(oracles.factorize(rec.n)) <= set(self.POOL), f"n={rec.n} outside the pool")
            else:
                require(rec.n <= self.limit, f"in-table n={rec.n} beyond the table")
        ratios = [r.ratio for r in records]
        require(summary.min_ratio == min(ratios) and summary.max_ratio == max(ratios), "census summary")
        require(close(summary.mean_ratio, sum(ratios) / len(ratios)), "census mean")

    def finish(self, records):
        if not records:
            return
        hists = oracles.omega_histograms(max(r[1] for r in records), [r[1] for r in records])
        for _, x, z, got, observed in records:
            exact = oracles.selberg_unweighted_exact(hists[x], z)
            require(got == float(exact), f"unweighted Selberg at x={x}, z={z}: {got!r} != {exact}")
            predictor = x * math.log(x) ** (z - 1.0) / math.gamma(z) * _euler(self.memo, float(z), 0)
            require(close(observed, exact / predictor, 1e-9), f"Selberg trend at x={x}")


# ---------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in (RatioScan, SeriesTables)}

__all__ = ["WORKLOADS", "CheckFailed"]
