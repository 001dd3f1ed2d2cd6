"""Workload checks: timed outputs are checked, and a raised output leaves the rest checked."""

import json
import math
import random
from types import SimpleNamespace

import divisorlab
import divisorlab.cli
import pytest

import workloads
from checks import CheckFailed


def test_ratio_scan_finish_checks_timed_reports_with_overrides():
    tables = divisorlab.build_sieve(5000)
    wl = workloads.RatioScan(divisorlab, divisorlab.cli)
    x, k, c, ov = 4000, 3, 0.2, {2: 0.1, 7: 0.0, 11: 0.25}
    rep = divisorlab.ratio(x, k, divisorlab.PrimeWeight(c, ov, k_context=k), tables)
    good = ("ratio", x, k, c, sorted(ov.items()), rep.s_full, rep.s_small, rep.ratio)
    wl.finish([good])
    # the records without overrides at the same x read the joint histogram's marginal
    full = divisorlab.full_class_counts(x, (), tables).total_pairs()
    small2 = divisorlab.small_class_counts(x, 2, (), tables).total_pairs()
    plain = divisorlab.ratio(x, k, divisorlab.PrimeWeight(c, k_context=k), tables)
    wl.finish([good, ("pairs", x, full, small2), ("s_full", x, c, plain.s_full)])
    with pytest.raises(CheckFailed):
        wl.finish([good, ("pairs", x, full + 1, small2)])
    for i in (5, 6, 7):
        bad = list(good)
        bad[i] = math.nextafter(bad[i], math.inf)
        with pytest.raises(CheckFailed):
            wl.finish([tuple(bad)])
    # counts built without one override prime or at another k: another weight's sums
    for wrong in (divisorlab.ratio(x, k, divisorlab.PrimeWeight(c, {2: 0.1, 7: 0.0}, k_context=k), tables),
                  divisorlab.ratio(x, 2, divisorlab.PrimeWeight(c, ov, k_context=2), tables)):
        with pytest.raises(CheckFailed):
            wl.finish([good[:5] + (wrong.s_full, wrong.s_small, wrong.ratio)])


def small_ratio_round(seed="skip"):
    """A ratio_scan round at x = 40000 on a 5e4 table, CLI questions included."""
    wl = workloads.RatioScan(divisorlab, divisorlab.cli)
    tables = divisorlab.build_sieve(50_000)
    q = wl.draw(random.Random(seed))
    q.x, q.grid = 40_000, [1000, 5000, 20_000, 40_000]
    return wl, q, tables


def test_ratio_scan_checks_the_outputs_that_returned():
    wl, q, tables = small_ratio_round()
    ops = wl.ops(q, tables)
    outs = [fn() for _, fn in ops]
    labels = [label for label, _ in ops]
    assert wl.check(q, outs, tables) == 2  # the trend-override pair, a known fault
    wl.finish(wl.records)
    outs[0] = RuntimeError("raised")
    assert wl.check(q, outs, tables) == 2
    # an S_full one digit off in the CLI's CSV, with the JSON kept: the rows differ
    i = labels.index("cli ratio/csv")
    code, text, err = outs[i]
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(math.nextafter(float(cells[3]), math.inf))
    lines[1] = ",".join(cells)
    outs[i] = (code, "\n".join(lines) + "\n", err)
    with pytest.raises(CheckFailed):
        wl.check(q, outs, tables)
    # the same S_full in both renderings: the brute-force sum catches it
    j = labels.index("cli ratio/json")
    payload = json.loads(outs[j][1])
    payload["rows"][0]["s_full"] = float(cells[3])
    outs[j] = (outs[j][0], json.dumps(payload), outs[j][2])
    with pytest.raises(CheckFailed, match="S_full"):
        wl.check(q, outs, tables)


def test_census_check_rejects_g_plus_one():
    wl = workloads.SeriesTables(divisorlab, divisorlab.cli)
    tables = divisorlab.build_sieve(100_000)
    om, k, cnt = wl.SYNTHETIC
    out = divisorlab.census_sample_synthetic(om, k, cnt, 7, tables)
    wl._check_census(out, om, k, cnt, "pool")
    records, summary = out
    rec = records[0]
    bad = [SimpleNamespace(**dict(vars(rec), g_k=rec.g_k + 1))] + records[1:]
    with pytest.raises(CheckFailed, match="closed form"):
        wl._check_census((bad, summary), om, k, cnt, "pool")
    with pytest.raises(CheckFailed, match="beyond the table"):
        wl._check_census(out, om, k, cnt, "table")
