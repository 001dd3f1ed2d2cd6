"""Steadiness command: two interleaved sets of benchmark runs of the same code.

    python3 bench/steady.py --runs 5 [--seconds 30] [--workloads a,b] [--traced]

Runs every workload (or the listed ones) in a fresh process per run, one
process at a time.  The runs alternate between set A (seeds 1..runs) and
set B (seeds 101..100+runs), so a slow stretch of the machine hits both
sets alike.  For every end-to-end metric it prints, per workload and per
set, the median, the quartiles and the spread (interquartile distance
over the median), the spread over all runs together, and the ratio of
the B median to the A median.  The bounds in BENCHMARK.json come from
these figures.  --traced adds one traced run per workload and prints each
per-layer metric with its share of the workload's median wall_s.

The figures are also written to bench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    print(proc.stderr.strip().splitlines()[-1] + f" (run took {time.perf_counter() - t0:.1f} s)",
          file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {(w, s): [] for w in names for s in "AB"}
    for r in range(args.runs):
        for s, base in (("A", 1), ("B", 101)) if r % 2 == 0 else (("B", 101), ("A", 1)):
            for w in names:
                res = run_one(w, base + r, args.seconds, 0)
                runs[w, s].append(res)
                print(f"# {w} set {s} seed {base + r}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                      + f" attempted={res['attempted']} failed={res['failed']} correct={res['correct']}",
                      file=sys.stderr, flush=True)

    report = {"runs": {f"{w}/{s}": v for (w, s), v in runs.items()}, "summary": {}}
    print(f"{'workload':14} {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
          f"{'bound':>6} {'B/A':>6}  failed/attempted")
    for w in names:
        for m in bounds:
            vals = {s: [res["metrics"][m]["value"] for res in runs[w, s]] for s in "AB"}
            unit = runs[w, "A"][0]["metrics"][m]["unit"]
            rows = dict(vals, all=vals["A"] + vals["B"])
            meds = {}
            for s, v in rows.items():
                q1, med, q3 = quartiles(v) if len(v) > 1 else (v[0], v[0], v[0])
                meds[s] = med
                share = {x: sum(res[x] for res in runs[w, s]) for x in ("failed", "attempted")} \
                    if s in "AB" else None
                ratio = f"{meds['B'] / meds['A']:6.3f}" if s == "B" else ""
                print(f"{w:14} {m + ' ' + unit:12} {s:3} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{(q3 - q1) / med:7.4f} {bounds[m]:6.3f} {ratio:>6}  "
                      + (f"{share['failed']}/{share['attempted']}" if share else ""))
                report["summary"][f"{w}/{m}/{s}"] = {"median": med, "q1": q1, "q3": q3,
                                                      "spread": (q3 - q1) / med, "unit": unit}

    if args.traced:
        print(f"\n{'workload':14} {'per-layer metric':36} {'value':>14}  share of wall_s")
        for w in names:
            res = run_one(w, 1, args.seconds, 1)
            wall = report["summary"][f"{w}/wall_s/all"]["median"]
            report["runs"][f"{w}/traced"] = [res]
            for m, v in sorted(res["metrics"].items()):
                share = f"{v['value'] / wall:7.1%}" if v["unit"] == "s" and m != "sieve.build_s" else ""
                print(f"{w:14} {m:36} {v['value']:14.6g} {v['unit']:5} {share}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
