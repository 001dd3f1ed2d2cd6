"""Benchmark two checkouts in alternated pairs and write one BENCH file.

    python3 tools/bench_pair.py --parent DIR --change DIR --out BENCH_28.json \\
        --workload ratio_scan --seeds 11 12 13

For each workload and seed, a pair runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

with T the "run_seconds" of BENCHMARK.json, once in each checkout, one
process at a time.  The side that runs first alternates from pair to pair,
so a drift of the host's speed falls on both sides alike.  The file is
rewritten after every pair.  It holds every run and, per workload, side
and end-to-end metric of BENCHMARK.json, the median and quartiles, with
the pairs that the change won; and the seeds, each side's commit and a
digest of its src/, the host and the command line.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def bench_command(workload, seed, seconds) -> str:
    return f"python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace 0"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process in checkout: its JSON line, or the error it ended with."""
    cmd = [sys.executable, *bench_command(workload, seed, seconds).split()[1:]]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles of the values, by the exclusive method of bench/steady.py."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's spread of each end-to-end metric, and the pairs the change won.

    runs holds records {"workload", "seed", "side", "result"}, result being
    a bench/run.py JSON line or {"error": ...}; end_to_end is the list of
    BENCHMARK.json, whose "better" says which way is a win.  A pair is the
    two sides' runs of one workload and seed; a run that ended in an error
    counts in neither spread nor pair, and a metric that no run of a side
    reports is left out.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        done = {(r["seed"], r["side"]): r["result"] for r in runs
                if r["workload"] == workload and "error" not in r["result"]}
        seeds = sorted({seed for seed, _ in done})
        out = {
            "runs": {side: sum((s, side) in done for s in seeds) for side in SIDES},
            "all_correct": {side: all(done[s, side]["correct"] for s in seeds if (s, side) in done)
                            for side in SIDES},
            "failed_ops": {side: sum(done[s, side]["failed"] for s in seeds if (s, side) in done)
                           for side in SIDES},
            "metrics": {},
        }
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            got = {run: res["metrics"][name]["value"] for run, res in done.items() if name in res["metrics"]}
            values = {side: [got[s, side] for s in seeds if (s, side) in got] for side in SIDES}
            if all(values.values()):
                pairs = [(got[s, "parent"], got[s, "change"]) for s in seeds if {(s, "parent"), (s, "change")} <= got.keys()]
                out["metrics"][name] = {
                    **{side: spread(values[side]) for side in SIDES},
                    "pairs": len(pairs),
                    "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                }
        summary[workload] = out
    return summary


def invocation(args) -> str:
    """The command line of this run, the two checkouts named by their role."""
    workloads = " ".join(f"--workload {w}" for w in args.workload)
    seeds = " ".join(map(str, args.seeds))
    return (f"python3 tools/bench_pair.py --parent <parent checkout> --change <change checkout> --out {args.out.name} "
            f"{workloads} --seeds {seeds}")


def checkout_info(checkout: Path) -> dict:
    """The checkout's commit and whether its tree differs (None outside git), and a sha256 of its src/."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--", ".")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def host_info() -> dict:
    memory = None
    try:
        with open("/proc/meminfo") as fh:
            memory = next(int(line.split()[1]) // 1024 for line in fh if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {"cores": os.cpu_count(), "memory_mb": memory, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": version("numpy")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = bench["run_seconds"], bench["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": bench_command("<workload>", "<seed>", seconds),
        "invocation": invocation(args),
        "host": host_info(),
        "seeds": args.seeds,
        "sides": {side: checkout_info(path) for side, path in checkouts.items()},
        "summary": {},
        "runs": [],
    }
    pair = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_bench(checkouts[side], workload, seed, seconds)
                record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                       "first": side == order[0], "result": result})
                print(f"{workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr, flush=True)
            pair += 1
            record["summary"] = summarize(record["runs"], end_to_end)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
