"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload ratio_scan --seed 1 --seconds 30 --trace 0

Run from the root of a divisorlab checkout; the package is imported from
its `src/`.  A run starts one worker process.  The worker imports
divisorlab and builds the tables the workload reads (both timed, the
set-up), runs one untimed warm-up round, then timed rounds of the
workload's operation list until they add up to --seconds (at least
MIN_ROUNDS, at most MAX_ROUNDS).  Round i of a run draws its parameters
from (workload, seed, i), so every round has fresh ones.  Each round's
outputs are checked after its timer stops.  Set-up-only workers (import
and table build, no round) then follow, one after the other, until at
least MIN_SETUPS set-ups have been timed and the extra ones add up to
SETUP_SECONDS, since set-up runs once per process.  What needs a
full-size recount is checked last, in this process, over the records of
all rounds.  No two processes of a run ever run at once.

The warm-up round is there because a process's first round runs about
10% slower than its later ones (it faults in the memory that later
rounds reuse); the timed rounds are then alike, and their median is
taken over the whole run.

--trace 0 reports the end-to-end metrics: wall_s, the median timed
round; setup_s, the median over all set-ups of import plus table build;
peak_rss_mb, the peak resident set of the round worker.
--trace 1 reports the per-layer metrics from a traced worker that runs
for half of --seconds, followed by an untraced twin process on the same
rounds, whose outputs must be identical and whose walls give
trace.overhead_s.  Spans go to bench/out/.
"""

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ROUNDS = 5  # timed rounds, after the warm-up round
MAX_ROUNDS = 50  # keeps the checks of a much faster program within the time limit
MIN_SETUPS = 3
SETUP_SECONDS = 4.0
MAX_SETUPS = 12
WORKER_TIMEOUT_S = 150


def _run_ops(ops):
    """Time one round; an operation that raises is kept as its exception."""
    outs = []
    start = time.perf_counter()
    for _, fn in ops:
        try:
            outs.append(fn())
        except Exception as exc:  # counted as a failed operation
            outs.append(exc)
    return time.perf_counter() - start, outs


def _digest(obj, h):
    """Feed a canonical form of a program output into the hash h."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _digest(item, h)
    elif isinstance(obj, BaseException):
        h.update(repr((type(obj).__name__, str(obj))).encode())
    else:
        h.update(repr(obj).encode())


def digest(outs) -> str:
    h = hashlib.sha256()
    _digest(list(outs), h)
    return h.hexdigest()


def worker(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool,
           rounds: int | None) -> dict:
    """One worker process: set up, then (unless setup_only) run rounds and check them.

    Round 0 is the warm-up; timed rounds follow until they add up to
    seconds, or, for a twin, until `rounds` rounds have run in all.
    """
    t0 = time.perf_counter()
    dl = importlib.import_module("divisorlab")
    cli = importlib.import_module("divisorlab.cli")
    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[workload](dl, cli)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    t0 = time.perf_counter()
    tables = wl.setup()
    build_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()  # each round installs the wrappers afresh
    res = {"setup_s": import_s + build_s}
    if setup_only:
        return res

    res.update(walls=[], digests=[], attempted=0, failed=0, errors=[], check_s=0.0)
    walls = res["walls"]
    round_no = 0
    while True:
        if rounds is not None:
            if round_no >= rounds:
                break
        elif len(walls) >= MAX_ROUNDS or (len(walls) >= MIN_ROUNDS and sum(walls) >= seconds):
            break
        q = wl.draw(random.Random(f"{wl.name}/{seed}/{round_no}"))
        ops = wl.ops(q, tables)
        if tracer:
            tracer.install()
            if round_no:
                tracer.begin_round()
        wall, outs = _run_ops(ops)
        if tracer:
            if round_no:
                tracer.end_round()
            tracer.uninstall()  # the checks below call the program untraced
        if round_no:
            walls.append(wall)
        exceptions = [o for o in outs if isinstance(o, Exception)]
        for exc in exceptions:
            print(f"round {round_no}: {type(exc).__name__}: {exc}", file=sys.stderr)
        res["digests"].append(digest(outs))
        res["attempted"] += len(outs)
        t0 = time.perf_counter()
        try:
            # check() skips the outputs that are exceptions and checks the rest
            res["failed"] += len(exceptions) + wl.check(q, outs, tables)
        except workloads.CheckFailed as exc:
            res["failed"] += len(exceptions)
            res["errors"].append(f"round {round_no}: {exc}")
        res["check_s"] += time.perf_counter() - t0
        del outs
        round_no += 1
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["records"] = wl.records
    if tracer:
        res["trace"] = {"layers": sorted(tracer.layers), "rounds": tracer.rounds,
                        "build_calls": tracer.build_calls}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-{seed}.json")
    return res


def _spawn(workload, seed, seconds, trace, kind="round", rounds=None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", kind, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One round worker, then set-up-only workers, then the full-size recounts.

    With trace, the traced worker runs for half of seconds and an untraced
    twin then runs the same rounds in a fresh process, so that neither
    sees the other's warm caches; the twin's walls give the tracing
    overhead, and its outputs must hash the same as the traced ones.
    """
    part = _spawn(workload, seed, seconds / 2 if trace else seconds, trace)
    errors = part["errors"]
    setups = [part["setup_s"]]
    twin = None
    if trace:
        twin = _spawn(workload, seed, 0, False, rounds=len(part["digests"]))
        errors += twin["errors"]
        for i, (a, b) in enumerate(zip(part["digests"], twin["digests"])):
            if a != b:
                errors.append(f"round {i}: traced outputs differ from untraced")
    else:
        while len(setups) < MIN_SETUPS or (sum(setups[1:]) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
            setups.append(_spawn(workload, seed, 0, False, "setup")["setup_s"])

    import workloads

    t0 = time.perf_counter()
    try:
        workloads.WORKLOADS[workload](None, None).finish(part["records"])
    except workloads.CheckFailed as exc:
        errors.append(f"full-size recount: {exc}")
    finish_s = time.perf_counter() - t0

    med = statistics.median
    walls = part["walls"]
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    print(f"{workload} seed={seed}: walls " + " ".join(f"{w:.3f}" for w in walls)
          + "; set-up " + " ".join(f"{s:.2f}" for s in setups)
          + f"; checks {part['check_s']:.1f} s + {finish_s:.1f} s", file=sys.stderr)
    if not trace:
        metrics = {
            "wall_s": (med(walls), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (part["peak_rss_mb"], "MB"),
        }
    else:
        sys.path.insert(0, str(SRC))
        import tracing

        tr = part["trace"]
        build_calls = [tuple(c) for c in tr["build_calls"]]
        largest = max((n for n, _ in build_calls), default=0)
        alloc = None
        if largest:
            alloc = tracing.build_alloc_mb(importlib.import_module("divisorlab").build_sieve, largest)
        metrics = tracing.summarize(set(tr["layers"]), tr["rounds"], build_calls, walls, twin["walls"], alloc)
    return {
        "correct": not errors,
        "attempted": part["attempted"],
        "failed": part["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("round", "setup"), help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "divisorlab" / "__init__.py").is_file():
        print(f"error: no divisorlab package under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        # divisorlab must be the first import of numpy, so that import_s holds it
        sys.path[:0] = [str(SRC), str(HERE)]
        res = worker(args.workload, args.seed, args.seconds, bool(args.trace), args.worker == "setup",
                     args.rounds)
    else:
        sys.path.insert(0, str(HERE))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        try:
            res = run(args.workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
