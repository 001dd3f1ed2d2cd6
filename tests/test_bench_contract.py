"""One drawn round of each benchmark workload, run and checked as the harness does.

bench/run.py ends a run with exit code 1 when a worker raises anything
but CheckFailed: in set-up, in a round's checks, or while it digests or
writes a round's results.  A public name removed or renamed, a changed
signature or return type, or a record that is not JSON does that on any
path the workloads reach.  This round shows it in the test suite first.

A traced run reports one metric per layer and work counter; the layers
must be those that BENCHMARK.json declares, and the values strict JSON.
"""

import json
import random
import sys
from pathlib import Path

import pytest

import divisorlab
import divisorlab.cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))  # the harness imports its modules from there

import run as harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_runs_and_checks_clean(name, tables_large):
    wl = workloads.WORKLOADS[name](divisorlab, divisorlab.cli)
    assert wl.limit == tables_large.limit
    q = wl.draw(random.Random(f"{name}/1/1"))  # round 1 of seed 1, as the harness draws it
    _, outs = harness._run_ops(wl.ops(q, tables_large))
    assert [o for o in outs if isinstance(o, Exception)] == []
    harness.digest(outs)
    assert wl.check(q, outs, tables_large) == 0
    json.dumps(wl.records)


def test_traced_metrics_are_the_declared_per_layer_set():
    # a target that no longer resolves is skipped, and its layer's metrics
    # then go missing from a traced run's result
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    layers = {layer: 0.01 for layer in tracer.layers}
    counts = {"pairs": 10, "count_calls": 2, "distinct_requests": 1, "series_terms": 100,
              "assignments": 8, "primes_calls": 3}
    rounds = [{"layers": layers, "counts": counts}]
    metrics = tracing.summarize(tracer.layers, rounds, [(1000, 0.01)], [0.2], [0.1], 1.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    json.dumps(metrics, allow_nan=False)
