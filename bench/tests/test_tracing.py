"""The tracer wraps direct imports, restores every binding, and skips missing names."""

import contextlib
import io
import random

import divisorlab
import divisorlab.cli
import tracing
import workloads
from run import digest
from test_workloads import small_ratio_round


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = divisorlab.cli.parse_and_dispatch(argv)
    return code, out.getvalue()


def test_tracer_sees_direct_imports_and_restores_bindings():
    before = {name: getattr(divisorlab.cli, name) for name in ("census", "build_sieve")}
    plain = _cli(["census", "--n", "30030", "--k", "3", "--limit", "1000"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert divisorlab.cli.census is not before["census"]
        tracer.begin_round()
        traced = _cli(["census", "--n", "30030", "--k", "3", "--limit", "1000"])
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {name: getattr(divisorlab.cli, name) for name in before} == before
    layers = {span[1] for span in tracer.spans}
    assert {"cli.self", "census.census", "sieve.build", "sieve.factor"} <= layers
    by_id = {span[0]: span for span in tracer.spans}
    census_span = next(s for s in tracer.spans if s[1] == "census.census")
    assert by_id[census_span[5]][1] == "cli.self"  # parent is the CLI span
    metrics = tracing.summarize(tracer.layers, tracer.rounds, tracer.build_calls, [1.0], [0.9], None)
    assert metrics["census.census_s"][0] > 0 and metrics["cli.self_s"][0] > 0
    assert metrics["census.assignments_per_s"][0] > 0


def test_missing_target_gives_absent_metric(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("gone.layer", "divisorlab.sieve", "no_such_function"),
        ("gone.module", "divisorlab.no_such_module", "f"),
    ])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_round()
    divisorlab.build_sieve(100)
    tracer.end_round()
    tracer.uninstall()
    assert "divisorlab.sieve.no_such_function" in tracer.missing
    metrics = tracing.summarize(tracer.layers, tracer.rounds, tracer.build_calls, [1.0], [1.0], None)
    assert "gone.layer_s" not in metrics and "gone.module_s" not in metrics
    assert metrics["sieve.build_s"][0] > 0


def test_traced_round_outputs_equal_untraced():
    wl, q, tables = small_ratio_round("test")
    plain = [fn() for _, fn in wl.ops(q, tables)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        traced = [fn() for _, fn in wl.ops(q, tables)]
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert digest(plain) == digest(traced)
    layers = tracer.rounds[0]["layers"]
    assert tracer.rounds[0]["counts"]["count_calls"] > 0 and layers["cli.self"] > 0
