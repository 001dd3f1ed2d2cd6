"""In-memory span tracer installed around divisorlab's public functions.

The wrappers are installed from here, not from inside the program: every
binding of a target function in a loaded `divisorlab` module is replaced,
so the names that modules import directly (`from .census import census`
in `cli`, the package re-exports) are traced as well.  A target that a
later change renames or removes is skipped, and its layer metric is then
absent instead of the run crashing.

A span is (id, layer, function, start, end, parent id, self time); the
self time is the duration minus the durations of the traced spans it
contains.  Spans stay in memory and are written out once, at the end.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc

# (layer, module, attribute); the layer's metric is "<layer>_s".
TARGETS = [
    ("sieve.build", "divisorlab.sieve", "build_sieve"),
    ("sieve.primes", "divisorlab.sieve", "SieveTables.primes"),
    ("sieve.factor", "divisorlab.sieve", "factor_squarefree"),
    ("sieve.primes_up_to", "divisorlab.sieve", "primes_up_to"),
    ("divisor_sums.full_counts", "divisorlab.divisor_sums", "full_class_counts"),
    ("divisor_sums.small_counts", "divisorlab.divisor_sums", "small_class_counts"),
    ("divisor_sums.abcd_counts", "divisorlab.divisor_sums", "abcd_class_counts"),
    ("divisor_sums.weighting", "divisorlab.divisor_sums", "weighted_total"),
    ("divisor_sums.series", "divisorlab.divisor_sums", "h_series"),
    ("divisor_sums.series", "divisorlab.divisor_sums", "h_series_cumulative"),
    ("divisor_sums.self", "divisorlab.divisor_sums", "ratio"),
    ("divisor_sums.self", "divisorlab.divisor_sums", "abcd"),
    ("divisor_sums.self", "divisorlab.divisor_sums", "s_full"),
    ("divisor_sums.self", "divisorlab.divisor_sums", "s_small"),
    ("euler.selberg", "divisorlab.euler", "selberg_exact"),
    ("euler.constants", "divisorlab.euler", "f0"),
    ("euler.constants", "divisorlab.euler", "f1"),
    ("euler.constants", "divisorlab.euler", "predict_s_full"),
    ("euler.constants", "divisorlab.euler", "predict_s_small"),
    ("weights.self", "divisorlab.weights", "PrimeWeight.__post_init__"),
    ("weights.self", "divisorlab.weights", "PrimeWeight.with_override"),
    ("weights.self", "divisorlab.weights", "h_eval"),
    ("weights.self", "divisorlab.weights", "g_eval"),
    ("weights.self", "divisorlab.weights", "tau_k_squarefree"),
    ("weights.self", "divisorlab.weights", "e_of_m"),
    ("census.census", "divisorlab.census", "census"),
    ("census.census", "divisorlab.census", "census_sample"),
    ("census.census", "divisorlab.census", "census_sample_synthetic"),
    ("experiments.self", "divisorlab.experiments", "ratio_convergence"),
    ("experiments.self", "divisorlab.experiments", "monotonicity_scan"),
    ("experiments.self", "divisorlab.experiments", "prop32_scan"),
    ("experiments.self", "divisorlab.experiments", "gamma_lemma_check"),
    ("experiments.self", "divisorlab.experiments", "selberg_trend"),
    ("experiments.erdos_kac", "divisorlab.experiments", "erdos_kac_distance"),
    ("experiments.erdos_kac", "divisorlab.experiments", "erdos_kac_histogram"),
    ("cli.self", "divisorlab.cli", "parse_and_dispatch"),
]

COUNT_LAYERS = ("divisor_sums.full_counts", "divisor_sums.small_counts", "divisor_sums.abcd_counts")

def _resolve(module: str, attr: str):
    """(owner, name, function) for module[.Class].name, or None if it is gone."""
    try:
        owner = importlib.import_module(module)  # the module even where a name shadows it
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return (owner, name, fn) if callable(fn) else None


def _first_arg(args, kwargs, names):
    for n in names:
        if n in kwargs:
            return kwargs[n]
    return args[0] if args else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.next_id = 0
        self.stack = []
        self.rounds = []  # per traced round: {"layers": {layer: self s}, "counts": {name: n}}
        self.build_calls = []  # (limit, duration)
        self.cur = None
        self.installed = []
        self.missing = set()
        self.layers = set()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every resolvable target; remember how to undo it."""
        for layer, module, attr in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.add(f"{module}.{attr}")
                continue
            owner, name, fn = found
            wrapper = self._wrap(layer, fn)
            self.layers.add(layer)
            if inspect.isclass(owner):
                self.installed.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "divisorlab" or mod is None:
                    continue
                for gname, value in list(vars(mod).items()):
                    if value is fn:
                        self.installed.append((mod, gname, fn))
                        setattr(mod, gname, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self.installed):
            setattr(owner, name, fn)
        self.installed = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self
        fname = getattr(fn, "__qualname__", repr(fn))
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.next_id += 1
            frame = [tracer.next_id, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append((frame[0], layer, fname, start, end,
                                     parent[0] if parent else None, dur - frame[1]))
                tracer._account(layer, dur - frame[1])
            tracer._count(layer, fname, sig, args, kwargs, result, dur)
            return result

        return wrapper

    def _account(self, layer, self_time):
        if self.cur is not None:
            layers = self.cur["layers"]
            layers[layer] = layers.get(layer, 0.0) + self_time

    def _bump(self, key, amount=1):
        if self.cur is not None:
            self.cur["counts"][key] = self.cur["counts"].get(key, 0) + amount

    def _count(self, layer, fname, sig, args, kwargs, result, dur):
        """Work counters at the layer boundary; unknown shapes are not counted."""
        try:
            if layer == "sieve.build":
                self.build_calls.append((int(_first_arg(args, kwargs, ("limit",))), dur))
            elif layer == "sieve.primes":
                self._bump("primes_calls")
            elif layer in COUNT_LAYERS:
                parts = result if isinstance(result, tuple) else (result,)
                self._bump("pairs", sum(part.total_pairs() for part in parts))
                self._bump("count_calls")
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                ops = a.get("override_primes", ())
                key = (fname, a.get("x"), a.get("k"), tuple(sorted(ops)), a.get("p"), a.get("method"))
                if self.cur is not None:
                    self.cur["keys"].append(key)
            elif layer == "divisor_sums.series":
                self._bump("series_terms", int(_first_arg(args, kwargs, ("x",))))
            elif fname == "census":
                self._bump("assignments", int(result.tau_k))
        except (AttributeError, TypeError, ValueError):
            pass

    # -- rounds ------------------------------------------------------------

    def begin_round(self):
        self.cur = {"layers": {}, "counts": {}, "keys": []}

    def end_round(self):
        keys = self.cur.pop("keys")
        self.cur["counts"]["distinct_requests"] = len(set(keys))
        self.rounds.append(self.cur)
        self.cur = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": sorted(self.missing),
                       "fields": ["id", "layer", "function", "start", "end", "parent", "self_s"],
                       "spans": self.spans}, fh)


def summarize(layers, rounds, build_calls, traced_walls, untraced_walls, alloc_mb):
    """Per-layer metrics from traced rounds: {name: (value, unit)}.

    A "<layer>_s" metric is the median over traced rounds of the layer's
    self time in the round, except sieve.build_s, the median self time of
    one build_sieve call (set-up builds included).  Rates divide the
    work of all traced rounds by the layer's self time in them.
    """
    med = statistics.median
    out = {}
    for layer in sorted(layers):
        if layer != "sieve.build":
            out[f"{layer}_s"] = (med([r["layers"].get(layer, 0.0) for r in rounds]), "s")

    def rate(names, key):
        work = sum(r["counts"].get(key, 0) for r in rounds)
        secs = sum(r["layers"].get(name, 0.0) for r in rounds for name in names)
        return work / secs if secs > 0 else 0.0

    def count(key):
        return med([r["counts"].get(key, 0) for r in rounds])

    if "sieve.build" in layers:
        durs = [d for _, d in build_calls]
        out["sieve.build_s"] = (med(durs) if durs else 0.0, "s")
        out["sieve.integers_per_s"] = (sum(n for n, _ in build_calls) / sum(durs) if durs else 0.0, "1/s")
        if alloc_mb is not None:
            out["sieve.build_alloc_mb"] = (alloc_mb, "MB")
    if "sieve.primes" in layers:
        out["sieve.primes_calls"] = (count("primes_calls"), "count")
    if set(COUNT_LAYERS) <= set(layers):
        out["divisor_sums.pairs_per_s"] = (rate(COUNT_LAYERS, "pairs"), "1/s")
        out["divisor_sums.count_calls"] = (count("count_calls"), "count")
        out["divisor_sums.distinct_count_frac"] = (med([
            r["counts"]["distinct_requests"] / r["counts"]["count_calls"]
            if r["counts"].get("count_calls") else 0.0 for r in rounds]), "ratio")
    if "divisor_sums.series" in layers:
        out["divisor_sums.series_terms_per_s"] = (rate(("divisor_sums.series",), "series_terms"), "1/s")
    if "census.census" in layers:
        out["census.assignments_per_s"] = (rate(("census.census",), "assignments"), "1/s")
    out["trace.overhead_s"] = (med(traced_walls) - med(untraced_walls), "s")
    return out


def build_alloc_mb(build, limit):
    """tracemalloc peak, in MB, of one build at limit (run untimed, after the rounds)."""
    tracemalloc.start()
    try:
        tables = build(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tables
    return peak / 2**20
