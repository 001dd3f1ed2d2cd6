"""Single executable exposing the primitives and studies.

One subcommand per study; every run emits either CSV (header row first,
'#'-prefixed comment lines for summaries and verdicts) or a single JSON
object with "inputs", "rows", "verdict" keys.  Exit codes: 0 success,
1 invalid arguments or configuration, 2 when --check is set and any
verdict is "fail".  Identical invocations produce byte-identical output.
"""

import argparse
import json
import sys
from fractions import Fraction

from .census import census, census_sample, census_sample_synthetic
from . import divisor_sums as dsums
from . import experiments as ex
from .errors import ConfigurationError
from .euler import f0, f1, predict_s_full, predict_s_small
from .sieve import build_sieve, omega_class_counts
from .weights import PrimeWeight

SUBCOMMANDS = (
    "sieve-stats",
    "ratio",
    "monotone",
    "adbc",
    "euler",
    "predict",
    "prop32",
    "census",
    "erdos-kac",
    "gamma-lemma",
    "selberg",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _parse_override(text: str) -> tuple[int, float]:
    try:
        p_str, v_str = text.split("=", 1)
        return int(p_str), float(v_str)
    except ValueError as exc:
        raise _UsageError(f"--override expects p=v, got {text!r}") from exc


def _add_common(sub):
    sub.add_argument("--config", help="key = value file; flags take precedence")
    sub.add_argument("--limit", type=int, help="sieve extent (default: largest x needed)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--output", default=None, help="write here instead of stdout")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--check", action="store_true", default=None,
                     help="exit 2 if any verdict is 'fail'")
    sub.add_argument("--no-strict", dest="strict", action="store_false", default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="divisorlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="|".join(SUBCOMMANDS))

    sp = subs.add_parser("sieve-stats", parents=[], description="squarefree counts per omega class")
    _add_common(sp)

    sp = subs.add_parser("ratio", description="small/full divisor-sum ratio (trend if --x repeated)")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--override", action="append", default=[], metavar="p=v")

    sp = subs.add_parser("monotone", description="ratio as a function of the weight at one prime")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--v", type=float, action="append", default=None,
                    help="grid value for the weight at --prime (repeatable)")

    sp = subs.add_parser("adbc", description="prime-split decomposition of both aggregates")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--prime", type=int, required=True)

    sp = subs.add_parser("euler", description="truncated Euler-product constants")
    _add_common(sp)
    sp.add_argument("--which", choices=("f0", "f1"), required=True)
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--trunc", type=int, default=None)

    sp = subs.add_parser("predict", description="main-term predictors for both aggregates")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)

    sp = subs.add_parser("prop32", description="error-constant sweep for coprime squarefree counts")
    _add_common(sp)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--x", type=int, action="append", required=True)

    sp = subs.add_parser("census", description="ordered k-fold factorization census")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--omega", type=int)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--synthetic", action="store_true",
                    help="sample products of small primes instead of in-table n")

    sp = subs.add_parser("erdos-kac", description="normalized distinct-prime-count window mass")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)

    sp = subs.add_parser("gamma-lemma", description="f(x) f(N/x) decrease check beyond sqrt(N)")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True, dest="bign")
    sp.add_argument("--f", choices=("log_shift", "h_table"), default="log_shift")
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--points", type=int, default=None)

    sp = subs.add_parser("selberg", description="exact omega-power sums vs their predictor")
    _add_common(sp)
    sp.add_argument("--x", type=int, action="append", required=True)
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--weighted", action="store_true")

    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"config line {raw!r} is not key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


_CONFIG_COERCE = {
    "limit": int,
    "k": int,
    "c": float,
    "seed": int,
    "m_max": int,
    "points": int,
    "samples": int,
    "prime": int,
    "z": float,
    "a": float,
    "b": float,
    "format": str,
    "output": str,
    "strict": lambda s: s.lower() not in ("0", "false", "no"),
    "check": lambda s: s.lower() in ("1", "true", "yes"),
    # lists, comma-separated: "v = 0.1, 0.2" and "override = 2=0.0, 5=0.1"
    "v": lambda s: [float(t) for t in s.split(",")],
    "override": lambda s: [t.strip() for t in s.split(",")],
}


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    values = _load_config_file(args.config)
    for key, raw in values.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) in (None, []):  # an empty list flag was not given
            coerce = _CONFIG_COERCE.get(key, str)
            setattr(args, key, coerce(raw))


_BUILTIN_DEFAULTS = {
    "format": "csv",
    "seed": 0,
    "check": False,
    "strict": True,
    "k": 3,
    "c": 0.3,
    "m_max": 1000,
    "samples": 50,
    "points": 50,
    "z": 2.0,
    "a": -1.0,
    "b": 1.0,
    "trunc": 10**6,
    "prime": 2,
}


def _fill_defaults(args: argparse.Namespace) -> None:
    """Final stage of the flag -> config file -> built-in default chain."""
    for key, val in _BUILTIN_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, val)


class _Emitter:
    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.header: list[str] | None = None
        self.rows: list[list] = []
        self.comments: list[str] = []
        self.verdict: str | None = None

    def set_header(self, *names):
        self.header = list(names)

    def add_row(self, *values):
        self.rows.append(list(values))

    def comment(self, text: str):
        self.comments.append(text)

    def set_verdict(self, verdict: str):
        self.verdict = verdict
        self.comments.append(f"verdict={verdict}")

    def render(self, fmt: str) -> str:
        if fmt == "json":
            rows = [dict(zip(self.header, row)) for row in self.rows]
            payload = {"inputs": self.inputs, "rows": rows, "verdict": self.verdict}
            return json.dumps(payload) + "\n"
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        lines += [f"# {text}" for text in self.comments]
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _weight_from_args(args, k: int) -> PrimeWeight:
    overrides = dict(_parse_override(t) for t in getattr(args, "override", []) or [])
    return PrimeWeight(args.c, overrides, k_context=k, strict_mode=args.strict)


def _tables_for(args, needed: int):
    limit = args.limit if args.limit is not None else needed
    if limit < needed:
        raise ConfigurationError(f"limit={limit} below required extent {needed}")
    return build_sieve(max(limit, 2))


def _dispatch(args) -> tuple[_Emitter, int]:
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("config", "output", "format", "check") and v is not None
    }
    out = _Emitter(inputs)
    cmd = args.command

    if cmd == "sieve-stats":
        if args.limit is None:
            raise ConfigurationError("sieve-stats requires --limit")
        tables = _tables_for(args, args.limit)
        out.set_header("omega", "count")
        for om, count in sorted(omega_class_counts(args.limit, tables).items()):
            out.add_row(om, count)

    elif cmd == "ratio":
        xs = sorted(set(args.x))
        tables = _tables_for(args, xs[-1])
        w = _weight_from_args(args, args.k)
        out.set_header("x", "k", "c", "s_full", "s_small", "ratio", "k_pow_neg_c")
        if len(xs) >= 4:
            rep = ex.ratio_convergence(args.k, args.c, xs, tables,
                                       strict=args.strict, overrides=w.overrides)
            for x, robs, sf, ss in zip(xs, rep.observed, rep.extra["s_full"], rep.extra["s_small"]):
                out.add_row(x, args.k, args.c, sf, ss, robs, rep.target)
            out.comment(rep.notes)
            out.set_verdict(rep.verdict)
        else:
            for x in xs:
                rep = dsums.ratio(x, args.k, w, tables)
                out.add_row(x, args.k, args.c, rep.s_full, rep.s_small,
                            rep.ratio, rep.predicted_limit)

    elif cmd == "monotone":
        x = max(args.x)
        tables = _tables_for(args, x)
        v_grid = args.v if args.v else [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        rep = ex.monotonicity_scan(x, args.k, args.c, args.prime, v_grid, tables)
        out.set_header("v", "ratio", "predicted_ratio")
        for v, obs, pred in zip(rep.grid, rep.observed, rep.extra["predicted"]):
            out.add_row(v, obs, pred)
        out.comment(f"ad_minus_bc={rep.extra['ad_minus_bc']!r}")
        out.comment(rep.notes)
        out.set_verdict(rep.verdict)

    elif cmd == "adbc":
        x = max(args.x)
        tables = _tables_for(args, x)
        w = PrimeWeight(args.c, k_context=args.k, strict_mode=args.strict)
        full_cc, small_cc = dsums.counts_for_split(x, args.k, args.prime, (), tables)
        dec = dsums.abcd_from_counts(full_cc, small_cc, args.k, args.prime, w)
        full = dsums.weighted_total(full_cc, w)
        small = dsums.weighted_total(small_cc, w)
        hp = Fraction(w.value_at(args.prime))
        resid_small = float(hp * dec.a_exact + dec.b_exact - small)
        resid_full = float(hp * dec.c_exact + dec.d_exact - full)
        out.set_header("A", "B", "C", "D", "ad_minus_bc",
                       "identity_residual_small", "identity_residual_full")
        out.add_row(dec.a, dec.b, dec.c, dec.d, dec.ad_minus_bc, resid_small, resid_full)

    elif cmd == "euler":
        fn = f0 if args.which == "f0" else f1
        const = fn(args.z, args.trunc)
        out.set_header("which", "z", "value", "trunc", "tail_bound")
        out.add_row(args.which, args.z, const.value, const.truncation_prime, const.tail_bound)

    elif cmd == "predict":
        out.set_header("x", "k", "c", "predict_s_full", "predict_s_small", "ratio")
        for x in sorted(args.x):
            pf = predict_s_full(x, args.c)
            ps = predict_s_small(x, args.k, args.c)
            out.add_row(x, args.k, args.c, pf, ps, ps / pf)

    elif cmd == "prop32":
        xs = sorted(set(args.x))
        tables = _tables_for(args, max(xs[-1], args.m_max))
        rep = ex.prop32_scan(args.m_max, xs, tables)
        out.set_header("x", "max_constant", "argmax_m")
        for x, obs, m in zip(rep.grid, rep.observed, rep.extra["argmax_m"]):
            out.add_row(x, obs, m)
        out.comment(rep.notes)
        out.set_verdict(rep.verdict)

    elif cmd == "census":
        if (args.n is None) == (args.omega is None):
            raise ConfigurationError("census requires exactly one of --n or --omega")
        tables = _tables_for(args, args.limit or 10**6)
        out.set_header("n", "k", "omega", "tau_k", "g_k", "ratio")
        if args.n is not None:
            records = [census(args.n, args.k, tables)]
            summary = None
        elif args.synthetic:
            records, summary = census_sample_synthetic(
                args.omega, args.k, args.samples, args.seed, tables)
        else:
            records, summary = census_sample(
                args.omega, args.k, args.samples, args.seed, tables)
        for rec in records:
            out.add_row(rec.n, rec.k, rec.omega_n, rec.tau_k, rec.g_k, rec.ratio)
        if summary is not None:
            out.comment(
                f"mean_ratio={summary.mean_ratio!r} min={summary.min_ratio!r} "
                f"max={summary.max_ratio!r} k_half={summary.k / 2} "
                f"half_k_distance={summary.half_k_distance!r} (heuristic, not asserted)"
            )

    elif cmd == "erdos-kac":
        x = max(args.x)
        tables = _tables_for(args, x)
        rep = ex.erdos_kac_histogram(x, args.a, args.b, tables)
        out.set_header("x", "a", "b", "fraction", "normal_mass", "abs_diff", "skipped")
        out.add_row(x, args.a, args.b, rep.observed[0], rep.extra["phi"],
                    rep.extra["abs_diff"], rep.extra["skipped"])
        out.comment(rep.notes)
        out.set_verdict(rep.verdict)

    elif cmd == "gamma-lemma":
        tables = _tables_for(args, args.bign)
        weight = PrimeWeight(args.c, k_context=2, strict_mode=False)
        rep = ex.gamma_lemma_check(
            args.bign, args.f, args.points, tables,
            weight=weight if args.f == "h_table" else None,
            p=args.prime if args.f == "h_table" else None)
        out.set_header("x", "gamma")
        for t, val in zip(rep.grid, rep.observed):
            out.add_row(t, val)
        out.comment(rep.notes)
        out.set_verdict(rep.verdict)

    elif cmd == "selberg":
        xs = sorted(set(args.x))
        tables = _tables_for(args, xs[-1])
        rep = ex.selberg_trend(args.z, args.weighted, xs, tables)
        out.set_header("x", "observed_over_predictor")
        for x, obs in zip(rep.grid, rep.observed):
            out.add_row(x, obs)
        out.comment(rep.notes)
        out.set_verdict(rep.verdict)

    else:
        raise _UsageError(f"missing or unknown subcommand (expected one of {SUBCOMMANDS})")

    exit_code = 0
    if args.check and out.verdict == "fail":
        exit_code = 2
    return out, exit_code


def _check_x(args: argparse.Namespace) -> None:
    """Reject a k below 2 or an x beyond --limit before any table is built."""
    xs = getattr(args, "x", None)
    if not xs:
        return
    k = getattr(args, "k", None)
    if k is not None and k < 2:
        raise ConfigurationError(f"k={k} must be >= 2")
    if args.limit is not None and max(xs) > args.limit:
        raise ConfigurationError(f"x={max(xs)} exceeds the sieve limit {args.limit}")


def parse_and_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        _fill_defaults(args)
        if args.command is None:
            raise _UsageError(f"a subcommand is required: one of {SUBCOMMANDS}")
        _check_x(args)
        out, exit_code = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = out.render(args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
