"""Single executable exposing the primitives and studies.

One subcommand per study; every run emits either CSV (header row first,
'#'-prefixed comment lines for summaries and verdicts) or a single JSON
object with "inputs", "rows", "verdict" keys.  Exit codes: 0 success,
1 invalid arguments or configuration, 2 when --check is set and any
verdict is "fail".  Identical invocations produce byte-identical output.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

from .census import census, census_sample, census_sample_synthetic
from . import divisor_sums as dsums
from . import experiments as ex
from .errors import ConfigurationError, DomainError, RangeError
from .euler import f0, f1, predict_s_full, predict_s_small
from .sieve import build_sieve, omega_class_counts, primes_up_to
from .weights import PrimeWeight


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _switch(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ConfigurationError(f"expected true or false, got {text!r}")


@dataclass(frozen=True)
class Flag:
    """One flag, read the same way from argv and from a config file.

    `type` reads one value.  A repeated flag collects a list: `--v 0.1
    --v 0.2` on the command line, `v = 0.1, 0.2` in a config file.  A
    switch takes no value on the command line and sets the opposite of
    its default; in a config file it reads `true` or `false`.
    """

    option: str
    type: Callable = str
    default: object = None
    repeat: bool = False
    switch: bool = False
    choices: tuple | None = None
    help: str | None = None
    metavar: str | None = None

    def add_to(self, parser: argparse.ArgumentParser, dest: str, required: bool) -> None:
        # default None marks "not on the command line", so the fill step can
        # tell a given flag from one that falls back to config or default
        if self.switch:
            kind = {"action": "store_false" if self.default else "store_true"}
        else:
            kind = {"action": "append" if self.repeat else "store", "type": self.type,
                    "choices": self.choices, "metavar": self.metavar}
        parser.add_argument(self.option, dest=dest, default=None, required=required,
                            help=self.help, **kind)

    def read(self, key: str, text: str):
        """The value of the config line `key = text`."""
        items = [t.strip() for t in text.split(",")] if self.repeat else [text]
        values = [self.type(t) for t in items]
        for v in values:
            if self.choices and v not in self.choices:
                raise ConfigurationError(f"config {key}={v!r} is not one of {self.choices}")
        return values if self.repeat else values[0]


# Keyed by the config key, which is also the argparse dest and the name in
# the JSON "inputs" echo.
FLAGS = {
    "config": Flag("--config", help="key = value file; flags take precedence"),
    "limit": Flag("--limit", int, help="sieve extent (default: the largest of x, --prime, --m-max and "
                  "gamma-lemma's --n; census --omega: 1000000; census --n N: isqrt(N)+1, at most "
                  "1000000; sieve-stats: required; predict: the largest x it accepts)"),
    "format": Flag("--format", default="csv", choices=("csv", "json")),
    "output": Flag("--output", help="write here instead of stdout"),
    "seed": Flag("--seed", int, 0),
    "check": Flag("--check", _switch, False, switch=True,
                  help="exit 2 if any verdict is 'fail'"),
    "strict": Flag("--no-strict", _switch, True, switch=True),
    "x": Flag("--x", int, repeat=True),
    "k": Flag("--k", int, 3),
    "c": Flag("--c", float, 0.3),
    "override": Flag("--override", default=(), repeat=True, metavar="p=v"),
    "prime": Flag("--prime", int, 2),
    "v": Flag("--v", float, repeat=True,
              help="grid value for the weight at --prime (repeatable)"),
    "which": Flag("--which", choices=("f0", "f1")),
    "z": Flag("--z", float, 2.0),
    "trunc": Flag("--trunc", int, 10**6),
    "m_max": Flag("--m-max", int, 1000),
    "n": Flag("--n", int),
    "omega": Flag("--omega", int),
    "samples": Flag("--samples", int, 50),
    "synthetic": Flag("--synthetic", _switch, False, switch=True,
                      help="sample products of small primes instead of in-table n"),
    "a": Flag("--a", float, -1.0),
    "b": Flag("--b", float, 1.0),
    "bign": Flag("--n", int),  # gamma-lemma's N, echoed as "bign"
    "f": Flag("--f", default="log_shift", choices=("log_shift", "h_table")),
    "points": Flag("--points", int, 50),
    "weighted": Flag("--weighted", _switch, False, switch=True),
}

# Every run reads these; a subcommand lists the rest, each where it is read.
COMMON = ("config", "format", "output")


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


class _Emitter:
    def __init__(self, inputs: dict, header: tuple):
        self.inputs = inputs
        self.header = header
        self.rows: list[tuple] = []
        self.comments: list[str] = []
        self.verdict: str | None = None

    def comment(self, text: str):
        self.comments.append(text)

    def report(self, rep):
        """Close with a TrendReport's notes and verdict."""
        self.comment(rep.notes)
        self.verdict = rep.verdict
        self.comment(f"verdict={rep.verdict}")

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


def _parse_override(text: str) -> tuple[int, float]:
    try:
        p_str, v_str = text.split("=", 1)
        return int(p_str), float(v_str)
    except ValueError as exc:
        raise _UsageError(f"--override expects p=v, got {text!r}") from exc


# -- table extents: the sieve limit a run needs; may reject the arguments
#    before any table is built

def _max_x(args) -> int:
    return max(args.x)


def _sieve_stats_extent(args) -> int:
    if args.limit is None:
        raise ConfigurationError("sieve-stats requires --limit")
    return args.limit


def _census_extent(args) -> int:
    if (args.n is None) == (args.omega is None):
        raise ConfigurationError("census requires exactly one of --n or --omega")
    if args.limit:
        return args.limit
    if args.n is None:
        return 10**6
    # census factors n by trial division over the table's primes up to sqrt(n)
    return min(isqrt(max(args.n, 0)) + 1, 10**6)


def _gamma_lemma_extent(args) -> int | None:
    return max(args.bign, args.prime) if args.f == "h_table" else None  # log_shift needs no table


# -- runners: fill the emitter's rows, comments and verdict

def _run_sieve_stats(args, tables, out):
    out.rows.extend(sorted(omega_class_counts(args.limit, tables).items()))


def _run_ratio(args, tables, out):
    xs = sorted(set(args.x))
    overrides = dict(map(_parse_override, args.override))
    if len(overrides) < len(args.override):
        raise ConfigurationError(f"--override gives a prime more than once: {args.override}")
    PrimeWeight(args.c, overrides, k_context=args.k, strict_mode=args.strict)  # checks every value
    # A named prime above the table divides no counted n: check it by trial
    # division, and leave it out of the weight the library gets.
    for p in [p for p in overrides if p > tables.limit]:
        if p > 2**31:
            raise RangeError(f"override prime {p} beyond the supported 2**31")
        if (p % primes_up_to(isqrt(p)) == 0).any():
            raise DomainError(f"override key {p} is not prime")
        del overrides[p]
    w = PrimeWeight(args.c, overrides, k_context=args.k, strict_mode=args.strict)
    if len(xs) >= 4:
        rep = ex.ratio_convergence(args.k, args.c, xs, tables,
                                   strict=args.strict, overrides=w.overrides)
        for x, robs, sf, ss in zip(xs, rep.observed, rep.extra["s_full"], rep.extra["s_small"]):
            out.rows.append((x, args.k, args.c, sf, ss, robs, rep.target))
        out.report(rep)
    else:
        for x in xs:
            rep = dsums.ratio(x, args.k, w, tables)
            out.rows.append((x, args.k, args.c, rep.s_full, rep.s_small,
                             rep.ratio, rep.predicted_limit))


def _run_monotone(args, tables, out):
    v_grid = args.v if args.v else [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    rep = ex.monotonicity_scan(max(args.x), args.k, args.c, args.prime, v_grid, tables)
    out.rows.extend(zip(rep.grid, rep.observed, rep.extra["predicted"]))
    out.comment(f"ad_minus_bc={rep.extra['ad_minus_bc']!r}")
    out.report(rep)


def _run_adbc(args, tables, out):
    x = max(args.x)
    w = PrimeWeight(args.c, k_context=args.k, strict_mode=args.strict)
    full_cc, small_cc = dsums.counts_for_split(x, args.k, args.prime, (), tables)
    dec = dsums.abcd_from_counts(full_cc, small_cc, args.k, args.prime, w)
    full = dsums.weighted_total(full_cc, w)
    small = dsums.weighted_total(small_cc, w)
    hp = Fraction(w.value_at(args.prime))
    resid_small = float(hp * dec.a_exact + dec.b_exact - small)
    resid_full = float(hp * dec.c_exact + dec.d_exact - full)
    out.rows.append((dec.a, dec.b, dec.c, dec.d, dec.ad_minus_bc, resid_small, resid_full))


def _run_euler(args, tables, out):
    const = (f0 if args.which == "f0" else f1)(args.z, args.trunc)
    out.rows.append((args.which, args.z, const.value, const.truncation_prime, const.tail_bound))


def _run_predict(args, tables, out):
    for x in sorted(args.x):
        pf = predict_s_full(x, args.c)
        ps = predict_s_small(x, args.k, args.c)
        out.rows.append((x, args.k, args.c, pf, ps, ps / pf))


def _run_prop32(args, tables, out):
    rep = ex.prop32_scan(args.m_max, sorted(set(args.x)), tables)
    out.rows.extend(zip(rep.grid, rep.observed, rep.extra["argmax_m"]))
    out.report(rep)


def _run_census(args, tables, out):
    summary = None
    if args.n is not None:
        records = [census(args.n, args.k, tables)]
    else:
        sample = census_sample_synthetic if args.synthetic else census_sample
        records, summary = sample(args.omega, args.k, args.samples, args.seed, tables)
    out.rows.extend((r.n, r.k, r.omega_n, r.tau_k, r.g_k, r.ratio) for r in records)
    if summary is not None:
        out.comment(
            f"mean_ratio={summary.mean_ratio!r} min={summary.min_ratio!r} "
            f"max={summary.max_ratio!r} k_half={summary.k / 2} "
            f"half_k_distance={summary.half_k_distance!r} (heuristic, not asserted)"
        )


def _run_erdos_kac(args, tables, out):
    x = max(args.x)
    rep = ex.erdos_kac_histogram(x, args.a, args.b, tables)
    out.rows.append((x, args.a, args.b, rep.observed[0], rep.extra["phi"],
                     rep.extra["abs_diff"], rep.extra["skipped"]))
    out.report(rep)


def _run_gamma_lemma(args, tables, out):
    # the log_shift choice ignores the weight and the prime
    weight = PrimeWeight(args.c, k_context=2, strict_mode=False)
    rep = ex.gamma_lemma_check(args.bign, args.f, args.points, tables, weight=weight, p=args.prime)
    out.rows.extend(zip(rep.grid, rep.observed))
    out.report(rep)


def _run_selberg(args, tables, out):
    rep = ex.selberg_trend(args.z, args.weighted, sorted(set(args.x)), tables)
    out.rows.extend(zip(rep.grid, rep.observed))
    out.report(rep)


@dataclass(frozen=True)
class Command:
    """One subcommand.

    `flags` follow the common ones: each is read by the extent, the
    runner or `_dispatch`.  Those in `required` must be on the command
    line.  `header` names the CSV columns and the JSON row keys.
    `extent(args)` gives the sieve limit the run needs, or None when the
    run builds no table; a command that never builds one has no extent.
    `run(args, tables, out)` fills the output.
    """

    description: str
    flags: tuple[str, ...]
    required: tuple[str, ...]
    header: tuple[str, ...]
    extent: Callable | None
    run: Callable


COMMANDS = {
    "sieve-stats": Command(
        "squarefree counts per omega class", ("limit",), (),
        ("omega", "count"), _sieve_stats_extent, _run_sieve_stats),
    "ratio": Command(
        "small/full divisor-sum ratio (trend if --x repeated)",
        ("x", "k", "c", "override", "limit", "check", "strict"), ("x",),
        ("x", "k", "c", "s_full", "s_small", "ratio", "k_pow_neg_c"), _max_x, _run_ratio),
    "monotone": Command(
        "ratio as a function of the weight at one prime",
        ("x", "k", "c", "prime", "v", "limit", "check"), ("x", "prime"),
        ("v", "ratio", "predicted_ratio"), lambda a: max(*a.x, a.prime), _run_monotone),
    "adbc": Command(
        "prime-split decomposition of both aggregates",
        ("x", "k", "c", "prime", "limit", "strict"), ("x", "prime"),
        ("A", "B", "C", "D", "ad_minus_bc", "identity_residual_small", "identity_residual_full"),
        lambda a: max(*a.x, a.prime), _run_adbc),
    "euler": Command(
        "truncated Euler-product constants",
        ("which", "z", "trunc"), ("which", "z"),
        ("which", "z", "value", "trunc", "tail_bound"), None, _run_euler),
    "predict": Command(
        "main-term predictors for both aggregates",
        ("x", "k", "c", "limit"), ("x",),
        ("x", "k", "c", "predict_s_full", "predict_s_small", "ratio"), None, _run_predict),
    "prop32": Command(
        "error-constant sweep for coprime squarefree counts",
        ("m_max", "x", "limit", "check"), ("x",),
        ("x", "max_constant", "argmax_m"), lambda a: max(max(a.x), a.m_max), _run_prop32),
    "census": Command(
        "ordered k-fold factorization census",
        ("n", "k", "omega", "samples", "synthetic", "limit", "seed"), (),
        ("n", "k", "omega", "tau_k", "g_k", "ratio"), _census_extent, _run_census),
    "erdos-kac": Command(
        "normalized distinct-prime-count window mass",
        ("x", "a", "b", "limit"), ("x",),
        ("x", "a", "b", "fraction", "normal_mass", "abs_diff", "skipped"), _max_x, _run_erdos_kac),
    "gamma-lemma": Command(
        "f(x) f(N/x) decrease check beyond sqrt(N)",
        ("bign", "f", "prime", "c", "points", "limit", "check"), ("bign",),
        ("x", "gamma"), _gamma_lemma_extent, _run_gamma_lemma),
    "selberg": Command(
        "exact omega-power sums vs their predictor",
        ("x", "z", "weighted", "limit", "check"), ("x",),
        ("x", "observed_over_predictor"), _max_x, _run_selberg),
}


# Every float literal with a leading minus (-1, -1., -.5, -1e-3, -inf, -nan).
# argparse reads an argument that matches its negative-number pattern as a
# value, since no option here looks like a number; its own pattern misses
# exponents, a trailing point and inf, so "--a -inf" lacked its value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="divisorlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, description=cmd.description)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        for dest in COMMON + cmd.flags:
            FLAGS[dest].add_to(sub, dest, required=dest in cmd.required)
    return parser


_PARSER = _build_parser()


def _fill(args: argparse.Namespace) -> None:
    """Give each flag not on the command line its config value, else its default."""
    config = _load_config_file(args.config) if args.config else {}
    for key in COMMON + COMMANDS[args.command].flags:
        if getattr(args, key) is None:
            flag = FLAGS[key]
            setattr(args, key, flag.read(key, config[key]) if key in config else flag.default)


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


def _dispatch(args: argparse.Namespace) -> tuple[_Emitter, int]:
    cmd = COMMANDS[args.command]
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("config", "output", "format", "check") and v is not None
    }
    out = _Emitter(inputs, cmd.header)
    tables = None
    needed = cmd.extent(args) if cmd.extent else None
    if needed is not None:
        limit = args.limit if args.limit is not None else needed
        if limit < needed:
            raise ConfigurationError(f"limit={limit} below required extent {needed}")
        tables = build_sieve(max(limit, 2))
    cmd.run(args, tables, out)
    return out, 2 if getattr(args, "check", False) and out.verdict == "fail" else 0


def parse_and_dispatch(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise _UsageError(f"a subcommand is required: one of {tuple(COMMANDS)}")
        _fill(args)
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
