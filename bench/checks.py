"""Output checks of the benchmark.

Each check takes program outputs plus what the oracles recount and raises
CheckFailed on a mismatch.  Checks are exact where the program promises
exactness (class counts, S values rounded once from exact fractions,
census counts); where the program sums floats they allow the relative
tolerance FLOAT_RTOL, so a change that reorders a float sum still passes.
"""

import json
from fractions import Fraction

import oracles

FLOAT_RTOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# divisor sums


def check_ratio_small_x(rep, x: int, k: int, base: float, overrides: dict) -> None:
    """S_full, S_small and the ratio equal the brute-force exact fractions."""
    full = oracles.s_full_exact(x, base, overrides)
    small = oracles.s_small_exact(x, k, base, overrides)
    require(rep.s_full == float(full), f"S_full({x}) {rep.s_full!r} != {float(full)!r}")
    require(rep.s_small == float(small), f"S_small({x}, k={k}) {rep.s_small!r} != {float(small)!r}")
    require(rep.ratio == float(small / full), f"ratio({x}, k={k}) {rep.ratio!r} != {float(small / full)!r}")


def check_s_full_histogram(s_full: float, hist: dict, c: float, x: int) -> None:
    """S_full with a constant weight equals the exact sum over the omega histogram."""
    want = float(oracles.s_full_from_histogram(hist, c))
    require(s_full == want, f"S_full({x}, c={c}) {s_full!r} != {want!r}")


def check_ratio_full_x(rep, hist: dict, counts, k: int, base: float, overrides: dict) -> None:
    """A timed report at full x: S_full equals the exact sum over the joint (omega,
    flags) histogram of the override primes (bit i for the i-th smallest), S_small
    the exact sum over squarefree multiples (counts from
    oracles.squarefree_multiple_counts at x and k), and the ratio their quotient,
    each rounded once."""
    ops = sorted(overrides)
    full = oracles.s_full_from_flag_histogram(hist, base, [overrides[p] for p in ops])
    small = oracles.s_small_from_counts(counts, base, overrides)
    what = f"x={rep.x}, k={k}, c={base}, overrides {overrides}"
    require(rep.s_full == float(full), f"S_full({what}) {rep.s_full!r} != {float(full)!r}")
    require(rep.s_small == float(small), f"S_small({what}) {rep.s_small!r} != {float(small)!r}")
    require(rep.ratio == float(small / full), f"ratio({what}) {rep.ratio!r} != {float(small / full)!r}")


def check_pairs(full_pairs: int, small_pairs_k2: int, hist: dict, x: int) -> None:
    """Full pairs total sum mu^2(n) 2^omega(n); small pairs at k = 2 are (full + 1)/2."""
    want = oracles.pairs_from_histogram(hist)
    require(full_pairs == want, f"full pairs at x={x}: {full_pairs} != {want}")
    require(2 * small_pairs_k2 == full_pairs + 1,
            f"small pairs at k=2, x={x}: {small_pairs_k2} != ({full_pairs} + 1)/2")


def check_scan(scan, dec) -> None:
    """Strictly decreasing in v, and equal to (Av + B)/(Cv + D) from exact A..D."""
    obs = scan.observed
    require(len(obs) == len(scan.grid) >= 2, "scan length")
    require(all(b < a for a, b in zip(obs, obs[1:])), f"scan not decreasing: {obs}")
    for v, o in zip(scan.grid, obs):
        vf = Fraction(v)
        want = float((dec.a_exact * vf + dec.b_exact) / (dec.c_exact * vf + dec.d_exact))
        require(o == want, f"scan at v={v}: {o!r} != (Av+B)/(Cv+D) = {want!r}")


# ---------------------------------------------------------------------------
# series tables


def check_cumulative(H, x: int, h_x: float) -> None:
    """H[x] equals h_series(x) and H is non-decreasing."""
    require(len(H) == x + 1, f"H has {len(H)} entries, want {x + 1}")
    require(float(H[x]) == h_x, f"H[{x}] {float(H[x])!r} != h_series {h_x!r}")
    require(bool((H[1:] >= H[:-1]).all()), "H decreases somewhere")


def check_float_loop(got: float, want: float, what: str) -> None:
    require(close(got, want), f"{what}: {got!r} vs loop {want!r}")


# ---------------------------------------------------------------------------
# census


def check_census_record(rec, k: int, omega_target: int) -> None:
    """g_k against the closed form, tau_k = k^omega, g_2 = tau_2, n squarefree."""
    f = oracles.factorize(rec.n)
    require(all(e == 1 for e in f.values()), f"n={rec.n} is not squarefree")
    om = len(f)
    require(om == omega_target, f"n={rec.n} has omega {om}, want {omega_target}")
    require(rec.omega_n == om and rec.k == k, f"n={rec.n}: omega/k fields")
    require(rec.tau_k == k**om, f"tau_{k}({rec.n}) {rec.tau_k} != {k}**{om}")
    want = oracles.census_closed_form(rec.n, k)
    require(rec.g_k == want, f"g_{k}({rec.n}) {rec.g_k} != closed form {want}")
    if k == 2:
        require(rec.g_k == rec.tau_k, f"g_2({rec.n}) != tau_2")
    require(rec.ratio == rec.g_k / rec.tau_k, f"census ratio of n={rec.n}")


# ---------------------------------------------------------------------------
# CLI output


def _cell(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_csv(text: str) -> tuple[list[str], list[list], list[str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[_cell(c) for c in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln[2:] for ln in lines[1:] if ln.startswith("# ")]
    return header, rows, comments


def csv_json_rows(csv_text: str, json_text: str) -> tuple[list[str], list[list]]:
    """Rows of both renderings; raises unless they carry the same rows and verdict."""
    header, rows, comments = parse_csv(csv_text)
    payload = json.loads(json_text)
    jrows = payload["rows"]
    require(len(jrows) == len(rows), f"CSV has {len(rows)} rows, JSON {len(jrows)}")
    for crow, jrow in zip(rows, jrows):
        require(list(jrow) == header, f"JSON keys {list(jrow)} != CSV header {header}")
        require(crow == list(jrow.values()), f"CSV row {crow} != JSON row {list(jrow.values())}")
    verdicts = [c[len("verdict="):] for c in comments if c.startswith("verdict=")]
    require((verdicts[-1] if verdicts else None) == payload["verdict"], "CSV and JSON verdicts differ")
    return header, rows
