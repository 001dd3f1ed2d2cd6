import argparse
import json

import pytest

import loop_oracles as oracle
from divisorlab import cli
from divisorlab.cli import parse_and_dispatch
from divisorlab.divisor_sums import ratio
from divisorlab.sieve import build_sieve
from divisorlab.weights import PrimeWeight


def run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratio_single_row(capsys):
    code, out, _ = run(capsys, "ratio", "--x", "1000", "--k", "3", "--c", "0.3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,k,c,s_full,s_small,ratio,k_pow_neg_c"
    assert len(lines) == 2
    fields = lines[1].split(",")
    tables = build_sieve(1000)
    rep = ratio(1000, 3, PrimeWeight(0.3, k_context=3), tables)
    assert float(fields[5]) == rep.ratio


def test_ratio_rejects_bad_k(capsys):
    code, _, err = run(capsys, "ratio", "--x", "10", "--k", "1")
    assert code == 1
    assert "k=1" in err


@pytest.mark.parametrize("argv", [
    ["adbc", "--x", "1000", "--prime", "1"],
    ["adbc", "--x", "1000", "--prime", "0"],
    ["adbc", "--x", "1009", "--prime", "-1"],  # 1009 is prime: omega[-1] == 1
    ["monotone", "--x", "1000", "--prime", "0"],
    ["gamma-lemma", "--n", "1000", "--f", "h_table", "--prime", "1"],
    ["selberg", "--x", "1", "--z", "2"],
    ["selberg", "--x", "1", "--z", "2", "--weighted"],
    ["prop32", "--m-max", "-5", "--x", "1000"],
    ["prop32", "--m-max", "0", "--x", "1000"],
    ["prop32", "--x", "0"],
    ["prop32", "--x", "-5"],
    ["gamma-lemma", "--n", "1000", "--f", "h_table", "--c", "nan"],
    ["ratio", "--x", "100", "--c", "nan"],
    ["ratio", "--x", "100", "--c", "inf", "--no-strict"],
    ["ratio", "--x", "100", "--override", "2=inf", "--no-strict"],
    ["ratio", "--x", "100", "--override", "2=nan"],
    ["erdos-kac", "--x", "10000", "--a", "nan", "--b", "1"],
])
def test_bad_prime_or_grid_is_an_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["-inf", "-1e-3", "-1.", "-1.5", "-.5", "-1E-3", "-Infinity", "-2"])
def test_negative_float_after_a_value_flag_is_its_value(capsys, value):
    # "--a=-inf" always worked; "--a -inf" must read the same
    argv = ["erdos-kac", "--x", "10000", "--b", "1"]
    for fmt in ("csv", "json"):
        joined = run(capsys, *argv, f"--a={value}", "--format", fmt)
        assert joined[0] == 0, joined
        assert run(capsys, *argv, "--a", value, "--format", fmt) == joined
    code, out, _ = run(capsys, *argv, "--a", value, "--format", "json")
    assert json.loads(out)["inputs"]["a"] == float(value)


def test_negative_nan_after_a_value_flag_is_an_error_line(capsys):
    code, out, err = run(capsys, "erdos-kac", "--x", "10000", "--a", "-nan", "--b", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_repeated_override_prime_is_an_error_line(tmp_path, capsys):
    argv = ["ratio", "--x", "100", "--k", "3", "--c", "0.3"]
    cfg = tmp_path / "run.conf"
    cfg.write_text("override = 2=0.1, 2=0.2\n")
    for extra in (["--override", "2=0.1", "--override", "2=0.2"], ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, ""), extra
        assert err.startswith("error: ") and "more than once" in err, extra


@pytest.mark.parametrize("argv", [
    ["gamma-lemma", "--n", "100000", "--f", "h_table", "--prime", "3", "--c", "0.2", "--points", "20"],
    ["selberg", "--z", "2.5", "--weighted", "--x", "10000", "--x", "100000", "--x", "200000"],
])
def test_per_integer_commands_print_the_same_bytes_twice(tmp_path, argv):
    # criterion 11 runs only class-count commands
    for fmt in ("csv", "json"):
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}.{fmt}"
            assert parse_and_dispatch(argv + ["--format", fmt, "--output", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] != b""


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "ratio", "--x", "10", "--sideways")
    assert code == 1
    assert "usage error" in err


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_check_mode_exit_two_on_fail(capsys):
    # z=2 at small x sits far above its predictor, so the verdict fails
    code, out, _ = run(
        capsys, "selberg", "--z", "2", "--x", "100", "--x", "1000", "--x", "10000",
        "--check",
    )
    assert code == 2
    assert "# verdict=fail" in out


def test_check_mode_exit_zero_on_pass(capsys):
    code, out, _ = run(
        capsys, "prop32", "--m-max", "30", "--x", "1000", "--check"
    )
    assert code == 0
    assert "# verdict=pass" in out


def test_csv_header_comes_first(capsys):
    for argv in (
        ("sieve-stats", "--limit", "100"),
        ("euler", "--which", "f1", "--z", "0.5"),
        ("census", "--n", "30", "--k", "3", "--limit", "64"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        first = out.splitlines()[0]
        assert not first.startswith("#")
        assert all(not ch.isdigit() for ch in first.split(",")[0])


def test_sieve_stats_rows_equal_masked_bincount(capsys):
    want = sorted(oracle.omega_class_counts_masked(10**5, build_sieve(10**5)).items())
    code, csv_out, _ = run(capsys, "sieve-stats", "--limit", "100000")
    assert code == 0
    header, *body = csv_out.splitlines()
    assert header == "omega,count"
    assert [tuple(map(int, line.split(","))) for line in body] == want
    code, json_out, _ = run(capsys, "sieve-stats", "--limit", "100000", "--format", "json")
    assert code == 0
    assert [(r["omega"], r["count"]) for r in json.loads(json_out)["rows"]] == want


def test_json_format_shape(capsys):
    code, out, _ = run(
        capsys, "erdos-kac", "--x", "10000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"inputs", "rows", "verdict"}
    assert payload["verdict"] == "informational"
    assert payload["rows"][0]["x"] == 10000


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "ratio", "--x", "500", "--k", "2", "--c", "0.4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,k,c,")


def test_trend_override_rows_match_single_x(capsys):
    xs = ("2000", "4000", "8000", "16000")
    common = ("--k", "3", "--c", "0.3", "--override", "2=0.0", "--limit", "16000")
    code, out, _ = run(capsys, "ratio", *(a for x in xs for a in ("--x", x)), *common)
    assert code == 0
    trend_rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
    single_rows = []
    for x in xs:
        code, out, _ = run(capsys, "ratio", "--x", x, *common)
        assert code == 0
        single_rows.append(out.splitlines()[1])
    assert trend_rows == single_rows


def test_x_beyond_limit_exits_one(capsys):
    code, out, err = run(capsys, "predict", "--x", "100", "--limit", "50")
    assert code == 1
    assert out == ""
    assert "x=100 exceeds the sieve limit 50" in err


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# defaults\nk = 2\nc = 0.25\nx = 100,1000\n")
    code, out, _ = run(capsys, "ratio", "--x", "500", "--config", str(cfg))
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "500"  # flag wins over config x list
    assert row[1] == "2" and row[2] == "0.25"  # config fills the rest


def test_config_v_list_reaches_monotone(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("v = 0.1, 0.3\n")
    code, out, err = run(capsys, "monotone", "--x", "1000", "--prime", "2", "--config", str(cfg))
    assert code == 0, err
    _, by_flags, _ = run(capsys, "monotone", "--x", "1000", "--prime", "2", "--v", "0.1", "--v", "0.3")
    assert out == by_flags


def test_config_override_list_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("override = 2=0.0, 5=0.1\n")
    code, out, _ = run(capsys, "ratio", "--x", "1000", "--config", str(cfg))
    assert code == 0
    _, by_flags, _ = run(capsys, "ratio", "--x", "1000", "--override", "2=0.0", "--override", "5=0.1")
    _, plain, _ = run(capsys, "ratio", "--x", "1000")
    assert out == by_flags != plain
    # a flag on the command line replaces the config list
    _, flag_wins, _ = run(capsys, "ratio", "--x", "1000", "--override", "2=0.1", "--config", str(cfg))
    _, flag_only, _ = run(capsys, "ratio", "--x", "1000", "--override", "2=0.1")
    assert flag_wins == flag_only


def test_monotone_check_exit_codes(capsys):
    code, out, _ = run(
        capsys, "monotone", "--x", "1000", "--k", "3", "--c", "0.3",
        "--prime", "2", "--check",
    )
    assert code == 0
    assert "# verdict=pass" in out


def test_adbc_residuals_are_zero(capsys):
    code, out, _ = run(
        capsys, "adbc", "--x", "10000", "--k", "3", "--c", "0.1", "--prime", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,B,C,D,ad_minus_bc,identity_residual_small,identity_residual_full"
    fields = lines[1].split(",")
    assert float(fields[5]) == 0.0
    assert float(fields[6]) == 0.0


def test_gamma_lemma_cli(capsys):
    code, out, _ = run(
        capsys, "gamma-lemma", "--n", "10000", "--f", "log_shift", "--points", "12"
    )
    assert code == 0
    assert out.splitlines()[0] == "x,gamma"
    assert "# verdict=pass" in out


def test_census_sampling_cli_deterministic(capsys):
    args = ("census", "--omega", "3", "--k", "3", "--samples", "6", "--seed", "5",
            "--limit", "10000")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "# mean_ratio=" in out1


def test_predict_cli(capsys):
    code, out, _ = run(capsys, "predict", "--x", "100000", "--k", "3", "--c", "0.3")
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert float(fields[5]) == pytest.approx(3.0 ** -0.3, rel=1e-12)


# One small run per subcommand (census twice: by n and by sample), giving
# flags values unlike their defaults.  A list is a repeated flag, True a
# switch that is on the command line.
RUNS = [
    ("sieve-stats", {"limit": "300"}),
    ("ratio", {"x": ["1000"], "limit": "2000", "k": "2", "c": "0.2",
               "override": ["2=0.1", "5=0.2"], "check": True, "strict": True}),
    ("monotone", {"x": ["1000"], "prime": "3", "k": "2", "c": "0.2", "v": ["0.1", "0.3"],
                  "limit": "2000", "check": True}),
    ("adbc", {"x": ["1000"], "prime": "3", "k": "4", "c": "0.1", "limit": "1000",
              "strict": True}),
    ("euler", {"which": "f1", "z": "1.5", "trunc": "1000"}),
    ("predict", {"x": ["1000", "5000"], "k": "4", "c": "0.2", "limit": "5000"}),
    ("prop32", {"x": ["1000"], "m_max": "30", "limit": "1500", "check": True}),
    ("census", {"n": "30", "k": "2", "limit": "100", "seed": "7"}),
    ("census", {"omega": "3", "k": "2", "samples": "4", "synthetic": True, "limit": "3000",
                "seed": "7"}),
    ("erdos-kac", {"x": ["10000"], "a": "-0.5", "b": "0.5", "limit": "12000"}),
    ("gamma-lemma", {"bign": "1000", "f": "h_table", "prime": "3", "c": "0.2", "points": "8",
                     "limit": "1100", "check": True}),
    ("selberg", {"x": ["100", "1000", "10000"], "z": "1.5", "weighted": True,
                 "limit": "10000", "check": True}),
]
COMMON_VALUES = {"format": "json"}
RUN_IDS = [f"{cmd}-{i}" for i, (cmd, _) in enumerate(RUNS)]


def _argv(cmd, values):
    argv = [cmd]
    for key, value in values.items():
        option = cli.FLAGS[key].option
        if value is True:
            argv.append(option)
        else:
            for item in value if isinstance(value, list) else [value]:
                argv += [option, item]
    return argv


def _config_line(key, value):
    if value is True:  # a switch on the command line sets the opposite of its default
        value = str(not cli.FLAGS[key].default).lower()
    elif isinstance(value, list):
        value = ", ".join(value)
    return f"{key} = {value}\n"


def test_runs_cover_every_subcommand_and_flag():
    assert {cmd for cmd, _ in RUNS} == set(cli.COMMANDS)
    for name, command in cli.COMMANDS.items():
        given = set(COMMON_VALUES) | {"config", "output"}
        for cmd, values in RUNS:
            if cmd == name:
                given |= set(values)
        assert given == set(cli.COMMON + command.flags), name


@pytest.mark.parametrize("cmd,values", RUNS, ids=RUN_IDS)
def test_config_line_matches_flag(cmd, values, tmp_path, capsys):
    target = tmp_path / "rows.out"
    cfg = tmp_path / "run.conf"

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        return code, out, err, written

    values = {**COMMON_VALUES, **values}
    required = cli.COMMANDS[cmd].required
    for key in [k for k in values if k not in required] + ["output"]:
        full = {**values, "output": str(target)} if key == "output" else values
        by_flag = outcome(_argv(cmd, full))
        cfg.write_text(_config_line(key, full[key]))
        rest = {k: v for k, v in full.items() if k != key}
        by_config = outcome(_argv(cmd, rest) + ["--config", str(cfg)])
        assert by_config == by_flag, key
        assert by_flag[0] in (0, 2), (key, by_flag[2])


def test_config_rejects_values_outside_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    for line, message in (("format = jsn", "not one of"), ("check = maybe", "true or false"),
                          ("k = three", "invalid literal")):
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "ratio", "--x", "100", "--config", str(cfg))
        assert (code, out) == (1, ""), line
        assert message in err, line


def _cell(value):
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("cmd,values", RUNS, ids=RUN_IDS)
def test_csv_and_json_carry_the_same_rows(cmd, values, capsys):
    argv = _argv(cmd, values)
    code_csv, csv_out, err = run(capsys, *argv, "--format", "csv")
    code_json, json_out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(json_out)
    # --check turns a fail verdict (gamma-lemma's h_table, criterion 10) into exit 2
    assert code_csv == code_json == (2 if values.get("check") and payload["verdict"] == "fail" else 0), err
    header, *body = csv_out.splitlines()
    header = header.split(",")
    rows = [line.split(",") for line in body if not line.startswith("#")]
    verdicts = [line[len("# verdict="):] for line in body if line.startswith("# verdict=")]
    assert header == list(cli.COMMANDS[cmd].header)
    assert rows and all(list(row) == header for row in payload["rows"])
    assert [[_cell(v) for v in row.values()] for row in payload["rows"]] == rows
    assert verdicts == ([] if payload["verdict"] is None else [payload["verdict"]])


def _flags_read(argv):
    """The flags that the extent, the runner and _dispatch read for argv."""
    seen = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            if name in cli.FLAGS:
                seen.add(name)
            return value

    args = cli._PARSER.parse_args(argv, namespace=Recording())
    cli._fill(args)  # reads every flag, so the record starts after it
    seen.clear()
    cli._check_x(args)
    cli._dispatch(args)
    return seen


def test_every_flag_a_subcommand_takes_is_read():
    reads = {name: set() for name in cli.COMMANDS}
    for cmd, values in RUNS:
        reads[cmd] |= _flags_read(_argv(cmd, {**COMMON_VALUES, **values}))
    for name, command in cli.COMMANDS.items():
        # the config, the format and the output are read around _dispatch
        assert reads[name] == set(cli.COMMON + command.flags) - {"config", "format", "output"}, name


# The flags that no run of a subcommand reads; each is not an option of it.
NOT_TAKEN = {
    "--seed": ("sieve-stats", "ratio", "monotone", "adbc", "euler", "predict", "prop32",
               "erdos-kac", "gamma-lemma", "selberg"),
    "--check": ("sieve-stats", "adbc", "euler", "predict", "census", "erdos-kac"),
    "--no-strict": ("sieve-stats", "monotone", "euler", "predict", "prop32", "census",
                    "erdos-kac", "gamma-lemma", "selberg"),
    "--limit": ("euler",),
}
SMALL_RUN = {
    "sieve-stats": ["--limit", "100"],
    "ratio": ["--x", "1000"],
    "monotone": ["--x", "1000", "--prime", "3"],
    "adbc": ["--x", "1000", "--prime", "3"],
    "euler": ["--which", "f0", "--z", "1"],
    "predict": ["--x", "1000"],
    "prop32": ["--x", "1000"],
    "census": ["--n", "30"],
    "erdos-kac": ["--x", "10000"],
    "gamma-lemma": ["--n", "1000"],
    "selberg": ["--x", "1000"],
}
VALUE = {"--seed": ["3"], "--check": [], "--no-strict": [], "--limit": ["50"]}
NOT_TAKEN_PAIRS = [(cmd, option) for option, cmds in NOT_TAKEN.items() for cmd in cmds]


@pytest.mark.parametrize("cmd,option", NOT_TAKEN_PAIRS, ids=[f"{c}{o}" for c, o in NOT_TAKEN_PAIRS])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(cmd, option, capsys, monkeypatch):
    limits = record_limits(monkeypatch)
    extra = [option, *VALUE[option]]
    code, out, err = run(capsys, cmd, *SMALL_RUN[cmd], *extra)
    assert (code, out, limits) == (1, "", [])
    assert err.splitlines() == [f"usage error: unrecognized arguments: {' '.join(extra)}"]
    assert run(capsys, cmd, *SMALL_RUN[cmd])[0] == 0


def test_gamma_lemma_log_shift_builds_no_table(capsys, monkeypatch):
    def no_table(limit):
        raise AssertionError(f"built a table of {limit}")

    monkeypatch.setattr(cli, "build_sieve", no_table)
    for extra in ((), ("--limit", "50")):  # --limit has no effect on log_shift
        code, out, err = run(capsys, "gamma-lemma", "--n", "10000", "--f", "log_shift",
                             "--points", "12", *extra)
        assert code == 0, err
        assert "# verdict=pass" in out


def test_gamma_lemma_h_table_limit_below_n_exits_one(capsys):
    code, out, err = run(capsys, "gamma-lemma", "--n", "10000", "--f", "h_table",
                         "--limit", "5000")
    assert (code, out) == (1, "")
    assert "below required extent 10000" in err


@pytest.mark.parametrize("argv, prime", [
    (["adbc", "--x", "100", "--prime", "101"], 101),
    (["monotone", "--x", "5", "--prime", "7"], 7),
    (["adbc", "--x", "10", "--prime", "11", "--k", "2"], 11),
    (["gamma-lemma", "--n", "1000", "--f", "h_table", "--prime", "1009"], 1009),
])
def test_named_primes_size_the_table(capsys, argv, prime):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert run(capsys, *argv, "--limit", str(prime)) == (0, out, "")
    code, out, err = run(capsys, *argv, "--limit", str(prime - 1))
    assert (code, out) == (1, "")
    assert f"below required extent {prime}" in err


def record_limits(monkeypatch):
    limits = []

    def recording_build(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", recording_build)
    return limits


@pytest.mark.parametrize("xs", [["100"], ["100", "200", "300", "400"]])
def test_override_prime_above_the_table_is_left_out(capsys, monkeypatch, xs):
    # 1009 and 100000007 divide no n <= 400: the table stops at max(x), and
    # the rows are those of a table that reaches the key, or of no override
    limits = record_limits(monkeypatch)
    argv = ["ratio", *(a for x in xs for a in ("--x", x)), "--k", "3", "--c", "0.3"]
    for fmt in ("csv", "json"):
        def rows(*extra):
            code, out, err = run(capsys, *argv, *extra, "--format", fmt)
            assert code == 0, err
            return json.loads(out)["rows"] if fmt == "json" else out

        near = ("--override", "2=0.1", "--override", "1009=0.2")
        assert rows(*near) == rows(*near, "--limit", "1009")
        assert rows("--override", "100000007=0.1") == rows()
    top = int(xs[-1])
    assert limits == [top, 1009, top, top] * 2


@pytest.mark.parametrize("key, message", [
    ("91", "override key 91 is not prime"),  # in the table
    ("1007", "override key 1007 is not prime"),  # 19 * 53, above it
    ("100000006", "override key 100000006 is not prime"),
    ("2147483659", "override prime 2147483659 beyond the supported 2**31"),  # a prime
])
def test_override_key_above_the_table_is_checked(capsys, key, message):
    code, out, err = run(capsys, "ratio", "--x", "100", "--override", f"{key}=0.1")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


def test_census_by_n_builds_a_table_to_its_root(capsys, monkeypatch):
    limits = record_limits(monkeypatch)
    code, out, _ = run(capsys, "census", "--n", "30030", "--k", "3")
    assert code == 0
    assert out.splitlines()[1] == "30030,3,6,729,1128,1.5473251028806585"
    assert limits == [174]  # isqrt(30030) + 1


def test_census_of_a_66_digit_n_finishes(capsys):
    # the product of the 20 largest primes below 2000: its square root is
    # exact by math.isqrt, where a float start stepped by 1 for hours
    n = 492861832125015651801152086070674323607943589188600685920669082599
    code, out, _ = run(capsys, "census", "--n", str(n), "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == f"{n},2,20,1048576,1048576,1.0"


def test_k_beyond_the_bit_length_of_x_exits_zero(capsys):
    # only d = 1 is small: S_small counts the 608 squarefree n <= 1000
    k = 2**70
    code, out, _ = run(capsys, "ratio", "--x", "1000", "--k", str(k), "--c", "0.3", "--no-strict")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "608.0"
    code, out, _ = run(capsys, "census", "--n", "30", "--k", str(k))
    assert code == 0
    assert out.splitlines()[1].split(",")[:5] == ["30", str(k), "3", str(k**3), str(k * (k - 1) ** 3)]
