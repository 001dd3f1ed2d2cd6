import json

import pytest

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
