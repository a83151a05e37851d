import json
import math

import numpy as np
import pytest

from gcdstats.cli import _EXACT_QUANTITIES, main, parse_n_rule


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_n_rule():
    assert parse_n_rule("1000", 50) == 1000
    assert parse_n_rule("m^2.5", 64) == 32768
    assert parse_n_rule("exp(m^0.3)", 100) == round(math.exp(100**0.3))
    with pytest.raises(ValueError):
        parse_n_rule("m**2", 10)


def test_tables_cache_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "t.tbl")
    code, text = run_cli(["tables", "--n", "5000", "--orders", "1,2", "--out", out], capsys)
    assert code == 0
    first = json.loads(text)
    assert first["cache"]["hit"] is False
    code, text = run_cli(["tables", "--n", "5000", "--orders", "1,2", "--out", out], capsys)
    assert code == 0
    second = json.loads(text)
    assert second["cache"]["hit"] is True
    assert second["cache"]["sha256"] == first["cache"]["sha256"]


def test_tables_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["tables", "--n", "0"])
    assert err.value.code == 2


def test_tables_refuses_a_big_int_order_before_building(monkeypatch, capsys, tmp_path):
    from gcdstats import cli

    def no_build(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr(cli, "build_table", no_build)
    text = _usage_error(["tables", "--n", "1000000", "--orders", "1,4",
                         "--out", str(tmp_path / "t.tbl")], capsys)
    assert "totient order 4 exceeds int64, not serializable" in text
    assert not (tmp_path / "t.tbl").exists()


def test_exact_mu(capsys):
    code, text = run_cli(["exact", "--quantity", "mu", "--n", "2", "--r", "1"], capsys)
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == 0.75
    assert payload["numerator"] == "3"
    assert payload["exact"] is True


def test_exact_varC(capsys):
    code, text = run_cli(
        ["exact", "--quantity", "varC", "--n", "2", "--m", "3"], capsys)
    assert json.loads(text)["value"] == 0.9375


def test_exact_pmf(capsys):
    code, text = run_cli(["exact", "--quantity", "pmf", "--n", "2", "--r", "2"], capsys)
    payload = json.loads(text)
    assert payload["values"] == [0.75, 0.25]
    assert payload["numerators"] == ["3", "1"]


@pytest.mark.parametrize("argv,expected", [
    (["--quantity", "nu", "--n", "2", "--r", "1"], 1.25),
    (["--quantity", "c", "--n", "2", "--r", "1"], 0.0625),
    (["--quantity", "d", "--n", "2", "--r", "1"], 0.0625),
    (["--quantity", "moment", "--n", "2", "--r", "2", "--q", "2"], 1.75),
    (["--quantity", "pi", "--n", "2", "--r", "2"], 1.625),
    (["--quantity", "gamma", "--n", "2", "--r", "2", "--s", "1"], 0.0625),
    (["--quantity", "omega", "--n", "2", "--r", "2", "--s", "1"], 0.0625),
    (["--quantity", "varZ", "--n", "2", "--m", "3"], 0.9375),
    (["--quantity", "tail", "--n", "2", "--t", "1"], 0.25),
])
def test_exact_quantities(argv, expected, capsys):
    code, text = run_cli(["exact"] + argv, capsys)
    assert code == 0
    assert json.loads(text)["value"] == expected


_REQUIRED_FLAGS = {"varC": ["--m", "6"], "varZ": ["--m", "6"], "gamma": ["--s", "1"],
                   "omega": ["--s", "1"], "tail": ["--t", "3"]}


@pytest.mark.parametrize("quantity", _EXACT_QUANTITIES)
def test_every_exact_quantity_runs_at_n30(quantity, capsys):
    argv = ["exact", "--quantity", quantity, "--n", "30"] + _REQUIRED_FLAGS.get(quantity, [])
    code, text = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(text)
    assert payload["exact"] is True
    assert payload["quantity"] == quantity


def test_exact_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["exact", "--quantity", "varC", "--n", "4"])
    assert err.value.code == 2


def test_exact_unknown_quantity_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["exact", "--quantity", "bogus", "--n", "4"])
    assert err.value.code == 2


def test_constants_table(capsys):
    code, text = run_cli(["constants", "--cutoff", "20000"], capsys)
    assert code == 0
    payload = json.loads(text)
    names = payload["constants"]
    assert abs(names["delta"]["value"] - 0.01186) < 2e-4
    assert "delta_toth" in names and "S_2^(1)" in names and "M(2.0)" in names


@pytest.mark.parametrize("cutoff", ["0", "1", "-5", "10"])
def test_constants_cutoff_below_calibration_is_usage_error(cutoff, capsys):
    text = _usage_error(["constants", "--cutoff", cutoff], capsys)
    assert "tail bound" in text


def test_simulate_writes_csv_and_json(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    argv = ["simulate", "--statistic", "C", "--m", "8", "--n", "30",
            "--reps", "40", "--seed", "5", "--out", prefix]
    code, _ = run_cli(argv, capsys)
    assert code == 0
    csv_bytes = (tmp_path / "run.csv").read_bytes()
    lines = csv_bytes.decode("utf-8").split("\n")
    assert lines[0] == "index,raw,normalized"
    assert len(lines) == 42  # header + 40 rows + trailing newline
    assert b"\r" not in csv_bytes
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["manifest"]["params"]["seed"] == 5
    assert "ks" in summary["distance"]

    prefix2 = str(tmp_path / "again")
    run_cli(argv[:-1] + [prefix2], capsys)
    assert (tmp_path / "again.csv").read_bytes() == csv_bytes
    assert json.loads((tmp_path / "again.json").read_text())["mean"] == summary["mean"]


def test_simulate_n_rule_and_poisson(tmp_path, capsys):
    code, text = run_cli(
        ["simulate", "--statistic", "N", "--m", "12", "--n", "m^2.5",
         "--reps", "30", "--t", "1.0", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(text)
    assert payload["manifest"]["params"]["n"] == round(12**2.5)
    assert "tv" in payload["distance"]


def test_simulate_frechet_warning_label(capsys):
    code, text = run_cli(
        ["simulate", "--statistic", "M", "--m", "30", "--n", "100",
         "--reps", "10", "--seed", "1"], capsys)
    payload = json.loads(text)
    assert any("Frechet" in w for w in payload["regime_warnings"])


def test_verify_suite_stronglaw(capsys):
    code, text = run_cli(["verify", "--suite", "stronglaw"], capsys)
    assert code == 0
    lines = [ln for ln in text.strip().split("\n") if ln]
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_suite_constants_exits_zero(capsys):
    code, text = run_cli(["verify", "--suite", "constants"], capsys)
    assert code == 0
    lines = text.split("\n")
    assert not [ln for ln in lines if ln.startswith("FAIL")]
    assert len([ln for ln in lines if ln.startswith("PASS")]) == 7


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.startswith("error: ") and text.count("\n") == 1
    assert "Traceback" not in text
    return text


def test_simulate_n_beyond_int64_is_usage_error(monkeypatch, capsys):
    from gcdstats import montecarlo

    def no_draws(*args):
        raise AssertionError("drew samples for an invalid n")

    monkeypatch.setattr(montecarlo, "_draw_block", no_draws)
    text = _usage_error(["simulate", "--statistic", "M", "--m", "1000",
                         "--n", "m^7", "--reps", "2"], capsys)
    assert "2^63" in text


def test_simulate_overflowing_exp_rule_is_usage_error(capsys):
    text = _usage_error(["simulate", "--statistic", "M", "--m", "100",
                         "--n", "exp(m^2)", "--reps", "2"], capsys)
    assert "overflows" in text


def test_simulate_C_above_table_cap_is_usage_error(capsys):
    from gcdstats.arith import DEFAULT_MAX_N

    text = _usage_error(["simulate", "--statistic", "C", "--m", "100",
                         "--n", "m^4", "--reps", "2"], capsys)
    assert str(DEFAULT_MAX_N) in text


@pytest.mark.parametrize("t", ["0", "nan", "-1"])
def test_simulate_N_threshold_scale_must_be_positive(t, capsys):
    _usage_error(["simulate", "--statistic", "N", "--m", "10", "--n", "1000",
                  "--reps", "5", "--t", t], capsys)


def test_simulate_negative_seed_is_usage_error(capsys):
    _usage_error(["simulate", "--statistic", "C", "--m", "8", "--n", "30",
                  "--reps", "2", "--seed", "-1"], capsys)


def test_simulate_frechet_window_beyond_table_cap(tmp_path, capsys):
    # n = 1000^2.5 ~ 3.2e10 is above the sieve cap; M needs no table
    prefix = str(tmp_path / "wide")
    code, _ = run_cli(["simulate", "--statistic", "M", "--m", "1000",
                       "--n", "m^2.5", "--reps", "2", "--seed", "4",
                       "--out", prefix], capsys)
    assert code == 0
    rows = (tmp_path / "wide.csv").read_text().split("\n")[1:-1]
    assert len(rows) == 2
    n = round(1000**2.5)
    for i, line in enumerate(rows):
        x = np.random.Generator(np.random.Philox(key=[4, i])).integers(1, n + 1, 1000)
        brute = int(np.gcd.outer(x, x)[np.triu_indices(1000, k=1)].max())
        assert int(line.split(",")[1]) == brute


@pytest.mark.parametrize("argv, flag, value", [
    (["exact", "--quantity", "tail", "--n", "10", "--t", "nan"], "--t", "nan"),
    (["exact", "--quantity", "tail", "--n", "10", "--t", "inf"], "--t", "inf"),
    (["exact", "--quantity", "mu", "--n", "10", "--r", "-1"], "--r", "-1"),
    (["tables", "--n", "10", "--orders", "x"], "--orders", "x"),
    (["simulate", "--statistic", "C", "--m", "5", "--n", "10", "--workers", "0"],
     "--workers", "0"),
    (["simulate", "--statistic", "M", "--m", "5", "--n", "10", "--workers", "-1"],
     "--workers", "-1"),
    (["verify", "--suite", "stronglaw", "--workers", "0"], "--workers", "0"),
    (["verify", "--suite", "stronglaw", "--workers", "-1"], "--workers", "-1"),
    (["simulate", "--statistic", "N", "--m", "5", "--n", "10", "--reps", "0"],
     "--reps", "0"),
    (["simulate", "--statistic", "C", "--m", "5", "--n", "10", "--reps", "-3"],
     "--reps", "-3"),
])
def test_usage_error_names_flag_and_value(argv, flag, value, capsys):
    text = _usage_error(argv, capsys)
    assert flag in text and value in text


def test_mu_of_one_variable_is_one_over_n(capsys):
    code, text = run_cli(["exact", "--quantity", "mu", "--n", "10", "--r", "0"], capsys)
    assert code == 0
    assert json.loads(text)["value"] == 0.1


def test_constants_cutoff_above_sieve_cap_is_refused_before_sieving(monkeypatch, capsys):
    from gcdstats import constants
    from gcdstats.arith import DEFAULT_MAX_N

    def no_sieve(n):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(constants, "primes_up_to", no_sieve)
    text = _usage_error(["constants", "--cutoff", str(10**11)], capsys)
    assert str(10**11) in text and str(DEFAULT_MAX_N) in text
