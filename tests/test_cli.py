import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gcdstats
from gcdstats import cli
from gcdstats.arith import DEFAULT_MAX_N
from gcdstats.cli import _EXACT, main, parse_n_rule
from gcdstats.exact import TABLE_FREE_MAX_N


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


def test_tables_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = _usage_error(["tables", "--n", "10"], capsys)
    assert "tables" in text
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("quantity", _EXACT)
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


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 1000, 12345])
def test_pmf_bytes_are_the_plain_json_dump(n, r, tmp_path, capsys):
    from gcdstats import cli, exact

    res = [v for v, count in exact.gcd_pmf(n, r) for _ in range(count)]
    payload = {
        "manifest": cli._manifest("exact", {"quantity": "pmf", "n": n, "r": r}),
        "quantity": "pmf", "n": n, "r": r,
        "values": [v.float_value for v in res],
        "numerators": [str(v.numerator) for v in res],
        "denom_power": r,
        "exact": True,
    }
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    argv = ["exact", "--quantity", "pmf", "--n", str(n), "--r", str(r)]
    code, text = run_cli(argv, capsys)
    assert code == 0 and text == want
    out = tmp_path / "pmf.json"
    code, text = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0 and text == f"{out}\n"
    assert out.read_bytes() == want.encode()


def test_json_text_is_the_plain_json_dump():
    from gcdstats.cli import _JSON_ITEMS, _json_pieces, _Runs

    runs = [(0.25, 3), ("a\nb", 1), (None, 2), ({"k": [1, {}]}, 1), ([], 2), (1e-300, 1)]
    # runs of one chunk, of more than one and of several, in both _Runs
    long = [(7, _JSON_ITEMS), ("x", 2 * _JSON_ITEMS + 1), (0.5, 1), (None, _JSON_ITEMS - 1)]
    payload = {"b": _Runs(runs), "a": {"z": [1.5, "x"], "y": {}}, "c": [],
               "e": "\u00e9\n", "f": [[1, 2], {"q": None}], "g": _Runs(long + runs)}
    plain = dict(payload, b=[item for item, count in runs for _ in range(count)],
                 g=[item for item, count in long + runs for _ in range(count)])
    pieces = list(_json_pieces(payload))
    assert "".join(pieces) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    # no piece holds more than one chunk of items
    assert max(piece.count("\n") for piece in pieces) < _JSON_ITEMS


def test_pmf_output_is_written_in_bounded_pieces(monkeypatch, tmp_path, capsys):
    # the JSON text of n = 3e5 is 11 MB, and its longest run of equal
    # entries 150000 items (5 MB); joined at once, writing it took 45 MB
    n, out, grown = 300_000, tmp_path / "pmf.json", []
    emit = cli._emit

    def traced_emit(payload, path):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit(payload, path)
        grown.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(cli, "_emit", traced_emit)
    tracemalloc.start()
    try:
        code, _ = run_cli(["exact", "--quantity", "pmf", "--n", str(n), "--out", str(out)],
                          capsys)
    finally:
        tracemalloc.stop()
    assert code == 0 and out.stat().st_size > 10_000_000
    assert grown[0] < 2_000_000, grown


@pytest.mark.parametrize("argv", [
    ["simulate", "--statistic", "C", "--m", "6", "--n", "30", "--reps", "5"],
    ["simulate", "--statistic", "N", "--m", "6", "--n", "30", "--reps", "5", "--out", "run"],
    ["constants", "--cutoff", "1000"],
    ["exact", "--quantity", "omega", "--n", "40", "--s", "1", "--q", "2"],
    ["simulate", "--statistic", "Z", "--m", "6", "--n", "30", "--reps", "5", "--q", "2"],
    ["simulate", "--statistic", "M", "--m", "6", "--n", "30", "--reps", "5", "--out", "run"],
    *(["exact", "--quantity", q, "--n", "40", "--m", "6", "--s", "1", "--t", "3"]
      for q in _EXACT if q != "omega"),
])
def test_every_json_output_is_the_plain_json_dump(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(argv, capsys)
    assert code == 0
    if "run" in argv:
        text = (tmp_path / "run.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_exact_mu_sieves_mu_only(sieve_calls, capsys):
    code, _ = run_cli(["exact", "--quantity", "mu", "--n", "1000", "--r", "1"], capsys)
    assert code == 0
    # mu to L = n^(2/3) = 100, window by window
    assert sieve_calls == [("mu", 100)]


@pytest.mark.parametrize("quantity, want", [
    ("c", [("mu", 1000)]),
    ("d", [("phi_1", 1000)]),
    ("varC", [("mu", 1000), ("mu", 100)]),
    ("gamma", [("mu", 1000), ("mu", 100)]),
    ("varZ", [("phi_2", 1000), ("mu", 100), ("phi_2", 100)]),
    ("omega", [("phi_2", 1000), ("mu", 100), ("phi_2", 100)]),
    ("pi", [("phi_2", 1000)]),
])
def test_exact_second_order_quantities_sieve_their_one_weight(quantity, want, sieve_calls,
                                                              capsys):
    code, _ = run_cli(["exact", "--quantity", quantity, "--n", "1000", "--r", "2", "--m", "5",
                       "--s", "1", "--q", "2"], capsys)
    assert code == 0
    # the weight to n once, then, for the kernel means and G_s, mu and phi_q window
    # by window to L = n^(2/3) = 100; a profile's bound needs no sieve
    assert sieve_calls == want


def test_verify_trends_sieves_no_table_function(sieve_calls, capsys):
    code, _ = run_cli(["verify", "--suite", "trends"], capsys)
    assert code == 0
    # each trend sieves its own float64 mass from the primes
    assert sieve_calls == []


def test_exact_var_c_sieves_the_primes_once(sieved_bounds, capsys):
    # the prime sieve to n of the weight serves the sieve to L = 2116 of `_summatory`
    code, _ = run_cli(["exact", "--quantity", "varC", "--n", "100000", "--m", "50"], capsys)
    assert code == 0
    assert sieved_bounds == [100_000]


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


# sha256 of <out>.csv and of <out>.json without manifest.versions, one
# small run of each statistic; the bytes of every replicate file and summary
_SIMULATE_GOLDEN = {
    ("C", "--m", "20", "--n", "100", "--reps", "300", "--seed", "11"): (
        "50e27283369daf52d5c296e2848cb54e5f409f1de6569753e1ffbbb227db0b99",
        "71e164266acdc2a55a22af4ed408013339351cffc42e9cdda83470ffd47b6c02"),
    ("Z", "--m", "20", "--n", "100", "--q", "2", "--reps", "300", "--seed", "12"): (
        "b3ffce3e5d53e9b9debc4077e1894164f004bad7b6a763feb5b377db4d2bf458",
        "65f4cf2456cc26cdb1f2bb6d4dbb8eca0ae3af347dff40264afa555533fb2e3c"),
    ("M", "--m", "64", "--n", "m^2.5", "--reps", "300", "--seed", "13"): (
        "f5be292eab73e4180b4c4fec0da7751663873d507b7c50403a6b10151c5f92a7",
        "2499d0a5b10f8089d8ce96462f0055decf6c15df94ab91f259c7a847596b225b"),
    ("N", "--m", "100", "--n", "1000000", "--reps", "300", "--seed", "14"): (
        "d3ae6d7981caf15f4f33f2ae91a8cfc0a6f009f6a87ad80404780769b3a41976",
        "d8679ce099540585428e560e8a0f6e94f6b44d6ddeffcb693c72e33c0c4fff4b"),
    # several sample blocks, each split into several dense row steps
    ("C", "--m", "20", "--n", "100", "--reps", "5000", "--seed", "15"): (
        "deb3688b8b91982522db618b1a2a31b6e2533b8e09c6be6965175c4c1690dff3",
        "2bfdd0df53193871efe58349ee20399747d2098fbe87600f6e4df099e620d782"),
    # long rows: a dense block of few rows over a short count row
    ("Z", "--m", "2000", "--n", "40", "--reps", "50", "--seed", "16"): (
        "6929a7235e488f034e70ad59739355888dd2280fd153f48784774df143648d98",
        "bf3dfe70be0af387d77b0c49ac85443504cd901bef52d827a547d1ae17e75e52"),
    # values past int64: the replicates are Python ints in an object array
    ("Z", "--m", "20", "--n", "100", "--q", "12", "--reps", "300", "--seed", "17"): (
        "bc01722bbc45672b2cf5d42ef5b2b9c31ad3b74548c6fb059d1b24feac2c6143",
        "d6ef6818201a6f72f3b58026b0b6c8d60db7c956543f211bc25627ce1d839691"),
}


@pytest.mark.parametrize("args", list(_SIMULATE_GOLDEN), ids=lambda args: args[0])
def test_simulate_bytes_are_golden(args, tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _ = run_cli(["simulate", "--statistic", *args, "--workers", "1", "--out", prefix],
                      capsys)
    assert code == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    del summary["manifest"]["versions"]
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    csv_bytes = (tmp_path / "run.csv").read_bytes()
    digests = (hashlib.sha256(csv_bytes).hexdigest(),
               hashlib.sha256(summary_text.encode()).hexdigest())
    assert digests == _SIMULATE_GOLDEN[args]
    # the same writer serves stdout
    code, text = run_cli(["simulate", "--statistic", *args, "--format", "csv"], capsys)
    assert code == 0 and text.encode() == csv_bytes


def test_only_runs_that_output_the_csv_format_it(monkeypatch, tmp_path, capsys):
    from gcdstats import montecarlo

    calls = []
    write_csv = montecarlo.Replicates.write_csv
    monkeypatch.setattr(montecarlo.Replicates, "write_csv",
                        lambda rec, fh: calls.append(fh) or write_csv(rec, fh))
    argv = ["simulate", "--statistic", "M", "--m", "8", "--n", "1000", "--reps", "50"]
    for statistic in ("C", "Z", "M", "N"):
        code, text = run_cli(_with_flag(argv, "--statistic", statistic), capsys)
        assert code == 0 and json.loads(text)["distance"]
    assert calls == []
    run_cli(argv + ["--format", "csv"], capsys)
    run_cli(argv + ["--out", str(tmp_path / "run")], capsys)
    assert len(calls) == 2


@pytest.mark.parametrize("statistic", [
    ("M", "--m", "8", "--n", "1000000"),
    ("Z", "--m", "20", "--n", "300", "--q", "5"),
], ids=lambda statistic: statistic[0])
def test_simulate_memory_per_replicate(statistic, tmp_path, capsys):
    # 2^17 replicates, run, written to --out and KS-tested, in traced bytes a
    # replicate.  M at m = 8 has few distinct values, Z at q = 5 almost none
    # equal.  When raw was a tuple of Python ints and the CSV one joined
    # string: 87.5 (M) and 254.6 (Z).  With one int64 array, a streaming
    # writer whose tail cache grew with the distinct values and a KS that
    # took the cdf of every run at once: 37.9 and 175.2.  Now 38.0 and 39.8:
    # raw, normalized, and the sorted copy and np.std's temporary of the
    # summary, 8 B each.
    reps = 2**17
    argv = ["simulate", "--statistic", *statistic, "--seed", "1"]
    run_cli(argv + ["--reps", "64", "--out", str(tmp_path / "warm")], capsys)
    tracemalloc.start()
    try:
        code, _ = run_cli(argv + ["--reps", str(reps), "--out", str(tmp_path / "run")], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / reps < 48


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
    text = _usage_error(["verify", "--suite", "nope"], capsys)
    assert "invalid choice: 'nope'" in text and "'all', 'oracle'" in text


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


def test_simulate_N_rate_past_the_float_range_is_a_usage_error(capsys):
    # the limit law's rate 1/(t zeta(2)) overflows a float at t = 1e-320
    argv = ["simulate", "--statistic", "N", "--m", "8", "--n", "100", "--reps", "5"]
    assert "--t" in _usage_error(argv + ["--t", "1e-320"], capsys)
    code, text = run_cli(argv + ["--t", "1e-300"], capsys)

    def no_constant(name):
        raise AssertionError(f"{name} is not RFC 8259 JSON")

    payload = json.loads(text, parse_constant=no_constant)
    assert code == 0 and math.isclose(payload["law"]["lam"], 1 / (1e-300 * math.pi**2 / 6))


def test_replicates_past_memory_are_a_usage_error(monkeypatch, capsys):
    from gcdstats import montecarlo

    argv = ["simulate", "--statistic", "M", "--m", "8", "--n", "100", "--reps"]
    # 2^62 int64 values fail numpy's size check, which allocates nothing
    assert "--reps 4611686018427387904" in _usage_error(argv + [str(2**62)], capsys)

    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr(montecarlo, "_raws_in_range", no_memory)
    assert "--reps 1000000000000000" in _usage_error(argv + [str(10**15)], capsys)


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
    (["exact", "--quantity", "omega", "--n", "10", "--s", "1", "--q", "0"], "--q", "0"),
    # the library's own message, which names r but not the flag
    (["exact", "--quantity", "gamma", "--n", "5", "--r", "0", "--s", "0"],
     "r must be >= 1", "got 0"),
    (["exact", "--quantity", "omega", "--n", "5", "--r", "0", "--s", "0"],
     "r must be >= 1", "got 0"),
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
    (["simulate", "--statistic", "Z", "--m", "5", "--n", "10", "--q", "0"], "--q", "0"),
    # no flag takes scientific notation, and each says so the same way
    (["exact", "--quantity", "mu", "--n", "4e7"], "--n",
     "must be a plain integer such as 40000000, got '4e7'"),
    (["constants", "--cutoff", "1e13"], "--cutoff",
     "must be a plain integer such as 10000000000000, got '1e13'"),
    (["simulate", "--statistic", "C", "--m", "5", "--n", "1e9"], "--n",
     "must be a plain integer such as 1000000000, 'm^2.5' or 'exp(m^0.3)', got '1e9'"),
    # the ranges of r and m, checked before the library's own messages
    (["simulate", "--statistic", "Z", "--m", "5", "--n", "10", "--r", "1"], "--r", "--r 1"),
    (["simulate", "--statistic", "C", "--m", "1", "--n", "10"], "--m", "--m 1"),
    (["exact", "--quantity", "c", "--n", "10", "--r", "0"], "--r", "got 0"),
    (["exact", "--quantity", "pi", "--n", "10", "--r", "1"], "--r", "got 1"),
    (["exact", "--quantity", "varC", "--n", "10", "--m", "1"], "--m", "got 1"),
    (["exact", "--quantity", "varZ", "--n", "10", "--m", "1", "--r", "3"], "--m", "got 1"),
    (["exact", "--quantity", "gamma", "--n", "10", "--s", "5"], "--s", "got 5"),
    (["exact", "--quantity", "omega", "--n", "10", "--s", "-1"], "--s", "got -1"),
])
def test_usage_error_names_flag_and_value(argv, flag, value, capsys):
    text = _usage_error(argv, capsys)
    assert flag in text and value in text


@pytest.mark.parametrize("argv, flags", [
    (["exact", "--quantity", "moment", "--n", "100", "--q", "200"], "--q"),
    (["exact", "--quantity", "varZ", "--n", "100", "--m", "5", "--q", "200"], "--q, --m or --r"),
    (["exact", "--quantity", "pi", "--n", "100", "--q", "300"], "--q"),
    (["simulate", "--statistic", "Z", "--m", "5", "--n", "100", "--q", "200", "--reps", "2"],
     "--q, --m or --r"),
    (["exact", "--quantity", "varC", "--n", "100", "--m", "100000", "--r", "100"], "--m or --r"),
    (["simulate", "--statistic", "C", "--m", "1100", "--n", "100", "--r", "550", "--reps", "2"],
     "--m or --r"),
], ids=["moment", "varZ", "pi", "Z", "varC", "C"])
def test_values_past_the_float_range_are_a_usage_error(argv, flags, capsys):
    text = _usage_error(argv, capsys)
    assert f"overflows a float: lower {flags}" in text


@pytest.mark.parametrize("argv", [
    ["exact", "--quantity", "mu", "--n", "100", "--r", "5000"],
    ["exact", "--quantity", "pmf", "--n", "1000", "--r", "1500"],
    ["exact", "--quantity", "moment", "--n", "1000", "--r", "1500", "--q", "3"],
    ["exact", "--quantity", "c", "--n", "50", "--r", "2600"],
    ["exact", "--quantity", "pi", "--n", "50", "--r", "1300"],
    # refused by a bound before any sieve, then just below it after the profile
    ["exact", "--quantity", "c", "--n", "20000", "--r", "2000"],
    ["exact", "--quantity", "d", "--n", "20000", "--r", "2000"],
    ["exact", "--quantity", "d", "--n", "100", "--r", "1428"],
], ids=["mu", "pmf", "moment", "c", "pi", "c_bound", "d_bound", "d_below_bound"])
def test_numerators_past_the_int_to_str_digits_are_a_usage_error(argv, capsys):
    # the values are floats, but the numerators over n^power pass 4300 digits;
    # nothing is written before the refusal
    with pytest.raises(SystemExit) as err:
        main(argv)
    out, text = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert text.startswith("error: ") and text.count("\n") == 1
    assert "4300-digit limit" in text and text.endswith(": lower --n or --r\n")


@pytest.mark.parametrize("argv, flags", [
    # E gcd^q >= n^(q-r): the value, and the mean that normalises Z
    (["exact", "--quantity", "moment", "--n", "10", "--q", "3000"], "--q"),
    # Var Z >= omega_r >= n^(2q-r) / 8, omega_s >= n^(2q-2r+s) / 8, pi >= n^(2q-2r+1)
    (["exact", "--quantity", "varZ", "--n", "10", "--m", "3", "--q", "3000"], "--q, --m or --r"),
    (["simulate", "--statistic", "Z", "--m", "10", "--n", "100", "--reps", "1", "--q", "1000"],
     "--q, --m or --r"),
    (["exact", "--quantity", "omega", "--n", "10", "--s", "1", "--q", "3000"], "--q"),
    (["exact", "--quantity", "pi", "--n", "10", "--q", "3000"], "--q"),
], ids=["moment", "varZ", "Z", "omega", "pi"])
def test_a_q_past_the_float_range_is_refused_before_any_sieve(argv, flags, sieve_calls,
                                                              sieved_bounds, capsys):
    text = _usage_error(argv, capsys)
    assert f"overflows a float: lower {flags}" in text
    assert sieve_calls == [] and sieved_bounds == []


@pytest.mark.parametrize("statistic", ["C", "Z"])
def test_exact_moments_of_a_constant_statistic_is_usage_error(statistic, capsys):
    # at n = 1 every gcd is 1, so C and Z are constants with no sd to scale by
    text = _usage_error(["simulate", "--statistic", statistic, "--m", "5", "--n", "1",
                         "--reps", "2"], capsys)
    assert "zero variance" in text


@pytest.mark.parametrize("argv", [
    ["exact", "--quantity", "mu", "--n", "10"],
    ["constants", "--cutoff", "100"],
])
def test_exact_and_constants_emit_json_only(argv, capsys):
    for fmt in ("csv", "json"):
        text = _usage_error(argv + ["--format", fmt], capsys)
        assert "--format" in text
    code, text = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(text)["manifest"]["subcommand"] == argv[0]


def test_mu_of_one_variable_is_one_over_n(capsys):
    code, text = run_cli(["exact", "--quantity", "mu", "--n", "10", "--r", "0"], capsys)
    assert code == 0
    assert json.loads(text)["value"] == 0.1


def test_constants_cutoff_above_sieve_cap_is_refused_before_sieving(monkeypatch, capsys):
    from gcdstats import arith
    from gcdstats.arith import DEFAULT_MAX_N

    def no_sieve(n):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(arith, "_eratosthenes", no_sieve)
    text = _usage_error(["constants", "--cutoff", str(10**11)], capsys)
    assert str(10**11) in text and str(DEFAULT_MAX_N) in text


@pytest.mark.parametrize("argv, flag", [
    (["exact", "--quantity", "c", "--n", "40000000"], "--n"),
    (["simulate", "--statistic", "C", "--m", "20", "--n", "40000000"], "--n"),
    (["simulate", "--statistic", "Z", "--m", "20", "--n", "m^6"], "--n"),
    (["constants", "--cutoff", "40000000"], "--cutoff"),
])
def test_table_cap_error_names_the_flag(argv, flag, monkeypatch, capsys):
    from gcdstats import arith

    def no_sieve(n, *args):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(arith, "_eratosthenes", no_sieve)
    text = _usage_error(argv, capsys)
    assert text.rstrip().endswith(f"cap of {DEFAULT_MAX_N}: lower {flag}")


@pytest.mark.parametrize("quantity", ["mu", "nu", "pmf", "moment", "tail", "varC", "pi"])
def test_exact_n_above_its_range_is_refused_before_sieving(quantity, monkeypatch, capsys):
    from gcdstats import arith, exact
    from gcdstats.exact import TABLE_FREE_MAX_N

    def no_sieve(n, *args):
        raise AssertionError(f"sieved up to {n}")

    for module, name in ((arith, "_eratosthenes"), (arith, "prime_power_windows"),
                         (exact, "prime_power_windows")):
        monkeypatch.setattr(module, name, no_sieve)
    argv = ["exact", "--quantity", quantity, "--m", "50", "--t", "3"]
    if cli._EXACT[quantity][1]:  # a first moment
        # a sieve to n^(2/3) is the only bound: n up to about 1.6e11
        text = _usage_error(argv + ["--n", str(TABLE_FREE_MAX_N + 1)], capsys)
        assert "--n" in text and str(TABLE_FREE_MAX_N) in text
    else:
        text = _usage_error(argv + ["--n", str(arith.DEFAULT_MAX_N + 1)], capsys)
        assert "table cap" in text and str(arith.DEFAULT_MAX_N) in text


def test_table_free_quantities_run_above_the_table_cap(capsys):
    from gcdstats.arith import DEFAULT_MAX_N

    n = DEFAULT_MAX_N + 1
    code, text = run_cli(["exact", "--quantity", "mu", "--n", str(n), "--r", "1"], capsys)
    assert code == 0
    payload = json.loads(text)
    assert payload["n"] == n and payload["denom_power"] == 2
    # |sum_d mu(d) (floor(n/d)^2 - (n/d)^2)| + n^2 sum_{d>n} 1/d^2 <= 2n (2 + ln n)
    assert abs(payload["value"] - 6 / math.pi**2) < 2 * (2 + math.log(n)) / n


# --- in-process sweep of the numeric and string flags -------------------------

_SWEEP_VALUES = ("0", "-1", "1", "nan", "inf", "x")


def _with_flag(argv, flag, value):
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def _sweep_cases():
    bases = [(["simulate", "--statistic", s, "--m", "5", "--n", "10", "--reps", "2"],
              ("--m", "--n", "--r", "--q", "--reps", "--seed", "--t", "--workers"))
             for s in ("C", "Z", "M", "N")]
    bases += [(["exact", "--quantity", q, "--n", "10", "--m", "6", "--s", "1", "--t", "3"],
               ("--n", "--r", "--q", "--s", "--m", "--t"))
              for q in _EXACT]
    bases += [(["constants", "--cutoff", "100"], ("--cutoff",)),
              (["verify", "--suite", "stronglaw"], ("--workers",))]
    cases = [_with_flag(argv, flag, value)
             for argv, flags in bases for flag in flags
             for value in _SWEEP_VALUES + (("400",) if flag == "--q" else ())]
    return cases + [_with_flag(argv, flag, value)
                    for argv, flag, values in _STRING_SWEEP for value in values]


# a path under a directory that does not exist, filled in per test
_MISSING_DIR_OUT = "<missing-dir>/out"

_SIM = ["simulate", "--statistic", "C", "--m", "5", "--n", "10", "--reps", "2"]
_STRING_SWEEP = [
    *((_with_flag(_SIM, "--statistic", s), "--n",
       ("m^2.5", "exp(m^0.3)", "m^", "m^x", "exp(m^)", "m**2", "1e3", "", "-5",
        "m^40", "exp(m^9)")) for s in ("C", "Z", "M", "N")),
    (_SIM, "--statistic", ("C", "Z", "M", "N", "X", "c", "")),
    (_SIM, "--format", ("csv", "json", "xml", "")),
    (["exact", "--n", "10", "--m", "6", "--s", "1", "--t", "3"], "--quantity",
     (*_EXACT, "bogus", "")),
    (["verify"], "--suite", ("stronglaw", "constants", "frechet", "poisson", "nope", "",
                             "ALL")),
    (["verify", "--suite", "frechet"], "--workers", ("1", "0", "x")),
    # past the table cap the table quantities are refused and the first moments
    # run; past its own bound each of those is refused too (pmf writes n
    # entries, so it takes only that one)
    *((["exact", "--quantity", q, "--n", "10", "--m", "6", "--s", "1", "--t", "3"], "--n",
       (str(TABLE_FREE_MAX_N + 1),) if q == "pmf" else
       (str(DEFAULT_MAX_N + 1), str(TABLE_FREE_MAX_N + 1))) for q in _EXACT),
    *((argv, "--out", (_MISSING_DIR_OUT,)) for argv in (
        _SIM, _with_flag(_SIM, "--statistic", "M"),
        ["exact", "--quantity", "pmf", "--n", "10"], ["constants", "--cutoff", "100"])),
    *((argv, "--out", (_MISSING_DIR_OUT,)) for argv in (
        *(_with_flag(_SIM, "--statistic", s) for s in ("Z", "N")),
        *(["exact", "--quantity", q, "--n", "10", "--m", "6", "--s", "1", "--t", "3"]
          for q in _EXACT if q != "pmf"))),
]


@pytest.mark.parametrize("argv", _sweep_cases(), ids=" ".join)
def test_every_numeric_flag_runs_or_is_a_usage_error(argv, tmp_path, capsys):
    argv = [str(tmp_path / "missing" / "out") if a == _MISSING_DIR_OUT else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if not ln.startswith("elapsed")]) <= 1


def test_missing_out_directory_fails_before_any_replicate(monkeypatch, tmp_path, capsys):
    from gcdstats import montecarlo

    calls = []
    monkeypatch.setattr(montecarlo, "run_replicates", lambda *a, **k: calls.append(a))
    for statistic in ("C", "Z", "M", "N"):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--statistic", statistic, "--m", "20", "--n", "100",
                  "--reps", "20000", "--out", str(tmp_path / "missing" / "run")])
        assert err.value.code == 2
        text = capsys.readouterr().err
        assert text.startswith("error: --out directory") and text.count("\n") == 1
    assert calls == []


def _fresh_interpreter(*lines: str) -> list[str]:
    """Stdout lines of a new Python process that runs `lines` against this gcdstats."""
    src = str(Path(gcdstats.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env=env, check=True)
    return done.stdout.splitlines()


def test_exact_and_sparse_simulate_do_not_import_numpy_ma():
    # numpy.ma costs 15-20 ms of import; np.unique without return_* flags loads it
    out = _fresh_interpreter(
        "import sys",
        "from gcdstats import cli, montecarlo",
        "routes = []",
        "sparse = montecarlo._sparse_route",
        "montecarlo._sparse_route = lambda *a: routes.append(1) or sparse(*a)",
        "cli.main(['exact', '--quantity', 'varC', '--n', '1000', '--m', '50'])",
        "cli.main(['simulate', '--statistic', 'C', '--m', '20', '--n', '10000', '--reps', '50'])",
        "print(len(routes) > 0, 'numpy.ma' in sys.modules)",
    )
    assert out[-1] == "True False"


def test_pool_and_oracle_modules_load_only_when_run(tmp_path):
    # the process-pool stack costs 20-33 ms of import and brute 3.5 ms: only a run
    # with more than one worker and the oracle suite load them
    sim = ["simulate", "--statistic", "C", "--m", "20", "--n", "1000", "--reps", "50"]
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    out = _fresh_interpreter(
        "import sys",
        "from gcdstats import cli, verify",
        "lazy = ('concurrent.futures', 'multiprocessing', 'gcdstats.brute')",
        "def loaded(): print('loaded', [name for name in lazy if name in sys.modules])",
        "loaded()",
        f"cli.main({sim + ['--workers', '1', '--out', one]!r})",
        "cli.main(['verify', '--suite', 'trends'])",
        "loaded()",
        "verify.ORACLE_MAX_N = 2",
        "cli.main(['verify', '--suite', 'oracle'])",
        "loaded()",
        f"cli.main({sim + ['--workers', '2', '--out', two]!r})",
        "loaded()",
    )
    assert [line for line in out if line.startswith("loaded")] == [
        "loaded []", "loaded []", "loaded ['gcdstats.brute']",
        "loaded ['concurrent.futures', 'multiprocessing', 'gcdstats.brute']"]
    assert [line for line in out if line.startswith("FAIL")] == []
    for ext in (".csv", ".json"):
        assert Path(one + ext).read_bytes() == Path(two + ext).read_bytes()
