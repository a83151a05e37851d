"""Command-line surface: reproducible experiments, machine-readable output.

Subcommands
    exact      evaluate one exact finite-n quantity as JSON
    constants  emit the limiting constants with error bars
    simulate   run seeded replicates, write CSV rows + JSON summary
    verify     run acceptance suites; nonzero exit on failure

Every emitted artifact embeds its run manifest (subcommand, parameters,
seed, versions); identical manifests produce byte-identical data files.
Timing goes to stderr only.  Exit codes: 0 ok, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__, constants, exact, montecarlo, verify
from .arith import DEFAULT_MAX_N, CapacityError, build_table


def _manifest(subcommand: str, params: dict) -> dict:
    return {
        "subcommand": subcommand,
        "params": params,
        "versions": {
            "gcdstats": __version__,
            "numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    }


def parse_n_rule(text: str, m: int) -> int:
    """Sample-space size: literal integer, 'm^B', or 'exp(m^G)'."""
    if re.fullmatch(r"\d+", text):
        return int(text)
    if m < 1:
        raise ValueError(f"--m must be >= 1 for the n rule {text!r}, got {m}")
    power = re.fullmatch(r"m\^([0-9.]+)", text)
    expo = re.fullmatch(r"exp\(m\^([0-9.]+)\)", text)
    try:
        if power:
            return round(m ** float(power.group(1)))
        if expo:
            return round(math.exp(m ** float(expo.group(1))))
    except OverflowError:
        raise ValueError(f"n rule {text!r} overflows a float at m={m}") from None
    raise ValueError(f"bad n rule {text!r}: use an integer, 'm^2.5' or 'exp(m^0.3)'")


# The flags whose growth can carry an exact quantity, or a statistic's
# exact moments and values, past the float range.
_GROWS_WITH = {"moment": "--q", "omega": "--q", "pi": "--q", "varC": "--m or --r",
               "varZ": "--q, --m or --r", "C": "--m or --r", "Z": "--q, --m or --r"}


@contextmanager
def _float_range(key: str):
    """Turn a value past the float range into a usage error that names the
    flags to lower, for the quantity or statistic `key`."""
    try:
        yield
    except exact.FloatRangeError as err:
        if key not in _GROWS_WITH:
            raise
        raise ValueError(f"{err}: lower {_GROWS_WITH[key]}") from None


class _Runs(list):
    """A JSON list given as (item, count) runs of equal consecutive items."""


# list items joined into one piece of JSON text: bounds the text held at once
_JSON_ITEMS = 1 << 14


def _json_pieces(payload: dict):
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte,
    as consecutive pieces of text.

    A top-level `_Runs` value is rendered one item per run, and the text
    repeated in pieces of at most _JSON_ITEMS items, so a long list of few
    distinct items costs few encodings and is never held whole.  The
    payload and its `_Runs` are non-empty.
    """
    def dump(value, depth):
        # the text of a value nested `depth` levels (2 spaces each) deep
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)

    sep = "{\n"
    for key in sorted(payload):
        value = payload[key]
        yield f"{sep}  {json.dumps(key)}: "
        sep = ",\n"
        if not isinstance(value, _Runs):
            yield dump(value, 1)
            continue
        lead = "[\n    "
        for item, count in value:
            text = dump(item, 2)
            while count:
                k = min(count, _JSON_ITEMS)
                yield lead
                yield ",\n    ".join(itertools.repeat(text, k))
                lead, count = ",\n    ", count - k
        yield "\n  ]"
    yield "\n}\n"


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as indented, key-sorted JSON to the file `out`, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_json_pieces(payload))
    else:
        sys.stdout.writelines(_json_pieces(payload))


_EXACT_QUANTITIES = ("mu", "nu", "c", "d", "pmf", "moment", "varC", "varZ",
                     "gamma", "omega", "pi", "tail")
# first moments, from sums of mu and phi_q at the floor points of n: no table to n
_TABLE_FREE = ("mu", "nu", "pmf", "moment", "tail")


def cmd_exact(args) -> int:
    n, r, q, s, m = args.n, args.r, args.q, args.s, args.m
    quantity = args.quantity
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    # mu and nu are expectations over r + 1 variables, so r = 0 is valid
    # and the library's own check would report r + 1
    if quantity in ("mu", "nu") and r < 0:
        raise ValueError(f"--r must be >= 0 for quantity {quantity}, got {r}")
    if quantity == "tail" and not 0 <= args.t <= n:
        raise ValueError(f"--t must lie in 0..{n} for quantity tail, got {args.t}")
    if quantity not in _TABLE_FREE:
        table = build_table(n)
    elif n > exact.TABLE_FREE_MAX_N:
        raise ValueError(f"--n must be at most {exact.TABLE_FREE_MAX_N} for quantity {quantity} "
                         f"(a sieve to n^(2/3) within the table cap of {DEFAULT_MAX_N}), got {n}")
    t0 = time.perf_counter()
    if quantity == "pmf":
        runs = exact.gcd_pmf(n, r)
        payload = {
            "manifest": _manifest("exact", {"quantity": quantity, "n": n, "r": r}),
            "quantity": quantity, "n": n, "r": r,
            "values": _Runs((v.float_value, k) for v, k in runs),
            "numerators": _Runs((str(v.numerator), k) for v, k in runs),
            "denom_power": r,
            "exact": True,
        }
    else:
        with _float_range(quantity):
            if quantity == "mu":
                res = exact.mean_mu(n, r)
            elif quantity == "nu":
                res = exact.mean_nu(n, r)
            elif quantity == "c":
                res = exact.var_c(table, n, r)
            elif quantity == "d":
                res = exact.var_d(table, n, r)
            elif quantity == "moment":
                res = exact.gcd_moment(n, r, q)
            elif quantity == "varC":
                res = exact.var_C(table, n, _require(m, "--m"), r)
            elif quantity == "varZ":
                res = exact.var_Z(table, n, _require(m, "--m"), r, q)
            elif quantity == "gamma":
                res = exact.shared_covariance(table, n, r, _require(s, "--s"), "indicator")
            elif quantity == "omega":
                res = exact.shared_covariance(table, n, r, _require(s, "--s"), "moment", q)
            elif quantity == "pi":
                res = exact.mixed_moment_pi(table, n, r, q)
            else:  # tail
                res = exact.gcd_tail(n, int(args.t))
        record = res.record(quantity, n=n, r=r, q=q, s=s, m=m)
        payload = {"manifest": _manifest("exact", {
            "quantity": quantity, "n": n, "r": r, "q": q, "s": s, "m": m,
            "t": args.t,
        })}
        payload.update(record)
    _emit(payload, args.out)
    if args.out:
        print(args.out)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this quantity")
    return value


def cmd_constants(args) -> int:
    t0 = time.perf_counter()
    table = constants.all_constants(args.cutoff)
    payload = {
        "manifest": _manifest("constants", {"cutoff": args.cutoff}),
        "constants": table,
    }
    _emit(payload, args.out)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if args.out:
        # fail before sampling, not after the last replicate
        folder = os.path.dirname(args.out) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"--out directory {folder!r} does not exist")
    statistic = args.statistic
    n = parse_n_rule(args.n, args.m)
    config = montecarlo.SampleConfig(
        m=args.m, n=n, r=args.r, q=args.q,
        replicates=args.reps, master_seed=args.seed,
    )
    if statistic == "N" and not 0 < args.t < math.inf:
        raise ValueError(f"--t must be positive and finite for N, got {args.t}")

    with _float_range(statistic):
        rec = montecarlo.run_replicates(config, statistic, t=args.t, workers=args.workers)
        if args.format == "csv" and not args.out:
            rec.write_csv(sys.stdout)
        else:
            summary = _simulate_summary(args, config, rec)
            if args.out:
                with open(args.out + ".csv", "w", encoding="utf-8", newline="\n") as fh:
                    rec.write_csv(fh)
                _emit(summary, args.out + ".json")
                print(args.out + ".csv")
                print(args.out + ".json")
            else:
                _emit(summary, None)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def _simulate_summary(args, config, rec) -> dict:
    """The JSON summary of a simulate run: manifest, the record's law, mean,
    sd and distance, and regime labels."""
    return {
        "manifest": _manifest("simulate", {
            "statistic": args.statistic, "m": args.m, "n": config.n, "n_rule": args.n,
            "r": args.r, "q": args.q, "reps": args.reps, "seed": args.seed,
            "t": args.t, "normalization": montecarlo.NORMALIZATION_NAMES[args.statistic],
        }),
        **rec.summary(),
        "regime_warnings": config.regime_warnings(args.statistic),
    }


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.suite not in ("all", *verify.SUITES):
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}")
    if args.workers is not None and args.suite not in ("all", *verify.WORKER_SUITES):
        raise ValueError(f"--workers applies only to the suites {', '.join(verify.WORKER_SUITES)} "
                         f"and all; suite {args.suite!r} does not take it")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        fn = verify.SUITES[name]
        results = fn(workers=args.workers or 1) if name in verify.WORKER_SUITES else fn()
        for res in results:
            print(res.line())
            failures += 0 if res.passed else 1
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, as main does."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcdstats",
        description="Exact and simulated statistics of gcds of random integer samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="evaluate one exact quantity")
    p.add_argument("--quantity", required=True, choices=_EXACT_QUANTITIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=float, default=0.0, help="tail threshold for quantity=tail")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("constants", help="emit limiting constants with error bars")
    p.add_argument("--cutoff", type=int, default=constants.DEFAULT_CUTOFF)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="run seeded replicates of one statistic")
    p.add_argument("--statistic", required=True, choices=("C", "Z", "M", "N"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", required=True, help="integer, 'm^2.5', or 'exp(m^0.3)'")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", default=None, help="prefix for .csv and .json outputs")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", default="all",
                   help="one of %s or 'all'" % ", ".join(sorted(verify.SUITES)))
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for %s (default 1)" % ", ".join(verify.WORKER_SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CapacityError) as err:
        parser.exit(2, f"error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
