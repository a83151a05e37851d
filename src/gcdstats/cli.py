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
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager, suppress
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__, constants, exact, montecarlo, verify
from .arith import DEFAULT_MAX_N, CapacityError


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
    raise ValueError(f"--n must be {_plain_integer(text)}, 'm^2.5' or 'exp(m^0.3)', got {text!r}")


# The flags whose growth can carry an exact quantity, or a statistic's
# exact moments and values, past the float range.
_GROWS_WITH = {"moment": "--q", "omega": "--q", "pi": "--q", "varC": "--m or --r",
               "varZ": "--q, --m or --r", "C": "--m or --r", "Z": "--q, --m or --r"}


@contextmanager
def _float_range(key: str):
    """Turn a value past the float range, or a numerator past the digits of
    int-to-str conversion, into a usage error that names the flags to lower,
    for the quantity or statistic `key`."""
    try:
        yield
    except exact.FloatRangeError as err:
        if key not in _GROWS_WITH:
            raise
        raise ValueError(f"{err}: lower {_GROWS_WITH[key]}") from None
    except exact.DigitLimitError as err:
        # a value within the float range: the size is its denominator's, n^power
        raise ValueError(f"{err}: lower --n or --r") from None


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
        # the text of a value nested `depth` levels (2 spaces each) deep; a scalar
        # needs no indent, and without it json runs its C encoder
        if not isinstance(value, (dict, list, tuple)):
            return json.dumps(value)
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


# quantity: (the least --r, None for tail, which reads no r; whether it is a
# first moment, from sums of mu and phi_q at the floor points of n with no
# table to n; its exact value from the parsed flags)
_EXACT = {
    "mu": (0, True, lambda a: exact.mean_mu(a.n, a.r)),  # mu and nu take r + 1 variables
    "nu": (0, True, lambda a: exact.mean_nu(a.n, a.r)),
    "c": (1, False, lambda a: exact.var_c(a.n, a.r)),
    "d": (1, False, lambda a: exact.var_d(a.n, a.r)),
    "pmf": (1, True, lambda a: exact.gcd_pmf(a.n, a.r)),
    "moment": (1, True, lambda a: exact.gcd_moment(a.n, a.r, a.q)),
    "varC": (2, False, lambda a: exact.var_C(a.n, a.m, a.r)),
    "varZ": (2, False, lambda a: exact.var_Z(a.n, a.m, a.r, a.q)),
    "gamma": (1, False, lambda a: exact.shared_covariance(a.n, a.r, a.s)),
    "omega": (1, False, lambda a: exact.shared_covariance(a.n, a.r, a.s, a.q)),
    "pi": (2, False, lambda a: exact.mixed_moment_pi(a.n, a.r, a.q)),
    "tail": (None, True, lambda a: exact.gcd_tail(a.n, int(a.t))),
}


def cmd_exact(args) -> int:
    n, r, q, s, m = args.n, args.r, args.q, args.s, args.m
    quantity = args.quantity
    least, first_moment, evaluate = _EXACT[quantity]
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if least is not None and r < least:
        raise ValueError(f"--r must be >= {least} for quantity {quantity}, got {r}")
    if quantity in ("varC", "varZ") and (m is None or m < r):
        raise ValueError(f"--m must be given, at least --r = {r}, for quantity {quantity}, got {m}")
    if quantity in ("gamma", "omega") and (s is None or not 0 <= s <= r):
        raise ValueError(f"--s must be given, in 0..{r} (--r), for quantity {quantity}, got {s}")
    if quantity == "tail" and not 0 <= args.t <= n:
        raise ValueError(f"--t must lie in 0..{n} for quantity tail, got {args.t}")
    if first_moment and n > exact.TABLE_FREE_MAX_N:
        raise ValueError(f"--n must be at most {exact.TABLE_FREE_MAX_N} for quantity {quantity} "
                         f"(a sieve to n^(2/3) within the table cap of {DEFAULT_MAX_N}), got {n}")
    t0 = time.perf_counter()
    with _float_range(quantity):
        if quantity == "pmf":
            runs = evaluate(args)
            # before the numerators are written, which happens run by run
            exact.check_digits(max(v.numerator for v, _ in runs))
            payload = {
                "manifest": _manifest("exact", {"quantity": quantity, "n": n, "r": r}),
                "quantity": quantity, "n": n, "r": r,
                "values": _Runs((v.float_value, k) for v, k in runs),
                "numerators": _Runs((str(v.numerator), k) for v, k in runs),
                "denom_power": r,
                "exact": True,
            }
        else:
            payload = {"manifest": _manifest("exact", {
                "quantity": quantity, "n": n, "r": r, "q": q, "s": s, "m": m,
                "t": args.t,
            })}
            payload.update(evaluate(args).record(quantity, n=n, r=r, q=q, s=s, m=m))
    _emit(payload, args.out)
    if args.out:
        print(args.out)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


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
    if args.r < 2 or args.m < args.r:
        raise ValueError(f"--r must be >= 2 and --m at least --r, got --r {args.r}, --m {args.m}")
    config = montecarlo.SampleConfig(
        m=args.m, n=n, r=args.r, q=args.q,
        replicates=args.reps, master_seed=args.seed,
    )
    finite = 0 < args.t < math.inf and 1 / (args.t * constants.zeta(2)) < math.inf
    if statistic == "N" and not finite:
        raise ValueError(f"--t and 1/(t zeta(2)) must be positive and finite for N, got {args.t}")

    with _float_range(statistic):
        try:
            rec = montecarlo.run_replicates(config, statistic, t=args.t, workers=args.workers)
        except MemoryError:
            raise ValueError(f"--reps {args.reps} samples of --m {args.m} values "
                             "do not fit in memory") from None
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
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for res in verify.SUITES[name]():
            print(res.line())
            failures += 0 if res.passed else 1
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 1 if failures else 0


def _plain_integer(text: str, positive: bool = False) -> str:
    """'a [positive] plain integer', and the integer `text` spells another way ('such as ...')."""
    what = "a positive plain integer" if positive else "a plain integer"
    with suppress(InvalidOperation):
        value = Decimal(text)
        if value == value.to_integral_value() and (1 if positive else -10**18) <= value < 10**18:
            return f"{what} such as {int(value)}"
    return what


def _integer(text: str, positive: bool = False) -> int:
    """argparse type of an integer flag, as int() reads it; `positive`: at least 1."""
    with suppress(ValueError):
        if not positive or int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"must be {_plain_integer(text, positive)}, got {text!r}")


_positive_int = functools.partial(_integer, positive=True)


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
    p.add_argument("--quantity", required=True, choices=_EXACT)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--r", type=_integer, default=2)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--s", type=_integer, default=None)
    p.add_argument("--m", type=_integer, default=None)
    p.add_argument("--t", type=float, default=0.0, help="tail threshold for quantity=tail")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("constants", help="emit limiting constants with error bars")
    p.add_argument("--cutoff", type=_integer, default=constants.DEFAULT_CUTOFF)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="run seeded replicates of one statistic")
    p.add_argument("--statistic", required=True, choices=("C", "Z", "M", "N"))
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", required=True, help="integer, 'm^2.5', or 'exp(m^0.3)'")
    p.add_argument("--r", type=_integer, default=2)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", default=None, help="prefix for .csv and .json outputs")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", default="all", choices=("all", *verify.SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


# the flag that sizes the sieve a command refuses past the table cap
_CAPPED_BY = {"exact": "--n", "simulate": "--n", "constants": "--cutoff"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as err:
        flag = _CAPPED_BY.get(args.command)
        parser.exit(2, f"error: {err}: lower {flag}\n" if flag else f"error: {err}\n")
    except (ValueError, OSError) as err:
        parser.exit(2, f"error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
