"""Outside-in tracing of one CLI job, installed in the forked job process.

Public functions of the `gcdstats` layers are replaced, in every module
namespace that binds them, by wrappers that record a span (name, start,
end, parent) in memory and count work from call arguments and return
values.  Nothing inside `src/gcdstats` changes.  The job process writes
its spans when the job ends; `summarise` turns the span files of one pass
into per-layer metrics in the parent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs that get a span; the layer is the module name
SPANNED = (
    ("arith", "build_table"),
    ("montecarlo", "draw_sample"),
    ("montecarlo", "stat_C"),
    ("montecarlo", "stat_Z"),
    ("montecarlo", "stat_M"),
    ("montecarlo", "poisson_count"),
    ("montecarlo", "run_replicates"),
    ("montecarlo", "replicate_rows"),
    ("montecarlo", "exact_moments"),
    ("exact", "shared_covariance"),
    ("exact", "var_C"),
    ("exact", "var_Z"),
    ("exact", "gcd_pmf"),
    ("exact", "marginal_profile"),
    ("exact", "mixed_moment_pi"),
    ("exact", "cesaro_expectation"),
    ("constants", "tauberian_trend"),
    ("constants", "euler_product"),
    ("stattest", "ks_distance"),
    ("stattest", "tv_distance"),
    ("verify", "format_rows_csv"),
)
# hot per-value method: counted only, a span per call would swamp the job
COUNTED_METHOD = ("arith", "ArithTable", "divisor_tuple")

STATISTICS = ("stat_C", "stat_Z", "stat_M", "poisson_count")
TREND_KINDS = ("corollary22", "toth", "pillai_sq")
LAYERS = ("arith", "montecarlo", "exact", "constants", "stattest", "verify", "cli")


def _span_name(module: str, func: str, args, kwargs) -> str:
    if func == "tauberian_trend":
        kind = kwargs.get("kind", args[0] if args else "?")
        return f"constants.tauberian_trend.{kind}"
    return f"{module}.{func}"


class Tracer:
    """Spans and counters of one job, kept in memory until `dump`."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.divisor_args: set = set()
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, args=(), kwargs=None):
        """Call fn inside a span named `name` and return its result."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (self._name_id(name), start, end, parent)

    def _count_table(self, table) -> None:
        """Work counters of one build_table call, from its return value."""
        self.counters["arith.table_entries"] += int(table.n_max)
        arrays = [table.mobius, table.tau, table.smallest_prime_factor,
                  table.primes, *table.totient_s.values()]
        self.counters["arith.table_bytes"] += sum(
            a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def _wrap(self, module: str, func: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = _span_name(module, func, args, kwargs)
            result = tracer.span(name, fn, args, kwargs)
            if name == "arith.build_table":
                tracer._count_table(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded gcdstats modules."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == "gcdstats" or name.startswith("gcdstats.")}
        for module, func in SPANNED:
            fn = getattr(loaded.get(f"gcdstats.{module}"), func, None)
            if fn is None:
                self.absent.append(f"{module}.{func}")
                continue
            traced = self._wrap(module, func, fn)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

        module, cls_name, method = COUNTED_METHOD
        cls = getattr(loaded.get(f"gcdstats.{module}"), cls_name, None)
        orig = getattr(cls, method, None)
        if orig is None:
            self.absent.append(f"{module}.{cls_name}.{method}")
            return
        counters, seen = self.counters, self.divisor_args

        def counted(table, k):
            counters["arith.divisor_tuple.calls"] += 1
            seen.add((id(table), k))
            return orig(table, k)

        setattr(cls, method, counted)

    def dump(self, path: Path) -> None:
        self.counters["arith.divisor_tuple.distinct"] = len(self.divisor_args)
        spans = np.array(self.spans, dtype=np.float64)
        meta = {"job": self.job_id, "names": self.names,
                "counters": dict(self.counters), "absent": self.absent}
        np.savez(path, spans=spans.reshape(-1, 4), meta=np.array(json.dumps(meta)))


def _self_times(spans: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    dur = spans[:, 2] - spans[:, 1]
    child = np.zeros(len(spans))
    parents = spans[:, 3].astype(np.int64)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur - child


def summarise(span_files: list[Path], replicates_requested: int,
              job_ids: list[str]) -> dict:
    """Per-layer metrics of one traced pass over a workload's jobs.

    The root span of each file is the whole `cli.main` call, named
    `cli.<job-id>`; its self time is the part no traced layer covers.
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    absent: set = set()
    n_spans = 0
    for path in span_files:
        with np.load(path) as data:
            spans = data["spans"]
            meta = json.loads(str(data["meta"]))
        n_spans += len(spans)
        absent.update(meta["absent"])
        for key, value in meta["counters"].items():
            counters[key] += value
        names = meta["names"]
        selfs = _self_times(spans)
        for (nid, start, end, _), own in zip(spans, selfs):
            name = names[int(nid)]
            layer = "cli" if name.startswith("cli.") else name.split(".")[0]
            seconds[name] += end - start
            calls[name] += 1
            seconds[f"{layer}.self"] += own

    def s(name):
        return seconds.get(name, 0.0)

    stat_s = sum(s(f"montecarlo.{f}") for f in STATISTICS)
    stat_calls = sum(calls.get(f"montecarlo.{f}", 0) for f in STATISTICS)
    draws = calls.get("montecarlo.draw_sample", 0)
    div_calls = counters.get("arith.divisor_tuple.calls", 0)
    div_distinct = counters.get("arith.divisor_tuple.distinct", 0)
    out = {
        "arith.build_table.s": (s("arith.build_table"), "s"),
        "arith.build_table.calls": (calls.get("arith.build_table", 0), "count"),
        "arith.table_entries": (counters.get("arith.table_entries", 0), "count"),
        "arith.table_bytes": (counters.get("arith.table_bytes", 0), "bytes"),
        "arith.divisor_tuple.calls": (div_calls, "count"),
        "arith.divisor_tuple.hit_ratio": (
            1 - div_distinct / div_calls if div_calls else 0.0, "ratio"),
        "montecarlo.replicates_requested": (replicates_requested, "count"),
        "montecarlo.draw_sample.s": (s("montecarlo.draw_sample"), "s"),
        "montecarlo.draw_sample.calls": (draws, "count"),
        "montecarlo.draws_per_replicate": (
            draws / replicates_requested if replicates_requested else 0.0, "ratio"),
        "montecarlo.statistic.s": (stat_s, "s"),
        "montecarlo.statistic.calls": (stat_calls, "count"),
        "montecarlo.us_per_replicate": (
            1e6 * (s("montecarlo.run_replicates") + s("montecarlo.replicate_rows"))
            / replicates_requested if replicates_requested else 0.0, "us"),
        "montecarlo.run_replicates.s": (s("montecarlo.run_replicates"), "s"),
        "montecarlo.replicate_rows.s": (s("montecarlo.replicate_rows"), "s"),
        "montecarlo.exact_moments.s": (s("montecarlo.exact_moments"), "s"),
    }
    for func in ("shared_covariance", "var_C", "var_Z", "gcd_pmf", "marginal_profile",
                 "mixed_moment_pi", "cesaro_expectation"):
        out[f"exact.{func}.s"] = (s(f"exact.{func}"), "s")
        out[f"exact.{func}.calls"] = (calls.get(f"exact.{func}", 0), "count")
    for kind in TREND_KINDS:
        out[f"constants.tauberian_trend.{kind}.s"] = (
            s(f"constants.tauberian_trend.{kind}"), "s")
    out["constants.euler_product.s"] = (s("constants.euler_product"), "s")
    out["constants.euler_product.calls"] = (calls.get("constants.euler_product", 0), "count")
    out["stattest.ks_distance.s"] = (s("stattest.ks_distance"), "s")
    out["stattest.tv_distance.s"] = (s("stattest.tv_distance"), "s")
    out["verify.format_rows_csv.s"] = (s("verify.format_rows_csv"), "s")
    for layer in LAYERS:
        out[f"{layer}.self.s"] = (s(f"{layer}.self"), "s")
    for job_id in job_ids:
        out[f"cli.{job_id}.s"] = (s(f"cli.{job_id}"), "s")
    out["trace.spans"] = (n_spans, "count")
    out["trace.absent_names"] = (len(absent), "count")
    return {"metrics": out, "absent": sorted(absent)}
