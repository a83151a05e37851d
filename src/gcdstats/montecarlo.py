"""Reproducible sampling and fast evaluation of the gcd sample statistics.

Statistics over a sample x_1..x_m from {1..n}:

    C = number of r-subsets with gcd exactly 1
    Z = sum of gcd^q over all r-subsets
    M = max gcd over pairs
    N(t) = number of pairs with gcd > t * C(m,2)

C and Z are computed without looping over subsets, via the divisor
multiplicities cnt(d) = #{i : d | x_i}:

    C = sum_d mu(d)    * C(cnt(d), r)
    Z = sum_d phi_q(d) * C(cnt(d), r)

since sum_{d | g} mu(d) = [g = 1] and sum_{d | g} phi_q(d) = g^q.  M and
N(t) are functions of the C(m,2) pair gcds alone, so they come from
np.gcd over the pairs and read no arithmetic table; n may then be as large
as int64 allows.  The naive subset loops live in `brute` and gate these in
the tests.

Replicate i draws from a counter-based Philox stream keyed by
(master_seed, i), so results are independent of worker count and
scheduling; uniform integers use rejection-based bounded draws.  A run
draws and evaluates its replicates once each, a block at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from multiprocessing import get_context

import numpy as np

from . import exact
from .arith import ArithTable, build_table

_INT64_SAFE = 2**62
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1

# Sample values held by one block of replicates, and so the most pair gcds
# one numpy call of the pair kernel holds: 0.5 MB per int64 array, whatever
# the replicate count and m.  Larger blocks gain no speed; at 1 << 20 the
# (m=2000, n=40) Z run peaked 14 MB above the per-replicate loop.
_BLOCK_ELEMENTS = 1 << 16


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")


def _philox_key(seed: int, index: int) -> np.ndarray:
    """The Philox key (seed, index) as two uint64 words.

    Given a list instead, numpy converts words >= 2^63 through float64,
    which rounds them and so aliases distinct seeds.
    """
    return np.array([seed, index], dtype=np.uint64)


@dataclass(frozen=True)
class SampleConfig:
    """Full determinism contract for one simulation.

    Replicate i uses the stream keyed by (master_seed, i); reruns with the
    same config are bit-identical regardless of worker count.
    """

    m: int
    n: int
    r: int = 2
    q: int = 1
    replicates: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n > _INT64_MAX:
            raise ValueError(
                f"n must be <= 2^63 - 1 = {_INT64_MAX} (samples are int64), got {self.n}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.m < self.r:
            raise ValueError(f"need m >= r, got m={self.m}, r={self.r}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        _check_seed(self.master_seed)

    def regime_warnings(self, statistic: str) -> list[str]:
        """Labels for configs outside the proven limit-law regimes.

        Simulations outside the regimes are allowed; the labels make the
        run output say so.
        """
        warns = []
        if self.n < 2:
            warns.append("n = 1 is a degenerate sample space")
        if statistic == "Z" and self.n ** (2 * self.q) >= self.m:
            warns.append(
                f"outside the proven normality regime for Z: needs n^q < sqrt(m), "
                f"here n^q = {self.n**self.q} vs sqrt(m) ~ {math.sqrt(self.m):.1f}"
            )
        if statistic == "M":
            # point proxy for the sequence window m^beta <= n <= exp(m^gamma),
            # beta > 2, gamma < 1/3: power rules above m^2 qualify eventually,
            # so only flag n at or below m^2 or wildly superexponential n
            if self.n <= self.m**2 or math.log(self.n) >= self.m:
                warns.append(
                    "outside the proven Frechet window: needs m^beta <= n <= "
                    "exp(m^gamma) with beta > 2, gamma < 1/3"
                )
        return warns


def draw_sample(config: SampleConfig, replicate_index: int) -> np.ndarray:
    """The m uniform values of replicate `replicate_index`, in [1, n]."""
    if replicate_index < 0:
        raise ValueError("replicate_index must be >= 0")
    rng = np.random.Generator(
        np.random.Philox(key=_philox_key(config.master_seed, replicate_index))
    )
    return rng.integers(1, config.n + 1, size=config.m, dtype=np.int64)


def _draw_block(config: SampleConfig, start: int, stop: int) -> np.ndarray:
    """Samples of replicates start..stop-1 as rows, each equal to draw_sample.

    One Philox is re-keyed per replicate rather than a Generator built for
    each: restoring the state of a freshly keyed Philox (zero counter, empty
    buffer, no cached 32-bit half) with only the key's index word changed
    gives the same stream.
    """
    bitgen = np.random.Philox(key=_philox_key(config.master_seed, start))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    out = np.empty((stop - start, config.m), dtype=np.int64)
    for row, idx in enumerate(range(start, stop)):
        key[1] = idx
        bitgen.state = fresh
        out[row] = rng.integers(1, config.n + 1, size=config.m, dtype=np.int64)
    return out


# --- pair gcds: M and N -----------------------------------------------------

def _pair_cut(threshold: float) -> int:
    """Integer cut with gcd > threshold iff gcd > cut, inside [0, 2^63 - 1]."""
    if not threshold < _INT64_MAX:  # also NaN: no gcd exceeds it
        return _INT64_MAX
    return max(math.floor(threshold), 0)


def _pair_gcd_reduce(xs: np.ndarray, cut: int | None = None) -> np.ndarray:
    """Per row of xs, the largest pair gcd, or given `cut` the number of
    pairs whose gcd exceeds it.

    The upper triangle is taken a row at a time, gcd(x_i, x_{i+1..m}), so
    one numpy call holds fewer than xs.size gcds.  int32 division is faster
    than int64 and exact when every value fits.
    """
    out = np.zeros(xs.shape[0], dtype=np.int64)
    if xs.shape[1] < 2:
        return out
    if xs.max() <= _INT32_MAX:
        xs = xs.astype(np.int32)
    for i in range(xs.shape[1] - 1):
        g = np.gcd(xs[:, i : i + 1], xs[:, i + 1 :])
        if cut is None:
            np.maximum(out, g.max(axis=1), out=out)
        else:
            out += np.count_nonzero(g > cut, axis=1)
    return out


def stat_M(sample) -> int:
    """Maximum gcd over the pairs of the sample (values below 2^63)."""
    x = np.asarray(sample, dtype=np.int64)
    if x.size < 2:
        raise ValueError("stat_M needs at least two sample values")
    return int(_pair_gcd_reduce(x[None, :])[0])


def poisson_count(sample, threshold: float) -> int:
    """Number of unordered pairs with gcd strictly above `threshold`."""
    x = np.asarray(sample, dtype=np.int64)
    return int(_pair_gcd_reduce(x[None, :], _pair_cut(threshold))[0])


# --- divisor multiplicities: C and Z -----------------------------------------

@lru_cache(maxsize=1 << 15)
def _divisors_trial(v: int) -> tuple:
    """Divisors of v by trial division; only used beyond the table range."""
    ds = [1]
    rest = v
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            ds = [d * p**i for d in ds for i in range(e + 1)]
        p += 1 if p == 2 else 2
    if rest > 1:
        ds = [d * rest**i for d in ds for i in range(2)]
    return tuple(ds)


def _element_divisors(v: int, table: ArithTable):
    if v <= table.n_max:
        return table.divisor_tuple(v)
    return _divisors_trial(v)


def _multiplicities(sample, table: ArithTable, n: int, mode: str = "auto"):
    """cnt(d) = #{i : d | x_i}; dense int64 array or sparse dict.

    Dense (multiples-of-d sums over a frequency table) costs ~n slice
    sums; the sparse path costs sum_i tau(x_i) ~ m ln n dictionary
    updates, so it wins whenever the sample is short relative to n.
    Both paths produce identical statistics; `mode` pins one for testing.
    """
    x = np.asarray(sample)
    m = x.size
    dense = n <= 2 * m if mode == "auto" else mode == "dense"
    if dense and n <= table.n_max:
        freq = np.bincount(x, minlength=n + 1)
        cnt = np.zeros(n + 1, dtype=np.int64)
        for d in range(1, n + 1):
            cnt[d] = int(freq[d::d].sum())
        return cnt
    counts: dict[int, int] = {}
    for v in x.tolist():
        for d in _element_divisors(int(v), table):
            counts[d] = counts.get(d, 0) + 1
    return counts


def _weight_of(d: int, table: ArithTable, kind: str, q: int) -> int:
    if d <= table.n_max:
        if kind == "mobius":
            return int(table.mobius[d])
        return int(table.totient(q)[d])
    # factor by trial division; weights are multiplicative over prime powers
    fact = []
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            fact.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        fact.append((rest, 1))
    if kind == "mobius":
        if any(e >= 2 for _, e in fact):
            return 0
        return -1 if len(fact) % 2 else 1
    w = 1
    for p, e in fact:
        w *= p ** (q * (e - 1)) * (p**q - 1)
    return w


def _subset_weighted_count(cnt, table: ArithTable, r: int, kind: str, q: int) -> int:
    """sum_d weight(d) * C(cnt(d), r), exactly."""
    if isinstance(cnt, dict):
        total = 0
        for d, c in cnt.items():
            if c >= r:
                w = _weight_of(d, table, kind, q)
                if w:
                    total += w * comb(c, r)
        return total
    n = len(cnt) - 1
    g = table.mobius if kind == "mobius" else table.totient(q)
    if r == 2 and isinstance(g, np.ndarray):
        c2 = cnt * (cnt - 1) // 2
        peak = int(np.abs(g[: n + 1]).max()) * int(c2.max(initial=0))
        if (n + 1) * peak < _INT64_SAFE:
            return int(np.dot(g[: n + 1].astype(np.int64), c2))
    total = 0
    for d in range(1, n + 1):
        c = int(cnt[d])
        if c >= r:
            w = int(g[d])
            if w:
                total += w * comb(c, r)
    return total


def stat_C(sample, r: int, table: ArithTable, n: int | None = None) -> int:
    """Number of r-subsets of the sample whose gcd is exactly 1."""
    n = int(n if n is not None else max(sample))
    cnt = _multiplicities(sample, table, n)
    return _subset_weighted_count(cnt, table, r, "mobius", 1)


def stat_Z(sample, r: int, q: int, table: ArithTable, n: int | None = None) -> int:
    """Sum of gcd^q over all r-subsets of the sample."""
    n = int(n if n is not None else max(sample))
    cnt = _multiplicities(sample, table, n)
    return _subset_weighted_count(cnt, table, r, "totient", q)


# --- replicate running -------------------------------------------------------

@dataclass
class EmpiricalDistribution:
    """Replicate values ready for goodness-of-fit distances.

    kind "continuous": `values` holds the sorted replicate values.
    kind "integer-counts": `counts` maps value -> count.
    `meta` echoes the config and any normalization constants used.
    `rows` keeps the (index, raw, normalized) rows in replicate order.
    """

    kind: str
    size: int
    values: np.ndarray = None
    counts: dict = None
    meta: dict = field(default_factory=dict)
    rows: list = None


_STATISTICS = ("C", "Z", "M", "N")
_NORMALIZATIONS = ("none", "exact-moments", "frechet-scale")

# worker context inherited over fork; set immediately before pool creation
_SIM_CTX = {}


def _raws_in_range(config: SampleConfig, statistic: str, table, threshold: float,
                   start: int, stop: int) -> list:
    """Raw statistic of replicates start..stop-1, a block of samples at a time."""
    per_block = max(1, _BLOCK_ELEMENTS // config.m)
    cut = _pair_cut(threshold)
    raws = []
    for lo in range(start, stop, per_block):
        xs = _draw_block(config, lo, min(lo + per_block, stop))
        if statistic == "M":
            raws.extend(_pair_gcd_reduce(xs).tolist())
        elif statistic == "N":
            raws.extend(_pair_gcd_reduce(xs, cut).tolist())
        elif statistic == "C":
            raws.extend(stat_C(x, config.r, table, config.n) for x in xs)
        else:
            raws.extend(stat_Z(x, config.r, config.q, table, config.n) for x in xs)
    return raws


def _sim_chunk(bounds):
    return _raws_in_range(_SIM_CTX["config"], _SIM_CTX["statistic"],
                          _SIM_CTX["table"], _SIM_CTX["threshold"], *bounds)


def _raw_replicates(config, statistic, table, threshold, workers) -> list:
    """Raw values of all replicates in replicate order, each computed once.

    Workers take contiguous index ranges, so the values do not depend on
    the worker count.
    """
    total = config.replicates
    if workers <= 1:
        return _raws_in_range(config, statistic, table, threshold, 0, total)
    _SIM_CTX.update(config=config, statistic=statistic, table=table,
                    threshold=threshold)
    chunk = max(1, math.ceil(total / (workers * 4)))
    bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork")) as ex:
        parts = list(ex.map(_sim_chunk, bounds))
    return [v for part in parts for v in part]


def exact_moments(config: SampleConfig, statistic: str, table: ArithTable):
    """(mean, sd) of the statistic from the exact closed formulas."""
    m, n, r, q = config.m, config.n, config.r, config.q
    if statistic == "C":
        mean = comb(m, r) * exact.mean_mu(table, n, r - 1).float_value
        var = exact.var_C(table, n, m, r).float_value
    elif statistic == "Z":
        mean = comb(m, r) * exact.gcd_moment(table, n, r, q).float_value
        var = exact.var_Z(table, n, m, r, q).float_value
    else:
        raise ValueError(f"exact moments only exist for C and Z, got {statistic!r}")
    return mean, math.sqrt(var)


def run_replicates(
    config: SampleConfig,
    statistic: str,
    normalization: str = "none",
    table: ArithTable | None = None,
    t: float = 1.0,
    workers: int = 1,
) -> EmpiricalDistribution:
    """Compute R replicate values of one statistic, optionally normalized.

    normalization "exact-moments" centers and scales by the exact mean and
    standard deviation; "frechet-scale" divides the pair max by C(m,2);
    "none" returns raw values (integer counts for N).  Only C and Z read
    `table` (built to n when not given); M and N need none.  Each
    replicate is drawn and evaluated once, and the result also carries the
    replicate-order rows.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"statistic must be one of {_STATISTICS}, got {statistic!r}")
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    if table is None and statistic in ("C", "Z"):
        table = build_table(config.n)
    threshold = t * comb(config.m, 2)
    meta = {
        "config": {
            "m": config.m, "n": config.n, "r": config.r, "q": config.q,
            "replicates": config.replicates, "master_seed": config.master_seed,
        },
        "statistic": statistic,
        "normalization": normalization,
        "regime_warnings": config.regime_warnings(statistic),
    }
    shift, scale = 0, 1
    if normalization == "exact-moments":
        shift, scale = exact_moments(config, statistic, table)
        meta["exact_mean"], meta["exact_sd"] = shift, scale
    elif normalization == "frechet-scale":
        scale = meta["scale"] = comb(config.m, 2)

    raws = _raw_replicates(config, statistic, table, threshold, workers)
    normalized = [(float(v) - shift) / scale for v in raws]
    rows = list(zip(range(len(raws)), raws, normalized))

    if statistic == "N":
        meta["threshold"] = threshold
        counts: dict[int, int] = {}
        for v in raws:
            counts[v] = counts.get(v, 0) + 1
        return EmpiricalDistribution("integer-counts", len(raws), counts=counts,
                                     meta=meta, rows=rows)
    return EmpiricalDistribution("continuous", len(raws),
                                 values=np.sort(np.array(normalized)),
                                 meta=meta, rows=rows)


def replicate_rows(config, statistic, normalization="none", table=None,
                   t: float = 1.0, workers: int = 1):
    """(index, raw, normalized) rows in replicate order, for CSV export."""
    return run_replicates(config, statistic, normalization, table, t, workers).rows


def strong_law_trajectory(n: int, r: int, m_grid, seed: int,
                          table: ArithTable | None = None) -> np.ndarray:
    """C_{m,r} / E C_{m,r} along one growing realization, at the grid points.

    The same stream is extended as m grows (values are reused), so the
    trajectory is a single realization of the almost-sure limit statement.
    """
    _check_seed(seed)
    grid = [int(v) for v in m_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    if grid[0] < r:
        raise ValueError(f"grid starts below r={r}")
    if table is None:
        table = build_table(n)
    top = grid[-1]
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, 0)))
    xs = rng.integers(1, n + 1, size=top, dtype=np.int64)

    mu = table.mobius
    mean_single = exact.mean_mu(table, n, r - 1).float_value
    cnt = np.zeros(n + 1, dtype=np.int64)
    running = 0
    ratios = []
    targets = set(grid)
    for m, v in enumerate(xs.tolist(), start=1):
        ds = table.divisor_tuple(int(v))
        # new r-subsets through this element: choose r-1 earlier multiples
        for d in ds:
            w = int(mu[d])
            if w:
                c = int(cnt[d])
                if c >= r - 1:
                    running += w * comb(c, r - 1)
        for d in ds:
            cnt[d] += 1
        if m in targets:
            expected = comb(m, r) * mean_single
            ratios.append(running / expected)
    return np.array(ratios)
