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

since sum_{d | g} mu(d) = [g = 1] and sum_{d | g} phi_q(d) = g^q.  One
kernel evaluates them for a whole block of replicates, exactly: over a
(B, n+1) count matrix when n is small next to the block's divisor count,
else over one key per (replicate, divisor).  M and N(t) are functions of
the C(m,2) pair gcds alone, so they come from np.gcd over the pairs and
read no table; n may then be as large as int64 allows.  The naive subset
loops live in `brute` and gate these in the tests.

Replicate i draws from a counter-based Philox stream keyed by
(master_seed, i), so results are independent of worker count and
scheduling; uniform integers use rejection-based bounded draws.  A run
draws and evaluates its replicates once each, a block at a time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb
from multiprocessing import get_context

import numpy as np

from . import exact
from .arith import ArithTable, build_table

_INT64_SAFE = 2**62
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1

# Sample values held by one block of replicates, and so the most pair gcds
# one numpy call of the pair kernel holds, and the most cells of a dense C/Z
# count matrix: 0.5 MB per int64 array, whatever the replicate count, m and
# n.  Larger blocks gain no speed; at 1 << 20 the (m=2000, n=40) Z run
# peaked 14 MB above the per-replicate loop.
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

def _binom(cnt: np.ndarray, r: int) -> np.ndarray:
    """C(cnt, r) elementwise, in cnt's dtype; counts cnt down in place.

    Step i turns C(cnt, i-1) into C(cnt, i) = C(cnt, i-1) (cnt-i+1) / i,
    an exact division whose dividend is at most cnt^i.
    """
    out = cnt.copy()
    for i in range(2, r + 1):
        cnt -= 1
        out *= cnt
        out //= i
    return out


def _exact_dtype(weight_sum: int, m: int, r: int):
    """int64 when weight_sum m^r < 2^62, else object (Python ints).

    With cnt <= m, every C(cnt, r) and every `_binom` intermediate is at
    most m^r, so a row's sum_d w(d) C(cnt(d), r) is at most sum |w| m^r.
    """
    return np.int64 if weight_sum * m**r < _INT64_SAFE else object


def _dense_route(xs: np.ndarray, r: int, g, primes) -> np.ndarray:
    """Per row, sum_{d <= n} g(d) C(cnt(d), r) from a (B, n+1) count matrix.

    g holds the weights g(0..n) in the result dtype and `primes` the primes
    up to n.  One bincount gives each row's value frequencies; a sum over
    multiples, prime by prime, turns them into cnt(d).  For a prime p,
    cnt[i] += cnt[i p] runs for i = n/p down to 1, one slice per power of
    p: the i in (n/p^(k+1), n/p^k] read the i p in (n/p^k, n/p^(k-1)],
    which the slice before has finished.
    """
    rows, n = xs.shape[0], g.size - 1
    keys = (np.arange(rows)[:, None] * (n + 1) + xs).ravel()
    cnt = np.bincount(keys, minlength=rows * (n + 1)).reshape(rows, n + 1)
    for p in primes:
        hi = n // p
        while hi:
            lo = hi // p
            cnt[:, lo + 1 : hi + 1] += cnt[:, (lo + 1) * p : hi * p + 1 : p]
            hi = lo
    return _binom(cnt.astype(g.dtype, copy=False), r) @ g


def _weighted_divisors(factors, q: int | None) -> list:
    """(d, w(d)) for the divisors d of prod p^e with w(d) != 0.

    w is mu when q is None (so d squarefree), else phi_q, both
    multiplicative: mu(p) = -1 and phi_q(p^i) = p^(q(i-1)) (p^q - 1).
    """
    pairs = [(1, 1)]
    for p, e in factors:
        if q is None:
            pairs += [(d * p, -w) for d, w in pairs]
        else:
            pq = p**q
            powers = [(p**i, p ** (q * (i - 1)) * (pq - 1)) for i in range(1, e + 1)]
            pairs += [(d * pd, w * pw) for d, w in pairs for pd, pw in powers]
    return pairs


def _sparse_route(xs: np.ndarray, r: int, q: int | None, table: ArithTable) -> np.ndarray:
    """Per row, sum_d w(d) C(cnt(d), r) over the divisors its values have.

    Each distinct value of the block is factorised once (`factorize`: the
    table's spf inside it, trial division beyond) and expanded into its
    divisors of nonzero weight.  One key per (row, divisor) occurrence;
    np.unique counts them into cnt, and reduceat sums each row's terms.
    """
    rows, m = xs.shape
    vals, inv = np.unique(xs.ravel(), return_inverse=True)
    per_value = [_weighted_divisors(table.factorize(v), q) for v in vals.tolist()]
    sizes = np.array([len(pairs) for pairs in per_value], dtype=np.int64)
    divs, weights = zip(*[pair for pairs in per_value for pair in pairs])
    dvals, div_id = np.unique(np.array(divs, dtype=np.int64), return_inverse=True)
    w = np.empty(dvals.size, dtype=object)
    w[div_id] = weights
    w = w.astype(_exact_dtype(int(np.abs(w).sum()), m, r))

    per_elem = sizes[inv]
    # position in the flat divisor list of each (element, divisor) occurrence
    shift = (np.cumsum(sizes) - sizes)[inv] - (np.cumsum(per_elem) - per_elem)
    pos = np.arange(per_elem.sum()) + np.repeat(shift, per_elem)
    row = np.repeat(np.arange(rows * m) // m, per_elem)
    keys, cnt = np.unique(row * dvals.size + div_id[pos], return_counts=True)
    terms = _binom(cnt.astype(w.dtype, copy=False), r) * w[keys % dvals.size]
    # every row holds divisor 1 (weight 1), so every row has a key
    row_starts = np.flatnonzero(np.diff(keys // dvals.size, prepend=-1))
    return np.add.reduceat(terms, row_starts)


def _subset_weighted_block(xs: np.ndarray, r: int, q: int | None, table: ArithTable,
                           n: int) -> list:
    """Exact C (q None) or Z with exponent q of every row of xs, values in 1..n.

    Both are sum_d w(d) C(cnt(d), r), with w = mu or phi_q and
    cnt(d) = #{i : d | x_i} in the row.  The cheaper route runs: the dense
    sweep touches n + 1 + sum_{p <= n} floor(n/p) cells a row, the sparse
    route sorts about D keys, D the block's divisor count, in D log2 D
    comparisons.  Dense blocks hold at most _BLOCK_ELEMENTS cells.
    """
    rows, m = xs.shape
    if n <= table.n_max:
        primes = table.primes[: np.searchsorted(table.primes, n, "right")]
        divisor_count = int(table.tau[xs].sum(dtype=np.int64))
        if rows * (n + 1 + int((n // primes).sum())) <= divisor_count * math.log2(divisor_count):
            g = np.array((table.mobius if q is None else table.totient(q))[: n + 1], dtype=object)
            g = g.astype(_exact_dtype(int(np.abs(g).sum()), m, r))
            step = max(1, _BLOCK_ELEMENTS // (n + 1))
            return np.concatenate([_dense_route(xs[lo : lo + step], r, g, primes.tolist())
                                   for lo in range(0, rows, step)]).tolist()
    return _sparse_route(xs, r, q, table).tolist()


def stat_C(sample, r: int, table: ArithTable, n: int | None = None) -> int:
    """Number of r-subsets of the sample whose gcd is exactly 1."""
    x = np.asarray(sample, dtype=np.int64)[None, :]
    return _subset_weighted_block(x, r, None, table, int(x.max()) if n is None else n)[0]


def stat_Z(sample, r: int, q: int, table: ArithTable, n: int | None = None) -> int:
    """Sum of gcd^q over all r-subsets of the sample."""
    x = np.asarray(sample, dtype=np.int64)[None, :]
    return _subset_weighted_block(x, r, q, table, int(x.max()) if n is None else n)[0]


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
        else:
            q = None if statistic == "C" else config.q
            raws.extend(_subset_weighted_block(xs, config.r, q, table, config.n))
    return raws


def _sim_chunk(bounds):
    return _raws_in_range(_SIM_CTX["config"], _SIM_CTX["statistic"],
                          _SIM_CTX["table"], _SIM_CTX["threshold"], *bounds)


def _raw_replicates(config, statistic, table, threshold, workers) -> list:
    """Raw values of all replicates in replicate order, each computed once.

    Workers take contiguous index ranges, so the values do not depend on
    the worker count.  The fork context starts every pool process up
    front, so the pool has no more processes than ranges or CPUs.
    """
    total = config.replicates
    if workers <= 1:
        return _raws_in_range(config, statistic, table, threshold, 0, total)
    _SIM_CTX.update(config=config, statistic=statistic, table=table,
                    threshold=threshold)
    chunk = max(1, math.ceil(total / (workers * 4)))
    bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    processes = min(workers, len(bounds), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=processes, mp_context=get_context("fork")) as ex:
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

    mean_single = exact.mean_mu(table, n, r - 1).float_value
    return np.array([_subset_weighted_block(xs[None, :m], r, None, table, n)[0]
                     / (comb(m, r) * mean_single) for m in grid])
