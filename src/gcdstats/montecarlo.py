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
kernel evaluates them for a whole block of replicates, exactly: over an
(n+1, B) count matrix, one column per replicate, when n is small next to
the block's divisor count, else over one key per (replicate, divisor),
its values factorised all at once with no table (`arith.weighted_divisors`).
A run sieves the weight of order q, None (mu) for C and config.q for Z,
to n once (`exact.sieve_weight`), for the exact moments that normalise C
and Z and the dense route alike; a lone sample (`stat_C`, `stat_Z`) sieves
it only once the route rule, which reads n alone, picks that route, so its
values run sparse up to DEFAULT_MAX_N^2.  C(cnt, r) is read from a table
of C(k, r) for k up to the largest count.  The sums, like the raw values a
run keeps, are int64 or Python ints by `arith.int_dtype` of a proven
bound: m^r times the sum of |w| the route reads.
M and N(t) are functions of the C(m,2) pair gcds alone and sieve nothing;
n may then be as large as int64 allows.  They need only the large gcds: a
pair gcd g > T makes both values g times a cofactor below n/T, so a
floor_divide by each small cofactor lists every divisor above T of every
value, and a divisor met twice in a row is a shared one.  M walks bands
of divisors from the top down until each row has one; N(t) takes those
above t C(m,2).  Blocks where np.gcd over the pairs costs less (few rows,
or n so far above C(m,2) that the cofactors run into the millions) take
that route instead.  The naive loops live in `brute` and gate these in
the tests.

Replicate i draws from a counter-based Philox stream keyed by
(master_seed, i), so results are independent of worker count and
scheduling; uniform integers use rejection-based bounded draws.  A run
draws and evaluates its replicates once each, a block at a time.  A block
takes its Philox4x64-10 words from one of two sources, numpy array rounds
over all rows of a pass (many short rows) or numpy's own Philox re-keyed
per row (long rows, or a few dozen short ones), and maps them to [1, n]
as numpy's bounded draw does, by one map for both.  A row with a rejected
draw is redrawn by one numpy Generator call, and so is every row of a
block whose rows would mostly be redrawn.  The bytes are the same on
every route.
More than one worker forks a process pool (`_fork_pool`), which imports the
pool modules only then: a one-worker run never loads them.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import constants, exact, stattest
from .arith import (DEFAULT_MAX_N, INT64_MAX, int_dtype, mobius_local, primes_up_to, run_positions,
                    sum_over_multiples, totient_local, weighted_divisors)

_INT32_MAX = 2**31 - 1

# Sample values held by one block of replicates, and so the most pair gcds
# one numpy call of the pair kernel holds and the most cells of a dense C/Z
# count matrix: 0.5 MB per 64-bit array there, whatever the replicate
# count, m and n.  A draw pass holds at most a quarter of it in an array
# of Philox state: array rounds four lanes, their high words and three
# scratch arrays, eight arrays of 128 KB at most, and then the words laid
# out by row, 512 KB; raw words one array of 128 KB.
# The sparse C/Z route is not bounded by it: its divisor arrays and keys
# grow with the block's divisor count, about 26 MB traced for one full
# block of Z --m 20 --n 10000 --q 3.  Larger blocks gain no speed; at
# 1 << 20 the (m=2000, n=40) Z run peaked 14 MB above the per-replicate loop.
_BLOCK_ELEMENTS = 1 << 16

# CSV rows formatted and written at a time: bounds the row strings, the
# cached row tails and the normalized floats `Replicates.write_csv` holds.
_CSV_ROWS = 4096


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
        if self.n > INT64_MAX:
            raise ValueError(
                f"n must be <= 2^63 - 1 = {INT64_MAX} (samples are int64), got {self.n}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.m < self.r:
            raise ValueError(f"need m >= r, got m={self.m}, r={self.r}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.master_seed}")

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


def _rekeyed_philox(seed: int):
    """(bitgen, rekey): one numpy Philox, and rekey(i), which makes it the
    fresh stream keyed by (seed, i).

    Restoring the state of a freshly keyed Philox (zero counter, empty
    buffer, no cached 32-bit half) with only the key's index word changed
    gives the same stream as a Philox built for that key (22 us on a 2-vCPU
    Xeon), and a state whose words are lists of Python ints, not arrays,
    restores in 0.5 us there, not 1.25.
    """
    bitgen = np.random.Philox(key=_philox_key(seed, 0))
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]

    def rekey(index: int) -> None:
        key[1] = index
        bitgen.state = fresh

    return bitgen, rekey


def _draw_rows(config: SampleConfig, indices) -> np.ndarray:
    """Samples of the given replicates as rows, one Generator call each."""
    bitgen, rekey = _rekeyed_philox(config.master_seed)
    rng = np.random.Generator(bitgen)
    out = np.empty((len(indices), config.m), dtype=np.int64)
    for row, idx in enumerate(indices):
        rekey(idx)
        out[row] = rng.integers(1, config.n + 1, size=config.m, dtype=np.int64)
    return out


# Philox4x64-10 (Salmon et al., SC'11): the multipliers of lanes 0 and 2,
# and the Weyl increments of the two key words between rounds.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _mulhi(x: np.ndarray, mul: int, out: np.ndarray, scratch) -> None:
    """out = the high words of the 128-bit products x * mul, exactly.

    The product is put together from 32-bit halves, whose products fit a
    uint64: hi = xh mh + carries of xl ml, xl mh and xh ml.  `scratch`
    holds three arrays of x's shape.
    """
    lo, t, u = scratch
    mul_lo, mul_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    np.bitwise_and(x, _LO32, out=lo)
    np.multiply(lo, mul_lo, out=t)
    t >>= _HALF
    np.multiply(lo, mul_hi, out=u)
    t += u                              # xl mh + (xl ml >> 32) < 2^64
    np.right_shift(x, _HALF, out=lo)
    np.bitwise_and(t, _LO32, out=u)
    np.multiply(lo, mul_lo, out=out)
    u += out                            # xh ml + (t mod 2^32) < 2^64
    np.multiply(lo, mul_hi, out=out)
    t >>= _HALF
    out += t
    u >>= _HALF
    out += u


def _philox_words(seed: int, start: int, stop: int, words: int) -> np.ndarray:
    """The first `words` Philox4x64-10 outputs of replicates start..stop-1,
    as rows, rounded up to whole blocks of four.

    Replicate i's stream is keyed by (seed, i); its word j is lane j % 4 of
    the block with counter (j // 4 + 1, 0, 0, 0), as numpy's Philox makes
    them.  All blocks go through the ten rounds together, each lane in one
    (blocks, rows) array, so every multiplier is a scalar.  Rows run along
    the last axis, and so does the per-row key word; the seed's key word is
    one Python int a round, as a uint64 scalar would warn when it wraps.
    """
    rows, blocks = stop - start, -(-words // 4)
    mul0, mul1 = _PHILOX_MUL
    # round 0 meets x = (counter, 0, 0, 0), so the counters' products with
    # M0, as Python ints, give (k0, 0, hi(counter M0) ^ k1, lo(counter M0))
    k1 = np.arange(start, stop, dtype=np.uint64)
    products = [counter * mul0 for counter in range(1, blocks + 1)]
    x0 = np.full((blocks, rows), seed, dtype=np.uint64)
    x1 = np.zeros_like(x0)
    x2 = np.array([p >> 64 for p in products], dtype=np.uint64)[:, None] ^ k1
    x3 = np.empty_like(x0)
    x3[...] = np.array([p % 2**64 for p in products], dtype=np.uint64)[:, None]
    hi, *scratch = (np.empty_like(x0) for _ in range(4))
    for rnd in range(1, 10):
        k1 += np.uint64(_PHILOX_BUMP[1])
        # (x0, x1, x2, x3) <- (hi(x2 M1) ^ x1 ^ k0, lo(x2 M1), hi(x0 M0) ^ x3 ^ k1, lo(x0 M0))
        _mulhi(x0, mul0, hi, scratch)
        x0 *= np.uint64(mul0)
        x3 ^= hi
        x3 ^= k1
        _mulhi(x2, mul1, hi, scratch)
        x2 *= np.uint64(mul1)
        x1 ^= hi
        x1 ^= np.uint64((seed + rnd * _PHILOX_BUMP[0]) % 2**64)
        x0, x1, x2, x3 = x1, x2, x3, x0
    del hi, scratch  # freed before the words are laid out, which lowers the peak
    out = np.empty((rows, blocks, 4), dtype=np.uint64)
    for lane, x in enumerate((x0, x1, x2, x3)):
        out[..., lane] = x.T
    return out.reshape(rows, 4 * blocks)


def _philox_plan(m: int, n: int) -> tuple:
    """(bits, threshold, words) of a draw of m values in [1, n].

    numpy takes one 32-bit half of a Philox word per value when n <= 2^32,
    else one whole word, and rejects a half or word u when u n mod 2^bits
    falls below the threshold (2^bits - n) mod n.  `words` is how many
    Philox words a row's m values take when none is rejected.
    """
    bits = 32 if n <= 2**32 else 64
    return bits, (2**bits - n) % n, -(-m * bits // 64)


def _bounded_map(w: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Map Philox words to values in [1, n] as numpy's bounded draws do
    (Lemire, ACM TOMACS 2019); returns the rows that hold a rejected draw.

    w holds a row's words a row, out (int64) a row's values; half or word u
    gives (u n >> bits) + 1 and is rejected when u n mod 2^bits falls below
    the threshold (`_philox_plan`).  numpy would draw again there, shifting
    every later value of the row, so those rows are wrong here and must be
    redrawn.  The test overwrites w.
    """
    m = out.shape[1]
    bits, threshold, _ = _philox_plan(m, n)
    u = out.view(np.uint64)
    if bits == 32:
        low = w.astype("<u8", copy=False).view("<u4")[:, :m]  # the halves, low half first
        np.multiply(low, np.uint64(n), dtype=np.uint64, out=u)
        u >>= _HALF
    else:
        low = w[:, :m]
        _mulhi(low, n, u, [np.empty_like(u) for _ in range(3)])
    u += np.uint64(1)
    if not threshold:
        return np.empty(0, dtype=np.intp)
    # u n mod 2^bits in place of u; dtype= keeps the product in that width on
    # numpy 1.x too, whose value-based casting would otherwise widen it
    np.multiply(low, low.dtype.type(n % 2**bits), dtype=low.dtype, out=low)
    rows = np.flatnonzero(low < threshold) // m
    return rows[np.diff(rows, prepend=-1) > 0]  # np.unique would import numpy.ma, 15 ms


def _pass_rows(per_row: int) -> int:
    """Rows a pass takes when each of its arrays holds per_row elements a
    row: those that hold at most _BLOCK_ELEMENTS / 4 elements."""
    return max(1, _BLOCK_ELEMENTS // (4 * per_row))


def _raw_passes(config: SampleConfig, start: int, stop: int):
    """(lo, hi, w) for each pass over replicates start..stop-1: w holds the
    Philox words rows lo..hi-1 take when none is rejected, a row at a time
    from numpy's own Philox re-keyed per row (`_rekeyed_philox`)."""
    words = _philox_plan(config.m, config.n)[2]
    bitgen, rekey = _rekeyed_philox(config.master_seed)
    step = _pass_rows(words)
    for lo in range(start, stop, step):
        w = np.empty((min(step, stop - lo), words), dtype=np.uint64)
        for row in range(w.shape[0]):
            rekey(lo + row)
            w[row] = bitgen.random_raw(words)
        yield lo, lo + w.shape[0], w


def _philox_passes(config: SampleConfig, start: int, stop: int):
    """(lo, hi, w) as `_raw_passes` gives them, from numpy array rounds over
    all rows of a pass at once (`_philox_words`)."""
    words = _philox_plan(config.m, config.n)[2]
    step = _pass_rows(-(-words // 4))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        yield lo, hi, _philox_words(config.master_seed, lo, hi, words)


def _draw_mapped(config: SampleConfig, start: int, stop: int, passes) -> np.ndarray:
    """Samples of replicates start..stop-1 as rows, mapped by `_bounded_map`
    from the words of `passes` (`_raw_passes` or `_philox_passes`); rows
    with a rejected draw are redrawn by `_draw_rows`."""
    out = np.empty((stop - start, config.m), dtype=np.int64)
    for lo, hi, w in passes(config, start, stop):
        redo = _bounded_map(w, config.n, out[lo - start : hi - start])
        if redo.size:
            out[redo + (lo - start)] = _draw_rows(config, (redo + lo).tolist())
    return out


# Route costs in ns, from weighted least-squares fits through the best
# times of each route on the grid of BENCH_sampler_routes.json, numpy 2.4.6
# on one core of a 2-vCPU Intel Xeon.  Per-row: 8.5 us a row plus 9.4 ns a
# value.  Raw words: 1.7 us a row plus 9.7 ns a word, and 51 us a pass.
# Array rounds: 154 ns a block of four words, and 298 us a pass.  Both
# mapped routes add a per-row redraw of each row with a rejected draw.
_ROW_NS = 8_500
_ROW_VALUE_NS = 9.4
_RAW_ROW_NS = 1_700
_RAW_WORD_NS = 9.7
_RAW_PASS_NS = 51_000
_LANE_BLOCK_NS = 154
_LANE_PASS_NS = 298_000


def _draw_route(config: SampleConfig, rows: int) -> str:
    """The cheapest draw route for `rows` rows by the fitted costs: "rows"
    (`_draw_rows` on the whole block), "raw" (`_raw_passes`) or "philox"
    (`_philox_passes`).

    The per-row route pays a Generator call a row plus a little a value.
    Raw words pay a state restore a row plus a little a word, array rounds
    a little a block of four words but much more a pass.  Both mapped
    routes also redraw, on the per-row route, each row that has a rejected
    draw: the share of rows with one among m draws.
    """
    m, n = config.m, config.n
    bits, threshold, words = _philox_plan(m, n)
    blocks = -(-words // 4)
    by_row = rows * (_ROW_NS + _ROW_VALUE_NS * m)
    redrawn = (1 - (1 - threshold / 2**bits) ** m) * by_row
    costs = {
        "rows": by_row,
        "raw": (rows * (_RAW_ROW_NS + _RAW_WORD_NS * words)
                + -(-rows // _pass_rows(words)) * _RAW_PASS_NS + redrawn),
        "philox": (rows * blocks * _LANE_BLOCK_NS
                   + -(-rows // _pass_rows(blocks)) * _LANE_PASS_NS + redrawn),
    }
    return min(costs, key=costs.get)


def _draw_block(config: SampleConfig, start: int, stop: int) -> np.ndarray:
    """Samples of replicates start..stop-1 as rows, each equal to draw_sample.

    Three routes give the same bytes.  `_draw_rows` makes one Generator
    call a row.  The other two map Philox words to values a pass at a time
    (`_bounded_map`) and redraw the rows with a rejected draw by
    `_draw_rows`; they take the words from numpy's own Philox, re-keyed per
    row (`_raw_passes`), or from numpy array rounds over all rows of the
    pass (`_philox_passes`).  The cheapest for the block's m, n and row
    count runs (`_draw_route`).

    The mapped routes reproduce numpy's Philox buffering (four words a
    counter, a 32-bit draw taking the low half of a fresh word first) and
    its bounded map, neither of which numpy promises to keep across feature
    releases.  The route taken depends on a block's row count, and so on
    --workers; test_draw_block_rows_equal_draw_sample compares every route
    with draw_sample and is the gate that keeps results independent of the
    worker count on the installed numpy.
    """
    route = _draw_route(config, stop - start)
    if route == "rows":
        return _draw_rows(config, range(start, stop))
    return _draw_mapped(config, start, stop, _raw_passes if route == "raw" else _philox_passes)


# --- pair gcds: M and N -----------------------------------------------------

def _pair_cut(threshold: float) -> int:
    """Integer cut with gcd > threshold iff gcd > cut, inside [0, 2^63 - 1]."""
    if not threshold < INT64_MAX:  # also NaN: no gcd exceeds it
        return INT64_MAX
    return max(math.floor(threshold), 0)


# Route costs in ns, from least-squares fits through median times of each
# route, numpy 2.4.6 on one core of a 2-vCPU Intel Xeon.  Pair route (m =
# 8..300, 1..8192 rows, n = 100..2^62): 5.8 us a numpy step plus 4.2 ns
# (int32) or 4.6 ns (int64) a pair per bit of n.  Cofactor routes (m =
# 8..100, 1..8192 rows, n = 1000..2^22): 36 ns a value for the sort, and a
# band 52 us plus 4.2 us a cofactor u, 1.65 ns a value scanned and 36 ns a
# key.  With these, the benchmark's M and N blocks take the cofactor route
# and 32-row blocks of M at n = m^3 the pair route.
_PAIR_STEP_NS = 5_800
_GCD_BIT_NS = (4.2, 4.6)
_SORT_NS = 36
_BAND_NS = 52_000
_BAND_U_NS = 4_200
_SCAN_NS = 1.65
_KEY_NS = 36

# `_cofactor_max` drops finished rows' values, a gather of every value held,
# only once they pass this share of those held (chosen in BENCH_m_walk.json)
_DROP_SHARE = 0.25


def _pair_cost(rows: int, m: int, n: int) -> float:
    """Estimated ns of `_pair_route`: a numpy step per value, and Euclid's
    divisions, about one per bit of n, per pair."""
    per_pair = n.bit_length() * _GCD_BIT_NS[n > _INT32_MAX]
    return (m - 1) * _PAIR_STEP_NS + rows * comb(m, 2) * per_pair


def _band_below(hi: int, floor: int) -> int:
    """The low end lo >= floor of the band [lo, hi) of divisors below hi.

    hi/lo is about 1.5, so a band holds about ln 1.5 = 0.4 divisors a
    value; a ratio of 2 took no less time and 0.3 MB more on a block of
    the benchmark's N job.
    """
    return max(floor, hi - max(1, hi // 3))


def _band_cost(values: int, n: int, lo: int, hi: int) -> float:
    """Estimated ns of a band (`_band_divisors` and its keys) on `values` uniform values.

    A value x is scanned once per u with x/u in [lo, hi), about
    x (1/lo - 1/hi) times, and has about ln(hi/lo) divisors there.
    """
    scanned = values * n / 2 * (1 / lo - 1 / hi)
    return (_BAND_NS + n // lo * _BAND_U_NS + scanned * _SCAN_NS
            + values * math.log(hi / lo) * _KEY_NS)


def _cofactor_count_cost(rows: int, m: int, n: int, cut: int) -> float:
    """Estimated ns of `_cofactor_count`: its bands down to cut + 1."""
    cost, hi = rows * m * _SORT_NS, n + 1
    while hi > cut + 1:
        lo = _band_below(hi, cut + 1)
        cost += _band_cost(rows * m, n, lo, hi)
        hi = lo
    return cost


def _cofactor_max_cost(rows: int, m: int, n: int) -> float:
    """Estimated ns of `_cofactor_max`, its rows dropping out as the limit
    law of M predicts: P(M < lo) ~ exp(-C(m,2) / (zeta(2) lo)).

    The walk stops, as `_cofactor_max` does, where a band costs more than
    the pair gcds of the rows still in it.
    """
    scale = comb(m, 2) * 6 / math.pi**2
    cost, hi = rows * m * _SORT_NS, n + 1
    while hi > 1:
        active = rows * math.exp(-scale / hi)
        lo = _band_below(hi, 1)
        band = _band_cost(active * m, n, lo, hi)
        if band > _pair_cost(active, m, n):
            return cost + _pair_cost(active, m, n)
        cost += band
        hi = lo
    return cost


def _pair_route(xs: np.ndarray, cut: int | None = None) -> np.ndarray:
    """Per row of xs, the largest pair gcd, or given `cut` the number of
    pairs whose gcd exceeds it, from np.gcd over the C(m,2) pairs.

    The upper triangle is taken a row at a time, gcd(x_i, x_{i+1..m}), so
    one numpy call holds fewer than xs.size gcds.  int32 division is faster
    than int64 and exact when every value fits.
    """
    out = np.zeros(xs.shape[0], dtype=np.int64)
    if xs.max() <= _INT32_MAX:
        xs = xs.astype(np.int32)
    for i in range(xs.shape[1] - 1):
        g = np.gcd(xs[:, i : i + 1], xs[:, i + 1 :])
        if cut is None:
            np.maximum(out, g.max(axis=1), out=out)
        else:
            out += np.count_nonzero(g > cut, axis=1)
    return out


def _sorted_values(xs: np.ndarray, n: int) -> tuple:
    """The block's values in ascending order, and the flat position of each.

    One int64 sort of value * size + position orders both; the values are
    int32 when every value, every bound up to n + 1 and every position fits.
    """
    size = xs.size
    values = np.empty(size, dtype=np.int32 if max(n, size) < _INT32_MAX else np.int64)
    pos = np.arange(size, dtype=np.int32 if size <= _INT32_MAX else np.int64)
    key = xs.ravel() * size
    key += pos
    key.sort()
    np.floor_divide(key, size, out=values)
    np.remainder(key, size, out=pos)
    return values, pos


def _band_divisors(values: np.ndarray, n: int, lo: int, hi: int) -> tuple:
    """Every divisor d in [lo, hi) of every value, as (idx, d): the index of
    its value in `values` (from `_sorted_values`, or a subset of them) and
    d, both in the values' dtype.

    x has the divisor d = x/u in [lo, hi) exactly when u divides x and x
    lies in [u lo, u hi): a slice of the sorted values, for u = 1..n//lo.
    One floor_divide by the scalar u finds the slice's multiples of u.
    """
    us = np.arange(1, n // lo + 1, dtype=np.int64)
    starts = values.searchsorted(np.minimum(us * lo, n + 1).astype(values.dtype))
    stops = values.searchsorted(np.minimum(us * hi, n + 1).astype(values.dtype))
    hits, found = [], []
    for u, a, b in zip(us.tolist(), starts.tolist(), stops.tolist()):
        if a < b:
            x = values[a:b]
            hit = (x // u * u == x).nonzero()[0]
            if hit.size:
                hits.append(hit)
                found.append((u, a, hit.size))
    if not hits:
        return np.empty(0, dtype=values.dtype), np.empty(0, dtype=values.dtype)
    # a band has about ln(hi/lo) < 1 divisor a value: build the arrays one
    # at a time, in the values' dtype, to hold few bytes per block value
    u, a, size = np.array(found, dtype=values.dtype).T
    idx = np.concatenate(hits, dtype=values.dtype, casting="same_kind")
    del hits
    idx += np.repeat(a, size)
    d = values[idx]
    d //= np.repeat(u, size)
    return idx, d


def _shared_pairs(keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """Codes (row m + i) m + j, i < j, of the pairs whose keys share a (row, d)."""
    group = keys // m
    same = group[1:] == group[:-1]
    both = np.zeros(keys.size, dtype=bool)
    both[1:] = same
    both[:-1] |= same
    group, col = group[both], keys[both] % m
    codes = []
    # within a group the columns ascend; pair each key with the keys k after it
    for k in range(1, group.size):
        j = (group[k:] == group[:-k]).nonzero()[0]
        if not j.size:
            break
        codes.append((group[j] // (n + 1) * m + col[j]) * m + col[j + k])
    return np.concatenate(codes) if codes else np.empty(0, dtype=np.int64)


def _cofactor_count(xs: np.ndarray, n: int, cut: int) -> np.ndarray:
    """Per row, the number of pairs sharing a divisor above cut.

    Bands [lo, hi) of d, from the top down to cut + 1, keep each band's
    keys below the block's value count; a pair that shares divisors in
    several bands is counted once.
    """
    rows, m = xs.shape
    values, pos = _sorted_values(xs, n)
    codes = []
    hi = n + 1
    while hi > cut + 1:
        lo = _band_below(hi, cut + 1)
        idx, d = _band_divisors(values, n, lo, hi)
        keys = pos[idx].astype(np.int64)
        del idx
        col = np.remainder(keys, m, out=np.empty(keys.size, dtype=pos.dtype))
        keys //= m
        keys *= n + 1
        keys += d
        keys *= m
        keys += col
        del d, col
        keys.sort()
        codes.append(_shared_pairs(keys, m, n))
        del keys
        hi = lo
    codes = np.sort(np.concatenate(codes)) if codes else np.empty(0, dtype=np.int64)
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return np.bincount(codes[first] // (m * m), minlength=rows)


def _cofactor_max(xs: np.ndarray, n: int) -> np.ndarray:
    """Per row, the largest pair gcd: the largest d that divides two values.

    Bands [lo, hi) of d run from the top down; a key row (n+1) + d met twice
    is a d shared in a row.  After a band every divisor >= lo of every value
    is known, so the first band in which a row has a shared d gives its
    largest one, and later bands leave it.  The rows left when a band would
    cost more than their pair gcds finish on the pair route.
    """
    rows, m = xs.shape
    values, row = _sorted_values(xs, n)
    row //= m  # positions to rows: no column is needed
    out = np.zeros(rows, dtype=np.int64)
    hi, live = n + 1, rows
    while live:
        lo = _band_below(hi, 1)
        if _band_cost(values.size, n, lo, hi) > _pair_cost(live, m, n):
            left = (out == 0).nonzero()[0]
            out[left] = _pair_route(xs[left])
            break
        idx, d = _band_divisors(values, n, lo, hi)
        keys = row[idx].astype(np.int64)
        del idx
        keys *= n + 1
        keys += d
        keys.sort()
        shared = keys[1:][keys[1:] == keys[:-1]]
        found = shared // (n + 1)
        # keys ascend: a row's last shared key is its largest d; found rows keep theirs
        new = out[found] == 0
        new[:-1] &= found[1:] != found[:-1]
        out[found[new]] = shared[new] % (n + 1)
        live -= int(np.count_nonzero(new))
        if values.size - live * m > _DROP_SHARE * values.size:
            keep = (out == 0)[row]
            values, row = values[keep], row[keep]
        hi = lo
    return out


def _pair_gcd_reduce(xs: np.ndarray, cut: int | None = None) -> np.ndarray:
    """Per row of xs, the largest pair gcd, or given `cut` the number of
    pairs whose gcd exceeds it.

    Two routes give the same integers.  The pair route runs np.gcd over
    the C(m,2) pairs.  The cofactor route finds the large gcds only: a
    pair gcd g > T means both values are g times a cofactor u <= n/T, so a
    floor_divide by each small u lists every divisor above T of every value
    (`_band_divisors`).  N keys them (row (n+1) + d) m + col, M row (n+1) + d,
    and a (row, d) met twice is a shared divisor.  The cheaper route for the
    block's m, n, row count and cut runs.  Keys are int64, so blocks where
    they could overflow take the pair route.
    """
    rows, m = xs.shape
    if m < 2:
        return np.zeros(rows, dtype=np.int64)
    n = int(xs.max())
    if xs.size * (n + 1) <= INT64_MAX:
        if cut is None:
            if _cofactor_max_cost(rows, m, n) < _pair_cost(rows, m, n):
                return _cofactor_max(xs, n)
        elif _cofactor_count_cost(rows, m, n, cut) < _pair_cost(rows, m, n):
            return _cofactor_count(xs, n, cut)
    return _pair_route(xs, cut)


def _sample_row(sample) -> np.ndarray:
    """The sample of a scalar statistic as int64, or a ValueError before any work
    unless it is a non-empty 1-D array of integers in 1..2^63 - 1."""
    x = np.asarray(sample)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"a sample must be a non-empty 1-D array, got shape {x.shape}")
    if x.dtype.kind not in "iu" or x.min() < 1 or x.max() > INT64_MAX:
        raise ValueError("sample values must be integers in 1..2^63 - 1")
    return x.astype(np.int64, copy=False)


def stat_M(sample) -> int:
    """Maximum gcd over the pairs of the sample (values below 2^63)."""
    x = _sample_row(sample)
    if x.size < 2:
        raise ValueError("stat_M needs at least two sample values")
    return int(_pair_gcd_reduce(x[None, :])[0])


def poisson_count(sample, threshold: float) -> int:
    """Number of unordered pairs with gcd strictly above `threshold`."""
    return int(_pair_gcd_reduce(_sample_row(sample)[None, :], _pair_cut(threshold))[0])


# --- divisor multiplicities: C and Z -----------------------------------------

def _binom(cnt: np.ndarray, r: int) -> np.ndarray:
    """C(cnt, r) elementwise, in cnt's dtype, read from a table of C(k, r).

    The table runs over k = 0..max cnt.  Step i turns C(k, i-1) into
    C(k, i) = C(k, i-1) (k-i+1) / i, an exact division whose dividend is
    at most k^i.
    """
    k = np.arange(int(cnt.max()) + 1).astype(cnt.dtype)
    table = k.copy()
    for i in range(2, r + 1):
        k -= 1
        table *= k
        table //= i
    return table[cnt.astype(np.intp, copy=False)]


def _dense_route(xs: np.ndarray, r: int, g, dtype, primes) -> np.ndarray:
    """Per row, sum_{d <= n} g(d) C(cnt(d), r) from an (n+1, B) count matrix.

    g holds the weights g(0..n), `dtype` is the result's width and `primes`
    the primes up to n.  Column b of the matrix is row b of xs: one bincount
    over the keys x B + b gives each row's value frequencies, and
    `sum_over_multiples` down each column turns them into cnt(d).
    """
    rows, n = xs.shape[0], g.size - 1
    keys = xs * rows
    keys += np.arange(rows)[:, None]
    cnt = np.bincount(keys.ravel(), minlength=(n + 1) * rows).reshape(n + 1, rows)
    del keys  # freed before `_binom` allocates, which lowers the peak
    sum_over_multiples(cnt, primes)
    return g @ _binom(cnt.astype(dtype, copy=False), r)


def _sparse_route(xs: np.ndarray, r: int, q: int | None) -> np.ndarray:
    """Per row, sum_d w(d) C(cnt(d), r) over the divisors its values have.

    The block's distinct values are expanded once into their divisors of
    nonzero weight (`weighted_divisors`, which factorises them all at once),
    and each occurrence of a value takes its value's run of them.  One key
    per (row, divisor) occurrence; a sort and the starts of its runs of
    equal keys count them into cnt, and reduceat sums each row's terms.
    """
    rows, m = xs.shape
    vals, inv = np.unique(xs.ravel(), return_inverse=True)
    local = mobius_local if q is None else totient_local(q)
    # |mu(d)| <= 1, and phi_q(d) <= d^q for d up to the largest value
    owner, divs, weights = weighted_divisors(
        vals, local, int_dtype(1 if q is None else int(vals[-1]) ** q))
    dvals, at, div_id = np.unique(divs, return_index=True, return_inverse=True)
    w = weights[at]
    w = w.astype(int_dtype(int(exact._block_sums(np.abs(w), [0], 1)[0]) * m**r))

    pos, per_elem = run_positions(np.bincount(owner, minlength=vals.size), inv)
    keys = np.repeat(np.arange(rows * m) // m * dvals.size, per_elem)  # row D + divisor id
    keys += div_id[pos]
    del pos  # freed before the sort, which lowers the peak
    keys.sort()
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    keys, cnt = keys[first], np.diff(first, append=keys.size)
    terms = _binom(cnt.astype(w.dtype, copy=False), r) * w[keys % dvals.size]
    # every row holds divisor 1 (weight 1), so every row has a key
    row_starts = np.flatnonzero(np.diff(keys // dvals.size, prepend=-1))
    return np.add.reduceat(terms, row_starts)


def _divisor_total(n: int) -> int:
    """D(n) = sum_{k<=n} tau(k) = 2 sum_{j<=s} floor(n/j) - s^2, s = isqrt(n)."""
    s = math.isqrt(n)
    return 2 * int((n // np.arange(1, s + 1)).sum()) - s * s


def _route_costs(n: int) -> tuple[int, int]:
    """The terms of the C/Z route rule from n alone, which a run takes once: the
    cells n + 1 + sum_{p <= n} floor(n/p) the dense sweep touches a row (which
    sieve the primes to n), and D(n)."""
    return n + 1 + int((n // primes_up_to(n)).sum()), _divisor_total(n)


def _dense_is_cheaper(rows: int, size: int, n: int, cells: int, divisors: int) -> bool:
    """The C/Z route rule: `cells` dense cells a row against the D log2 D sort
    comparisons of D = size D(n) / n keys, the block's expected divisor count."""
    count = size * divisors / n
    return rows * cells <= count * math.log2(count)


def _weight(n: int, q: int | None, sieved: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """(g, sum_d |g(d)|): the weight of order q on 0..n and the sum that bounds
    the dense route's sums.  g is sieved, unless `sieved` holds the weight
    on 0..n or further, whose head it is then."""
    g = exact.sieve_weight(n, q) if sieved is None else sieved[: n + 1]
    return g, int(exact._block_sums(np.abs(g), [0], 1)[0])


def _lone_costs(rows: int, size: int, n: int) -> tuple[int, int] | None:
    """`_route_costs(n)` for a block that brings none, when the dense route
    could win there: never past DEFAULT_MAX_N, and not when rows (n + 1), a
    lower bound on its cells, already loses, so no prime is sieved to n."""
    if n <= DEFAULT_MAX_N and _dense_is_cheaper(rows, size, n, n + 1, _divisor_total(n)):
        return _route_costs(n)
    return None


def _subset_weighted_block(xs: np.ndarray, r: int, q: int | None, n: int,
                           costs: tuple[int, int] | None = None,
                           weight: tuple[np.ndarray, int] | None = None) -> np.ndarray:
    """Exact C (q None) or Z with exponent q of every row of xs, values in 1..n.

    Both are sum_d w(d) C(cnt(d), r), with w = mu or phi_q and
    cnt(d) = #{i : d | x_i} in the row.  The cheaper route by
    `_dense_is_cheaper` runs, on costs `_route_costs(n)`; the dense route
    reads weight, `_weight(n, q)`.  A run passes both, taken once.  A lone
    sample passes neither, and each is taken only when the rule reads it:
    none past DEFAULT_MAX_N, where no weight is sieved and the values run
    sparse up to DEFAULT_MAX_N^2; the costs only when rows (n + 1), a lower
    bound on the cells, does not already lose; the weight on the dense route.
    Dense blocks hold at most _BLOCK_ELEMENTS cells.
    With cnt <= m, every C(cnt, r), `_binom` intermediate and term
    w(d) C(cnt(d), r) is at most |w(d)| m^r, so m^r sum_d |w(d)| over the
    weights a route reads (all of g dense, the block's divisors' sparse)
    bounds each row's sum and partial sums, and sets the result's width.
    """
    rows, m = xs.shape
    if costs is None:
        costs = _lone_costs(rows, xs.size, n)
    if costs and _dense_is_cheaper(rows, xs.size, n, *costs):
        g, weight_sum = weight or _weight(n, q)
        primes = primes_up_to(n).tolist()
        dtype = int_dtype(weight_sum * m**r)
        step = max(1, _BLOCK_ELEMENTS // (n + 1))
        return np.concatenate([_dense_route(xs[lo : lo + step], r, g, dtype, primes)
                               for lo in range(0, rows, step)])
    return _sparse_route(xs, r, q)


def _lone_sum(sample, r: int, q: int | None) -> int:
    """C (q None) or Z with exponent q of one sample, n its largest value."""
    x = _sample_row(sample)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return int(_subset_weighted_block(x[None, :], r, q, int(x.max()))[0])


def stat_C(sample, r: int) -> int:
    """Number of r-subsets of the sample whose gcd is exactly 1."""
    return _lone_sum(sample, r, None)


def stat_Z(sample, r: int, q: int) -> int:
    """Sum of gcd^q over all r-subsets of the sample."""
    if q is None or q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _lone_sum(sample, r, q)


# --- replicate running -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Replicates:
    """The raw statistic of replicates 0..R-1, in replicate order, its limit
    law, and the normalisation (raw - shift) / scale that its statistic fixes.

    C and Z shift and scale by their exact mean and standard deviation and
    tend to the standard normal.  M scales by C(m,2) and tends to the
    Frechet law of scale 1/zeta(2).  N(t) is left as it is and tends to the
    Poisson law of rate 1/(t zeta(2)), which exists only for 0 < t < inf;
    at any other t law is None.  The CSV rows and `summary` are all read
    from this one record.  raw is a read-only array whose width is
    `arith.int_dtype` of the statistic's bound (`_raw_dtype`).
    Records hold arrays, so they have no value equality; compare their fields.
    """

    raw: np.ndarray
    law: stattest.ReferenceLaw | None
    shift: float = 0
    scale: float = 1

    @cached_property
    def normalized(self) -> np.ndarray:
        """(raw - shift) / scale as a read-only float64 array, in replicate order."""
        try:
            out = self.raw.astype(np.float64)
        except OverflowError:
            raise exact.FloatRangeError("a raw replicate value overflows a float") from None
        out -= self.shift
        out /= self.scale
        out.flags.writeable = False
        return out

    def summary(self) -> dict:
        """The law, the replicates' mean and sd, and their distance to the law.

        A Poisson law is compared with the raw counts by TV distance, with
        exact integer moments, both from one count of the distinct values.
        A continuous law is compared with the normalized values by KS
        distance, with np.mean and np.std, all three on one sorted copy:
        np.mean sums pairwise, so the order of the values would show in its
        last bits.
        """
        law = self.law
        if law is None:
            raise ValueError("N(t) has a Poisson limit law only for 0 < t < inf")
        if law.kind == "poisson":
            counts = np.unique(self.raw, return_counts=True)
            distance = {"tv": stattest.tv_distance(self.raw, law, counts)}
            mean, sd = stattest.integer_moments(self.raw, counts)
        else:
            values = np.sort(self.normalized)
            distance = {"ks": stattest.ks_distance(values, law)}
            mean, sd = float(np.mean(values)), float(np.std(values))
        return {"law": asdict(law), "mean": mean, "sd": sd, "distance": distance}

    def write_csv(self, fh) -> None:
        """Write the stable CSV of the replicates to the text stream fh:
        header, LF endings, repr floats.

        normalized is a function of raw alone, so the `,raw,normalized` tail
        of a row is formatted once per distinct raw value and then reused.
        Rows are formatted and written _CSV_ROWS at a time, and the tail
        cache is emptied once it passes _CSV_ROWS entries, so at most the
        text of two chunks is held, however many values are distinct.
        """
        normalized, tails = self.normalized, {}  # any error surfaces before a byte is written
        fh.write("index,raw,normalized\n")
        for lo in range(0, self.raw.size, _CSV_ROWS):
            if len(tails) > _CSV_ROWS:
                tails.clear()
            rows = zip(itertools.count(lo), self.raw[lo : lo + _CSV_ROWS].tolist(),
                       normalized[lo : lo + _CSV_ROWS].tolist())
            fh.write("".join(str(i) + (tails.get(v) or tails.setdefault(v, f",{v},{x!r}\n"))
                             for i, v, x in rows))


_STATISTICS = ("C", "Z", "M", "N")

# the name a run manifest gives the normalisation `run_replicates` applies
NORMALIZATION_NAMES = {"C": "exact-moments", "Z": "exact-moments",
                       "M": "frechet-scale", "N": "none"}

# worker context inherited over fork; set immediately before pool creation
_SIM_CTX = {}


def _raw_dtype(config: SampleConfig, statistic: str):
    """The width of the statistic's closed-form bound (`arith.int_dtype`).

    C counts r-subsets, Z adds at most n^q for each, M is a gcd of values
    up to n, and N counts pairs.
    """
    if statistic == "M":
        bound = config.n
    elif statistic == "N":
        bound = comb(config.m, 2)
    else:
        bound = comb(config.m, config.r) * (config.n**config.q if statistic == "Z" else 1)
    return int_dtype(bound)


def _raws_in_range(config: SampleConfig, statistic: str, weight, costs, threshold: float,
                   start: int, stop: int) -> np.ndarray:
    """Raw statistic of replicates start..stop-1, a block of samples at a time.

    weight is `_weight(n, q)` of C or Z and costs `_route_costs(n)`, both
    None for M and N.  Blocks fill one `_raw_dtype` array.
    """
    per_block = max(1, _BLOCK_ELEMENTS // config.m)
    cut = _pair_cut(threshold)
    try:
        raws = np.empty(stop - start, dtype=_raw_dtype(config, statistic))
    except ValueError:  # numpy's size check: more bytes than an address space holds
        raise MemoryError(f"{stop - start} replicates exceed the address space") from None
    for lo in range(start, stop, per_block):
        hi = min(lo + per_block, stop)
        xs = _draw_block(config, lo, hi)
        if statistic in ("M", "N"):
            block = _pair_gcd_reduce(xs, None if statistic == "M" else cut)
        else:
            q = None if statistic == "C" else config.q
            block = _subset_weighted_block(xs, config.r, q, config.n, costs, weight)
        raws[lo - start : hi - start] = block
    return raws


def _sim_chunk(bounds):
    return _raws_in_range(_SIM_CTX["config"], _SIM_CTX["statistic"], _SIM_CTX["weight"],
                          _SIM_CTX["costs"], _SIM_CTX["threshold"], *bounds)


def _fork_pool(processes: int):
    """A pool of `processes` worker processes started by fork.

    The pool stack (concurrent.futures, multiprocessing) is imported here,
    on the first pool, so a run that never forks never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(max_workers=processes, mp_context=get_context("fork"))


def _raw_replicates(config, statistic, weight, costs, threshold, workers) -> np.ndarray:
    """Raw values of all replicates in replicate order, each computed once.

    Workers take contiguous index ranges, so the values do not depend on
    the worker count.  The fork context starts every pool process up
    front, so the pool has no more processes than ranges or CPUs, and the
    workers inherit the weight and route costs taken here.  One worker
    runs in this process, and loads no pool (`_fork_pool`).
    """
    total = config.replicates
    if workers <= 1:
        return _raws_in_range(config, statistic, weight, costs, threshold, 0, total)
    _SIM_CTX.update(config=config, statistic=statistic, weight=weight, costs=costs,
                    threshold=threshold)
    chunk = max(1, math.ceil(total / (workers * 4)))
    bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    processes = min(workers, len(bounds), os.cpu_count() or 1)
    with _fork_pool(processes) as ex:
        return np.concatenate(list(ex.map(_sim_chunk, bounds)))


def exact_moments(config: SampleConfig, statistic: str, g: np.ndarray):
    """(mean, sd) of the statistic from the exact closed formulas, with g its
    weight on 0..n, `exact.sieve_weight(n, q)`: q None for C, config.q for Z."""
    m, n, r = config.m, config.n, config.r
    if statistic not in ("C", "Z"):
        raise ValueError(f"exact moments only exist for C and Z, got {statistic!r}")
    q = None if statistic == "C" else config.q
    kernel_mean, var = exact.u_statistic_moments(g, n, m, r, q)
    mean, var = comb(m, r) * kernel_mean.float_value, var.float_value
    if var == 0:
        # n = 1: every gcd is 1, so the statistic is a constant
        raise ValueError(f"{statistic} has zero variance at n={n}, m={m}, r={r}; "
                         f"exact-moment normalization is undefined")
    return mean, math.sqrt(var)


def run_replicates(config: SampleConfig, statistic: str, t: float = 1.0,
                   workers: int = 1) -> Replicates:
    """R replicate values of one statistic, with the normalisation and the
    limit law it fixes.

    C and Z sieve their weight, mu or phi_q, to n once, for the exact
    moments and the replicates alike, and take its sum and the
    `_route_costs` once; M and N sieve nothing.  N(t) has a limit law only
    for 0 < t < inf; at any other t its counts still run, with none.  Each
    replicate is drawn and evaluated once.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"statistic must be one of {_STATISTICS}, got {statistic!r}")
    weight, costs, shift, scale, law = None, None, 0, 1, None
    if statistic in ("C", "Z"):
        q = None if statistic == "C" else config.q
        if q is not None:  # Var Z >= n^(2q-r) / 8 (`exact.var_Z`), checked before the sieve
            exact._refuse_past_float(config.n, 2 * q - config.r, 3)
        weight = _weight(config.n, q)
        costs = _route_costs(config.n)
        shift, scale = exact_moments(config, statistic, weight[0])
        law = stattest.ReferenceLaw.normal()
    elif statistic == "M":
        scale = comb(config.m, 2)
        law = stattest.ReferenceLaw.frechet(1 / constants.zeta(2))
    elif 0 < t < math.inf:
        law = stattest.ReferenceLaw.poisson(1 / (t * constants.zeta(2)))
    raws = _raw_replicates(config, statistic, weight, costs, t * comb(config.m, 2), workers)
    raws.flags.writeable = False
    return Replicates(raws, law, shift, scale)


def strong_law_trajectory(n: int, r: int, m_grid, seed: int) -> np.ndarray:
    """C_{m,r} / E C_{m,r} along one growing realization, at the grid points.

    The same stream is extended as m grows (values are reused), so the
    trajectory is a single realization of the almost-sure limit statement.
    It is replicate 0 of a SampleConfig, so r >= 2 as there; each prefix
    is a lone sample, n its largest value (`_subset_weighted_block`).  The
    route of every prefix is picked first, and mu is sieved once, to the
    largest value of the longest dense prefix, whose heads serve the rest.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    grid = [int(v) for v in m_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    if grid[0] < r:
        raise ValueError(f"grid starts below r={r}")
    # replicate 0 of a one-replicate config: the stream keyed by (seed, 0)
    config = SampleConfig(m=grid[-1], n=n, r=r, master_seed=seed)
    xs = _draw_block(config, 0, 1)
    tops = np.maximum.accumulate(xs[0])[np.array(grid) - 1].tolist()
    costs = [_lone_costs(1, m, top) for m, top in zip(grid, tops)]
    dense = [c is not None and _dense_is_cheaper(1, m, top, *c)
             for m, top, c in zip(grid, tops, costs)]
    dense_tops = [top for top, d in zip(tops, dense) if d]
    sieved = exact.sieve_weight(dense_tops[-1], None) if dense_tops else None
    mean_single = exact.mean_mu(n, r - 1).float_value
    return np.array([_subset_weighted_block(xs[:, :m], r, None, top, c,
                                            _weight(top, None, sieved) if d else None)[0]
                     / (comb(m, r) * mean_single)
                     for m, top, c, d in zip(grid, tops, costs, dense)])
