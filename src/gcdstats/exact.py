"""Exact finite-n gcd statistics for uniform samples from {1..n}.

Everything here evaluates closed formulas of the form

    E F(gcd(X_1..X_r)) = (1/n^r) sum_{j<=n} (mu*F)(j) floor(n/j)^r

and its marginal variant over divisors of a pinned value k, together with
the derived means, variances and U-statistic covariances.  All results are
exact rationals: an integer numerator over a structural power of n.
A kernel is named by its weight alone, q: None for g = mu (the
coprimality indicator, behind C and U_r) and q >= 1 for g = phi_q (gcd^q,
behind Z, and W_r at q = 1).

One numpy kernel (`_floor_power_sums`) evaluates such a floor sum against
exact prefix sums for a whole array of upper limits v at once, each by
Dirichlet's hyperbola split into O(sqrt v) blocks of constant floor(v/j).
It reads the prefix sums only at the O(sqrt n) floor points of n, from
one floor-indexed form (`_FloorPrefix`).  For g = mu or phi_q, `_summatory`
fills it with no table: g sieved to about n^(2/3) window by window and
summed as it passes, then sum_{d<=x} G(x // d) = sum_{j<=x} (g * 1)(j) at
the O(n^(1/3)) points above.  So the first moments (mean_mu, mean_nu,
gcd_moment) and the gcd pmf and tail cost about O(n^(2/3)) time and
O(sqrt n) memory, up to n = TABLE_FREE_MAX_N (about 1.6e11).

Whole profiles over k = 1..n are divisor sums h(k) = sum_{j|k} w(j),
which `arith.sum_over_divisors` takes in place, prime by prime, in about
n ln ln n adds; each second-order quantity sieves the one weight g = mu
or phi_q it reads to n (`sieve_weight`), once per call.  Shared-variable
covariances reduce to sum_d G_s(d) h(d)^2, with G_s(d) the number of
s-tuples whose gcd is exactly d.  G_s(d) depends on d only through
floor(n/d), so the batched kernel gives it for all O(sqrt n) quotient
blocks (`_quotient_blocks`) in one call, and `_block_sums` gives each
block's sum of h^2; at s = r,
h = g * 1 is known in closed form and needs no profile.  Every integer
array is int64 or Python ints by one rule, `arith.int_dtype`, on a bound
that covers its values and partial sums; the square sums cut int64 values
into limbs.  No n-entry array is turned into a Python list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, log10

import numpy as np

from .arith import (DEFAULT_MAX_N, int_dtype, mobius_local, prefix_sums_at, prime_power_sieve,
                    prime_power_windows, primes_up_to, sum_over_divisors, totient_local)


class FloatRangeError(ValueError):
    """An exact value, or a replicate, too large in magnitude for a float."""


class DigitLimitError(ValueError):
    """An exact numerator with more decimal digits than int-to-str allows."""


def check_digits(numerator: int) -> None:
    """Raise DigitLimitError, before any str(), for a numerator with more decimal
    digits than int-to-str converts (sys.get_int_max_str_digits), a limit that
    a reader's int() of the text keeps too.  A value of b bits is below
    10^(b log10(2)), so only a bit length near the limit is compared further."""
    limit = _digit_limit()
    size = abs(numerator)
    digits = size.bit_length() * log10(2)
    if limit and digits >= limit and size >= 10**limit:
        raise DigitLimitError(f"an exact numerator of about 10^{round(digits)} passes the "
                              f"{limit}-digit limit of int-to-str conversion")


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(), 0 (no limit) before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _refuse_past_digits(bits: int) -> None:
    """Raise DigitLimitError, before any sieve, for a numerator proven to
    exceed 2^bits when 2^bits itself passes the int-to-str digit limit.

    2^bits > 10^limit once bits >= bitlen(10^limit), so the test is in integers.
    """
    limit = _digit_limit()
    if limit and bits >= (10**limit).bit_length():
        raise DigitLimitError(f"an exact numerator of at least 10^{int(bits * log10(2))} "
                              f"passes the {limit}-digit limit of int-to-str conversion")


@dataclass(frozen=True)
class ExactResult:
    """An exact rational value: numerator / n^denom_power.

    Python integers are unbounded, so every value is exact; records keep
    an `"exact": true` field for consumers that distinguish exact from
    degraded results.
    """

    numerator: int
    denom_base: int
    denom_power: int
    float_value: float

    @classmethod
    def from_ratio(cls, numerator: int, base: int, power: int) -> "ExactResult":
        # int / int is correctly rounded, the float of the exact fraction
        numerator = int(numerator)
        try:
            return cls(numerator, base, power, numerator / base**power)
        except OverflowError:
            bits = abs(numerator).bit_length() - (base**power).bit_length()
            raise FloatRangeError(f"an exact value of about 10^{round(bits * log10(2))} "
                                  f"overflows a float") from None

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denom_base**self.denom_power)

    def record(self, quantity: str, **params) -> dict:
        """JSON-ready record with the standard field layout (`check_digits` first)."""
        check_digits(self.numerator)
        return {"quantity": quantity, **params, "value": self.float_value, "exact": True,
                "numerator": str(self.numerator), "denom_base": self.denom_base,
                "denom_power": self.denom_power}


def _refuse_past_float(n: int, power: int, shift: int) -> None:
    """Raise FloatRangeError, before any sieve, for a value proven to be at least
    n^power / 2^shift when that bound is itself past the float range.

    n^power >= 2^(power (bitlen(n) - 1)), so the test is in integers.
    """
    bits = power * (n.bit_length() - 1) - shift
    if n >= 2 and bits >= 1024:
        raise FloatRangeError(f"an exact value of at least 10^{int(bits * log10(2))} "
                              f"overflows a float")


# --- prefix sums at the floor points ---------------------------------------

@dataclass(frozen=True)
class _FloorPrefix:
    """G(x) = sum_{j <= x} g(j) at every point a floor sum for n reads.

    dense[x] = G(x) for x = 0..R, R = isqrt(n), and high[k] = G(n // k)
    for k = 1..n // (R+1) (high[0] is unused).  A floor sum for n reads G
    only at x <= R and at x = n // k, and n // x is then the slot of x in
    high.  peak bounds |g(j)| for j <= n.
    """

    n: int
    dense: np.ndarray
    high: np.ndarray
    peak: int

    def at(self, x: np.ndarray) -> np.ndarray:
        """G at the int64 points x, each at most isqrt(n) or of the form n // k."""
        above = x >= self.dense.size
        out = self.dense[np.where(above, 0, x)].astype(self.high.dtype, copy=False)
        out[above] = self.high[self.n // x[above]]
        return out


def _at_floor_points(prefix, n: int, peak: int) -> _FloorPrefix:
    """The `_FloorPrefix` of G = prefix, a function of an int64 array of points."""
    root = isqrt(n)
    slots = np.arange(n // (root + 1) + 1).clip(1)  # high[0] is unused
    return _FloorPrefix(n, prefix(np.arange(root + 1)), prefix(n // slots), peak)


def _sieve_limit(n: int) -> int:
    """L of `_summatory`: c^2 for c = floor(n^(1/3)), and never below isqrt(n)."""
    c = round(n ** (1 / 3))  # within 1 of the cube root, so one step corrects it
    c -= c**3 > n
    c += (c + 1) ** 3 <= n
    return max(isqrt(n), c * c)


# the largest n whose `_summatory` sieve stays within the table cap
TABLE_FREE_MAX_N = (isqrt(DEFAULT_MAX_N) + 1) ** 3 - 1


def _power_sums(x, q: int):
    """sum_{j <= x} j^q exactly for q >= 1; x an int or an object array of ints.

    Faulhaber's sum through the Stirling numbers S(q, i) of the second kind:
    sum_i S(q, i) (x+1) x .. (x+1-i) / (i+1), each quotient exact.
    """
    row = [1]  # S(0, 0)
    for _ in range(q):
        row = [i * a + b for i, (a, b) in enumerate(zip(row + [0], [0] + row))]
    total, falling = 0, x + 1
    for i, c in enumerate(row):
        if i:
            falling = falling * (x + 1 - i)
        if c:
            total = total + c * (falling // (i + 1))
    return total


def _summatory(n: int, q: int | None) -> _FloorPrefix:
    """The floor-indexed prefix of g = mu (q None) or phi_q for n, with no table.

    g is sieved to L = `_sieve_limit(n)` window by window and summed with a
    carry (`arith.prefix_sums_at`), and G is kept only at the floor points
    of n up to L.  Above L, g * 1 = t (the delta at 1 for mu, j^q for
    phi_q) gives the recursion of Deleglise and Rivat,

        G(x) = T(x) - sum_{2 <= d <= x} G(x // d),   T(x) = sum_{j <= x} t(j),

    with T = 1 for mu and Faulhaber's sum for phi_q.  With K = isqrt(x), the
    d <= x // (K+1) are taken one by one and the others through the count
    x // t - x // (t+1) of d with x // d = t, t = 1..K.  The points x = n // k
    go in ascending x (descending k), so x // d = n // (k d) is high[k d],
    already filled, or at most isqrt(n) in dense: one numpy pass over
    O(sqrt x) entries for each of the O(n^(1/3)) points.  |G(y)| <= peak y
    for peak = max |g(j)|, j <= x (1 for mu, x^q for phi_q), so every sum
    at x is below peak x (1 + bitlen(x)), and those to L below (L+1) peak:
    each bound sets the width its sums are taken in (`arith.int_dtype`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    top, root = _sieve_limit(n), isqrt(n)
    mid, last = n // (root + 1), n // (top + 1)

    def peak(x):
        return 1 if q is None else x**q

    def width(x):  # of every sum at a point x
        return int_dtype(peak(x) * x * (x.bit_length() + 1))

    local = mobius_local if q is None else totient_local(q)
    dtype = np.int8 if q is None else int_dtype(peak(top))
    # 0..isqrt(n), then n // k for k = mid .. last+1: the floor points up to L
    points = np.concatenate((np.arange(root + 1), n // np.arange(mid, last, -1)))
    sums = prefix_sums_at(prime_power_windows(top, primes_up_to(top), local, dtype), points,
                          int_dtype((top + 1) * peak(top)))
    dense = sums[: root + 1]
    high = np.zeros(mid + 1, dtype=width(n))
    high[last + 1 :] = sums[:root:-1]
    for k in range(last, 0, -1):
        x = n // k
        x_root = isqrt(x)
        single = x // (x_root + 1)
        inner = min(single, mid // k)
        below = dense[x // np.arange(inner + 1, single + 1)]
        quot = x // np.arange(1, x_root + 2)
        runs = quot[:-1] - quot[1:]
        head = dense[1 : x_root + 1]
        below, runs, head = (a.astype(width(x), copy=False) for a in (below, runs, head))
        rest = int(high[2 * k : inner * k + 1 : k].sum()) + int(below.sum()) + int(head @ runs)
        high[k] = (1 if q is None else _power_sums(x, q)) - rest
    return _FloorPrefix(n, dense, high, peak(n))


def sieve_weight(n: int, q: int | None) -> np.ndarray:
    """mu (q None) or phi_q on 0..n, sieved whole: int8 for mu, and for phi_q
    the width of its bound n^q (`arith.int_dtype`).

    Raises ValueError for n < 1 or q < 1, and CapacityError, before any
    sieve, past DEFAULT_MAX_N (`arith.primes_up_to`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q is not None and q < 1:
        raise ValueError(f"totient order must be >= 1, got {q}")
    primes = primes_up_to(n)
    if q is None:
        return prime_power_sieve(n, primes, mobius_local, np.int8)
    return prime_power_sieve(n, primes, totient_local(q), int_dtype(n**q))


# --- exact floor-power sums ----------------------------------------------

def _isqrt_array(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) elementwise for int64 v >= 0 below 2^52."""
    root = np.sqrt(v).astype(np.int64)
    root -= root * root > v
    root += (root + 1) * (root + 1) <= v
    return root


# breakpoints of `_floor_power_sums` laid out at once, about 2 MB an array
_BREAKPOINT_BATCH = 1 << 18


def _floor_power_sums(prefix: _FloorPrefix, values, s: int) -> np.ndarray:
    """F(v) = sum_{j <= v} g(j) floor(v/j)^s for every v in `values`, exactly.

    Each v is a floor point n // k of prefix.n (`_FloorPrefix`), and so is
    every breakpoint below.  With K = isqrt(v), Dirichlet's
    hyperbola split takes each j <= v // (K+1) on its own and the other j in
    the K blocks on which floor(v/j) = t is constant, t = K, .., 1:

        F(v) = sum_i (P[b_i] - P[b_(i-1)]) floor(v / b_i)^s

    over the breakpoints b = 1, 2, .., v // (K+1), v // K, .., v // 1, with
    b_0 = 0.  The breakpoints of many values are laid end to end (np.repeat
    and cumsum) and each F(v) is one reduceat segment; P is read once per
    breakpoint, and P[b_(i-1)] is the entry before.  Every partial sum is
    at most sum_j |g(j)| floor(v/j)^s <= peak v^s H_v, and the harmonic sum
    H_v <= 1 + ln v is below 1 + bitlen(v); that bound at the largest v,
    which also covers each P read and each floor(v/b)^s, sets the width.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return np.zeros(0, dtype=np.int64)
    top = int(v.max())
    width = int_dtype(max(prefix.peak, 1) * top**s * (top.bit_length() + 1))
    root = _isqrt_array(v)
    single = v // (root + 1)
    count = single + root
    ends = np.cumsum(count)
    out = []
    a = 0
    while a < v.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - count[a] + _BREAKPOINT_BATCH, "right")))
        cnt = count[a:b]
        starts = np.cumsum(cnt) - cnt
        owner = np.repeat(np.arange(b - a), cnt)
        i = np.arange(int(cnt.sum())) - starts[owner]
        vo = v[a:b][owner]
        # t = floor(v/b) on the block breakpoints; it exceeds K on the single j's
        t = (root[a:b] + single[a:b])[owner] - i
        point = np.where(i < single[a:b][owner], i + 1, vo // t)
        at = prefix.at(point).astype(width, copy=False)
        step = at.copy()
        step[1:] -= at[:-1]
        step[starts] = at[starts]
        quot = (vo // point).astype(width, copy=False)
        out.append(np.add.reduceat(step * quot**s, starts))
        a = b
    return np.concatenate(out)


def _floor_power_sum(prefix, n: int, s: int) -> int:
    """sum_{j <= n} g(j) floor(n/j)^s, exactly: one value of `_floor_power_sums`."""
    return int(_floor_power_sums(prefix, [n], s)[0])


def _quotient_blocks(n: int, top: int):
    """(lo, hi, v): the blocks d = lo..hi <= top on which v = n // d is constant.

    With R = isqrt(n), each d <= R has a quotient of its own, and the d > R
    take each quotient v <= n // (R+1) on the block that starts at
    n // (v+1) + 1.
    """
    root = isqrt(n)
    small = np.arange(1, root + 1, dtype=np.int64)
    large = n // np.arange(n // (root + 1) + 1, 1, -1, dtype=np.int64) + 1
    lo = np.concatenate((small, large))
    lo = lo[lo <= top]
    v = n // lo
    return lo, np.minimum(n // v, top), v


def _exact_gcd_counts(mu_prefix, n: int, s: int, top: int):
    """(lo, hi, G): G[b] = G_s(d) for the d = lo[b]..hi[b] <= top.

    G_s(d), the number of s-tuples in [n]^s with gcd exactly d, is
    sum_{j <= n/d} mu(j) floor(n/(d j))^s = F(n // d) of `_floor_power_sums`
    with g = mu, so it is evaluated once per block of equal quotients.
    mu_prefix is `_summatory(n, None)`.
    """
    lo, hi, v = _quotient_blocks(n, top)
    return lo, hi, _floor_power_sums(mu_prefix, v, s)


# `_block_sums` reads an int64 array in chunks of 2^14 entries cut into
# 23-bit limbs: a chunk's sum of limb products is at most 2^14 2^46 = 2^60
_SUM_CHUNK = 1 << 14
_LIMB_BITS = 23


def _block_sums(h: np.ndarray, starts, power: int) -> np.ndarray:
    """Exact sums of h[d]^power (power 1 or 2) over the blocks of d in h.

    Block b runs from starts[b] to starts[b+1] - 1, the last block to the
    end of h.  Returns Python ints in an object array.  An object h is
    summed as it is.  An int64 h is read in chunks of _SUM_CHUNK entries,
    each value written as sum_i c_i 2^(_LIMB_BITS i) over k limbs, k from
    the largest |h|: the lower limbs lie in [0, 2^_LIMB_BITS) and the top
    one, which keeps the sign, in [-2^_LIMB_BITS, 2^_LIMB_BITS).  So every
    per-chunk sum of limbs or of limb products c_i c_j fits int64; the
    chunk sums are shifted and added as Python ints.  A chunk's limb
    products are made one at a time, so the working arrays are a few
    chunks, whatever the size of h.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if h.dtype == object:
        return np.add.reduceat(h * h if power == 2 else h, starts)
    body = h[starts[0] :]
    peak = max(int(body.max()), -int(body.min()))
    k = max(1, -(-peak.bit_length() // _LIMB_BITS))
    mask = (1 << _LIMB_BITS) - 1
    out = np.zeros(starts.size, dtype=object)
    for a in range(int(starts[0]), h.size, _SUM_CHUNK):
        b = min(a + _SUM_CHUNK, h.size)
        first = int(np.searchsorted(starts, a, "right")) - 1
        last = int(np.searchsorted(starts, b))
        local = np.maximum(starts[first:last], a) - a
        x = h[a:b]
        limbs = [(x >> (_LIMB_BITS * i)) & mask for i in range(k - 1)]
        limbs.append(x >> (_LIMB_BITS * (k - 1)))
        if power == 1:
            parts = ((limbs[i], _LIMB_BITS * i) for i in range(k))
        else:  # the cross terms c_i c_j, i < j, count twice
            parts = ((limbs[i] * limbs[j], _LIMB_BITS * (i + j) + (i != j))
                     for i in range(k) for j in range(i, k))
        for part, shift in parts:
            out[first:last] += np.add.reduceat(part, local).astype(object) << shift
    return out


def _divisor_profile(g: np.ndarray, n: int, power: int, q: int | None) -> np.ndarray:
    """h(k) = sum_{j|k} g(j) floor(n/j)^power for k = 1..n, exactly (h(0) = 0).

    g is mu (q None) or phi_q on 0..n (`sieve_weight`).  As |mu(j)| <= 1 and
    phi_q(j) <= j^q, every |h(k)|, and every term and partial sum of one, is
    at most sum_{j<=n} j^q floor(n/j)^power (q = 0 for mu), the floor sum of
    the power sums, which sets h's width.  Its terms j = 1 and j = n cover
    each floor(n/j)^power and each g(j), so an object phi_q gives an object h.
    """
    def power_sums(x):  # sum_{i <= x} i^q at the int64 points x
        return x if q is None else _power_sums(x.astype(object), q)

    bound = _floor_power_sum(_at_floor_points(power_sums, n, n ** (q or 0)), n, power)
    w = np.arange(n + 1, dtype=np.int64)
    np.floor_divide(n, w[1:], out=w[1:])
    w = w.astype(int_dtype(bound), copy=False)
    w **= power
    w *= g
    sum_over_divisors(w, primes_up_to(n))
    return w


def _first_moment(n: int, q: int | None, s: int) -> ExactResult:
    """(1/n^s) sum_{j <= n} g(j) floor(n/j)^s for g = mu (q None) or phi_q.

    The numerator counts the coprime s-tuples, at least the n^(s-1) with
    X_1 = 1, or sums gcd^q >= 1 over all n^s: refused before any sieve when
    that power of n is past the digit limit."""
    if s < 1:
        raise ValueError(f"r must be >= 1, got {s}")
    _refuse_past_digits((s - (q is None)) * (n.bit_length() - 1))
    return ExactResult.from_ratio(_floor_power_sum(_summatory(n, q), n, s), n, s)


def gcd_pmf(n: int, r: int) -> list[tuple[ExactResult, int]]:
    """P(gcd(X_1..X_r) = k) for k = 1..n, as (value, count) runs in ascending k.

    The pmf is constant on each block of equal floor(n/k), and a run is one
    such block: O(sqrt n) runs whose counts add up to n.  The values,
    each taken count times, sum to exactly 1.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    # the count at k = 1 is at least the n^(r-1) tuples with X_1 = 1
    _refuse_past_digits((r - 1) * (n.bit_length() - 1))
    lo, hi, counts = _exact_gcd_counts(_summatory(n, None), n, r, n)
    return [(ExactResult.from_ratio(c, n, r), size)
            for c, size in zip(counts.tolist(), (hi - lo + 1).tolist())]


def gcd_moment(n: int, r: int, q: int) -> ExactResult:
    """E gcd(X_1..X_r)^q = (1/n^r) sum phi_q(j) floor(n/j)^r."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _refuse_past_float(n, q - r, 0)  # E gcd^q >= P(every X_i = n) n^q = n^(q-r)
    return _first_moment(n, q, r)


def gcd_tail(n: int, threshold: int) -> ExactResult:
    """P(gcd(X_1, X_2) > threshold), an exact pmf tail sum."""
    if not 0 <= threshold <= n:
        raise ValueError(f"threshold must be in 0..{n}, got {threshold}")
    lo, hi, counts = _exact_gcd_counts(_summatory(n, None), n, 2, threshold)
    head = sum(size * c for size, c in zip((hi - lo + 1).tolist(), counts.tolist()))
    return ExactResult.from_ratio(n**2 - head, n, 2)


# --- marginal profiles ----------------------------------------------------

@dataclass
class MarginalProfile:
    """U_r(k) or W_r(k) for every k in 1..n, stored as exact numerators.

    q None: value(k) = U_r(k) = P(gcd(X_1..X_r, k) = 1)   (weight mu)
    q 1:    value(k) = W_r(k) = E gcd(X_1..X_r, k)        (weight phi)
    Both have denominator n^r.
    """

    n: int
    r: int
    q: int | None  # None or 1, checked by `marginal_profile`
    numerators: np.ndarray  # int64, or object (Python ints); index 0 unused

    def value(self, k: int) -> ExactResult:
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside 1..{self.n}")
        return ExactResult.from_ratio(int(self.numerators[k]), self.n, self.r)

    def mean(self) -> ExactResult:
        total = _block_sums(self.numerators, [1], 1)[0]
        return ExactResult.from_ratio(total, self.n, self.r + 1)

    def variance(self) -> ExactResult:
        s1 = _block_sums(self.numerators, [1], 1)[0]
        s2 = _block_sums(self.numerators, [1], 2)[0]
        return ExactResult.from_ratio(self.n * s2 - s1 * s1, self.n, 2 * self.r + 2)


def marginal_profile(n: int, r: int, q: int | None = None) -> MarginalProfile:
    """The whole profile as the divisor sums sum_{j|k} g(j) floor(n/j)^r,
    g = mu (q None, U_r) or phi (q 1, W_r) sieved to n."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if q not in (None, 1):
        raise ValueError(f"a marginal profile's q must be None or 1, got {q!r}")
    return MarginalProfile(n, r, q, _divisor_profile(sieve_weight(n, q), n, r, q))


def mean_mu(n: int, r: int) -> ExactResult:
    """Average of the U_r profile; identically P(gcd of r+1 variables = 1)."""
    return _first_moment(n, None, r + 1)


def mean_nu(n: int, r: int) -> ExactResult:
    """Average of the W_r profile; identically E gcd of r+1 variables."""
    return _first_moment(n, 1, r + 1)


def _profile_variance(n: int, r: int, q: int | None) -> ExactResult:
    """The profile's variance, refused before any sieve when its numerator
    is proven past the int-to-str digit limit.

    The numerator is n^(2r+2) Var, and n Var is the sum of the n squared
    deviations from the mean, so the numerator is at least
    n^(2r+1) (v(1) - mean)^2.  Here v(1) = U_r(1) = W_r(1) = 1, as gcd(x, 1)
    = 1.  The mean is P(gcd of r+1 values = 1), or E gcd of r+1 values, and
    a sample whose r+1 values are all even has gcd >= 2; there are h^(r+1)
    of them, h = floor(n/2).  So |v(1) - mean| >= (h/n)^(r+1), and the
    numerator is at least h^(2r+2) / n > 2^((2r+2)(bitlen(h) - 1) - bitlen(n))
    for n >= 2; at n = 1 that exponent is negative, and nothing is refused.
    """
    _refuse_past_digits((2 * r + 2) * ((n // 2).bit_length() - 1) - n.bit_length())
    return marginal_profile(n, r, q).variance()


def var_c(n: int, r: int) -> ExactResult:
    """Population variance of the marginal probability profile U_r."""
    return _profile_variance(n, r, None)


def var_d(n: int, r: int) -> ExactResult:
    """Population variance of the marginal expectation profile W_r."""
    return _profile_variance(n, r, 1)


# --- shared-variable covariances ------------------------------------------

def shared_covariance(n: int, r: int, s: int, q: int | None = None) -> ExactResult:
    """Covariance of two r-tuple gcd kernels sharing exactly s variables.

    With g = mu (q None, the coprimality indicator) or g = phi_q (the gcd^q kernel),

      E[XY] = (1/n^(2r-s)) sum_{i,j<=n} g(i) g(j)
                floor(n/i)^(r-s) floor(n/j)^(r-s) floor(n/lcm(i,j))^s

    and the covariance subtracts the squared single-kernel mean.  For
    s >= 1, floor(n/lcm(i,j))^s counts the s-tuples whose gcd d is a
    multiple of both i and j, so grouping by d gives

      E[XY] n^(2r-s) = sum_{d<=n} G_s(d) h(d)^2,
      h(d) = sum_{i|d} g(i) floor(n/i)^(r-s),

    with G_s(d) the number of s-tuples in [n]^s with gcd exactly d.  G_s
    is constant on each block of equal floor(n/d), so the sum is a Python
    int dot of the O(sqrt n) block counts with the blocks' sums of h^2.
    The result is exact; it is gated against exhaustive enumeration and
    the literal double sum in the test suite.  The covariance is the
    variance of the kernel's mean given the s shared values; for the gcd^q
    kernel it is at least n^(2q-2r+s) / 8, from the two points where those
    values are all n and where the first is 1, so a q that puts it past the
    float range is refused before the weight is sieved.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got s={s}, r={r}")
    if q is not None and q < 1:  # checked here too, as s = 0 sieves no weight
        raise ValueError(f"totient order must be >= 1, got {q}")
    if s == 0:
        # no shared variables: the kernels are independent, and no weight is read
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return ExactResult.from_ratio(0, n, 2 * r)
    if q is not None:
        _refuse_past_float(n, 2 * q - 2 * r + s, 3)
    _, (cov,) = _covariance_numerators(sieve_weight(n, q), n, r, (s,), q)
    return ExactResult.from_ratio(cov, n, 2 * r)


def _covariance_numerators(g, n, r, shares, q) -> tuple[int, list[int]]:
    """n^r times the kernel mean, and n^(2r) times the covariance of
    `shared_covariance` for each s >= 1 in shares, for the kernel of weight
    g = mu (q None) or phi_q on 0..n.

    The prefix sums of mu, and of g for the kernel mean, are built once and
    serve every s.
    """
    mu_prefix = _summatory(n, None)
    g_prefix = mu_prefix if q is None else _summatory(n, q)
    mean_num = _floor_power_sum(g_prefix, n, r)
    return mean_num, [_shared_moment(g, q, n, r, s, mu_prefix) * n**s - mean_num**2
                      for s in shares]


def _shared_moment(g, q, n, r, s, mu_prefix) -> int:
    """sum_{d<=n} G_s(d) h(d)^2 with h = `_divisor_profile` of g at power r - s.

    One call per s, so each n-entry profile is freed before the next is built.
    At s = r, h = g * 1 is the delta at 1 for mu, so the sum is G_r(1), and
    d^q for phi_q, so each block of equal G_r adds G_r times its sum of
    d^(2q), a difference of Faulhaber sums.
    """
    if s == r and q is None:
        return _floor_power_sum(mu_prefix, n, r)
    lo, hi, counts = _exact_gcd_counts(mu_prefix, n, s, n)
    if s == r:
        ends = _power_sums(hi.astype(object), 2 * q)
        squares = ends - np.concatenate(([0], ends[:-1]))
    else:
        h = _divisor_profile(g, n, r - s, q)
        squares = _block_sums(h, lo, 2)
    return int(counts.astype(object) @ squares)


def var_C(n: int, m: int, r: int) -> ExactResult:
    """Variance of the count of coprime r-subsets in a sample of length m."""
    return u_statistic_moments(sieve_weight(n, None), n, m, r, None)[1]


def var_Z(n: int, m: int, r: int, q: int = 1) -> ExactResult:
    """Variance of the sum of gcd^q over r-subsets of a sample of length m.

    It is at least the covariance of `shared_covariance` at s = r, so a q
    that puts n^(2q-r) / 8 past the float range is refused before any sieve.
    """
    _refuse_past_float(n, 2 * q - r, 3)
    return u_statistic_moments(sieve_weight(n, q), n, m, r, q)[1]


def u_statistic_moments(g: np.ndarray, n: int, m: int, r: int,
                        q: int | None) -> tuple[ExactResult, ExactResult]:
    """(E k, Var S), S the sum of a kernel k over the r-subsets of a sample of length m.

    k is the coprimality indicator of r values (q None, S = C) or their
    gcd^q (S = Z), and g its weight on 0..n, `sieve_weight(n, q)`, which a
    caller may share with other readers.  E k, which is mean_mu(n, r - 1) or
    gcd_moment(n, r, q), is read off the prefix sums the variance builds.
    Var S = sum_{s=0..r} C(m,s) C(m-s,r-s) C(m-r,r-s) gamma_{r,s}; the
    binomial product counts pairs of r-subsets of {1..m} with intersection
    size s.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    # s = 0 shares nothing and adds a zero covariance
    weights = {s: comb(m, s) * comb(m - s, r - s) * comb(m - r, r - s) for s in range(1, r + 1)}
    shares = [s for s, weight in weights.items() if weight]
    mean_num, covs = _covariance_numerators(g, n, r, shares, q)
    return (ExactResult.from_ratio(mean_num, n, r),
            ExactResult.from_ratio(sum(weights[s] * c for s, c in zip(shares, covs)), n, 2 * r))


# --- mixed second moment (two kernels sharing one variable) ----------------

def mixed_moment_pi(n: int, r: int, q: int) -> ExactResult:
    """E[gcd(X_1,..,X_r)^q * gcd(X_1,X_{r+1},..,X_{2r-1})^q], exactly.

    Conditioning on the shared variable X_1 = k gives
      pi = (1/n) sum_k ( (1/n^{r-1}) sum_{j|k} phi_q(j) floor(n/j)^{r-1} )^2.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _refuse_past_float(n, 2 * q - 2 * r + 1, 0)  # pi >= P(all 2r-1 values are n) n^(2q)
    h = _divisor_profile(sieve_weight(n, q), n, r - 1, q)
    return ExactResult.from_ratio(_block_sums(h, [1], 2)[0], n, 2 * r - 1)


def mixed_moment_omega(n: int, r: int, q: int) -> ExactResult:
    """Covariance form of the mixed moment: omega = pi - (E gcd^q)^2."""
    pi = mixed_moment_pi(n, r, q)
    mean = gcd_moment(n, r, q)
    return ExactResult.from_ratio(pi.numerator * n - mean.numerator**2, n, 2 * r)
