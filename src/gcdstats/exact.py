"""Exact finite-n gcd statistics for uniform samples from {1..n}.

Everything here evaluates closed formulas of the form

    E F(gcd(X_1..X_r)) = (1/n^r) sum_{j<=n} (mu*F)(j) floor(n/j)^r

and its marginal variant over divisors of a pinned value k, together with
the derived means, variances and U-statistic covariances.  All results are
exact rationals: an integer numerator over a structural power of n.

One numpy kernel (`_floor_power_sums`) evaluates such a floor sum against
exact prefix sums for a whole array of upper limits v at once, each by
Dirichlet's hyperbola split into O(sqrt v) blocks of constant floor(v/j).
It reads the prefix sums only at the floor points of n, from one
floor-indexed form (`_FloorPrefix`).  For g = mu or phi_q, `_summatory`
fills that form without an n-entry table: a sieve to about n^(2/3) and
the recursion sum_{d<=x} G(x // d) = sum_{j<=x} (g * 1)(j) at the
O(n^(1/3)) points above it.  So the first moments (mean_mu, mean_nu,
gcd_moment) and the gcd pmf and tail take no table and cost about
O(n^(2/3)), up to n = TABLE_FREE_MAX_N (about 1.6e11).

Whole profiles over k = 1..n are divisor sums h(k) = sum_{j|k} w(j),
which `arith.sum_over_divisors` takes in place, prime by prime, in about
n ln ln n adds.  Shared-variable covariances reduce to
sum_d G_s(d) h(d)^2, with G_s(d) the number of s-tuples whose gcd is
exactly d.  G_s(d) depends on d only through floor(n/d), so the batched
kernel gives it for all O(sqrt n) quotient blocks (`_quotient_blocks`) in
one call, and `_block_sums` gives each block's sum of h^2; at s = r,
h = g * 1 is known in closed form and needs no profile.  Sums are int64
where a bound proves they fit; the square sums otherwise cut int64 values
into limbs, and values past int64 are Python ints.  No n-entry array is
turned into a Python list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .arith import DEFAULT_MAX_N, ArithTable, build_table, pillai, sum_over_divisors

_INT64_SAFE = 2**62


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
        return cls(numerator, base, power, numerator / base**power)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denom_base**self.denom_power)

    def record(self, quantity: str, **params) -> dict:
        """JSON-ready record with the standard field layout."""
        rec = {"quantity": quantity}
        rec.update(params)
        rec["value"] = self.float_value
        rec["exact"] = True
        rec["numerator"] = str(self.numerator)
        rec["denom_base"] = self.denom_base
        rec["denom_power"] = self.denom_power
        return rec


# --- prefix sums at the floor points ---------------------------------------

def _cumsum(head: np.ndarray, bound: int) -> np.ndarray:
    """Exact prefix sums of head: int64 when bound >= every |partial sum|
    is below 2^62, else Python ints in an object array.

    The int64 sums are taken in place: np.cumsum(head, dtype=np.int64)
    would hold a cast copy of head beside them.
    """
    if head.dtype != object and bound < _INT64_SAFE:
        sums = head.astype(np.int64)
        return np.cumsum(sums, out=sums)
    return np.cumsum(head.astype(object))


@dataclass(frozen=True)
class _FloorPrefix:
    """G(x) = sum_{j <= x} g(j) at every point a floor sum for n reads.

    dense[x] = G(x) for x = 0..L, and high[k] = G(n // k) for the points
    above L, k = 1..n // (L+1) (high[0] is unused).  A floor sum for n reads
    G only at x <= sqrt(n) <= L and at x = n // k, and n // x is then the
    slot of x in high.  peak bounds |g(j)| for j <= n.
    """

    n: int
    dense: np.ndarray
    high: np.ndarray
    peak: int

    def at(self, x: np.ndarray) -> np.ndarray:
        """G at the int64 points x, each at most L or of the form n // k."""
        above = x >= self.dense.size
        out = self.dense[np.where(above, 0, x)]
        if self.high.dtype == object:
            out = out.astype(object)
        out[above] = self.high[self.n // x[above]]
        return out


def _exact_prefix(g: np.ndarray, n: int) -> _FloorPrefix:
    """The floor-indexed prefix of an integer array g over 0..n, with L = isqrt(n).

    The n-entry prefix sums are int64 when (n+1) peak < 2^62 proves they
    fit, peak = max |g(j)|, j <= n; only their O(sqrt n) floor points are kept.
    """
    head = g[: n + 1]
    peak = int(np.abs(head).max()) if head.size else 0
    sums = _cumsum(head, (n + 1) * peak)
    root = isqrt(n)
    slots = np.arange(n // (root + 1) + 1)
    slots[0] = 1
    return _FloorPrefix(n, sums[: root + 1].copy(), sums[n // slots], peak)


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
    """The floor-indexed prefix of g = mu (q None) or phi_q for n, with no n-entry table.

    A table to L = `_sieve_limit(n)` gives G(0..L) by a cumsum.  Above L,
    g * 1 = t (the delta at 1 for mu, j^q for phi_q) gives the recursion of
    Deleglise and Rivat,

        G(x) = T(x) - sum_{2 <= d <= x} G(x // d),   T(x) = sum_{j <= x} t(j),

    with T = 1 for mu and Faulhaber's sum for phi_q.  With K = isqrt(x), the
    d <= x // (K+1) are taken one by one and the others through the count
    x // t - x // (t+1) of d with x // d = t, t = 1..K.  The points x = n // k
    go in ascending x (descending k), so x // d = n // (k d) is below L or
    is high[k d], already filled: one numpy pass over O(sqrt x) entries for
    each of the O(n^(1/3)) points.  |G(y)| <= peak y for peak = max |g(j)|,
    j <= x (1 for mu, x^q for phi_q), so every sum at x is below
    peak x (1 + bitlen(x)); a point is summed in int64 where that fits, else
    in Python ints.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    top = _sieve_limit(n)
    table = build_table(top)
    g = table.mobius if q is None else table.totient(q)
    dense = _cumsum(g, (top + 1) * (1 if q is None else top**q))

    def peak(x):
        return 1 if q is None else x**q

    def fits(x):
        return peak(x) * x * (x.bit_length() + 1) < _INT64_SAFE

    last = n // (top + 1)
    high = np.zeros(last + 1, dtype=np.int64 if fits(n) else object)
    for k in range(last, 0, -1):
        x = n // k
        root = isqrt(x)
        single = x // (root + 1)
        inner = min(single, last // k)
        below = dense[x // np.arange(inner + 1, single + 1)]
        quot = x // np.arange(1, root + 2)
        runs = quot[:-1] - quot[1:]
        head = dense[1 : root + 1]
        if not fits(x):
            below, runs, head = below.astype(object), runs.astype(object), head.astype(object)
        rest = int(high[2 * k : inner * k + 1 : k].sum()) + int(below.sum()) + int(head @ runs)
        high[k] = (1 if q is None else _power_sums(x, q)) - rest
    return _FloorPrefix(n, dense, high, peak(n))


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
    H_v <= 1 + ln v is below 1 + bitlen(v); the sums are int64 when that
    bound at the largest v is below 2^62, else Python ints.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return np.zeros(0, dtype=np.int64)
    top = int(v.max())
    fits = (object not in (prefix.dense.dtype, prefix.high.dtype)
            and max(prefix.peak, 1) * top**s * (top.bit_length() + 1) < _INT64_SAFE)
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
        at = prefix.at(point)
        step = at.copy()
        step[1:] -= at[:-1]
        step[starts] = at[starts]
        quot = vo // point
        if not fits:
            step, quot = step.astype(object), quot.astype(object)
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


# `_block_sums` reads an int64 array in chunks of 2^16 entries cut into
# 23-bit limbs: a chunk's sum of limb products is at most 2^16 2^46 = 2^62
_SUM_CHUNK = 1 << 16
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
    chunk sums are shifted and added as Python ints.
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
            parts = [(limbs[i], _LIMB_BITS * i) for i in range(k)]
        else:  # the cross terms c_i c_j, i < j, count twice
            parts = [(limbs[i] * limbs[j], _LIMB_BITS * (i + j) + (i != j))
                     for i in range(k) for j in range(i, k)]
        for part, shift in parts:
            out[first:last] += np.add.reduceat(part, local).astype(object) << shift
    return out


def _abs_prefix(g: np.ndarray, n: int):
    """`_exact_prefix` of |g|, the weights of the profile bound."""
    return _exact_prefix(np.abs(g[: n + 1]), n)


def _divisor_profile(g: np.ndarray, n: int, power: int, primes: np.ndarray,
                     bound_prefix: _FloorPrefix) -> np.ndarray:
    """h(k) = sum_{j|k} g(j) floor(n/j)^power for k = 1..n, exactly (h(0) = 0).

    int64 when the bound sum_j |g(j)| floor(n/j)^power on every |h(k)|
    fits, else Python ints in an object array.  Every weight g here has
    g(1) = 1, so the bound also covers the powers floor(n/j)^power.
    bound_prefix is the floor-indexed prefix of |g|: `_abs_prefix(g, n)`,
    or `_summatory(n, q)` for g = phi_q >= 0.  primes are the table's.
    """
    head = g[: n + 1]
    bound = _floor_power_sum(bound_prefix, n, power)
    w = np.arange(n + 1, dtype=np.int64)
    np.floor_divide(n, w[1:], out=w[1:])
    if bound < _INT64_SAFE:
        # every |g(j)| is at most the bound, so an object g fits int64 too
        w **= power
        w *= head if head.dtype != object else head.astype(np.int64)
    else:
        w = w.astype(object) ** power * head
    sum_over_divisors(w, primes)
    return w


def _first_moment(n: int, q: int | None, s: int) -> ExactResult:
    """(1/n^s) sum_{j <= n} g(j) floor(n/j)^s for g = mu (q None) or phi_q."""
    if s < 1:
        raise ValueError(f"r must be >= 1, got {s}")
    return ExactResult.from_ratio(_floor_power_sum(_summatory(n, q), n, s), n, s)


def gcd_pmf(n: int, r: int) -> list[tuple[ExactResult, int]]:
    """P(gcd(X_1..X_r) = k) for k = 1..n, as (value, count) runs in ascending k.

    The pmf is constant on each block of equal floor(n/k), and a run is one
    such block: O(sqrt n) runs whose counts add up to n.  The values,
    each taken count times, sum to exactly 1.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    lo, hi, counts = _exact_gcd_counts(_summatory(n, None), n, r, n)
    return [(ExactResult.from_ratio(c, n, r), size)
            for c, size in zip(counts.tolist(), (hi - lo + 1).tolist())]


def gcd_moment(n: int, r: int, q: int) -> ExactResult:
    """E gcd(X_1..X_r)^q = (1/n^r) sum phi_q(j) floor(n/j)^r."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
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

    kind "probability": value(k) = P(gcd(X_1..X_r, k) = 1)
    kind "expectation": value(k) = E gcd(X_1..X_r, k)
    Both have denominator n^r.
    """

    n: int
    r: int
    kind: str
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


def marginal_profile(table: ArithTable, n: int, r: int, kind: str) -> MarginalProfile:
    """The whole profile as the divisor sums sum_{j|k} g(j) floor(n/j)^r."""
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if kind == "probability":
        g, bound_prefix = table.mobius, _abs_prefix(table.mobius, n)
    elif kind == "expectation":
        g, bound_prefix = table.totient(1), _summatory(n, 1)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return MarginalProfile(n, r, kind, _divisor_profile(g, n, r, table.primes, bound_prefix))


def marginal_error_bound_check(profile: MarginalProfile, table: ArithTable):
    """Slack of the divisor-sum approximation bounds over the whole profile.

    probability kind:  |U_r(k) - phi_r(k)/k^r|          <=  r tau(k)/n
    expectation kind:  0 <= P_r(k)/k^r - W_r(k)         <=  k/n      (r = 1)
                                                            r tau(k)/n (r >= 2)
    Returns (max_ratio, argmax_k) where max_ratio is the largest observed
    deviation-to-bound ratio; raises if any k violates its bound.
    """
    n, r = profile.n, profile.r
    phi_r = table.totient(r)
    worst = Fraction(0)
    worst_k = 1
    for k in range(1, n + 1):
        val = Fraction(int(profile.numerators[k]), n**r)
        tau_k = int(table.tau[k])
        if profile.kind == "probability":
            target = Fraction(int(phi_r[k]), k**r)
            dev = abs(val - target)
            bnd = Fraction(r * tau_k, n)
        else:
            target = Fraction(pillai(table, r, k), k**r)
            dev = target - val
            if dev < 0:
                raise AssertionError(f"one-sided bound violated at k={k}: W exceeds P_r/k^r")
            bnd = Fraction(k, n) if r == 1 else Fraction(r * tau_k, n)
        ratio = dev / bnd if bnd else Fraction(0)
        if ratio > worst:
            worst, worst_k = ratio, k
        if ratio > 1:
            raise AssertionError(f"marginal bound violated at k={k}: ratio {float(ratio):.6f}")
    return float(worst), worst_k


def mean_mu(n: int, r: int) -> ExactResult:
    """Average of the U_r profile; identically P(gcd of r+1 variables = 1)."""
    return _first_moment(n, None, r + 1)


def mean_nu(n: int, r: int) -> ExactResult:
    """Average of the W_r profile; identically E gcd of r+1 variables."""
    return _first_moment(n, 1, r + 1)


def var_c(table: ArithTable, n: int, r: int) -> ExactResult:
    """Population variance of the marginal probability profile U_r."""
    return marginal_profile(table, n, r, "probability").variance()


def var_d(table: ArithTable, n: int, r: int) -> ExactResult:
    """Population variance of the marginal expectation profile W_r."""
    return marginal_profile(table, n, r, "expectation").variance()


# --- shared-variable covariances ------------------------------------------

def _kernel_order(kind: str, q: int) -> int | None:
    """The kernel's weights: mu (None) or the order of phi_q."""
    if kind == "indicator":
        return None
    if kind == "gcd":
        return 1
    if kind == "moment":
        return q
    raise ValueError(f"kind must be one of ['gcd', 'indicator', 'moment'], got {kind!r}")


def _kernel_weights(table: ArithTable, kind: str, q: int) -> np.ndarray:
    order = _kernel_order(kind, q)
    return table.mobius if order is None else table.totient(order)


def shared_covariance(
    table: ArithTable,
    n: int,
    r: int,
    s: int,
    kind: str = "indicator",
    q: int = 1,
) -> ExactResult:
    """Covariance of two r-tuple gcd kernels sharing exactly s variables.

    With g = mu (indicator kernel) or g = phi_q (gcd^q kernel),

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
    the literal double sum in the test suite.
    """
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got s={s}, r={r}")
    if s == 0:
        # no shared variables: the kernels are independent
        return ExactResult.from_ratio(0, n, 2 * r)
    _, (cov,) = _covariance_numerators(table, n, r, (s,), kind, q)
    return ExactResult.from_ratio(cov, n, 2 * r)


def _covariance_numerators(table, n, r, shares, kind, q) -> tuple[int, list[int]]:
    """n^r times the kernel mean, and n^(2r) times the covariance of
    `shared_covariance` for each s >= 1 in shares.

    The prefix sums of mu, g and |g| and the kernel mean are built once and
    serve every s; |g| only when some s < r needs a profile.  For g = phi_q
    >= 0, the prefix of g is that of |g|.
    """
    order = _kernel_order(kind, q)
    g = _kernel_weights(table, kind, q)
    mu_prefix = _summatory(n, None)
    g_prefix = mu_prefix if order is None else _summatory(n, order)
    bound_prefix = None
    if min(shares) < r:
        bound_prefix = g_prefix if order is not None else _abs_prefix(g, n)
    mean_num = _floor_power_sum(g_prefix, n, r)
    return mean_num, [_shared_moment(g, order, n, r, s, table.primes, mu_prefix, bound_prefix)
                      * n**s - mean_num**2 for s in shares]


def _shared_moment(g, order, n, r, s, primes, mu_prefix, bound_prefix) -> int:
    """sum_{d<=n} G_s(d) h(d)^2 with h = `_divisor_profile` of g at power r - s.

    One call per s, so each n-entry profile is freed before the next is built.
    At s = r, h = g * 1 is the delta at 1 for mu, so the sum is G_r(1), and
    d^q for phi_q, so each block of equal G_r adds G_r times its sum of
    d^(2q), a difference of Faulhaber sums.
    """
    if s == r and order is None:
        return _floor_power_sum(mu_prefix, n, r)
    lo, hi, counts = _exact_gcd_counts(mu_prefix, n, s, n)
    if s == r:
        ends = _power_sums(hi.astype(object), 2 * order)
        squares = ends - np.concatenate(([0], ends[:-1]))
    else:
        h = _divisor_profile(g, n, r - s, primes, bound_prefix)
        squares = _block_sums(h, lo, 2)
    return int(counts.astype(object) @ squares)


def var_C(table: ArithTable, n: int, m: int, r: int) -> ExactResult:
    """Variance of the count of coprime r-subsets in a sample of length m."""
    return u_statistic_moments(table, n, m, r, "indicator")[1]


def var_Z(table: ArithTable, n: int, m: int, r: int, q: int = 1) -> ExactResult:
    """Variance of the sum of gcd^q over r-subsets of a sample of length m."""
    return u_statistic_moments(table, n, m, r, "moment", q)[1]


def u_statistic_moments(table: ArithTable, n: int, m: int, r: int, kind: str,
                        q: int = 1) -> tuple[ExactResult, ExactResult]:
    """(E k, Var S), S the sum of a kernel k over the r-subsets of a sample of length m.

    k is the coprimality indicator of r values (kind "indicator", S = C)
    or their gcd^q (kind "moment", S = Z).  E k, which is mean_mu(n, r - 1)
    or gcd_moment(n, r, q), is read off the prefix sums the variance
    builds, so each weight is sieved once for both.
    Var S = sum_{s=0..r} C(m,s) C(m-s,r-s) C(m-r,r-s) gamma_{r,s}; the
    binomial product counts pairs of r-subsets of {1..m} with intersection
    size s.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    table.check_index(n)
    # s = 0 shares nothing and adds a zero covariance
    weights = {s: comb(m, s) * comb(m - s, r - s) * comb(m - r, r - s) for s in range(1, r + 1)}
    shares = [s for s, weight in weights.items() if weight]
    mean_num, covs = _covariance_numerators(table, n, r, shares, kind, q)
    return (ExactResult.from_ratio(mean_num, n, r),
            ExactResult.from_ratio(sum(weights[s] * c for s, c in zip(shares, covs)), n, 2 * r))


# --- mixed second moment (two kernels sharing one variable) ----------------

def mixed_moment_pi(table: ArithTable, n: int, r: int, q: int) -> ExactResult:
    """E[gcd(X_1,..,X_r)^q * gcd(X_1,X_{r+1},..,X_{2r-1})^q], exactly.

    Conditioning on the shared variable X_1 = k gives
      pi = (1/n) sum_k ( (1/n^{r-1}) sum_{j|k} phi_q(j) floor(n/j)^{r-1} )^2.
    """
    table.check_index(n)
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    h = _divisor_profile(table.totient(q), n, r - 1, table.primes, _summatory(n, q))
    return ExactResult.from_ratio(_block_sums(h, [1], 2)[0], n, 2 * r - 1)


def mixed_moment_omega(table: ArithTable, n: int, r: int, q: int) -> ExactResult:
    """Covariance form of the mixed moment: omega = pi - (E gcd^q)^2."""
    pi = mixed_moment_pi(table, n, r, q)
    mean = gcd_moment(n, r, q)
    return ExactResult.from_ratio(pi.numerator * n - mean.numerator**2, n, 2 * r)
