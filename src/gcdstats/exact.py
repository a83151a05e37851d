"""Exact finite-n gcd statistics for uniform samples from {1..n}.

Everything here evaluates closed formulas of the form

    E F(gcd(X_1..X_r)) = (1/n^r) sum_{j<=n} (mu*F)(j) floor(n/j)^r

and its marginal variant over divisors of a pinned value k, together with
the derived means, variances and U-statistic covariances.  All results are
exact rationals: an integer numerator over a structural power of n.

The floor sums are evaluated blockwise over the O(sqrt n) distinct values
of floor(n/j) against exact prefix sums, so single quantities cost
O(sqrt n) after an O(n) prefix pass.  Whole profiles over k = 1..n are
divisor sums  h(k) = sum_{j|k} w(j), which one kernel
(`_divisor_accumulate`) evaluates with Dirichlet's hyperbola split in
O(sqrt n) array operations.  Shared-variable covariances reduce to
sum_d G_s(d) h(d)^2, with G_s(d) the number of s-tuples whose gcd is
exactly d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .arith import ArithTable, divisors

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


# --- exact floor-power sums ----------------------------------------------

def _exact_prefix(g, n: int):
    """Exact prefix sums of g[0..n]; int64 when provably safe, else ints."""
    if isinstance(g, np.ndarray):
        head = g[: n + 1]
        peak = int(np.abs(head).max()) if head.size else 0
        if (n + 1) * peak < _INT64_SAFE:
            return np.cumsum(head, dtype=np.int64)
        return list(itertools.accumulate(head.tolist()))
    return list(itertools.accumulate(list(g[: n + 1])))


def _floor_power_sum(prefix, n: int, r: int, k: int = 1) -> int:
    """sum_{j <= n//k} g(j) * floor(n/(k j))^r, exactly.

    Iterates the O(sqrt(n/k)) blocks on which floor(n/(k j)) is constant.
    """
    m = n // k
    total = 0
    j = 1
    while j <= m:
        v = n // (k * j)
        j2 = n // (k * v)
        if j2 > m:
            j2 = m
        total += (int(prefix[j2]) - int(prefix[j - 1])) * v**r
        j = j2 + 1
    return total


def _exact_gcd_counts(table: ArithTable, n: int, s: int, top: int):
    """G_s(d) for d = 1..top, the number of s-tuples in [n]^s with gcd d.

    G_s(d) = sum_{j <= n/d} mu(j) floor(n/(d j))^s depends on d only
    through floor(n/d), so it is evaluated once per block of equal
    quotients; yields (lo, hi, G_s) for the blocks d = lo..hi in order.
    """
    mu_prefix = _exact_prefix(table.mobius, n)
    d = 1
    while d <= top:
        v = n // d
        hi = min(n // v, top)
        yield d, hi, _floor_power_sum(mu_prefix, v, s)
        d = hi + 1


def _divisor_accumulate(w: np.ndarray, n: int) -> np.ndarray:
    """acc[k] = sum_{j|k} w[j] for k = 1..n (acc[0] = 0), same dtype as w.

    Dirichlet's hyperbola split: every pair j e = k <= n has j <= sqrt(n)
    or, when j > sqrt(n), e <= sqrt(n).  The first kind adds w[j] to every
    multiple of j; the second adds the slice w[sqrt(n)+1 : n/e] to the
    e-strided positions it lands on.  That is 2 sqrt(n) slice operations,
    not n.  Taking e in descending order adds the terms of each acc[k] in
    ascending j, as the plain loop over j does, so float sums round
    identically.  Exact for int64 (when the caller has bounded the sums)
    and for object arrays of Python ints.
    """
    acc = np.zeros(n + 1, dtype=w.dtype)
    root = isqrt(n)
    for j in range(1, root + 1):
        if w[j]:
            acc[j::j] += w[j]
    for e in range(root, 0, -1):
        hi = n // e
        if hi > root:
            acc[e * (root + 1) : e * hi + 1 : e] += w[root + 1 : hi + 1]
    return acc


def _divisor_profile(g, n: int, power: int) -> np.ndarray:
    """h(k) = sum_{j|k} g(j) floor(n/j)^power for k = 1..n, exactly.

    int64 when the bound sum_j |g(j)| floor(n/j)^power on every |h(k)|
    fits, else Python ints in an object array.  Every weight g here has
    g(1) = 1, so the bound also covers the powers floor(n/j)^power.
    """
    head = g[: n + 1]
    absg = np.abs(head) if isinstance(head, np.ndarray) else [abs(v) for v in head]
    bound = _floor_power_sum(_exact_prefix(absg, n), n, power)
    if isinstance(head, np.ndarray) and bound < _INT64_SAFE:
        w = np.arange(n + 1, dtype=np.int64)
        np.floor_divide(n, w[1:], out=w[1:])
        w **= power
        w *= head
    else:
        w = np.empty(n + 1, dtype=object)
        w[0] = 0
        w[1:] = [int(head[j]) * (n // j) ** power for j in range(1, n + 1)]
    return _divisor_accumulate(w, n)


def cesaro_expectation(table: ArithTable, g, n: int, r: int) -> ExactResult:
    """E F(gcd of r uniform variables) for g = mu*F supplied directly.

    For r = 1 the convention gcd(j) = j applies, so the same formula
    returns E F(X_1).
    """
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    prefix = _exact_prefix(g, n)
    return ExactResult.from_ratio(_floor_power_sum(prefix, n, r), n, r)


def gcd_pmf(table: ArithTable, n: int, r: int) -> list[ExactResult]:
    """P(gcd(X_1..X_r) = k) for k = 1..n; entries sum to exactly 1."""
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    blocks = _exact_gcd_counts(table, n, r, n)
    return [ExactResult.from_ratio(c, n, r)
            for lo, hi, c in blocks for _ in range(lo, hi + 1)]


def gcd_moment(table: ArithTable, n: int, r: int, q: int) -> ExactResult:
    """E gcd(X_1..X_r)^q = (1/n^r) sum phi_q(j) floor(n/j)^r."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return cesaro_expectation(table, table.totient(q), n, r)


def gcd_tail(table: ArithTable, n: int, threshold: int) -> ExactResult:
    """P(gcd(X_1, X_2) > threshold), an exact pmf tail sum."""
    table.check_index(n)
    if not 0 <= threshold <= n:
        raise ValueError(f"threshold must be in 0..{n}, got {threshold}")
    blocks = _exact_gcd_counts(table, n, 2, threshold)
    head = sum((hi - lo + 1) * c for lo, hi, c in blocks)
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
        total = int(np.sum(self.numerators, dtype=object))
        return ExactResult.from_ratio(total, self.n, self.r + 1)

    def variance(self) -> ExactResult:
        nums = self.numerators[1:].tolist()
        s1 = sum(nums)
        s2 = sum(v * v for v in nums)
        return ExactResult.from_ratio(self.n * s2 - s1 * s1, self.n, 2 * self.r + 2)


def marginal_profile(table: ArithTable, n: int, r: int, kind: str) -> MarginalProfile:
    """The whole profile as the divisor sums sum_{j|k} g(j) floor(n/j)^r."""
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if kind == "probability":
        g = table.mobius
    elif kind == "expectation":
        g = table.totient(1)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return MarginalProfile(n, r, kind, _divisor_profile(g, n, r))


def marginal_error_bound_check(profile: MarginalProfile, table: ArithTable):
    """Slack of the divisor-sum approximation bounds over the whole profile.

    probability kind:  |U_r(k) - phi_r(k)/k^r|          <=  r tau(k)/n
    expectation kind:  0 <= P_r(k)/k^r - W_r(k)         <=  k/n      (r = 1)
                                                            r tau(k)/n (r >= 2)
    Returns (max_ratio, argmax_k) where max_ratio is the largest observed
    deviation-to-bound ratio; raises if any k violates its bound.
    """
    n, r = profile.n, profile.r
    phi = table.totient(1)
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
            target = Fraction(
                sum(int(phi[d]) * (k // d) ** r for d in divisors(table, k)), k**r
            )
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


def mean_mu(table: ArithTable, n: int, r: int) -> ExactResult:
    """Average of the U_r profile; identically P(gcd of r+1 variables = 1)."""
    return cesaro_expectation(table, table.mobius, n, r + 1)


def mean_nu(table: ArithTable, n: int, r: int) -> ExactResult:
    """Average of the W_r profile; identically E gcd of r+1 variables."""
    return cesaro_expectation(table, table.totient(1), n, r + 1)


def var_c(table: ArithTable, n: int, r: int) -> ExactResult:
    """Population variance of the marginal probability profile U_r."""
    return marginal_profile(table, n, r, "probability").variance()


def var_d(table: ArithTable, n: int, r: int) -> ExactResult:
    """Population variance of the marginal expectation profile W_r."""
    return marginal_profile(table, n, r, "expectation").variance()


# --- shared-variable covariances ------------------------------------------

def _kernel_weights(table: ArithTable, kind: str, q: int):
    if kind == "indicator":
        return table.mobius
    if kind == "gcd":
        return table.totient(1)
    if kind == "moment":
        return table.totient(q)
    raise ValueError(f"kind must be one of ['gcd', 'indicator', 'moment'], got {kind!r}")


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

    with G_s(d) the number of s-tuples in [n]^s with gcd exactly d.  The
    result is exact; it is gated against exhaustive enumeration and the
    literal double sum in the test suite.
    """
    table.check_index(n)
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got s={s}, r={r}")
    if s == 0:
        # no shared variables: the kernels are independent
        return ExactResult.from_ratio(0, n, 2 * r)

    g = _kernel_weights(table, kind, q)
    h = _divisor_profile(g, n, r - s)
    exy = 0
    for lo, hi, c in _exact_gcd_counts(table, n, s, n):
        exy += c * sum(v * v for v in h[lo : hi + 1].tolist())
    mean_num = _floor_power_sum(_exact_prefix(g, n), n, r)
    cov_num = exy * n**s - mean_num * mean_num
    return ExactResult.from_ratio(cov_num, n, 2 * r)


def var_C(table: ArithTable, n: int, m: int, r: int) -> ExactResult:
    """Variance of the count of coprime r-subsets in a sample of length m.

    V = sum_{s=0..r} C(m,s) C(m-s,r-s) C(m-r,r-s) gamma_{r,s}; the binomial
    product counts pairs of r-subsets of {1..m} with intersection size s.
    """
    return _u_statistic_variance(table, n, m, r, "indicator", 1)


def var_Z(table: ArithTable, n: int, m: int, r: int, q: int = 1) -> ExactResult:
    """Variance of the sum of gcd^q over r-subsets of a sample of length m."""
    return _u_statistic_variance(table, n, m, r, "moment", q)


def _u_statistic_variance(table, n, m, r, kind, q) -> ExactResult:
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    num = 0
    for s in range(0, r + 1):
        weight = comb(m, s) * comb(m - s, r - s) * comb(m - r, r - s)
        if weight == 0:
            continue
        num += weight * shared_covariance(table, n, r, s, kind, q).numerator
    return ExactResult.from_ratio(num, n, 2 * r)


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
    nums = _divisor_profile(table.totient(q), n, r - 1)[1:].tolist()
    return ExactResult.from_ratio(sum(v * v for v in nums), n, 2 * r - 1)


def mixed_moment_omega(table: ArithTable, n: int, r: int, q: int) -> ExactResult:
    """Covariance form of the mixed moment: omega = pi - (E gcd^q)^2."""
    pi = mixed_moment_pi(table, n, r, q)
    mean = gcd_moment(table, n, r, q)
    return ExactResult.from_ratio(pi.numerator * n - mean.numerator**2, n, 2 * r)
