"""Exact finite-n gcd statistics for uniform samples from {1..n}.

Everything here evaluates closed formulas of the form

    E F(gcd(X_1..X_r)) = (1/n^r) sum_{j<=n} (mu*F)(j) floor(n/j)^r

and its marginal variant over divisors of a pinned value k, together with
the derived means, variances and U-statistic covariances.  All results are
exact rationals: an integer numerator over a structural power of n.

The floor sums are evaluated blockwise over the O(sqrt n) distinct values
of floor(n/j) against exact prefix sums, so single quantities cost
O(sqrt n) after an O(n) prefix pass.  Shared-variable covariances use a
divisor-pair enumeration grouped by the lcm (subquadratic; only pairs with
lcm(i,j) <= n contribute).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd as _gcd

import numpy as np

from .arith import ArithTable, divisors

_INT64_SAFE = 2**62


class BudgetError(Exception):
    """Operation refused: cost beyond the configured budget."""


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
        numerator = int(numerator)
        value = float(Fraction(numerator, base**power))
        return cls(numerator, base, power, value)

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
    prefix = _exact_prefix(table.mobius, n)
    return [
        ExactResult.from_ratio(_floor_power_sum(prefix, n, r, k), n, r)
        for k in range(1, n + 1)
    ]


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
    prefix = _exact_prefix(table.mobius, n)
    head = sum(_floor_power_sum(prefix, n, 2, k) for k in range(1, threshold + 1))
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
    numerators: object  # int64 array or list of ints, index 0 unused

    def value(self, k: int) -> ExactResult:
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside 1..{self.n}")
        return ExactResult.from_ratio(int(self.numerators[k]), self.n, self.r)

    def float_values(self) -> np.ndarray:
        nums = self.numerators
        if isinstance(nums, np.ndarray):
            arr = nums[1:].astype(np.float64)
        else:
            arr = np.array([float(v) for v in nums[1:]])
        return arr / float(self.n) ** self.r

    def mean(self) -> ExactResult:
        total = int(np.sum(self.numerators, dtype=object)) if isinstance(
            self.numerators, np.ndarray
        ) else sum(self.numerators)
        return ExactResult.from_ratio(total, self.n, self.r + 1)

    def variance(self) -> ExactResult:
        nums = self.numerators[1:]
        if isinstance(self.numerators, np.ndarray):
            nums = nums.tolist()
        s1 = sum(nums)
        s2 = sum(v * v for v in nums)
        return ExactResult.from_ratio(self.n * s2 - s1 * s1, self.n, 2 * self.r + 2)


def marginal_profile(table: ArithTable, n: int, r: int, kind: str) -> MarginalProfile:
    """Build the whole profile in O(n log n) by the inverted divisor loop."""
    table.check_index(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if kind == "probability":
        g = table.mobius
    elif kind == "expectation":
        g = table.totient(1)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")

    prefix = _exact_prefix(np.abs(g) if isinstance(g, np.ndarray) else [abs(v) for v in g], n)
    bound = _floor_power_sum(prefix, n, r)
    if isinstance(g, np.ndarray) and bound < _INT64_SAFE:
        acc = np.zeros(n + 1, dtype=np.int64)
        for j in range(1, n + 1):
            w = int(g[j])
            if w:
                acc[j::j] += w * (n // j) ** r
        return MarginalProfile(n, r, kind, acc)
    acc = [0] * (n + 1)
    for j in range(1, n + 1):
        w = int(g[j])
        if w:
            w *= (n // j) ** r
            for k in range(j, n + 1, j):
                acc[k] += w
    return MarginalProfile(n, r, kind, acc)


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
    max_n: int = 200_000,
) -> ExactResult:
    """Covariance of two r-tuple gcd kernels sharing exactly s variables.

    With g = mu (indicator kernel) or g = phi_q (gcd^q kernel),

      E[XY] = (1/n^(2r-s)) sum_{i,j<=n} g(i) g(j)
                floor(n/i)^(r-s) floor(n/j)^(r-s) floor(n/lcm(i,j))^s

    and the covariance subtracts the squared single-kernel mean.  For
    s >= 1 only pairs with lcm(i,j) <= n contribute, so the double sum is
    enumerated by L = lcm over divisor pairs of L (cost ~ sum tau(L)^2,
    far below n^2).  The result is exact; it is gated against exhaustive
    enumeration in the test suite before anything downstream trusts it.
    """
    table.check_index(n)
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got s={s}, r={r}")
    if n > max_n:
        raise BudgetError(f"n={n} beyond the covariance enumeration budget ({max_n})")
    if s == 0:
        # no shared variables: the kernels are independent
        return ExactResult.from_ratio(0, n, 2 * r)

    g = _kernel_weights(table, kind, q)
    squarefree_only = kind == "indicator"

    exy = 0
    for bigl in range(1, n + 1):
        if squarefree_only and table.mobius[bigl] == 0:
            continue
        ds = divisors(table, bigl)
        items = [(d, int(g[d]), (n // d) ** (r - s)) for d in ds if int(g[d]) != 0]
        if not items:
            continue
        inner = 0
        for a, (i, gi, fi) in enumerate(items):
            for j, gj, fj in items[a:]:
                if i * j // _gcd(i, j) != bigl:
                    continue
                term = gi * gj * fi * fj
                inner += term if i == j else 2 * term
        if inner:
            exy += inner * (n // bigl) ** s
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
    g = table.totient(q)
    prefix = _exact_prefix(np.abs(g) if isinstance(g, np.ndarray) else [abs(v) for v in g], n)
    bound = _floor_power_sum(prefix, n, r - 1)
    if isinstance(g, np.ndarray) and bound < _INT64_SAFE:
        acc = np.zeros(n + 1, dtype=np.int64)
        for j in range(1, n + 1):
            acc[j::j] += int(g[j]) * (n // j) ** (r - 1)
        nums = acc[1:].tolist()
    else:
        acc = [0] * (n + 1)
        for j in range(1, n + 1):
            w = int(g[j]) * (n // j) ** (r - 1)
            for k in range(j, n + 1, j):
                acc[k] += w
        nums = acc[1:]
    return ExactResult.from_ratio(sum(v * v for v in nums), n, 2 * r - 1)


def mixed_moment_omega(table: ArithTable, n: int, r: int, q: int) -> ExactResult:
    """Covariance form of the mixed moment: omega = pi - (E gcd^q)^2."""
    pi = mixed_moment_pi(table, n, r, q)
    mean = gcd_moment(table, n, r, q)
    return ExactResult.from_ratio(pi.numerator * n - mean.numerator**2, n, 2 * r)
