"""Limiting constants as truncated Euler products with explicit tail bars.

Every constant here is an infinite product over primes.  Truncating a
product whose local factor is 1 + O(p^-a) at a cutoff P leaves a relative
tail of order sum_{p>P} p^-a, which for a near 2 is too large for tight
identity checks.  Each product is therefore evaluated in accelerated form:
known zeta factors are split off analytically ("zeta shifts"), leaving a
corrected local factor 1 + O(p^-a') with a' >= 3, and the declared tail
exponent a' drives an explicit error bar

    |log tail|  <=  C * sum_{k>P} k^-a'  <=  C * P^(1-a') / (a'-1),

with C calibrated on the last primes before the cutoff.  Values are
deterministic given the cutoff.  Nothing is cached here but the primes
(`arith.primes_up_to`): a caller that needs a constant twice keeps its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .arith import (CHUNK, pillai_local, prefix_sums_at, prime_power_sieve, prime_power_windows,
                    primes_up_to, sum_over_multiples, totient_local)

DEFAULT_CUTOFF = 1_000_000

# Bernoulli numbers B_2, B_4, ... for the Euler-Maclaurin zeta tail.
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
)


def zeta(t: float) -> float:
    """Riemann zeta for real t > 1, Euler-Maclaurin accelerated.

    Direct summation to N = 64 plus the integral, half-term and Bernoulli
    corrections; with these many correction terms the truncation error is
    below 1e-20 for every t > 1, far inside double precision.
    """
    if t <= 1:
        raise ValueError(f"zeta requires t > 1, got {t}")
    n = 64
    head = sum(k**-t for k in range(1, n))
    tail = n ** (1 - t) / (t - 1) + 0.5 * n**-t
    coeff = t
    power = n ** (-t - 1)
    for i, b in enumerate(_BERNOULLI, start=1):
        tail += b / math.factorial(2 * i) * coeff * power
        coeff *= (t + 2 * i - 1) * (t + 2 * i)
        power /= n * n
    return head + tail


class ProductValue(NamedTuple):
    value: float
    tail_bound: float
    cutoff: int


@dataclass(frozen=True)
class ProductSpec:
    """Rule for one Euler product.

    local_factor maps a float array of primes to raw per-prime factors.
    zeta_shifts (s, e) move zeta(s)^e out of the product analytically:
    the evaluated product is  prod_i zeta(s_i)^{e_i} * prod_p [raw(p) *
    prod_i (1 - p^{-s_i})^{e_i}],  identical to prod_p raw(p) in the limit
    but with the corrected factor decaying at `tail_exponent`.
    """

    local_factor: Callable[[np.ndarray], np.ndarray]
    prime_cutoff: int
    tail_exponent: float
    zeta_shifts: tuple = ()
    prefactor: float = 1.0


# the tail bar's constant is calibrated on this many primes below the cutoff
_CALIBRATION_PRIMES = 5


def euler_product(spec: ProductSpec) -> ProductValue:
    """Evaluate a ProductSpec; returns (value, tail bound, cutoff).

    The corrected factors are evaluated CHUNK primes at a time into one
    array of their logs, so beside the float primes the product holds one
    more prime-sized array and a few CHUNK-entry temporaries; each factor
    and the log sum are the values one whole-array pass gives.

    Raises ValueError when fewer than `_CALIBRATION_PRIMES` primes lie at
    or below the cutoff: the tail bar is calibrated on those last primes.
    Raises CapacityError past the table cap (`primes_up_to`).
    """
    p = primes_up_to(spec.prime_cutoff).astype(np.float64)
    if p.size < _CALIBRATION_PRIMES:
        raise ValueError(
            f"cutoff {spec.prime_cutoff} leaves {p.size} primes; the tail bound "
            f"is calibrated on the last {_CALIBRATION_PRIMES} (cutoff >= 11)"
        )
    logs = np.empty_like(p)
    for a in range(0, p.size, CHUNK):
        q = p[a : a + CHUNK]
        factors = np.asarray(spec.local_factor(q), dtype=np.float64)
        for s, e in spec.zeta_shifts:
            factors = factors * (1.0 - q**-s) ** e
        if np.any(factors <= 0):
            bad = int(q[np.argmax(factors <= 0)])
            raise ValueError(f"nonpositive local factor at p={bad}")
        np.log(factors, out=logs[a : a + CHUNK])
    log_total = float(logs.sum())
    value = math.exp(log_total) * spec.prefactor
    for s, e in spec.zeta_shifts:
        value *= zeta(s) ** e

    a = spec.tail_exponent
    if a <= 1:
        raise ValueError("tail_exponent must exceed 1 for a convergent product")
    # calibrate |log f(p)| ~ C p^-a on the last primes, then integrate the tail
    last = slice(-_CALIBRATION_PRIMES, None)
    c_est = float(np.max(np.abs(logs[last]) * p[last] ** a))
    tail_log = 2.0 * c_est * spec.prime_cutoff ** (1 - a) / (a - 1)
    # factors within an ulp of 1 contribute nothing to the log sum, so the
    # bar cannot honestly drop below the float accumulation noise
    noise = (len(p) + 1) * 2.0**-53
    bound = abs(value) * (
        (math.expm1(tail_log) if tail_log < 1 else math.exp(tail_log)) + noise
    )
    return ProductValue(value, bound, spec.prime_cutoff)


# --- named constants -------------------------------------------------------

def pairwise_coprime_T(m: int, cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """Limit probability that an m-sample is pairwise coprime.

    T_m = prod_p (1 - 1/p)^(m-1) (1 + (m-1)/p);  T_2 = 1/zeta(2).
    The local factor is 1 - C(m,2)/p^2 + O(p^-3), so one zeta(2) shift of
    weight -C(m,2) accelerates it.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    half = m * (m - 1) // 2

    def factor(p):
        return (1 - 1 / p) ** (m - 1) * (1 + (m - 1) / p)

    spec = ProductSpec(factor, cutoff, 3.0, zeta_shifts=((2.0, -half),))
    return euler_product(spec)


def schur_constant(s: int, l: int, cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """Limiting average of (phi_s(k)/k^s)^l.

    S_l^(s) = prod_p (1 - (1/p)[1 - (1 - p^-s)^l]); S_1^(s) = 1/zeta(s+1).
    """
    if s < 1 or l < 1:
        raise ValueError(f"need s, l >= 1, got s={s}, l={l}")

    def factor(p):
        return 1 - (1 - (1 - p ** (-float(s))) ** l) / p

    spec = ProductSpec(factor, cutoff, min(2 * s + 1, s + 2), zeta_shifts=((float(s + 1), -l),))
    return euler_product(spec)


def delta(cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """Growth constant of the product-restricted totient-gcd double sum:

    sum_{i j <= N} phi(i)phi(j) gcd(i,j) / (ij)^2  ~  delta * ln(N)^3,
    delta = (1/12) prod_p (1 - 5/p^2 + 5/p^3 - 1/p^5).
    """

    def factor(p):
        return 1 - 5 / p**2 + 5 / p**3 - 1 / p**5

    spec = ProductSpec(factor, cutoff, 4.0, zeta_shifts=((2.0, -5), (3.0, 5)), prefactor=1 / 12)
    return euler_product(spec)


def delta_s(s: int, cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """Order-s analogue of `delta` for the Jordan-totient double sums.

    delta_s = (1/12) prod_p (1 - 4/p^(s+1) - 1/p^2 + 4/p^(s+2)
                               + 1/p^(2s+1) - 1/p^(2s+3));
    s = 1 reduces to exactly the factor of `delta`.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s == 1:
        return delta(cutoff)

    def factor(p):
        return (1 - 4 / p ** (s + 1) - 1 / p**2 + 4 / p ** (s + 2)
                + 1 / p ** (2 * s + 1) - 1 / p ** (2 * s + 3))

    spec = ProductSpec(
        factor, cutoff, min(s + 2, 4),
        zeta_shifts=((2.0, -1), (float(s + 1), -4)),
        prefactor=1 / 12,
    )
    return euler_product(spec)


def delta_toth(cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """Growth constant of the mean square of P(k)/k:

    (1/n) sum_{k<=n} (P(k)/k)^2  ~  delta_toth * ln(n)^3,
    delta_toth = (1/pi^2) prod_p (1 + 1/p^3 - 4/(p(p+1))) = 2 * delta.
    """

    def factor(p):
        return 1 + 1 / p**3 - 4 / (p * (p + 1))

    spec = ProductSpec(
        factor, cutoff, 4.0,
        zeta_shifts=((2.0, -4), (3.0, 5)),
        prefactor=1 / math.pi**2,
    )
    return euler_product(spec)


def _m_shifts(t: float, s: int):
    if s == 1:
        return ((t + 1, -2), (2 * t, -3))
    return ((t + s, -2), (2 * t, -1), (2 * t + s - 1, -2))


def M_constant(t: float, s: int = 1, cutoff: int = DEFAULT_CUTOFF) -> ProductValue:
    """The convergent totient-gcd double series for t > 1:

    M_s(t) = sum_{i,j} phi_s(i) phi_s(j) gcd(i,j) / (ij)^(s+t)
           = zeta(2t-1) zeta(t)^2 * prod_p (local factor),

    evaluated from the zeta(t)^2-extracted product form.  s = 1 is the
    plain Euler-phi case M(t).
    """
    if t <= 1:
        raise ValueError(f"M_constant requires t > 1, got {t}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")

    def factor(p):
        return (1 - 2 / p ** (t + s) - 1 / p ** (2 * t) - 2 / p ** (2 * t + s - 1)
                + 2 / p ** (2 * t + s) + 1 / p ** (2 * t + 2 * s - 1)
                + 2 / p ** (3 * t + s - 1) - 1 / p ** (4 * t + 2 * s - 1))

    tail = min(2 * t + s, 3 * t + s - 1, 2 * (t + s)) if s > 1 else min(2 * t + 1, 3 * t)
    spec = ProductSpec(factor, cutoff, tail, zeta_shifts=_m_shifts(t, s))
    pv = euler_product(spec)
    scale = zeta(2 * t - 1) * zeta(t) ** 2
    return ProductValue(pv.value * scale, pv.tail_bound * scale, cutoff)


def m_product_forms(t: float, cutoff: int = DEFAULT_CUTOFF) -> tuple:
    """Both displayed product forms of M(t) (s = 1), each accelerated.

    Form A: zeta(2t-1) prod (1 + 2/p^t - 2/p^(t+1) - 1/p^(2t+1))
    Form B: zeta(2t-1) zeta(t)^2 prod (1 - 2/p^(t+1) - 3/p^(2t)
                 + 3/p^(2t+1) + 2/p^(3t) - 1/p^(4t+1))
    Returns (value_A, value_B); their agreement validates the algebra of
    the two displays independently of the truncation.
    """
    if t <= 1:
        raise ValueError(f"requires t > 1, got {t}")

    def factor_a(p):
        return 1 + 2 / p**t - 2 / p ** (t + 1) - 1 / p ** (2 * t + 1)

    def factor_b(p):
        return (1 - 2 / p ** (t + 1) - 3 / p ** (2 * t) + 3 / p ** (2 * t + 1)
                + 2 / p ** (3 * t) - 1 / p ** (4 * t + 1))

    tail = min(2 * t + 1, 3 * t)
    shifts = ((t, 2), (t + 1, -2), (2 * t, -3))
    spec_a = ProductSpec(factor_a, cutoff, tail, zeta_shifts=shifts)
    spec_b = ProductSpec(factor_b, cutoff, tail, zeta_shifts=((t + 1, -2), (2 * t, -3)))
    za = zeta(2 * t - 1)
    zb = za * zeta(t) ** 2
    return (euler_product(spec_a).value * za, euler_product(spec_b).value * zb)


# --- limit variances --------------------------------------------------------

def limit_var_c(r: int, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Limit of the variance of the marginal probability profile U_r:

    S_2^(r) - (S_1^(r))^2, strictly positive.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return schur_constant(r, 2, cutoff).value - schur_constant(r, 1, cutoff).value ** 2


def limit_var_d(r: int, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Limit of the variance of the marginal expectation profile W_r, r >= 2:

    M(r) - (zeta(r)/zeta(r+1))^2, equivalently the double series
    sum phi(i)phi(j)(gcd(i,j)-1)/(ij)^(r+1), which
    `_gcd_minus_one_double_sum` truncates as an independent reference.

    r = 1 is rejected: that variance diverges like ln(n)^3.
    """
    if r < 2:
        raise ValueError("r must be >= 2 (the r = 1 profile variance diverges)")
    return M_constant(float(r), 1, cutoff).value - (zeta(r) / zeta(r + 1)) ** 2


def _gcd_minus_one_double_sum(r: int, bound: int) -> float:
    """sum_{i,j} phi(i)phi(j)(gcd(i,j)-1)/(ij)^(r+1), truncated at i, j <= bound.

    gcd-1 = sum_{d|i, d|j, d>=2} phi(d), so this is the shared-divisor
    decomposition without its d = 1 term.
    """
    return float(_totient_gcd_terms(r + 1, bound)[1:].sum())


def _totient_gcd_terms(exponent: float, bound: int) -> np.ndarray:
    """phi(d) T_d^2 for d = 1..bound, with T_d = sum_{d|i<=bound} phi(i)/i^exponent.

    Since gcd(i,j) = sum_{d|i, d|j} phi(d), these terms add up to the
    square-truncated double series
    sum_{i,j<=bound} phi(i)phi(j) gcd(i,j)/(ij)^exponent.  One sum over
    multiples gives every T_d in O(bound log log bound) work instead of the
    O(bound^2) pairs.
    """
    primes = primes_up_to(bound)
    # every partial product is an integer below 2^53, so phi is exact in float
    phi = prime_power_sieve(bound, primes, totient_local(1), np.float64)
    t = phi / np.arange(bound + 1.0).clip(1) ** exponent
    sum_over_multiples(t, primes.tolist())
    return phi[1:] * t[1:] * t[1:]


# --- finite partial-sum trends ---------------------------------------------

def tauberian_trend(kind: str, n_grid) -> list[float]:
    """Ratio-to-ln(N)^3 of the slowly divergent partial sums, per grid point.

    kind "corollary22": sum_{i j <= N} phi(i)phi(j) gcd(i,j)/(ij)^2,
         which tends to `delta`.
    kind "toth":        same summand over lcm(i,j) <= N, tends to `delta_toth`.
    kind "pillai_sq":   (1/N) sum_{k<=N} (P(k)/k)^2, tends to `delta_toth`.

    Returns the ratios aligned to the ascending grid; a caller compares them
    with the Euler product it evaluates itself.  Convergence is O(1/ln N):
    only trend assertions are meaningful.

    Each sum is the prefix sum of one float64 multiplicative function,
    sieved window by window by `prime_power_windows` from the primes up to
    the largest grid point and summed as each window passes (`prefix_sums_at`),
    so a trend reads no sieved table function and holds no array of N entries.
    """
    grid = sorted(int(x) for x in n_grid)
    if not grid or grid[0] < 10:
        raise ValueError("grid points must be >= 10")
    sums = {"corollary22": partial(_mass_sums, _product_local_mass),
            "toth": partial(_mass_sums, _lcm_local_mass),
            "pillai_sq": _pillai_mean_square}.get(kind)
    if sums is None:
        raise ValueError(f"unknown trend kind {kind!r}")
    return [s / math.log(n) ** 3 for n, s in zip(grid, sums(primes_up_to(grid[-1]), grid))]


def _product_local_mass(p, a: int):
    """h(p^a) = sum_{al+be=a} phi(p^al) phi(p^be) p^min(al,be) / p^(2a).

    The `corollary22` summand w(i) w(j) gcd(i,j), w(i) = phi(i)/i^2, is
    multiplicative in the pair, so its mass h(k) = sum_{i j = k} w(i) w(j)
    gcd(i,j) is multiplicative in k, and the sum over i j <= N is its prefix
    sum.  p is a Python int (exact powers, one rounding per term) or a float
    array.
    """
    phi = [1] + [totient_local(1)(p, e) for e in range(1, a + 1)]
    total = 0.0
    for al in range(a + 1):
        total = total + phi[al] * phi[a - al] * p ** min(al, a - al) / p ** (2 * a)
    return total


def _lcm_local_mass(p, a: int):
    """T(p^a) = sum_{max(al,be)=a} phi(p^al) phi(p^be) p^min(al,be) / p^(2(al+be)).

    The per-lcm mass of the same summand, multiplicative in L = lcm(i,j): the
    `toth` sum over lcm(i,j) <= N is its prefix sum.  p is a Python int
    (exact powers, one rounding per term) or a float array.
    """
    phi = [1] + [totient_local(1)(p, e) for e in range(1, a + 1)]
    total = 0.0
    for al, be in [(al, a) for al in range(a)] + [(a, be) for be in range(a + 1)]:
        total = total + phi[al] * phi[be] * p ** min(al, be) / p ** (2 * (al + be))
    return total


def _mass_sums(local, primes, grid):
    """sum_{k <= N} h(k) per grid N, h the float64 multiplicative mass with h(p^a) = local(p, a)."""
    return prefix_sums_at(prime_power_windows(grid[-1], primes, local, np.float64), grid,
                          np.float64).tolist()


def _pillai_mean_square(primes, grid):
    """(1/N) sum_{k <= N} (P(k)/k)^2 for Pillai's P(k) = sum_{i<=k} gcd(i,k).

    P is sieved in float64 from P(p^e) = p^(e-1) ((e+1) p - e).  Every
    partial product is an integer below P(k) <= k tau(k) < 2^53, so P is
    exact, and each P(k)/k is the correctly rounded quotient, divided in
    place CHUNK entries at a time.
    """
    def squares():
        for lo, w in prime_power_windows(grid[-1], primes, pillai_local(1), np.float64):
            for a in range(max(lo, 1), lo + w.size, CHUNK):
                k = np.arange(a, min(a + CHUNK, lo + w.size), dtype=np.float64)
                w[a - lo : a - lo + k.size] /= k
            w *= w
            yield lo, w

    return [s / n for n, s in zip(grid, prefix_sums_at(squares(), grid, np.float64).tolist())]


def all_constants(cutoff: int = DEFAULT_CUTOFF) -> dict:
    """Named constants with error bars, for the CLI constants table.

    Each Euler product is evaluated once: `delta_1` is `delta`, and the
    limit variances come from the Schur and M values above, by the formulas
    of `limit_var_c` and `limit_var_d`.
    """
    out = {}

    def put(name, pv):
        out[name] = {"value": pv.value, "tail_bound": pv.tail_bound}
        return pv.value

    for t in (2, 3, 4):
        out[f"zeta({t})"] = {"value": zeta(t), "tail_bound": 1e-15}
    d = delta(cutoff)
    put("delta", d)
    for s in (1, 2, 3):
        put(f"delta_{s}", d if s == 1 else delta_s(s, cutoff))
    put("delta_toth", delta_toth(cutoff))
    for m in (2, 3, 4, 5):
        put(f"T_{m}", pairwise_coprime_T(m, cutoff))
    schur = {(s, l): put(f"S_{l}^({s})", schur_constant(s, l, cutoff))
             for s in (1, 2, 3) for l in (1, 2)}
    m_values = {t: put(f"M({t})", M_constant(t, 1, cutoff)) for t in (1.5, 2.0, 3.0)}
    for r in (1, 2, 3):
        out[f"limit_var_c({r})"] = {"value": schur[r, 2] - schur[r, 1] ** 2, "tail_bound": None}
    for r in (2, 3):
        out[f"limit_var_d({r})"] = {"value": m_values[r] - (zeta(r) / zeta(r + 1)) ** 2,
                                    "tail_bound": None}
    out["cutoff"] = cutoff
    return out
