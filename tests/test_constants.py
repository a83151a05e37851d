import math

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from gcdstats import constants
from gcdstats.arith import DEFAULT_MAX_N, CapacityError, build_table, primes_up_to
from gcdstats.constants import ProductSpec, euler_product, zeta

CUTOFF = 1_000_000


def _plain_gcd_double_sum(w):
    """sum_{i,j} w[i-1] w[j-1] gcd(i,j), one row of the O(B^2) pairs at a time."""
    idx = np.arange(1, len(w) + 1)
    total = 0.0
    for i in range(1, len(w) + 1):
        total += w[i - 1] * float(np.dot(w, np.gcd(i, idx)))
    return total


def _plain_product_restricted_sums(table, grid):
    """sum_{i j <= N} w(i) w(j) gcd(i,j), w = phi/k^2, one row of i at a time."""
    top = grid[-1]
    w = table.totient(1)[: top + 1].astype(np.float64)
    w[1:] /= np.arange(1, top + 1, dtype=np.float64) ** 2
    out = []
    for n in grid:
        total = 0.0
        js = np.arange(1, n + 1)
        for i in range(1, n + 1):
            cap = n // i
            total += w[i] * float(np.dot(w[1 : cap + 1], np.gcd(i, js[:cap])))
        out.append(total)
    return out


def _plain_lcm_restricted_sums(table, grid):
    """sum over lcm(i,j) <= N, the per-lcm mass built k by k from spf divisions."""
    top = grid[-1]
    spf = table.smallest_prime_factor

    def local_mass(p, a):
        def ph(e):
            return 1 if e == 0 else p**e - p ** (e - 1)
        total = 0.0
        for al in range(a + 1):
            for be in range(a + 1):
                if max(al, be) == a:
                    total += ph(al) * ph(be) * p ** min(al, be) / p ** (2 * (al + be))
        return total

    cache = {}
    mass = np.zeros(top + 1)
    mass[1] = 1.0
    for k in range(2, top + 1):
        p = int(spf[k])
        rest = k // p
        a = 1
        while rest % p == 0:
            rest //= p
            a += 1
        key = (p, a)
        v = cache.get(key)
        if v is None:
            v = local_mass(p, a)
            cache[key] = v
        mass[k] = mass[rest] * v
    prefix = np.cumsum(mass)
    return [float(prefix[n]) for n in grid]


def _plain_pillai_mean_square(table, grid):
    """(1/N) sum_{k <= N} (P(k)/k)^2, with P(k) = sum_{d|k} phi(d) k/d added
    in exact integers at every multiple k of each d."""
    top = grid[-1]
    phi = table.totient(1)
    pillai = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        pillai[d::d] += int(phi[d]) * np.arange(1, top // d + 1)
    val = pillai.astype(np.float64)
    val[1:] /= np.arange(1, top + 1, dtype=np.float64)
    prefix = np.cumsum(val * val)
    return [float(prefix[n]) / n for n in grid]


def test_zeta_closed_forms():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-14
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-14


def test_zeta_against_direct_series_and_scipy():
    # direct-series oracle with integral tail bracket (fsum: exact head)
    n = 200_000
    head = math.fsum(k**-3.0 for k in range(1, n + 1))
    lo = head + (n + 1) ** -2.0 / 2 - 5e-16
    hi = head + n**-2.0 / 2 + 5e-16
    assert lo <= zeta(3) <= hi
    for t in (1.5, 2.0, 2.5, 3.0, 4.0, 7.5, 12.0):
        assert abs(zeta(t) - float(scipy_zeta(t))) < 1e-12 * zeta(t)


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def test_euler_product_examples():
    pv = euler_product(ProductSpec(lambda p: 1 / (1 - p**-2.0), CUTOFF, 2.0))
    assert abs(pv.value - zeta(2)) < 1e-6
    assert abs(pv.value - zeta(2)) < pv.tail_bound
    pv = euler_product(ProductSpec(lambda p: np.ones_like(p), CUTOFF, 2.0))
    assert pv.value == 1.0
    pv = euler_product(ProductSpec(lambda p: 1 - p**-2.0, CUTOFF, 2.0))
    assert abs(pv.value - 1 / zeta(2)) < 1e-6


def test_euler_product_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_product(ProductSpec(lambda p: 1 - 2.0 / p, 100, 2.0))


@pytest.mark.parametrize("cutoff", [-5, 0, 1, 2, 10])
def test_euler_product_rejects_cutoffs_below_the_calibration_primes(cutoff):
    # the tail bar is calibrated on the last 5 primes, and 11 is the 5th
    with pytest.raises(ValueError, match="tail bound"):
        euler_product(ProductSpec(lambda p: 1 - p**-2.0, cutoff, 2.0))
    with pytest.raises(ValueError):
        constants.delta(cutoff)
    assert euler_product(ProductSpec(lambda p: 1 - p**-2.0, 11, 2.0)).value > 0


def test_tail_bound_honest_under_cutoff_doubling():
    # doubling the cutoff must move the value by less than the reported bar
    for fn in (constants.delta, constants.delta_toth):
        a = fn(CUTOFF)
        b = fn(2 * CUTOFF)
        assert abs(b.value - a.value) <= a.tail_bound
    a = constants.schur_constant(1, 2, CUTOFF)
    b = constants.schur_constant(1, 2, 2 * CUTOFF)
    assert abs(b.value - a.value) <= a.tail_bound


def test_cutoff_monotonicity_on_slow_products():
    # direction follows the sign of log f(p); measurable on unaccelerated
    # products whose tails dwarf float noise (the accelerated constants
    # move by less than their noise floors, covered by the bar test above)
    down = [euler_product(ProductSpec(lambda p: 1 - p**-2.0, c, 2.0)).value
            for c in (10_000, 100_000, 1_000_000)]
    assert down[0] > down[1] > down[2]
    up = [euler_product(ProductSpec(lambda p: 1 / (1 - p**-2.0), c, 2.0)).value
          for c in (10_000, 100_000, 1_000_000)]
    assert up[0] < up[1] < up[2]


def test_pairwise_coprime_T():
    t2 = constants.pairwise_coprime_T(2, CUTOFF)
    assert abs(t2.value - 1 / zeta(2)) < 1e-6
    values = [constants.pairwise_coprime_T(m, CUTOFF).value for m in range(2, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] > 0
    with pytest.raises(ValueError):
        constants.pairwise_coprime_T(1)


def test_schur_constants():
    for s in (1, 2, 3, 4):
        got = constants.schur_constant(s, 1, CUTOFF)
        assert abs(got.value - 1 / zeta(s + 1)) <= max(got.tail_bound, 1e-12)
    s11 = constants.schur_constant(1, 1, CUTOFF).value
    s12 = constants.schur_constant(1, 2, CUTOFF).value
    assert s12 > s11**2  # strict
    assert abs(s11 - 0.607927) < 1e-6


def test_delta_value():
    d = constants.delta(CUTOFF)
    assert abs(d.value - 0.01186) < 5e-5
    assert d.tail_bound < 1e-9


def test_delta_s():
    assert constants.delta_s(1, CUTOFF).value == constants.delta(CUTOFF).value
    assert constants.delta_s(2, CUTOFF).value > 0
    with pytest.raises(ValueError):
        constants.delta_s(0)


def test_delta_toth_identity():
    d = constants.delta(CUTOFF).value
    dt = constants.delta_toth(CUTOFF).value
    assert abs(dt - 2 * d) < 1e-10


def test_per_prime_factor_identity():
    p = primes_up_to(10_000).astype(np.float64)
    lhs = (1 + p**-3 - 4 / (p * (p + 1))) * (1 - p**-2)
    rhs = 1 - 5 * p**-2 + 5 * p**-3 - p**-5
    assert float(np.max(np.abs(lhs - rhs))) < 1e-15


def test_m_product_forms_agree():
    for t in (1.5, 2.0, 3.0):
        a, b = constants.m_product_forms(t, CUTOFF)
        assert abs(a - b) < 1e-10


def test_m_constant_truncation_tail_scale():
    # the plain truncated double sum approaches M(2) from below at rate ~2/B
    from gcdstats.verify import _m2_truncated_double_sum

    m2 = constants.M_constant(2.0, 1, CUTOFF).value
    gap = m2 - _m2_truncated_double_sum(1000)
    assert 1.5e-3 < gap < 2.5e-3


@pytest.mark.parametrize("bound", [1000, 5000])
def test_m2_divisor_decomposition_is_the_plain_double_sum(bound):
    # the shared-divisor route sums the same finite series as the pair loop
    from gcdstats.verify import _m2_truncated_double_sum

    phi = np.arange(bound + 1, dtype=np.int64)
    for p in primes_up_to(bound).tolist():
        phi[p::p] -= phi[p::p] // p
    w = phi[1:].astype(np.float64) / np.arange(1, bound + 1, dtype=np.float64) ** 3
    assert abs(_m2_truncated_double_sum(bound) - _plain_gcd_double_sum(w)) < 1e-12


def test_m_constant_s2_vs_truncated_sum():
    # order-2 totient analogue against its truncated double series
    bound = 2000
    phi2 = np.arange(bound + 1, dtype=np.int64) ** 2
    for p in primes_up_to(bound).tolist():
        phi2[p::p] -= phi2[p::p] // (p * p)
    w = phi2[1:].astype(np.float64) / np.arange(1, bound + 1, dtype=np.float64) ** 4
    trunc = _plain_gcd_double_sum(w)
    prod = constants.M_constant(2.0, 2, CUTOFF).value
    assert 0 < prod - trunc < 5.0 / bound


def test_gcd_double_series_closed_form():
    # sum gcd(i,j)/(ij)^2 = zeta(3) zeta(2)^2 / zeta(4), truncation from below
    bound = 3000
    w = 1 / np.arange(1, bound + 1, dtype=np.float64) ** 2
    trunc = _plain_gcd_double_sum(w)
    closed = constants.gcd_double_series_closed_form(2.0)
    assert 0 < closed - trunc < 6.0 / bound


def test_limit_var_c_positive():
    for r in (1, 2, 3):
        assert constants.limit_var_c(r, CUTOFF) > 0


def test_limit_var_d_routes_agree():
    value = constants.limit_var_d(2, CUTOFF)
    assert 0 < value < 1
    assert abs(value - constants._gcd_minus_one_double_sum(2, 1_000_000)) <= 1e-6
    with pytest.raises(ValueError):
        constants.limit_var_d(1)


def test_tauberian_trend_small_grid():
    grid = (100, 1000, 10_000)
    cor, d_target = constants.tauberian_trend("corollary22", grid)
    toth, dt_target = constants.tauberian_trend("toth", grid)
    pil, _ = constants.tauberian_trend("pillai_sq", grid)
    assert dt_target > d_target
    assert all(t >= c for t, c in zip(toth, cor))  # lcm <= ij
    assert all(v > 0 for v in cor + toth + pil)
    with pytest.raises(ValueError):
        constants.tauberian_trend("nope", grid)


@pytest.mark.parametrize("grid", [(10, 11, 12, 13, 16, 17), (100, 999, 1000, 1001),
                                  (10, 2_000, 19_999, 20_000)])
def test_trend_sums_are_the_plain_loops(grid, table_10k):
    table = table_10k if grid[-1] <= table_10k.n_max else build_table(grid[-1])
    got = constants._product_restricted_sums(table, list(grid))
    want = _plain_product_restricted_sums(table, list(grid))
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))
    got = constants._lcm_restricted_sums(table, list(grid))
    want = _plain_lcm_restricted_sums(table, list(grid))
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))
    # the same exact P(k), then the same float steps: bit-identical
    got = constants._pillai_mean_square(table, list(grid))
    assert repr(got) == repr(_plain_pillai_mean_square(table, list(grid)))


def test_trend_grid_above_the_table_cap_is_refused_before_sieving(monkeypatch):
    from gcdstats import arith

    def no_sieve(n, *args):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(arith, "primes_up_to", no_sieve)
    monkeypatch.setattr(arith, "prime_power_sieve", no_sieve)
    monkeypatch.setattr(constants, "prime_power_sieve", no_sieve)
    with pytest.raises(CapacityError):
        constants.tauberian_trend("toth", (10, DEFAULT_MAX_N + 1))


def test_pillai_mean_square_magnitude_at_1e6():
    # O(1/ln N) convergence leaves the ratio at 2.02x the constant here;
    # the band freezes the measured magnitude, not a precision claim
    from gcdstats.verify import _shared_table

    ratios, target = constants.tauberian_trend(
        "pillai_sq", (1_000_000,), _shared_table(1_000_000))
    assert 0.5 < ratios[0] / target < 2.1
