import itertools
import math
import sys
import tracemalloc
from math import isqrt
from fractions import Fraction

import numpy as np
import pytest

from gcdstats import arith, brute, constants, exact
from gcdstats.arith import (DEFAULT_MAX_N, CapacityError, pillai_local, prime_power_sieve,
                            primes_up_to, tau_local)
from gcdstats.cli import main


def frac(res):
    return res.as_fraction()


def plain_divisor_sums(g, n, power):
    """sum_{j|k} g(j) floor(n/j)^power for k = 0..n in Python ints (reference)."""
    acc = [0] * (n + 1)
    for j in range(1, n + 1):
        w = int(g[j]) * (n // j) ** power
        for k in range(j, n + 1, j):
            acc[k] += w
    return acc


def per_k_gcd_counts(mu, n, r):
    """#{r-tuples in [n]^r with gcd k} = sum_{j <= n/k} mu(j) floor(n/(k j))^r, term by term (reference)."""
    return [sum(int(mu[j]) * (n // (k * j)) ** r for j in range(1, n // k + 1))
            for k in range(1, n + 1)]


def plain_floor_power_sum(g, v, s):
    """sum_{j <= v} g(j) floor(v/j)^s, term by term (reference)."""
    return sum(int(g[j]) * (v // j) ** s for j in range(1, v + 1))


def blockwise_floor_power_sum(prefix, v, s):
    """The same sum one block of constant floor(v/j) at a time, from a list of prefix sums (reference)."""
    total, j = 0, 1
    while j <= v:
        t = v // j
        last = v // t
        total += (prefix[last] - prefix[j - 1]) * t**s
        j = last + 1
    return total


def distinct_quotients(n):
    return sorted({n // d for d in range(1, n + 1)}, reverse=True)


def plain_block_sums(h, starts):
    """sum of h[d]^2 over each block starts[b] .. starts[b+1] - 1 in Python ints (reference)."""
    bounds = list(starts) + [len(h)]
    return [sum(int(x) ** 2 for x in h[a:b]) for a, b in zip(bounds, bounds[1:])]


# --- divisor-sum profiles ------------------------------------------------------

def test_big_integer_profiles_at_r7():
    # 1000^7 exceeds int64, so the kernel runs on Python ints
    n, r = 1000, 7
    for q in (None, 1):
        prof = exact.marginal_profile(n, r, q)
        assert prof.numerators.dtype == object
        assert prof.numerators.tolist() == plain_divisor_sums(exact.sieve_weight(n, q), n, r)
    want = sum(v * v for v in plain_divisor_sums(exact.sieve_weight(n, 1), n, r - 1)[1:])
    assert exact.mixed_moment_pi(n, r, 1).numerator == want


# --- quotient blocks and batched floor sums -----------------------------------

def test_quotient_blocks_are_the_runs_of_equal_quotients():
    for n in range(1, 2001):
        want = []
        for d in range(1, n + 1):
            if want and n // d == want[-1][2]:
                want[-1][1] = d
            else:
                want.append([d, d, n // d])
        for top in {n, n // 2, isqrt(n), isqrt(n) + 1, 1}:
            lo, hi, v = exact._quotient_blocks(n, top)
            cut = [[a, min(b, top), q] for a, b, q in want if a <= top]
            assert np.column_stack((lo, hi, v)).tolist() == cut, (n, top)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_floor_power_sums_are_the_plain_loop(s, exact_prefix):
    for g in (exact.sieve_weight(300, None), exact.sieve_weight(300, 1)):
        want = [0] + [plain_floor_power_sum(g, v, s) for v in range(1, 301)]
        for n in range(1, 301):
            values = distinct_quotients(n)
            got = exact._floor_power_sums(exact_prefix(g, n), values, s)
            assert got.tolist() == [want[v] for v in values], (n, s)


def test_floor_power_sums_at_random_n_take_both_dtypes(monkeypatch, exact_prefix):
    mu, phi = exact.sieve_weight(200_000, None), exact.sieve_weight(200_000, 1)
    rng = np.random.default_rng(2357)
    dtypes = set()
    for n in [200_000, *rng.integers(2, 200_000, 4).tolist()]:
        values = distinct_quotients(n)
        for g in (mu, phi):
            prefix = [0]
            for x in g[1 : n + 1].tolist():
                prefix.append(prefix[-1] + x)
            for s in range(1, 6):
                got = exact._floor_power_sums(exact_prefix(g, n), values, s)
                dtypes.add(got.dtype)
                assert got.tolist() == [blockwise_floor_power_sum(prefix, v, s) for v in values]
        for v in (n, n // 3, 5):
            assert exact._floor_power_sum(exact_prefix(mu, v), v, 5) == \
                plain_floor_power_sum(mu, v, 5)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # values split across many batches of breakpoints
    monkeypatch.setattr(exact, "_BREAKPOINT_BATCH", 50)
    n = 12_345
    values = distinct_quotients(n)
    got = exact._floor_power_sums(exact_prefix(mu, n), values, 2)
    assert got.tolist() == [plain_floor_power_sum(mu, v, 2) for v in values]


# --- table-free summatory functions ---------------------------------------------

def floor_points(n):
    """Every x at which the floor sums for n read a prefix sum: 0..isqrt(n) and each n // k."""
    return np.concatenate((np.arange(isqrt(n) + 1), exact._quotient_blocks(n, n)[2]))


@pytest.mark.parametrize("q", [None, 1, 2, 3])
def test_summatory_is_the_plain_prefix_for_every_n_to_2000(q):
    plain = np.cumsum(exact.sieve_weight(2000, q).astype(object))
    for n in range(1, 2001):
        fast = exact._summatory(n, q)
        points = floor_points(n)
        assert fast.at(points).tolist() == plain[points].tolist(), n
        prefix = plain[: n + 1].tolist()
        for r in range(1, 6):
            assert exact._floor_power_sum(fast, n, r) == blockwise_floor_power_sum(prefix, n, r)


def test_summatory_numerators_at_seeded_n_take_both_dtypes(exact_prefix):
    # q up to 3 at n <= 1e6 and r up to 5 flip every int64/object choice:
    # the dense prefix, the points above L one by one, and the floor sums
    rng = np.random.default_rng(1013)
    cases = [(n, q) for n in [10**6, *rng.integers(10**5, 10**6, 2).tolist()]
             for q in (None, 1, 2, 3)]
    # mu to 1e7, and phi_7, whose dense prefix is Python ints
    cases += [(n, None) for n in [10**7, *rng.integers(10**6, 10**7, 1).tolist()]]
    cases += [(n, 7) for n in rng.integers(2000, 20_000, 2).tolist()]
    # each weight sieved once, to the largest n it serves
    weights = {q: exact.sieve_weight(max(n for n, k in cases if k == q), q)
               for q in (None, 1, 2, 3, 7)}
    dtypes = set()
    for n, q in cases:
        fast, slow = exact._summatory(n, q), exact_prefix(weights[q], n)
        dtypes.update((fast.dense.dtype, fast.high.dtype))
        points = floor_points(n)
        assert fast.at(points).tolist() == slow.at(points).tolist(), (n, q)
        # n, a spread of its quotients and the smallest ones
        values = exact._quotient_blocks(n, n)[2]
        values = np.unique(np.concatenate((values[-8:], values[:: len(values) // 8])))
        for r in range(1, 6):
            got = exact._floor_power_sums(fast, values, r)
            dtypes.add(got.dtype)
            assert got.tolist() == exact._floor_power_sums(slow, values, r).tolist(), (n, q, r)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_mertens_at_powers_of_ten_and_phi_1_at_1e10():
    # M(10^k), k = 0..10 (OEIS A084237)
    want = [1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722]
    got = [int(exact._summatory(10**k, None).at(np.array([10**k]))[0]) for k in range(10)]
    n = 10**10
    mertens = exact._summatory(n, None)
    assert got + [int(mertens.at(np.array([n]))[0])] == want
    # coprime pairs: 2 Phi_1(n) - 1 = sum_d mu(d) floor(n/d)^2
    phi = exact._summatory(n, 1)
    assert phi.high.dtype == object
    assert 2 * int(phi.at(np.array([n]))[0]) - 1 == exact._floor_power_sum(mertens, n, 2)


def test_isqrt_array_is_math_isqrt():
    # about each square k^2 < 2^52, where one float rounding step decides, and
    # at random v < 2^52; in cache-sized chunks of k
    for lo in range(1, 2**26, 2**16):
        k = np.arange(lo, min(lo + 2**16, 2**26), dtype=np.int64)
        square = k * k
        for v, want in ((square - 1, k - 1), (square, k), (square + 1, k)):
            assert np.array_equal(exact._isqrt_array(v), want), lo
    for k in (1, 2**13 + 1, 2**26 - 1):
        assert [isqrt(k * k + d) for d in (-1, 0, 1)] == [k - 1, k, k]
    v = np.random.default_rng(4099).integers(0, 2**52, 200_000)
    assert exact._isqrt_array(v).tolist() == [isqrt(x) for x in v.tolist()]


def test_the_profile_is_the_one_n_entry_array(monkeypatch):
    # the weight is read window by window, so a second-order quantity's traced
    # peak, prime sieve included, is well below two n-entry int64 arrays
    n = 10**6
    for quantity in (lambda: exact.var_d(n, 2), lambda: exact.mixed_moment_pi(n, 2, 1)):
        monkeypatch.setattr(arith, "_kept", (1, arith._eratosthenes(1)))
        tracemalloc.start()
        try:
            quantity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + 1) * 8


@pytest.mark.parametrize("q", [None, 1])
def test_summatory_holds_only_the_floor_points(q):
    for n in (1, 2, 3, 8, 99, 10**6 + 1):
        prefix = exact._summatory(n, q)
        assert prefix.dense.size == isqrt(n) + 1 and prefix.high.size == n // (isqrt(n) + 1) + 1
    # sieved to L = 1e6 one window at a time: the L-entry int64 prefix alone is 8 MiB
    tracemalloc.start()
    try:
        exact._summatory(10**9, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("q", [None, 1, 2])
def test_profile_bound_is_the_power_floor_sum_below_twice_the_exact_one(q, widths):
    # h's width comes from sum_j j^q floor(n/j)^p (q = 0 for mu): at least the
    # exact bound sum_j |g(j)| floor(n/j)^p, and below twice it, so a profile
    # whose exact bound is below 2^62 stays within int64
    g = exact.sieve_weight(200, q)
    for n in range(1, 201):
        for p in range(1, 8):
            widths.clear()
            exact._divisor_profile(n, p, q)
            terms = [(n // j) ** p for j in range(1, n + 1)]
            closed = sum(j ** (q or 0) * t for j, t in enumerate(terms, 1))
            assert [b for name, b in widths if name == "_divisor_profile"] == [closed]
            bound = sum(abs(int(g[j])) * t for j, t in enumerate(terms, 1))
            assert bound <= closed < 2 * bound, (n, p)


def test_power_sums_are_the_plain_sums():
    for q in range(1, 9):
        want = list(itertools.accumulate(j**q for j in range(0, 60)))
        assert [exact._power_sums(x, q) for x in range(60)] == want
        x = np.array([0, 7, 10**12], dtype=object)
        assert exact._power_sums(x, q).tolist() == [0, want[7], exact._power_sums(10**12, q)]
    assert exact._power_sums(10**12, 1) == 10**12 * (10**12 + 1) // 2


def test_sieve_limit_and_the_table_free_bound():
    for n in (*range(1, 130), 10**6 - 1, 10**6, 10**18 - 1, 10**18):
        c = next(c for c in itertools.count(round(n ** (1 / 3)) - 2) if (c + 1) ** 3 > n)
        assert exact._sieve_limit(n) == max(isqrt(n), c * c)
    assert exact._sieve_limit(exact.TABLE_FREE_MAX_N) <= DEFAULT_MAX_N
    assert exact._sieve_limit(exact.TABLE_FREE_MAX_N + 1) > DEFAULT_MAX_N
    assert 1.6e11 < exact.TABLE_FREE_MAX_N < 1.7e11


def test_table_free_quantities_sieve_nothing_above_l(monkeypatch):
    from gcdstats import arith

    # the bound of every prime sieve and every sieve of g, whole or windowed
    sieved = []
    real_primes, real_windows = arith.primes_up_to, arith.prime_power_windows
    for module in (arith, exact):
        monkeypatch.setattr(module, "primes_up_to", lambda n: sieved.append(n) or real_primes(n))
        monkeypatch.setattr(module, "prime_power_windows",
                            lambda n, *a, **k: sieved.append(n) or real_windows(n, *a, **k))
    n = 10**6
    exact.mean_mu(n, 1)
    exact.mean_nu(n, 2)
    exact.gcd_moment(n, 2, 3)
    exact.gcd_pmf(n, 2)
    exact.gcd_tail(n, 100)
    assert sieved and max(sieved) == exact._sieve_limit(n) == 10**4


def test_block_sums_hold_a_few_chunks_whatever_the_size():
    # three limbs and one limb product at a time, each _SUM_CHUNK entries: under
    # 1 MiB for an 8 MB h, as for one a tenth of its size
    rng = np.random.default_rng(43)
    for size in (10**5, 10**6):
        h = rng.integers(-2**62, 2**62, size, dtype=np.int64)
        tracemalloc.start()
        try:
            exact._block_sums(h, [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, size


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_block_sums_are_exact_across_the_limb_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(exact, "_SUM_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    size = 1000 if chunk == 7 else 2 * chunk + 5
    starts = np.unique(np.concatenate(([1], rng.integers(1, size, 40))))
    for peak in (1, 2**23 - 1, 2**23, 2**31, 2**46 - 1, 2**46, 2**62, 2**63 - 1):
        h = rng.integers(-peak, peak, size, dtype=np.int64, endpoint=True)
        h[rng.integers(1, size)] = peak
        h[rng.integers(1, size)] = -peak
        got = exact._block_sums(h, starts)
        assert got.tolist() == plain_block_sums(h.tolist(), starts.tolist()), peak
        assert all(type(v) is int for v in got.tolist())
    big = np.array([int(v) * 10**25 for v in h], dtype=object)
    want = plain_block_sums(big.tolist(), starts.tolist())
    assert exact._block_sums(big, starts).tolist() == want


# --- Cesaro formula and pmf --------------------------------------------------

def test_from_ratio_float_is_the_float_of_the_fraction():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        base = int(rng.integers(1, 10**6))
        power = int(rng.integers(0, 80))
        numerator = int(rng.integers(-(2**62), 2**62)) * base ** int(rng.integers(0, power + 1))
        res = exact.ExactResult.from_ratio(numerator, base, power)
        assert res.float_value == float(Fraction(numerator, base**power))


def test_cesaro_expectation_pairs_n2():
    # all four pairs from {1,2}: gcds 1,1,1,2
    assert frac(exact.gcd_moment(2, 2, 1)) == Fraction(5, 4)
    assert frac(exact.mean_mu(2, 1)) == Fraction(3, 4)


def test_cesaro_dirichlet_limit():
    r = exact.mean_mu(1_000_000, 1)
    assert abs(r.float_value - 1 / constants.zeta(2)) < 1e-3


def pmf_entries(n, r):
    """gcd_pmf as one ExactResult per k = 1..n."""
    return [v for v, count in exact.gcd_pmf(n, r) for _ in range(count)]


def test_gcd_pmf_small():
    pmf = pmf_entries(2, 2)
    assert [frac(v) for v in pmf] == [Fraction(3, 4), Fraction(1, 4)]
    pmf = pmf_entries(4, 2)
    assert sum(frac(v) for v in pmf) == 1
    assert all(frac(v) >= 0 for v in pmf)


def test_gcd_pmf_r1_is_uniform():
    # with one variable the value itself is the "gcd", so the pmf is uniform
    pmf = pmf_entries(10, 1)
    assert len(pmf) == 10 and all(frac(v) == Fraction(1, 10) for v in pmf)


def test_gcd_pmf_and_tail_are_the_per_k_floor_sums():
    for n in (1, 2, 17, 100, 1000):
        for r in (1, 2, 3):
            want = per_k_gcd_counts(exact.sieve_weight(n, None), n, r)
            assert [v.numerator for v in pmf_entries(n, r)] == want
            if r == 2:
                for t in {0, 1, n // 3, n - 1, n}:
                    got = exact.gcd_tail(n, t).numerator
                    assert got == n**2 - sum(want[:t]), (n, t)


def test_gcd_pmf_limit_at_k1():
    first, _ = exact.gcd_pmf(100_000, 2)[0]
    assert abs(first.float_value - 1 / constants.zeta(2)) < 1e-3


# --- marginal profiles ---------------------------------------------------------

def test_marginal_examples():
    prof = exact.marginal_profile(10, 1)
    assert frac(prof.value(6)) == Fraction(3, 10)  # {1,5,7} coprime to 6
    prof = exact.marginal_profile(10, 1, 1)
    assert frac(prof.value(6)) == Fraction(23, 10)  # sum gcd(j,6), j<=10


def test_marginal_value_at_1_is_1():
    for n, r in ((7, 1), (10, 2), (25, 3)):
        for q in (None, 1):
            prof = exact.marginal_profile(n, r, q)
            assert frac(prof.value(1)) == 1


def test_marginal_envelopes():
    n = 200
    tau = prime_power_sieve(n, primes_up_to(n), tau_local, np.int32)
    for r in (1, 2):
        prob = exact.marginal_profile(n, r)
        expe = exact.marginal_profile(n, r, 1)
        for k in range(1, n + 1):
            u = frac(prob.value(k))
            assert 0 <= u <= 1
            w = frac(expe.value(k))
            tau_k = int(tau[k])
            assert 1 <= w <= tau_k + Fraction(r * tau_k, n)


def test_marginal_error_bounds_grid():
    # across the whole profile, over the common denominator n^r k^r:
    #   |U_r(k) - phi_r(k)/k^r| <= r tau(k)/n
    #   0 <= P_r(k)/k^r - W_r(k) <= k/n (r = 1), r tau(k)/n (r >= 2)
    for n in (10, 100, 1000):
        k = np.arange(1, n + 1).astype(object)
        tau = prime_power_sieve(n, primes_up_to(n), tau_local, np.int32)[1:].astype(object)
        for r in (1, 2, 3):
            for q in (None, 1):
                num = exact.marginal_profile(n, r, q).numerators[1:].astype(object)
                if q is None:  # phi_r
                    dev = abs(exact.sieve_weight(n, r)[1:].astype(object) * n**r - num * k**r)
                else:  # Pillai's P_r
                    pillai = prime_power_sieve(n, primes_up_to(n), pillai_local(r), object)[1:]
                    dev = pillai * n**r - num * k**r
                    assert (dev >= 0).all(), (n, r)
                bound = k if q == 1 and r == 1 else r * tau
                assert (dev * n <= bound * n**r * k**r).all(), (n, r, q)


def test_marginal_bound_example():
    prof = exact.marginal_profile(10, 1)
    dev = abs(frac(prof.value(6)) - Fraction(1, 3))  # phi(6)/6 = 1/3
    assert dev == Fraction(1, 30)
    assert dev <= Fraction(4, 10)  # tau(6) = 4
    prof = exact.marginal_profile(10, 1, 1)
    slack = Fraction(15, 6) - frac(prof.value(6))  # P(6)/6 - W(6)
    assert slack == Fraction(1, 5)
    assert slack <= Fraction(6, 10)


# --- means and variances of profiles -------------------------------------------

def test_mean_identity_profile_vs_cesaro():
    # the average of a profile's values is the first moment over r + 1 variables
    for n in (2, 7, 30):
        for r in (1, 2, 3):
            for q, mean in ((None, exact.mean_mu), (1, exact.mean_nu)):
                total = sum(exact.marginal_profile(n, r, q).numerators[1:].tolist())
                assert Fraction(total, n ** (r + 1)) == frac(mean(n, r)), (n, r, q)


def test_mean_examples():
    assert frac(exact.mean_mu(2, 1)) == Fraction(3, 4)


def test_mean_nu_log_growth():
    nu1 = exact.mean_nu(1_000_000, 1).float_value
    assert abs(nu1 / math.log(1_000_000) - 1 / constants.zeta(2)) < 0.05


def test_mean_nu_limit_r2():
    nu2 = exact.mean_nu(100_000, 2).float_value
    assert abs(nu2 - constants.zeta(2) / constants.zeta(3)) < 1e-2


def test_var_c_example():
    assert frac(exact.var_c(2, 1)) == Fraction(1, 16)


def test_var_c_limit():
    c1 = exact.var_c(1_000_000, 1).float_value
    assert abs(c1 - constants.limit_var_c(1)) < 1e-3


def test_var_d_limit():
    d2 = exact.var_d(100_000, 2).float_value
    assert abs(d2 - constants.limit_var_d(2)) < 1e-2


# --- moments ---------------------------------------------------------------------

def test_gcd_moment_examples():
    assert frac(exact.gcd_moment(2, 2, 2)) == Fraction(7, 4)


def test_gcd_moment_limits():
    second = exact.gcd_moment(1_000_000, 2, 2).float_value / 1_000_000
    target = (2 * constants.zeta(2) / constants.zeta(3) - 1) / 3
    assert abs(second - target) / target < 0.02
    first_r3 = exact.gcd_moment(100_000, 3, 1).float_value
    assert abs(first_r3 - constants.zeta(2) / constants.zeta(3)) < 1e-2


# --- shared covariances ------------------------------------------------------------

def test_the_old_kernel_spellings_fail_loudly():
    # a kernel is named by q alone: a kind string, or a profile q other than
    # None or 1, raises and returns no number
    for call in (lambda: exact.shared_covariance(5, 2, 1, "indicator"),
                 lambda: exact.shared_covariance(5, 2, 0, "moment"),
                 lambda: exact.u_statistic_moments(5, 3, 2, "moment", 2),
                 lambda: exact.u_statistic_moments(5, 3, 2, "moment")):
        with pytest.raises((TypeError, ValueError)):
            call()
    for q in ("probability", "expectation", 2, 0):
        with pytest.raises(ValueError, match="None or 1"):
            exact.marginal_profile(5, 2, q)


def test_shared_covariance_zero_at_s0():
    for n in (2, 9, 30):
        for r in (2, 3):
            assert frac(exact.shared_covariance(n, r, 0)) == 0
            assert frac(exact.shared_covariance(n, r, 0, 2)) == 0


def test_shared_covariance_example():
    got = exact.shared_covariance(2, 2, 1)
    assert frac(got) == Fraction(1, 16)


def test_gamma_r1_equals_profile_variance():
    # two kernels sharing one variable covary exactly like the U profile
    for n in (3, 10, 25):
        for r in (2, 3):
            gamma = frac(exact.shared_covariance(n, r, 1))
            assert gamma == frac(exact.var_c(n, r - 1))
            omega = frac(exact.shared_covariance(n, r, 1, 1))
            assert omega == frac(exact.var_d(n, r - 1))


def test_covariances_monotone_in_s():
    for n in (4, 12, 30):
        for r in (2, 3):
            gammas = [frac(exact.shared_covariance(n, r, s)) for s in range(r + 1)]
            omegas = [frac(exact.shared_covariance(n, r, s, 1)) for s in range(r + 1)]
            assert gammas[0] == 0 and omegas[0] == 0
            assert all(b >= a for a, b in zip(gammas, gammas[1:]))
            assert all(b >= a for a, b in zip(omegas, omegas[1:]))


def test_gamma_rr_is_bernoulli_variance():
    for n in (2, 10, 24):
        for r in (2, 3):
            mu = brute.pmf(n, r)[0]
            got = frac(exact.shared_covariance(n, r, r))
            assert got == mu * (1 - mu)


def test_omega_rr_is_kernel_variance():
    # full overlap: variance of gcd^q itself, via the 2q-th moment
    for n in (3, 12):
        for r, q in ((2, 1), (2, 2), (3, 1)):
            first = frac(exact.gcd_moment(n, r, q))
            second = frac(exact.gcd_moment(n, r, 2 * q))
            got = frac(exact.shared_covariance(n, r, r, q))
            assert got == second - first * first


def test_covariance_refused_above_table_cap(capsys):
    # the table cap is the only size guard: no covariance work is attempted
    with pytest.raises(SystemExit) as err:
        main(["exact", "--quantity", "varC", "--n", "40000000", "--m", "50"])
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.startswith("error: ") and text.count("\n") == 1
    assert str(DEFAULT_MAX_N) in text


# each second-order entry point, as a function of n and the order q of its weight
_SECOND_ORDER = {
    "sieve_weight": lambda n, q: exact.sieve_weight(n, q),
    "marginal_profile": lambda n, q: exact.marginal_profile(n, 2, 1),
    "var_c": lambda n, q: exact.var_c(n, 2),
    "var_d": lambda n, q: exact.var_d(n, 2),
    "gamma": lambda n, q: exact.shared_covariance(n, 2, 1),
    "omega": lambda n, q: exact.shared_covariance(n, 2, 1, q),
    "var_C": lambda n, q: exact.var_C(n, 3, 2),
    "var_Z": lambda n, q: exact.var_Z(n, 3, 2, q),
    "pi": lambda n, q: exact.mixed_moment_pi(n, 2, q),
}


def test_second_order_entry_points_check_n_and_q_before_sieving(sieved_bounds, sieve_calls):
    for name, quantity in _SECOND_ORDER.items():
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            quantity(0, 1)
        # the cap is checked, by the prime sieve alone, before anything is sieved
        with pytest.raises(CapacityError, match="table cap"):
            quantity(DEFAULT_MAX_N + 1, 1)
    for name in ("sieve_weight", "omega", "var_Z", "pi"):
        with pytest.raises(ValueError, match=">= 1, got 0"):
            _SECOND_ORDER[name](10, 0)
    # no shared variable: no weight is read, but n is checked all the same
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        exact.shared_covariance(0, 2, 0)
    assert sieved_bounds == [] and sieve_calls == []


# --- U-statistic variances -----------------------------------------------------------

def test_var_C_example_and_shape():
    assert frac(exact.var_C(2, 3, 2)) == Fraction(15, 16)
    # single-pair case reduces to the Bernoulli variance
    mu = frac(exact.mean_mu(2, 1))
    assert frac(exact.var_C(2, 2, 2)) == mu * (1 - mu)


def test_var_C_pairs_closed_shape():
    # C(m,2) mu(1-mu) + m(m-1)(m-2) c_1
    for n in (2, 10, 40):
        for m in (2, 3, 5, 12):
            mu = frac(exact.mean_mu(n, 1))
            c1 = frac(exact.var_c(n, 1))
            want = math.comb(m, 2) * mu * (1 - mu) + m * (m - 1) * (m - 2) * c1
            assert frac(exact.var_C(n, m, 2)) == want


def test_var_Z_pairs_closed_shape():
    for n in (2, 10, 40):
        for m in (2, 4, 9):
            e1 = frac(exact.gcd_moment(n, 2, 1))
            e2 = frac(exact.gcd_moment(n, 2, 2))
            d1 = frac(exact.var_d(n, 1))
            want = math.comb(m, 2) * (e2 - e1 * e1) + m * (m - 1) * (m - 2) * d1
            assert frac(exact.var_Z(n, m, 2, 1)) == want


def test_var_validation():
    with pytest.raises(ValueError):
        exact.var_C(10, 2, 1)
    with pytest.raises(ValueError):
        exact.var_C(10, 2, 3)  # m < r


# --- second-order numerators against plain Python --------------------------------

class PlainSecondOrder:
    """The second-order numerators by their defining sums in Python ints (reference).

    Profiles are `plain_divisor_sums`, G_s(d) is sum_{j <= n/d} mu(j) floor(n/(d j))^s
    term by term, and every sum of squares is a plain loop.
    """

    def __init__(self, n):
        self.n = n
        self.mu = [int(v) for v in exact.sieve_weight(n, None)]
        self.profiles = {}
        self.covariances = {}

    def weights(self, q):
        """mu (q None) or phi_q."""
        return self.mu if q is None else exact.sieve_weight(self.n, q)

    def profile(self, q, power):
        key = (q, power)
        if key not in self.profiles:
            self.profiles[key] = plain_divisor_sums(self.weights(q), self.n, power)
        return self.profiles[key]

    def profile_variance(self, q, r):
        h = self.profile(q, r)[1:]
        return self.n * sum(v * v for v in h) - sum(h) ** 2

    def pi(self, r, q):
        return sum(v * v for v in self.profile(q, r - 1)[1:])

    def covariance(self, r, s, q):
        key = (r, s, q)
        if key not in self.covariances:
            self.covariances[key] = self.plain_covariance(r, s, q)
        return self.covariances[key]

    def plain_covariance(self, r, s, q):
        n = self.n
        if s == 0:
            return 0
        g = self.weights(q)
        h = self.profile(q, r - s)
        counts = {}
        exy = 0
        for d in range(1, n + 1):
            v = n // d
            if v not in counts:
                counts[v] = sum(self.mu[j] * (v // j) ** s for j in range(1, v + 1))
            exy += counts[v] * h[d] ** 2
        mean = sum(int(g[j]) * (n // j) ** r for j in range(1, n + 1))
        return exy * n**s - mean * mean

    def u_variance(self, m, r, q):
        return sum(math.comb(m, s) * math.comb(m - s, r - s) * math.comb(m - r, r - s)
                   * self.covariance(r, s, q) for s in range(r + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 97, 1000, 30_000])
def test_second_order_numerators_are_the_plain_sums(n):
    ref = PlainSecondOrder(n)
    for r in (1, 2, 3):
        assert exact.var_c(n, r).numerator == ref.profile_variance(None, r)
        assert exact.var_d(n, r).numerator == ref.profile_variance(1, r)
    for r in (2, 3):
        for m in (r, 50):
            assert exact.var_C(n, m, r).numerator == ref.u_variance(m, r, None)
        for s in range(r + 1):
            got = exact.shared_covariance(n, r, s).numerator
            assert got == ref.covariance(r, s, None), (r, s)
        for q in (1, 2):
            assert exact.mixed_moment_pi(n, r, q).numerator == ref.pi(r, q)
            for m in (r, 50):
                assert exact.var_Z(n, m, r, q).numerator == ref.u_variance(m, r, q)
            for s in range(r + 1):
                got = exact.shared_covariance(n, r, s, q).numerator
                assert got == ref.covariance(r, s, q), (r, s, q)


# --- mixed moment -----------------------------------------------------------------

def test_mixed_moment_example():
    assert frac(exact.mixed_moment_pi(2, 2, 1)) == Fraction(13, 8)


def test_omega_from_pi_matches_shared_covariance():
    # omega, the covariance of two kernels sharing one variable, is pi - (E gcd^q)^2
    for n in (4, 15, 40):
        for r, q in ((2, 1), (2, 2), (3, 1)):
            lhs = frac(exact.mixed_moment_pi(n, r, q)) - frac(exact.gcd_moment(n, r, q)) ** 2
            rhs = frac(exact.shared_covariance(n, r, 1, q))
            assert lhs == rhs


def test_pi_log_cubed_trend():
    toth = constants.delta_toth().value
    near = exact.mixed_moment_pi(10_000, 2, 1).float_value / math.log(10_000) ** 3
    far = exact.mixed_moment_pi(100, 2, 1).float_value / math.log(100) ** 3
    assert abs(near - toth) < abs(far - toth)


def test_omega_r3_near_limit():
    omega = exact.shared_covariance(10_000, 3, 1, 1).float_value
    assert abs(omega - constants.limit_var_d(2)) < 1e-2


# --- tail -----------------------------------------------------------------------------

def test_gcd_tail_small():
    assert frac(exact.gcd_tail(2, 1)) == Fraction(1, 4)
    assert frac(exact.gcd_tail(50, 50)) == 0
    assert frac(exact.gcd_tail(17, 0)) == 1


def test_gcd_tail_paper_bound():
    n, k = 100_000, 100
    tail = exact.gcd_tail(n, k).float_value
    approx = sum(1.0 / j**2 for j in range(k + 1, n + 1)) / constants.zeta(2)
    assert abs(tail - approx) <= 4 * (1 + math.log(n)) ** 2 / n


def test_gcd_pmf_runs_are_the_floor_blocks():
    for n in (1, 2, 3, 10, 99, 10_000):
        runs = exact.gcd_pmf(n, 2)
        # the lengths of the blocks of equal floor(n/k), in ascending k
        blocks = [len(list(group)) for _, group in
                  itertools.groupby(range(1, n + 1), key=lambda k: n // k)]
        assert [count for _, count in runs] == blocks
        assert sum(count for _, count in runs) == n


# --- one int64-or-Python-int rule ------------------------------------------------

def every_quantity(n, r, q):
    """The numerators of every exact quantity at (n, r, q), with m = r + 2."""
    results = [exact.mean_mu(n, r), exact.mean_nu(n, r), exact.var_c(n, r), exact.var_d(n, r),
               *(v for v, _ in exact.gcd_pmf(n, r)), exact.gcd_moment(n, r, q),
               exact.var_C(n, r + 2, r), exact.var_Z(n, r + 2, r, q),
               exact.mixed_moment_pi(n, r, q), exact.gcd_tail(n, n // 2)]
    results += [exact.shared_covariance(n, r, s, weight) for s in range(r + 1)
                for weight in (None, 1, q)]
    return [res.numerator for res in results]


def test_every_exact_quantity_is_the_same_in_python_ints(monkeypatch):
    grid = [(n, r, q) for n in range(1, 31) for r in (2, 3) for q in (1, 2)]
    default = [every_quantity(*case) for case in grid]
    monkeypatch.setattr(arith, "INT64_MAX", -1)  # every width choice gives Python ints
    assert exact.marginal_profile(30, 2).numerators.dtype == object
    assert [every_quantity(*case) for case in grid] == default


def prefix_points(prefix):
    return prefix.dense.tolist() + prefix.high.tolist()


# a case for each width choice that moved from below 2^62 to within 2^63 - 1, by
# the name of the function that makes it; `_summatory`'s sums at the points above
# L are the nested `width`
_PAST_2_62 = {
    # (L+1) L^4 for the sums of phi_4 to L = 76^2
    "_summatory": lambda: prefix_points(exact._summatory(440_000, 4)),
    # x^5 (1 + bitlen(x)) at the points x above L
    "width": lambda: prefix_points(exact._summatory(3300, 4)),
    # 900^6 (1 + bitlen(900))
    "_floor_power_sums": lambda: exact.mean_mu(900, 5).numerator,
    # sum_j j^q floor(500/j)^7, q = 0 and 1
    "_divisor_profile": lambda: [exact.marginal_profile(500, 7, q).numerators.tolist()
                                 for q in (None, 1)],
}


@pytest.mark.parametrize("site", sorted(_PAST_2_62))
def test_widths_past_2_62_are_the_python_int_values(site, monkeypatch, widths):
    default = _PAST_2_62[site]()
    assert any(2**62 < b <= arith.INT64_MAX for name, b in widths if name == site)
    monkeypatch.setattr(arith, "INT64_MAX", -1)
    assert _PAST_2_62[site]() == default


def test_floor_sum_steps_of_an_int64_prefix_past_2_63_are_the_python_int_values(
        monkeypatch, widths):
    # 1000^6 (1 + bitlen(1000)) for mu at s = 6, and 1000 1000^5 (1 + 10) for
    # phi_1 at s = 5, are just above 2^63, while both prefixes are int64: each
    # step is taken in int64 and then widened to Python ints
    def sums():
        return [exact.mean_mu(1000, 5).numerator, exact.gcd_moment(1000, 5, 1).numerator]

    assert all(exact._summatory(1000, q).high.dtype == np.int64 for q in (None, 1))
    default = sums()
    bounds = [b for name, b in widths if name == "_floor_power_sums"]
    assert len(bounds) == 2 and all(2**63 < b < 2**64 for b in bounds)
    monkeypatch.setattr(arith, "INT64_MAX", -1)
    assert sums() == default


def test_check_digits_is_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    for value in (0, 10**limit - 1, -(10**limit - 1)):
        exact.check_digits(value)
        str(value)
    for value in (10**limit, -(10**limit), 10**limit * 7):
        with pytest.raises(exact.DigitLimitError):
            exact.check_digits(value)
        with pytest.raises(ValueError):
            str(value)


def test_profile_variance_numerators_are_above_the_refusal_bound():
    # n^(2r+2) Var >= floor(n/2)^(2r+2) / n > 2^bits, the bound in integers
    # that `_profile_variance` refuses on, for both profiles
    for n in range(2, 80):
        for r in (1, 2, 3, 6):
            power, h = 2 * r + 2, n // 2
            bits = power * (h.bit_length() - 1) - n.bit_length()
            for var in (exact.var_c(n, r), exact.var_d(n, r)):
                assert (var.denom_base, var.denom_power) == (n, power)
                assert n * var.numerator >= h**power
                assert bits < 0 or h**power > n * 2**bits


def test_profile_variances_past_the_digits_are_refused_before_any_sieve(monkeypatch,
                                                                        sieved_bounds):
    weights = []
    real = exact._divisor_profile
    monkeypatch.setattr(exact, "_divisor_profile",
                        lambda *args: weights.append(args) or real(*args))
    for var, q in ((exact.var_c, None), (exact.var_d, 1)):
        # at n = 100 the bound passes 10^4300 > 2^14284 from r = 1429 on:
        # 5 (2r + 2) - 7 >= 14285
        for n, r in ((20000, 2000), (100, 1429)):
            with pytest.raises(exact.DigitLimitError, match="at least 10"):
                var(n, r)
        assert weights == [] and sieved_bounds == []
        # just below the bound the profile reads the weight; the numerator is
        # still past the limit, which `check_digits` then refuses
        with pytest.raises(exact.DigitLimitError, match="about 10"):
            exact.check_digits(var(100, 1428).numerator)
        assert weights.pop() == (100, 1428, q)
        sieved_bounds.clear()


def test_first_moments_past_the_digits_are_refused_before_any_sieve(monkeypatch):
    summed = []
    real = exact._summatory
    monkeypatch.setattr(exact, "_summatory", lambda *args: summed.append(args) or real(*args))
    # numerators of at least 3^power > 2^power pass 10^4300 > 2^14284 from
    # power 14285 on: the X_1 = 1 tuples of mu (power r) and of the pmf's
    # k = 1 count (r - 1), and every tuple of nu (r + 1) and moment (r)
    for least, numerator in ((14285, lambda r: exact.mean_mu(3, r).numerator),
                             (14284, lambda r: exact.mean_nu(3, r).numerator),
                             (14285, lambda r: exact.gcd_moment(3, r, 1).numerator),
                             (14286, lambda r: max(v.numerator for v, _ in exact.gcd_pmf(3, r)))):
        with pytest.raises(exact.DigitLimitError, match="at least 10"):
            numerator(least)
        assert summed == []
        # just below the bound the sums run; the numerator is still past the
        # limit, which `check_digits` then refuses
        with pytest.raises(exact.DigitLimitError, match="about 10"):
            exact.check_digits(numerator(least - 1))
        assert summed and all(args[0] == 3 for args in summed)
        summed.clear()
