import random
from math import gcd as math_gcd

import numpy as np
import pytest

from gcdstats.arith import (
    DEFAULT_MAX_N,
    CapacityError,
    build_table,
    divisors,
    mobius_local,
    pillai,
    pillai_local,
    prime_power_sieve,
    primes_up_to,
    sum_over_divisors,
    sum_over_multiples,
    tau_local,
    totient_local,
    weighted_divisors,
)


def naive_pillai(k, s):
    return sum(math_gcd(i, k) ** s for i in range(1, k + 1))


def plain_tau_sieve(n):
    """Divisor counts by adding 1 at every multiple of every d (reference)."""
    tau = np.zeros(n + 1, dtype=np.int32)
    for d in range(1, n + 1):
        tau[d::d] += 1
    return tau


def plain_mobius_sieve(n):
    """mu by a sign flip at every multiple of p and a zero at every multiple of p^2."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(n).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def plain_jordan_sieve(n, s, dtype=np.int64):
    """phi_s from k^s by v -= v // p^s at every multiple of every prime p."""
    phi = np.arange(n + 1, dtype=dtype) ** s
    for p in primes_up_to(n).tolist():
        phi[p::p] -= phi[p::p] // p**s
    return phi


def test_mobius_values(table_100):
    mu = table_100.mobius
    assert mu[1] == 1
    assert mu[6] == 1
    assert mu[4] == 0
    assert mu[12] == 0
    assert mu[30] == -1
    assert set(np.unique(mu[1:]).tolist()) <= {-1, 0, 1}


def test_totient_values(table_100):
    phi = table_100.totient(1)
    assert phi[12] == 4  # {1,5,7,11}
    assert table_100.totient(2)[6] == 24
    assert table_100.tau[12] == 6


def test_totient_divisor_sum_identity(table_1000):
    phi = table_1000.totient(1)
    for k in range(1, 201):
        assert sum(int(phi[d]) for d in divisors(table_1000, k)) == k


def test_mobius_divisor_sum_identity(table_1000):
    mu = table_1000.mobius
    for k in range(1, 201):
        total = sum(int(mu[d]) for d in divisors(table_1000, k))
        assert total == (1 if k == 1 else 0)


def test_jordan_product_form(table_1000):
    # phi_s(k) = k^s prod_{p|k} (1 - p^-s), exact in integers
    for s in (1, 2, 3):
        vals = table_1000.totient(s)
        for k in range(1, 501):
            expected = k**s
            for p, _ in table_1000.factorize(k):
                expected = expected // p**s * (p**s - 1)
            assert int(vals[k]) == expected
            assert 1 <= int(vals[k]) <= k**s


def test_multiplicativity_spot_checks(table_1000):
    rng = random.Random(7)
    mu, tau = table_1000.mobius, table_1000.tau
    checked = 0
    while checked < 60:
        a = rng.randint(2, 31)
        b = rng.randint(2, 31)
        if math_gcd(a, b) != 1:
            continue
        for s in (1, 2):
            phi_s = table_1000.totient(s)
            assert int(phi_s[a * b]) == int(phi_s[a]) * int(phi_s[b])
        assert int(tau[a * b]) == int(tau[a]) * int(tau[b])
        assert int(mu[a * b]) == int(mu[a]) * int(mu[b])
        checked += 1


def test_dirichlet_convolution_identities_to_1e4():
    table = build_table(10_000)
    phi, mu = table.totient(1), table.mobius
    for s in (1, 2):
        phi_s = table.totient(s)
        for k in range(1, 10_001):
            ds = divisors(table, k)
            # (mu * I_s)(k) = phi_s(k)
            assert sum(int(mu[d]) * (k // d) ** s for d in ds) == int(phi_s[k])
            p_s = pillai(table, s, k)
            # (phi * I_s)(k) = P_s(k)
            assert sum(int(phi[d]) * (k // d) ** s for d in ds) == p_s
            # (phi_s * I)(k) = P_s(k)
            assert sum(int(phi_s[d]) * (k // d) for d in ds) == p_s


def test_pillai_bound_chain_to_1e4():
    table = build_table(10_000)
    for k in range(1, 10_001):
        p1 = pillai(table, 1, k)
        p2 = pillai(table, 2, k)
        tau_k = int(table.tau[k])
        # P_2(k)/k^2 <= P(k)/k <= tau(k), compared in integers
        assert p2 * k <= p1 * k**2
        assert p1 <= tau_k * k


def test_pillai_examples_and_oracle(table_100):
    assert pillai(table_100, 1, 6) == 15
    assert pillai(table_100, 2, 6) == 55
    assert pillai(table_100, 1, 1) == 1
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 100)
        s = rng.randint(1, 3)
        assert pillai(table_100, s, k) == naive_pillai(k, s)


def naive_factorize(k):
    """Prime factorization by trial division over every d >= 2 (reference)."""
    out, d = [], 2
    while d * d <= k:
        e = 0
        while k % d == 0:
            k //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(k, 1)] if k > 1 else out


def test_factorize_inside_and_beyond_the_table():
    rng = random.Random(3)
    ks = list(range(1, 300)) + [rng.randint(1, 10**9) for _ in range(100)]
    ks += [1009 * 1013, 2**40, 3**20 * 7, 2**31 - 1, 99_991**2]
    expected = [naive_factorize(k) for k in ks]
    for n_max in (1, 2, 3, 10, 97, 1000):
        table = build_table(n_max)
        assert [table.factorize(k) for k in ks] == expected
    with pytest.raises(ValueError):
        table.factorize(0)


def naive_spf(k):
    """Smallest prime factor by trial division over every d >= 2 (reference)."""
    d = 2
    while d * d <= k:
        if k % d == 0:
            return d
        d += 1
    return k


def test_smallest_prime_factor_is_trial_division():
    want = np.array([naive_spf(k) for k in range(99_992)], dtype=np.int32)
    for n in [*range(1, 301), 2**16 + 1, 99_991]:
        got = build_table(n).smallest_prime_factor
        assert got.dtype == np.int32 and np.array_equal(got, want[: n + 1]), n


def test_weighted_divisors_is_plain_enumeration():
    # a table to 97: every k above it factorises by trial division
    table, top = build_table(97), 2000
    for local, w in ((mobius_local, plain_mobius_sieve(top)),
                     (totient_local(1), plain_jordan_sieve(top, 1)),
                     (totient_local(3), plain_jordan_sieve(top, 3)),
                     (tau_local, plain_tau_sieve(top))):
        for k in range(1, top + 1):
            want = [(d, int(w[d])) for d in range(1, k + 1) if k % d == 0 and w[d]]
            assert sorted(weighted_divisors(table, k, local)) == want, k


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pillai_local_sieves_the_defining_sum(s):
    n = 2000
    got = prime_power_sieve(n, primes_up_to(n), pillai_local(s), np.int64)
    assert got.tolist() == [0] + [naive_pillai(k, s) for k in range(1, n + 1)]


def test_pillai_and_divisors_sieve_only_spf(sieve_calls):
    table = build_table(1000)
    assert pillai(table, 2, 360) == naive_pillai(360, 2)
    assert divisors(table, 840) == [d for d in range(1, 841) if 840 % d == 0]
    assert sieve_calls == ["spf"]


def test_divisors(table_100):
    assert divisors(table_100, 1) == [1]
    assert divisors(table_100, 12) == [1, 2, 3, 4, 6, 12]
    assert divisors(table_100, 7) == [1, 7]
    for k in range(1, 101):
        ds = divisors(table_100, k)
        assert len(ds) == int(table_100.tau[k])
        assert ds == sorted(ds)
        assert all(k % d == 0 for d in ds)


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table(0)
    # the cap is checked before anything is sieved
    with pytest.raises(CapacityError):
        build_table(DEFAULT_MAX_N + 1)


def test_high_order_totient_falls_back_to_big_ints():
    table = build_table(50)
    vals = table.totient(12)
    assert vals.dtype == object  # 50^12 exceeds int64
    assert vals[2] == 2**12 - 1
    assert vals[6] == 6**12 * (2**12 - 1) * (3**12 - 1) // (2**12 * 3**12)


def test_lazy_totient_order(table_100):
    vals = table_100.totient(4)
    assert int(vals[3]) == 3**4 - 1


def test_prime_power_sieve_is_the_plain_sieves():
    for n in list(range(1, 130)) + [255, 256, 257, 1000, 4096, 9973, 10_000]:
        table = build_table(n)
        for got, want in ((table.mobius, plain_mobius_sieve(n)),
                          (table.tau, plain_tau_sieve(n)),
                          (table.totient(1), plain_jordan_sieve(n, 1)),
                          (table.totient(2), plain_jordan_sieve(n, 2))):
            assert got.dtype == want.dtype and np.array_equal(got, want), n
    # 50^12 exceeds int64: the order is an array of Python ints
    got = build_table(50).totient(12)
    want = plain_jordan_sieve(50, 12, dtype=object).tolist()
    assert got.dtype == object and all(type(v) is int for v in got.tolist())
    assert got.tolist() == want


def test_sum_over_multiples_is_the_plain_divisor_sum():
    rng = np.random.default_rng(31)
    for n in range(0, 301):
        primes = primes_up_to(n).tolist()
        for shape in ((n + 1,), (n + 1, 3)):
            ints = rng.integers(-1000, 1000, size=shape)
            big = ints.astype(object) * 10**20  # past int64: Python ints
            for a in (ints, big):
                want = a.copy()
                for d in range(1, n + 1):
                    want[d] = a[d::d].sum(axis=0)
                got = a.copy()
                sum_over_multiples(got, primes)
                assert got.dtype == a.dtype and np.array_equal(got, want), (n, shape)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_sum_over_divisors_is_the_plain_loop(dtype):
    rng = np.random.default_rng(37)
    for n in list(range(0, 301)) + [1000, 99991]:
        primes = primes_up_to(n)
        a = rng.integers(-10**6, 10**6, size=n + 1)
        if dtype is object:
            a = a.astype(object) * 10**20  # past int64: Python ints
        want = a.copy()  # entry 0 stays a[0]
        for d in range(1, n // 2 + 1):
            want[2 * d :: d] += a[d]
        got = a.copy()
        assert sum_over_divisors(got, primes) is None
        assert got.dtype == a.dtype and np.array_equal(got, want), n


def test_table_sieves_each_function_on_first_read_only(sieve_calls):
    table = build_table(1000)
    assert sieve_calls == []  # only the primes
    mu = table.mobius
    assert table.mobius is mu and sieve_calls == ["mu"]
    table.tau, table.tau, table.smallest_prime_factor, table.smallest_prime_factor
    table.totient(2), table.totient(2)
    assert sieve_calls == ["mu", "tau", "spf", "phi_2"]
    assert table.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert sieve_calls == ["mu", "tau", "spf", "phi_2"]
