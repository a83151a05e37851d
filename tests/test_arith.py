import random
import tracemalloc
from math import gcd as math_gcd
from math import isqrt

import numpy as np
import pytest

from gcdstats.arith import (
    CHUNK,
    DEFAULT_MAX_N,
    CapacityError,
    _large_values,
    factorize,
    mobius_local,
    pillai_local,
    prefix_sums_at,
    prime_power_sieve,
    prime_power_windows,
    primes_up_to,
    sum_over_divisors,
    sum_over_multiples,
    tau_local,
    totient_local,
    weighted_divisors,
)
from gcdstats.constants import _lcm_local_mass, _product_local_mass
from gcdstats.exact import sieve_weight


def divisor_pairs(ks):
    """(k, d) for every divisor d of each k of `ks`, from one `weighted_divisors` call."""
    owner, d, _ = weighted_divisors(ks, tau_local, np.int64)
    return np.asarray(ks)[owner], d


def per_value(owner, x):
    """The sums of x over the runs of equal owners, every owner present."""
    return np.add.reduceat(x, np.flatnonzero(np.diff(owner, prepend=-1)))


def factor_lists(ks):
    """[(p, e), ...] for each k of `ks`, from one `factorize` call."""
    out = [[] for _ in ks]
    for at, p, e in zip(*(a.tolist() for a in factorize(ks))):
        out[at].append((p, e))
    return out


def sieved(n, local, dtype=np.int64):
    """f(0..n) of the prime-power values `local`, by `prime_power_sieve`."""
    return prime_power_sieve(n, primes_up_to(n), local, dtype)


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


def test_mobius_values():
    mu = sieve_weight(100, None)
    assert mu[1] == 1
    assert mu[6] == 1
    assert mu[4] == 0
    assert mu[12] == 0
    assert mu[30] == -1
    assert set(np.unique(mu[1:]).tolist()) <= {-1, 0, 1}


def test_totient_values():
    phi = sieve_weight(100, 1)
    assert phi[12] == 4  # {1,5,7,11}
    assert sieve_weight(100, 2)[6] == 24
    assert int(sieve_weight(100, 4)[3]) == 3**4 - 1
    assert sieved(100, tau_local, np.int32)[12] == 6


def test_totient_divisor_sum_identity():
    phi = sieve_weight(1000, 1)
    k, d = divisor_pairs(np.arange(1, 201))
    assert per_value(k, phi[d]).tolist() == list(range(1, 201))


def test_mobius_divisor_sum_identity():
    mu = sieve_weight(1000, None).astype(np.int64)
    k, d = divisor_pairs(np.arange(1, 201))
    assert per_value(k, mu[d]).tolist() == [1] + [0] * 199


def test_jordan_product_form():
    # phi_s(k) = k^s prod_{p|k} (1 - p^-s), exact in integers
    factors = factor_lists(range(1, 501))
    for s in (1, 2, 3):
        vals = sieve_weight(1000, s)
        for k in range(1, 501):
            expected = k**s
            for p, _ in factors[k - 1]:
                expected = expected // p**s * (p**s - 1)
            assert int(vals[k]) == expected
            assert 1 <= int(vals[k]) <= k**s


def test_multiplicativity_spot_checks():
    rng = random.Random(7)
    mu, tau = sieve_weight(1000, None), sieved(1000, tau_local, np.int32)
    checked = 0
    while checked < 60:
        a = rng.randint(2, 31)
        b = rng.randint(2, 31)
        if math_gcd(a, b) != 1:
            continue
        for s in (1, 2):
            phi_s = sieve_weight(1000, s)
            assert int(phi_s[a * b]) == int(phi_s[a]) * int(phi_s[b])
        assert int(tau[a * b]) == int(tau[a]) * int(tau[b])
        assert int(mu[a * b]) == int(mu[a]) * int(mu[b])
        checked += 1


def test_dirichlet_convolution_identities_to_1e4():
    phi, mu = sieve_weight(10_000, 1), sieve_weight(10_000, None).astype(np.int64)
    k, d = divisor_pairs(np.arange(1, 10_001))
    for s in (1, 2):
        phi_s = sieve_weight(10_000, s)
        p_s = sieved(10_000, pillai_local(s))[1:]
        # (mu * I_s)(k) = phi_s(k)
        assert np.array_equal(per_value(k, mu[d] * (k // d) ** s), phi_s[1:])
        # (phi * I_s)(k) = P_s(k)
        assert np.array_equal(per_value(k, phi[d] * (k // d) ** s), p_s)
        # (phi_s * I)(k) = P_s(k)
        assert np.array_equal(per_value(k, phi_s[d] * (k // d)), p_s)


def test_pillai_bound_chain_to_1e4():
    k = np.arange(10_001)
    p1, p2 = (sieved(10_000, pillai_local(s)) for s in (1, 2))
    # P_2(k)/k^2 <= P(k)/k <= tau(k), compared in integers
    assert np.all(p2 * k <= p1 * k**2)
    assert np.all(p1 <= sieved(10_000, tau_local, np.int32) * k)


def test_pillai_examples_and_oracle():
    pillai = {s: sieved(100, pillai_local(s)) for s in (1, 2, 3)}
    assert pillai[1][6] == 15
    assert pillai[2][6] == 55
    assert pillai[1][1] == 1
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 100)
        s = rng.randint(1, 3)
        assert pillai[s][k] == naive_pillai(k, s)


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


def test_factorize_inside_and_beyond_the_table(monkeypatch):
    from gcdstats import arith

    rng = random.Random(3)
    ks = list(range(1, 300)) + [rng.randint(1, 10**9) for _ in range(100)]
    ks += [1009 * 1013, 2**40, 3**20 * 7, 2**31 - 1, 99_991**2]
    expected = [naive_factorize(k) for k in ks]
    # whatever sieve the process keeps, below the largest root or above it
    for bound in (1, 2, 3, 10, 97, 1000, 10**6):
        monkeypatch.setattr(arith, "_kept", (bound, arith._eratosthenes(bound)))
        assert factor_lists(ks) == expected
        assert factor_lists(ks[::-1]) == expected[::-1]
    assert all(a.dtype == np.int64 for a in factorize(ks))
    assert [a.size for a in factorize([])] == [0, 0, 0]
    with pytest.raises(ValueError):
        factorize([5, 0])


def test_factorize_sieves_only_primes(sieve_calls, sieved_bounds, monkeypatch):
    from gcdstats import arith

    assert factor_lists([360, 99_991**2, 1]) == [[(2, 3), (3, 2), (5, 1)], [(99_991, 2)], []]
    assert sieve_calls == [] and sieved_bounds == [99_991]
    # past DEFAULT_MAX_N^2 a value is refused before its root is sieved
    with pytest.raises(CapacityError):
        factorize([6, DEFAULT_MAX_N**2 + 1])
    assert sieved_bounds == [99_991]
    # at a smaller cap (a prime), its square is the largest value taken
    monkeypatch.setattr(arith, "DEFAULT_MAX_N", 100_003)
    assert factor_lists([100_003**2]) == [[(100_003, 2)]]
    with pytest.raises(CapacityError):
        factorize([100_003**2 + 1])
    assert sieve_calls == [] and sieved_bounds == [99_991, 100_003]


def test_weighted_divisors_is_plain_enumeration():
    top = 2000
    for local, w, dtype in ((mobius_local, plain_mobius_sieve(top), np.int8),
                            (totient_local(1), plain_jordan_sieve(top, 1), np.int64),
                            (totient_local(3), plain_jordan_sieve(top, 3), np.int64),
                            (totient_local(30), plain_jordan_sieve(top, 30, object), object),
                            (tau_local, plain_tau_sieve(top), np.int32)):
        owner, d, got_w = weighted_divisors(range(1, top + 1), local, dtype)
        assert owner.dtype == d.dtype == np.int64 and got_w.dtype == dtype
        assert np.all(np.diff(owner) >= 0)
        got = [[] for _ in range(top)]
        for k, pair in zip(owner.tolist(), zip(d.tolist(), got_w.tolist())):
            got[k].append(pair)
        for k in range(1, top + 1):
            want = [(d, int(w[d])) for d in range(1, k + 1) if k % d == 0 and w[d]]
            assert sorted(got[k - 1]) == want, k


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pillai_local_sieves_the_defining_sum(s):
    n = 2000
    got = prime_power_sieve(n, primes_up_to(n), pillai_local(s), np.int64)
    assert got.tolist() == [0] + [naive_pillai(k, s) for k in range(1, n + 1)]


def test_divisors():
    k, d = divisor_pairs(np.arange(1, 101))
    ds = [sorted(d[k == v].tolist()) for v in range(1, 101)]
    assert ds[0] == [1]
    assert ds[11] == [1, 2, 3, 4, 6, 12]
    assert ds[6] == [1, 7]
    assert [len(x) for x in ds] == sieved(100, tau_local, np.int32)[1:].tolist()
    assert all(len(set(x)) == len(x) for x in ds)
    assert np.all(k % d == 0)


def boolean_sieve(n):
    """Ascending primes <= n by a sieve over every number to n, the reference
    for the odd-only `_eratosthenes`."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def test_odd_only_sieve_is_the_boolean_sieve(monkeypatch):
    from gcdstats import arith

    for n in range(0, 10_001):
        got = arith._eratosthenes(n)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, boolean_sieve(n)), n
    for n in (2**16 - 1, 2**16, 10**6 + 1, 2**20 + 7, 9_999_991):
        assert np.array_equal(arith._eratosthenes(n), boolean_sieve(n)), n
    # the kept sieve at the cap: its prefix views are the reference's primes
    want = boolean_sieve(DEFAULT_MAX_N)
    monkeypatch.setattr(arith, "_kept", (DEFAULT_MAX_N, arith._eratosthenes(DEFAULT_MAX_N)))
    for n in (0, 1, 2, 3, 10**4, 2**20, 10**7, 29_999_999, DEFAULT_MAX_N):
        assert np.array_equal(primes_up_to(n), want[: np.searchsorted(want, n, "right")]), n


def test_primes_up_to_reads_prefixes_of_the_kept_sieve(sieved_bounds, monkeypatch):
    # trial division, the plain reference
    plain = [p for p in range(2, 2001) if all(p % d for d in range(2, isqrt(p) + 1))]
    primes_up_to(2000)
    for k in range(-1, 2001):
        got = primes_up_to(k)
        assert got.tolist() == [p for p in plain if p <= k], k
        assert not got.flags.writeable
    assert sieved_bounds == [2000]
    with pytest.raises(ValueError):
        primes_up_to(1000)[0] = 4
    # at both sides of a kept bound: the bound itself is a view, one past it sieves
    from gcdstats import arith

    monkeypatch.setattr(arith, "_kept", (1000, arith._eratosthenes(1000)))
    del sieved_bounds[:]
    for k in (999, 1000, 1001, 1002):
        assert primes_up_to(k).tolist() == [p for p in plain if p <= k], k
    assert sieved_bounds == [1001, 1002]


def test_no_module_keeps_a_functools_cache():
    # the kept prime sieve is the one process-wide cache: a new memo cache
    # needs a decision of its own, and an edit here
    import importlib
    import pkgutil

    import gcdstats

    caches = []
    for info in pkgutil.iter_modules(gcdstats.__path__):
        module = importlib.import_module(f"gcdstats.{info.name}")
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            caches += [f"{info.name}.{name}" + (f".{attr}" if attr else "")
                       for attr, member in members
                       if callable(member) and hasattr(member, "cache_info")]
    assert caches == []


def test_only_arith_spells_the_int64_limit():
    # every int64-or-Python-int choice goes through arith.int_dtype, and every
    # other int64 range check reads arith.INT64_MAX
    import re
    from pathlib import Path

    import gcdstats

    spelled = []
    for path in sorted(Path(gcdstats.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        spelled += [f"{path.name}:{i}" for i, line in enumerate(lines, 1)
                    if path.name != "arith.py" and re.search(r"2\s*\*\*\s*6[23]\b|iinfo", line)]
    assert spelled == []


def test_no_exact_or_brute_function_takes_a_kind():
    # a kernel is named by the order q of its weight alone, None for mu
    import inspect

    from gcdstats import brute, exact

    takes_kind = [f"{module.__name__}.{name}" for module in (exact, brute)
                  for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == module.__name__
                  and "kind" in inspect.signature(obj).parameters]
    assert takes_kind == []


def test_high_order_totient_falls_back_to_big_ints():
    vals = sieve_weight(50, 12)
    assert vals.dtype == object  # 50^12 exceeds int64
    assert vals[2] == 2**12 - 1
    assert vals[6] == 6**12 * (2**12 - 1) * (3**12 - 1) // (2**12 * 3**12)


def test_prime_power_sieve_is_the_plain_sieves():
    for n in list(range(1, 130)) + [255, 256, 257, 1000, 4096, 9973, 10_000]:
        for got, want in ((sieve_weight(n, None), plain_mobius_sieve(n)),
                          (sieved(n, tau_local, np.int32), plain_tau_sieve(n)),
                          (sieve_weight(n, 1), plain_jordan_sieve(n, 1)),
                          (sieve_weight(n, 2), plain_jordan_sieve(n, 2))):
            assert got.dtype == want.dtype and np.array_equal(got, want), n
    # 50^12 exceeds int64: the order is an array of Python ints
    got = sieve_weight(50, 12)
    want = plain_jordan_sieve(50, 12, dtype=object).tolist()
    assert got.dtype == object and all(type(v) is int for v in got.tolist())
    assert got.tolist() == want


def plain_multiplicative(n, locals_):
    """Each f(k) = f(m) local(p, e) with p^e || k and m = k / p^e, k by k."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n)[::-1].tolist():
        spf[p::p] = p
    outs = [[0, 1] for _ in locals_]
    for k in range(2, n + 1):
        p = int(spf[k])
        m, e = k // p, 1
        while m % p == 0:
            m, e = m // p, e + 1
        for out, local in zip(outs, locals_):
            out.append(out[m] * local(p, e))
    return outs


def test_prime_power_sieve_across_chunk_edges():
    # the j <= n / p of p = 2 and 3 span more than one chunk, and the chunk edges
    # fall between multiples of 3^k: each chunk finds its own first multiple of p^k
    n = 4 * CHUNK + 5
    cases = ((mobius_local, np.int8), (tau_local, np.int32), (totient_local(1), np.int64),
             (totient_local(4), object), (pillai_local(1), np.float64))
    wants = plain_multiplicative(n, [local for local, _ in cases])
    primes = primes_up_to(n)
    for (local, dtype), want in zip(cases, wants):
        got = prime_power_sieve(n, primes, local, dtype)
        assert got.dtype == dtype and got.tolist() == want, dtype


@pytest.mark.parametrize("n, width", [(1000, 1), (2000, 7), (8197, 4096)])
def test_table_windows_are_width_independent(n, width, monkeypatch):
    # a table is sieved in windows of TABLE_WINDOW entries, views of it: at any
    # width, as the streamed windows of WINDOW entries, the same values
    from gcdstats import arith

    cases = ((mobius_local, np.int8), (tau_local, np.int32), (totient_local(1), np.int64),
             (totient_local(4), object), (pillai_local(1), np.float64))
    wants = plain_multiplicative(n, [local for local, _ in cases])
    monkeypatch.setattr(arith, "TABLE_WINDOW", width)
    for (local, dtype), want in zip(cases, wants):
        got = prime_power_sieve(n, primes_up_to(n), local, dtype)
        assert got.dtype == dtype and got.tolist() == want, dtype


# the window edges at multiples of 4096 and of 7 fall inside the runs of multiples of
# 3^k, 5^k and 7^k; width 1 takes every prime as a medium prime, width 7 all but 2,
# width 4096 the primes above 64, and width n + 1 none; chunk 3 splits the multiples of
# each small prime and the pair groups of every window
@pytest.mark.parametrize("n, width, chunk", [(1000, 1, CHUNK), (2000, 7, CHUNK),
                                             (8197, 4096, CHUNK), (8197, 8198, CHUNK),
                                             (2000, 7, 3), (8197, 4096, 3), (8197, 8198, 3)])
def test_prime_power_windows_are_width_independent(n, width, chunk, monkeypatch):
    from gcdstats import arith

    primes = primes_up_to(n)
    cases = ((mobius_local, np.int8), (tau_local, np.int32), (totient_local(1), np.int64),
             (totient_local(4), object), (pillai_local(1), np.float64),
             (_lcm_local_mass, np.float64), (_product_local_mass, np.float64))
    wants = [prime_power_sieve(n, primes, local, dtype) for local, dtype in cases]
    plain = plain_multiplicative(n, [local for local, _ in cases[:5]])
    # the integer products and Pillai's exact float ones have no rounding to order
    assert all(want.tolist() == p for want, p in zip(wants, plain))
    monkeypatch.setattr(arith, "WINDOW", width)
    monkeypatch.setattr(arith, "CHUNK", chunk)
    for (local, dtype), want in zip(cases, wants):
        got = prime_power_sieve(n, primes, local, dtype)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), dtype
        los, windows = [], []
        for lo, w in prime_power_windows(n, primes, local, dtype):
            los.append(lo)
            windows += w.tolist()  # w is reused: read before the next window
        assert los == list(range(0, n + 1, width)) and windows == want.tolist(), dtype


@pytest.mark.parametrize("width", [1000, 5001])
def test_prefix_sums_at_are_one_whole_cumsum(width, monkeypatch):
    from gcdstats import arith

    monkeypatch.setattr(arith, "WINDOW", width)
    n = 5000
    primes = primes_up_to(n)
    points = np.array([0, 1, 2, 999, 1000, 1000, 1001, 2500, 4999, 5000])
    cases = ((mobius_local, np.int8, np.int64), (totient_local(1), np.int64, np.int64),
             (totient_local(7), object, object), (totient_local(2), np.int64, object),
             (pillai_local(1), np.float64, np.float64), (_lcm_local_mass, np.float64, np.float64))
    for local, dtype, sums in cases:
        f = prime_power_sieve(n, primes, local, dtype)
        got = prefix_sums_at(prime_power_windows(n, primes, local, dtype), points, sums)
        want = np.cumsum(f.astype(sums))[points]
        # bit for bit in float64: the carry makes the sums one cumsum's
        assert got.dtype == sums and repr(got.tolist()) == repr(want.tolist()), (dtype, sums)
        if dtype != object:  # a table's windows of another dtype are summed as cast copies
            kept = f.copy()
            windows = ((lo, f[lo : lo + 700]) for lo in range(0, n + 1, 700))
            assert prefix_sums_at(windows, points, object).tolist() == want.tolist()
            assert f.tolist() == kept.tolist()


def test_prime_power_sieve_holds_one_chunk_beside_its_output():
    n = 10**6
    primes = primes_up_to(n)
    tracemalloc.start()
    try:
        prime_power_sieve(n, primes, totient_local(1), np.int64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one chunk and the large-prime pass's index temporaries
    assert peak <= 8 * (n + 1) + 2.5 * 2**20


def test_large_prime_values_hold_a_few_chunks_beside_them():
    # local(q, 1) over the primes q > sqrt n runs CHUNK primes at a time: the float
    # mass's temporaries (about five of them) are CHUNK entries each, not pi(n)
    n = 10**6
    primes = primes_up_to(n)
    large = primes[np.searchsorted(primes, isqrt(n), "right") :]
    tracemalloc.start()
    try:
        vals = _large_values(large, _product_local_mass, np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == large.shape and peak <= vals.nbytes + 10 * 8 * CHUNK
    # a local that is one constant at e = 1 is broadcast, not stored
    assert _large_values(large, tau_local, np.int32).strides == (0,)


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
