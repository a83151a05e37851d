"""Sieved arithmetic functions: Mobius mu, Euler/Jordan totients, divisor
counts, Pillai sums and divisor enumeration.

Everything is exact integer arithmetic.  An `ArithTable` up to a bound
`n_max` holds the primes from the start and sieves each other function on
its first read, so a job pays only for the functions it reads; a value once
sieved never changes.  All downstream formulas read from it.

Every multiplicative function comes from one `prime_power_sieve` over its
prime-power values; those of mu, tau, phi_s and P_s are written once, here.
Two dual sweeps run prime by prime: `sum_over_multiples` serves the dense
C/Z route (an (n+1, B) count matrix) and the totient-gcd series (a 1-D
array), and `sum_over_divisors` the divisor-sum profiles of the exact layer.

Function conventions (k >= 1):

    mu(k)        Mobius function, in {-1, 0, 1}
    phi_s(k)     Jordan totient of order s, phi_s = mu * I_s (Dirichlet
                 convolution with I_s(j) = j^s); phi_1 is Euler's phi
    tau(k)      number of divisors
    P_s(k)       Pillai sum  sum_{i<=k} gcd(i,k)^s  =  (phi * I_s)(k)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, prod

import numpy as np

_INT64_MAX = 2**63 - 1

# Fixed ceiling on table size, which no parameter raises; a table of this
# size costs roughly 1 GB across all arrays.
DEFAULT_MAX_N = 30_000_000


class CapacityError(Exception):
    """Requested table exceeds the fixed table cap DEFAULT_MAX_N."""


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n via a boolean Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _spf_sieve(n: int, primes: np.ndarray) -> np.ndarray:
    """Smallest-prime-factor array; spf[1] = 1, spf[p] = p for primes.

    Each p <= sqrt n of the ascending `primes`, largest first, writes p from p^2 on.
    """
    spf = np.arange(n + 1, dtype=np.int32)
    for p in primes[: np.searchsorted(primes, isqrt(n), "right")][::-1].tolist():
        spf[p * p :: p] = p
    return spf


def mobius_local(p, e):
    """mu(p^e): -1 for e = 1, 0 above."""
    return -1 if e == 1 else 0


def tau_local(p, e):
    """tau(p^e) = e + 1."""
    return e + 1


def totient_local(s: int):
    """phi_s(p^e) = p^(s(e-1)) (p^s - 1), as a function of (p, e)."""
    def local(p, e):
        return p ** (s * (e - 1)) * (p**s - 1)
    return local


def pillai_local(s: int):
    """P_s(p^e) = sum_{i<=e} phi(p^i) p^(s(e-i)), as a function of (p, e)."""
    phi = totient_local(1)

    def local(p, e):
        return p ** (s * e) + sum(phi(p, i) * p ** (s * (e - i)) for i in range(1, e + 1))
    return local


def prime_power_sieve(n: int, primes: np.ndarray, local, dtype) -> np.ndarray:
    """f(k) = prod_{p^e || k} local(p, e) for k = 0..n (f(0) = 0, f(1) = 1).

    `primes` holds (at least) the ascending primes up to n.  No step divides,
    so integer dtypes (object too) are exact while the values fit.  A prime
    p <= sqrt n fills one reused buffer with local(p, v_p(j p)), j <= n/p,
    and multiplies f[p::p] by it.  A prime q > sqrt n divides k at most
    once: f[i q] *= local(q, 1) runs over all such q at once for each
    cofactor i.  local gets p as a Python int, q as an array.
    """
    f = np.ones(n + 1, dtype=dtype)
    f[0] = 0
    primes = primes[: np.searchsorted(primes, n, "right")]
    split = np.searchsorted(primes, isqrt(n), "right")
    buf = np.empty(n // 2, dtype=dtype)
    for p in primes[:split].tolist():
        size = n // p
        buf[:size] = local(p, 1)
        step, e = p, 2
        while step <= size:
            buf[step - 1 : size : step] = local(p, e)
            step, e = step * p, e + 1
        f[p::p] *= buf[:size]
    del buf  # freed before the large-prime pass allocates, which lowers the peak
    large = primes[split:]
    vals = local(large.astype(np.result_type(dtype, np.int64)), 1)
    vals = np.broadcast_to(np.asarray(vals, dtype=dtype), large.shape)
    # the cofactor i = k / q is below sqrt n: stop at the first i with no q <= n / i
    i = 1
    while (count := np.searchsorted(large, n // i, "right")):
        f[i * large[:count]] *= vals[:count]
        i += 1
    return f


def sum_over_multiples(a: np.ndarray, primes) -> None:
    """In place, a[d] becomes sum_{d | k <= n} a[k], n = a.shape[0] - 1.

    The sweep runs along axis 0; a 2-D a sums each column, and each slice
    add then runs over whole contiguous rows.  `primes` are the ascending
    primes up to n, as Python ints; entry 0 is left alone.  For each prime
    p, a[i] += a[i p] runs for i = n/p down to 1, one slice per power of p:
    the i in (n/p^(k+1), n/p^k] read the i p in (n/p^k, n/p^(k-1)], which
    the slice before has finished.  On integers it is exact.
    """
    n = a.shape[0] - 1
    for p in primes:
        hi = n // p
        while hi:
            lo = hi // p
            a[lo + 1 : hi + 1] += a[(lo + 1) * p : hi * p + 1 : p]
            hi = lo


def sum_over_divisors(a: np.ndarray, primes: np.ndarray) -> None:
    """In place, a[k] becomes sum_{d | k} a[d] for k = 1..n, n = a.size - 1.

    The dual of `sum_over_multiples`, on a 1-D a; `primes` holds (at least)
    the ascending primes up to n, and entry 0 is left alone.  For each prime
    p <= sqrt n, a[i p] += a[i] runs for i ascending, one slice per power of
    p: the i in [p^k, p^(k+1)) write the i p in [p^(k+1), p^(k+2)), so no
    slice reads what it writes, and each reads entries the slices before
    have finished.  A prime q > sqrt n divides k at most once, and the
    cofactor i = k / q is below sqrt n, where no such q writes: a[i q] += a[i]
    runs over all such q at once for each i, as in `prime_power_sieve`.  On
    integers it is exact.
    """
    n = a.shape[0] - 1
    primes = primes[: np.searchsorted(primes, n, "right")]
    split = np.searchsorted(primes, isqrt(n), "right")
    for p in primes[:split].tolist():
        lo, top = 1, n // p
        while lo <= top:
            hi = min(lo * p, top + 1)
            a[lo * p : hi * p : p] += a[lo:hi]
            lo = hi
    large = primes[split:]
    i = 1
    while (count := np.searchsorted(large, n // i, "right")):
        a[i * large[:count]] += a[i]
        i += 1


def totient_fits_int64(n: int, s: int) -> bool:
    """Whether phi_s(k) <= n^s fits int64 for every k <= n (no big power for s >= 64)."""
    return n < 2 or (s < 64 and n**s <= _INT64_MAX)


@dataclass
class ArithTable:
    """Sieved values of mu, phi_s, tau and smallest prime factors on 0..n_max.

    Only `primes` is sieved when the table is built.  mu, tau and the
    smallest prime factors are sieved on their first read and cached
    (`cached_property`); each totient order is sieved on its first
    `totient(s)` call and cached in `totient_s`.  A value once read never
    changes.  First reads are single-threaded only; a process pool reads
    what its workers need before it forks (`montecarlo._raw_replicates`).
    """

    n_max: int
    primes: np.ndarray
    totient_s: dict = field(default_factory=dict)

    @cached_property
    def mobius(self) -> np.ndarray:
        return prime_power_sieve(self.n_max, self.primes, mobius_local, np.int8)

    @cached_property
    def tau(self) -> np.ndarray:
        return prime_power_sieve(self.n_max, self.primes, tau_local, np.int32)

    @cached_property
    def smallest_prime_factor(self) -> np.ndarray:
        return _spf_sieve(self.n_max, self.primes)

    def check_index(self, k: int) -> None:
        if not 1 <= k <= self.n_max:
            raise ValueError(f"index {k} outside table range 1..{self.n_max}")

    def totient(self, s: int = 1) -> np.ndarray:
        """phi_s(0..n_max), sieved on demand: int64, or Python ints past int64."""
        vals = self.totient_s.get(s)
        if vals is None:
            if s < 1:
                raise ValueError(f"totient order must be >= 1, got {s}")
            dtype = np.int64 if totient_fits_int64(self.n_max, s) else object
            vals = self.totient_s[s] = prime_power_sieve(self.n_max, self.primes,
                                                         totient_local(s), dtype)
        return vals

    def factorize(self, k: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] of k >= 1, primes ascending.

        The spf array gives each factor inside the table.  Beyond it, trial
        division by the table's primes, then by the odd numbers past them,
        runs until the cofactor is inside the table or is prime.
        """
        if k < 1:
            raise ValueError(f"can only factorize k >= 1, got {k}")
        # 2 is among the table's primes whenever n_max >= 2
        trial = itertools.chain(map(int, self.primes) if self.n_max >= 2 else (2,),
                                itertools.count(self.n_max + 1 | 1, 2))
        out = []
        while k > 1:
            if k <= self.n_max:
                p = int(self.smallest_prime_factor[k])
            else:
                p = next(trial)
                if p * p > k:
                    p = k
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            if e:
                out.append((p, e))
        return out


def build_table(n_max: int) -> ArithTable:
    """A table up to n_max; only the primes are sieved here, the rest on read.

    Raises CapacityError when n_max exceeds DEFAULT_MAX_N.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > DEFAULT_MAX_N:
        raise CapacityError(
            f"a table up to n_max={n_max} exceeds the table cap of {DEFAULT_MAX_N}")
    return ArithTable(n_max=n_max, primes=primes_up_to(n_max))


def weighted_divisors(table: ArithTable, k: int, local) -> list[tuple[int, int]]:
    """(d, w(d)) for the divisors d of k with w(d) != 0, from `factorize`.

    w is the multiplicative function with w(p^i) = local(p, i).
    """
    pairs = [(1, 1)]
    for p, e in table.factorize(k):
        powers = [(p**i, local(p, i)) for i in range(1, e + 1)]
        pairs += [(d * pd, w * pw) for d, w in pairs for pd, pw in powers if pw]
    return pairs


def divisors(table: ArithTable, k: int) -> list[int]:
    """Ascending divisor list of k, all tau(k) of them: tau is never 0 on a prime power."""
    return sorted(d for d, _ in weighted_divisors(table, k, tau_local))


def pillai(table: ArithTable, s: int, k: int) -> int:
    """P_s(k) = sum_{i<=k} gcd(i,k)^s, the product of `pillai_local(s)` over
    the prime powers of k.

    Never the defining O(k) sum (that one is kept as a test oracle).
    """
    table.check_index(k)
    if s < 1:
        raise ValueError(f"Pillai order must be >= 1, got {s}")
    local = pillai_local(s)
    return prod(local(p, e) for p, e in table.factorize(k))
