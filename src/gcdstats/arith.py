"""Sieved arithmetic functions: Mobius mu, Euler/Jordan totients, divisor
counts, Pillai sums, plus gcd/lcm helpers and divisor enumeration.

Everything is exact integer arithmetic.  An `ArithTable` is built once up to
a bound `n_max` and is immutable afterwards; all downstream formulas read
from it.

Function conventions (k >= 1):

    mu(k)        Mobius function, in {-1, 0, 1}
    phi_s(k)     Jordan totient of order s, phi_s = mu * I_s (Dirichlet
                 convolution with I_s(j) = j^s); phi_1 is Euler's phi
    tau(k)      number of divisors
    P_s(k)       Pillai sum  sum_{i<=k} gcd(i,k)^s  =  (phi * I_s)(k)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import gcd as _gcd, isqrt

import numpy as np

_INT64_MAX = 2**63 - 1

# Hard ceiling on table size unless the caller raises it explicitly; a table
# of this size costs roughly 1 GB across all arrays.
DEFAULT_MAX_N = 30_000_000

MAGIC = b"GCDTBL01"


class CapacityError(Exception):
    """Requested table exceeds the configured memory budget."""


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


def _spf_sieve(n: int) -> np.ndarray:
    """Smallest-prime-factor array; spf[1] = 1, spf[p] = p for primes."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    untouched = spf == 0
    spf[untouched] = np.arange(n + 1, dtype=np.int32)[untouched]
    if n >= 1:
        spf[1] = 1
    spf[0] = 0
    return spf


def _mobius_sieve(n: int, primes: np.ndarray) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes.tolist():
        mu[p::p] *= -1
        sq = p * p
        if sq <= n:
            mu[sq::sq] = 0
    return mu


def _jordan_sieve(n: int, s: int, primes: np.ndarray):
    """phi_s(k) for k = 0..n, exact.

    Uses the in-place division trick: start from k^s and apply
    v -= v // p^s for every prime p | k, which realizes
    k^s * prod_{p|k} (1 - p^-s) in integers.  Falls back to Python ints
    when n^s does not fit in int64.
    """
    if s < 1:
        raise ValueError(f"totient order must be >= 1, got {s}")
    if n**s <= _INT64_MAX:
        base = np.arange(n + 1, dtype=np.int64)
        v = base.copy()
        for _ in range(s - 1):
            v *= base
        for p in primes.tolist():
            ps = p**s
            v[p::p] -= v[p::p] // ps
        return v
    # big-integer path, list indexed by k
    v = [k**s for k in range(n + 1)]
    for p in primes.tolist():
        ps = p**s
        for k in range(p, n + 1, p):
            v[k] -= v[k] // ps
    return v


def _tau_sieve(n: int, primes: np.ndarray) -> np.ndarray:
    """Divisor counts, multiplicatively: tau(k) = prod_{p^e || k} (e + 1).

    For each prime power p^e <= n, the multiples of p^e carry the factor e
    from the step before, replaced here by e + 1 (exact integer division).
    """
    tau = np.ones(n + 1, dtype=np.int32)
    tau[0] = 0
    for p in primes.tolist():
        tau[p::p] *= 2
        pe, e = p * p, 2
        while pe <= n:
            seg = tau[pe::pe]
            seg //= e
            seg *= e + 1
            pe, e = pe * p, e + 1
    return tau


@dataclass
class ArithTable:
    """Sieved values of mu, phi_s, tau and smallest prime factors on 1..n_max.

    Immutable once built, except that totient orders not requested at build
    time are filled in lazily on first access (single-threaded use only for
    that first access).
    """

    n_max: int
    mobius: np.ndarray
    totient_s: dict = field(default_factory=dict)
    tau: np.ndarray = None
    smallest_prime_factor: np.ndarray = None
    primes: np.ndarray = None
    _divisor_cache: dict = field(default_factory=dict, repr=False)

    def check_index(self, k: int) -> None:
        if not 1 <= k <= self.n_max:
            raise ValueError(f"index {k} outside table range 1..{self.n_max}")

    def divisor_tuple(self, k: int) -> tuple:
        """Memoized ascending divisors; hot path for per-sample statistics."""
        ds = self._divisor_cache.get(k)
        if ds is None:
            ds = tuple(divisors(self, k))
            self._divisor_cache[k] = ds
        return ds

    def totient(self, s: int = 1):
        """Value array for phi_s, sieving it on demand if missing."""
        vals = self.totient_s.get(s)
        if vals is None:
            vals = _jordan_sieve(self.n_max, s, self.primes)
            self.totient_s[s] = vals
        return vals

    def factorize(self, k: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] of k via the spf array."""
        self.check_index(k)
        out = []
        spf = self.smallest_prime_factor
        while k > 1:
            p = int(spf[k])
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            out.append((p, e))
        return out


def build_table(n_max: int, orders=(1,), max_n: int = DEFAULT_MAX_N) -> ArithTable:
    """Sieve all supported arithmetic functions up to n_max.

    `orders` lists the Jordan totient orders to precompute; more can be
    added lazily later.  Raises CapacityError when n_max exceeds `max_n`.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > max_n:
        raise CapacityError(f"a table up to n_max={n_max} exceeds the table cap of {max_n}")
    primes = primes_up_to(n_max)
    table = ArithTable(
        n_max=n_max,
        mobius=_mobius_sieve(n_max, primes),
        totient_s={},
        tau=_tau_sieve(n_max, primes),
        smallest_prime_factor=_spf_sieve(n_max),
        primes=primes,
    )
    for s in sorted(set(orders)):
        table.totient_s[s] = _jordan_sieve(n_max, s, primes)
    return table


def divisors(table: ArithTable, k: int) -> list[int]:
    """Ascending divisor list of k; its length equals tau(k)."""
    ds = [1]
    for p, e in table.factorize(k):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    ds.sort()
    return ds


def gcd(a: int, b: int) -> int:
    if a < 1 or b < 1:
        raise ValueError("gcd arguments must be >= 1")
    return _gcd(a, b)


def lcm(a: int, b: int) -> int:
    # Python integers are unbounded, so a*b cannot silently wrap.
    if a < 1 or b < 1:
        raise ValueError("lcm arguments must be >= 1")
    return a * b // _gcd(a, b)


def pillai(table: ArithTable, s: int, k: int) -> int:
    """P_s(k) = sum_{i<=k} gcd(i,k)^s, via the divisor form.

    Evaluates sum_{d|k} phi(d) * (k/d)^s, never the defining O(k) sum
    (that one is kept as a test oracle).
    """
    table.check_index(k)
    if s < 1:
        raise ValueError(f"Pillai order must be >= 1, got {s}")
    phi = table.totient(1)
    return sum(int(phi[d]) * (k // d) ** s for d in divisors(table, k))


# --- binary table cache -------------------------------------------------

def save_table(table: ArithTable, path) -> None:
    """Dump a table with a versioned header (magic, n_max, orders).

    Only int64-safe totient orders are serializable; deterministic bytes
    for identical inputs, so cache files can be checksummed.
    """
    orders = sorted(table.totient_s)
    for s in orders:
        if not isinstance(table.totient_s[s], np.ndarray):
            raise ValueError(f"totient order {s} exceeds int64, not serializable")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", table.n_max, len(orders)))
        fh.write(struct.pack(f"<{len(orders)}Q", *orders) if orders else b"")
        for arr in (table.mobius, table.tau, table.smallest_prime_factor, table.primes):
            np.lib.format.write_array(fh, arr, allow_pickle=False)
        for s in orders:
            np.lib.format.write_array(fh, table.totient_s[s], allow_pickle=False)


def load_table(path) -> ArithTable:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a table cache file (magic {magic!r})")
        n_max, n_orders = struct.unpack("<QQ", fh.read(16))
        orders = list(struct.unpack(f"<{n_orders}Q", fh.read(8 * n_orders))) if n_orders else []
        mobius = np.lib.format.read_array(fh, allow_pickle=False)
        tau = np.lib.format.read_array(fh, allow_pickle=False)
        spf = np.lib.format.read_array(fh, allow_pickle=False)
        primes = np.lib.format.read_array(fh, allow_pickle=False)
        totient_s = {}
        for s in orders:
            totient_s[s] = np.lib.format.read_array(fh, allow_pickle=False)
    return ArithTable(
        n_max=int(n_max),
        mobius=mobius,
        totient_s=totient_s,
        tau=tau,
        smallest_prime_factor=spf,
        primes=primes,
    )
