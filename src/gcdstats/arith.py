"""Sieved arithmetic functions: Mobius mu, Euler/Jordan totients, divisor
counts and Pillai sums; factorisation and divisor enumeration of arrays.

Everything is exact integer arithmetic.  Every prime comes from one kept
sieve, `primes_up_to`, and every multiplicative function from one windowed
sieve over its prime-power values, `prime_power_windows`: `prefix_sums_at`
sums the windows with a carry (the trend sums, the Mertens and Jordan sums
of the exact layer), and `prime_power_sieve` writes them into one n-entry
table, which a caller sieves for the one function it reads and holds no
longer than it needs it.  The prime-power values of mu, tau, phi_s and P_s
are written once, here.  Whether an integer array is int64 or Python ints
is decided here too, by one rule on a bound its caller proves (`int_dtype`).
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

from math import isqrt

import numpy as np

INT64_MAX = 2**63 - 1

# Fixed ceiling on table size, which no parameter raises; a table of this
# size costs roughly 1 GB across all arrays.
DEFAULT_MAX_N = 30_000_000

# entries a chunked pass over an n-entry array handles at a time
CHUNK = 1 << 14

# entries of f that one streamed window of `prime_power_windows` covers: its
# one buffer is 512 KiB of float64, which with the large-prime values sets a
# trend sum's peak at N = 1e6
WINDOW = 1 << 16

# entries one window of a table covers: a view of the table, holding no
# buffer, so it is wider and each prime pays fewer windows (mu to 3e7 is
# sieved in 0.53 s at this width, 0.91 s at WINDOW, on a 2-vCPU Xeon)
TABLE_WINDOW = 1 << 18


def int_dtype(bound: int):
    """int64 when `bound`, which covers every value, product and partial sum
    the caller's array holds, is at most INT64_MAX, else object (Python ints):
    the one int64-or-Python-int rule, so a lower INT64_MAX forces Python ints."""
    return np.int64 if bound <= INT64_MAX else object


class CapacityError(Exception):
    """Requested table exceeds the fixed table cap DEFAULT_MAX_N."""


def _eratosthenes(n: int) -> np.ndarray:
    """Ascending primes <= n by a sieve over the odd numbers; read-only.

    odd[i] stands for 2i + 1, so the mask takes n/2 bytes.  Its entry 0,
    the number 1, stands in for the prime 2: it is set when n >= 2, and the
    1 it gives is rewritten to 2, so the primes are made in one array.
    """
    odd = np.ones((n + 1) // 2, dtype=bool)
    odd[:1] = n >= 2
    for i in range(1, (isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[:1] = 2
    primes.flags.writeable = False
    return primes


# the largest sieve made in this process, as (bound, its primes)
_kept = (1, _eratosthenes(1))


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n, read-only: the process's one prime source.

    The largest sieve made in the process is kept, and a bound at or below
    it is answered by a prefix view of its primes; only a larger bound
    sieves again.  Raises CapacityError, before sieving, when n exceeds
    DEFAULT_MAX_N.
    """
    global _kept
    bound, primes = _kept
    if n > bound:
        if n > DEFAULT_MAX_N:
            raise CapacityError(f"a sieve up to {n} exceeds the table cap of {DEFAULT_MAX_N}")
        primes = _eratosthenes(n)
        _kept = (n, primes)
    return primes[: np.searchsorted(primes, n, "right")]


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


def prime_power_windows(n: int, primes: np.ndarray, local, dtype, out=None):
    """Yield (lo, w), w = f(lo..hi-1), for consecutive windows [lo, hi) covering 0..n.

    f(k) = prod_{p^e || k} local(p, e), with f(0) = 0 and f(1) = 1.  Each
    window is WINDOW entries wide (the last may be shorter) and is written in
    one reused buffer, which the next window overwrites; with `out`, an
    (n+1)-entry array of `dtype`, each w is the view out[lo:hi] instead, and
    TABLE_WINDOW entries wide.
    `primes` holds (at least) the ascending primes up to n.  No step divides,
    so integer dtypes (object too) are exact while the values fit.

    A window starts at 1, and the primes multiply the entries they divide
    by local(p, v_p(k)) in ascending order, in three bands:
    - a prime p <= sqrt width runs over its multiples j p in the window,
      CHUNK values of j at a time: it fills one reused CHUNK-entry buffer
      with local(p, v_p(j p)) and multiplies those entries by it;
    - a prime p in (sqrt width, sqrt n] has too few multiples in a window
      to pay numpy calls of its own: the (p, j) pairs of all of them go in
      one ordered `np.multiply.at` per CHUNK pairs, p ascending;
    - a prime q > sqrt n divides k at most once, and the cofactor i = k / q
      is below sqrt n: the entries i q are multiplied by local(q, 1) in one
      gather and scatter per CHUNK (i, q) pairs.
    local(p, e) is taken once per prime, not per window: with p a Python
    int for p <= sqrt n, and over the q > sqrt n as arrays of CHUNK primes
    (`_large_values`).
    So every entry is multiplied by the same values in the same order,
    whatever the window width.
    """
    primes = primes[: np.searchsorted(primes, n, "right")]
    split = np.searchsorted(primes, isqrt(n), "right")
    powers = []  # local(p, e) for each p <= sqrt n and each p^e <= n
    for p in primes[:split].tolist():
        values, e = [], 1
        while p**e <= n:
            values.append(local(p, e))
            e += 1
        powers.append(values)
    width = WINDOW if out is None else TABLE_WINDOW
    strided = np.searchsorted(primes[:split], isqrt(width), "right")
    small = list(zip(primes[:strided].tolist(), powers[:strided]))
    medium = primes[strided:split]
    # medium_vals[r, v] = local(medium[r], v + 1)
    medium_vals = np.ones((medium.size, max(map(len, powers[strided:]), default=0)), dtype)
    for row, values in zip(medium_vals, powers[strided:]):
        row[: len(values)] = values
    large = primes[split:]
    large_vals = _large_values(large, local, dtype)
    buf = np.empty(min(CHUNK, n // 2), dtype=dtype)
    window = np.empty(min(width, n + 1), dtype=dtype) if out is None else None
    for lo in range(0, n + 1, width):
        hi = min(lo + width, n + 1)
        w = window[: hi - lo] if out is None else out[lo:hi]
        w[:] = 1
        if lo == 0:
            w[0] = 0
        _small_primes(w, lo, small, buf)
        if medium.size:  # none when n <= width
            _medium_primes(w, lo, medium, medium_vals)
        if large.size:
            _large_primes(w, lo, large, large_vals)
        yield lo, w


def _large_values(large, local, dtype) -> np.ndarray:
    """local(q, 1) for each q of `large`, as `dtype`, evaluated CHUNK primes at a time.

    A local that is one constant at e = 1 (mu, tau) is broadcast, not stored.
    """
    ctype = np.result_type(dtype, np.int64)  # the type local(q, 1) is evaluated in
    first = local(large[:CHUNK].astype(ctype), 1)
    if np.ndim(first) == 0:
        return np.broadcast_to(np.asarray(first, dtype=dtype), large.shape)
    vals = np.empty(large.shape, dtype=dtype)
    vals[:CHUNK] = first
    for a in range(CHUNK, large.size, CHUNK):
        vals[a : a + CHUNK] = local(large[a : a + CHUNK].astype(ctype), 1)
    return vals


def _small_primes(w, lo, small, buf) -> None:
    """w[k - lo] *= local(p, v_p(k)) for the multiples k of each p of `small`, CHUNK j at a time."""
    hi = lo + w.size
    for p, values in small:
        end = (hi - 1) // p + 1  # the j with j p in [lo, hi)
        for a in range(max(1, -(-lo // p)), end, CHUNK):
            b = min(a + CHUNK, end)
            js = buf[: b - a]
            js.fill(values[0])
            step = p
            for value in values[1:]:
                if step >= b:
                    break
                js[-a % step :: step] = value
                step *= p
            w[a * p - lo : b * p - lo : p] *= js


def _medium_primes(w, lo, medium, medium_vals) -> None:
    """w[j p - lo] *= local(p, v_p(j p)) over the (p, j) pairs with j p in the window."""
    hi = lo + w.size
    start = np.maximum((lo - 1) // medium + 1, 1)  # the j with lo <= j p < hi
    for rows, runs, j in _runs(start, (hi - 1) // medium + 1 - start):
        p = np.repeat(medium[rows], runs)
        hit = np.flatnonzero(j % p == 0)  # the few j p with p^2 | j p
        vals = np.repeat(medium_vals[rows, 0], runs)
        if hit.size:
            ph = p[hit]
            jh = j[hit] // ph
            v = np.ones_like(hit)  # v_p(j)
            while (more := jh % ph == 0).any():
                v += more
                jh[more] //= ph[more]
            vals[hit] = medium_vals[np.searchsorted(medium, ph), v]
        j *= p
        j -= lo
        np.multiply.at(w, j, vals)


def _large_primes(w, lo, large, large_vals) -> None:
    """w[i q - lo] *= local(q, 1) over the (i, q) pairs with i q in the window."""
    hi = lo + w.size
    i = np.arange(1, (hi - 1) // int(large[0]) + 1)
    start = np.searchsorted(large, (lo - 1) // i, "right")  # the q with lo <= i q < hi
    for rows, runs, q in _runs(start, np.searchsorted(large, (hi - 1) // i, "right") - start):
        k = np.repeat(i[rows], runs)
        k *= large[q]
        k -= lo
        w[k] *= large_vals[q]  # no k twice: one q > sqrt n divides it


def _runs(start: np.ndarray, count: np.ndarray):
    """Yield (rows, runs, x) for the pairs (r, start[r] + t), t < count[r], CHUNK pairs at a time.

    The pairs are laid out r ascending, then x ascending.  A yield holds
    runs[u] pairs of run r = rows.start + u for each u in turn, so
    np.repeat(a[rows], runs) is a[r] for each of its pairs.
    """
    ends = np.cumsum(count)
    shift = start - ends + count  # pair position -> x, per run
    total = int(ends[-1]) if ends.size else 0
    for a in range(0, total, CHUNK):
        b = min(a + CHUNK, total)
        r0, r1 = np.searchsorted(ends, (a, b - 1), "right")
        rows, runs = slice(r0, r1 + 1), np.diff(ends[r0:r1], prepend=a, append=b)
        x = np.repeat(shift[rows], runs)
        x += np.arange(a, b)
        yield rows, runs, x


def prime_power_sieve(n: int, primes: np.ndarray, local, dtype) -> np.ndarray:
    """f(k) = prod_{p^e || k} local(p, e) for k = 0..n, as `prime_power_windows`
    writes it, window by window, into one (n+1)-entry array.
    """
    f = np.empty(n + 1, dtype=dtype)
    for _ in prime_power_windows(n, primes, local, dtype, out=f):
        pass
    return f


def prefix_sums_at(windows, points, dtype) -> np.ndarray:
    """sum_{k <= x} f(k) at each x of the ascending `points`, as `dtype` (float64,
    int64 where the caller proves the sums fit, or object), from the (lo, w)
    windows of f over 0..max(points).  The running total is added into each
    window's first entry before its cumsum, so every sum is the one a single
    cumsum of all of f gives, bit for bit.  A window of `dtype` is summed in
    place, any other as a cast copy; nothing else is written.
    """
    points = np.asarray(points, dtype=np.int64)
    out, carry = np.zeros(points.size, dtype=dtype), 0
    for lo, w in windows:
        w = w.astype(dtype, copy=False)
        w[0] += carry
        np.cumsum(w, out=w)
        a, b = np.searchsorted(points, (lo, lo + w.size))
        out[a:b] = w[points[a:b] - lo]
        carry = w[-1]
    return out


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
    runs over all such q at once for each i.  On integers it is exact.
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


def factorize(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime factorisations of `values`, integers in 1..DEFAULT_MAX_N^2, as int64
    arrays (owner, p, e): p^e exactly divides values[owner], owner ascending, then p.

    The values are divided at once by the primes up to the root of the largest,
    ascending, CHUNK (value, prime) pairs at a time; a value drops out once its
    cofactor is below p^2, as 1 or a prime, so one path serves values inside a
    table and beyond it.  Raises CapacityError, before any sieve, past DEFAULT_MAX_N^2.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    if values.size and values.min() < 1:
        raise ValueError(f"can only factorize values >= 1, got {values.min()}")
    top = int(values.max(initial=1))
    if top > DEFAULT_MAX_N**2:
        raise CapacityError(f"factorising {top} needs primes past the table cap of {DEFAULT_MAX_N}")
    # root + 1 ends the walk: its square is above every cofactor
    primes = np.append(primes_up_to(isqrt(top)), isqrt(top) + 1)
    cof, at, lo = values.copy(), np.arange(values.size), 0
    parts = [(at[:0], cof[:0], cof[:0])]  # (owner, p, e) of each p met, then of the primes left
    while cof.size:
        if (done := cof < primes[lo] ** 2).any():
            left = done & (cof > 1)
            parts.append((at[left], cof[left], np.ones(left.sum(), dtype=np.int64)))
            cof, at = cof[~done], at[~done]
        ps = primes[lo : min(lo + max(1, CHUNK // max(1, cof.size)), primes.size - 1)]
        row, col = (cof[:, None] % ps == 0).nonzero()
        c, q, e = cof[row], ps[col], np.zeros(row.size, dtype=np.int64)
        while (more := c % q == 0).any():
            c[more] //= q[more]
            e += more
        np.floor_divide.at(cof, row, q**e)
        parts.append((at[row], q, e))
        lo += ps.size
    owner, p, e = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(owner, kind="stable")  # each owner's primes were met ascending
    return owner[order], p[order], e[order]


def run_positions(sizes: np.ndarray, of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, counts = sizes[of]): runs of sizes[g] items laid end to end, g = 0, 1, ...,
    and pos the positions of run of[0], then of run of[1], and so on."""
    counts = sizes[of]
    ends = np.cumsum(counts)
    pos = np.repeat(np.cumsum(sizes)[of] - ends, counts)
    pos += np.arange(pos.size)
    return pos, counts


def weighted_divisors(values, local, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The divisors d of `values` (as `factorize` takes them) with w(d) != 0, as
    arrays (owner, d, w), owner ascending; w(p^i) = local(p, i), as `dtype`.

    Each value's entries grow one prime slot at a time, slot j holding its j-th
    prime p^e: (d, w) becomes (d p^i, w local(p, i)) for the i <= e with
    local(p, i) != 0, read from a (value, i) table by broadcasting.
    """
    owner_p, p, e = factorize(values)
    count = np.size(values)
    owner, d, w = np.arange(count), np.ones(count, dtype=np.int64), np.ones(count, dtype=dtype)
    slot = np.arange(owner_p.size) - np.searchsorted(owner_p, owner_p)
    for j in range(int(slot.max(initial=-1)) + 1):
        # each value's slot-j prime power, or 1^0 where it has none
        pj, ej = np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
        pj[owner_p[slot == j]], ej[owner_p[slot == j]] = p[slot == j], e[slot == j]
        i = np.arange(int(ej.max()) + 1)
        powers = pj[:, None] ** np.minimum(i, ej[:, None])
        weights = np.ones((count, 1), dtype=dtype) * (i == 0)  # local(p, 0) = 1
        for k in range(1, i.size):  # local(p, k) is taken in int64, or in Python ints
            weights[ej >= k, k] = local(pj[ej >= k].astype(np.result_type(dtype, np.int64)), k)
        cells = np.flatnonzero(weights)  # the kept (value, i), value by value
        pos, counts = run_positions(np.bincount(cells // i.size, minlength=count), owner)
        owner = np.repeat(owner, counts)
        d = np.repeat(d, counts) * powers.ravel()[cells[pos]]
        w = np.repeat(w, counts) * weights.ravel()[cells[pos]]
    return owner, d, w
