"""Exhaustive reference implementations.

These enumerate full tuple spaces and subset loops, trading time for
obviousness; the fast formulas elsewhere are gated against them.  Tuple
enumerations are organized around the exact histogram

    gcd_histogram(n, L)[g] = #{(x_1..x_L) in [n]^L : gcd = g}

obtained by reducing gcd over a full meshgrid, so every derived check
remains an exact integer computation over the complete space.  As in
`exact`, a kernel is named by q: None for the coprimality indicator,
q >= 1 for gcd^q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np


def gcd_histogram(n: int, length: int) -> np.ndarray:
    """Exact counts of gcd values over the full tuple space [n]^length."""
    if length == 0:
        raise ValueError("length must be >= 1")
    grids = np.indices((n,) * length, dtype=np.int64) + 1
    g = grids[0]
    for axis in range(1, length):
        g = np.gcd(g, grids[axis])
    return np.bincount(g.ravel(), minlength=n + 1)


def pmf(n: int, r: int) -> list[Fraction]:
    hist = gcd_histogram(n, r)
    return [Fraction(int(hist[k]), n**r) for k in range(1, n + 1)]


def moment(n: int, r: int, q: int) -> Fraction:
    hist = gcd_histogram(n, r)
    num = sum(int(hist[g]) * g**q for g in range(1, n + 1))
    return Fraction(num, n**r)


def marginal_value(n: int, r: int, k: int, q: int | None, hist=None) -> Fraction:
    """U_r(k) (q None) or W_r(k) (q 1) by summing over the exact r-tuple histogram."""
    if hist is None:
        hist = gcd_histogram(n, r)
    f = _kernel(q)
    num = sum(int(hist[a]) * f(gcd(a, k)) for a in range(1, n + 1))
    return Fraction(num, n**r)


def profile_mean_and_var(n: int, r: int, q: int | None):
    hist = gcd_histogram(n, r)
    vals = [marginal_value(n, r, k, q, hist) for k in range(1, n + 1)]
    mean = sum(vals) / n
    second = sum(v * v for v in vals) / n
    return mean, second - mean * mean


def _kernel(q: int | None):
    """The coprimality indicator (q None) or gcd^q, as a function of the gcd."""
    if q is None:
        return lambda g: 1 if g == 1 else 0
    return lambda g: g**q


def shared_covariance(n: int, r: int, s: int, q: int | None = None) -> Fraction:
    """Covariance of two r-tuple kernels sharing s variables, exhaustively.

    Conditions on the shared block: with cntV the gcd histogram of the s
    shared variables and h(g0) the kernel total over one fresh block,
    E[XY] n^(2r-s) = sum_g0 cntV[g0] h(g0)^2.  Every tuple of the
    n^(2r-s) space is accounted exactly once.
    """
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got s={s}")
    f = _kernel(q)
    mean_hist = gcd_histogram(n, r)
    mean_num = sum(int(mean_hist[g]) * f(g) for g in range(1, n + 1))
    mean = Fraction(mean_num, n**r)
    if s == 0:
        return Fraction(0)

    if s == r:
        cnt_v = mean_hist if r == s else gcd_histogram(n, s)
        exy_num = sum(int(cnt_v[g]) * f(g) ** 2 for g in range(1, n + 1))
    else:
        cnt_v = gcd_histogram(n, s)
        cnt_a = gcd_histogram(n, r - s)
        exy_num = 0
        for g0 in range(1, n + 1):
            if cnt_v[g0] == 0:
                continue
            h = sum(int(cnt_a[a]) * f(gcd(g0, a)) for a in range(1, n + 1))
            exy_num += int(cnt_v[g0]) * h * h
    return Fraction(exy_num, n ** (2 * r - s)) - mean * mean


def mixed_moment_pi(n: int, r: int, q: int) -> Fraction:
    """E[gcd^q * gcd^q] over two r-tuples sharing one variable, exhaustively."""
    cnt_a = gcd_histogram(n, r - 1)
    num = 0
    for k in range(1, n + 1):
        h = sum(int(cnt_a[a]) * gcd(k, a) ** q for a in range(1, n + 1))
        num += h * h
    return Fraction(num, n ** (2 * r - 1))


def statistic_mean_and_var(n: int, m: int, r: int, q: int | None = None):
    """Exact mean and variance of the subset-sum statistic over all n^m samples."""
    f = _kernel(q)
    grids = np.indices((n,) * m, dtype=np.int64) + 1
    flat = grids.reshape(m, -1)
    totals = np.zeros(flat.shape[1], dtype=np.int64)
    fvals = np.array([0] + [f(g) for g in range(1, n + 1)], dtype=np.int64)
    for subset in combinations(range(m), r):
        g = flat[subset[0]]
        for axis in subset[1:]:
            g = np.gcd(g, flat[axis])
        totals = totals + fvals[g]
    s1 = int(np.sum(totals.astype(object)))
    s2 = int(np.sum((totals.astype(object)) ** 2))
    mean = Fraction(s1, n**m)
    return mean, Fraction(s2, n**m) - mean * mean


# --- naive per-sample statistics (subset loops) -----------------------------

def naive_stat_C(sample, r: int) -> int:
    return sum(
        1
        for sub in combinations(sample, r)
        if _gcd_reduce(sub) == 1
    )


def naive_stat_Z(sample, r: int, q: int) -> int:
    return sum(_gcd_reduce(sub) ** q for sub in combinations(sample, r))


def naive_stat_M(sample) -> int:
    return max(gcd(int(a), int(b)) for a, b in combinations(sample, 2))


def naive_poisson_count(sample, threshold) -> int:
    return sum(
        1 for a, b in combinations(sample, 2) if gcd(int(a), int(b)) > threshold
    )


def _gcd_reduce(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, int(v))
    return g
