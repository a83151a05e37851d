"""Gating tests: the fast exact formulas against exhaustive enumeration.

The shared-variable covariances, summed as sum_d G_s(d) h(d)^2 over the
exact gcd counts G_s and the divisor sums h, must match brute force on the
full n <= 20, r <= 3 grid before anything downstream (variance formulas,
normalizations) may rely on them; they must also equal the literal
quadratic double sum over (i, j) with its floor(n/lcm(i,j))^s factor, which
they reorganize, up to n = 150.
"""

from fractions import Fraction
from math import lcm

import pytest

import numpy as np

from gcdstats import brute, exact

GATE_MAX_N = 20


def quadratic_shared_exy(g, n, r, s):
    """The O(n^2) double sum over the kernel's weight g, written exactly as
    derived (oracle form)."""
    total = 0
    for i in range(1, n + 1):
        gi = int(g[i])
        if gi == 0:
            continue
        for j in range(1, n + 1):
            gj = int(g[j])
            if gj == 0:
                continue
            shared = (n // lcm(i, j)) ** s
            if shared == 0:
                continue
            total += gi * gj * (n // i) ** (r - s) * (n // j) ** (r - s) * shared
    return Fraction(total, n ** (2 * r - s))


@pytest.mark.parametrize("r", [2, 3])
def test_shared_covariance_gate(r):
    for n in range(1, GATE_MAX_N + 1):
        for s in range(0, r + 1):
            for q in (None, 1, 2):
                want = brute.shared_covariance(n, r, s, q)
                assert exact.shared_covariance(n, r, s, q).as_fraction() == want, (n, s, q)


@pytest.mark.parametrize("r", [2, 3])
def test_quadratic_form_matches_lcm_enumeration(r):
    # the gcd-count grouping is the same sum as the literal O(n^2) form
    for n in (1, 2, 3, 5, 8, 12, 31, 64, 97, 150):
        for s in range(0, r + 1):
            for q in (None, 1, 2):
                g = exact.sieve_weight(n, q)
                # the plain Cesaro sum: E F(gcd) = sum_i (mu*F)(i) floor(n/i)^r / n^r
                mean = Fraction(sum(int(g[i]) * (n // i) ** r for i in range(1, n + 1)), n**r)
                want = quadratic_shared_exy(g, n, r, s) - mean * mean
                got = exact.shared_covariance(n, r, s, q).as_fraction()
                assert got == want, (n, r, s, q)


def test_var_statistics_gate():
    for n in (2, 3, 5, 7):
        for r, m in ((2, 3), (2, 4), (3, 4), (3, 5)):
            _, want = brute.statistic_mean_and_var(n, m, r)
            assert exact.var_C(n, m, r).as_fraction() == want
            for q in (1, 2):
                _, want = brute.statistic_mean_and_var(n, m, r, q)
                assert exact.var_Z(n, m, r, q).as_fraction() == want


def test_var_sampled_example():
    # 5^5 samples at (n=5, m=5, r=3)
    _, want = brute.statistic_mean_and_var(5, 5, 3, 1)
    assert exact.var_Z(5, 5, 3, 1).as_fraction() == want


def test_pi_gate():
    for n in range(2, 13):
        for r in (2, 3):
            for q in (1, 2):
                want = brute.mixed_moment_pi(n, r, q)
                assert exact.mixed_moment_pi(n, r, q).as_fraction() == want


def test_pmf_and_moment_gate():
    for n in range(1, GATE_MAX_N + 1):
        for r in (2, 3):
            pmf = [v.as_fraction() for v, count in exact.gcd_pmf(n, r)
                   for _ in range(count)]
            assert pmf == brute.pmf(n, r)
            for q in (1, 2):
                assert exact.gcd_moment(n, r, q).as_fraction() == brute.moment(n, r, q)


def test_tail_gate():
    for n in (2, 5, 9):
        hist = brute.gcd_histogram(n, 2)
        for k in range(0, n + 1):
            want = Fraction(int(hist[k + 1 :].sum()), n**2)
            assert exact.gcd_tail(n, k).as_fraction() == want


def test_shared_exy_is_mean_for_indicator():
    # an indicator kernel squares to itself: E[X^2] = E[X] at full overlap
    for n in (2, 6, 11):
        for r in (2, 3):
            mu = brute.pmf(n, r)[0]
            cov = exact.shared_covariance(n, r, r).as_fraction()
            assert cov == mu - mu * mu


def test_big_integer_weight_path():
    # 50^12 exceeds int64, so the order-12 totients sieved to 50 are Python
    # ints, and so are the profiles and the prefix sums above sqrt n.  At
    # n = 30 the totients (30^12 < 2^63) and profiles fit int64 and those
    # prefix sums do not; at n = 10 all of them fit.
    q = 12
    assert exact.sieve_weight(30, q).dtype == np.int64
    assert exact.sieve_weight(50, q).dtype == object
    for n in (10, 30, 50):
        assert exact.gcd_moment(n, 2, q).as_fraction() == brute.moment(n, 2, q)
        assert exact.mixed_moment_pi(n, 2, q).as_fraction() == \
            brute.mixed_moment_pi(n, 2, q)
        got = exact.shared_covariance(n, 2, 1, q).as_fraction()
        assert got == brute.shared_covariance(n, 2, 1, q)
