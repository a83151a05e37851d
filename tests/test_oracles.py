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

from gcdstats import brute, exact
from gcdstats.arith import build_table

GATE_MAX_N = 20


@pytest.fixture(scope="module")
def tables():
    return {n: build_table(n) for n in range(1, GATE_MAX_N + 1)}


def quadratic_shared_exy(table, n, r, s, kind, q=1):
    """The O(n^2) double sum, written exactly as derived (oracle form)."""
    if kind == "indicator":
        g = table.mobius
    else:
        g = table.totient(q if kind == "moment" else 1)
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
def test_shared_covariance_gate(tables, r):
    for n in range(1, GATE_MAX_N + 1):
        table = tables[n]
        for s in range(0, r + 1):
            want = brute.shared_covariance(n, r, s, "indicator")
            assert exact.shared_covariance(table, n, r, s, "indicator").as_fraction() == want, (n, s)
            for q in (1, 2):
                want = brute.shared_covariance(n, r, s, "moment", q)
                got = exact.shared_covariance(table, n, r, s, "moment", q).as_fraction()
                assert got == want, (n, s, q)


@pytest.mark.parametrize("r", [2, 3])
def test_quadratic_form_matches_lcm_enumeration(r):
    # the gcd-count grouping is the same sum as the literal O(n^2) form
    table = build_table(150)
    for n in (1, 2, 3, 5, 8, 12, 31, 64, 97, 150):
        for s in range(0, r + 1):
            for kind, q in (("indicator", 1), ("gcd", 1), ("moment", 1), ("moment", 2)):
                g = exact._kernel_weights(table, kind, q)
                # the plain Cesaro sum: E F(gcd) = sum_i (mu*F)(i) floor(n/i)^r / n^r
                mean = Fraction(sum(int(g[i]) * (n // i) ** r for i in range(1, n + 1)), n**r)
                want = quadratic_shared_exy(table, n, r, s, kind, q) - mean * mean
                got = exact.shared_covariance(table, n, r, s, kind, q).as_fraction()
                assert got == want, (n, r, s, kind, q)


def test_var_statistics_gate(tables):
    for n in (2, 3, 5, 7):
        table = tables[n]
        for r, m in ((2, 3), (2, 4), (3, 4), (3, 5)):
            _, want = brute.statistic_mean_and_var(n, m, r, "indicator")
            assert exact.var_C(table, n, m, r).as_fraction() == want
            for q in (1, 2):
                _, want = brute.statistic_mean_and_var(n, m, r, "moment", q)
                assert exact.var_Z(table, n, m, r, q).as_fraction() == want


def test_var_sampled_example(tables):
    # 5^5 samples at (n=5, m=5, r=3)
    table = tables[5]
    _, want = brute.statistic_mean_and_var(5, 5, 3, "moment", 1)
    assert exact.var_Z(table, 5, 5, 3, 1).as_fraction() == want


def test_pi_gate(tables):
    for n in range(2, 13):
        table = tables[n]
        for r in (2, 3):
            for q in (1, 2):
                want = brute.mixed_moment_pi(n, r, q)
                assert exact.mixed_moment_pi(table, n, r, q).as_fraction() == want


def test_pmf_and_moment_gate(tables):
    for n in range(1, GATE_MAX_N + 1):
        table = tables[n]
        for r in (2, 3):
            pmf = [v.as_fraction() for v, count in exact.gcd_pmf(n, r)
                   for _ in range(count)]
            assert pmf == brute.pmf(n, r)
            for q in (1, 2):
                assert exact.gcd_moment(n, r, q).as_fraction() == brute.moment(n, r, q)


def test_tail_gate(tables):
    for n in (2, 5, 9):
        table = tables[n]
        hist = brute.gcd_histogram(n, 2)
        for k in range(0, n + 1):
            want = Fraction(int(hist[k + 1 :].sum()), n**2)
            assert exact.gcd_tail(n, k).as_fraction() == want


def test_shared_exy_is_mean_for_indicator(tables):
    # an indicator kernel squares to itself: E[X^2] = E[X] at full overlap
    for n in (2, 6, 11):
        table = tables[n]
        for r in (2, 3):
            mu = brute.pmf(n, r)[0]
            cov = exact.shared_covariance(table, n, r, r, "indicator").as_fraction()
            assert cov == mu - mu * mu


def test_big_integer_weight_path():
    # 50^12 exceeds int64, so the order-12 totients of a table to 50 are
    # Python ints.  At n = 10 their prefix sums and profiles still fit int64,
    # at n = 30 only the profiles do, and at n = 50 neither does.
    table = build_table(50)
    q = 12
    assert table.totient(q).dtype == object
    for n in (10, 30, 50):
        assert exact.gcd_moment(n, 2, q).as_fraction() == brute.moment(n, 2, q)
        assert exact.mixed_moment_pi(table, n, 2, q).as_fraction() == \
            brute.mixed_moment_pi(n, 2, q)
        got = exact.shared_covariance(table, n, 2, 1, "moment", q).as_fraction()
        assert got == brute.shared_covariance(n, 2, 1, "moment", q)
