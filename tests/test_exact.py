import math
from fractions import Fraction

import numpy as np
import pytest

from gcdstats import constants, exact
from gcdstats.arith import DEFAULT_MAX_N, build_table
from gcdstats.cli import main
from gcdstats.verify import _shared_table


def frac(res):
    return res.as_fraction()


def plain_divisor_accumulate(w, n):
    """acc[k] = sum_{j|k} w[j]: one slice add per j (reference)."""
    acc = np.zeros(n + 1, dtype=w.dtype)
    for j in range(1, n + 1):
        acc[j::j] += w[j]
    return acc


def plain_divisor_sums(g, n, power):
    """sum_{j|k} g(j) floor(n/j)^power for k = 0..n in Python ints (reference)."""
    acc = [0] * (n + 1)
    for j in range(1, n + 1):
        w = int(g[j]) * (n // j) ** power
        for k in range(j, n + 1, j):
            acc[k] += w
    return acc


def per_k_gcd_counts(table, n, r):
    """#{r-tuples in [n]^r with gcd k}, one floor sum per k (reference)."""
    prefix = exact._exact_prefix(table.mobius, n)
    return [exact._floor_power_sum(prefix, n, r, k) for k in range(1, n + 1)]


# --- divisor-sum kernel --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 1000])
def test_divisor_accumulate_is_the_plain_loop(n):
    rng = np.random.default_rng(n)
    w = rng.integers(-10**6, 10**6, n + 1, dtype=np.int64)
    got = exact._divisor_accumulate(w, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, plain_divisor_accumulate(w, n))
    big = np.array([int(v) * 10**30 + 7 for v in w], dtype=object)
    got = exact._divisor_accumulate(big, n)
    assert got.dtype == object
    assert got.tolist() == plain_divisor_accumulate(big, n).tolist()
    assert all(type(v) is int for v in got.tolist())


def test_big_integer_profiles_at_r7():
    # 1000^7 exceeds int64, so the kernel runs on Python ints
    n, r = 1000, 7
    table = build_table(n, (1,))
    for kind, g in (("probability", table.mobius), ("expectation", table.totient(1))):
        prof = exact.marginal_profile(table, n, r, kind)
        assert prof.numerators.dtype == object
        assert prof.numerators.tolist() == plain_divisor_sums(g, n, r)
    want = sum(v * v for v in plain_divisor_sums(table.totient(1), n, r - 1)[1:])
    assert exact.mixed_moment_pi(table, n, r, 1).numerator == want


# --- Cesaro formula and pmf --------------------------------------------------

def test_from_ratio_float_is_the_float_of_the_fraction():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        base = int(rng.integers(1, 10**6))
        power = int(rng.integers(0, 80))
        numerator = int(rng.integers(-(2**62), 2**62)) * base ** int(rng.integers(0, power + 1))
        res = exact.ExactResult.from_ratio(numerator, base, power)
        assert res.float_value == float(Fraction(numerator, base**power))


def test_cesaro_expectation_pairs_n2(table_100):
    # all four pairs from {1,2}: gcds 1,1,1,2
    r = exact.cesaro_expectation(table_100, table_100.totient(1), 2, 2)
    assert frac(r) == Fraction(5, 4)
    r = exact.cesaro_expectation(table_100, table_100.mobius, 2, 2)
    assert frac(r) == Fraction(3, 4)


def test_cesaro_dirichlet_limit():
    table = _shared_table(1_000_000)
    r = exact.cesaro_expectation(table, table.mobius, 1_000_000, 2)
    assert abs(r.float_value - 1 / constants.zeta(2)) < 1e-3


def test_gcd_pmf_small(table_100):
    pmf = exact.gcd_pmf(table_100, 2, 2)
    assert [frac(v) for v in pmf] == [Fraction(3, 4), Fraction(1, 4)]
    pmf = exact.gcd_pmf(table_100, 4, 2)
    assert sum(frac(v) for v in pmf) == 1
    assert all(frac(v) >= 0 for v in pmf)


def test_gcd_pmf_r1_is_uniform(table_100):
    # with one variable the value itself is the "gcd", so the pmf is uniform
    pmf = exact.gcd_pmf(table_100, 10, 1)
    assert all(frac(v) == Fraction(1, 10) for v in pmf)


def test_gcd_pmf_and_tail_are_the_per_k_floor_sums(table_1000):
    for n in (1, 2, 17, 100, 1000):
        for r in (1, 2, 3):
            want = per_k_gcd_counts(table_1000, n, r)
            assert [v.numerator for v in exact.gcd_pmf(table_1000, n, r)] == want
            if r == 2:
                for t in {0, 1, n // 3, n - 1, n}:
                    got = exact.gcd_tail(table_1000, n, t).numerator
                    assert got == n**2 - sum(want[:t]), (n, t)


def test_gcd_pmf_limit_at_k1():
    table = _shared_table(1_000_000)
    first = exact.gcd_pmf(table, 100_000, 2)[0]
    assert abs(first.float_value - 1 / constants.zeta(2)) < 1e-3


# --- marginal profiles ---------------------------------------------------------

def test_marginal_examples(table_100):
    prof = exact.marginal_profile(table_100, 10, 1, "probability")
    assert frac(prof.value(6)) == Fraction(3, 10)  # {1,5,7} coprime to 6
    prof = exact.marginal_profile(table_100, 10, 1, "expectation")
    assert frac(prof.value(6)) == Fraction(23, 10)  # sum gcd(j,6), j<=10


def test_marginal_value_at_1_is_1(table_100):
    for n, r in ((7, 1), (10, 2), (25, 3)):
        for kind in ("probability", "expectation"):
            prof = exact.marginal_profile(table_100, n, r, kind)
            assert frac(prof.value(1)) == 1


def test_marginal_envelopes(table_1000):
    n = 200
    for r in (1, 2):
        prob = exact.marginal_profile(table_1000, n, r, "probability")
        expe = exact.marginal_profile(table_1000, n, r, "expectation")
        for k in range(1, n + 1):
            u = frac(prob.value(k))
            assert 0 <= u <= 1
            w = frac(expe.value(k))
            tau_k = int(table_1000.tau[k])
            assert 1 <= w <= tau_k + Fraction(r * tau_k, n)


def test_marginal_error_bounds_grid(table_1000):
    # deviation-to-bound ratio <= 1 across the whole profile
    for n in (10, 100, 1000):
        for r in (1, 2, 3):
            for kind in ("probability", "expectation"):
                prof = exact.marginal_profile(table_1000, n, r, kind)
                worst, _ = exact.marginal_error_bound_check(prof, table_1000)
                assert worst <= 1


def test_marginal_bound_example(table_100):
    prof = exact.marginal_profile(table_100, 10, 1, "probability")
    dev = abs(frac(prof.value(6)) - Fraction(1, 3))  # phi(6)/6 = 1/3
    assert dev == Fraction(1, 30)
    assert dev <= Fraction(int(table_100.tau[6]), 10)
    prof = exact.marginal_profile(table_100, 10, 1, "expectation")
    slack = Fraction(15, 6) - frac(prof.value(6))  # P(6)/6 - W(6)
    assert slack == Fraction(1, 5)
    assert slack <= Fraction(6, 10)


# --- means and variances of profiles -------------------------------------------

def test_mean_identity_profile_vs_cesaro(table_100):
    for n in (2, 7, 30):
        for r in (1, 2, 3):
            prof = exact.marginal_profile(table_100, n, r, "probability")
            assert frac(prof.mean()) == frac(exact.mean_mu(table_100, n, r))
            prof = exact.marginal_profile(table_100, n, r, "expectation")
            assert frac(prof.mean()) == frac(exact.mean_nu(table_100, n, r))


def test_mean_examples(table_100):
    assert frac(exact.mean_mu(table_100, 2, 1)) == Fraction(3, 4)


def test_mean_nu_log_growth():
    table = _shared_table(1_000_000)
    nu1 = exact.mean_nu(table, 1_000_000, 1).float_value
    assert abs(nu1 / math.log(1_000_000) - 1 / constants.zeta(2)) < 0.05


def test_mean_nu_limit_r2():
    table = _shared_table(1_000_000)
    nu2 = exact.mean_nu(table, 100_000, 2).float_value
    assert abs(nu2 - constants.zeta(2) / constants.zeta(3)) < 1e-2


def test_var_c_example(table_100):
    assert frac(exact.var_c(table_100, 2, 1)) == Fraction(1, 16)


def test_var_c_limit():
    table = _shared_table(1_000_000)
    c1 = exact.var_c(table, 1_000_000, 1).float_value
    assert abs(c1 - constants.limit_var_c(1)) < 1e-3


def test_var_d_limit():
    table = _shared_table(1_000_000)
    d2 = exact.var_d(table, 100_000, 2).float_value
    assert abs(d2 - constants.limit_var_d(2)) < 1e-2


# --- moments ---------------------------------------------------------------------

def test_gcd_moment_examples(table_100):
    assert frac(exact.gcd_moment(table_100, 2, 2, 2)) == Fraction(7, 4)


def test_gcd_moment_limits():
    table = _shared_table(1_000_000)
    second = exact.gcd_moment(table, 1_000_000, 2, 2).float_value / 1_000_000
    target = (2 * constants.zeta(2) / constants.zeta(3) - 1) / 3
    assert abs(second - target) / target < 0.02
    first_r3 = exact.gcd_moment(table, 100_000, 3, 1).float_value
    assert abs(first_r3 - constants.zeta(2) / constants.zeta(3)) < 1e-2


# --- shared covariances ------------------------------------------------------------

def test_shared_covariance_zero_at_s0(table_100):
    for n in (2, 9, 30):
        for r in (2, 3):
            assert frac(exact.shared_covariance(table_100, n, r, 0, "indicator")) == 0
            assert frac(exact.shared_covariance(table_100, n, r, 0, "moment", 2)) == 0


def test_shared_covariance_example(table_100):
    got = exact.shared_covariance(table_100, 2, 2, 1, "indicator")
    assert frac(got) == Fraction(1, 16)


def test_gamma_r1_equals_profile_variance(table_100):
    # two kernels sharing one variable covary exactly like the U profile
    for n in (3, 10, 25):
        for r in (2, 3):
            gamma = frac(exact.shared_covariance(table_100, n, r, 1, "indicator"))
            assert gamma == frac(exact.var_c(table_100, n, r - 1))
            omega = frac(exact.shared_covariance(table_100, n, r, 1, "gcd"))
            assert omega == frac(exact.var_d(table_100, n, r - 1))


def test_covariances_monotone_in_s(table_100):
    for n in (4, 12, 30):
        for r in (2, 3):
            gammas = [
                frac(exact.shared_covariance(table_100, n, r, s, "indicator"))
                for s in range(r + 1)
            ]
            omegas = [
                frac(exact.shared_covariance(table_100, n, r, s, "moment", 1))
                for s in range(r + 1)
            ]
            assert gammas[0] == 0 and omegas[0] == 0
            assert all(b >= a for a, b in zip(gammas, gammas[1:]))
            assert all(b >= a for a, b in zip(omegas, omegas[1:]))


def test_gamma_rr_is_bernoulli_variance(table_100):
    for n in (2, 10, 24):
        for r in (2, 3):
            mu = frac(exact.cesaro_expectation(table_100, table_100.mobius, n, r))
            got = frac(exact.shared_covariance(table_100, n, r, r, "indicator"))
            assert got == mu * (1 - mu)


def test_omega_rr_is_kernel_variance(table_100):
    # full overlap: variance of gcd^q itself, via the 2q-th moment
    for n in (3, 12):
        for r, q in ((2, 1), (2, 2), (3, 1)):
            first = frac(exact.gcd_moment(table_100, n, r, q))
            second = frac(exact.gcd_moment(table_100, n, r, 2 * q))
            got = frac(exact.shared_covariance(table_100, n, r, r, "moment", q))
            assert got == second - first * first


def test_covariance_refused_above_table_cap(capsys):
    # the table cap is the only size guard: no covariance work is attempted
    with pytest.raises(SystemExit) as err:
        main(["exact", "--quantity", "varC", "--n", "40000000", "--m", "50"])
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.startswith("error: ") and text.count("\n") == 1
    assert str(DEFAULT_MAX_N) in text


# --- U-statistic variances -----------------------------------------------------------

def test_var_C_example_and_shape(table_100):
    assert frac(exact.var_C(table_100, 2, 3, 2)) == Fraction(15, 16)
    # single-pair case reduces to the Bernoulli variance
    mu = frac(exact.mean_mu(table_100, 2, 1))
    assert frac(exact.var_C(table_100, 2, 2, 2)) == mu * (1 - mu)


def test_var_C_pairs_closed_shape(table_100):
    # C(m,2) mu(1-mu) + m(m-1)(m-2) c_1
    for n in (2, 10, 40):
        for m in (2, 3, 5, 12):
            mu = frac(exact.mean_mu(table_100, n, 1))
            c1 = frac(exact.var_c(table_100, n, 1))
            want = math.comb(m, 2) * mu * (1 - mu) + m * (m - 1) * (m - 2) * c1
            assert frac(exact.var_C(table_100, n, m, 2)) == want


def test_var_Z_pairs_closed_shape(table_100):
    for n in (2, 10, 40):
        for m in (2, 4, 9):
            e1 = frac(exact.gcd_moment(table_100, n, 2, 1))
            e2 = frac(exact.gcd_moment(table_100, n, 2, 2))
            d1 = frac(exact.var_d(table_100, n, 1))
            want = math.comb(m, 2) * (e2 - e1 * e1) + m * (m - 1) * (m - 2) * d1
            assert frac(exact.var_Z(table_100, n, m, 2, 1)) == want


def test_var_validation(table_100):
    with pytest.raises(ValueError):
        exact.var_C(table_100, 10, 2, 1)
    with pytest.raises(ValueError):
        exact.var_C(table_100, 10, 2, 3)  # m < r


# --- mixed moment -----------------------------------------------------------------

def test_mixed_moment_example(table_100):
    assert frac(exact.mixed_moment_pi(table_100, 2, 2, 1)) == Fraction(13, 8)


def test_omega_from_pi_matches_shared_covariance(table_100):
    for n in (4, 15, 40):
        for r, q in ((2, 1), (2, 2), (3, 1)):
            lhs = frac(exact.mixed_moment_omega(table_100, n, r, q))
            rhs = frac(exact.shared_covariance(table_100, n, r, 1, "moment", q))
            assert lhs == rhs


def test_pi_log_cubed_trend():
    table = _shared_table(1_000_000)
    toth = constants.delta_toth().value
    near = exact.mixed_moment_pi(table, 10_000, 2, 1).float_value / math.log(10_000) ** 3
    far = exact.mixed_moment_pi(table, 100, 2, 1).float_value / math.log(100) ** 3
    assert abs(near - toth) < abs(far - toth)


def test_omega_r3_near_limit():
    table = _shared_table(1_000_000)
    omega = exact.mixed_moment_omega(table, 10_000, 3, 1).float_value
    assert abs(omega - constants.limit_var_d(2)) < 1e-2


# --- tail -----------------------------------------------------------------------------

def test_gcd_tail_small(table_100):
    assert frac(exact.gcd_tail(table_100, 2, 1)) == Fraction(1, 4)
    assert frac(exact.gcd_tail(table_100, 50, 50)) == 0
    assert frac(exact.gcd_tail(table_100, 17, 0)) == 1


def test_gcd_tail_paper_bound():
    table = _shared_table(1_000_000)
    n, k = 100_000, 100
    tail = exact.gcd_tail(table, n, k).float_value
    approx = sum(1.0 / j**2 for j in range(k + 1, n + 1)) / constants.zeta(2)
    assert abs(tail - approx) <= 4 * (1 + math.log(n)) ** 2 / n
