import math

import numpy as np
import pytest

from gcdstats.constants import zeta
from gcdstats.stattest import ReferenceLaw, cdf, ks_distance, poisson_pmf, tv_distance


def test_law_validation():
    with pytest.raises(ValueError):
        ReferenceLaw("weird")
    with pytest.raises(ValueError):
        ReferenceLaw.frechet(-1)
    with pytest.raises(ValueError):
        ReferenceLaw.poisson(0)


def test_cdf_examples():
    assert cdf(ReferenceLaw.normal(), 0.0) == 0.5
    law = ReferenceLaw.frechet(1 / zeta(2))
    assert abs(cdf(law, 1.0) - math.exp(-1 / zeta(2))) < 1e-15
    assert abs(cdf(law, 1.0) - 0.5445) < 1e-4
    assert cdf(law, -3.0) == 0.0
    assert abs(cdf(ReferenceLaw.poisson(2.5), 1000) - 1.0) < 1e-12


def test_cdf_monotone_and_bounded():
    grid = np.linspace(-8, 8, 2001)
    for law in (ReferenceLaw.normal(), ReferenceLaw.frechet(0.6),
                ReferenceLaw.poisson(1.3)):
        vals = np.asarray(cdf(law, grid))
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) >= 0)


def test_normal_cdf_precision():
    # erfc route: at least 10 significant digits against a reference value
    assert abs(cdf(ReferenceLaw.normal(), 1.0) - 0.8413447460685429) < 1e-12
    assert abs(cdf(ReferenceLaw.normal(), -2.5) - 0.006209665325776132) < 1e-14


def test_ks_self_consistency():
    # draws from the reference itself: 99% asymptotic Kolmogorov quantile
    rng = np.random.Generator(np.random.Philox(key=[1, 0]))
    draws = rng.standard_normal(2000)
    assert ks_distance(draws, ReferenceLaw.normal()) < 1.63 / math.sqrt(2000)


def test_ks_point_mass_at_median():
    assert abs(ks_distance(np.zeros(500), ReferenceLaw.normal()) - 0.5) < 1e-12


def test_ks_sorts_the_values_itself():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    draws = rng.standard_normal(300)
    law = ReferenceLaw.normal()
    assert ks_distance(draws, law) == ks_distance(np.sort(draws), law)
    assert ks_distance(draws.tolist(), law) == ks_distance(draws, law)


def test_ks_scale_invariance_frechet():
    # common strictly increasing transform (exact under doubling)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    scale = 1 / zeta(2)
    vals = scale / -np.log(rng.random(500))
    a = ks_distance(vals, ReferenceLaw.frechet(scale))
    b = ks_distance(vals * 2.0, ReferenceLaw.frechet(scale * 2.0))
    assert a == b


def test_ks_rejects_no_values():
    with pytest.raises(ValueError):
        ks_distance(np.array([]), ReferenceLaw.normal())


def test_poisson_pmf_recursion():
    pk = poisson_pmf(1.0, 20)
    assert abs(pk.sum() - 1.0) < 1e-12
    assert abs(pk[0] - math.exp(-1)) < 1e-15
    assert abs(pk[3] - math.exp(-1) / 6) < 1e-15


def test_tv_self_consistency():
    rng = np.random.Generator(np.random.Philox(key=[1, 1]))
    raw = rng.poisson(1.0, 5000).tolist()
    assert tv_distance(raw, ReferenceLaw.poisson(1.0)) < 0.03


def test_tv_point_mass():
    tv = tv_distance([0] * 1000, ReferenceLaw.poisson(1.0))
    assert abs(tv - (1 - math.exp(-1))) < 1e-9


def test_tv_counts_values_beyond_the_support_cap():
    # half the raw values sit past the cap: their mass is all tail
    tv = tv_distance([0, 100] * 500, ReferenceLaw.poisson(1.0))
    pk = poisson_pmf(1.0, 64)
    gap = abs(0.5 - pk[0]) + float(pk[1:].sum())
    assert abs(tv - 0.5 * (gap + 0.5 + max(0.0, 1 - float(pk.sum())))) < 1e-12


def test_tv_validation():
    with pytest.raises(ValueError):
        tv_distance([], ReferenceLaw.poisson(1.0))
    with pytest.raises(ValueError):
        tv_distance([1], ReferenceLaw.normal())
