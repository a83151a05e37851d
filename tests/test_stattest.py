import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gcdstats import stattest
from gcdstats.constants import zeta
from gcdstats.stattest import (ReferenceLaw, cdf, integer_moments, ks_distance, poisson_pmf,
                               tv_distance)


def test_law_validation():
    with pytest.raises(ValueError):
        ReferenceLaw("weird")
    with pytest.raises(ValueError):
        ReferenceLaw.frechet(-1)
    with pytest.raises(ValueError):
        ReferenceLaw.poisson(0)


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_law_rejects_a_non_finite_scale_or_rate(value):
    # an Infinity or NaN would reach a record's JSON, which RFC 8259 forbids
    with pytest.raises(ValueError, match="positive and finite"):
        ReferenceLaw.frechet(value)
    with pytest.raises(ValueError, match="positive and finite"):
        ReferenceLaw.poisson(value)
    assert ReferenceLaw.poisson(6e299).lam == 6e299


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


def _plain_ks(values, law):
    """The KS distance with the cdf taken at every sorted value."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    ref = np.array([cdf(law, t) for t in v.tolist()])
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1 / n - ref))))


@pytest.mark.parametrize("law", [ReferenceLaw.normal(), ReferenceLaw.frechet(1 / zeta(2))],
                         ids=["normal", "frechet"])
def test_ks_is_the_per_value_formula(law):
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    heavy_ties = rng.integers(-8, 40, size=4000) / 8.0
    no_ties = rng.standard_normal(3001) * 2 + 1
    few = np.array([0.5, 0.5, 0.5])
    for values in (heavy_ties, no_ties, few, no_ties[:1]):
        assert ks_distance(values, law) == _plain_ks(values, law)


@pytest.mark.parametrize("runs", [1, 2, 7])
def test_ks_taken_a_few_runs_at_a_time_is_the_per_value_formula(runs, monkeypatch):
    monkeypatch.setattr(stattest, "_KS_RUNS", runs)
    rng = np.random.Generator(np.random.Philox(key=[22, 0]))
    heavy_ties = rng.integers(-8, 40, size=400) / 8.0
    no_ties = rng.standard_normal(301) * 2 + 1
    for law in (ReferenceLaw.normal(), ReferenceLaw.frechet(1 / zeta(2))):
        for values in (heavy_ties, no_ties, no_ties[:1], np.append(heavy_ties[:49], 9.0)):
            assert ks_distance(values, law) == _plain_ks(values, law)


def test_integer_moments_are_the_exact_fractions():
    rng = np.random.Generator(np.random.Philox(key=[23, 0]))
    raw = rng.integers(0, 9, size=1001)
    mean, sd = integer_moments(raw)
    values = raw.tolist()
    exact_mean = Fraction(sum(values), len(values))
    assert mean == float(exact_mean)
    assert sd == math.sqrt(sum(v * v for v in values) / len(values) - mean**2)
    assert integer_moments([2**62, 2**62]) == (2.0**62, 0.0)
    with pytest.raises(ValueError):
        integer_moments(np.array([], dtype=np.int64))


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


def _counter_tv(raw, lam):
    """The TV distance with collections.Counter: the tail in first-occurrence order."""
    r, counts = len(raw), Counter(raw)
    pk = poisson_pmf(lam, 64)
    emp_tail = 0.0
    for value, count in counts.items():
        if value > 64:
            emp_tail += count / r
    gap = 0.0
    for k in range(65):
        gap += abs(counts[k] / r - pk[k])
    return 0.5 * (gap + emp_tail + max(0.0, 1.0 - float(pk.sum())))


def test_tv_is_the_counter_formula_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    raw = rng.poisson(3.0, 9973)
    # distinct values past the cap, first seen in an order other than ascending
    tail = rng.choice([65, 70, 97, 150, 300, 1000, 12345], size=2003, p=[.3, .05, .2, .1, .15, .1, .1])
    raw[rng.choice(raw.size, size=tail.size, replace=False)] = tail
    assert np.unique(tail).size == 7
    # on these counts the tail shares summed in ascending value order round differently
    for values in (raw, raw[::-1]):
        ascending = 0.0
        for count in np.unique(values[values > 64], return_counts=True)[1].tolist():
            ascending += count / values.size
        first_seen = 0.0
        for value, count in Counter(values.tolist()).items():
            first_seen += count / values.size if value > 64 else 0.0
        assert ascending != first_seen
    for values in (raw, raw.tolist(), raw[::-1].copy(), raw[:50]):
        assert tv_distance(values, ReferenceLaw.poisson(3.0)) == _counter_tv(values, 3.0)


def test_tv_validation():
    with pytest.raises(ValueError):
        tv_distance([], ReferenceLaw.poisson(1.0))
    with pytest.raises(ValueError):
        tv_distance([1], ReferenceLaw.normal())
