"""Acceptance criteria, one test per criterion, one printed line per check.

Run with `pytest -s tests/test_acceptance.py` (or `gcdstats verify`) to see
every PASS/FAIL line.  Statistical criteria use the frozen master seeds in
gcdstats.verify.SEEDS.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gcdstats import montecarlo, verify
from gcdstats.stattest import ReferenceLaw


def _assert_all(results):
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    assert not failed, "; ".join(res.line() for res in failed)


@pytest.fixture(scope="module")
def constants_results():
    return verify.suite_constants()


def test_criterion_01_oracle_equivalence():
    _assert_all(verify.suite_oracle())


def test_criterion_02_dirichlet_limits():
    _assert_all(verify.suite_limits()[:2])


def test_criterion_03_constants(constants_results):
    rows = [r for r in constants_results if "truncated double sum" not in r.name]
    assert len(rows) == 6
    _assert_all(rows)


def test_criterion_03_m2_truncated_double_sum(constants_results):
    # the series has positive terms, so its i,j <= B truncation lies below
    # M(2) by less than 2 zeta(2)/B (3.3e-5 at B = 1e5), inside the 1e-4
    # tolerance; a gap of the wrong sign or above 1e-4 is a real failure
    rows = [r for r in constants_results if "truncated double sum" in r.name]
    assert len(rows) == 1
    _assert_all(rows)


def test_criterion_04_second_moment_pair_gcd():
    _assert_all(verify.suite_limits()[2:])


def test_criterion_05_variance_vs_simulation():
    _assert_all(verify.suite_variance())


def test_criterion_06_clt():
    _assert_all(verify.suite_clt())


def test_criterion_07_frechet():
    _assert_all(verify.suite_frechet())


def test_criterion_08_poisson():
    _assert_all(verify.suite_poisson())


def test_criterion_09_tauberian_trends():
    _assert_all(verify.suite_trends())


def test_criterion_10_strong_law():
    _assert_all(verify.suite_stronglaw())


def test_criterion_11_worker_determinism():
    _assert_all(verify.suite_determinism())


def _recording_run_replicates(calls):
    """A stand-in for run_replicates that records (config, statistic, workers)."""

    def fake_run_replicates(config, statistic, t=1.0, workers=1):
        calls.append((config, statistic, workers))
        law = ReferenceLaw.poisson(1.0) if statistic == "N" else ReferenceLaw.normal()
        return montecarlo.Replicates(np.array([1, 2]), law, shift=1.0, scale=1.0)

    return fake_run_replicates


def test_determinism_reruns_the_statistical_suites_experiments(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "run_replicates", _recording_run_replicates(calls))
    own = {verify.suite_variance: ("variance C", "variance Z"),
           verify.suite_clt: ("clt C", "clt Z"),
           verify.suite_frechet: ("frechet",),
           verify.suite_poisson: ("poisson",)}
    assert sorted(name for names in own.values() for name in names) == sorted(verify.EXPERIMENTS)
    statistical = []
    for suite, names in own.items():
        calls.clear()
        suite()
        assert calls == [verify.EXPERIMENTS[name] + (1,) for name in names]
        statistical += calls
    calls.clear()
    verify.suite_determinism()
    assert Counter(calls) == Counter(run[:2] + (w,) for run in statistical for w in (1, 4, 16))


def test_statistical_check_labels_follow_the_experiment_configs(monkeypatch):
    monkeypatch.setattr(montecarlo, "run_replicates", _recording_run_replicates([]))
    monkeypatch.setattr(verify, "EXPERIMENTS", {
        name: (replace(cfg, m=7, n=12_345, replicates=10**6), statistic)
        for name, (cfg, statistic) in verify.EXPERIMENTS.items()})
    names = [res.name for suite in (verify.suite_variance, verify.suite_clt,
                                    verify.suite_frechet, verify.suite_poisson)
             for res in suite()]
    labelled = [name for name in names if "(m=7, n=12345, R=1e6)" in name
                or "(n=12345, m=7, R=1e6)" in name]
    # every check but the poisson mean's, which names no configuration
    assert len(labelled) == len(names) - 1 == 8
