import gc
import io
import json
import math
import random
import tracemalloc
import weakref
from math import comb
from pathlib import Path

import numpy as np
import pytest

from gcdstats import arith, brute, constants, exact, montecarlo, stattest
from gcdstats.arith import DEFAULT_MAX_N, primes_up_to
from gcdstats.montecarlo import (
    SampleConfig,
    draw_sample,
    poisson_count,
    run_replicates,
    stat_C,
    stat_M,
    stat_Z,
    strong_law_trajectory,
)
from gcdstats.stattest import ReferenceLaw

NORMAL = ReferenceLaw.normal()
ROOT = Path(__file__).resolve().parent.parent


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(m=5, n=0)
    with pytest.raises(ValueError):
        SampleConfig(m=1, n=10)  # m < r
    with pytest.raises(ValueError):
        SampleConfig(m=5, n=10, r=1)
    with pytest.raises(ValueError):
        SampleConfig(m=5, n=10, q=0)
    with pytest.raises(ValueError):
        SampleConfig(m=5, n=10, replicates=0)


def test_regime_warnings():
    cfg = SampleConfig(m=100, n=1000)
    assert any("normality regime" in w for w in cfg.regime_warnings("Z"))
    cfg = SampleConfig(m=10_000, n=99)  # n^2 < m: inside the proven regime
    assert cfg.regime_warnings("Z") == []
    cfg = SampleConfig(m=64, n=32768)
    assert cfg.regime_warnings("M") == []
    cfg = SampleConfig(m=64, n=100)
    assert any("Frechet window" in w for w in cfg.regime_warnings("M"))
    assert SampleConfig(m=3, n=1).regime_warnings("C")


def test_draw_sample_determinism_and_range():
    cfg = SampleConfig(m=1000, n=37, replicates=3, master_seed=99)
    a = draw_sample(cfg, 0)
    b = draw_sample(cfg, 0)
    assert np.array_equal(a, b)
    c = draw_sample(cfg, 1)
    assert not np.array_equal(a, c)
    assert a.min() >= 1 and a.max() <= 37


def test_draw_sample_n1_all_ones():
    cfg = SampleConfig(m=25, n=1, replicates=1, master_seed=5)
    assert np.all(draw_sample(cfg, 0) == 1)


def test_draw_sample_uniform_mean():
    n, m = 1_000_000, 100_000
    cfg = SampleConfig(m=m, n=n, replicates=1, master_seed=101)
    x = draw_sample(cfg, 0)
    se = n / math.sqrt(12 * m)
    assert abs(float(x.mean()) - (n + 1) / 2) < 5 * se


def test_stat_examples():
    assert stat_C([1, 2], 2) == 1
    assert stat_Z([1, 2], 2, 1) == 1
    assert stat_C([2, 4, 6], 2) == 0
    assert stat_Z([2, 4, 6], 2, 1) == 6
    assert stat_Z([2, 4, 6], 3, 1) == 2
    assert stat_M([6, 10, 15]) == 5
    assert stat_M([7, 7, 3]) >= 7  # repeated value
    assert poisson_count([2, 4, 6], 1) == 3
    assert poisson_count([2, 4, 6], 2) == 0


def test_fast_statistics_match_naive_loops():
    rng = random.Random(1234)
    for trial in range(40):
        m = rng.randint(4, 60)
        n = rng.randint(2, 50)
        cfg = SampleConfig(m=m, n=n, replicates=1, master_seed=trial)
        x = draw_sample(cfg, 0)
        assert stat_C(x, 2) == brute.naive_stat_C(x, 2)
        assert stat_Z(x, 2, 2) == brute.naive_stat_Z(x, 2, 2)
        assert stat_M(x) == brute.naive_stat_M(x)
        thr = rng.choice([0.5, 1, 2, 5, n])
        assert poisson_count(x, thr) == brute.naive_poisson_count(x, thr)
        if m <= 15:
            assert stat_C(x, 3) == brute.naive_stat_C(x, 3)
            assert stat_Z(x, 3, 1) == brute.naive_stat_Z(x, 3, 1)


def test_dense_and_sparse_routes_agree():
    rng = random.Random(77)
    for trial in range(10):
        n = rng.randint(5, 50)
        m = rng.randint(4, 30)
        cfg = SampleConfig(m=m, n=n, replicates=6, master_seed=1000 + trial)
        xs = montecarlo._draw_block(cfg, 0, 6)
        primes = primes_up_to(n).tolist()
        for q in (None, 1, 2):
            g = exact.sieve_weight(n, q)
            dense = montecarlo._dense_route(xs, 2, g, np.int64, primes)
            sparse = montecarlo._sparse_route(xs, 2, q)
            assert dense.tolist() == sparse.tolist()


@pytest.mark.parametrize("rows, n", [(6, 40), (41, 40), (90, 40)])
def test_dense_route_on_blocks_narrower_square_and_wider(rows, n):
    # the count matrix is (n+1, rows): a square one would hide a transposition
    cfg = SampleConfig(m=9, n=n, replicates=rows, master_seed=rows)
    xs = montecarlo._draw_block(cfg, 0, rows)
    primes = primes_up_to(n).tolist()
    for r, q in ((2, None), (3, None), (2, 1), (3, 2)):
        g = exact.sieve_weight(n, q)
        dense = montecarlo._dense_route(xs, r, g, np.int64, primes).tolist()
        assert dense == montecarlo._sparse_route(xs, r, q).tolist()
        assert dense == [brute.naive_stat_C(x, r) if q is None else brute.naive_stat_Z(x, r, q)
                         for x in xs.tolist()]


def _route_spy(monkeypatch, routes=("_dense_route", "_sparse_route")):
    """Record which route each block takes."""
    taken = []
    for name in routes:
        real = getattr(montecarlo, name)

        def spy(*args, _real=real, _name=name):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(montecarlo, name, spy)
    return taken


def test_route_follows_row_width_against_divisor_count(monkeypatch):
    taken = _route_spy(monkeypatch)
    # n small next to the block's divisor count: the dense sweep is cheaper
    for m, n in ((20, 100), (2000, 40), (1000, 1000)):
        taken.clear()
        run_replicates(SampleConfig(m=m, n=n, replicates=3, master_seed=1), "C")
        assert set(taken) == {"_dense_route"}
    # n large next to it: the sparse route
    for m, n in ((5, 1000), (20, 10_000), (100, 100_000)):
        taken.clear()
        run_replicates(SampleConfig(m=m, n=n, replicates=3, master_seed=1), "Z")
        assert set(taken) == {"_sparse_route"}


def test_weight_is_taken_once_a_run(monkeypatch, inline_pool):
    # D(n) against the plain divisor count; the weight is sieved once a run,
    # to n, before any replicate range: none in the pool workers
    for n in range(1, 150):
        divisors = sum(1 for k in range(1, n + 1) for d in range(1, k + 1) if k % d == 0)
        assert montecarlo._divisor_total(n) == divisors, n
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 40)
    calls = []
    real = exact.sieve_weight
    monkeypatch.setattr(exact, "sieve_weight", lambda n, q: calls.append(n) or real(n, q))
    in_workers = []
    real_chunk = montecarlo._sim_chunk

    def chunk(bounds):
        start = len(calls)
        out = real_chunk(bounds)
        in_workers.extend(calls[start:])
        return out

    monkeypatch.setattr(montecarlo, "_sim_chunk", chunk)
    cfg = SampleConfig(m=10, n=5000, replicates=30, master_seed=3)
    for workers in (1, 4):
        calls.clear()
        run_replicates(cfg, "C", workers=workers)
        assert calls == [5000] and in_workers == [], workers
    # four workers split the 30 replicates into 15 ranges, in one pool
    assert len(inline_pool) == 1


def test_route_rule_picks_the_recorded_routes():
    # every cell of the route grid, its 4 misses too: the rule is priced from
    # n alone and refits nothing
    cells = json.loads((ROOT / "BENCH_cz_routes.json").read_text())["cells"]
    assert len(cells) == 64
    for cell in cells:
        rows, m, n = cell["rows"], cell["m"], cell["n"]
        assert montecarlo._dense_is_cheaper(rows, rows * m, n) == (cell["pick"] == "dense"), cell


def test_route_rule_moves_only_where_the_exact_rule_is_near_a_tie():
    # the reference prices the dense sweep by its exact cells a row,
    # n + 1 + sum_{p <= n} floor(n/p); a pick may differ from it only where
    # the exact rule's two sides lie within 5% of each other
    ns = [*range(2, 11), 20, 30, 40, 100, 300, 1000, 3000, 10**4, 10**5, 10**6, 10**7,
          DEFAULT_MAX_N]
    ms = [2, 3, 5, 8, 20, 100, 1000, 2000, 10**4, 10**5, 10**6]
    moved = 0
    for n in ns:
        cells = n + 1 + int((n // primes_up_to(n)).sum())
        for m in ms:
            for rows in {1, 32, max(1, montecarlo._BLOCK_ELEMENTS // m)}:
                count = rows * m * montecarlo._divisor_total(n) / n
                ratio = rows * cells / (count * math.log2(count)) if count > 1 else math.inf
                if montecarlo._dense_is_cheaper(rows, rows * m, n) != (ratio <= 1):
                    moved += 1
                    assert abs(ratio - 1) < 0.05, (n, m, rows, ratio)
    assert moved <= 3
    # past the table cap no weight can be sieved: sparse, however long the block
    assert not montecarlo._dense_is_cheaper(1, 10**9, DEFAULT_MAX_N + 1)


@pytest.mark.parametrize("statistic", ["C", "Z"])
def test_replicates_sieve_no_tau(statistic, monkeypatch, sieve_calls):
    # the route choice reads n alone, on both sides of it
    taken = _route_spy(monkeypatch)
    for n in (30, 10_000):
        run_replicates(SampleConfig(m=20, n=n, replicates=3, master_seed=1), statistic)
    assert taken == ["_dense_route", "_sparse_route"]
    assert "tau" not in [name for name, _ in sieve_calls]


def _raws(cfg, statistic, q, reps):
    """The raw C or Z of replicates 0..reps-1, with no normalisation."""
    return montecarlo._raws_in_range(cfg, statistic, exact.sieve_weight(cfg.n, q), 0.0, 0, reps)


def test_block_statistics_match_naive_loops(monkeypatch):
    # few cells per block, so replicate ranges split across blocks and
    # dense blocks split into row chunks
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 40)
    taken = _route_spy(monkeypatch)
    rng = random.Random(2468)
    for trial in range(40):
        r = rng.choice([2, 3, 4])
        q = rng.choice([1, 2, 3])
        m = rng.randint(r, 12)
        n = rng.choice([1, 2, 7, 30, 100, 400, 5000])
        reps = rng.randint(1, 12)
        cfg = SampleConfig(m=m, n=n, r=r, q=q, replicates=reps, master_seed=900 + trial)
        # the raw values: run_replicates would also normalise, and n = 1 has no sd
        c_raw = _raws(cfg, "C", None, reps)
        z_raw = _raws(cfg, "Z", q, reps)
        for i in range(reps):
            x = draw_sample(cfg, i)
            assert c_raw[i] == brute.naive_stat_C(x, r)
            assert z_raw[i] == brute.naive_stat_Z(x, r, q)
    assert set(taken) == {"_dense_route", "_sparse_route"}


def test_python_int_fallback_matches_naive_loops(monkeypatch):
    dtypes = []
    real = montecarlo._binom

    def spy(cnt, r):
        dtypes.append(cnt.dtype)
        return real(cnt, r)

    monkeypatch.setattr(montecarlo, "_binom", spy)
    taken = _route_spy(monkeypatch)
    # the width's bound C(m,r) top^q passes 2^63 on each route, at r = 7 and
    # at q = 14: top is the largest value sparse (n = 1000), n dense (n <= 30)
    for m, n, r, q in ((16, 1000, 7, 7), (16, 30, 7, 12), (9, 1000, 2, 14), (9, 20, 2, 14)):
        cfg = SampleConfig(m=m, n=n, r=r, q=q, replicates=2, master_seed=m + n)
        xs = montecarlo._draw_block(cfg, 0, 2)
        dtypes.clear()
        got = montecarlo._subset_weighted_block(xs, r, q, n, exact.sieve_weight(n, q))
        assert dtypes and all(dt == object for dt in dtypes)
        assert got.dtype == object and got.tolist() == [brute.naive_stat_Z(x, r, q) for x in xs]
    assert taken == ["_sparse_route", "_dense_route"] * 2


def _divisor_counts(x) -> dict:
    """cnt(d) = #{i : d | x_i} of one row, by trial division up to sqrt(x_i)."""
    counts = {}
    for v in map(int, x):
        small = [d for d in range(1, math.isqrt(v) + 1) if v % d == 0]
        for d in {*small, *(v // d for d in small)}:
            counts[d] = counts.get(d, 0) + 1
    return counts


def test_kernel_width_bounds_every_row_s_absolute_terms(monkeypatch, widths):
    # sum_d |w(d)| C(cnt(d), r), the most any partial sum of either route can
    # reach, by brute force a row, against the bound the route's width read
    taken = _route_spy(monkeypatch)
    rng = random.Random(34)
    for trial in range(240):
        q, r = (None, 1, 2)[trial % 3], rng.randint(2, 4)
        m, n, rows = rng.randint(r, 12), rng.choice([2, 10, 30, 100, 1000, 10**4, 10**5]), \
            rng.choice([1, 2, 8])
        xs = np.array([[rng.randint(1, n) for _ in range(m)] for _ in range(rows)])
        if trial % 2:
            xs[0] = xs.max()  # equal values: Z = C(m,r) top^q, where the bound is tight
        widths.clear()
        montecarlo._subset_weighted_block(xs, r, q, n)
        (bound,) = [b for name, b in widths if name == "_kernel_dtype"]
        # the weights the route reads: to n dense, to the largest value sparse
        w = exact.sieve_weight(n if taken[-1] == "_dense_route" else int(xs.max()), q)
        assert m**r <= bound and int(np.abs(w).max()) <= bound
        for x in xs:
            assert sum(abs(int(w[d])) * comb(c, r) for d, c in _divisor_counts(x).items()) <= bound
    assert set(taken) == {"_dense_route", "_sparse_route"}


def test_dense_width_is_never_wider_than_the_weight_sum_bound(monkeypatch):
    # the bound at top = n against sum_{d <= n} |g(d)| m^r, which set the
    # dense route's width before: n^q <= sum_{d | n} phi_q(d), the 2^k
    # squarefree divisors of the largest primorial <= n, and C(m,r) <= m^r
    monkeypatch.setattr(montecarlo, "int_dtype", lambda bound: bound)
    ns = [*range(1, 2001), 10**4, 10**5, 10**6]
    for q in (None, 1, 2):
        sums = np.cumsum(np.abs(exact.sieve_weight(10**6, q)))  # < 10^18 at q = 2
        for n in ns:
            for m in (2, 3, 7, 100, 10**4, 10**6):
                for r in range(2, min(m, 5) + 1):
                    assert montecarlo._kernel_dtype(m, r, q, n) <= int(sums[n]) * m**r, (n, m, r, q)


def test_cz_raws_on_each_route_are_the_same_in_python_ints(monkeypatch):
    # one block of C and of Z a config: n = 30 takes the dense route, 10^4 the sparse one
    taken = _route_spy(monkeypatch)
    configs = [SampleConfig(m=20, n=n, r=r, q=q, replicates=4, master_seed=n + r)
               for n in (30, 10_000) for r, q in ((2, 1), (3, 2))]

    def raws():
        return [_raws(cfg, s, q, 4) for cfg in configs for s, q in (("C", None), ("Z", cfg.q))]

    default = raws()
    monkeypatch.setattr(arith, "INT64_MAX", -1)  # every width choice gives Python ints
    forced = raws()
    assert all(a.dtype == np.int64 and b.dtype == object for a, b in zip(default, forced))
    assert [a.tolist() for a in default] == [b.tolist() for b in forced]
    assert set(taken) == {"_dense_route", "_sparse_route"}


@pytest.mark.parametrize("m, n, r, q, route", [
    (40000, 30030, 4, None, "_dense_route"),  # C(m,4) 2^6: 30030 = 2 3 5 7 11 13
    (5, 30, 2, 12, "_dense_route"),  # C(5,2) 30^12
    (1150, 10**12, 6, None, "_sparse_route"),  # C(m,6) 2^11: 31# < 10^12 < 37#
    (1600, 10**10, 3, 1, "_sparse_route"),  # C(m,3) times the largest value
], ids=["dense-C", "dense-Z", "sparse-C", "sparse-Z"])
def test_cz_sums_past_2_62_are_the_python_int_values(m, n, r, q, route, monkeypatch, widths):
    # the width's bound lies in (2^62, 2^63 - 1]: int64 here, Python ints
    # once INT64_MAX is lowered
    xs = montecarlo._draw_block(SampleConfig(m=m, n=n, r=r, replicates=1), 0, 1)
    taken = _route_spy(monkeypatch)
    default = montecarlo._subset_weighted_block(xs, r, q, n)
    assert any(2**62 < b <= arith.INT64_MAX for name, b in widths if name == "_kernel_dtype")
    monkeypatch.setattr(arith, "INT64_MAX", -1)
    forced = montecarlo._subset_weighted_block(xs, r, q, n)
    assert taken == [route] * 2
    assert (default.dtype, forced.dtype) == (np.int64, object)
    assert default.tolist() == forced.tolist()


def test_sparse_route_on_values_up_to_1e9_matches_naive_loops():
    # the sparse route reads no weight table, so n may pass the table cap
    rng = random.Random(55)
    for trial in range(24):
        n = rng.choice([200, 10**4, 10**6, 10**9])
        r = rng.choice([2, 3])
        q = rng.choice([1, 2])
        cfg = SampleConfig(m=rng.randint(r, 10), n=n, r=r, q=q, replicates=3,
                           master_seed=trial)
        xs = montecarlo._draw_block(cfg, 0, 3)
        assert montecarlo._sparse_route(xs, r, None).tolist() == \
            [brute.naive_stat_C(x, r) for x in xs]
        assert montecarlo._sparse_route(xs, r, q).tolist() == \
            [brute.naive_stat_Z(x, r, q) for x in xs]


def test_stats_of_values_sharing_a_large_prime():
    # a large prime factor shared by two values
    x = [1009 * 2, 1009 * 3, 14]  # 1009 is prime
    assert stat_M(x) == 1009
    assert stat_C(x, 2) == brute.naive_stat_C(x, 2)
    assert stat_Z(x, 2, 1) == brute.naive_stat_Z(x, 2, 1)
    assert poisson_count(x, 100) == brute.naive_poisson_count(x, 100)


def test_lone_samples_past_the_table_cap_match_naive_loops(sieve_calls, sieved_bounds):
    # a lone sample past DEFAULT_MAX_N runs sparse: no weight sieved, and the
    # primes only to the root of its largest value
    big = 999_983  # prime, shared by values past the cap
    rng = random.Random(31)
    samples = [[6 * big * 1009, 7 * big * 1009, 10**12, 5 * big, 6],
               [DEFAULT_MAX_N + 1, 2 * (DEFAULT_MAX_N + 1), 3, 10**11 - 1]]
    samples += [[rng.randint(1, top) for _ in range(rng.randint(2, 7))]
                for top in (DEFAULT_MAX_N + 1, 10**9, 10**11, 10**12) for _ in range(3)]
    for x in samples:
        for r in (1, 2, 3):
            assert stat_C(x, r) == brute.naive_stat_C(x, r), (x, r)
            for q in (1, 2):
                assert stat_Z(x, r, q) == brute.naive_stat_Z(x, r, q), (x, r, q)
    assert sieve_calls == []
    assert max(sieved_bounds) <= math.isqrt(max(map(max, samples)))


def test_a_short_lone_sample_sieves_no_weight(monkeypatch, sieve_calls, sieved_bounds):
    # n + 1 cells already lose to 3 values' divisors: no primes to n, no weight
    taken = _route_spy(monkeypatch)
    x = [29_000_000, 14_500_000, 3]
    assert stat_C(x, 2) == brute.naive_stat_C(x, 2)
    assert stat_Z(x, 2, 1) == brute.naive_stat_Z(x, 2, 1)
    assert taken == ["_sparse_route"] * 2
    assert sieve_calls == [] and max(sieved_bounds) <= math.isqrt(max(x))


def test_a_long_lone_sample_at_small_n_takes_the_dense_route(monkeypatch, sieve_calls):
    # the weight is sieved to the largest value once the dense route is picked
    x = draw_sample(SampleConfig(m=2000, n=40, master_seed=4), 0)
    n = int(x.max())
    taken = _route_spy(monkeypatch)
    assert stat_C(x, 2) == montecarlo._sparse_route(x[None, :], 2, None)[0]
    assert stat_Z(x, 3, 2) == montecarlo._sparse_route(x[None, :], 3, 2)[0]
    assert taken == ["_dense_route", "_sparse_route"] * 2
    assert sieve_calls == [("mu", n), ("phi_2", n)]


def test_scalar_statistics_check_their_input_before_any_work(sieve_calls, sieved_bounds):
    statistics = (lambda x: stat_C(x, 2), lambda x: stat_Z(x, 2, 1), stat_M,
                  lambda x: poisson_count(x, 1))
    # empty, not 1-D, not integers (2^63 and above read as floats), below 1
    for sample in ([], [[2, 3], [4, 5]], 7, [2.5, 3], [True, False], [1, 2**63],
                   [0, 1], [-3, 4]):
        for statistic in statistics:
            with pytest.raises(ValueError):
                statistic(sample)
    for r, q in ((0, 1), (-1, 1), (2, None), (2, 0)):
        with pytest.raises(ValueError):
            stat_Z([2, 3, 4], r, q)
        if q == 1:
            with pytest.raises(ValueError):
                stat_C([2, 3, 4], r)
    assert sieve_calls == [] and sieved_bounds == []
    # r = 1, unsigned values and the largest int64 still run
    x = np.array([1, 6, 10, 15], dtype=np.uint64)
    assert (stat_C(x, 1), stat_Z(x, 1, 1)) == (1, 32)
    assert stat_M([arith.INT64_MAX, arith.INT64_MAX]) == arith.INT64_MAX


def _csv_text(rec):
    text = io.StringIO()
    rec.write_csv(text)
    return text.getvalue()


def _same_record(a, b):
    return (a.raw.dtype == b.raw.dtype and np.array_equal(a.raw, b.raw)
            and (a.shift, a.scale) == (b.shift, b.scale) and _csv_text(a) == _csv_text(b))


def test_run_replicates_deterministic():
    cfg = SampleConfig(m=8, n=30, replicates=64, master_seed=2024)
    a = run_replicates(cfg, "C")
    b = run_replicates(cfg, "C")
    assert _same_record(a, b)
    assert a.raw.shape == (64,) and a.raw.dtype == np.int64 and not a.raw.flags.writeable


@pytest.mark.parametrize("q, dtype", [(1, np.int64), (12, object)], ids=["int64", "object"])
def test_run_replicates_workers_identical(q, dtype):
    # at q = 12 the bound C(10,2) 40^12 passes int64: the workers return object arrays
    cfg = SampleConfig(m=10, n=40, q=q, replicates=48, master_seed=31)
    one = run_replicates(cfg, "Z", workers=1)
    three = run_replicates(cfg, "Z", workers=3)
    assert one.raw.dtype == dtype and _same_record(one, three)


def test_run_replicates_matches_exact_moments():
    # reduced version of the simulation-vs-formula consistency check
    n, m, reps = 30, 12, 2000
    cfg = SampleConfig(m=m, n=n, replicates=reps, master_seed=424242)
    for statistic, q in (("C", None), ("Z", 1)):
        rec = run_replicates(cfg, statistic)
        mean, sd = montecarlo.exact_moments(cfg, statistic, exact.sieve_weight(n, q))
        assert (rec.shift, rec.scale) == (mean, sd)
        assert abs(float(np.mean(rec.raw)) - mean) < 4 * sd / math.sqrt(reps)


def test_raw_variance_approaches_exact():
    # empirical variance of raw C at (n=2, m=3) approaches 15/16
    n, m, reps = 2, 3, 20_000
    cfg = SampleConfig(m=m, n=n, replicates=reps, master_seed=909)
    rec = run_replicates(cfg, "C")
    assert abs(float(np.var(rec.raw)) - 15 / 16) < 0.03


def test_normalized_replicates():
    cfg = SampleConfig(m=6, n=20, replicates=32, master_seed=7)
    rec = run_replicates(cfg, "C")
    mean, sd = montecarlo.exact_moments(cfg, "C", exact.sieve_weight(20, None))
    # bit for bit the float arithmetic of one replicate at a time
    assert rec.normalized.tolist() == [(float(v) - mean) / sd for v in rec.raw]
    rec = run_replicates(cfg, "M")
    assert (rec.shift, rec.scale) == (0, comb(6, 2))
    assert rec.normalized.tolist() == [v / comb(6, 2) for v in rec.raw]
    assert np.all(rec.normalized > 0)
    with pytest.raises(ValueError):
        rec.normalized[0] = 1.0


def test_poisson_replicates_integer_counts():
    cfg = SampleConfig(m=8, n=50, replicates=100, master_seed=13)
    rec = run_replicates(cfg, "N", t=0.5)
    assert (rec.shift, rec.scale) == (0, 1)
    assert rec.raw.shape == (100,) and rec.raw.dtype == np.int64
    assert (rec.raw >= 0).all()
    assert rec.normalized.tolist() == [float(k) for k in rec.raw.tolist()]


def test_each_statistic_carries_its_limit_law():
    z2 = constants.zeta(2)
    cfg = SampleConfig(m=8, n=30, replicates=20, master_seed=21)
    for statistic in ("C", "Z"):
        assert run_replicates(cfg, statistic).law == ReferenceLaw.normal()
    assert run_replicates(cfg, "M").law == ReferenceLaw.frechet(1 / z2)
    for t in (0.25, 1.0, 3.0):
        assert run_replicates(cfg, "N", t=t).law == ReferenceLaw.poisson(1 / (t * z2))


def test_summary_takes_the_distance_and_moments_of_its_law():
    cfg = SampleConfig(m=8, n=30, replicates=50, master_seed=22)
    for statistic in ("C", "Z", "M"):
        rec = run_replicates(cfg, statistic)
        law, values = rec.law, np.sort(rec.normalized)
        assert rec.summary() == {
            "law": {"kind": law.kind, "scale": law.scale, "lam": law.lam},
            "mean": float(np.mean(values)), "sd": float(np.std(values)),
            "distance": {"ks": stattest.ks_distance(rec.normalized, law)}}
    rec = run_replicates(cfg, "N", t=0.5)
    mean, sd = stattest.integer_moments(rec.raw)
    assert rec.summary() == {
        "law": {"kind": "poisson", "scale": 1.0, "lam": rec.law.lam},
        "mean": mean, "sd": sd, "distance": {"tv": stattest.tv_distance(rec.raw, rec.law)}}


def test_summary_sorts_or_counts_the_replicates_once(monkeypatch):
    cfg = SampleConfig(m=8, n=30, replicates=500, master_seed=22)
    records = {statistic: run_replicates(cfg, statistic) for statistic in ("C", "M")}
    records["N"] = run_replicates(cfg, "N", t=0.5)
    want = {statistic: rec.summary() for statistic, rec in records.items()}
    calls = []
    real_sort, real_unique = np.sort, np.unique

    def sort(a, *args, **kwargs):
        calls.append(("sort", np.size(a)))
        return real_sort(a, *args, **kwargs)

    def unique(a, *args, **kwargs):
        calls.append(("unique", np.size(a)))
        return real_unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", sort)
    monkeypatch.setattr(np, "unique", unique)
    for statistic, rec in records.items():
        calls.clear()
        assert rec.summary() == want[statistic]
        # a full-length pass: one sort for KS and the moments, one count for TV and the
        # moments (the TV tail's own count sees only the values above the cap)
        assert [c for c in calls if c[1] == rec.raw.size] == (
            [("unique", 500)] if statistic == "N" else [("sort", 500)]), statistic


@pytest.mark.parametrize("t, count", [(0.0, comb(8, 2)), (-1.0, comb(8, 2)), (math.nan, 0),
                                      (math.inf, 0)])
def test_n_outside_its_limit_regime_runs_but_has_no_summary(t, count):
    # the Poisson law of rate 1/(t zeta(2)) exists only for 0 < t < inf
    rec = run_replicates(SampleConfig(m=8, n=30, replicates=20, master_seed=23), "N", t=t)
    assert rec.law is None
    assert rec.raw.dtype == np.int64 and rec.raw.tolist() == [count] * 20
    with pytest.raises(ValueError, match="only for 0 < t < inf"):
        rec.summary()


def test_replicate_csv_rows():
    rec = montecarlo.Replicates(np.array([3, 10**20, 0], dtype=object), NORMAL, shift=1.5,
                                scale=2)
    assert _csv_text(rec) == ("index,raw,normalized\n0,3,0.75\n"
                              "1,100000000000000000000,5e+19\n2,0,-0.75\n")


def test_a_raw_value_past_the_float_range_is_a_float_range_error():
    rec = montecarlo.Replicates(np.array([3, 10**400], dtype=object), NORMAL, shift=1.5,
                                scale=2)
    with pytest.raises(exact.FloatRangeError, match="overflows a float"):
        rec.normalized


def _plain_csv(rec):
    rows = zip(rec.raw.tolist(), rec.normalized.tolist())
    return "index,raw,normalized\n" + "".join(f"{i},{v},{x!r}\n" for i, (v, x) in enumerate(rows))


_rng = random.Random(404)


@pytest.mark.parametrize("raw, shift, scale", [
    # row counts past the CSV join chunk, so repeats reach across chunks
    ([_rng.randint(0, 6) for _ in range(9000)], 2.5, 1.3),  # many repeats
    (_rng.sample(range(10**6), 5000), 0, 2016),  # every value distinct
    # the tail cache is emptied past one chunk of distinct values, then refilled
    ((lambda v: v + v[:300] + v[-300:])(_rng.sample(range(10**6), 9000)), 0.5, 3.0),
    ([2**63 + _rng.randint(0, 4) for _ in range(200)] + [10**30, 2**64], 2.0**63, 3.0),
    ([_rng.randint(0, 50) for _ in range(500)], 1000.25, 7.0),  # all normalized < 0
    ([42], 40.0, 3.0),  # a single row
], ids=["repeats", "distinct", "distinct-past-the-cache", "past-int64", "negative", "one-row"])
def test_csv_is_the_plain_per_row_rendering(raw, shift, scale):
    raw = np.array(raw, dtype=np.int64 if max(raw) <= 2**63 - 1 else object)
    rec = montecarlo.Replicates(raw, NORMAL, shift, scale)
    got, want = _csv_text(rec).split("\n"), _plain_csv(rec).split("\n")
    assert len(got) == len(want)
    for line, expected in zip(got, want):  # line by line: a failure shows one short diff
        assert line == expected


def test_zero_variance_has_no_normalisation():
    # n = 1: every gcd is 1, so C and Z are constants
    cfg = SampleConfig(m=4, n=1, replicates=2, master_seed=1)
    for statistic in ("C", "Z"):
        with pytest.raises(ValueError, match="zero variance"):
            run_replicates(cfg, statistic)


def test_strong_law_trajectory():
    grid = (2, 10, 100)
    ratios = strong_law_trajectory(30, 2, grid, seed=5)
    assert len(ratios) == 3
    again = strong_law_trajectory(30, 2, grid, seed=5)
    assert np.array_equal(ratios, again)
    # m = r: the scaled single indicator takes one of two values
    first = strong_law_trajectory(30, 2, (2,), seed=9)[0]
    mu = exact.mean_mu(30, 1).float_value
    assert min(abs(first - 0), abs(first - 1 / mu)) < 1e-12


def test_strong_law_matches_direct_statistic():
    n, r, top = 30, 2, 200
    ratios = strong_law_trajectory(n, r, (top,), seed=77)
    cfg = SampleConfig(m=top, n=n, replicates=1, master_seed=77)
    x = draw_sample(cfg, 0)
    direct = stat_C(x, r)
    expected = comb(top, r) * exact.mean_mu(n, r - 1).float_value
    assert abs(ratios[0] - direct / expected) < 1e-12


def test_strong_law_trajectory_past_the_table_cap():
    # each prefix is a lone sample, which runs sparse past DEFAULT_MAX_N
    n, grid, seed = 10**9, (2, 10, 100, 1000), 13
    ratios = strong_law_trajectory(n, 2, grid, seed)
    x = draw_sample(SampleConfig(m=grid[-1], n=n, master_seed=seed), 0)
    mean = exact.mean_mu(n, 1).float_value
    assert ratios.tolist() == [stat_C(x[:m], 2) / (comb(m, 2) * mean) for m in grid]


def test_strong_law_trajectory_sieves_mu_once(monkeypatch, sieve_calls):
    # two sparse prefixes, then three dense ones, all priced at n: mu is
    # sieved once, to n, which lies above every sampled value
    n, grid, seed = 10**6, (10, 1000, 20000, 30000, 40000), 23
    taken = _route_spy(monkeypatch)
    weights = []
    real = exact.sieve_weight
    monkeypatch.setattr(exact, "sieve_weight", lambda n, q: weights.append((n, q)) or real(n, q))
    ratios = strong_law_trajectory(n, 2, grid, seed)
    x = draw_sample(SampleConfig(m=grid[-1], n=n, master_seed=seed), 0)
    assert int(x.max()) < n
    assert taken == ["_sparse_route"] * 2 + ["_dense_route"] * 3
    assert weights == [(n, None)]
    # the exact mean sieves mu again, window by window to n^(2/3) only
    assert sieve_calls == [("mu", n), ("mu", exact._sieve_limit(n))]
    mean = exact.mean_mu(n, 1).float_value
    assert ratios.tolist() == [montecarlo._sparse_route(x[None, :m], 2, None)[0] / (comb(m, 2) * mean)
                               for m in grid]


def test_seed_outside_uint64_is_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            SampleConfig(m=5, n=10, master_seed=seed)
        with pytest.raises(ValueError):
            strong_law_trajectory(10, 2, (2, 5), seed=seed)
    SampleConfig(m=5, n=10, master_seed=2**64 - 1)


def test_strong_law_needs_r_at_least_2():
    # checked before the grid, so the message is about r, not the grid
    for r in (1, 0):
        with pytest.raises(ValueError, match=f"r must be >= 2, got {r}"):
            strong_law_trajectory(10, r, (1, 5), seed=1)


def test_seeds_above_2_63_keep_distinct_streams():
    # a list key would pass these through float64: 2^63 + 1 rounds to 2^63
    # and 2^64 - 1 casts to 0
    def first(seed):
        return draw_sample(SampleConfig(m=8, n=10**9, master_seed=seed), 0)

    assert not np.array_equal(first(2**63), first(2**63 + 1))
    assert not np.array_equal(first(2**64 - 1), first(0))


def test_sample_space_bounded_by_int64():
    with pytest.raises(ValueError):
        SampleConfig(m=5, n=2**63)
    cfg = SampleConfig(m=50, n=2**63 - 1, replicates=1, master_seed=3)
    x = draw_sample(cfg, 0)
    assert x.min() >= 1 and x.max() > 2**62 // 4


_DRAW_ROUTES = {"philox": "_philox_passes", "raw": "_raw_passes", "rows": "_draw_rows"}


def test_draw_block_rows_equal_draw_sample(monkeypatch):
    # few words a pass, so blocks split into passes; 3 2^30 and 2^62 + 1
    # reject about a quarter of their draws, so most rows are redrawn
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 200)
    taken = _route_spy(monkeypatch, tuple(_DRAW_ROUTES.values()))
    rng = random.Random(2024)
    seeds = (rng.randrange(2**64), rng.randrange(2**64), 2**63, 2**64 - 1)
    spaces = (1, 2, 100, 3 * 2**30, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
              2**62 + 1, 2**63 - 1)
    for route, name in _DRAW_ROUTES.items():
        monkeypatch.setattr(montecarlo, "_draw_route", lambda config, rows: route)
        for seed in seeds:
            for m in (2, 7, 20):
                for n in spaces:
                    cfg = SampleConfig(m=m, n=n, replicates=40, master_seed=seed)
                    start = rng.randrange(0, 20)
                    taken.clear()
                    block = montecarlo._draw_block(cfg, start, 40)
                    assert taken[0] == name
                    for row, idx in enumerate(range(start, 40)):
                        assert np.array_equal(block[row], draw_sample(cfg, idx))


def test_draw_block_philox_words_equal_numpy_philox(monkeypatch):
    # the lane-split rounds against numpy's own Philox word stream, row by
    # row: every pass of a block, and `_philox_words` alone past a pass
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 256)
    for seed in (0, 2**63, 2**64 - 1):
        for words in (4, 5, 7, 8, 9, 63, 64, 65, 1000):
            cfg = SampleConfig(m=2 * words, n=100, replicates=140, master_seed=seed)
            passes = list(montecarlo._philox_passes(cfg, 3, 140))
            assert len(passes) > 1
            rows = [(idx, w[idx - lo]) for lo, hi, w in passes for idx in range(lo, hi)]
            lone = montecarlo._philox_words(seed, 3, 140, words)
            assert [idx for idx, _ in rows] == list(range(3, 140))
            for (idx, row), whole in zip(rows, lone):
                expected = np.random.Philox(key=montecarlo._philox_key(seed, idx)).random_raw(words)
                assert np.array_equal(row[:words], expected)
                assert np.array_equal(whole[:words], expected)


def test_draw_block_route_follows_values_a_row(monkeypatch):
    taken = _route_spy(monkeypatch, tuple(_DRAW_ROUTES.values()))
    # the benchmark's shapes, one full block each: short rows pay mostly the
    # per-row costs, which array rounds spread over a pass; long rows pay
    # mostly the per-value Generator cost, which raw words and one map undercut
    for m, n, reps, route in ((20, 100, 20000, "philox"),
                              (64, 32768, 2000, "philox"),
                              (64, 262144, 1000, "philox"),
                              (1000, 1000, 300, "raw"),
                              (2000, 40, 1000, "raw")):
        cfg = SampleConfig(m=m, n=n, replicates=reps, master_seed=1)
        taken.clear()
        montecarlo._draw_block(cfg, 0, min(reps, montecarlo._BLOCK_ELEMENTS // m))
        assert taken == [_DRAW_ROUTES[route]]
    # a single row cannot repay a pass, and nor can rows that are mostly redrawn
    for n, rows in ((100, 1), (3 * 2**30, 3000)):
        taken.clear()
        montecarlo._draw_block(SampleConfig(m=20, n=n, replicates=rows), 0, rows)
        assert taken == ["_draw_rows"]


@pytest.mark.parametrize("statistic, m, n", [("C", 20, 100), ("Z", 20, 100),
                                             ("M", 3, 3 * 2**30), ("N", 3, 3 * 2**30)])
def test_draw_block_routes_across_worker_counts_give_the_same_bytes(statistic, m, n, monkeypatch,
                                                                     inline_pool):
    # one worker draws full blocks by array rounds; 16 workers split the 2000
    # replicates into ranges of 32 rows, which take raw words.  3 2^30 rejects
    # a quarter of its draws, so many rows are redrawn on either route
    taken = _route_spy(monkeypatch, tuple(_DRAW_ROUTES.values()))
    cfg = SampleConfig(m=m, n=n, replicates=2000, master_seed=2**64 - 5)
    routes = {}
    for workers in (1, 2, 16):
        taken.clear()
        record = run_replicates(cfg, statistic, workers=workers)
        routes[workers] = set(taken)
        if workers == 1:
            serial = record
        else:
            assert _same_record(record, serial), workers
    assert "_philox_passes" in routes[1] and "_raw_passes" not in routes[1]
    assert "_raw_passes" in routes[16] and "_philox_passes" not in routes[16]


def test_block_pair_kernel_matches_naive_loops(monkeypatch):
    # few sample values per block, so replicate ranges split across blocks
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 40)
    rng = random.Random(4321)
    spaces = (2, 30, 1000, 2**31 - 1, 2**31 + 11, 2**40, 2**63 - 1)
    for trial in range(24):
        m = rng.randint(2, 25)
        n = rng.choice(spaces)
        reps = rng.randint(1, 12)
        t = rng.choice([0.0, 0.3, 1.0, 4.0])
        cfg = SampleConfig(m=m, n=n, replicates=reps, master_seed=500 + trial)
        maxima = run_replicates(cfg, "M").raw
        counts = run_replicates(cfg, "N", t=t).raw
        for i in range(reps):
            x = draw_sample(cfg, i)
            assert maxima[i] == brute.naive_stat_M(x)
            assert counts[i] == brute.naive_poisson_count(x, t * comb(m, 2))


def test_pair_kernel_on_values_beyond_2_31():
    big = 2**33 + 7
    x = [3 * big, 5 * big, 2**40, 2**41, 6]
    assert stat_M(x) == brute.naive_stat_M(x) == 2**40
    for thr in (0, 2.5, big - 0.5, big, 2**40 - 1, 2**62, float("inf")):
        assert poisson_count(x, thr) == brute.naive_poisson_count(x, thr)
    # int32 samples against cuts far beyond int32
    for thr in (2**40, 2**62, float("inf"), float("nan")):
        assert poisson_count([6, 12, 18], thr) == 0


_PAIR_ROUTES = ("_cofactor_max", "_cofactor_count", "_pair_route")


def _force_pair_route(monkeypatch, route):
    """Send every M and N block whose keys fit int64 down `route`."""
    cost = 0.0 if route == "cofactor" else math.inf
    monkeypatch.setattr(montecarlo, "_cofactor_max_cost", lambda *args: cost)
    monkeypatch.setattr(montecarlo, "_cofactor_count_cost", lambda *args: cost)


def _cuts(rng, n):
    """Cuts with at most a few thousand cofactors below n, so the cofactor
    route stays quick: 0 on small n, others up to n and beyond, and the
    cut of a NaN threshold."""
    cuts = [n // rng.randint(1, 3000), n - 1, n, n + 5, montecarlo._pair_cut(math.nan)]
    return cuts + [0] if n <= 1000 else cuts


def test_pair_gcd_routes_match_naive_loops(monkeypatch):
    # few values a block, so replicate ranges split across blocks
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 60)
    taken = _route_spy(monkeypatch, _PAIR_ROUTES)
    rng = random.Random(8642)
    for route in ("cofactor", "pair"):
        _force_pair_route(monkeypatch, route)
        taken.clear()
        for trial in range(24):
            m = rng.randint(2, 16)
            n = rng.choice((1, 2, 30, 1000, 2**31 - 1, 2**31, 2**40))
            reps = rng.randint(1, 10)
            cut = rng.choice(_cuts(rng, n))
            t = math.nan if cut == arith.INT64_MAX else (cut + 0.5) / comb(m, 2)
            cfg = SampleConfig(m=m, n=n, replicates=reps, master_seed=700 + trial)
            maxima = run_replicates(cfg, "M").raw
            counts = run_replicates(cfg, "N", t=t).raw
            for i in range(reps):
                x = draw_sample(cfg, i)
                assert maxima[i] == brute.naive_stat_M(x)
                assert counts[i] == brute.naive_poisson_count(x, t * comb(m, 2))
        if route == "pair":
            assert set(taken) == {"_pair_route"}
        else:
            # M of a few values far below n walks too far: those rows fall back
            assert set(taken) == set(_PAIR_ROUTES)


def test_pair_gcd_routes_on_repeated_and_shared_values(monkeypatch):
    rng = random.Random(97)
    for n in (1, 2, 30, 2**31 - 1, 2**31, 2**40):
        for trial in range(6):
            rows, m = rng.randint(1, 8), rng.randint(2, 12)
            xs = np.array([[rng.randint(1, n) for _ in range(m)] for _ in range(rows)])
            # n itself twice: the block's bound is a shared divisor
            xs[0][0] = xs[0][-1] = n
            for row in xs[1:]:
                # a repeated value, and two multiples of one large divisor
                row[rng.randrange(m)] = row[rng.randrange(m)]
                d = n // rng.randint(1, 40) or 1
                row[rng.randrange(m)] = d * rng.randint(1, n // d)
                row[rng.randrange(m)] = d * rng.randint(1, n // d)
            cuts = _cuts(rng, n)
            for route in ("cofactor", "pair"):
                _force_pair_route(monkeypatch, route)
                assert montecarlo._pair_gcd_reduce(xs).tolist() == [
                    brute.naive_stat_M(x) for x in xs]
                for cut in cuts:
                    assert montecarlo._pair_gcd_reduce(xs, cut).tolist() == [
                        brute.naive_poisson_count(x, cut) for x in xs]


def test_pair_gcd_route_follows_block_cost(monkeypatch):
    taken = []
    for name in _PAIR_ROUTES:
        # record the route and skip its work
        monkeypatch.setattr(montecarlo, name,
                            lambda xs, *args, _name=name: taken.append(_name) or np.zeros(len(xs)))

    def route(m, n, rows, cut=None):
        taken.clear()
        xs = montecarlo._draw_block(SampleConfig(m=m, n=n, replicates=rows, master_seed=3),
                                    0, rows)
        montecarlo._pair_gcd_reduce(xs, cut)
        return taken

    full = montecarlo._BLOCK_ELEMENTS // 64
    # the benchmark's shapes, one full block each
    assert route(64, 32768, full) == ["_cofactor_max"]
    assert route(64, 262144, full) == ["_cofactor_max"]
    assert route(100, 10**6, montecarlo._BLOCK_ELEMENTS // 100,
                 montecarlo._pair_cut(comb(100, 2))) == ["_cofactor_count"]
    # far too many cofactors below n, or too few rows to repay the bands
    assert route(64, 2**40, full) == ["_pair_route"]
    assert route(64, 64**3, 32) == ["_pair_route"]
    # two cofactors, but keys that would overflow int64
    assert route(64, 2**62, 1, 2**61) == ["_pair_route"]


def test_cofactor_walk_leaves_few_rows_to_the_pair_route(monkeypatch):
    handed = []
    real = montecarlo._pair_route
    monkeypatch.setattr(montecarlo, "_pair_route",
                        lambda xs, *args: handed.append(len(xs)) or real(xs, *args))
    rows = montecarlo._BLOCK_ELEMENTS // 64
    cfg = SampleConfig(m=64, n=64**3, replicates=rows, master_seed=5)
    xs = montecarlo._draw_block(cfg, 0, rows)
    expected = real(xs)
    assert montecarlo._cofactor_max(xs, int(xs.max())).tolist() == expected.tolist()
    # rows drop out as their band is found; the rest, if any, take np.gcd
    assert sum(handed) < rows / 20


def test_cofactor_route_memory_stays_near_the_pair_route():
    m, n = 100, 10**6
    cfg = SampleConfig(m=m, n=n, replicates=1000, master_seed=1)
    xs = montecarlo._draw_block(cfg, 0, montecarlo._BLOCK_ELEMENTS // m)
    cut = montecarlo._pair_cut(comb(m, 2))
    peaks, counts = [], []
    for route in (montecarlo._pair_route, lambda xs, cut: montecarlo._cofactor_count(xs, n, cut)):
        route(xs, cut)  # numpy's first calls allocate caches of their own
        tracemalloc.start()
        try:
            counts.append(route(xs, cut).tolist())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert counts[0] == counts[1] and sum(counts[0]) > 0
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("share", [0.0, math.inf], ids=["drop_always", "drop_never"])
@pytest.mark.parametrize("m, n", [(64, round(64**2.5)), (64, 64**3), (20, 2**20), (8, 1000)])
def test_cofactor_max_holds_or_drops_finished_rows_alike(m, n, share, monkeypatch):
    # finished rows' values dropped after every band, or held to the end
    monkeypatch.setattr(montecarlo, "_DROP_SHARE", share)
    rows = montecarlo._BLOCK_ELEMENTS // m
    xs = montecarlo._draw_block(SampleConfig(m=m, n=n, replicates=rows, master_seed=m + n),
                                0, rows)
    got = montecarlo._cofactor_max(xs, int(xs.max()))
    assert got.tolist() == montecarlo._pair_route(xs).tolist()
    assert got[:40].tolist() == [brute.naive_stat_M(x) for x in xs[:40]]


@pytest.mark.parametrize("share", [montecarlo._DROP_SHARE, math.inf])
def test_cofactor_max_keeps_the_first_band_found(share, monkeypatch):
    # row 0 shares 700 in the band [668, 1001), then 500 in [446, 668) while
    # its values are still held: 700 must stay.  Every band runs.
    monkeypatch.setattr(montecarlo, "_DROP_SHARE", share)
    monkeypatch.setattr(montecarlo, "_pair_cost", lambda *args: math.inf)
    xs = np.array([[700, 700, 500, 1000]] + [[1, 2, 3, 5 + k] for k in range(7)])
    assert montecarlo._band_below(1001, 1) == 668 and montecarlo._band_below(668, 1) == 446
    got = montecarlo._cofactor_max(xs, 1000)
    assert got.tolist() == [brute.naive_stat_M(x) for x in xs]
    assert got[0] == 700


def test_cofactor_max_memory_on_the_benchmark_block():
    # one full block of the benchmark's M job at n = m^3: 1.24 MiB traced
    # when finished rows' values were dropped after every band
    m = 64
    cfg = SampleConfig(m=m, n=m**3, replicates=1000, master_seed=1)
    xs = montecarlo._draw_block(cfg, 0, montecarlo._BLOCK_ELEMENTS // m)
    n = int(xs.max())
    expected = montecarlo._cofactor_max(xs, n)  # numpy's first calls allocate caches
    tracemalloc.start()
    try:
        got = montecarlo._cofactor_max(xs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == expected.tolist()
    assert peak <= 1.34 * 2**20


def test_cli_simulate_draws_each_replicate_once(monkeypatch, tmp_path, capsys):
    from gcdstats.cli import main

    drawn = []
    real = montecarlo._draw_block

    def counting(config, start, stop):
        drawn.extend(range(start, stop))
        return real(config, start, stop)

    monkeypatch.setattr(montecarlo, "_draw_block", counting)
    for statistic, n in (("C", "30"), ("M", "m^2.5"), ("N", "1000")):
        drawn.clear()
        argv = ["simulate", "--statistic", statistic, "--m", "6", "--n", n,
                "--reps", "25", "--seed", "2", "--out", str(tmp_path / statistic)]
        assert main(argv) == 0
        assert sorted(drawn) == list(range(25))
    capsys.readouterr()


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool by one that runs the ranges in-process.

    Returns the list of pool sizes requested, one per pool.
    """
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(montecarlo, "_fork_pool", InlinePool)
    return sizes


def test_pool_has_no_more_processes_than_ranges_or_cpus(monkeypatch, inline_pool):
    sizes = inline_pool
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    cfg = SampleConfig(m=6, n=30, replicates=5, master_seed=8)
    serial = run_replicates(cfg, "C", workers=1)
    assert sizes == []
    for workers, expected in ((2, 2), (16, 3), (64, 3)):
        assert _same_record(run_replicates(cfg, "C", workers=workers), serial)
        assert sizes[-1] == expected
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
    assert _same_record(run_replicates(cfg, "C", workers=64), serial)
    assert sizes[-1] == 5  # one process per replicate range


def test_a_pooled_run_keeps_no_weight(monkeypatch):
    # the workers' context goes with the pool: once the record is dropped,
    # nothing in this process holds the weight the run sieved
    refs = []
    real = exact.sieve_weight

    def weight(n, q):
        g = real(n, q)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(exact, "sieve_weight", weight)
    cfg = SampleConfig(m=20, n=100_000, replicates=40, master_seed=3)
    record = run_replicates(cfg, "C", workers=2)
    assert len(refs) == 1 and record.raw.size == 40
    del record
    gc.collect()
    assert refs[0]() is None


@pytest.mark.parametrize("statistic, q, n", [("C", 1, 30), ("C", 1, 10_000),
                                             ("Z", 2, 30), ("Z", 2, 10_000)])
def test_pool_workers_sieve_nothing(statistic, q, n, monkeypatch, inline_pool, sieve_calls):
    # n = 30 takes the dense route, n = 1e4 at m = 20 the sparse one
    in_workers = []
    real_chunk = montecarlo._sim_chunk

    def chunk(bounds):
        start = len(sieve_calls)
        out = real_chunk(bounds)
        in_workers.extend(sieve_calls[start:])
        return out

    monkeypatch.setattr(montecarlo, "_sim_chunk", chunk)
    cfg = SampleConfig(m=20, n=n, q=q, replicates=6, master_seed=3)
    serial = run_replicates(cfg, statistic, workers=1)
    sieve_calls.clear()
    assert _same_record(run_replicates(cfg, statistic, workers=2), serial)
    assert len(inline_pool) == 1 and in_workers == []
    # the kernel's weights to n; the exact moments sieve to L = n^(2/3)
    # window by window: the weights once for the mean and the variance, and mu
    # for the gcd counts (one sieve serves both for C)
    top = exact._sieve_limit(n)
    weights = [("mu", n), ("mu", top)] if statistic == "C" else \
        [(f"phi_{q}", n), (f"phi_{q}", top), ("mu", top)]
    assert sorted(sieve_calls) == sorted(weights)
