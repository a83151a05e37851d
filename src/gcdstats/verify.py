"""Acceptance suites: one callable per criterion group, shared by the CLI
`verify` subcommand and the pytest acceptance module.

Each suite returns CheckResult rows; a row is one named assertion with its
measured detail, so failures carry the observed numbers.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import brute, constants, exact, montecarlo
from .arith import build_table

# frozen master seeds for the statistical criteria
SEEDS = {
    "variance": 20260801,
    "clt_C": 20260802,
    "clt_Z": 20260803,
    "frechet": 20260804,
    "poisson": 20260805,
    "stronglaw": 20260806,
}

ORACLE_MAX_N = 30
CONSTANTS_CUTOFF = 1_000_000
DETERMINISM_WORKERS = (1, 4, 16)

# The seeded Monte Carlo runs: name -> (config, statistic).
# The statistical suites each run their own entries once, and the
# determinism suite reruns every entry at each of DETERMINISM_WORKERS.
EXPERIMENTS = {
    "variance C": (montecarlo.SampleConfig(m=20, n=100, replicates=100_000,
                                           master_seed=SEEDS["variance"]),
                   "C"),
    "variance Z": (montecarlo.SampleConfig(m=20, n=100, replicates=100_000,
                                           master_seed=SEEDS["variance"]),
                   "Z"),
    "clt C": (montecarlo.SampleConfig(m=1000, n=1000, replicates=1000,
                                      master_seed=SEEDS["clt_C"]),
              "C"),
    "clt Z": (montecarlo.SampleConfig(m=2000, n=40, replicates=1000,
                                      master_seed=SEEDS["clt_Z"]),
              "Z"),
    "frechet": (montecarlo.SampleConfig(m=64, n=round(64**2.5), replicates=2000,
                                        master_seed=SEEDS["frechet"]),
                "M"),
    "poisson": (montecarlo.SampleConfig(m=100, n=1_000_000, replicates=2000,
                                        master_seed=SEEDS["poisson"]),
                "N"),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@lru_cache(maxsize=32)
def _shared_table(n: int):
    return build_table(n)


def _at(cfg, names=("m", "n")) -> str:
    """A check label's '(m=64, n=32768, R=2000)': the config's figures named
    in `names`, then R; a power of ten past 1e4 reads '1eK'."""
    def figure(x):
        k = len(str(x)) - 1
        return f"1e{k}" if k > 4 and x == 10**k else str(x)

    pairs = [(name, getattr(cfg, name)) for name in names] + [("R", cfg.replicates)]
    return "(" + ", ".join(f"{name}={figure(x)}" for name, x in pairs) + ")"


def _run_experiment(name: str, workers: int):
    config, statistic = EXPERIMENTS[name]
    return montecarlo.run_replicates(config, statistic, workers=workers)


# --- criterion 1: oracle equivalence ----------------------------------------

def suite_oracle() -> list[CheckResult]:
    out = []
    rs = (2, 3)
    qs = (1, 2)
    for r in rs:
        fails = []
        for n in range(1, ORACLE_MAX_N + 1):
            table = _shared_table(n)
            if not _oracle_one_n(table, n, r, qs, fails):
                break
        out.append(
            CheckResult(
                f"oracle r={r} (pmf, moments, marginals, c/d, gamma/omega, "
                f"varC, varZ, pi; n<={ORACLE_MAX_N}, q in {qs})",
                not fails,
                fails[0] if fails else f"exact agreement for all n <= {ORACLE_MAX_N}",
            )
        )
    return out


def _oracle_one_n(table, n, r, qs, fails) -> bool:
    def bad(msg):
        fails.append(f"n={n}: {msg}")
        return False

    # pmf
    pmf = [v.as_fraction() for v, count in exact.gcd_pmf(n, r) for _ in range(count)]
    if pmf != brute.pmf(n, r):
        return bad("pmf mismatch")
    if sum(pmf) != 1:
        return bad("pmf does not sum to 1")
    # moments
    for q in qs:
        if exact.gcd_moment(n, r, q).as_fraction() != brute.moment(n, r, q):
            return bad(f"moment q={q} mismatch")
    # marginals and their mean/variance
    hist = brute.gcd_histogram(n, r)
    for kind in ("probability", "expectation"):
        prof = exact.marginal_profile(table, n, r, kind)
        for k in range(1, n + 1):
            if prof.value(k).as_fraction() != brute.marginal_value(n, r, k, kind, hist):
                return bad(f"marginal {kind} mismatch at k={k}")
        bmean, bvar = brute.profile_mean_and_var(n, r, kind)
        if prof.mean().as_fraction() != bmean:
            return bad(f"profile mean {kind} mismatch")
        mine_var = (
            exact.var_c(table, n, r) if kind == "probability" else exact.var_d(table, n, r)
        )
        if mine_var.as_fraction() != bvar:
            return bad(f"profile variance {kind} mismatch")
    if exact.mean_mu(n, r).as_fraction() != brute.profile_mean_and_var(n, r, "probability")[0]:
        return bad("mean_mu mismatch")
    # shared covariances
    for s in range(0, r + 1):
        if exact.shared_covariance(table, n, r, s, "indicator").as_fraction() != \
                brute.shared_covariance(n, r, s, "indicator"):
            return bad(f"gamma(r,{s}) mismatch")
        for q in qs:
            if exact.shared_covariance(table, n, r, s, "moment", q).as_fraction() != \
                    brute.shared_covariance(n, r, s, "moment", q):
                return bad(f"omega(r,{s}) q={q} mismatch")
    # U-statistic variances over all n^m samples, smallest nontrivial m
    m = r + 1
    _, bvar = brute.statistic_mean_and_var(n, m, r, "indicator")
    if exact.var_C(table, n, m, r).as_fraction() != bvar:
        return bad(f"var_C(m={m}) mismatch")
    for q in qs:
        _, bvar = brute.statistic_mean_and_var(n, m, r, "moment", q)
        if exact.var_Z(table, n, m, r, q).as_fraction() != bvar:
            return bad(f"var_Z(m={m}) q={q} mismatch")
    # mixed second moment
    for q in qs:
        if exact.mixed_moment_pi(table, n, r, q).as_fraction() != \
                brute.mixed_moment_pi(n, r, q):
            return bad(f"pi q={q} mismatch")
        omega = exact.mixed_moment_omega(table, n, r, q).as_fraction()
        if omega != brute.shared_covariance(n, r, 1, "moment", q):
            return bad(f"omega-from-pi q={q} mismatch")
    return True


# --- criterion 2 and 4: Dirichlet-type limits --------------------------------

def suite_limits() -> list[CheckResult]:
    out = []
    z2 = constants.zeta(2)

    mu1 = exact.mean_mu(1_000_000, 1).float_value
    gap = abs(mu1 - 1 / z2)
    out.append(CheckResult(
        "limits: |mu_1(1e6) - 1/zeta(2)| < 1e-3",
        gap < 1e-3, f"mu_1={mu1:.9f}, gap={gap:.2e}",
    ))

    nu2 = exact.mean_nu(100_000, 2).float_value
    target = constants.zeta(2) / constants.zeta(3)
    gap = abs(nu2 - target)
    out.append(CheckResult(
        "limits: |nu_2(1e5) - zeta(2)/zeta(3)| < 1e-2",
        gap < 1e-2, f"nu_2={nu2:.6f}, target={target:.6f}, gap={gap:.2e}",
    ))

    m2 = exact.gcd_moment(1_000_000, 2, 2).float_value / 1_000_000
    target = (2 * constants.zeta(2) / constants.zeta(3) - 1) / 3
    rel = abs(m2 - target) / target
    out.append(CheckResult(
        "limits: pair gcd second moment / n within 2% of (1/3)(2 zeta(2)/zeta(3) - 1)",
        rel < 0.02, f"value={m2:.6f}, target={target:.6f}, rel={rel:.4f}",
    ))
    return out


# --- criterion 3: constants ---------------------------------------------------

def suite_constants() -> list[CheckResult]:
    out = []
    d = constants.delta(CONSTANTS_CUTOFF)
    out.append(CheckResult(
        "constants: delta = 0.01186 +- 5e-5 at cutoff 1e6",
        abs(d.value - 0.01186) < 5e-5,
        f"delta={d.value:.8f} (tail bound {d.tail_bound:.1e})",
    ))

    dt = constants.delta_toth(CONSTANTS_CUTOFF)
    gap = abs(dt.value - 2 * d.value)
    out.append(CheckResult(
        "constants: |delta_toth - 2 delta| < 1e-9",
        gap < 1e-9, f"gap={gap:.2e}",
    ))

    ps = constants.primes_up_to(10_000).astype(np.float64)
    lhs = (1 + ps**-3 - 4 / (ps * (ps + 1))) * (1 - ps**-2)
    rhs = 1 - 5 * ps**-2 + 5 * ps**-3 - ps**-5
    worst = float(np.max(np.abs(lhs - rhs)))
    out.append(CheckResult(
        "constants: per-prime factor identity (p <= 1e4) at 1e-15",
        worst < 1e-15, f"max |lhs-rhs| = {worst:.2e}",
    ))

    for t in (1.5, 2.0, 3.0):
        a, b = constants.m_product_forms(t, CONSTANTS_CUTOFF)
        gap = abs(a - b)
        out.append(CheckResult(
            f"constants: M({t}) product forms agree to 1e-10",
            gap < 1e-10, f"formA={a!r}, formB={b!r}, gap={gap:.2e}",
        ))

    # Every term is positive, so the truncation at i, j <= B approaches M(2)
    # from below.  Its tail, the pairs with i > B or j > B, is at most
    # 2 zeta(2) sum_{i>B} phi(i)sigma(i)/i^4 < 2 zeta(2)/B, by
    # sum_j gcd(i,j)/j^2 <= zeta(2) sigma(i)/i and phi(i)sigma(i) <= i^2;
    # B = 1e5 puts that bound at 3.3e-5, under the 1e-4 tolerance.
    bound = 100_000
    tail = 2 * constants.zeta(2) / bound
    m2 = constants.M_constant(2.0, 1, CONSTANTS_CUTOFF).value
    trunc = _m2_truncated_double_sum(bound)
    gap = m2 - trunc
    out.append(CheckResult(
        f"constants: M(2) vs truncated double sum (i,j <= {bound}, "
        f"proven tail < 2 zeta(2)/B = {tail:.1e}) within 1e-4, from below",
        0 < gap < 1e-4, f"product={m2:.8f}, truncated={trunc:.8f}, gap={gap:.2e}",
    ))
    return out


def _m2_truncated_double_sum(bound: int) -> float:
    """sum_{i,j <= bound} phi(i)phi(j)gcd(i,j)/(ij)^3, the truncated M(2) series."""
    return float(constants._totient_gcd_terms(3, bound).sum())


# --- criterion 5: variance formulas vs simulation -----------------------------

def suite_variance(workers: int = 1) -> list[CheckResult]:
    out = []
    for statistic in ("C", "Z"):
        name = f"variance {statistic}"
        cfg = EXPERIMENTS[name][0]
        at = _at(cfg, ("n", "m"))
        rec = _run_experiment(name, workers)
        vals = rec.raw.astype(np.float64)
        mean_exact, sd_exact = rec.shift, rec.scale
        var_exact = sd_exact**2
        se_mean = sd_exact / math.sqrt(cfg.replicates)
        mean_gap = abs(vals.mean() - mean_exact)
        out.append(CheckResult(
            f"variance: mean of {statistic} within 4 SE at {at}",
            mean_gap < 4 * se_mean,
            f"sample={vals.mean():.4f}, exact={mean_exact:.4f}, "
            f"gap={mean_gap:.4f} ({mean_gap / se_mean:.2f} SE)",
        ))
        svar = vals.var()
        centered = vals - vals.mean()
        m4 = float(np.mean(centered**4))
        se_var = math.sqrt(max(m4 - svar**2, 1e-12) / cfg.replicates)
        var_gap = abs(svar - var_exact)
        out.append(CheckResult(
            f"variance: variance of {statistic} within 4 SE at {at}",
            var_gap < 4 * se_var,
            f"sample={svar:.4f}, exact={var_exact:.4f}, "
            f"gap={var_gap:.4f} ({var_gap / se_var:.2f} SE)",
        ))
    return out


# --- criterion 6: asymptotic normality ----------------------------------------

def suite_clt(workers: int = 1) -> list[CheckResult]:
    out = []
    for name in ("clt C", "clt Z"):
        cfg, statistic = EXPERIMENTS[name]
        ks = _run_experiment(name, workers).summary()["distance"]["ks"]
        out.append(CheckResult(
            f"clt: normalized {statistic} at {_at(cfg)}, KS vs normal < 0.06",
            ks < 0.06, f"KS={ks:.4f}",
        ))
    return out


# --- criterion 7: Frechet limit ------------------------------------------------

def suite_frechet(workers: int = 1) -> list[CheckResult]:
    cfg = EXPERIMENTS["frechet"][0]
    ks = _run_experiment("frechet", workers).summary()["distance"]["ks"]
    return [CheckResult(
        f"frechet: scaled max gcd at {_at(cfg)}, KS vs exp(-1/(t zeta(2))) < 0.07",
        ks < 0.07, f"KS={ks:.4f}",
    )]


# --- criterion 8: Poisson limit -------------------------------------------------

def suite_poisson(workers: int = 1) -> list[CheckResult]:
    out = []
    cfg = EXPERIMENTS["poisson"][0]
    rec = _run_experiment("poisson", workers)
    summary, lam = rec.summary(), rec.law.lam
    tv, mean = summary["distance"]["tv"], summary["mean"]
    out.append(CheckResult(
        f"poisson: N(1) at {_at(cfg)}, TV vs Poisson(1/zeta(2)) < 0.05",
        tv < 0.05, f"TV={tv:.4f}",
    ))
    se = math.sqrt(lam / rec.raw.size)
    gap = abs(mean - lam)
    out.append(CheckResult(
        "poisson: empirical mean within 3 SE of 0.6079",
        gap < 3 * se, f"mean={mean:.4f}, target={lam:.4f}, gap={gap / se:.2f} SE",
    ))
    return out


# --- criterion 9: slow-divergence trends ----------------------------------------

TREND_GRID = (1_000, 100_000, 1_000_000)


def suite_trends() -> list[CheckResult]:
    out = []
    table = _shared_table(TREND_GRID[-1])
    ratios = {}
    for kind in ("corollary22", "toth", "pillai_sq"):
        rs, target = constants.tauberian_trend(kind, TREND_GRID, table)
        ratios[kind] = rs
        dists = [abs(v - target) for v in rs]
        decreasing = all(b < a for a, b in zip(dists, dists[1:]))
        out.append(CheckResult(
            f"trends: {kind} ratio-to-ln^3(N) approaches its constant over {TREND_GRID}",
            decreasing,
            "distances " + " > ".join(f"{dv:.6f}" for dv in dists),
        ))
    dominated = all(t >= p for t, p in zip(ratios["toth"], ratios["corollary22"]))
    out.append(CheckResult(
        "trends: lcm-restricted sum dominates the product-restricted sum at every N",
        dominated,
        f"toth={['%.5f' % v for v in ratios['toth']]}, "
        f"cor22={['%.5f' % v for v in ratios['corollary22']]}",
    ))
    return out


# --- criterion 10: strong law -----------------------------------------------------

STRONGLAW_GRID = (10, 100, 1000, 10_000)


def suite_stronglaw() -> list[CheckResult]:
    out = []
    ratios = montecarlo.strong_law_trajectory(100, 2, STRONGLAW_GRID, SEEDS["stronglaw"])
    gap = abs(ratios[-1] - 1)
    out.append(CheckResult(
        "stronglaw: trajectory at (n=100, r=2) ends within 0.02 of 1 at m=1e4",
        gap < 0.02, f"final ratio={ratios[-1]:.5f}",
    ))
    again = montecarlo.strong_law_trajectory(100, 2, STRONGLAW_GRID, SEEDS["stronglaw"])
    out.append(CheckResult(
        "stronglaw: trajectory identical under rerun with the same seed",
        bool(np.array_equal(ratios, again)),
        f"ratios={[f'{v:.5f}' for v in ratios]}",
    ))
    return out


# --- criterion 11: determinism across worker counts -------------------------------

def _csv_bytes(rec) -> bytes:
    """The bytes `simulate` writes to its CSV file for the record."""
    text = io.StringIO()
    rec.write_csv(text)
    return text.getvalue().encode()


def suite_determinism() -> list[CheckResult]:
    out = []
    for name in EXPERIMENTS:
        blobs = [_csv_bytes(_run_experiment(name, w)) for w in DETERMINISM_WORKERS]
        identical = all(b == blobs[0] for b in blobs)
        out.append(CheckResult(
            f"determinism: {name} byte-identical across workers {DETERMINISM_WORKERS}",
            identical, f"{len(blobs[0])} bytes",
        ))

    # trend ratios and the strong-law trajectory carry no worker dimension;
    # their determinism contract is rerun stability
    table = _shared_table(TREND_GRID[-1])
    r1, _ = constants.tauberian_trend("pillai_sq", TREND_GRID, table)
    r2, _ = constants.tauberian_trend("pillai_sq", TREND_GRID, table)
    out.append(CheckResult(
        "determinism: trend ratios byte-identical across reruns",
        repr(r1) == repr(r2), repr(r1),
    ))
    t1 = montecarlo.strong_law_trajectory(100, 2, STRONGLAW_GRID, SEEDS["stronglaw"])
    t2 = montecarlo.strong_law_trajectory(100, 2, STRONGLAW_GRID, SEEDS["stronglaw"])
    out.append(CheckResult(
        "determinism: strong-law trajectory byte-identical across reruns",
        bool(np.array_equal(t1, t2)), "",
    ))
    return out


# the suites that run EXPERIMENTS entries, whose worker count is an argument
WORKER_SUITES = ("variance", "clt", "frechet", "poisson")

SUITES = {
    "oracle": suite_oracle,
    "limits": suite_limits,
    "constants": suite_constants,
    "variance": suite_variance,
    "clt": suite_clt,
    "frechet": suite_frechet,
    "poisson": suite_poisson,
    "trends": suite_trends,
    "stronglaw": suite_stronglaw,
    "determinism": suite_determinism,
}

