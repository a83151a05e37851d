"""Exact and simulated statistics of gcds of random integer samples."""

__version__ = "0.1.0"

from .arith import primes_up_to
from .constants import (
    DEFAULT_CUTOFF,
    M_constant,
    ProductSpec,
    delta,
    delta_s,
    delta_toth,
    euler_product,
    limit_var_c,
    limit_var_d,
    pairwise_coprime_T,
    schur_constant,
    tauberian_trend,
    zeta,
)
from .exact import (
    ExactResult,
    MarginalProfile,
    gcd_moment,
    gcd_pmf,
    gcd_tail,
    marginal_error_bound_check,
    marginal_profile,
    mean_mu,
    mean_nu,
    mixed_moment_omega,
    mixed_moment_pi,
    shared_covariance,
    sieve_weight,
    var_C,
    var_Z,
    var_c,
    var_d,
)
from .montecarlo import (
    Replicates,
    SampleConfig,
    draw_sample,
    poisson_count,
    run_replicates,
    stat_C,
    stat_M,
    stat_Z,
    strong_law_trajectory,
)
from .stattest import ReferenceLaw, cdf, ks_distance, tv_distance
