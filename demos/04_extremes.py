"""Extreme values: the maximum pair gcd and rare large-gcd pairs.

Scaled by C(m,2), the maximum gcd over pairs converges to a Frechet law
with cdf exp(-1/(t zeta(2))) when n grows like a power m^beta, beta > 2.
Behind it sits a Poisson limit: the number of pairs with gcd above
t C(m,2) converges to Poisson(1/(t zeta(2))).
"""

import math

import numpy as np

from gcdstats import constants, montecarlo, stattest

z2 = constants.zeta(2)

m = 64
n = round(m**2.5)
cfg = montecarlo.SampleConfig(m=m, n=n, replicates=2000, master_seed=11)
# the maxima come scaled by C(m,2), with their Frechet limit law
rec = montecarlo.run_replicates(cfg, "M")
scaled = rec.normalized
print(f"max pair gcd / C(m,2) at m={m}, n=m^2.5={n}, 2000 replicates")
print(f"  KS distance to Frechet(shape 1, scale 1/zeta(2)): "
      f"{rec.summary()['distance']['ks']:.4f}")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    empirical = float(np.mean(scaled <= t))
    print(f"  P(scaled max <= {t:4.2f}):  empirical {empirical:.4f}   "
          f"limit {math.exp(-1 / (t * z2)):.4f}")
print()

m, n = 100, 1_000_000
cfg = montecarlo.SampleConfig(m=m, n=n, replicates=2000, master_seed=11)
rec = montecarlo.run_replicates(cfg, "N", t=1.0)
counts, lam, summary = rec.raw, rec.law.lam, rec.summary()
print(f"pairs with gcd > C(m,2) at m={m}, n={n}, 2000 replicates")
print(f"  TV distance to Poisson(1/zeta(2)): {summary['distance']['tv']:.4f}")
print(f"  empirical mean {summary['mean']:.4f} vs lambda {lam:.4f}")
pk = stattest.poisson_pmf(lam, 5)
print("  count   empirical   Poisson")
for k in range(6):
    print(f"  {k:5d}   {np.mean(counts == k):9.4f}   {pk[k]:7.4f}")
