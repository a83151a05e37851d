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
emp = montecarlo.run_replicates(cfg, "M", "frechet-scale")
law = stattest.ReferenceLaw.frechet(1 / z2)
print(f"max pair gcd / C(m,2) at m={m}, n=m^2.5={n}, 2000 replicates")
print(f"  KS distance to Frechet(shape 1, scale 1/zeta(2)): "
      f"{stattest.ks_distance(emp, law):.4f}")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    empirical = float(np.mean(emp.values <= t))
    print(f"  P(scaled max <= {t:4.2f}):  empirical {empirical:.4f}   "
          f"limit {math.exp(-1 / (t * z2)):.4f}")
print()

m, n = 100, 1_000_000
cfg = montecarlo.SampleConfig(m=m, n=n, replicates=2000, master_seed=11)
emp = montecarlo.run_replicates(cfg, "N", "none", t=1.0)
lam = 1 / z2
law = stattest.ReferenceLaw.poisson(lam)
mean = sum(k * c for k, c in emp.counts.items()) / emp.size
print(f"pairs with gcd > C(m,2) at m={m}, n={n}, 2000 replicates")
print(f"  TV distance to Poisson(1/zeta(2)): {stattest.tv_distance(emp, law):.4f}")
print(f"  empirical mean {mean:.4f} vs lambda {lam:.4f}")
pk = stattest.poisson_pmf(lam, 5)
print("  count   empirical   Poisson")
for k in range(6):
    print(f"  {k:5d}   {emp.counts.get(k, 0) / emp.size:9.4f}   {pk[k]:7.4f}")
