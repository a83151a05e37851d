"""Asymptotic normality of the coprime-pair counter and the gcd sum.

C counts coprime pairs among all C(m,2) pairs of a random sample; Z sums
the pair gcds.  Both are sums of many weakly dependent terms and become
normal as m grows; the exact mean and variance used for normalization
come from the closed formulas, not from the sample.
"""

import numpy as np

from gcdstats import build_table, exact, montecarlo

for statistic, m, n, note in (
    ("C", 1000, 1000, "any n >= 2 works for C"),
    ("Z", 2000, 40, "Z needs n ~ m^beta with beta < 1/2"),
):
    cfg = montecarlo.SampleConfig(m=m, n=n, replicates=1000, master_seed=7)
    # C and Z are normalised by their exact mean (shift) and sd (scale);
    # the record knows its limit law, the standard normal
    rec = montecarlo.run_replicates(cfg, statistic)
    summary = rec.summary()
    print(f"{statistic} at m={m}, n={n}   ({note})")
    print(f"  exact mean {rec.shift:.3f}, exact sd {rec.scale:.3f}")
    print(f"  normalized replicate mean {summary['mean']:+.4f}, "
          f"sd {summary['sd']:.4f}")
    print(f"  KS distance to the standard normal: {summary['distance']['ks']:.4f}")
    hist, edges = np.histogram(rec.normalized, bins=np.arange(-3.0, 3.5, 0.5))
    bars = " ".join(f"{c:3d}" for c in hist)
    print(f"  counts in half-unit bins from -3 to 3:  {bars}")
    print()

print("the variance formula behind the normalization, at (n=100, m=20):")
table = build_table(100)
v = exact.var_C(table, 100, 20, 2)
mu = exact.mean_mu(100, 1).as_fraction()
c1 = exact.var_c(table, 100, 1).as_fraction()
print(f"  var C = C(m,2) mu (1-mu) + m(m-1)(m-2) c_1 = {v.float_value:.6f}")
print(f"  with mu = {float(mu):.6f} and c_1 = {float(c1):.6f} (both exact rationals)")
