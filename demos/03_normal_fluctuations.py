"""Asymptotic normality of the coprime-pair counter and the gcd sum.

C counts coprime pairs among all C(m,2) pairs of a random sample; Z sums
the pair gcds.  Both are sums of many weakly dependent terms and become
normal as m grows; the exact mean and variance used for normalization
come from the closed formulas, not from the sample.
"""

import numpy as np

from gcdstats import build_table, exact, montecarlo, stattest

normal = stattest.ReferenceLaw.normal()

for statistic, m, n, note in (
    ("C", 1000, 1000, "any n >= 2 works for C"),
    ("Z", 2000, 40, "Z needs n ~ m^beta with beta < 1/2"),
):
    table = build_table(n)
    cfg = montecarlo.SampleConfig(m=m, n=n, replicates=1000, master_seed=7)
    # C and Z are normalised by their exact mean (shift) and sd (scale)
    rec = montecarlo.run_replicates(cfg, statistic, table)
    ks = stattest.ks_distance(rec.normalized, normal)
    print(f"{statistic} at m={m}, n={n}   ({note})")
    print(f"  exact mean {rec.shift:.3f}, exact sd {rec.scale:.3f}")
    values = np.sort(rec.normalized)
    print(f"  normalized replicate mean {np.mean(values):+.4f}, "
          f"sd {np.std(values):.4f}")
    print(f"  KS distance to the standard normal: {ks:.4f}")
    hist, edges = np.histogram(values, bins=np.arange(-3.0, 3.5, 0.5))
    bars = " ".join(f"{c:3d}" for c in hist)
    print(f"  counts in half-unit bins from -3 to 3:  {bars}")
    print()

print("the variance formula behind the normalization, at (n=100, m=20):")
table = build_table(100)
v = exact.var_C(table, 100, 20, 2)
mu = exact.mean_mu(table, 100, 1).as_fraction()
c1 = exact.var_c(table, 100, 1).as_fraction()
print(f"  var C = C(m,2) mu (1-mu) + m(m-1)(m-2) c_1 = {v.float_value:.6f}")
print(f"  with mu = {float(mu):.6f} and c_1 = {float(c1):.6f} (both exact rationals)")
