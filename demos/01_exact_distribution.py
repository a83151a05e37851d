"""Exact distribution of the gcd of random tuples, at finite n.

For X_1..X_r uniform on {1..n}, every probability and moment of
gcd(X_1..X_r) has a closed form: a Mobius-weighted sum of floor powers,
exact as a rational number.  This demo evaluates a few of them and shows
the drift toward the classical limits (P(coprime pair) -> 1/zeta(2),
P(gcd = k) -> 1/(zeta(2) k^2)).
"""

from gcdstats import constants, exact

n = 50_000
z2 = constants.zeta(2)

print(f"sample space {{1..{n}}}, pairs (r = 2)")
print()

# the pmf comes as (value, count) runs over the blocks of equal floor(n/k)
runs = exact.gcd_pmf(n, 2)
pmf = [v for v, count in runs for _ in range(count)]
print("  k   P(gcd = k)        1/(zeta(2) k^2)")
for k in range(1, 9):
    limit = 1 / (z2 * k * k)
    print(f"  {k}   {pmf[k - 1].float_value:.10f}    {limit:.10f}")
print(f"  pmf sums to {sum(v.as_fraction() * count for v, count in runs)} exactly")
print()

coprime = exact.mean_mu(n, 1)
print(f"P(coprime pair)        = {coprime.float_value:.10f}")
print(f"  numerator             {coprime.numerator}")
print(f"  denominator           {n}^{coprime.denom_power}")
print(f"  1/zeta(2)            = {1 / z2:.10f}")
print()

mean = exact.mean_nu(n, 1)
import math
print(f"E gcd(pair)            = {mean.float_value:.6f}")
print(f"  (1/zeta(2)) ln(n)    = {math.log(n) / z2:.6f}   (same order)")
print()

second = exact.gcd_moment(n, 2, 2)
target = (2 * z2 / constants.zeta(3) - 1) / 3
print(f"E gcd(pair)^2 / n      = {second.float_value / n:.6f}")
print(f"  limit (1/3)(2 zeta(2)/zeta(3) - 1) = {target:.6f}")
print()

print("marginal profile U_1(k) = P(gcd(X, k) = 1), small k:")
# a profile sieves its weight (mu here) to n; the moments above sieve none to n
prof = exact.marginal_profile(1000, 1)
phi = exact.sieve_weight(1000, 1)
for k in (2, 6, 12, 30):
    print(f"  k={k:3d}  U={prof.value(k).float_value:.6f}   phi(k)/k={int(phi[k]) / k:.6f}")
worst, at_k = exact.marginal_error_bound_check(prof)
print(f"  worst deviation-to-bound ratio over k <= 1000: {worst:.4f} (at k={at_k})")
