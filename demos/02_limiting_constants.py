"""The limiting constants, evaluated as accelerated Euler products.

Each constant is an infinite product over primes; factoring known zeta
powers out analytically leaves fast-converging corrected factors, so a
cutoff of 1e6 gives 12+ digits with explicit error bars.
"""

from gcdstats import constants

cutoff = 1_000_000
z2 = constants.zeta(2)

print("zeta values (Euler-Maclaurin):")
for t in (2, 3, 4):
    print(f"  zeta({t}) = {constants.zeta(t):.12f}")
print()

d = constants.delta(cutoff)
dt = constants.delta_toth(cutoff)
print(f"delta       = {d.value:.10f}  (+- {d.tail_bound:.1e})")
print(f"delta_toth  = {dt.value:.10f}  (+- {dt.tail_bound:.1e})")
print(f"delta_toth - 2 delta = {dt.value - 2 * d.value:.2e}   (identity: exactly 2x)")
print()

print("pairwise-coprimality limits T_m (T_2 = 1/zeta(2)):")
for m in range(2, 7):
    tm = constants.pairwise_coprime_T(m, cutoff)
    print(f"  T_{m} = {tm.value:.10f}")
print(f"  1/zeta(2) = {1 / z2:.10f}")
print()

print("Schur constants S_l^(s) = lim (1/n) sum (phi_s(k)/k^s)^l:")
for s in (1, 2):
    for l in (1, 2):
        sc = constants.schur_constant(s, l, cutoff)
        print(f"  S_{l}^({s}) = {sc.value:.12f}")
print(f"  S_1^(1) equals 1/zeta(2); S_2 exceeds S_1^2 strictly")
print()

print("totient-gcd double series M(t), two product forms:")
for t in (1.5, 2.0, 3.0):
    a, b = constants.m_product_forms(t, cutoff)
    print(f"  M({t}) = {a:.12f}   (forms differ by {abs(a - b):.1e})")
print()

print("limiting variances of the marginal profiles:")
for r in (1, 2, 3):
    print(f"  lim c_{r} = {constants.limit_var_c(r, cutoff):.10f}")
for r in (2, 3):
    print(f"  lim d_{r} = {constants.limit_var_d(r, cutoff):.10f}")
print("  (d_1 has no limit: it grows like delta_toth ln(n)^3)")
print()

print("slow divergence, ratio to ln(N)^3:")
grid = (1000, 100_000, 1_000_000)
for kind, label, target in (("corollary22", "sum over i*j<=N  -> delta", d.value),
                            ("toth", "sum over lcm<=N  -> delta_toth", dt.value),
                            ("pillai_sq", "(1/N) sum (P(k)/k)^2 -> delta_toth", dt.value)):
    ratios = constants.tauberian_trend(kind, grid)
    path = "  ".join(f"{v:.5f}" for v in ratios)
    print(f"  {label}: {path}  (target {target:.5f}; O(1/ln N) convergence)")
