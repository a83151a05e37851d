"""Strong law along a single growing realization.

One fixed stream of uniform draws from {1..n}; as the sample grows, the
count of coprime r-subsets divided by its expectation converges to 1
almost surely.  The whole trajectory reuses earlier values, so this is
one realization, not an average over replicates.
"""

from gcdstats import build_table, montecarlo

n, r = 100, 2
table = build_table(n)
grid = (10, 30, 100, 300, 1000, 3000, 10_000)

for seed in (1, 2, 3):
    ratios = montecarlo.strong_law_trajectory(n, r, grid, seed, table)
    path = "  ".join(f"{v:.4f}" for v in ratios)
    print(f"seed {seed}:  C/(E C) at m = {grid}")
    print(f"         {path}")
print()
print("each row is one realization; all approach 1 as m grows")
