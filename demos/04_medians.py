"""Weighted medians: interval placement and range median queries.

Two related problems: place K service windows (intervals of fixed length) on a
line of weighted demand points so total travel distance is minimal, and answer
"where is the weighted median of this subrange?" repeatedly in O(log n).
"""

import random

from rangecube import QueryBox, make_cube
from rangecube.medians import (
    CubeMedianIndex,
    MedianIndex,
    WeightedPoints1D,
    cube_range_weighted_median,
    hyperrect_1_median,
    interval_1_median,
    interval_k_median,
    range_weighted_median,
)

rng = random.Random(17)

# -- interval K-median -------------------------------------------------------
# Demand at km marks along a road; weights are households.

xs = sorted(rng.randint(0, 100) for _ in range(12))
ws = [rng.randint(1, 9) for _ in range(12)]
pts = WeightedPoints1D(xs, ws)
print(f"demand points: {list(zip(xs, ws))}")

for count in (1, 2, 3):
    res = interval_k_median(pts, count, 10)
    spans = ", ".join(f"[{a}, {b}]" for a, b in res.intervals)
    print(f"{count} window(s) of length 10 -> cost {res.cost}: {spans}")

one = interval_1_median(pts, 0)
print(f"classic weighted median sits at x={one.right_endpoint} (cost {one.cost})")

# The d-dimensional rectangle version decomposes per dimension.
sites = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(8)]
weights = [rng.randint(1, 5) for _ in range(8)]
rect = hyperrect_1_median(sites, weights, (10, 6))
print(f"best 10x6 rectangle has lower corner {rect.corner}, cost {rect.cost}")

# -- range weighted median queries -------------------------------------------

idx = MedianIndex(pts)
r, cost = range_weighted_median(idx, 3, 9)
print(f"\nmedian of points 3..9 is index {r} (x={xs[r]}), cost {cost}, "
      f"{idx.probes_last_query} probes")

# The same query over a weighted cube: prefix-sum cubes give slab weights.
dims = [5, 5]
grid = make_cube(dims, [rng.randint(0, 9) for _ in range(25)])
scales = [sorted(rng.sample(range(100), 5)) for _ in dims]
cidx = CubeMedianIndex(grid, scales)
res = cube_range_weighted_median(cidx, QueryBox([1, 0], [4, 3]))
print(f"cube median of box (1..4)x(0..3) sits at {res.location}, cost {res.cost}")
