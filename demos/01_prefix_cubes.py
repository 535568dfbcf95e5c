"""Prefix cubes: constant-time box aggregates over a static data cube.

A retailer records units sold by (region, month) in a dense 2-D cube.  After
one pass of preprocessing, the total over any rectangular slice costs four
table lookups, however large the slice.
"""

import random

import numpy as np

from rangecube import (
    PrefixCube,
    QueryBox,
    SUM,
    XOR,
    brute_force_range,
    make_cube,
)

rng = random.Random(7)

regions, months = 6, 12
sales = make_cube(
    [regions, months],
    [rng.randint(0, 500) for _ in range(regions * months)],
)
print(f"cube: {regions} regions x {months} months, {sales.size} cells")

pc = PrefixCube(sales, SUM)

# Q2 sales of regions 1-3: one inclusion-exclusion query instead of a scan.
box = QueryBox([1, 3], [3, 5])
total = pc.range_aggregate(box)
print(f"regions 1..3, months 3..5 -> {total} units "
      f"({pc.lookups_last_query} prefix lookups)")

# The cell-by-cell scan agrees, it just visits every cell in the box.
assert total == brute_force_range(sales, box, SUM)
print("matches the brute-force scan, cell for cell")

# Many boxes at once: one gather per corner answers every row of lo/hi.
quarters = [QueryBox([0, q], [regions - 1, q + 2]) for q in range(0, months, 3)]
lo = np.array([b.lo for b in quarters])
hi = np.array([b.hi for b in quarters])
totals = pc.range_aggregate_many(lo, hi).tolist()
assert totals == [pc.range_aggregate(b) for b in quarters]
print(f"all regions, quarter by quarter -> {totals}")

# Any invertible operator works the same way; xor is its own inverse.
tags = make_cube([4, 4], [rng.getrandbits(16) for _ in range(16)])
xc = PrefixCube(tags, XOR)
box = QueryBox([0, 2], [3, 3])
assert xc.range_aggregate(box) == brute_force_range(tags, box, XOR)
print(f"xor over a 4x2 slice of checksums -> {xc.range_aggregate(box)}")

# Every box over a 3-D cube still costs exactly 2**3 lookups.
cube3 = make_cube([5, 5, 5], [rng.randint(-9, 9) for _ in range(125)])
pc3 = PrefixCube(cube3, SUM)
pc3.range_aggregate(QueryBox([1, 0, 2], [4, 3, 4]))
print(f"3-D query -> {pc3.lookups_last_query} lookups (2^3)")
