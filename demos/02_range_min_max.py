"""Sparse-table range minimum/maximum queries, plain and with grouped dimensions.

Min and max have no inverse, so the prefix-cube trick does not apply; instead
a sparse table stores the answer for every anchor and power-of-two block
shape, and any box is covered by 2**d overlapping blocks.
"""

import random

from rangecube import MAX, MIN, QueryBox, brute_force_range, make_cube
from rangecube.rmq import DimensionGrouping, SparseTable, constrained_boxes

rng = random.Random(11)

# -- unconstrained 2-D RMQ ---------------------------------------------------

rows, cols = 8, 10
latency = make_cube([rows, cols], [rng.randint(1, 999) for _ in range(rows * cols)])
tmin = SparseTable(latency, mode="min")
tmax = SparseTable(latency, mode="max")

box = QueryBox([2, 1], [6, 8])
lo = tmin.query(box)
hi = tmax.query(box)
print(f"latencies in rows 2..6, cols 1..8: min={lo} max={hi} "
      f"({tmin.lookups_last_query} lookups each)")
assert lo == brute_force_range(latency, box, MIN)
assert hi == brute_force_range(latency, box, MAX)

# Many boxes at once: boxes are grouped by block level, one gather per corner.
rowwise = [QueryBox([r, 0], [r, cols - 1]) for r in range(rows)]
fastest = tmin.query_many([b.lo for b in rowwise], [b.hi for b in rowwise]).tolist()
assert fastest == [tmin.query(b) for b in rowwise]
print(f"fastest latency of each row: {fastest}")

# -- grouped dimensions ------------------------------------------------------
# Queries whose side lengths are tied together need far less table memory.
# Here dimension 1's query length is always twice dimension 0's: one group,
# base dimension 0, stretch factor 2 on dimension 1.

grouping = DimensionGrouping(group_of=[0, 0], base_dim=[0], stretch=[1, 2])
grid = make_cube([8, 16], [rng.randint(0, 99) for _ in range(128)])
table = SparseTable(grid, grouping)

count = 0
for box in constrained_boxes(grid.dims, grouping):
    assert table.query(box) == brute_force_range(grid, box, MIN)
    count += 1
print(f"grouped table answers all {count} constrained boxes correctly")

# Boxes violating the shape constraint are rejected rather than rounded.
try:
    table.query(QueryBox([0, 0], [1, 1]))  # lengths (2, 2), constraint wants (2, 4)
except ValueError as exc:
    print(f"unconstrained box rejected: {exc}")
