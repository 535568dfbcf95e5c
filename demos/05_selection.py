"""Range selection: order statistics over an implicit grid of combined arrays.

Each of d sorted arrays scores one attribute; a candidate picks one entry per
array and its weight is the sum (or product, or max) of the picks.  The n^d
candidates are never materialised: the k-th smallest weight comes out of a
binary search on the weight value with a counting test.
"""

import random

from rangecube.selection import (
    SortedWeightArrays,
    aggregate_k_smallest,
    all_weights,
    build_split,
    choose_split_q,
    count_leq,
    kth_smallest,
)

rng = random.Random(19)

arrays = SortedWeightArrays(
    [sorted(rng.randint(0, 30) for _ in range(8)) for _ in range(3)], "sum"
)
print(f"3 sorted arrays of 8 entries: {arrays.grid_size} implicit candidates")

k = 100
value = kth_smallest(arrays, k)
print(f"100th smallest combined score = {value}")
assert value == all_weights(arrays)[k - 1]  # the sort-everything oracle agrees

print(f"candidates scoring <= {value}: {count_leq(arrays, value)}")

# Spending O(n^q) memory on the first q arrays makes each counting test a
# single binary search per remaining combination.
q = choose_split_q(arrays)
split = build_split(arrays, q)
print(f"with a q={q} split ({len(split.left)} stored sums): "
      f"{kth_smallest(arrays, k, split=split)} (same answer)")

total = aggregate_k_smallest(arrays, "sum", k)
assert total == sum(all_weights(arrays)[:k])
print(f"sum of the 100 smallest scores = {total}")

# Real-valued weights converge to any requested precision.
floats = SortedWeightArrays(
    [sorted(rng.uniform(0.5, 2.0) for _ in range(6)) for _ in range(2)], "product"
)
approx = kth_smallest(floats, 18, eps=1e-9)
exact = all_weights(floats)[17]
print(f"18th smallest product: {approx:.9f} (true {exact:.9f}, eps 1e-9)")
