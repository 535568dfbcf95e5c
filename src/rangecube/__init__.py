"""Multidimensional range-query structures over dense data cubes.

The package provides:

* static range aggregation with prefix cubes (:mod:`rangecube.cube`),
* static range min/max with grouped-dimension sparse tables (:mod:`rangecube.rmq`),
* dynamic invertible aggregates: multidimensional Fenwick trees and a tunable
  two-level block-partition structure (:mod:`rangecube.dynamic`),
* interval K-medians and range weighted medians (:mod:`rangecube.medians`),
* k-th smallest / aggregate-of-k-smallest selection over implicit grids built
  from sorted arrays (:mod:`rangecube.selection`),
* text formats and a command-line front end (:mod:`rangecube.formats`,
  :mod:`rangecube.cli`).

Every structure is paired with a brute-force reference path used by the test
suite and by the CLI's ``--oracle`` mode.
"""

from .cube import (
    MAX_DIMENSIONS,
    AggregateOp,
    DataCube,
    MAX,
    MIN,
    OPS,
    PRODUCT,
    PrefixCube,
    QueryBox,
    SUM,
    XOR,
    brute_force_range,
    float_sum_error_bound,
    make_cube,
)
from .dynamic import FenwickCube, HybridCube
from .formats import dump_cube_text, load_cube, parse_cube_text, save_cube
from .medians import (
    CubeMedianIndex,
    MedianIndex,
    WeightedPoints1D,
    brute_force_median,
    cube_range_weighted_median,
    hyperrect_1_median,
    interval_1_median,
    interval_k_median,
    interval_k_median_naive,
    range_weighted_median,
)
from .rmq import DimensionGrouping, SparseTable, grouped_base_case
from .selection import (
    SelectionSplit,
    SortedWeightArrays,
    aggregate_k_smallest,
    all_weights,
    build_split,
    count_leq,
    kth_smallest,
)

__version__ = "0.1.0"
