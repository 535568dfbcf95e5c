"""Weighted medians on a line and over data cubes.

Three families of operations:

* **Interval K-median**: place at most K intervals of fixed length L on a line
  so the total weighted distance from n points to their nearest interval is
  minimal (distance is 0 inside an interval, else distance to the nearer
  endpoint).  Augmenting the input with a zero-weight point at ``x + L`` per
  original point makes some augmented coordinate the right endpoint of every
  interval in an optimal solution, and a two-state DP over the 2n points
  solves the problem; two monotone convex hulls of lines, each read from a
  head that only moves right, bring it to O(nK).  The unoptimised O(n^2 K)
  evaluation of the same recurrences is kept as
  :func:`interval_k_median_naive` for differential testing.
* **Hyper-rectangle 1-median**: the d-dimensional axis-aligned variant under
  the L1 metric decomposes into d independent 1-dimensional problems.
* **Range weighted median**: with O(n) prefix sums over weights and
  weight-coordinate products, the cost of placing a median at any position in
  a query range is a constant-time expression and the optimal position is
  found by binary search on the left/right weight balance, in 1D directly and
  over a data cube through prefix-sum cubes of the weight cube and of the d
  coordinate-scaled cubes, checked against :func:`brute_force_median`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .cube import (
    SUM,
    _EPS,
    _FLOAT_MAX,
    _INT64_MAX,
    _INT64_MIN,
    DataCube,
    QueryBox,
    _EVEN,
    _check_fold,
    _check_sum_bound,
    _corner_offsets,
    _fold_corners,
    _interior,
    _padded_prefix_table,
    _padded_strides,
    _round_once,
)

__all__ = [
    "WeightedPoints1D",
    "AugmentedPoints",
    "MedianIndex",
    "CubeMedianIndex",
    "Interval1MedianResult",
    "IntervalKMedianResult",
    "HyperrectMedianResult",
    "CubeMedianResult",
    "augment_points",
    "interval_k_median",
    "interval_k_median_naive",
    "interval_1_median",
    "hyperrect_1_median",
    "range_weighted_median",
    "cube_range_weighted_median",
    "brute_force_median",
]

_INF = math.inf


class _Result:
    """Base of the frozen, slotted result records: no per-answer ``__dict__``."""

    __slots__ = ()

    def __reduce__(self):
        # pickle and copy rebuild through __init__; on Python 3.10 a frozen
        # slotted dataclass's slots cannot be restored by plain setattr.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class WeightedPoints1D:
    """Points on a line, sorted by coordinate, with nonnegative weights."""

    xs: tuple
    ws: tuple

    def __init__(self, xs: Sequence, ws: Sequence):
        xs = tuple(xs)
        ws = tuple(ws)
        if not xs:
            raise ValueError("empty point set")
        if len(xs) != len(ws):
            raise ValueError("coordinates and weights must have equal length")
        if any(a > b for a, b in zip(xs, xs[1:])):
            raise ValueError("coordinates must be sorted ascending")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class AugmentedPoints:
    """The 2n points used by the interval solvers.

    For every original point a zero-weight twin is added at ``x + L``; an
    interval whose right endpoint sits on a twin has its left endpoint on the
    original.  ``added_from[i]`` is None for originals and the original point's
    index for twins.  ``pleft[i]`` is the smallest index p with
    ``xs[i] - xs[p] <= L``, i.e. the first point inside an interval ending at
    ``xs[i]``.
    """

    xs: tuple
    ws: tuple
    added_from: tuple
    pleft: tuple


def augment_points(pts: WeightedPoints1D, length) -> AugmentedPoints:
    if length < 0:
        raise ValueError(f"interval length must be >= 0, got {length}")
    originals, weights = pts.xs, pts.ws
    n = len(originals)
    twins = [x + length for x in originals]
    xs, ws, added_from = [], [], []
    # Merge the two sorted runs, an original before a twin at equal x.  Twin
    # k is at or right of original k, so the originals run out first.
    i = k = 0
    while i < n:
        if originals[i] <= twins[k]:
            xs.append(originals[i])
            ws.append(weights[i])
            added_from.append(None)
            i += 1
        else:
            xs.append(twins[k])
            ws.append(0)
            added_from.append(k)
            k += 1
    xs += twins[k:]
    ws += [0] * (n - k)
    added_from += range(k, n)
    pleft = []
    p = 0
    for x in xs:
        while x - xs[p] > length:
            p += 1
        pleft.append(p)
    return AugmentedPoints(tuple(xs), tuple(ws), tuple(added_from), tuple(pleft))


@dataclass(frozen=True, slots=True)
class IntervalKMedianResult(_Result):
    cost: object
    intervals: tuple
    deque_pushes: int
    deque_pops: int


def interval_k_median(pts: WeightedPoints1D, count: int, length) -> IntervalKMedianResult:
    """Optimal placement of at most ``count`` length-``length`` intervals.

    Returns the minimum total weighted point-to-interval distance together
    with a witness placement achieving it.  Runs the hull-optimised DP over
    the 2n augmented points in O(nK); hull traffic (lines pushed and popped)
    is reported in the result for complexity assertions.
    """
    if count < 1:
        raise ValueError(f"interval count must be >= 1, got {count}")
    aug = augment_points(pts, length)
    xs, ws, pleft = aug.xs, aug.ws, aug.pleft
    n2 = len(xs)
    wsum = list(itertools.accumulate(ws, initial=0))          # wsum[i] = w(1..i)
    wxsum = list(itertools.accumulate((w * x for w, x in zip(ws, xs)), initial=0))
    x1 = [None] + list(xs)                                    # 1-based coordinates

    # Two lower envelopes of lines with nonincreasing slopes, queried left to
    # right: lines head..top-1 of parallel slope/intercept/tag lists.  Left
    # holds candidates p for a new interval's left side, right candidates p
    # charging points rightwards.  Comparisons use cross-multiplication only,
    # so integer inputs stay exact.  No layer pushes more than n2 lines.
    lm, lb, lt = [0] * n2, [0] * n2, [0] * n2
    rm, rb, rt = [0] * n2, [0] * n2, [0] * n2
    d1_prev = [0] + [_INF] * n2                               # zero intervals placed
    best_cost = None
    best_j = None
    par0 = [[0] * (n2 + 1) for _ in range(count + 1)]
    par1 = [[0] * (n2 + 1) for _ in range(count + 1)]
    pushes = pops = 0
    for j in range(1, count + 1):
        d0 = [0] + [_INF] * n2
        d1 = [0] + [_INF] * n2
        p0, p1 = par0[j], par1[j]
        lhead = ltop = rhead = rtop = 0
        inserted = 0
        for i in range(1, n2 + 1):
            pl = pleft[i - 1] + 1                             # 1-based pleft
            while inserted < pl:
                p = inserted
                inserted += 1
                if d1_prev[p] == _INF:                        # infinite costs make no line
                    continue
                slope, intercept = -wsum[p], d1_prev[p] + wxsum[p]
                if ltop > lhead and lm[ltop - 1] == slope:
                    if lb[ltop - 1] <= intercept:
                        continue
                    ltop -= 1
                    pops += 1
                while ltop - lhead >= 2:
                    m1, b1 = lm[ltop - 2], lb[ltop - 2]
                    # the middle line never wins once the new one takes over
                    if (intercept - b1) * (m1 - lm[ltop - 1]) <= (lb[ltop - 1] - b1) * (m1 - slope):
                        ltop -= 1
                        pops += 1
                    else:
                        break
                lm[ltop], lb[ltop], lt[ltop] = slope, intercept, p
                ltop += 1
                pushes += 1
            if ltop > lhead:
                t = x1[i] - length
                while ltop - lhead >= 2 and lm[lhead + 1] * t + lb[lhead + 1] <= lm[lhead] * t + lb[lhead]:
                    lhead += 1
                    pops += 1
                d0[i] = lm[lhead] * t + lb[lhead] + t * wsum[pl - 1] - wxsum[pl - 1]
                p0[i] = lt[lhead]
            if d0[i] != _INF:
                slope, intercept = -x1[i], d0[i] - wxsum[i] + x1[i] * wsum[i]
                push = True
                if rtop > rhead and rm[rtop - 1] == slope:
                    if rb[rtop - 1] <= intercept:
                        push = False
                    else:
                        rtop -= 1
                        pops += 1
                while push and rtop - rhead >= 2:
                    m1, b1 = rm[rtop - 2], rb[rtop - 2]
                    if (intercept - b1) * (m1 - rm[rtop - 1]) <= (rb[rtop - 1] - b1) * (m1 - slope):
                        rtop -= 1
                        pops += 1
                    else:
                        break
                if push:
                    rm[rtop], rb[rtop], rt[rtop] = slope, intercept, i
                    rtop += 1
                    pushes += 1
            if rtop > rhead:
                t = wsum[i]
                while rtop - rhead >= 2 and rm[rhead + 1] * t + rb[rhead + 1] <= rm[rhead] * t + rb[rhead]:
                    rhead += 1
                    pops += 1
                d1[i] = rm[rhead] * t + rb[rhead] + wxsum[i]
                p1[i] = rt[rhead]
        if best_cost is None or d1[n2] < best_cost:
            best_cost = d1[n2]
            best_j = j
        d1_prev = d1

    assert best_cost != _INF
    intervals = []
    i, j = n2, best_j
    while i > 0:
        p = par1[j][i]
        intervals.append((x1[p] - length, x1[p]))
        i = par0[j][p]
        j -= 1
    intervals.reverse()
    return IntervalKMedianResult(best_cost, tuple(intervals), pushes, pops)


def interval_k_median_naive(pts: WeightedPoints1D, count: int, length):
    """Reference O(n^2 K) evaluation of the same two-state recurrences.

    Candidate minima are evaluated directly over every predecessor instead of
    through the hull envelope; used as the differential oracle for
    :func:`interval_k_median`.
    """
    if count < 1:
        raise ValueError(f"interval count must be >= 1, got {count}")
    aug = augment_points(pts, length)
    n2 = len(aug.xs)
    xs = np.array((0,) + aug.xs, dtype=np.float64)
    ws = np.array((0,) + aug.ws, dtype=np.float64)
    wsum = np.cumsum(ws)
    wxsum = np.cumsum(ws * xs)
    pl = np.array([0] + [p + 1 for p in aug.pleft])

    d1_prev = np.full(n2 + 1, np.inf)
    d1_prev[0] = 0.0
    best = np.inf
    for _ in range(count):
        d0 = np.full(n2 + 1, np.inf)
        d0[0] = 0.0
        for i in range(1, n2 + 1):
            p = pl[i]
            t = xs[i] - length
            cand = d1_prev[:p] + t * (wsum[p - 1] - wsum[:p]) - (wxsum[p - 1] - wxsum[:p])
            d0[i] = cand.min()
        d1 = np.full(n2 + 1, np.inf)
        d1[0] = 0.0
        for i in range(1, n2 + 1):
            cand = (
                d0[1 : i + 1]
                + (wxsum[i] - wxsum[1 : i + 1])
                - xs[1 : i + 1] * (wsum[i] - wsum[1 : i + 1])
            )
            d1[i] = cand.min()
        best = min(best, d1[n2])
        d1_prev = d1
    return best


@dataclass(frozen=True, slots=True)
class Interval1MedianResult(_Result):
    cost: object
    right_endpoint: object
    #: Minimum over endpoint positions of max(left cost, right cost);
    #: only produced for length 0.
    minimax_split_cost: Optional[object]


def interval_1_median(pts: WeightedPoints1D, length) -> Interval1MedianResult:
    """Single-interval median via one left-to-right sweep over 2n points.

    The interval's right endpoint slides across every augmented coordinate
    while the sweep maintains the total weight and weighted distance of the
    points on each side.
    """
    aug = augment_points(pts, length)
    xs, ws, added_from = aug.xs, aug.ws, aug.added_from
    orig_ws = pts.ws
    n2 = len(xs)

    w_right = sum(ws[1:])
    wd_right = sum(w * (x - xs[0]) for x, w in zip(xs[1:], ws[1:]))
    w_left = 0
    wd_left = 0
    wdm = wd_right
    wdc = wd_right
    best_x = xs[0]
    for i in range(1, n2):
        dx = xs[i] - xs[i - 1]
        wd_right -= w_right * dx
        w_right -= ws[i]
        wd_left += w_left * dx
        if added_from[i] is not None:
            w_left += orig_ws[added_from[i]]
        total = wd_right + wd_left
        if total < wdm:
            wdm = total
            best_x = xs[i]
        split = max(wd_right, wd_left)
        if split < wdc:
            wdc = split
    return Interval1MedianResult(wdm, best_x, wdc if length == 0 else None)


@dataclass(frozen=True, slots=True)
class HyperrectMedianResult(_Result):
    corner: tuple
    cost: object
    per_dimension: tuple


def hyperrect_1_median(points, weights, lengths) -> HyperrectMedianResult:
    """Axis-aligned hyper-rectangle minimising total L1 distance to the points.

    Decomposes into one interval 1-median per dimension; the returned corner
    is the rectangle's lower corner and the cost the sum of the per-dimension
    costs.
    """
    points = [tuple(p) for p in points]
    weights = list(weights)
    lengths = tuple(lengths)
    if not points:
        raise ValueError("empty point set")
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    ndim = len(points[0])
    if any(len(p) != ndim for p in points):
        raise ValueError("points must share one dimensionality")
    if len(lengths) != ndim:
        raise ValueError(
            f"{len(lengths)} side lengths given for {ndim}-dimensional points"
        )
    corner = []
    costs = []
    for j, side in enumerate(lengths):
        pairs = sorted((p[j], w) for p, w in zip(points, weights))
        pts_j = WeightedPoints1D([x for x, _ in pairs], [w for _, w in pairs])
        res = interval_1_median(pts_j, side)
        corner.append(res.right_endpoint - side)
        costs.append(res.cost)
    return HyperrectMedianResult(tuple(corner), sum(costs), tuple(costs))


class MedianIndex:
    """O(1) weight-balance and one-sided cost queries after an O(n) build.

    ``wsum(i, p)`` is the total weight on positions ``[i, p]``; ``wsum_lr``
    the total weighted distance from those points to position p, ``wsum_rl``
    to position i.  Each call counts as one probe in
    :attr:`probes_last_query`.
    """

    def __init__(self, pts: WeightedPoints1D):
        self.points = pts
        self.wpsum = list(itertools.accumulate(pts.ws, initial=0))
        self.wdpsum = list(
            itertools.accumulate((w * x for w, x in zip(pts.ws, pts.xs)), initial=0)
        )
        self.probes_last_query = 0

    def __len__(self) -> int:
        return len(self.points)

    def _check(self, i: int, p: int):
        if not 0 <= i <= p < len(self.points):
            raise IndexError(f"invalid position range [{i}, {p}]")

    def _wsum_raw(self, i: int, p: int):
        self.probes_last_query += 1
        if i > p:
            return 0
        return self.wpsum[p + 1] - self.wpsum[i]

    def wsum(self, i: int, p: int):
        self._check(i, p)
        return self._wsum_raw(i, p)

    def wsum_lr(self, i: int, p: int):
        self._check(i, p)
        self.probes_last_query += 1
        w = self.wpsum[p + 1] - self.wpsum[i]
        return w * self.points.xs[p] - (self.wdpsum[p + 1] - self.wdpsum[i])

    def wsum_rl(self, i: int, p: int):
        self._check(i, p)
        self.probes_last_query += 1
        w = self.wpsum[p + 1] - self.wpsum[i]
        return (self.wdpsum[p + 1] - self.wdpsum[i]) - w * self.points.xs[i]


def _median_search(i, j, right_minus_left, cost):
    """Largest r in [i, j] keeping more weight right of r than left, then the
    cheaper of r and r+1 (ties to the smaller index)."""
    lo, hi = i, j
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if right_minus_left(mid) > 0:
            lo = mid
        else:
            hi = mid - 1
    best = lo
    best_cost = cost(lo)
    if lo + 1 <= j:
        other = cost(lo + 1)
        if other < best_cost:
            best, best_cost = lo + 1, other
    return best, best_cost


def range_weighted_median(idx: MedianIndex, i: int, j: int):
    """Optimal median position in ``[i, j]`` and its total weighted distance.

    Uses O(log n) probes (binary search on the weight balance plus two cost
    evaluations); cost equals the brute-force minimum over all positions.
    """
    idx._check(i, j)
    idx.probes_last_query = 0

    def balance(r):
        return idx._wsum_raw(r + 1, j) - idx._wsum_raw(i, r - 1)

    def cost(r):
        return idx.wsum_lr(i, r) + idx.wsum_rl(r, j)

    return _median_search(i, j, balance, cost)


def _exact_costs(cube: DataCube, scales: Sequence[Sequence]) -> bool:
    """Whether median costs are summed exactly in ints: an int cube, int scales."""
    return cube.kind == "int" and all(isinstance(x, (int, np.integer)) for s in scales for x in s)


class CubeMedianIndex:
    """Prefix-sum cubes answering range weighted median queries over a cube.

    The weight cube's prefix sums give slab weights; one additional prefix-sum
    cube per dimension, built over the coordinate-scaled cube
    ``scale[j][c_j] * weight(c)``, gives the weighted-distance sums.  Each
    slab sum the search asks for counts as one RangeSum probe in
    :attr:`rangesum_probes_last_query`; it reads ``2**(d-1)`` prefix entries.

    Int weights with int scales are summed exactly in int64; the build
    rejects them with a ``ValueError`` once peak weight * cell count * peak
    |scale| reaches ``2**62``, so no table can wrap, or once a scale leaves
    int64.  Scales must be finite floats (an int past the float range is
    rejected too); a float table whose sum overflowed is reported when a
    query reads it.  A float cost is within :attr:`cost_error_bound` of the
    exact one.
    """

    def __init__(self, cube: DataCube, scales: Sequence[Sequence]):
        if np.any(cube.values < 0):
            raise ValueError("cube weights must be nonnegative")
        scales = [tuple(s) for s in scales]
        if len(scales) != cube.ndim:
            raise ValueError(f"expected {cube.ndim} scale lists, got {len(scales)}")
        for j, (scale, m) in enumerate(zip(scales, cube.dims)):
            if len(scale) != m:
                raise ValueError(
                    f"scale list {j} has {len(scale)} entries for extent {m}"
                )
            # NaN would pass the sortedness test below, and an int past the
            # float range would overflow the float tables' conversion.
            bad = [x for x in scale if not abs(x) <= _FLOAT_MAX]
            if bad:
                shown = "an int past the float range" if isinstance(bad[0], int) else bad[0]
                raise ValueError(f"scale list {j} holds {shown}; scales must be finite")
            if any(a > b for a, b in zip(scale, scale[1:])):
                raise ValueError(f"scale list {j} is not sorted ascending")
        self.cube = cube
        self.scales = scales
        self.dims = cube.dims
        exact = _exact_costs(cube, scales)
        if exact:
            # Python ints, so a scale past int64 is measured, not converted;
            # each list is sorted, so its peak |scale| sits at an end.
            peak_scale = max(abs(int(x)) for scale in scales for x in (scale[0], scale[-1]))
            _check_sum_bound(
                int(cube.values.max()) * max(peak_scale, 1),
                cube.size,
                "overflow risk: peak weight * cell count * peak |scale| must stay "
                "below 2**62 for int medians",
            )
            # An all-zero cube passes the bound with any scale, but its
            # scales are still converted to int64.
            for j, scale in enumerate(scales):
                if not _INT64_MIN <= scale[0] <= scale[-1] <= _INT64_MAX:
                    raise ValueError(f"scale list {j} holds an int past int64")
        dtype = np.int64 if exact else np.float64
        # Each table has one identity plane per axis; ps_cube and psd_cubes
        # are their interiors.
        self._weights = _padded_prefix_table(SUM, cube.values, dtype)
        self._scaled = []
        for j, scale in enumerate(scales):
            shape = [1] * cube.ndim
            shape[j] = cube.dims[j]
            factor = np.array(scale, dtype=dtype).reshape(shape)
            self._scaled.append(_padded_prefix_table(SUM, cube.values, dtype, factor))
        self._strides = _padded_strides(cube.dims)
        self.ps_cube = _interior(self._weights)
        self.psd_cubes = [_interior(t) for t in self._scaled]
        #: 0 when exact, else 64 * cells * eps * W * peak |scale| capped at the
        #: largest float, W the whole cube's weight: costs read whole-cube sums.
        self.cost_error_bound = 0.0
        if not exact:
            peak = max(abs(float(x)) for scale in scales for x in (scale[0], scale[-1]))
            bound = 64 * cube.size * _EPS * self._weights.item(-1) * peak
            # nan (an overflowed W times a zero peak) caps as inf does
            self.cost_error_bound = bound if bound < _FLOAT_MAX else _FLOAT_MAX
        self.rangesum_probes_last_query = 0


@dataclass(frozen=True, slots=True)
class CubeMedianResult(_Result):
    indices: tuple
    location: tuple
    cost: object


def cube_range_weighted_median(idx: CubeMedianIndex, box: QueryBox) -> CubeMedianResult:
    """L1 median of the weighted points inside ``box`` and its total cost.

    Solves one slab-weighted 1D median per dimension in O(d log n) RangeSum
    probes; the box must contain positive weight.  Along dimension j a slab
    ``[i, p]`` sum is ``S(p + 1) - S(i)``, where ``S(x)`` folds the signed
    corners of the other axes at padded index x of axis j.  Those corner
    offsets and the endpoint prefixes ``S(a)``, ``S(b + 1)`` (and their
    scaled twins) are read once per dimension, so each probe reads only the
    prefix that moves.
    """
    box.validate_for(idx.dims)
    lo, hi, strides = box.lo, box.hi, idx._strides
    weights = idx._weights.item
    idx.rangesum_probes_last_query = 1
    if _fold_corners(SUM, map(weights, _corner_offsets(strides, lo, hi))) <= 0:
        raise ValueError("median undefined: query box has no positive weight")
    # A non-finite float probe means a prefix sum overflowed: reject it as
    # the fold check of a box read does.
    check = idx._weights.dtype.kind == "f"
    indices = []
    total_cost = 0
    for j in range(len(idx.dims)):
        a, b, s = lo[j], hi[j], strides[j]
        scale = idx.scales[j]
        scaled = idx._scaled[j].item
        others = [k for k in range(len(idx.dims)) if k != j]
        plus, minus = [], []
        corners = _corner_offsets(
            [strides[k] for k in others], [lo[k] for k in others], [hi[k] for k in others]
        )
        for o, even in zip(corners, _EVEN):
            (plus if even else minus).append(o)

        def moving(item, x):
            base = x * s
            total = 0
            for o in plus:
                total += item(o + base)
            for o in minus:
                total -= item(o + base)
            return total

        s_a, s_b = moving(weights, a), moving(weights, b + 1)
        t_a, t_b = moving(scaled, a), moving(scaled, b + 1)

        def balance(r):
            idx.rangesum_probes_last_query += 2
            right, left = s_b - moving(weights, r + 1), moving(weights, r) - s_a
            if check:
                _check_fold(SUM, right, left)
            return right - left

        def cost(r):
            idx.rangesum_probes_last_query += 4
            w_left, d_left = moving(weights, r + 1) - s_a, moving(scaled, r + 1) - t_a
            w_right, d_right = s_b - moving(weights, r), t_b - moving(scaled, r)
            if check:
                _check_fold(SUM, w_left, d_left, w_right, d_right)
            return (w_left * scale[r] - d_left) + (d_right - w_right * scale[r])

        r_opt, cost_j = _median_search(a, b, balance, cost)
        indices.append(r_opt)
        total_cost = total_cost + cost_j
    location = tuple(idx.scales[j][r] for j, r in enumerate(indices))
    return CubeMedianResult(tuple(indices), location, total_cost)


def brute_force_median(cube: DataCube, scales: Sequence[Sequence], box: QueryBox):
    """Least total weighted L1 distance from the cells of ``box`` to one of
    them, trying each: the reference for the median searches.  Exact ints for
    int cubes and scales, else exact rationals rounded once (inf past floats).
    """
    from fractions import Fraction
    box.validate_for(cube.dims)
    exact = _exact_costs(cube, scales)
    number = int if exact else Fraction
    axes = [[number(x) for x in scale] for scale in scales]
    cells = [(c, number(cube.values[c].item())) for c in box.coords()]
    best = min(
        sum(w * sum(abs(x[c[j]] - x[r[j]]) for j, x in enumerate(axes)) for c, w in cells)
        for r, _ in cells
    )
    return best if exact else _round_once(best)
