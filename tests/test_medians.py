"""Tests for interval K-medians, the sweep 1-median and range weighted medians."""

import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from rangecube import QueryBox, make_cube
from rangecube.medians import (
    CubeMedianIndex,
    MedianIndex,
    WeightedPoints1D,
    augment_points,
    brute_force_median,
    cube_range_weighted_median,
    hyperrect_1_median,
    interval_1_median,
    interval_k_median,
    interval_k_median_naive,
    range_weighted_median,
)


def interval_cost(xs, ws, intervals):
    """Total weighted distance from each point to its nearest interval."""
    total = 0
    for x, w in zip(xs, ws):
        best = min(
            0 if a <= x <= b else min(abs(x - a), abs(x - b)) for a, b in intervals
        )
        total += w * best
    return total


def literal_dp(xs, ws, count, length):
    """Transcription of the two recurrences with explicit inner sums (tiny n)."""
    pts = WeightedPoints1D(xs, ws)
    aug = augment_points(pts, length)
    x = (None,) + aug.xs
    w = (None,) + aug.ws
    n2 = len(aug.xs)
    pleft = [None] + [p + 1 for p in aug.pleft]
    INF = math.inf
    d0 = [[INF] * (n2 + 1) for _ in range(count + 1)]
    d1 = [[INF] * (n2 + 1) for _ in range(count + 1)]
    for j in range(count + 1):
        d0[j][0] = d1[j][0] = 0
    for i in range(1, n2 + 1):
        d0[0][i] = d1[0][i] = INF
    for j in range(1, count + 1):
        for i in range(1, n2 + 1):
            pl = pleft[i]
            for p in range(0, pl):
                if d1[j - 1][p] == INF:
                    continue
                charge = sum(w[t] * (x[i] - length - x[t]) for t in range(p + 1, pl))
                d0[j][i] = min(d0[j][i], d1[j - 1][p] + charge)
        for i in range(1, n2 + 1):
            for p in range(1, i + 1):
                if d0[j][p] == INF:
                    continue
                charge = sum(w[t] * (x[t] - x[p]) for t in range(p + 1, i + 1))
                d1[j][i] = min(d1[j][i], d0[j][p] + charge)
    return min(d1[j][n2] for j in range(1, count + 1))


def brute_force_k1(xs, ws, length):
    """Best single interval by trying every augmented right endpoint."""
    candidates = set(xs) | {x + length for x in xs}
    return min(interval_cost(xs, ws, [(b - length, b)]) for b in candidates)


class TestResultRecords:
    def test_slotted_results_copy_and_pickle(self):
        pts = WeightedPoints1D([0, 4, 10], [1, 2, 1])
        cube = make_cube([2, 2], [1, 2, 3, 4])
        idx = CubeMedianIndex(cube, [[0, 1], [0, 5]])
        results = [
            interval_k_median(pts, 2, 1),
            interval_1_median(pts, 0),
            hyperrect_1_median([(0, 1), (4, 2)], [1, 3], [1, 0]),
            cube_range_weighted_median(idx, QueryBox.full(cube.dims)),
        ]
        for res in results:
            assert not hasattr(res, "__dict__")
            # Rebuilt through __init__, which Python 3.10 needs for frozen slots.
            assert res.__reduce_ex__(2)[0] is type(res)
            for twin in (copy.copy(res), copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
                assert type(twin) is type(res) and twin == res and hash(twin) == hash(res)
            with pytest.raises(AttributeError):
                res.cost = 0


class TestAugment:
    def test_counts_and_pleft(self):
        pts = WeightedPoints1D([0, 4, 10], [1, 1, 1])
        aug = augment_points(pts, 4)
        assert len(aug.xs) == 6
        assert sum(1 for s in aug.added_from if s is not None) == 3
        assert all(a <= b for a, b in zip(aug.pleft, aug.pleft[1:]))
        for i, x in enumerate(aug.xs):
            p = aug.pleft[i]
            assert x - aug.xs[p] <= 4
            assert p == 0 or x - aug.xs[p - 1] > 4

    def test_merge_matches_keyed_sort(self):
        # Ties at equal x (duplicates, twins landing on originals, int 2 and
        # float 2.0) keep an original before a twin, each in input order.
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 12)
            xs = sorted(rng.choice([rng.randint(0, 8), rng.randint(0, 16) / 2]) for _ in range(n))
            ws = [rng.randint(0, 3) for _ in range(n)]
            length = rng.choice([0, 1, 2.5, 3])
            entries = [(x, 0, w, None) for x, w in zip(xs, ws)]
            entries += [(x + length, 1, 0, i) for i, x in enumerate(xs)]
            entries.sort(key=lambda t: (t[0], t[1]))
            aug = augment_points(WeightedPoints1D(xs, ws), length)
            assert list(map(repr, aug.xs)) == [repr(e[0]) for e in entries]
            assert aug.ws == tuple(e[2] for e in entries)
            assert aug.added_from == tuple(e[3] for e in entries)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="interval length must be >= 0, got -1"):
            augment_points(WeightedPoints1D([0, 1], [1, 1]), -1)


class TestIntervalKMedian:
    def test_two_points_two_intervals(self):
        res = interval_k_median(WeightedPoints1D([0, 4], [1, 1]), 2, 0)
        assert res.cost == 0

    def test_two_points_one_interval(self):
        res = interval_k_median(WeightedPoints1D([0, 4], [1, 1]), 1, 0)
        assert res.cost == 4
        assert res.cost == brute_force_k1([0, 4], [1, 1], 0)

    def test_three_points_with_length(self):
        res = interval_k_median(WeightedPoints1D([0, 4, 10], [1, 1, 1]), 1, 4)
        assert res.cost == 6
        assert res.cost == brute_force_k1([0, 4, 10], [1, 1, 1], 4)

    def test_invalid_arguments(self):
        pts = WeightedPoints1D([0], [1])
        with pytest.raises(ValueError, match=">= 1"):
            interval_k_median(pts, 0, 0)
        with pytest.raises(ValueError, match=">= 0"):
            interval_k_median(pts, 1, -1)
        with pytest.raises(ValueError, match="empty"):
            WeightedPoints1D([], [])

    def test_witness_reaches_reported_cost(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 12)
            xs = sorted(rng.randint(0, 40) for _ in range(n))
            ws = [rng.randint(0, 9) for _ in range(n)]
            count = rng.randint(1, 3)
            length = rng.choice([0, 1, 3])
            res = interval_k_median(WeightedPoints1D(xs, ws), count, length)
            assert len(res.intervals) <= count
            assert interval_cost(xs, ws, res.intervals) == res.cost

    def test_matches_literal_dp(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 7)
            xs = sorted(rng.randint(0, 20) for _ in range(n))
            ws = [rng.randint(0, 5) for _ in range(n)]
            count = rng.randint(1, 3)
            length = rng.choice([0, 2])
            fast = interval_k_median(WeightedPoints1D(xs, ws), count, length).cost
            assert fast == literal_dp(xs, ws, count, length)

    def test_k2_matches_endpoint_pair_enumeration(self):
        """Independent K=2 oracle: try every pair of candidate right endpoints."""
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            xs = sorted(rng.randint(0, 30) for _ in range(n))
            ws = [rng.randint(0, 6) for _ in range(n)]
            length = rng.choice([0, 2, 5])
            candidates = sorted(set(xs) | {x + length for x in xs})
            brute = min(
                interval_cost(xs, ws, [(b1 - length, b1), (b2 - length, b2)])
                for b1 in candidates
                for b2 in candidates
            )
            res = interval_k_median(WeightedPoints1D(xs, ws), 2, length)
            assert res.cost == brute

    def test_matches_naive_dp(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 25)
            xs = sorted(rng.randint(0, 100) for _ in range(n))
            ws = [rng.randint(0, 10) for _ in range(n)]
            count = rng.randint(1, 4)
            length = rng.choice([0, 1, 5])
            pts = WeightedPoints1D(xs, ws)
            assert interval_k_median(pts, count, length).cost == int(
                interval_k_median_naive(pts, count, length)
            )

    def test_monotone_in_count_and_length(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 12)
            xs = sorted(rng.randint(0, 50) for _ in range(n))
            ws = [rng.randint(0, 5) for _ in range(n)]
            pts = WeightedPoints1D(xs, ws)
            costs_k = [interval_k_median(pts, k, 1).cost for k in range(1, 5)]
            assert all(a >= b for a, b in zip(costs_k, costs_k[1:]))
            costs_l = [interval_k_median(pts, 2, L).cost for L in (0, 1, 3, 7)]
            assert all(a >= b for a, b in zip(costs_l, costs_l[1:]))

    def test_deque_traffic_linear(self):
        rng = random.Random(19)
        n = 40
        xs = sorted(rng.randint(0, 500) for _ in range(n))
        ws = [rng.randint(0, 10) for _ in range(n)]
        res = interval_k_median(WeightedPoints1D(xs, ws), 5, 3)
        # two deques per interval count, each holding at most 2n candidates
        assert res.deque_pushes <= 2 * (2 * n) * 5
        assert res.deque_pops <= res.deque_pushes


class TestInterval1Median:
    def test_interval_spans_all(self):
        res = interval_1_median(WeightedPoints1D([0, 10], [1, 1]), 10)
        assert res.cost == 0

    def test_length_two(self):
        res = interval_1_median(WeightedPoints1D([0, 4], [1, 1]), 2)
        assert res.cost == 2
        assert res.cost == brute_force_k1([0, 4], [1, 1], 2)

    def test_weighted_median_at_heavy_point(self):
        res = interval_1_median(WeightedPoints1D([1, 2, 3], [5, 1, 1]), 0)
        assert res.cost == 3
        assert res.right_endpoint == 1
        assert res.minimax_split_cost is not None

    def test_minimax_only_for_zero_length(self):
        res = interval_1_median(WeightedPoints1D([1, 2], [1, 1]), 1)
        assert res.minimax_split_cost is None

    def test_agrees_with_k_median(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 20)
            xs = sorted(rng.randint(0, 60) for _ in range(n))
            ws = [rng.randint(0, 8) for _ in range(n)]
            length = rng.choice([0, 1, 4])
            pts = WeightedPoints1D(xs, ws)
            assert interval_1_median(pts, length).cost == interval_k_median(pts, 1, length).cost

    def test_zero_length_is_textbook_weighted_median(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 20)
            xs = sorted(rng.randint(0, 60) for _ in range(n))
            ws = [rng.randint(0, 8) for _ in range(n)]
            res = interval_1_median(WeightedPoints1D(xs, ws), 0)
            assert res.cost == brute_force_median(make_cube([n], ws), [xs], QueryBox([0], [n - 1]))
            # direct scan: first position where left weight reaches half
            total = sum(ws)
            if total > 0:
                acc = 0
                for x, w in zip(xs, ws):
                    acc += w
                    if 2 * acc >= total:
                        assert sum(wt * abs(xt - x) for xt, wt in zip(xs, ws)) == res.cost
                        break


class TestHyperrect:
    def test_two_points_zero_length(self):
        res = hyperrect_1_median([(0, 0), (4, 4)], [1, 1], (0, 0))
        assert res.cost == 8

    def test_covering_rectangle(self):
        res = hyperrect_1_median([(0, 0), (4, 4)], [1, 1], (4, 4))
        assert res.cost == 0
        assert res.corner == (0, 0)

    def test_single_point(self):
        res = hyperrect_1_median([(3, 7, 1)], [5], (0, 2, 0))
        assert res.cost == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="side lengths"):
            hyperrect_1_median([(1, 2)], [1], (0,))

    def test_matches_per_dimension_brute_force(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 10)
            d = rng.randint(1, 3)
            points = [tuple(rng.randint(0, 30) for _ in range(d)) for _ in range(n)]
            ws = [rng.randint(0, 5) for _ in range(n)]
            lengths = tuple(rng.choice([0, 2]) for _ in range(d))
            res = hyperrect_1_median(points, ws, lengths)
            expected = 0
            for j in range(d):
                xs = sorted(p[j] for p in points)
                pairs = sorted(zip((p[j] for p in points), ws))
                expected += brute_force_k1(
                    [x for x, _ in pairs], [w for _, w in pairs], lengths[j]
                )
            assert res.cost == expected


class TestMedianIndex:
    def test_wsum_examples(self):
        idx = MedianIndex(WeightedPoints1D([1, 2, 3], [1, 1, 1]))
        assert idx.wsum(0, 2) == 3
        assert idx.wsum_lr(0, 2) == 3 * 3 - 6
        assert idx.wsum_rl(0, 2) == 6 - 3 * 1

    def test_single_point_costs_zero(self):
        idx = MedianIndex(WeightedPoints1D([5, 9], [2, 3]))
        for i in range(2):
            assert idx.wsum_lr(i, i) == 0
            assert idx.wsum_rl(i, i) == 0

    def test_zero_weights(self):
        idx = MedianIndex(WeightedPoints1D([1, 4, 9], [0, 0, 0]))
        assert idx.wsum(0, 2) == 0
        assert idx.wsum_lr(0, 2) == 0
        assert idx.wsum_rl(0, 2) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            WeightedPoints1D([2, 1], [1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedPoints1D([1, 2], [1, -1])


class TestRangeWeightedMedian:
    def test_examples(self):
        idx = MedianIndex(WeightedPoints1D([1, 2, 3, 10], [1, 1, 1, 1]))
        r, cost = range_weighted_median(idx, 0, 2)
        assert (r, cost) == (1, 2)
        assert range_weighted_median(idx, 3, 3) == (3, 0)
        r, cost = range_weighted_median(idx, 0, 3)
        assert cost == 10
        assert r == 1  # positions x=2 and x=3 tie; smaller index wins

    def test_matches_brute_force(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 40)
            xs = sorted(rng.randint(0, 200) for _ in range(n))
            ws = [rng.randint(0, 9) for _ in range(n)]
            idx = MedianIndex(WeightedPoints1D(xs, ws))
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            r, cost = range_weighted_median(idx, i, j)
            assert cost == brute_force_median(make_cube([n], ws), [xs], QueryBox([i], [j]))
            assert idx.wsum_lr(i, r) + idx.wsum_rl(r, j) == cost

    def test_probe_budget(self):
        rng = random.Random(41)
        n = 64
        xs = sorted(rng.randint(0, 500) for _ in range(n))
        ws = [rng.randint(0, 9) for _ in range(n)]
        idx = MedianIndex(WeightedPoints1D(xs, ws))
        budget = 2 * math.ceil(math.log2(n)) + 4
        for _ in range(50):
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            range_weighted_median(idx, i, j)
            assert idx.probes_last_query <= budget

    def test_invalid_range(self):
        idx = MedianIndex(WeightedPoints1D([1, 2], [1, 1]))
        with pytest.raises(IndexError):
            range_weighted_median(idx, 1, 0)

    def test_positions_must_be_integers(self):
        idx = MedianIndex(WeightedPoints1D([1, 2, 3, 4], [1, 1, 1, 1]))
        with pytest.raises(ValueError, match="position must be an integer, got 0.5"):
            range_weighted_median(idx, 0.5, 2.7)
        for query in (idx.wsum, idx.wsum_lr, idx.wsum_rl):
            with pytest.raises(ValueError, match="got 2.0"):
                query(0, 2.0)

    def test_numpy_int_positions(self):
        idx = MedianIndex(WeightedPoints1D([1, 2, 3, 10], [1, 1, 1, 1]))
        assert range_weighted_median(idx, np.int64(0), np.int32(2)) == (1, 2)
        assert (idx.wsum(np.int8(0), np.uint16(2)), idx.wsum_lr(np.int64(0), 2)) == (3, 3)
        assert idx.wsum_rl(0, np.int64(2)) == 3


class TestFloatInstances:
    """Float coordinates/weights compare within absolute tolerance 1e-9."""

    def test_interval_solvers(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randint(1, 15)
            xs = sorted(round(rng.uniform(0, 20), 3) for _ in range(n))
            ws = [round(rng.uniform(0, 5), 3) for _ in range(n)]
            length = rng.choice([0, 0.5, 2.5])
            count = rng.randint(1, 3)
            pts = WeightedPoints1D(xs, ws)
            fast = interval_k_median(pts, count, length)
            naive = interval_k_median_naive(pts, count, length)
            assert abs(fast.cost - naive) <= 1e-9
            assert interval_cost(xs, ws, fast.intervals) == pytest.approx(
                fast.cost, abs=1e-9
            )
            sweep = interval_1_median(pts, length)
            assert abs(sweep.cost - interval_k_median(pts, 1, length).cost) <= 1e-9

    def test_range_weighted_median(self):
        rng = random.Random(59)
        for _ in range(25):
            n = rng.randint(1, 30)
            xs = sorted(round(rng.uniform(0, 50), 3) for _ in range(n))
            ws = [round(rng.uniform(0, 4), 3) for _ in range(n)]
            idx = MedianIndex(WeightedPoints1D(xs, ws))
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            _, cost = range_weighted_median(idx, i, j)
            assert abs(cost - brute_force_median(make_cube([n], ws), [xs], QueryBox([i], [j]))) <= 1e-9


class TestCubeMedian:
    def test_prefix_cube_folds(self):
        cube = make_cube([2, 2], [1, 1, 1, 1])
        idx = CubeMedianIndex(cube, [[0, 1], [0, 1]])
        assert idx.ps_cube[1, 1] == 4
        assert idx.psd_cubes[0][1, 1] == 0 * 2 + 1 * 2
        zero = CubeMedianIndex(make_cube([2, 2], [0] * 4), [[0, 1], [0, 1]])
        assert not zero.ps_cube.any()
        assert not any(t.any() for t in zero.psd_cubes)

    def test_three_by_three_ones(self):
        cube = make_cube([3, 3], [1] * 9)
        idx = CubeMedianIndex(cube, [[0, 1, 2], [0, 1, 2]])
        res = cube_range_weighted_median(idx, QueryBox.full(cube.dims))
        assert res.location == (1, 1)
        assert res.cost == 12

    def test_single_cell_box(self):
        cube = make_cube([3, 3], range(1, 10))
        idx = CubeMedianIndex(cube, [[0, 1, 2], [0, 2, 5]])
        res = cube_range_weighted_median(idx, QueryBox([1, 2], [1, 2]))
        assert res.location == (1, 5)
        assert res.cost == 0

    def test_concentrated_weight(self):
        values = [0] * 27
        values[13] = 7  # cell (1, 1, 1)
        cube = make_cube([3, 3, 3], values)
        idx = CubeMedianIndex(cube, [[0, 1, 2]] * 3)
        res = cube_range_weighted_median(idx, QueryBox.full(cube.dims))
        assert res.indices == (1, 1, 1)
        assert res.cost == 0

    def test_zero_weight_box_rejected(self):
        cube = make_cube([2, 2], [0, 0, 0, 1])
        idx = CubeMedianIndex(cube, [[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="positive weight"):
            cube_range_weighted_median(idx, QueryBox([0, 0], [0, 0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CubeMedianIndex(make_cube([2], [1, -1]), [[0, 1]])

    def test_unsorted_scale_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            CubeMedianIndex(make_cube([2], [1, 1]), [[1, 0]])

    @pytest.mark.parametrize(
        "scale0",
        [[2**31 - 4, 2**31 - 3, 2**31 - 2, 2**31 - 1], [0, 1, 2, 2**63]],
    )
    def test_int_tables_past_bound_rejected(self, scale0):
        cube = make_cube([4, 4], [2**40] * 16)
        with pytest.raises(ValueError, match=r"overflow: the weight sum \* max\(peak \|scale\|, 1\)"):
            CubeMedianIndex(cube, [scale0, [2**31 - 4, 2**31 - 3, 2**31 - 2, 2**31 - 1]])

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_int_tables_at_bound(self, kind):
        # The weight sum W is 2**40 + 1, so W * peak |scale| reaches 2**63 at
        # the scale below; one less is exact.  A cost term then nears
        # 2 * W * peak |scale|, past int64: numpy scales fold as Python ints.
        weights = make_cube([2], [2**40, 1])
        peak = -(-(1 << 63) // (2**40 + 1))
        with pytest.raises(ValueError, match=f"is {(2**40 + 1) * peak}"):
            CubeMedianIndex(weights, [[kind(-peak), kind(0)]])
        scales = [[kind(-peak + 1), kind(peak - 1)]]
        idx = CubeMedianIndex(weights, scales)
        box = QueryBox([0], [1])
        assert cube_range_weighted_median(idx, box).cost == brute_force_median(weights, scales, box)

    def test_int_tables_below_bound_exact(self):
        rng = random.Random(53)
        cube = make_cube([4, 4], [rng.randint(1, 2**30) for _ in range(16)])
        scales = [sorted(rng.sample(range(-(2**26), 2**26), 4)) for _ in range(2)]
        idx = CubeMedianIndex(cube, scales)
        box = QueryBox.full(cube.dims)
        assert cube_range_weighted_median(idx, box).cost == brute_force_median(cube, scales, box)

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(25):
            d = rng.randint(1, 3)
            dims = [rng.randint(1, 5) for _ in range(d)]
            values = [rng.randint(0, 9) for _ in range(math.prod(dims))]
            if not any(values):
                values[0] = 1
            scales = [sorted(rng.sample(range(0, 50), m)) for m in dims]
            cube = make_cube(dims, values)
            idx = CubeMedianIndex(cube, scales)
            lo = [rng.randint(0, m - 1) for m in dims]
            hi = [rng.randint(a, m - 1) for a, m in zip(lo, dims)]
            box = QueryBox(lo, hi)
            try:
                res = cube_range_weighted_median(idx, box)
            except ValueError:
                assert sum(cube.cell(c) for c in box.coords()) == 0
                continue
            assert res.cost == brute_force_median(cube, scales, box)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_matches_brute_force_high_dimensions(self, d):
        # The box sums read every corner mix up to MAX_DIMENSIONS.
        rng = random.Random(700 + d)
        for kind in ("int", "float"):
            dims = [rng.randint(1, 3 if d == 4 else 2) for _ in range(d)]
            n = math.prod(dims)
            values = [rng.randint(1, 9) for _ in range(n)]
            if kind == "float":
                values = [v / 4 for v in values]
            scales = [sorted(rng.sample(range(0, 50), m)) for m in dims]
            cube = make_cube(dims, values)
            idx = CubeMedianIndex(cube, scales)
            for _ in range(4):
                lo = [rng.randint(0, m - 1) for m in dims]
                box = QueryBox(lo, [rng.randint(a, m - 1) for a, m in zip(lo, dims)])
                res = cube_range_weighted_median(idx, box)
                best = brute_force_median(cube, scales, box)
                assert math.isclose(res.cost, best, rel_tol=0.0, abs_tol=idx.cost_error_bound)

    def test_per_dimension_matches_materialized_slabs(self):
        rng = random.Random(47)
        dims = [4, 5]
        values = [rng.randint(0, 9) for _ in range(20)]
        values[0] += 1
        scales = [sorted(rng.sample(range(40), m)) for m in dims]
        cube = make_cube(dims, values)
        idx = CubeMedianIndex(cube, scales)
        box = QueryBox.full(dims)
        res = cube_range_weighted_median(idx, box)
        for j in range(2):
            slab_ws = []
            for p in range(dims[j]):
                total = 0
                for c in box.coords():
                    if c[j] == p:
                        total += cube.cell(c)
                slab_ws.append(total)
            idx1 = MedianIndex(WeightedPoints1D(scales[j], slab_ws))
            r, _ = range_weighted_median(idx1, 0, dims[j] - 1)
            assert r == res.indices[j]

    def test_probe_budget(self):
        cube = make_cube([6, 6, 6], [1] * 216)
        idx = CubeMedianIndex(cube, [list(range(6))] * 3)
        cube_range_weighted_median(idx, QueryBox.full(cube.dims))
        # per dimension: 2 RangeSums per bisection step plus 2 candidate cost
        # evaluations of 4 RangeSums each; plus the positivity check
        budget = 3 * (2 * math.ceil(math.log2(6)) + 8) + 1
        assert idx.rangesum_probes_last_query <= budget


def kmedian_pin_instances():
    """Seeded K-median instances: zero weights (one all-zero set), duplicate
    and float coordinates, L = 0 and K from 1 to 5."""
    rng = random.Random(2029)
    for case in range(12):
        n = rng.randint(1, 9)
        if case % 3 == 2:
            xs = sorted(round(rng.uniform(0, 30), 2) for _ in range(n))
        else:
            xs = sorted(rng.randint(0, 12 if case % 3 == 1 else 60) for _ in range(n))
        ws = [rng.choice([0, 0, 1, 2, 5, 9]) for _ in range(n)]
        if case == 5:
            ws = [0] * n
        yield xs, ws, 1 + case % 5, (0, 0, 2, 3.5, 10)[case % 5]


def cube_median_pin_cases():
    """Seeded cubes at d = 1..4, each with int and with float scales, and
    boxes on the ``lo = 0`` and ``hi = m - 1`` edge of every axis."""
    rng = random.Random(1997)
    for dims in ([7], [5, 4], [3, 4, 3], [3, 2, 3, 2]):
        values = [rng.randint(0, 9) for _ in range(math.prod(dims))]
        int_scales = [sorted(rng.sample(range(-20, 60), m)) for m in dims]
        float_scales = [sorted(round(rng.uniform(-5, 20), 3) for _ in range(m)) for m in dims]
        boxes = [QueryBox.full(dims)]
        for j, m in enumerate(dims):
            for edge in ("lo", "hi"):
                lo = [rng.randint(0, k - 1) for k in dims]
                hi = [rng.randint(a, k - 1) for a, k in zip(lo, dims)]
                if edge == "lo":
                    lo[j] = 0
                else:
                    hi[j] = m - 1
                boxes.append(QueryBox(lo, hi))
        for scales in (int_scales, float_scales):
            for box in boxes:
                yield make_cube(dims, values), scales, box


# (cost, intervals, deque_pushes, deque_pops) of each kmedian_pin_instances().
PINNED_KMEDIANS = [
    (439, ((47, 47),), 8, 4),
    (0, ((3, 3), (8, 8)), 18, 12),
    (0.0, ((6.529999999999999, 8.53), (20.71, 22.71)), 17, 10),
    (0.0, ((2.5, 6), (10.5, 14), (38.0, 41.5)), 45, 34),
    (0, ((-3, 7), (12, 22)), 77, 63),
    (0.0, ((25.81, 25.81),), 7, 5),
    (0, ((47, 47),), 11, 6),
    (1, ((3, 5), (6, 8), (10, 12)), 48, 33),
    (0.0, ((5.18, 8.68), (28.44, 31.94)), 23, 14),
    (0, ((49, 59),), 63, 51),
    (112, ((3, 3),), 6, 1),
    (107.0100000000001, ((5.75, 5.75), (21.04, 21.04)), 26, 14),
]

# ((indices, location, cost), rangesum_probes_last_query) of each
# cube_median_pin_cases().
PINNED_CUBE_MEDIANS = [
    (((4,), (16,), 323), 15),
    (((2,), (9,), 99), 13),
    (((5,), (31,), 70), 13),
    (((4,), (15.049,), 82.61100000000002), 15),
    (((2,), (12.591,), 38.33799999999999), 13),
    (((5,), (17.691,), 8.90100000000001), 13),
    (((2, 1), (13, 27), 2128), 25),
    (((2, 2), (13, 28), 969), 23),
    (((3, 3), (33, 52), 0), 15),
    (((2, 1), (13, 27), 1605), 23),
    (((2, 2), (13, 28), 428), 23),
    (((2, 1), (5.585, 5.182), 642.705), 25),
    (((2, 2), (5.585, 9.982), 286.86199999999997), 23),
    (((3, 3), (8.047, 13.032), 0.0), 15),
    (((2, 1), (5.585, 5.182), 492.4999999999999), 23),
    (((2, 2), (5.585, 9.982), 62.489999999999924), 23),
    (((1, 1, 1), (7, -9, 17), 6095), 33),
    (((1, 2, 2), (7, -3, 19), 1252), 27),
    (((2, 2, 2), (26, -3, 19), 0), 13),
    (((1, 0, 1), (7, -19, 17), 2510), 31),
    (((1, 3, 2), (7, 46, 19), 104), 21),
    (((2, 1, 1), (26, -9, 17), 623), 29),
    (((2, 1, 2), (26, -9, 19), 128), 25),
    (((1, 1, 1), (13.515, 1.184, 7.211), 2310.8700000000003), 33),
    (((1, 2, 2), (13.515, 4.254, 9.002), 533.9260000000002), 27),
    (((2, 2, 2), (15.074, 4.254, 9.002), 0.0), 13),
    (((1, 0, 1), (13.515, -3.52, 7.211), 961.4360000000001), 31),
    (((1, 3, 2), (13.515, 19.621, 9.002), 33.803999999999945), 21),
    (((2, 1, 1), (15.074, 1.184, 7.211), 177.74599999999992), 29),
    (((2, 1, 2), (15.074, 1.184, 9.002), 68.74600000000012), 25),
    (((1, 0, 1, 1), (15, 20, 19, 36), 6087), 41),
    (((0, 0, 1, 0), (7, 20, 19, 14), 24), 23),
    (((2, 1, 0, 1), (48, 25, -8, 36), 66), 23),
    (((1, 1, 1, 1), (15, 25, 19, 36), 185), 35),
    (((2, 0, 1, 1), (48, 20, 19, 36), 19), 29),
    (((1, 1, 0, 0), (15, 25, -8, 14), 768), 31),
    (((1, 0, 2, 1), (15, 20, 22, 36), 0), 17),
    (((1, 0, 2, 0), (15, 20, 22, 14), 0), 17),
    (((1, 1, 1, 1), (15, 25, 19, 36), 93), 29),
    (((1, 0, 1, 1), (-0.131, -0.529, 8.925, 15.514), 3470.1330000000003), 41),
    (((0, 0, 1, 0), (-4.176, -0.529, 8.925, -2.515), 45.50399999999999), 23),
    (((2, 1, 0, 1), (9.437, 7.365, 0.769, 15.514), 19.135999999999996), 23),
    (((1, 1, 1, 1), (-0.131, 7.365, 8.925, 15.514), 210.9610000000001), 35),
    (((2, 0, 1, 1), (9.437, -0.529, 8.925, 15.514), 32.851999999999755), 29),
    (((1, 1, 0, 0), (-0.131, 7.365, 0.769, -2.515), 364.631), 31),
    (((1, 0, 2, 1), (-0.131, -0.529, 14.613, 15.514), 0.0), 17),
    (((1, 0, 2, 0), (-0.131, -0.529, 14.613, -2.515), 0.0), 17),
    (((1, 1, 1, 1), (-0.131, 7.365, 8.925, 15.514), 95.31600000000006), 29),
]


class TestPinnedOutputs:
    """Answers and counters of the hull DP and the cube median search, pinned
    so a faster evaluation of either shows any change in what it returns."""

    def test_interval_k_median(self):
        instances = list(kmedian_pin_instances())
        assert len(instances) == len(PINNED_KMEDIANS)
        for (xs, ws, count, length), pinned in zip(instances, PINNED_KMEDIANS):
            res = interval_k_median(WeightedPoints1D(xs, ws), count, length)
            assert (res.cost, res.intervals, res.deque_pushes, res.deque_pops) == pinned

    def test_cube_median(self):
        cases = list(cube_median_pin_cases())
        assert len(cases) == len(PINNED_CUBE_MEDIANS)
        for (cube, scales, box), pinned in zip(cases, PINNED_CUBE_MEDIANS):
            idx = CubeMedianIndex(cube, scales)
            res = cube_range_weighted_median(idx, box)
            (indices, location, cost), probes = pinned
            assert (res.indices, res.location, idx.rangesum_probes_last_query) == (
                indices, location, probes
            ), box
            if isinstance(cost, int):
                assert res.cost == cost
            else:
                best = brute_force_median(cube, scales, box)
                for ref in (cost, best):
                    assert math.isclose(res.cost, ref, rel_tol=0.0, abs_tol=idx.cost_error_bound)

    def test_zero_weight_box_message(self):
        idx = CubeMedianIndex(make_cube([2, 3], [0, 0, 4, 0, 0, 0]), [[0, 1], [0, 1, 2]])
        for lo, hi in (([0, 0], [1, 1]), ([1, 0], [1, 2]), ([0, 0], [0, 1])):
            with pytest.raises(ValueError) as err:
                cube_range_weighted_median(idx, QueryBox(lo, hi))
            assert str(err.value) == "median undefined: query box has no positive weight"
            assert idx.rangesum_probes_last_query == 1
