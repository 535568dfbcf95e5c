"""Tests for grouped-dimension sparse-table range min/max queries."""

import math
import random
import re

import numpy as np
import pytest

from rangecube import MAX, MIN, QueryBox, brute_force_range, make_cube
from rangecube.rmq import (
    DimensionGrouping,
    SparseTable,
    _ranks,
    constrained_boxes,
    grouped_base_case,
)


def random_cube(rng, d=None, max_extent=8):
    d = d or rng.randint(1, 3)
    dims = [rng.randint(1, max_extent) for _ in range(d)]
    values = [rng.randint(-100, 100) for _ in range(math.prod(dims))]
    return make_cube(dims, values)


def assert_matches_brute_force(cube, grouping):
    """In both modes: level 0, decoded through ``distinct``, equals a direct
    reduce over each anchored stretch box, and every constrained box equals
    the brute-force scan."""
    for mode, op in (("min", MIN), ("max", MAX)):
        table = SparseTable(cube, grouping, mode)
        level0 = table.distinct[table.tables[(0,) * grouping.ngroups]]
        expected = [grouped_base_case(cube, grouping, a, mode) for a in np.ndindex(level0.shape)]
        assert np.array_equal(level0, np.array(expected).reshape(level0.shape))
        for box in constrained_boxes(cube.dims, grouping):
            assert table.query(box) == brute_force_range(cube, box, op)


class TestGrouping:
    def test_singleton(self):
        g = DimensionGrouping.singleton(3)
        assert g.ngroups == 3
        assert g.stretch == (1, 1, 1)

    def test_base_dim_must_belong(self):
        with pytest.raises(ValueError, match="not a member"):
            DimensionGrouping([0, 1], [1, 0], [1, 1])

    def test_base_stretch_must_be_one(self):
        with pytest.raises(ValueError, match="stretch 1"):
            DimensionGrouping([0, 0], [0], [2, 2])

    def test_group_ids_consecutive(self):
        with pytest.raises(ValueError, match="group ids"):
            DimensionGrouping([0, 2], [0, 1], [1, 1])

    @pytest.mark.parametrize(
        "group_of, base_dim, stretch, match",
        [
            ([0, 0], [0], [1], "stretch must list one factor per dimension"),
            ([0, 0, 1], [0], [1, 1, 1], "group ids must cover 0..0 exactly"),
            ([0], [1], [1], "base dimension 1 is not a member of group 0"),
            ([0, 0], [0], [1, 0], "stretch factors must be >= 1"),
        ],
    )
    def test_malformed_rejected(self, group_of, base_dim, stretch, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            DimensionGrouping(group_of, base_dim, stretch)

    @pytest.mark.parametrize(
        "group_of, base_dim, stretch, match",
        [
            ([0], [0], [1.5], "stretch factor must be an integer, got 1.5"),
            ([0, 0], [0], [1, 2.0], "stretch factor must be an integer, got 2.0"),
            ([0.0], [0], [1], "group id must be an integer, got 0.0"),
            ([0], [np.float64(0)], [1], "base dimension must be an integer, got np.float64"),
            ([0], [0], ["1"], "stretch factor must be an integer, got '1'"),
        ],
    )
    def test_non_integers_rejected(self, group_of, base_dim, stretch, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            DimensionGrouping(group_of, base_dim, stretch)

    def test_numpy_ints_accepted(self):
        g = DimensionGrouping(np.array([0, 0]), [np.int8(0)], np.array([1, 3], dtype=np.uint16))
        assert (g.group_of, g.base_dim, g.stretch) == ((0, 0), (0,), (1, 3))
        assert all(type(v) is int for v in g.group_of + g.base_dim + g.stretch)


class TestBuild:
    def test_1d_block_entries(self):
        table = SparseTable(make_cube([5], [3, 1, 4, 1, 5]))
        assert table.block_value((1,), (1,)) == 1  # min(1, 4)
        assert table.block_value((0,), (2,)) == 1  # min over first four
        assert table.block_value((4,), (0,)) == 5

    def test_constant_cube(self):
        table = SparseTable(make_cube([4, 4], [7] * 16))
        for kt, arr in table.tables.items():
            # level kt keeps only the anchors whose block fits the cube
            assert arr.shape == tuple(m - (1 << k) + 1 for m, k in zip(table.dims, kt))
            assert (table.distinct[arr] == 7).all()

    def test_2d_full_block(self):
        table = SparseTable(make_cube([2, 2], [1, 5, 3, 2]))
        assert table.block_value((0, 0), (1, 1)) == 1

    @pytest.mark.parametrize(
        "anchor, kt, error, match",
        [
            ((0,), (0, 0), ValueError, "invalid level tuple (0, 0)"),
            ((0,), (3,), ValueError, "invalid level tuple (3,)"),
            ((4,), (1,), IndexError, "anchor 4 out of range for level (1,) in dimension 0"),
        ],
    )
    def test_block_value_rejects(self, anchor, kt, error, match):
        table = SparseTable(make_cube([5], [3, 1, 4, 1, 5]))
        with pytest.raises(error, match=re.escape(match)):
            table.block_value(anchor, kt)

    def test_extent_smaller_than_stretch(self):
        g = DimensionGrouping([0, 0], [0], [1, 4])
        with pytest.raises(ValueError, match="stretch"):
            SparseTable(make_cube([2, 2], [1, 2, 3, 4]), g)

    @pytest.mark.parametrize(
        "grouping, mode, match",
        [
            (None, "sum", "mode must be 'min' or 'max', got 'sum'"),
            (DimensionGrouping.singleton(3), "min", "grouping covers 3 dimensions, cube has 2"),
        ],
    )
    def test_bad_arguments_rejected(self, grouping, mode, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            SparseTable(make_cube([2, 2], [1, 2, 3, 4]), grouping, mode)

    def test_no_lookups_before_a_query(self):
        assert SparseTable(make_cube([2, 2], [1, 2, 3, 4])).lookups_last_query == 0


class TestQuery:
    def test_1d_example(self):
        table = SparseTable(make_cube([5], [3, 1, 4, 1, 5]))
        assert table.query(QueryBox([1], [3])) == 1

    def test_single_cell(self):
        cube = make_cube([3, 2], [4, -1, 0, 9, 2, 2])
        table = SparseTable(cube)
        for coords in QueryBox.full(cube.dims).coords():
            assert table.query(QueryBox.cell(coords)) == cube.cell(coords)

    def test_2d_one_group(self):
        grouping = DimensionGrouping([0, 0], [0], [1, 1])
        table = SparseTable(make_cube([2, 2], [1, 5, 3, 2]), grouping)
        assert table.query(QueryBox([0, 0], [1, 1])) == 1

    def test_shape_constraint_enforced(self):
        grouping = DimensionGrouping([0, 0], [0], [1, 2])
        table = SparseTable(make_cube([4, 4], range(16)), grouping)
        with pytest.raises(ValueError, match="shape"):
            table.query(QueryBox([0, 0], [1, 1]))  # lengths (2, 2) != (2, 4)

    def test_out_of_bounds(self):
        table = SparseTable(make_cube([4], [1, 2, 3, 4]))
        with pytest.raises(IndexError):
            table.query(QueryBox([2], [4]))

    def test_lookup_counter(self):
        rng = random.Random(3)
        cube = random_cube(rng, d=3, max_extent=5)
        table = SparseTable(cube)
        for _ in range(30):
            lo = [rng.randint(0, m - 1) for m in cube.dims]
            hi = [rng.randint(a, m - 1) for a, m in zip(lo, cube.dims)]
            table.query(QueryBox(lo, hi))
            assert table.lookups_last_query <= 2 ** cube.ndim

    def test_block_query_idempotence(self):
        """A box that coincides with one precomputed block returns its entry."""
        cube = make_cube([8, 6], [((i * 37) ^ (j * 11)) % 50 for i in range(8) for j in range(6)])
        table = SparseTable(cube)
        for kt, arr in table.tables.items():
            for anchor in ((0,) * cube.ndim, tuple(e - 1 for e in arr.shape)):
                box = QueryBox(
                    anchor,
                    [a + table._block_len(j, kt) - 1 for j, a in enumerate(anchor)],
                )
                assert table.query(box) == table.block_value(anchor, kt)


class TestOracle:
    def test_exhaustive_small_cubes(self):
        """100 random cubes, every valid box, both modes, vs the scan oracle."""
        rng = random.Random(17)
        extent_cap = {1: 16, 2: 10, 3: 6}  # keeps exhaustive enumeration feasible
        for _ in range(100):
            d = rng.randint(1, 3)
            cube = random_cube(rng, d=d, max_extent=extent_cap[d])
            tmin = SparseTable(cube, mode="min")
            tmax = SparseTable(cube, mode="max")
            for box in constrained_boxes(cube.dims, tmin.grouping):
                assert tmin.query(box) == brute_force_range(cube, box, MIN)
                assert tmax.query(box) == brute_force_range(cube, box, MAX)

    def test_grouped_oracle(self):
        rng = random.Random(23)
        grouping = DimensionGrouping([0, 0], [0], [1, 2])
        for _ in range(10):
            dims = [rng.randint(2, 8), rng.randint(2, 8)]
            cube = make_cube(dims, [rng.randint(-50, 50) for _ in range(math.prod(dims))])
            table = SparseTable(cube, grouping)
            for box in constrained_boxes(cube.dims, grouping):
                assert table.query(box) == brute_force_range(cube, box, MIN)

    def test_negation_duality(self):
        rng = random.Random(29)
        cube = random_cube(rng, d=2)
        neg = make_cube(cube.dims, [-v for v in cube.flat()])
        tmax = SparseTable(cube, mode="max")
        tmin_neg = SparseTable(neg, mode="min")
        for box in constrained_boxes(cube.dims, tmax.grouping):
            assert tmax.query(box) == -tmin_neg.query(box)


class TestBaseCase:
    def test_all_stretch_one_is_cell(self):
        cube = make_cube([3, 3], range(9))
        g = DimensionGrouping([0, 1], [0, 1], [1, 1])
        assert grouped_base_case(cube, g, (2, 1)) == cube.cell((2, 1))

    def test_stretch_two_scan(self):
        cube = make_cube([2, 2], [1, 5, 3, 2])
        g = DimensionGrouping([0, 0], [0], [1, 2])
        assert grouped_base_case(cube, g, (0, 0)) == 1
        assert grouped_base_case(cube, g, (1, 0)) == 2

    def test_constant_cube(self):
        cube = make_cube([4, 4], [9] * 16)
        g = DimensionGrouping([0, 0], [0], [1, 2])
        assert grouped_base_case(cube, g, (3, 1)) == 9

    def test_out_of_bounds_anchor(self):
        cube = make_cube([4, 4], range(16))
        g = DimensionGrouping([0, 0], [0], [1, 2])
        with pytest.raises(IndexError):
            grouped_base_case(cube, g, (0, 3))

    @pytest.mark.parametrize(
        "grouping, mode, match",
        [
            (DimensionGrouping.singleton(2), "sum", "mode must be 'min' or 'max', got 'sum'"),
            (DimensionGrouping.singleton(1), "min", "grouping does not match cube dimensionality"),
        ],
    )
    def test_bad_arguments_rejected(self, grouping, mode, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            grouped_base_case(make_cube([2, 2], [1, 2, 3, 4]), grouping, (0, 0), mode)

    def test_recursive_path_matches_scan(self):
        """Stretch (1, 2) on random 2-D cubes, against brute force."""
        rng = random.Random(31)
        g = DimensionGrouping([0, 0], [0], [1, 2])
        for _ in range(5):
            dims = [rng.randint(2, 6), rng.randint(2, 8)]
            cube = make_cube(dims, [rng.randint(-50, 50) for _ in range(math.prod(dims))])
            assert_matches_brute_force(cube, g)

    def test_recursive_path_with_separated_dimension(self):
        """Stretch (1, 2, 3): the ratio 3/2 is not an integer."""
        rng = random.Random(37)
        g = DimensionGrouping([0, 0, 0], [0], [1, 2, 3])
        dims = [3, 5, 7]
        cube = make_cube(dims, [rng.randint(-50, 50) for _ in range(math.prod(dims))])
        assert_matches_brute_force(cube, g)

    def test_stretch_box_past_64_cells(self):
        """Stretch (1, 9, 9): an 81-cell level-0 box, folded per axis."""
        rng = random.Random(43)
        g = DimensionGrouping([0, 0, 0], [0], [1, 9, 9])
        dims = [3, 20, 20]
        cube = make_cube(dims, [rng.randint(-1000, 1000) for _ in range(math.prod(dims))])
        assert_matches_brute_force(cube, g)


class TestDifferential:
    def test_singleton_tables_match_brute_force(self):
        """Singleton groupings on random 1-D and 2-D cubes, against brute force."""
        rng = random.Random(41)
        for _ in range(8):
            cube = random_cube(rng, d=rng.randint(1, 2), max_extent=16)
            assert_matches_brute_force(cube, DimensionGrouping.singleton(cube.ndim))

    def test_grouped_tables_match_brute_force(self):
        """Stretch (1, 2) on a fixed 6 x 12 cube, against brute force."""
        grouping = DimensionGrouping([0, 0], [0], [1, 2])
        cube = make_cube([6, 12], [((i * 13 + j * 7) % 23) - 11 for i in range(6) for j in range(12)])
        assert_matches_brute_force(cube, grouping)


def box_arrays(boxes):
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])


class TestQueryMany:
    """Batched queries against the scalar ``query`` (exactly, NaN and the sign
    of zero included) and against the brute-force scan."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_scalar_and_brute_force(self, d):
        rng = random.Random(400 + d)
        for _ in range(6):
            dims = [rng.randint(1, {4: 5, 5: 3, 6: 3}.get(d, 9)) for _ in range(d)]
            n = math.prod(dims)
            ints = make_cube(dims, [rng.randint(-100, 100) for _ in range(n)])
            floats = make_cube(dims, [rng.uniform(-1.0, 1.0) for _ in range(n)])
            boxes = []
            for _ in range(40):
                lo = [rng.randint(0, m - 1) for m in dims]
                boxes.append(QueryBox(lo, [rng.randint(a, m - 1) for a, m in zip(lo, dims)]))
            lo, hi = box_arrays(boxes)
            for cube in (ints, floats):
                for mode, op in (("min", MIN), ("max", MAX)):
                    table = SparseTable(cube, mode=mode)
                    got = table.query_many(lo, hi).tolist()
                    assert table.lookups_last_query == 2**d
                    assert list(map(repr, got)) == [repr(table.query(b)) for b in boxes]
                    assert got == [brute_force_range(cube, b, op) for b in boxes]

    @pytest.mark.parametrize(
        "dims, grouping",
        [
            ([8, 16], DimensionGrouping([0, 0], [0], [1, 2])),
            ([4, 12, 5], DimensionGrouping([0, 0, 1], [0, 2], [1, 3, 1])),
            ([6, 5, 7], DimensionGrouping([0, 1, 0], [0, 1], [1, 1, 1])),
            ([3, 2, 3, 3, 2], DimensionGrouping([0, 0, 1, 1, 2], [0, 2, 4], [1, 2, 1, 1, 1])),
            ([2, 3, 2, 3, 2, 3], DimensionGrouping([0, 1, 0, 1, 2, 2], [0, 1, 4], [1, 1, 2, 1, 1, 3])),
        ],
    )
    def test_grouped_constrained_boxes(self, dims, grouping):
        rng = random.Random(41)
        n = math.prod(dims)
        ints = make_cube(dims, [rng.randint(-50, 50) for _ in range(n)])
        floats = make_cube(dims, [rng.choice((-0.0, 0.0, rng.uniform(-1.0, 1.0))) for _ in range(n)])
        boxes = list(constrained_boxes(dims, grouping))
        for cube in (ints, floats):
            table = SparseTable(cube, grouping)
            got = table.query_many(*box_arrays(boxes)).tolist()
            assert table.lookups_last_query == 2 ** len(dims)
            assert list(map(repr, got)) == [repr(table.query(b)) for b in boxes]
            assert table.lookups_last_query == 2 ** len(dims)
            assert got == [brute_force_range(cube, b, MIN) for b in boxes]

    def test_shape_constraint_enforced(self):
        grouping = DimensionGrouping([0, 0], [0], [1, 2])
        table = SparseTable(make_cube([4, 8], list(range(32))), grouping)
        with pytest.raises(ValueError, match="box 1: .*violates the shape constraint"):
            table.query_many([[0, 0], [0, 0]], [[0, 1], [1, 1]])

    def test_nan_and_negative_zero_follow_scalar(self):
        # NaN cells are rejected by the cube; -0.0 and 0.0 share one rank, so
        # the batched and the scalar query map it back to the same zero.
        with pytest.raises(ValueError, match="finite"):
            make_cube([2, 4], [math.nan, -0.0, 0.0, 1.0, 0.0, 2.0, math.nan, -0.0])
        cube = make_cube([2, 4], [-0.0, -0.0, 0.0, 1.0, 0.0, 2.0, 0.0, -0.0])
        boxes = [
            QueryBox([a0, a1], [b0, b1])
            for a0 in range(2) for b0 in range(a0, 2) for a1 in range(4) for b1 in range(a1, 4)
        ]
        for mode in ("min", "max"):
            table = SparseTable(cube, mode=mode)
            got = table.query_many(*box_arrays(boxes)).tolist()
            assert list(map(repr, got)) == [repr(table.query(b)) for b in boxes]

    @pytest.mark.parametrize(
        "lo, hi, error",
        [
            ([[1, 0]], [[0, 1]], ValueError),  # lo > hi
            ([[0, 0]], [[1, 3]], IndexError),  # hi past the extent
            ([[0]], [[1]], ValueError),  # wrong width
            ([[-1, 0]], [[0, 0]], ValueError),  # negative coordinate
        ],
    )
    def test_bad_boxes(self, lo, hi, error):
        table = SparseTable(make_cube([2, 3], [5, 1, 4, 2, 6, 3]))
        with pytest.raises(error):
            table.query_many(lo, hi)

    @pytest.mark.parametrize("values", [[5, 1, 4, 2, 6, 3], [0.5, -1.0, 4.0, 2.0, 6.0, 3.0]])
    def test_empty_batch(self, values):
        cube = make_cube([2, 3], values)
        table = SparseTable(cube, mode="max")
        table.query(QueryBox([0, 0], [1, 2]))
        got = table.query_many(np.zeros((0, 2)), np.zeros((0, 2)))
        assert got.shape == (0,) and got.dtype == cube.values.dtype
        assert table.lookups_last_query == 0

    @pytest.mark.parametrize(
        "dims, grouping",
        [([9, 6], None), ([4, 12, 5], DimensionGrouping([0, 0, 1], [0, 2], [1, 3, 1]))],
        ids=["singleton", "grouped"],
    )
    def test_levels_share_one_buffer(self, dims, grouping):
        cube = make_cube(dims, [(i * 37) % 11 for i in range(math.prod(dims))])
        table = SparseTable(cube, grouping)
        levels = list(table.tables.values())
        buffer = levels[0].base
        assert buffer.ndim == 1 and all(level.base is buffer for level in levels)
        assert sum(level.nbytes for level in levels) == buffer.nbytes
        offsets = [level.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
                   for level in levels]
        assert offsets == [base * buffer.itemsize for base in table._bases]


class TestRankSpace:
    """Levels hold ranks into ``distinct``; answers map back to the cube's values."""

    @pytest.mark.parametrize("count, dtype", [(256, np.uint8), (257, np.uint16), (65537, np.uint32)])
    def test_levels_take_the_narrowest_rank_dtype(self, count, dtype):
        table = SparseTable(make_cube([count], range(count - 1, -1, -1)), mode="max")
        assert len(table.distinct) == count
        assert {arr.dtype for arr in table.tables.values()} == {np.dtype(dtype)}
        assert table.query(QueryBox([1], [count - 1])) == count - 2

    @pytest.mark.parametrize(
        "dims, values",
        [
            ([3, 4], [-(2**63), 2**63 - 1, 0, -1, 2**63 - 2, 5, -(2**63) + 1, 7, 2**63 - 1, 3, -(2**63), 4]),
            ([6, 7], [(-1) ** i * (1 + i / 64) * 10.0 ** (7 * i - 150) for i in range(42)]),
        ],
        ids=["int64-edges", "distinct-floats"],
    )
    def test_exact_answers_in_the_cube_dtype(self, dims, values):
        cube = make_cube(dims, values)
        boxes = list(constrained_boxes(dims, DimensionGrouping.singleton(len(dims))))
        for mode, op in (("min", MIN), ("max", MAX)):
            table = SparseTable(cube, mode=mode)
            got = table.query_many(*box_arrays(boxes))
            assert got.dtype == cube.values.dtype
            assert got.tolist() == [table.query(b) for b in boxes]
            assert got.tolist() == [brute_force_range(cube, b, op) for b in boxes]
        if cube.kind == "float":
            assert len(table.distinct) == cube.size

    def test_zero_answers_take_the_sign_of_the_kept_zero(self):
        # np.unique merges -0.0 and 0.0 into one distinct value, so every zero
        # answer carries its sign, even over a box of -0.0 cells only.
        cube = make_cube([2, 4], [-0.0, -0.0, 0.0, 1.0, 0.0, 2.0, 0.0, -0.0])
        boxes = list(constrained_boxes(cube.dims, DimensionGrouping.singleton(2)))
        for mode in ("min", "max"):
            table = SparseTable(cube, mode=mode)
            assert table.distinct.tolist() == [0.0, 1.0, 2.0]
            kept = repr(table.distinct[0].item())
            answers = table.query_many(*box_arrays(boxes)).tolist()
            answers += [table.query(b) for b in boxes] + [table.block_value((0, 0), (0, 1))]
            assert [repr(a) for a in answers if a == 0] == [kept] * sum(a == 0 for a in answers)


#: Cubes on both sides of the counting bound (value span at most the cell
#: count), and cubes only ``np.unique`` ranks.
RANK_CASES = {
    "span=cells": np.array([[3, 7, 5], [4, 6, 8]]),
    "span=cells+1": np.array([[3, 7, 5], [4, 6, 9]]),
    "span=cells-at-int64-min": np.array([-2**63 + 3, -2**63, -2**63 + 1, -2**63]),
    "span=cells+1-at-int64-max": np.array([2**63 - 4, 2**63 - 1, 2**63 - 1]),
    "single-value": np.full((3, 2), -5),
    "single-cell": np.array([2**63 - 1]),
    "full-range-int64": np.array([[-2**63, 2**63 - 1], [0, -2**63]]),
    "floats": np.array([[0.5, -0.0, 0.0], [2.0, 0.5, -1e300]]),
    "integral-floats": np.array([1.0, 3.0, 2.0, 1.0]),
}


@pytest.mark.parametrize("values", RANK_CASES.values(), ids=RANK_CASES.keys())
def test_ranks_equal_np_unique(values):
    distinct, inverse = _ranks(values)
    want_distinct, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == want_distinct.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(distinct, want_distinct)
    assert np.array_equal(inverse.reshape(values.shape), want_inverse.reshape(values.shape))
    table = SparseTable(make_cube(values.shape, values))
    assert np.array_equal(table.distinct, want_distinct)
    ranks = want_inverse.reshape(values.shape).astype(np.min_scalar_type(len(want_distinct) - 1))
    level0 = table.tables[(0,) * values.ndim]
    assert level0.dtype == ranks.dtype and np.array_equal(level0, ranks)


@pytest.mark.parametrize("values, counted", [
    (RANK_CASES["span=cells"], True),
    (RANK_CASES["span=cells+1"], False),
    (RANK_CASES["single-value"], True),
    (RANK_CASES["full-range-int64"], False),
    (RANK_CASES["integral-floats"], False),
])
def test_ranks_sort_only_past_the_counting_bound(monkeypatch, values, counted):
    """Counting allocates a presence array as long as the value span, so it
    runs only where that span is at most the cell count."""
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: sorts.append(1) or unique(*args, **kw))
    _ranks(values)
    assert sorts == ([] if counted else [1])
