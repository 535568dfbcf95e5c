"""The numeric domain every structure accepts, checked at its edges.

Int sum cubes keep Σ|cells| below ``2**63``; product needs a float cube; float cells, deltas and scales are finite.  What a structure cannot
answer exactly raises a ``ValueError`` that names the cause.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rangecube import (
    MAX,
    MIN,
    PRODUCT,
    SUM,
    XOR,
    CubeMedianIndex,
    PrefixCube,
    QueryBox,
    SparseTable,
    brute_force_median,
    brute_force_range,
    cube_range_weighted_median,
    float_product_error_bound,
    float_sum_error_bound,
    make_cube,
)
from rangecube.dynamic import FenwickCube, HybridCube
from rangecube.rmq import DimensionGrouping, grouped_base_case

TABLES = {
    "prefix": PrefixCube,
    "fenwick": FenwickCube,
    "hybrid": lambda cube, op: HybridCube(cube, op, k=min(2, max(cube.dims))),
}

GROUPING = DimensionGrouping([0], [0], [1])

FLOAT_MAX = float(np.finfo(np.float64).max)
TINY = float(np.finfo(np.float64).tiny)
EPS = float(np.finfo(np.float64).eps)


def read(structure, box):
    """One box read, whatever the structure calls it."""
    if isinstance(structure, PrefixCube):
        return structure.range_aggregate(box)
    return structure.range_query(box)


class TestIntSumBound:
    @pytest.mark.parametrize("name", sorted(TABLES))
    @pytest.mark.parametrize(
        "values",
        [
            [2**62, 2**62, -(2**62)], [2**62, 2**62, 1, 1], [-(2**63), 0], [2**62, -(2**62)],
            [-(2**63)] * 3 + [7], [-(2**63)] * 4 + [7],
        ],
        ids=["wrap", "hybrid-repro", "int64-min", "at-bound", "past-2**64", "past-2**65"],
    )
    def test_cube_that_could_wrap_rejected(self, name, values):
        # Before tables were checked the box [0, 1] of the first two read
        # -2**63, not 2**63.
        mass = sum(map(abs, values))
        with pytest.raises(ValueError, match=rf"int sum overflow: the sum of \|cells\| is {mass};"):
            TABLES[name](make_cube([len(values)], values), SUM)

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_updates_past_bound_rejected(self, name):
        structure = TABLES[name](make_cube([2], [0, 0]), SUM)
        structure.update([0], 2**63 - 1)
        before = structure.table.copy()
        for cell, delta in (([1], 1), ([1], -1), ([0], 1)):
            with pytest.raises(ValueError, match=rf"after the update is {2**63}"):
                structure.update(cell, delta)
        assert (structure.table == before).all()
        structure.update([0], -1)
        structure.update([1], -1)
        assert read(structure, QueryBox([0], [1])) == 2**63 - 3

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    @pytest.mark.parametrize("op", [SUM, XOR], ids=["sum", "xor"])
    def test_float_delta_rejected(self, name, op):
        # At the parent a sum delta of -1.5 truncated the table cells and the
        # shadow apart: the box [0, 3] of 1 2 3 4 read 8 where the cells sum to 9.
        structure = TABLES[name](make_cube([4], [1, 2, 3, 4]), op)
        before = structure.table.copy()
        with pytest.raises(ValueError, match="-1.5 is not an integer"):
            structure.update([0], -1.5)
        assert (structure.table == before).all()
        structure.update([0], np.int64(-1))
        assert structure.point_read([0]) == op.combine(1, -1)
        if op is SUM:  # a numpy delta is combined exactly, not in int64
            with pytest.raises(ValueError, match=f"is {2**63 + 8}"):
                structure.update([1], np.int64(2**63 - 1))

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_bound_edge_exact(self, name):
        # Σ|cells| = 2**63 - 1: six cells of magnitude 2**63 // 6, one of them one more.
        edge = (1 << 63) // 6
        cube = make_cube([2, 3], [edge, -edge, edge + 1, edge, edge, -edge])
        structure = TABLES[name](cube, SUM)
        for box in (QueryBox([0, 0], [1, 2]), QueryBox([1, 0], [1, 1]), QueryBox([0, 1], [0, 1])):
            assert read(structure, box) == brute_force_range(cube, box, SUM)


    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "one-big-cell"])
    def test_cubes_the_old_bound_refused_are_exact(self, skewed):
        # |peak| * cells reached 2**62 on both: a 128 x 128 cube uniform in
        # ±2**49 (Σ|cells| near 2**62), and small cells with one of 2**55.
        rng = np.random.default_rng(7)
        if skewed:
            values = rng.integers(-100, 101, size=(128, 128))
            values[5, 9] = 2**55
        else:
            values = rng.integers(-(2**49), 2**49, size=(128, 128))
        cube = make_cube([128, 128], values)
        exact = np.zeros((129, 129), dtype=object)
        exact[1:, 1:] = values.astype(object).cumsum(0).cumsum(1)
        lo = rng.integers(0, 128, size=(200, 2))
        hi = lo + (rng.random((200, 2)) * (128 - lo)).astype(np.int64)
        want = [
            exact[b0 + 1, b1 + 1] - exact[a0, b1 + 1] - exact[b0 + 1, a1] + exact[a0, a1]
            for (a0, a1), (b0, b1) in zip(lo.tolist(), hi.tolist())
        ]
        for name in sorted(TABLES):
            structure = TABLES[name](cube, SUM)
            assert [read(structure, QueryBox(a, b)) for a, b in zip(lo, hi)] == want, name
        assert PrefixCube(cube, SUM).range_aggregate_many(lo, hi).tolist() == want

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_a_cell_of_a_32_cubed_table_takes_2_to_62(self, name):
        # The old bound capped every cell of a 32**3 cube below 2**47.
        structure = TABLES[name](make_cube([32, 32, 32], [0] * 32**3), SUM)
        structure.update((5, 6, 7), 2**62)
        structure.update((31, 31, 31), -(2**62) + 1)
        assert read(structure, QueryBox([0, 0, 0], [31, 31, 31])) == 1
        assert read(structure, QueryBox([5, 6, 7], [30, 31, 31])) == 2**62

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_set_value_whose_delta_leaves_int64(self, name):
        # Each set keeps Σ|cells| below 2**63, but its delta 2**63 or
        # -(2**63 - 1) - 2**62 does not fit int64.
        structure = TABLES[name](make_cube([2], [-(2**62), 0]), SUM)
        for cell, value in (([0], 2**62), ([1], -(2**62) + 1), ([0], -(2**62)), ([1], 2**62 - 1)):
            structure.set_value(cell, value)
            cube = make_cube([2], structure.shadow)
            for box in (QueryBox([0], [0]), QueryBox([1], [1]), QueryBox([0], [1])):
                assert read(structure, box) == brute_force_range(cube, box, SUM)
        before = structure.table.copy()
        with pytest.raises(ValueError, match=rf"after the update is {2**63}"):
            structure.set_value([1], 2**62)
        assert (structure.table == before).all()
        assert structure.shadow.tolist() == [-(2**62), 2**62 - 1]


class TestProduct:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_int_product_rejected_float_exact(self, name):
        # At the parent the int64 prefix products wrapped to 0 and the box
        # [2, 2] raised "underflow"; its answer is 3.
        with pytest.raises(ValueError, match="float cube"):
            TABLES[name](make_cube([3], [2**40, 2**40, 3]), PRODUCT)
        structure = TABLES[name](make_cube([3], [2.0**40, 2.0**40, 3.0]), PRODUCT)
        assert read(structure, QueryBox([2], [2])) == 3.0
        assert read(structure, QueryBox([0], [1])) == 2.0**80

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_subnormal_table_entry_rejected(self, name):
        # A table entry of 1e-310 is subnormal: at the parent the box [1, 2]
        # read 0.9999999999999969 against a tolerance of (7.8e-16, 0).
        with pytest.raises(ValueError, match="product underflow: the build leaves a table entry of 1e-310"):
            TABLES[name](make_cube([3], [1e-300, 1e-10, 1e10]), PRODUCT)
        structure = TABLES[name](make_cube([3], [1e-290, 1e-10, 1e10]), PRODUCT)
        assert read(structure, QueryBox([1], [2])) == 1.0

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_float_overflow_named(self, name):
        structure = TABLES[name](make_cube([3], [1e200, 1e200, 5.0]), PRODUCT)
        assert read(structure, QueryBox([0], [0])) == 1e200
        with pytest.raises(ValueError, match="float overflow"):
            read(structure, QueryBox([2], [2]))


class TestNonFinite:
    @pytest.mark.parametrize(
        "dims, values, message",
        [
            ([2], [math.inf, 1.0], r"cell \(0,\) holds inf"),
            ([4], [1.0, math.nan, 0.5, 2.0], r"cell \(1,\) holds nan"),
            ([2, 2], np.array([[1.0, 2.0], [-np.inf, np.nan]]), r"cell \(1, 0\) holds -inf"),
            ([2], np.array([np.float32(1), np.float32(np.inf)]), r"cell \(1,\) holds inf"),
        ],
    )
    def test_cells_rejected(self, dims, values, message):
        # The parent answered nan for a sum over [inf, 1.0] and for a
        # SparseTable min over [1.0, nan, 0.5, 2.0] (brute force: 0.5).
        with pytest.raises(ValueError, match=message):
            make_cube(dims, values)

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_float_updates_rejected(self, name):
        # At the parent a Fenwick update by inf made the sums inf and nan.
        structure = TABLES[name](make_cube([2], [1.0, 2.0]), SUM)
        for delta in (math.inf, -math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="is not a finite float"):
                structure.update([0], delta)
        structure.update([0], 1e308)
        before = structure.table.copy()
        with pytest.raises(ValueError, match=r"set cell \(0,\) to inf, which is not finite"):
            structure.update([0], 1e308)
        with pytest.raises(ValueError, match="not a finite float"):
            structure.set_value([1], math.nan)
        assert (structure.table == before).all()
        assert read(structure, QueryBox([0], [1])) == 1e308 + 1.0 + 2.0

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_float_sum_overflow_named(self, name):
        # At the parent the box [2, 2] answered nan (inf - inf).
        structure = TABLES[name](make_cube([3], [1e308, 1e308, 1.0]), SUM)
        assert read(structure, QueryBox([0], [0])) == 1e308
        with pytest.raises(ValueError, match="float overflow"):
            read(structure, QueryBox([2], [2]))

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_answer_overflow_named(self, name):
        # Every prefix is finite; the box [1, 2] sums to 2e308.
        structure = TABLES[name](make_cube([3], [-1e308, 1e308, 1e308]), SUM)
        assert read(structure, QueryBox([0], [1])) == 0.0
        with pytest.raises(ValueError, match="float overflow"):
            read(structure, QueryBox([1], [2]))

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_prefix_query_overflow_named(self, name):
        structure = TABLES[name](make_cube([3], [1e308, 1e308, 1.0]), SUM)
        assert structure.prefix_query([0]) == 1e308
        with pytest.raises(ValueError, match="float overflow"):
            structure.prefix_query([2])

    def test_batched_reads_named(self):
        pc = PrefixCube(make_cube([3], [1e308, 1e308, 1.0]), SUM)
        assert pc.range_aggregate_many([[0]], [[0]]).tolist() == [1e308]
        with pytest.raises(ValueError, match="float overflow"):
            pc.range_aggregate_many([[0], [2]], [[0], [2]])
        pc = PrefixCube(make_cube([3], [-1e308, 1e308, 1e308]), SUM)
        with pytest.raises(ValueError, match="float overflow"):
            pc.range_aggregate_many([[1]], [[2]])


class TestExactEdges:
    """Values exactly at ``tiny`` (the smallest normal float) and at the
    largest float are inside the domain, so each ``<`` and ``<=`` there
    is pinned."""

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_tiny_product_cell_and_entry_accepted(self, name):
        cell = TABLES[name](make_cube([2], [TINY, 2.0]), PRODUCT)
        assert read(cell, QueryBox([0], [0])) == TINY
        # No cell is tiny, but the prefix over both and the box answer are.
        entry = TABLES[name](make_cube([2], [0.5, 2 * TINY]), PRODUCT)
        assert read(entry, QueryBox([0], [1])) == TINY
        if name == "prefix":
            assert entry.range_aggregate_many([[0]], [[1]]).tolist() == [TINY]

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_tiny_product_update_accepted(self, name):
        updated = TABLES[name](make_cube([2], [1.0, 4.0]), PRODUCT)
        updated.update([0], TINY)  # the cell becomes tiny
        assert updated.shadow.tolist() == [TINY, 4.0]
        assert read(updated, QueryBox([0], [0])) == TINY
        set_ = TABLES[name](make_cube([2], [4.0, 1.0]), PRODUCT)
        set_.set_value([0], 4 * TINY)  # the delta is tiny
        assert set_.shadow.tolist() == [4 * TINY, 1.0]
        assert read(set_, QueryBox([0], [1])) == 4 * TINY

    @pytest.mark.parametrize("name", ["fenwick", "hybrid"])
    def test_largest_float_delta_and_cell_accepted(self, name):
        structure = TABLES[name](make_cube([2], [-FLOAT_MAX, 0.0]), SUM)
        structure.update([0], FLOAT_MAX)  # the delta is the largest float
        structure.update([1], FLOAT_MAX)  # and so is the cell it leaves
        structure.set_value([0], -FLOAT_MAX)
        assert structure.shadow.tolist() == [-FLOAT_MAX, FLOAT_MAX]
        assert read(structure, QueryBox([1], [1])) == FLOAT_MAX


class TestMedianDomain:
    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CubeMedianIndex(make_cube([3], [1.0, math.nan, 1.0]), [[0, 1, 2]])

    @pytest.mark.parametrize(
        "scale, shown",
        [([0, math.nan, 2], "nan"), ([0, 1, math.inf], "inf"), ([-math.inf, 0, 1], "-inf")],
    )
    def test_non_finite_scale_rejected(self, scale, shown):
        # A NaN scale passed the sortedness test: [[0, nan, 2]] answered (nan,).
        with pytest.raises(ValueError, match=f"scale list 0 holds {shown}; scales must be finite"):
            CubeMedianIndex(make_cube([3], [1, 1, 1]), [scale])

    @pytest.mark.parametrize(
        "weights, scale, message",
        [
            # Each leaked OverflowError from the int64/float64 scale conversion.
            ([1.0, 1.0], [0, 10**400], "scale list 0 holds an int past the float range"),
            ([0, 0], [-(10**400), 0], "scale list 0 holds an int past the float range"),
            ([0, 0], [0, 2**63], "scale list 0 holds an int past int64"),
            ([0, 0], [-(2**63) - 1, 0], "scale list 0 holds an int past int64"),
        ],
    )
    def test_scale_past_the_table_dtype_rejected(self, weights, scale, message):
        with pytest.raises(ValueError, match=message):
            CubeMedianIndex(make_cube([2], weights), [scale])

    @pytest.mark.parametrize("scale", [[0, 2**62], [-(2**63), 2**63 - 1]])
    def test_all_zero_int_cube_keeps_int64_scales(self, scale):
        """No table can wrap on an all-zero cube, so any int64 scale builds."""
        idx = CubeMedianIndex(make_cube([2], [0, 0]), [scale])
        assert idx.psd_cubes[0].dtype == np.int64
        assert not idx.psd_cubes[0].any()

    def test_float_table_overflow_named(self):
        idx = CubeMedianIndex(make_cube([2], [1e308, 1e308]), [[0, 1]])
        with pytest.raises(ValueError, match="float overflow"):
            cube_range_weighted_median(idx, QueryBox([0], [1]))
        assert cube_range_weighted_median(idx, QueryBox([0], [0])).cost == 0.0


class TestCoordinates:
    @pytest.mark.parametrize(
        "lo, hi",
        [(0.5, 1.7), (0, 1.0), ("0", 1), (np.float64(1), 1), (np.int64(0), np.int32(1)), (True, 2)],
    )
    def test_scalar_and_batched_reads_agree(self, lo, hi):
        # At the parent the scalar read truncated 0.5 and 1.7 and answered
        # the box [0, 1] (3), while the batched read raised.
        pc = PrefixCube(make_cube([4], [1, 2, 3, 4]), SUM)
        lo_arr, hi_arr = np.array([[lo]]), np.array([[hi]])
        if lo_arr.dtype.kind in "biu" and hi_arr.dtype.kind in "biu":
            answer = pc.range_aggregate(QueryBox([lo], [hi]))
            assert pc.range_aggregate_many(lo_arr, hi_arr).tolist() == [answer]
            assert answer == sum(range(int(lo) + 1, int(hi) + 2))
            return
        with pytest.raises(ValueError, match="box coordinate must be an integer"):
            pc.range_aggregate(QueryBox([lo], [hi]))
        with pytest.raises(ValueError, match="box coordinates must be 64-bit integers"):
            pc.range_aggregate_many(lo_arr, hi_arr)

    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: FenwickCube(make_cube([4], [1, 2, 3, 4]), SUM).update((1.9,), 5), "1.9"),
            (lambda: HybridCube(make_cube([4], [1, 2, 3, 4]), SUM).point_read(("2",)), "'2'"),
            (lambda: make_cube([4], [1, 2, 3, 4]).cell((1.5,)), "1.5"),
            (lambda: grouped_base_case(make_cube([4], [1, 2, 3, 4]), GROUPING, (1.5,)), "1.5"),
            (lambda: grouped_base_case(make_cube([4], [1, 2, 3, 4]), GROUPING, ("1",)), "'1'"),
            (lambda: SparseTable(make_cube([4], [1, 2, 3, 4])).block_value((1.5,), (0,)), "1.5"),
            (lambda: SparseTable(make_cube([4], [1, 2, 3, 4])).block_value((1,), (0.5,)), "0.5"),
        ],
        ids=["update", "point-read", "cell", "grouped-anchor", "grouped-anchor-str", "block-anchor", "block-level"],
    )
    def test_non_integer_rejected(self, call, shown):
        # At the parent each truncated the value or leaked numpy's TypeError.
        with pytest.raises(ValueError, match=f"must be an integer, got {shown}$"):
            call()

    def test_numpy_integers_accepted(self):
        cube = make_cube([4], [1, 2, 3, 4])
        fenwick = FenwickCube(cube, SUM)
        fenwick.update((np.int64(1),), 5)
        assert fenwick.point_read([np.uint8(1)]) == cube.cell((np.int32(1),)) + 5 == 7
        assert grouped_base_case(cube, GROUPING, (np.int64(2),)) == 3
        assert SparseTable(cube).block_value((np.int64(2),), (np.int64(1),)) == 3


def test_float_sum_error_bound():
    assert float_sum_error_bound(1, 3, 0.6) == 0.6 * 8 * 3 * EPS
    assert float_sum_error_bound(2, 4, Fraction(3, 2)) == 1.5 * 16 * 4 * EPS
    for mass in (FLOAT_MAX, math.inf, Fraction(10**400), 1e307):
        assert float_sum_error_bound(6, 10**6, mass) == FLOAT_MAX


def test_float_product_error_bound():
    n = 4 * 5 + 1
    assert float_product_error_bound(2, 5) == n * EPS / 2 / (1 - n * EPS / 2)
    assert float_product_error_bound(6, 2**46) == 1.0


# -- edge values against the brute-force scan ---------------------------------


def int_edges(cells: int) -> list:
    return [
        0, 1, -1, 2**62 // cells, -(2**62 // cells), (2**63 - 1) // cells,
        2**62, -(2**62), -(2**63), 2**63 - 1,
    ]


FINITE_FLOAT_EDGES = [-0.0, 5e-324, 1e308, -1e308, 1e-200, FLOAT_MAX]
FLOAT_EDGES = FINITE_FLOAT_EDGES + [math.nan, math.inf, -math.inf]

#: Words that name the cause of each rejection this test may meet.
CAUSES = (
    "overflow", "underflow", "finite", "float cube", "integer cube", "zero",
    "does not fit", "nonnegative", "no positive weight",
)


def named(exc: ValueError) -> bool:
    return any(cause in str(exc) for cause in CAUSES)


def outcome(call):
    """``call()``, or the ValueError it raised (which must name its cause)."""
    try:
        return call()
    except ValueError as exc:
        assert named(exc), exc
        return exc


@st.composite
def edge_cases(draw):
    d = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    cells = math.prod(dims)
    kind = draw(st.sampled_from(["int", "float"]))
    # Half the cubes draw only values every structure accepts.
    pool = int_edges(cells) if kind == "int" else FLOAT_EDGES
    accepted = pool[:6] if kind == "int" else FINITE_FLOAT_EDGES
    chosen = draw(st.sampled_from([accepted, pool]))
    values = draw(st.lists(st.sampled_from(chosen), min_size=cells, max_size=cells))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = [draw(st.integers(0, m - 1)) for m in dims]
        boxes.append(QueryBox(lo, [draw(st.integers(a, m - 1)) for a, m in zip(lo, dims)]))
    updates = draw(
        st.lists(
            st.tuples(st.tuples(*(st.integers(0, m - 1) for m in dims)), st.sampled_from(pool)),
            max_size=6,
        )
    )
    return dims, kind, values, boxes, updates


def agrees(got, cube, box, structure) -> bool:
    """``got`` equals the scan: exactly for int cubes, within the structure's
    ``tolerance`` for floats.  Where the twin rounds to ±inf, the read must
    raise instead."""
    expected = brute_force_range(cube, box, structure.op)
    if cube.kind == "int":
        return got == expected
    rel_tol, abs_tol = structure.tolerance
    return math.isfinite(expected) and math.isclose(got, expected, rel_tol=rel_tol, abs_tol=abs_tol)


def check_reads(structure, cube, boxes):
    answers = [outcome(lambda b=b: read(structure, b)) for b in boxes]
    for box, got in zip(boxes, answers):
        if not isinstance(got, ValueError):
            assert agrees(got, cube, box, structure), (box, got)
    return answers


@settings(max_examples=250, deadline=None)
@given(edge_cases())
# The Fenwick node over both cells held 1e308 and absorbed 5e-324 before the
# second update cancelled it: the read is 0.0 where the cells sum to 5e-324.
@example(([2, 1], "float", [-0.0, 5e-324], [QueryBox([0, 0], [1, 0])], [((0, 0), 1e308), ((0, 0), -1e308)]))
# Half the weights scaled by 1e-6: a cost off by 5.5e-16, past a box-weight bound (5.9e-19).
@example(([2, 2], "float", [0.7, 2.5, 2.5e-06, 1e-07], [QueryBox([1, 0], [1, 1])], []))
def test_edge_values_raise_or_match_brute_force(case):
    dims, kind, values, boxes, updates = case
    cube = outcome(lambda: make_cube(dims, values, kind=kind))
    if isinstance(cube, ValueError):
        assert kind == "float" and "finite" in str(cube)
        return
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    for op in (SUM, XOR, PRODUCT):
        pc = outcome(lambda: PrefixCube(cube, op))
        if isinstance(pc, ValueError):
            continue
        scalar = check_reads(pc, cube, boxes)
        batch = outcome(lambda: pc.range_aggregate_many(lo, hi))
        if isinstance(batch, ValueError):
            assert any(isinstance(a, ValueError) for a in scalar)
        else:
            assert list(map(repr, batch.tolist())) == list(map(repr, scalar))
    for name in ("fenwick", "hybrid"):
        for op in (SUM, XOR, PRODUCT):
            structure = outcome(lambda: TABLES[name](cube, op))
            if isinstance(structure, ValueError):
                continue
            twin = make_cube(dims, cube.values)
            for coords, delta in updates:
                if isinstance(outcome(lambda: structure.update(coords, delta)), ValueError):
                    assert structure.point_read(coords) == twin.cell(coords)
                else:
                    twin.values[coords] = op.combine(twin.cell(coords), delta)
            assert (structure.shadow == twin.values).all()
            check_reads(structure, twin, boxes)
    for mode, op in (("min", MIN), ("max", MAX)):
        table = SparseTable(cube, mode=mode)
        for box, got in zip(boxes, table.query_many(lo, hi).tolist()):
            assert got == table.query(box) == brute_force_range(cube, box, op)
    check_median(cube, boxes)


def check_median(cube, boxes):
    scales = [list(range(-1, 2 * m - 1, 2)) for m in cube.dims]
    idx = outcome(lambda: CubeMedianIndex(cube, scales))
    if isinstance(idx, ValueError):
        return
    for box in boxes:
        res = outcome(lambda: cube_range_weighted_median(idx, box))
        if isinstance(res, ValueError):
            continue
        best = brute_force_median(cube, scales, box)
        if cube.kind == "int":
            assert res.cost == best
        else:
            assert math.isclose(res.cost, best, rel_tol=1e-9, abs_tol=idx.cost_error_bound), (box, res)
