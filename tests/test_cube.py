"""Tests for data cubes, prefix cubes and the brute-force scan oracle."""

import copy
import functools
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangecube import (
    MAX,
    MIN,
    PRODUCT,
    PrefixCube,
    QueryBox,
    SUM,
    XOR,
    brute_force_range,
    make_cube,
)


def random_cube(rng, max_d=3, max_extent=8, lo=-100, hi=100):
    d = rng.randint(1, max_d)
    dims = [rng.randint(1, max_extent) for _ in range(d)]
    values = [rng.randint(lo, hi) for _ in range(math.prod(dims))]
    return make_cube(dims, values)


def random_box(rng, dims):
    lo, hi = [], []
    for m in dims:
        a = rng.randint(0, m - 1)
        b = rng.randint(a, m - 1)
        lo.append(a)
        hi.append(b)
    return QueryBox(lo, hi)


class TestMakeCube:
    def test_row_major_addressing(self):
        cube = make_cube([2, 2], [1, 2, 3, 4])
        assert cube.cell((0, 0)) == 1
        assert cube.cell((0, 1)) == 2
        assert cube.cell((1, 0)) == 3
        assert cube.cell((1, 1)) == 4

    def test_one_dimensional(self):
        cube = make_cube([3], [7, 7, 7])
        assert cube.dims == (3,)
        assert cube.flat() == [7, 7, 7]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="value count"):
            make_cube([2, 2], [1, 2, 3])

    def test_zero_extent(self):
        with pytest.raises(ValueError, match="extents"):
            make_cube([2, 0], [])

    def test_dimension_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            make_cube([1] * 7, [1])

    def test_float_kind_inferred(self):
        cube = make_cube([2], [1.5, 2.0])
        assert cube.kind == "float"
        assert cube.cell((0,)) == 1.5

    def test_int64_range_enforced(self):
        with pytest.raises(ValueError, match="64-bit"):
            make_cube([1], [1 << 63])
        with pytest.raises(ValueError, match="value -9223372036854775809 does not fit"):
            make_cube([2], [1, -(1 << 63) - 1])
        with pytest.raises(ValueError, match="value 9223372036854775808 does not fit"):
            make_cube([2], np.array([1, 1 << 63], dtype=np.uint64))
        with pytest.raises(ValueError, match=f"value {1 << 70} does not fit"):
            make_cube([2], np.array([1, 1 << 70], dtype=object))
        for source in ([np.uint64(1 << 63)], np.array([np.uint64(1 << 63)], dtype=object)):
            with pytest.raises(ValueError, match="value 9223372036854775808 does not fit"):
                make_cube([1], source)

    @pytest.mark.parametrize(
        "source, kind, expected",
        [
            (np.array([-128, 0, 127], dtype=np.int8), "int", [-128, 0, 127]),
            (np.array([-(2**31), 0, 2**31 - 1], dtype=np.int32), "int", [-(2**31), 0, 2**31 - 1]),
            (np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64), "int", [-(2**63), 0, 2**63 - 1]),
            (np.array([0, 1, 2**63 - 1], dtype=np.uint64), "int", [0, 1, 2**63 - 1]),
            (np.array([0.1, -2.5, 3e38], dtype=np.float32), "float",
             [float(np.float32(0.1)), -2.5, float(np.float32(3e38))]),
            (np.array([0.1, -0.0, 5e-324], dtype=np.float64), "float", [0.1, -0.0, 5e-324]),
            (np.array([True, False, True]), "float", [1.0, 0.0, 1.0]),
            (np.array([1, 2.5, "3"], dtype=object), "float", [1.0, 2.5, 3.0]),
        ],
        ids=["int8", "int32", "int64", "uint64", "float32", "float64", "bool", "object"],
    )
    def test_ndarray_kind_follows_dtype(self, source, kind, expected):
        cube = make_cube([3], source)
        assert cube.kind == kind
        assert cube.flat() == expected
        assert [math.copysign(1, v) for v in cube.flat()] == [
            math.copysign(1, v) for v in expected
        ]
        # The cube holds a copy: changing the source afterwards leaves it alone.
        source[0] = source[1]
        assert cube.flat() == expected

    def test_ndarray_explicit_kind_converts_each_value(self):
        # int() truncates toward zero, as for a list; NaN has no int.
        assert make_cube([2], np.array([1.7, -1.7]), kind="int").flat() == [1, -1]
        assert make_cube([2], np.array([3, 4]), kind="float").flat() == [3.0, 4.0]
        with pytest.raises(ValueError, match="NaN"):
            make_cube([1], np.array([np.nan]), kind="int")

    def test_ndarray_reshaped_to_dims(self):
        source = np.arange(6).reshape(3, 2).T
        cube = make_cube([2, 3], source)
        assert cube.values.flags.c_contiguous
        assert cube.flat() == [0, 2, 4, 1, 3, 5]
        assert make_cube([2, 3], np.arange(6)).flat() == list(range(6))
        with pytest.raises(ValueError, match="value count 5"):
            make_cube([2, 3], np.arange(5))

    def test_list_kind_inferred_per_value(self):
        assert make_cube([3], [True, 2, np.int8(3)]).kind == "int"
        # Never let numpy infer: an int past 2**63 stays an error, not a float.
        with pytest.raises(ValueError, match="does not fit"):
            make_cube([2], [1, 2**63])
        assert make_cube([2], [2**63, 0.5]).flat() == [2.0**63, 0.5]
        with pytest.raises(TypeError):
            make_cube([2], [None, 1.5])


class TestQueryBox:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty box"):
            QueryBox([1], [0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            QueryBox([-1], [0])

    def test_out_of_bounds_detected(self):
        box = QueryBox([0, 0], [1, 2])
        with pytest.raises(IndexError, match="exceeds extent"):
            box.validate_for((2, 2))

    def test_slotted_box_copies_and_pickles(self):
        box = QueryBox([1, 0], [2, 3])
        assert not hasattr(box, "__dict__")
        for twin in (copy.copy(box), copy.deepcopy(box), pickle.loads(pickle.dumps(box))):
            assert twin == box and hash(twin) == hash(box)
        with pytest.raises(AttributeError):
            box.lo = (0, 0)

    def test_full_and_cell(self):
        assert QueryBox.full((2, 3)).hi == (1, 2)
        assert QueryBox.cell((1, 1)).lengths == (1, 1)


class TestBruteForce:
    def test_min_full_box(self):
        cube = make_cube([2, 2], [1, 2, 3, 4])
        assert brute_force_range(cube, QueryBox.full(cube.dims), MIN) == 1

    def test_single_cell(self):
        cube = make_cube([2, 2], [1, 2, 3, 4])
        for coords in QueryBox.full(cube.dims).coords():
            assert brute_force_range(cube, QueryBox.cell(coords), SUM) == cube.cell(coords)

    def test_1d_max(self):
        cube = make_cube([5], [3, 1, 4, 1, 5])
        assert brute_force_range(cube, QueryBox([1], [3]), MAX) == 4


class TestPrefixCube:
    def test_sum_table(self):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        assert pc.table.tolist() == [[1, 3], [4, 10]]

    def test_xor_all_zero(self):
        pc = PrefixCube(make_cube([2, 3], [0] * 6), XOR)
        assert not pc.table.any()

    def test_min_rejected(self):
        with pytest.raises(ValueError, match="inverse"):
            PrefixCube(make_cube([2], [1, 2]), MIN)

    def test_xor_float_cube_rejected(self):
        with pytest.raises(ValueError, match="xor needs an integer cube"):
            PrefixCube(make_cube([2], [1.0, 2.5]), XOR)

    def test_product_zero_cell_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            PrefixCube(make_cube([2], [1, 0]), PRODUCT)

    def test_range_aggregate_examples(self):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        assert pc.range_aggregate(QueryBox([0, 0], [1, 1])) == 10
        assert pc.range_aggregate(QueryBox([1, 1], [1, 1])) == 4
        assert pc.range_aggregate(QueryBox([0, 0], [1, 0])) == 4

    def test_full_box_equals_fold(self):
        rng = random.Random(7)
        for _ in range(20):
            cube = random_cube(rng)
            for op in (SUM, XOR):
                pc = PrefixCube(cube, op)
                assert pc.range_aggregate(QueryBox.full(cube.dims)) == functools.reduce(op.combine, cube.flat(), op.identity)

    def test_lookup_counter_is_exactly_2_pow_d(self):
        rng = random.Random(11)
        for _ in range(20):
            cube = random_cube(rng)
            pc = PrefixCube(cube, SUM)
            box = random_box(rng, cube.dims)
            pc.range_aggregate(box)
            assert pc.lookups_last_query == 2 ** cube.ndim

    def test_product_small_integers_exact(self):
        # Int product tables are rejected; small integers as floats stay exact.
        cube = make_cube([2, 2], [2.0, 3.0, 5.0, 7.0])
        pc = PrefixCube(cube, PRODUCT)
        for coords in QueryBox.full(cube.dims).coords():
            box = QueryBox(coords, coords)
            assert pc.range_aggregate(box) == cube.cell(coords)
        assert pc.range_aggregate(QueryBox([0, 1], [1, 1])) == 21.0

    def test_product_underflow_rejected(self):
        # The prefix products past the first cell round to 0.0.
        with pytest.raises(ValueError, match="product underflow: the build leaves a table entry of 0.0"):
            PrefixCube(make_cube([3], [1e-200, 1e-200, 5.0]), PRODUCT)
        # Every prefix is normal; the box [1, 2] is 1e-310, below the normal floats.
        pc = PrefixCube(make_cube([3], [1e100, 1e-200, 1e-110]), PRODUCT)
        with pytest.raises(ValueError, match="product underflow"):
            pc.range_aggregate(QueryBox([1], [2]))
        assert pc.range_aggregate(QueryBox([0], [1])) == 1e-100
        # Every prefix is normal, but each fold of two corners of the box
        # [1, 1] x [1, 1] reads 1e-320.
        pc = PrefixCube(make_cube([2, 2], [1e-160, 1e10, 1e-10, 1.0]), PRODUCT)
        with pytest.raises(ValueError, match="product underflow"):
            pc.range_aggregate(QueryBox([1, 1], [1, 1]))
        assert pc.range_aggregate(QueryBox([0, 1], [1, 1])) == 1e10

    def test_out_of_bounds_box(self):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        with pytest.raises(IndexError):
            pc.range_aggregate(QueryBox([0, 0], [2, 1]))


@st.composite
def cube_and_box(draw):
    d = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    values = draw(
        st.lists(
            st.integers(-100, 100),
            min_size=math.prod(dims),
            max_size=math.prod(dims),
        )
    )
    lo, hi = [], []
    for m in dims:
        a = draw(st.integers(0, m - 1))
        b = draw(st.integers(a, m - 1))
        lo.append(a)
        hi.append(b)
    return make_cube(dims, values), QueryBox(lo, hi)


@settings(max_examples=150, deadline=None)
@given(cube_and_box())
def test_prefix_matches_brute_force(case):
    cube, box = case
    for op in (SUM, XOR):
        pc = PrefixCube(cube, op)
        assert pc.range_aggregate(box) == brute_force_range(cube, box, op)


def test_random_corpus_sum_xor():
    """200 random cubes x 100 random boxes: prefix cube == brute force, exactly."""
    rng = random.Random(2024)
    for _ in range(50):
        cube = random_cube(rng)
        tables = {op.name: PrefixCube(cube, op) for op in (SUM, XOR)}
        for _ in range(25):
            box = random_box(rng, cube.dims)
            for op in (SUM, XOR):
                assert tables[op.name].range_aggregate(box) == brute_force_range(
                    cube, box, op
                )


def box_arrays(boxes):
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])


def every_box(dims):
    spans = [[(a, b) for a in range(m) for b in range(a, m)] for m in dims]
    for pairs in itertools.product(*spans):
        yield QueryBox([a for a, _ in pairs], [b for _, b in pairs])


class TestRangeAggregateMany:
    """Batched reads against the scalar method (exactly, sign of zero included)
    and against the brute-force scan."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_scalar_and_brute_force(self, d):
        rng = random.Random(300 + d)
        for _ in range(8):
            dims = [rng.randint(1, {4: 4, 5: 3, 6: 3}.get(d, 7)) for _ in range(d)]
            n = math.prod(dims)
            ints = make_cube(dims, [rng.randint(-100, 100) for _ in range(n)])
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            floats = make_cube(dims, [s * rng.uniform(0.5, 2.0) for s in signs])
            boxes = [random_box(rng, dims) for _ in range(40)]
            lo, hi = box_arrays(boxes)
            for cube, op in ((ints, SUM), (ints, XOR), (floats, SUM), (floats, PRODUCT)):
                pc = PrefixCube(cube, op)
                got = pc.range_aggregate_many(lo, hi).tolist()
                assert pc.lookups_last_query == 2**d
                assert list(map(repr, got)) == [repr(pc.range_aggregate(b)) for b in boxes]
                expected = [brute_force_range(cube, b, op) for b in boxes]
                if cube.kind == "int":
                    assert got == expected
                else:
                    assert all(math.isclose(g, e, rel_tol=1e-9) for g, e in zip(got, expected))

    def test_negative_zero_cells_follow_scalar(self):
        cube = make_cube([2, 3], [-0.0, 0.0, -0.0, 1.5, -0.0, -1.5])
        pc = PrefixCube(cube, SUM)
        boxes = list(every_box(cube.dims))
        got = pc.range_aggregate_many(*box_arrays(boxes)).tolist()
        assert list(map(repr, got)) == [repr(pc.range_aggregate(b)) for b in boxes]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_boxes_at_lo_zero_match_scalar(self, d):
        # A box with lo = 0 on an axis reads that axis's empty prefix.
        rng = random.Random(900 + d)
        dims = [rng.randint(2, 5) for _ in range(d)]
        n = math.prod(dims)
        ints = make_cube(dims, [rng.randint(-100, 100) for _ in range(n)])
        floats = make_cube(dims, [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(n)])
        boxes = []
        for mask in range(1 << d):
            for _ in range(3):
                box = random_box(rng, dims)
                boxes.append(QueryBox([0 if mask >> j & 1 else a for j, a in enumerate(box.lo)], box.hi))
        lo, hi = box_arrays(boxes)
        for cube, op in ((ints, SUM), (ints, XOR), (floats, PRODUCT)):
            pc = PrefixCube(cube, op)
            got = pc.range_aggregate_many(lo, hi).tolist()
            assert list(map(repr, got)) == [repr(pc.range_aggregate(b)) for b in boxes]
            expected = [brute_force_range(cube, b, op) for b in boxes]
            if cube.kind == "int":
                assert got == expected
            else:
                assert all(math.isclose(g, e, rel_tol=1e-9) for g, e in zip(got, expected))

    def test_float_sum_zero_answer_is_positive(self):
        # Every box here sums to zero exactly; both reads answer +0.0.
        cube = make_cube([2, 2, 2], [1.5, -1.5, -0.0, -0.0, -2.25, 2.25, -0.0, 0.0])
        pc = PrefixCube(cube, SUM)
        boxes = [QueryBox([0, 0, 0], [1, 1, 1]), QueryBox([0, 1, 0], [1, 1, 1]),
                 QueryBox([1, 0, 0], [1, 0, 1]), QueryBox([0, 0, 0], [0, 0, 1]),
                 QueryBox([0, 1, 1], [0, 1, 1])]
        got = pc.range_aggregate_many(*box_arrays(boxes)).tolist()
        assert list(map(repr, got)) == [repr(pc.range_aggregate(b)) for b in boxes] == ["0.0"] * 5

    def test_int_sum_matches_where_scalar_fits_int64(self):
        # A table that could wrap past 2**63 is rejected at build; at the
        # bound's edge every batched answer equals the scalar one and the scan.
        with pytest.raises(ValueError, match="overflow risk"):
            PrefixCube(make_cube([3], [1 << 62, 1 << 62, -(1 << 62)]), SUM)
        edge = (1 << 62) // 3  # 3 * edge < 2**62
        cube = make_cube([3], [edge, edge, -edge])
        pc = PrefixCube(cube, SUM)
        boxes = list(every_box(cube.dims))
        got = pc.range_aggregate_many(*box_arrays(boxes)).tolist()
        assert got == [pc.range_aggregate(b) for b in boxes]
        assert got == [brute_force_range(cube, b, SUM) for b in boxes]

    def test_product_underflow_rejected(self):
        # The box [1, 2] is 1e-310, below the normal floats.
        pc = PrefixCube(make_cube([3], [1e100, 1e-200, 1e-110]), PRODUCT)
        assert pc.range_aggregate_many([[0]], [[1]]).tolist() == [1e-100]
        with pytest.raises(ValueError, match="underflow"):
            pc.range_aggregate_many([[0], [1]], [[0], [2]])

    def test_int_product_rejected(self):
        # Int prefix products would wrap, so the build refuses them.
        with pytest.raises(ValueError, match="float cube"):
            PrefixCube(make_cube([2, 2], [2, 3, 5, 7]), PRODUCT)

    @pytest.mark.parametrize(
        "lo, hi, error",
        [
            ([[0, 0], [1, 1]], [[1, 1], [0, 1]], ValueError),  # lo > hi in box 1
            ([[0, 0]], [[2, 1]], IndexError),  # hi past the extent
            ([[0, 0, 0]], [[1, 1, 1]], ValueError),  # wrong width
            ([[-1, 0]], [[1, 1]], ValueError),  # negative coordinate
            ([[0.0, 0.0]], [[1.0, 1.0]], ValueError),  # not integers
            ([[0, 0]], [[1, 1], [1, 1]], ValueError),  # lo and hi differ in shape
            ([0, 0], [1, 1], ValueError),  # not N x d
        ],
    )
    def test_bad_boxes(self, lo, hi, error):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        with pytest.raises(error):
            pc.range_aggregate_many(lo, hi)

    def test_first_bad_box_named(self):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        with pytest.raises(IndexError, match="box 1: .* extent 2 in dimension 0: hi 5"):
            pc.range_aggregate_many([[0, 0], [0, 0], [0, 0]], [[1, 1], [5, 1], [1, 9]])

    def test_empty_batch(self):
        pc = PrefixCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        empty = np.zeros((0, 2), dtype=np.int64)
        assert pc.range_aggregate_many(empty, empty).tolist() == []
