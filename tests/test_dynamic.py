"""Tests for the multidimensional Fenwick tree and the hybrid block partition."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangecube import (
    MIN,
    PRODUCT,
    PrefixCube,
    QueryBox,
    SUM,
    XOR,
    brute_force_range,
    float_sum_error_bound,
    make_cube,
)
from rangecube.dynamic import FenwickCube, HybridCube


def zero_cube(dims):
    return make_cube(dims, [0] * math.prod(dims))


def random_cube(rng, d=None, max_extent=8):
    d = d or rng.randint(1, 3)
    dims = [rng.randint(1, max_extent) for _ in range(d)]
    return make_cube(dims, [rng.randint(-100, 100) for _ in range(math.prod(dims))])


def shadow_prefix(cube_values, b, op):
    box = QueryBox([0] * len(b), b)
    return functools.reduce(op.combine, cube_values[box.slices()].flatten().tolist(), op.identity)


class TestFenwick:
    def test_zero_cube_identity_tree(self):
        fc = FenwickCube(zero_cube([4, 4]), SUM)
        assert fc.table.shape == (4, 4)
        assert not fc.table.any()

    def test_1d_prefix(self):
        fc = FenwickCube(make_cube([4], [1, 2, 3, 4]), SUM)
        assert fc.prefix_query((2,)) == 6

    def test_2d_xor_full_prefix(self):
        fc = FenwickCube(make_cube([2, 2], [1, 2, 3, 4]), XOR)
        assert fc.prefix_query((1, 1)) == 1 ^ 2 ^ 3 ^ 4

    def test_min_rejected(self):
        with pytest.raises(ValueError, match="inverse"):
            FenwickCube(zero_cube([4]), MIN)

    def test_update_sequence(self):
        fc = FenwickCube(zero_cube([4, 4]), SUM)
        fc.update((2, 3), 5)
        assert fc.prefix_query((3, 3)) == 5
        fc.update((0, 0), 2)
        assert fc.prefix_query((3, 3)) == 7
        assert fc.prefix_query((1, 3)) == 2

    def test_range_query(self):
        fc = FenwickCube(make_cube([2, 2], [1, 2, 3, 4]), SUM)
        assert fc.range_query(QueryBox([1, 0], [1, 1])) == 7
        assert fc.range_query(QueryBox([0, 1], [0, 1])) == 2

    def test_counter_bound(self):
        rng = random.Random(13)
        cube = random_cube(rng, d=3, max_extent=8)
        fc = FenwickCube(cube, SUM)
        bound = fc.op_cell_bound
        for _ in range(50):
            coords = [rng.randint(0, m - 1) for m in cube.dims]
            fc.update(coords, rng.randint(-5, 5))
            assert fc.cells_touched_last_update <= bound
            fc.prefix_query(coords)
            assert fc.cells_touched_last_query <= bound

    def test_point_read_and_set_value(self):
        fc = FenwickCube(make_cube([3], [5, 6, 7]), SUM)
        fc.set_value((1,), 100)
        assert fc.point_read((1,)) == 100
        assert fc.prefix_query((2,)) == 5 + 100 + 7

    def test_xor_full_box_is_fold(self):
        rng = random.Random(21)
        cube = random_cube(rng, d=2, max_extent=5)
        fc = FenwickCube(cube, XOR)
        assert fc.range_query(QueryBox.full(cube.dims)) == functools.reduce(XOR.combine, cube.flat(), XOR.identity)

    def test_inverse_cancellation(self):
        cube = make_cube([3, 3], range(9))
        fc = FenwickCube(cube, SUM)
        before = [fc.prefix_query((i, j)) for i in range(3) for j in range(3)]
        fc.update((1, 2), 42)
        fc.update((1, 2), -42)
        assert [fc.prefix_query((i, j)) for i in range(3) for j in range(3)] == before


class TestHybrid:
    def test_zero_cube_identity_cells(self):
        hc = HybridCube(zero_cube([4, 4]), SUM, k=2, q=1)
        assert not hc.table.any()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="block size"):
            HybridCube(zero_cube([4]), SUM, k=0)
        with pytest.raises(ValueError, match="split count"):
            HybridCube(zero_cube([4]), SUM, q=2)

    def test_defaults(self):
        hc = HybridCube(zero_cube([5, 5]), SUM)
        assert hc.k == 3  # ceil(sqrt(5))
        assert hc.q == 1

    @pytest.mark.parametrize("dims, k, q, update, query", [([4, 4], 2, 1, 8, 8), ([9, 2, 2], 3, 1, 72, 24)])
    def test_stated_cell_bounds(self, dims, k, q, update, query):
        # 2**q * (k + ceil(n/k))**(d-q) and (k + ceil(n/k))**q * 2**(d-q).
        hc = HybridCube(zero_cube(dims), SUM, k=k, q=q)
        assert (hc.update_cell_bound, hc.query_cell_bound) == (update, query)

    def test_prefix_example(self):
        cube = make_cube([4, 4], range(1, 17))
        hc = HybridCube(cube, SUM, k=2, q=1)
        assert hc.prefix_query((2, 1)) == 1 + 2 + 5 + 6 + 9 + 10

    def test_update_then_query(self):
        hc = HybridCube(zero_cube([4, 4]), SUM, k=2, q=1)
        hc.update((1, 2), 3)
        assert hc.prefix_query((3, 3)) == 3
        assert hc.prefix_query((0, 3)) == 0

    def test_inverse_cancellation(self):
        rng = random.Random(3)
        cube = random_cube(rng, d=2, max_extent=6)
        hc = HybridCube(cube, SUM, k=2, q=1)
        before = [hc.prefix_query((i, j)) for i in range(cube.dims[0]) for j in range(cube.dims[1])]
        hc.update((1, 1), 9)
        hc.update((1, 1), -9)
        after = [hc.prefix_query((i, j)) for i in range(cube.dims[0]) for j in range(cube.dims[1])]
        assert before == after

    def test_q_zero_single_partition(self):
        cube = make_cube([4, 4], range(16))
        hc = HybridCube(cube, SUM, k=2, q=0)
        # every axis is inner: one extra slot per block in each dimension
        assert hc.table.shape == (4 + 2, 4 + 2)
        # block cells cover all rows of blocks strictly before them
        assert hc.table[4 + 1, 4 + 1] == sum(
            cube.cell((i, j)) for i in range(2) for j in range(2)
        )
        assert hc.prefix_query((3, 3)) == sum(range(16))

    def test_q_d_degenerate_update_bound(self):
        cube = zero_cube([4, 4])
        hc = HybridCube(cube, SUM, k=2, q=2)
        hc.update((1, 2), 1)
        assert hc.cells_touched_last_update <= 2 ** 2

    def test_covered_rows_tiling(self):
        """Every table cell aggregates the rows it covers, and the 2**(d-q)
        query cells of qualifying outer positions tile the prefix box."""
        cube = make_cube([5, 4], random.Random(4).choices(range(-9, 10), k=20))
        hc = HybridCube(cube, SUM, k=2, q=1)

        def covered_rows(j, position):
            # outer (j < q): an entry is its own row, a block slot its block's
            # rows; inner: an entry covers its block up to itself, a block
            # slot every row of the earlier blocks.
            m, k = cube.dims[j], hc.k
            if position < m:
                return range(position, position + 1) if j < hc.q else range(position // k * k, position + 1)
            block = position - m
            return range(block * k, min(m, (block + 1) * k)) if j < hc.q else range(0, block * k)

        for x, y in np.ndindex(hc.table.shape):
            rows = [(r0, r1) for r0 in covered_rows(0, x) for r1 in covered_rows(1, y)]
            assert hc.table[x, y] == sum(cube.cell(r) for r in rows)
        for b in QueryBox.full(cube.dims).coords():
            seen = set()
            blk0 = b[0] // hc.k
            outer_positions = list(range(blk0 * hc.k, b[0] + 1)) + [
                cube.dims[0] + x for x in range(blk0)
            ]
            for x in outer_positions:
                blk1 = b[1] // hc.k
                for y in (b[1], cube.dims[1] + blk1):
                    for r0 in covered_rows(0, x):
                        for r1 in covered_rows(1, y):
                            assert (r0, r1) not in seen
                            seen.add((r0, r1))
            assert seen == {(i, j) for i in range(b[0] + 1) for j in range(b[1] + 1)}

    def test_range_query(self):
        rng = random.Random(9)
        cube = random_cube(rng, d=2, max_extent=6)
        hc = HybridCube(cube, SUM, k=2, q=1)
        for _ in range(20):
            lo = [rng.randint(0, m - 1) for m in cube.dims]
            hi = [rng.randint(a, m - 1) for a, m in zip(lo, cube.dims)]
            box = QueryBox(lo, hi)
            assert hc.range_query(box) == brute_force_range(cube, box, SUM)

    def test_set_value(self):
        hc = HybridCube(make_cube([4], [1, 2, 3, 4]), SUM, k=2, q=1)
        hc.set_value((2,), -5)
        assert hc.point_read((2,)) == -5
        assert hc.prefix_query((3,)) == 1 + 2 - 5 + 4

    def test_counter_bounds_every_op(self):
        rng = random.Random(7)
        for d, q in ((1, 0), (2, 1), (2, 2), (3, 1)):
            cube = random_cube(rng, d=d, max_extent=8)
            k = rng.randint(1, max(cube.dims))
            hc = HybridCube(cube, SUM, k=k, q=q)
            for _ in range(40):
                coords = [rng.randint(0, m - 1) for m in cube.dims]
                hc.update(coords, rng.randint(-9, 9))
                assert hc.cells_touched_last_update <= hc.update_cell_bound
                hc.prefix_query(coords)
                assert hc.cells_touched_last_query <= hc.query_cell_bound


STRUCTURES = {"fenwick": FenwickCube, "hybrid": HybridCube}


class TestCrossStructure:
    @pytest.mark.parametrize("op", [SUM, XOR], ids=["sum", "xor"])
    @pytest.mark.parametrize(
        "build, dims",
        [
            pytest.param(FenwickCube, (5, 3, 7), id="fenwick"),
            pytest.param(FenwickCube, (1,), id="fenwick-1x"),
            pytest.param(lambda c, op: HybridCube(c, op, k=3, q=0), (7, 5), id="hybrid-q0"),
            pytest.param(lambda c, op: HybridCube(c, op, k=3, q=2), (7, 5), id="hybrid-qd"),
            pytest.param(lambda c, op: HybridCube(c, op, k=1, q=1), (4, 6), id="hybrid-k1"),
            pytest.param(lambda c, op: HybridCube(c, op, k=6, q=1), (6, 4), id="hybrid-kn"),
            pytest.param(lambda c, op: HybridCube(c, op, k=4, q=1), (10, 7, 5), id="hybrid-ragged"),
            pytest.param(lambda c, op: HybridCube(c, op, k=3, q=1), (7,), id="hybrid-1d"),
        ],
    )
    def test_build_equivalent_to_point_updates(self, build, dims, op):
        """The per-axis build equals point-updating every cell into an identity table."""
        rng = random.Random(5)
        cube = make_cube(dims, [rng.randint(-100, 100) for _ in range(math.prod(dims))])
        direct = build(cube, op)
        incremental = build(zero_cube(dims), op)
        for coords in QueryBox.full(dims).coords():
            incremental.update(coords, cube.cell(coords))
        assert direct.table.shape == incremental.table.shape
        assert (direct.table == incremental.table).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_range_query_every_dimension(self, d):
        """Box reads at every dimensionality a cube accepts, against the scan;
        the cell counter is the largest prefix read among the box's non-empty
        corners."""
        rng = random.Random(600 + d)
        dims = [rng.randint(1, 3 if d >= 5 else 5) for _ in range(d)]
        n = math.prod(dims)
        ints = make_cube(dims, [rng.randint(-100, 100) for _ in range(n)])
        floats = make_cube(dims, [rng.uniform(0.5, 2.0) for _ in range(n)])
        boxes = [QueryBox.full(dims)]
        for _ in range(20):
            lo = [rng.randint(0, m - 1) for m in dims]
            boxes.append(QueryBox(lo, [rng.randint(a, m - 1) for a, m in zip(lo, dims)]))
        builds = (
            FenwickCube,
            HybridCube,
            lambda c, op: HybridCube(c, op, k=1, q=0),
            lambda c, op: HybridCube(c, op, k=2, q=d),
        )
        for cube, op in ((ints, SUM), (ints, XOR), (floats, SUM), (floats, PRODUCT)):
            expected = [brute_force_range(cube, box, op) for box in boxes]
            for build in builds:
                structure = build(cube, op)
                rel_tol, abs_tol = structure.tolerance
                for box, want in zip(boxes, expected):
                    got = structure.range_query(box)
                    touched = structure.cells_touched_last_query
                    if cube.kind == "int":
                        assert got == want
                    else:
                        assert math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol), (box, got, want)
                    corners = [
                        [b if x else a - 1 for a, b, x in zip(box.lo, box.hi, high)]
                        for high in itertools.product((True, False), repeat=d)
                    ]
                    reads = []
                    for corner in corners:
                        if min(corner) >= 0:
                            structure.prefix_query(corner)
                            reads.append(structure.cells_touched_last_query)
                    assert touched == max(reads)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_float_build_close_to_point_updates(self, name):
        """Float builds add in another order than point updates, so they agree
        to the rounding bound eps * cells * sum(|value|), not bit for bit."""
        build = STRUCTURES[name]
        rng = random.Random(8)
        dims = (10, 7, 5)
        cube = make_cube(dims, [rng.uniform(-100, 100) for _ in range(math.prod(dims))])
        direct = build(cube, SUM)
        incremental = build(make_cube(dims, [0.0] * math.prod(dims)), SUM)
        for coords in QueryBox.full(dims).coords():
            incremental.update(coords, cube.cell(coords))
        bound = np.finfo(np.float64).eps * cube.size * np.abs(cube.values).sum()
        assert np.abs(direct.table - incremental.table).max() <= bound

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_product_rejects_zero_cells(self, name):
        build = STRUCTURES[name]
        with pytest.raises(ValueError, match="zero"):
            build(make_cube([4], [1.0, 0.0, 3.0, 4.0]), PRODUCT)
        structure = build(make_cube([4], [1.0, 2.0, 3.0, 4.0]), PRODUCT)
        before = structure.table.copy()
        with pytest.raises(ValueError, match="zero"):
            structure.update([1], 0.0)
        with pytest.raises(ValueError, match="zero"):
            structure.set_value([1], 0.0)
        assert (structure.table == before).all()
        assert structure.point_read([1]) == 2.0
        assert structure.range_query(QueryBox([2], [3])) == 12.0
        structure.set_value([1], 5.0)
        assert structure.range_query(QueryBox([0], [3])) == 60.0

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_product_underflow_rejected(self, name):
        # The table entries over the first two cells round to 0.0.
        with pytest.raises(ValueError, match="product underflow: the build leaves a table entry of 0.0"):
            STRUCTURES[name](make_cube([3], [1e-200, 1e-200, 5.0]), PRODUCT)
        # Every table entry is normal, but the product read for the prefix
        # [0, 2] rounds to 0.0.
        structure = STRUCTURES[name](make_cube([3], [1e-100, 1e-100, 1e-200]), PRODUCT)
        with pytest.raises(ValueError, match="underflow"):
            structure.range_query(QueryBox([2], [2]))
        with pytest.raises(ValueError, match="underflow"):
            structure.prefix_query([2])
        assert structure.range_query(QueryBox([0], [1])) == 1e-200
        assert structure.prefix_query([1]) == 1e-200

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_product_update_underflow_rejected(self, name):
        structure = STRUCTURES[name](make_cube([3], [1e-100, 1e-100, 1.0]), PRODUCT)
        before = structure.table.tobytes()
        # The entry over the first two cells would fall to 1e-350.
        with pytest.raises(ValueError, match=r"product underflow: updating cell \(0,\) by 1e-150 would leave"):
            structure.update([0], 1e-150)
        with pytest.raises(ValueError, match="product underflow"):
            structure.set_value([0], 1e-250)
        assert structure.table.tobytes() == before
        assert structure.point_read([0]) == 1e-100
        assert structure.range_query(QueryBox([0], [2])) == 1e-200
        structure.update([0], 1e-50)
        assert structure.range_query(QueryBox([0], [1])) == 1e-250

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_product_update_to_subnormal_cell_rejected(self, name):
        """Every table entry stays normal, but the updated cell would round
        below the normal floats: the shadow would hold that rounded cell and
        box reads would leave ``tolerance`` against it."""
        rng = random.Random(31)
        for _ in range(50):
            c, d = rng.uniform(1.0, 10.0), rng.uniform(1e-312, 1e-311)
            structure = STRUCTURES[name](make_cube([2], [1e300, c]), PRODUCT)
            table, shadow = structure.table.tobytes(), structure.shadow.tobytes()
            with pytest.raises(ValueError) as info:
                structure.update((1,), d)
            assert str(info.value) == (
                f"product underflow: update would set cell (1,) to {c * d!r}, below the normal floats"
            )
            assert structure.table.tobytes() == table and structure.shadow.tobytes() == shadow

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize(
        "values, value, message",
        [
            ([2.0, 3.0], 5e-324, "product underflow: setting cell (0,) to 5e-324 takes the delta "
             "5e-324 / 2.0, which rounds to 0.0, below the normal floats"),
            ([1e-300, 3.0], 1e300, "float overflow: setting cell (0,) to 1e+300 takes the delta "
             "1e+300 / 1e-300, which rounds to inf"),
        ],
        ids=["delta-underflow", "delta-overflow"],
    )
    def test_product_set_value_names_value_and_cause(self, name, values, value, message):
        # At the parent these read "would set cell (0,) to zero" and "delta
        # inf is not a finite float".
        structure = STRUCTURES[name](make_cube([2], values), PRODUCT)
        before = structure.table.tobytes()
        with pytest.raises(ValueError) as info:
            structure.set_value((0,), value)
        assert str(info.value) == message
        assert structure.table.tobytes() == before
        assert structure.point_read((0,)) == values[0]

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_xor_rejects_float_cube(self, name):
        with pytest.raises(ValueError, match="xor needs an integer cube"):
            STRUCTURES[name](make_cube([2], [1.0, 2.5]), XOR)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("op", [SUM, XOR], ids=["sum", "xor"])
    def test_delta_outside_int64_rejected(self, name, op):
        structure = STRUCTURES[name](make_cube([4], [1, 2, 3, 4]), op)
        before = structure.table.copy()
        for delta in (1 << 63, -(1 << 63) - 1, 99999999999999999999):
            with pytest.raises(ValueError, match=f"delta {delta} does not fit"):
                structure.update([0], delta)
        with pytest.raises(ValueError, match="does not fit"):
            structure.set_value([0], 1 << 70)
        assert (structure.table == before).all()
        assert structure.point_read([0]) == 1

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("op", [SUM, XOR], ids=["sum", "xor"])
    def test_delta_at_int64_edges_accepted(self, name, op):
        structure = STRUCTURES[name](make_cube([2], [1, 0]), op)
        twin = make_cube([2], [1, 0])
        for delta in (-(1 << 63), (1 << 63) - 1):
            structure.update([0], delta)
            twin.values[0] = op.combine(twin.cell((0,)), delta)
            assert structure.range_query(QueryBox([0], [1])) == brute_force_range(twin, QueryBox([0], [1]), op)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_sum_cell_outside_int64_rejected(self, name):
        # Updates may take Σ|cells| to 2**63 - 1, not to 2**63, so no cell
        # leaves int64.
        edge = 1 << 62
        structure = STRUCTURES[name](make_cube([4], [1, 2, 3, 4]), SUM)
        structure.update([0], edge - 1)
        structure.set_value([1], -edge + 8)
        before = structure.table.copy()
        with pytest.raises(ValueError, match=f"the sum of \\|cells\\| after the update is {1 << 63}"):
            structure.update([0], 1)
        with pytest.raises(ValueError, match=f"is {1 << 63}"):
            structure.set_value([1], -edge + 7)
        with pytest.raises(ValueError, match=f"is {(1 << 63) + 1}"):
            structure.update([3], -10)
        assert (structure.table == before).all()
        assert structure.point_read([0]) == edge
        assert structure.range_query(QueryBox([0], [3])) == edge - edge + 8 + 3 + 4
        structure.update([3], -4)
        assert structure.range_query(QueryBox([0], [3])) == 11

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("op", [SUM, PRODUCT], ids=["sum", "product"])
    def test_float_set_value_is_exact(self, name, op):
        """The shadow holds the value set, not old ⊕ (value ⊖ old); reads stay
        within the structure's tolerance, which counts each set value."""
        rng = random.Random(11)
        dims = (3, 4)
        cube = make_cube(dims, [rng.uniform(0.1, 10) for _ in range(math.prod(dims))])
        structure = STRUCTURES[name](cube, op)
        for _ in range(300):
            coords = tuple(rng.randrange(m) for m in dims)
            value = rng.uniform(0.1, 10)
            structure.set_value(coords, value)
            assert structure.point_read(coords) == value
        shadow = make_cube(dims, structure.shadow)
        rel_tol, abs_tol = structure.tolerance
        for box in (QueryBox.full(dims), QueryBox([1, 1], [2, 3]), QueryBox([2, 0], [2, 2])):
            expected = brute_force_range(shadow, box, op)
            assert math.isclose(structure.range_query(box), expected, rel_tol=rel_tol, abs_tol=abs_tol)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_float_set_value_past_cancellation(self, name):
        # At the parent the shadow read 0.0: 1e16 + (1.0 - 1e16) rounds to 0.
        structure = STRUCTURES[name](make_cube([2], [1e16, 2.0]), SUM)
        structure.set_value((0,), 1.0)
        assert structure.point_read((0,)) == 1.0
        assert abs(structure.range_query(QueryBox([0], [1])) - 3.0) <= structure.tolerance[1]
        with pytest.raises(ValueError, match="value 1.5 is not an integer"):
            STRUCTURES[name](make_cube([2], [1, 2]), XOR).set_value((0,), 1.5)
        with pytest.raises(ValueError, match="cannot be set to zero"):
            STRUCTURES[name](make_cube([2], [1.0, 2.0]), PRODUCT).set_value((0,), 0.0)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_float_sum_tolerance_counts_updates(self, name):
        # Each +1.0 rounds away in the node holding 1e16 (ties to even), so the
        # box [1, 1] reads 0.0 where the cell holds 100.0: past a bound of
        # Σ|terms| alone (35.5), within one that counts the updates too.
        structure = STRUCTURES[name](make_cube([2], [1e16, 0.0]), SUM)
        for _ in range(100):
            structure.update((1,), 1.0)
        got = structure.range_query(QueryBox([1], [1]))
        assert (got, structure.point_read((1,))) == (0.0, 100.0)
        assert float_sum_error_bound(1, 2, 1e16 + 100) < 100.0 <= structure.tolerance[1]
        # The bound counts the cells plus two terms per update, and Σ|cells| + Σ|deltas|.
        small = STRUCTURES[name](make_cube([2], [1.0, -2.0]), SUM)
        for delta in (0.5, -0.25, 0.5):
            small.update((1,), delta)
        assert small.tolerance == (0.0, float_sum_error_bound(1, 2 + 2 * 3, 3.0 + 1.25))

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_counters_start_at_zero(self, name):
        structure = STRUCTURES[name](make_cube([2, 2], [1, 2, 3, 4]), SUM)
        assert structure.cells_touched_last_update == structure.cells_touched_last_query == 0

    def test_random_scripts_agree(self):
        """Fenwick, hybrid variants and a rebuilt prefix cube answer identically."""
        rng = random.Random(2718)
        for _ in range(10):
            cube = random_cube(rng, max_extent=6)
            d = cube.ndim
            n = max(cube.dims)
            k_default = math.isqrt(n - 1) + 1 if n > 1 else 1
            shadow = [cube.values.copy()]
            fenwick = FenwickCube(cube, SUM)
            hybrids = [
                HybridCube(cube, SUM, k=1, q=0),
                HybridCube(cube, SUM, k=k_default, q=d // 2),
                HybridCube(cube, SUM, k=k_default, q=d),
            ]
            for _ in range(60):
                if rng.random() < 0.5:
                    coords = tuple(rng.randint(0, m - 1) for m in cube.dims)
                    delta = rng.randint(-20, 20)
                    fenwick.update(coords, delta)
                    for hc in hybrids:
                        hc.update(coords, delta)
                    shadow[0][coords] += delta
                else:
                    b = tuple(rng.randint(0, m - 1) for m in cube.dims)
                    expected = shadow_prefix(shadow[0], b, SUM)
                    rebuilt = PrefixCube(make_cube(cube.dims, shadow[0].reshape(-1).tolist()), SUM)
                    box = QueryBox([0] * d, b)
                    assert fenwick.prefix_query(b) == expected
                    assert rebuilt.range_aggregate(box) == expected
                    for hc in hybrids:
                        assert hc.prefix_query(b) == expected


@st.composite
def update_script(draw):
    d = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    steps = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, m - 1) for m in dims)),
                st.integers(-50, 50),
            ),
            max_size=25,
        )
    )
    probe = tuple(draw(st.integers(0, m - 1)) for m in dims)
    return dims, steps, probe


@settings(max_examples=60, deadline=None)
@given(update_script(), st.sampled_from(["sum", "xor"]))
def test_dynamic_structures_match_brute_force(script, op_name):
    from rangecube import OPS

    dims, steps, probe = script
    op = OPS[op_name]
    fc = FenwickCube(zero_cube(dims), op)
    hc = HybridCube(zero_cube(dims), op)
    plain = zero_cube(dims)
    for coords, delta in steps:
        fc.update(coords, delta)
        hc.update(coords, delta)
        plain.values[coords] = op.combine(plain.values[coords].item(), delta)
    expected = brute_force_range(plain, QueryBox([0] * len(dims), probe), op)
    assert fc.prefix_query(probe) == expected
    assert hc.prefix_query(probe) == expected
