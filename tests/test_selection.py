"""Tests for k-th smallest and aggregate-of-k-smallest grid selection."""

import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangecube import selection
from rangecube.selection import (
    SortedWeightArrays,
    aggregate_k_smallest,
    all_weights,
    build_split,
    choose_split_q,
    count_leq,
    kth_smallest,
)


def random_int_arrays(rng, op, d=None, n=None, lo=0, hi=50):
    d = d or rng.randint(1, 3)
    n = n or rng.randint(1, 10)
    if op == "product":
        lo = max(lo, 1)
    return SortedWeightArrays(
        [sorted(rng.randint(lo, hi) for _ in range(n)) for _ in range(d)], op
    )


class TestValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SortedWeightArrays([[2, 1]], "sum")

    def test_negative_rejected_for_sum(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SortedWeightArrays([[-1, 2]], "sum")

    def test_zero_rejected_for_product(self):
        with pytest.raises(ValueError, match="positive"):
            SortedWeightArrays([[0, 2]], "product")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            SortedWeightArrays([[1, 2], [1]], "sum")

    def test_bad_op(self):
        with pytest.raises(ValueError, match="op"):
            SortedWeightArrays([[1]], "xor")

    @pytest.mark.parametrize(
        "rows", [[[1, 2**63 + 5], [3, 4]], [[1, 2**63 + 5], [3, 4], [5, 6]]]
    )
    def test_int_sum_past_int64_rejected(self, rows):
        with pytest.raises(ValueError, match="int64 limit"):
            SortedWeightArrays(rows, "sum")

    def test_int_sum_at_int64_limit_exact(self):
        arrays = SortedWeightArrays([[1, 2**63 - 5], [0, 4]], "sum")
        assert arrays.wmax == 2**63 - 1
        for k, w in enumerate(all_weights(arrays), start=1):
            assert kth_smallest(arrays, k) == w


class TestCountLeq:
    def test_sum_example(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        assert count_leq(arrays, 3) == 3  # weights {2, 3, 3, 4}

    def test_below_domain(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        assert count_leq(arrays, -1) == 0

    def test_max_example(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "max")
        assert count_leq(arrays, 2) == 4

    def test_monotone_and_matches_oracle(self):
        rng = random.Random(3)
        for op in ("sum", "max", "product"):
            arrays = random_int_arrays(rng, op)
            weights = all_weights(arrays)
            prev = -1
            for wt in range(0, max(weights) + 2):
                c = count_leq(arrays, wt)
                assert c == sum(1 for w in weights if w <= wt)
                assert c >= prev
                prev = c

    def test_split_paths_agree_with_compute_p(self):
        rng = random.Random(7)
        for op in ("sum", "product"):
            arrays = random_int_arrays(rng, op, d=3, n=6, lo=1, hi=20)
            splits = [build_split(arrays, q) for q in (1, 2)]
            for wt in range(0, arrays.wmax + 2, 3):
                base = count_leq(arrays, wt)
                for split in splits:
                    assert count_leq(arrays, wt, split) == base


class TestBuildSplit:
    def test_q1_is_first_array(self):
        arrays = SortedWeightArrays([[1, 2], [3, 4]], "sum")
        split = build_split(arrays, 1)
        assert split.left.tolist() == [1, 2]
        assert split.prefix.tolist() == [0, 1, 3]

    def test_sizes(self):
        arrays = SortedWeightArrays([[1, 2]] * 3, "sum")
        assert len(build_split(arrays, 2).left) == 4

    def test_prefix_built_only_for_aggregates(self):
        # An int product prefix holds Python ints: 0.3 s at n^q = 14400.
        arrays = SortedWeightArrays([[1, 2, 5], [1, 3, 4], [2, 7, 9]], "product")
        split = build_split(arrays, 2)
        assert kth_smallest(arrays, 14, split=split) == all_weights(arrays)[13]
        assert "prefix" not in vars(split)
        assert split.prefix.tolist() == [1, 1, 2, 6, 24, 120, 720, 5760, 86400, 1728000]
        assert split.prefix.dtype == object
        assert aggregate_k_smallest(arrays, "product", 5, split=split) == math.prod(
            all_weights(arrays)[:5]
        )

    def test_invalid_q(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        with pytest.raises(ValueError, match="split size"):
            build_split(arrays, 2)
        with pytest.raises(ValueError, match="split size"):
            build_split(arrays, 0)

    def test_choose_split_q(self):
        assert choose_split_q(SortedWeightArrays([[1, 2]], "sum")) is None
        arrays3 = SortedWeightArrays([[1, 2]] * 3, "sum")
        assert choose_split_q(arrays3) == 2
        assert choose_split_q(arrays3, cap=2) == 1
        assert choose_split_q(arrays3, cap=1) is None


class TestKthSmallest:
    def test_examples(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        assert kth_smallest(arrays, 2) == 3
        assert kth_smallest(arrays, 1) == 2
        arrays_max = SortedWeightArrays([[1, 2], [1, 2]], "max")
        assert kth_smallest(arrays_max, 4) == 2

    def test_rank_bounds(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        with pytest.raises(ValueError, match="rank"):
            kth_smallest(arrays, 0)
        with pytest.raises(ValueError, match="rank"):
            kth_smallest(arrays, 5)

    def test_every_rank_matches_sort_oracle(self):
        rng = random.Random(11)
        for op in ("sum", "max"):
            for _ in range(8):
                arrays = random_int_arrays(rng, op, d=rng.randint(1, 3), n=rng.randint(1, 6))
                weights = all_weights(arrays)
                split_q = choose_split_q(arrays)
                split = build_split(arrays, split_q) if split_q else None
                for k in range(1, len(weights) + 1):
                    assert kth_smallest(arrays, k, split=split) == weights[k - 1]

    def test_product_integers_exact(self):
        rng = random.Random(13)
        for _ in range(8):
            arrays = random_int_arrays(rng, "product", d=rng.randint(1, 3), n=rng.randint(1, 6), lo=1, hi=9)
            weights = all_weights(arrays)
            for k in range(1, len(weights) + 1):
                assert kth_smallest(arrays, k) == weights[k - 1]

    def test_all_split_choices_agree(self):
        rng = random.Random(17)
        arrays = random_int_arrays(rng, "sum", d=3, n=5)
        weights = all_weights(arrays)
        for k in (1, 7, 30, 62, 125):
            expected = weights[k - 1]
            assert kth_smallest(arrays, k) == expected
            for q in (1, 2):
                assert kth_smallest(arrays, k, split=build_split(arrays, q)) == expected

    def test_float_precision(self):
        """A float answer is the k-th fold fl(x op r) of the kernel: within
        the stated bound of the exact weight, and no float below it counts k."""
        rng = random.Random(19)
        for op in ("sum", "product"):
            arrays = SortedWeightArrays(
                [sorted(rng.uniform(0.5, 2.0) for _ in range(6)) for _ in range(3)],
                op,
            )
            weights = all_weights(arrays)
            rel_tol, abs_tol = arrays.tolerance
            for k in (1, 10, 100, 216):
                got = kth_smallest(arrays, k)
                assert math.isclose(got, weights[k - 1], rel_tol=rel_tol, abs_tol=abs_tol)
                assert count_leq(arrays, got) >= k > count_leq(arrays, math.nextafter(got, 0))

    def test_float_iteration_budget(self):
        """At most 65 counting passes for floats, and ceil(log2(wmax - wmin
        + 1)) + 1 for ints, whether the search bisects to adjacent keys or
        lists a window."""
        rng = random.Random(53)
        cases = [
            SortedWeightArrays([[0.0, 1.0], [0.0, 1.0]], "sum"),
            SortedWeightArrays([[5e-324, 1e300], [0.0, 1.7e308]], "sum"),
            SortedWeightArrays([[1e-150, 1e150], [1e-150, 1e150]], "product"),
            random_int_arrays(rng, "sum", d=3, n=6, hi=10**6),
            random_int_arrays(rng, "product", d=2, n=6, lo=1, hi=10**9),
        ]
        for arrays in cases:
            if arrays.is_integer:
                budget = math.ceil(math.log2(arrays.wmax - arrays.wmin + 1)) + 1
            else:
                budget = 65
            for window, k in itertools.product((1, selection._WINDOW), range(1, arrays.grid_size + 1)):
                with mock.patch.object(selection, "_WINDOW", window):
                    _, stats = kth_smallest(arrays, k, return_stats=True)
                assert stats["iterations"] <= budget

    @pytest.mark.parametrize("k", [2.5, "2", None, 2.0])
    def test_non_integer_rank_rejected(self, k):
        arrays = SortedWeightArrays([[1, 2, 3], [1, 5, 9]], "sum")
        with pytest.raises(ValueError, match="rank k must be an integer"):
            kth_smallest(arrays, k)
        with pytest.raises(ValueError, match="rank k must be an integer"):
            aggregate_k_smallest(arrays, "sum", k)

    def test_numpy_integer_rank_accepted(self):
        arrays = SortedWeightArrays([[1, 2, 3], [1, 5, 9]], "sum")
        assert kth_smallest(arrays, np.int64(2)) == 3
        assert aggregate_k_smallest(arrays, "sum", np.uint8(4)) == 15

    def test_feasibility_direction(self):
        rng = random.Random(23)
        arrays = random_int_arrays(rng, "sum", d=2, n=8)
        weights = all_weights(arrays)
        for k in range(1, len(weights) + 1):
            assert count_leq(arrays, weights[k - 1]) >= k


class TestAggregate:
    def test_sum_examples(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        assert aggregate_k_smallest(arrays, "sum", 3) == 8
        assert aggregate_k_smallest(arrays, "sum", 4) == 12
        assert aggregate_k_smallest(arrays, "sum", 1) == 2

    def test_agg_must_match_op(self):
        arrays = SortedWeightArrays([[1, 2], [1, 2]], "sum")
        with pytest.raises(ValueError, match="agg"):
            aggregate_k_smallest(arrays, "product", 2)

    def test_max_agg_is_kth(self):
        arrays = SortedWeightArrays([[1, 3], [2, 5]], "max")
        for k in range(1, 5):
            assert aggregate_k_smallest(arrays, "max", k) == kth_smallest(arrays, k)

    def test_sum_every_rank_and_split(self):
        rng = random.Random(29)
        for _ in range(6):
            arrays = random_int_arrays(rng, "sum", d=rng.randint(1, 3), n=rng.randint(1, 6))
            weights = all_weights(arrays)
            splits = [None] + [
                build_split(arrays, q) for q in range(1, arrays.d)
            ]
            for k in range(1, len(weights) + 1):
                expected = sum(weights[:k])
                for split in splits:
                    assert aggregate_k_smallest(arrays, "sum", k, split=split) == expected

    def test_duplicate_heavy_weights(self):
        arrays = SortedWeightArrays([[1, 1, 1], [2, 2, 2]], "sum")
        weights = all_weights(arrays)  # nine copies of 3
        for k in range(1, 10):
            assert aggregate_k_smallest(arrays, "sum", k) == sum(weights[:k])

    def test_product_integers_exact(self):
        arrays = SortedWeightArrays([[2, 3], [2, 5]], "product")
        weights = all_weights(arrays)  # 4, 6, 10, 15
        for k in range(1, 5):
            assert aggregate_k_smallest(arrays, "product", k) == math.prod(weights[:k])

    def test_product_floats_relative_tolerance(self):
        rng = random.Random(31)
        arrays = SortedWeightArrays(
            [sorted(rng.uniform(0.5, 2.0) for _ in range(5)) for _ in range(3)],
            "product",
        )
        weights = all_weights(arrays)
        rel_tol, abs_tol = arrays.aggregate_tolerance
        for k in (1, 5, 60, 125):
            got = aggregate_k_smallest(arrays, "product", k)
            want = arrays.combine_exact(weights[:k])
            assert math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol)


class TestFloatDomain:
    """Non-finite float weights are rejected with a named cause; finite ones
    always give a finite answer or a ValueError, and the search terminates."""

    @pytest.mark.parametrize(
        "rows, cause",
        [
            ([[0.5, float("inf")]], "infinite"),
            ([[float("-inf"), 0.5]], "infinite"),
            ([[0.5, float("nan")]], "NaN"),
            ([[float("nan"), 0.5]], "NaN"),
            ([[0.5, 2**1100]], "int past the float range"),
            ([[1e308, 1.7e308]] * 2, "finite float64 range"),
        ],
    )
    def test_rejected(self, rows, cause):
        with pytest.raises(ValueError, match=cause):
            kth_smallest(SortedWeightArrays(rows, "sum"), 1)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e200, 2e200]] * 2,
            [[1e-200, 1.0]] * 2,
            [[1e300], [1e300], [1e-300]],
            [[1e-160, 1.0]] * 2,  # a subnormal weight has lost its relative accuracy
        ],
    )
    def test_float_product_leaving_range_rejected(self, rows):
        with pytest.raises(ValueError, match="finite float64 range"):
            SortedWeightArrays(rows, "product")

    def test_float_product_aggregate_past_range_rejected(self):
        arrays = SortedWeightArrays([[1e100, 1e101]] * 2, "product")
        assert aggregate_k_smallest(arrays, "product", 1) == all_weights(arrays)[0]
        with pytest.raises(ValueError, match="float64 range"):
            aggregate_k_smallest(arrays, "product", 2)

    def test_int_set_with_big_int_stays_exact(self):
        arrays = SortedWeightArrays([[1, 2**1100]], "max")
        assert kth_smallest(arrays, 2) == 2**1100

    def test_adjacent_float_bounds_terminate(self):
        """Weights one float apart: the search stops on each exact weight
        (a search on the weight's value once looped forever for k = 2)."""
        code = (
            "import math; from rangecube.selection import SortedWeightArrays, kth_smallest\n"
            "lo = 1e10; hi = math.nextafter(lo, math.inf)\n"
            "a = SortedWeightArrays([[lo, hi]], 'sum')\n"
            "assert kth_smallest(a, 1) == lo\n"
            "assert kth_smallest(a, 2) == hi\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_cli_select_on_inf_file_exits_with_error(self, tmp_path):
        arrays = tmp_path / "arrays.txt"
        arrays.write_text("0.5 inf\n1.0 2.0\n")
        script = tmp_path / "s.txt"
        script.write_text("select 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "rangecube", "query", "select:op=sum", str(arrays), str(script)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "infinite" in proc.stderr


def check_against_oracle(arrays, splits, ks=None):
    """count_leq, kth_smallest and aggregate_k_smallest against all_weights."""
    weights = all_weights(arrays)
    agg = {"sum": sum, "product": math.prod, "max": max}[arrays.op]
    for split in splits:
        for wt in sorted({w + dw for w in weights for dw in (-1, 0)}):
            assert count_leq(arrays, wt, split) == sum(1 for w in weights if w <= wt)
        for k in ks or range(1, len(weights) + 1):
            assert kth_smallest(arrays, k, split=split) == weights[k - 1]
            got = aggregate_k_smallest(arrays, arrays.op, k, split=split)
            assert got == agg(weights[:k])
            assert type(got) is int


class TestKernelEdges:
    def test_int_sum_aggregate_past_int64(self):
        arrays = SortedWeightArrays([[2**61, 2**61 + 1], [2**61, 2**61]], "sum")
        assert aggregate_k_smallest(arrays, "sum", 4) > 2**63
        check_against_oracle(arrays, [None, build_split(arrays, 1)])

    @pytest.mark.parametrize(
        "rows",
        [
            [[3, 2**40], [5, 2**40]],  # weights past int64: Python ints
            [[3, 2**20], [5, 2**20]],  # weights fit int64, aggregates do not
            [[3, 2**20, 2**21], [5, 7, 2**21], [1, 2**20, 2**21]],
        ],
    )
    def test_int_product_past_int64(self, rows):
        arrays = SortedWeightArrays(rows, "product")
        splits = [None] + [build_split(arrays, q) for q in range(1, arrays.d)]
        check_against_oracle(arrays, splits)

    @pytest.mark.parametrize("op", ["sum", "product", "max"])
    def test_right_side_spanning_several_blocks(self, monkeypatch, op):
        monkeypatch.setattr(selection, "_BLOCK", 5)
        rng = random.Random(37)
        arrays = random_int_arrays(rng, op, d=4, n=3, lo=1, hi=9)
        splits = [None] + [build_split(arrays, q) for q in range(1, arrays.d)]
        check_against_oracle(arrays, splits)

    def test_right_side_spanning_several_blocks_floats(self, monkeypatch):
        rng = random.Random(41)
        arrays = SortedWeightArrays(
            [sorted(rng.uniform(0.5, 2.0) for _ in range(4)) for _ in range(3)], "product"
        )
        weights = all_weights(arrays)
        expected = [kth_smallest(arrays, k) for k in (1, 20, 64)]
        monkeypatch.setattr(selection, "_BLOCK", 3)
        rel_tol, _ = arrays.tolerance
        agg_rel_tol, _ = arrays.aggregate_tolerance
        for k, want in zip((1, 20, 64), expected):
            assert kth_smallest(arrays, k) == want
            assert math.isclose(want, weights[k - 1], rel_tol=rel_tol)
            got = aggregate_k_smallest(arrays, "product", k)
            assert math.isclose(got, arrays.combine_exact(weights[:k]), rel_tol=agg_rel_tol)

    def test_storage_stays_within_left_plus_block(self, monkeypatch):
        """Without a split the kernel holds the first array and one right-side
        block, never the n^(d-1) right side (here 4 MB of int64)."""
        block, n = 4096, 80
        monkeypatch.setattr(selection, "_BLOCK", block)
        rng = random.Random(43)
        arrays = random_int_arrays(rng, "sum", d=4, n=n, hi=1000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kth_smallest(arrays, n**4 // 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (n + block) * 8


@st.composite
def edge_weight_arrays(draw):
    """Int arrays for sum, product and max with d 1-4, n 1-5 and entries
    from {0, 1, small, near 2**62 / d}."""
    op = draw(st.sampled_from(["sum", "product", "max"]))
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    near = (1 << 62) // d
    entry = st.one_of(
        st.sampled_from([0, 1]), st.integers(2, 9), st.integers(near - 4, near)
    )
    if op == "product":
        entry = entry.filter(lambda v: v > 0)
    rows = [sorted(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(d)]
    arrays = SortedWeightArrays(rows, op)
    ks = draw(st.lists(st.integers(1, arrays.grid_size), max_size=3))
    return arrays, sorted({1, arrays.grid_size, *ks})


@settings(max_examples=100, deadline=None)
@given(edge_weight_arrays())
def test_selection_matches_oracle_on_edges(case):
    arrays, ks = case
    splits = [None] + [build_split(arrays, q) for q in range(1, arrays.d)]
    check_against_oracle(arrays, splits, ks)


@st.composite
def grid_cases(draw):
    """Int or float arrays for sum, product and max with d 1-3 and n 1-6.
    Float entries sit at, or one float either side of, a few anchors, so rows
    hold duplicate runs and adjacent floats; sum and max rows also draw -0.0
    and 0.0.  Product anchors lie in [0.5, 2], where every partial product an
    aggregate forms stays a normal float, as ``aggregate_tolerance`` assumes."""
    op = draw(st.sampled_from(["sum", "product", "max"]))
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.integers(1 if op == "product" else 0, 20)
    else:
        span = (0.5, 2.0) if op == "product" else (0.25, 8.0)
        anchors = draw(st.lists(st.floats(*span), min_size=1, max_size=3))
        step = {-1: -math.inf, 0: None, 1: math.inf}
        entry = st.builds(
            lambda x, s: x if step[s] is None else math.nextafter(x, step[s]),
            st.sampled_from(anchors), st.sampled_from(sorted(step)),
        )
        if op != "product":
            entry = st.one_of(entry, st.sampled_from([0.0, -0.0]))
    rows = [sorted(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(d)]
    return SortedWeightArrays(rows, op)


@pytest.mark.parametrize("window", [1, selection._WINDOW])
@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_selection_differential(window, arrays):
    """Every rank under every split, with the search bisecting to one weight
    (window 1) and listing whole windows (the module's own): int answers
    equal ``all_weights``; a float answer is within the stated bound of it,
    counts at least k and is the smallest float that does."""
    weights = all_weights(arrays)
    rel_tol, abs_tol = arrays.tolerance
    agg_rel_tol, agg_abs_tol = arrays.aggregate_tolerance
    splits = [None] + [build_split(arrays, q) for q in range(1, arrays.d)]
    with mock.patch.object(selection, "_WINDOW", window):
        for split in splits:
            for k in range(1, len(weights) + 1):
                got = kth_smallest(arrays, k, split=split)
                agg = aggregate_k_smallest(arrays, arrays.op, k, split=split)
                want_agg = arrays.combine_exact(weights[:k])
                if arrays.is_integer:
                    assert (got, agg) == (weights[k - 1], want_agg)
                    continue
                assert math.isclose(got, weights[k - 1], rel_tol=rel_tol, abs_tol=abs_tol)
                assert math.isclose(agg, want_agg, rel_tol=agg_rel_tol, abs_tol=agg_abs_tol)
                below = math.nextafter(got, -math.inf)
                assert count_leq(arrays, got, split) >= k > count_leq(arrays, below, split)


@pytest.mark.parametrize(
    "rows, op, k, want",
    [
        ([[0.5, 1.5], [0.25, 2.0]], "product", 1, 0.125),
        ([[0.5, 1.5], [0.25, 2.0]], "product", 3, 1.0),
        ([[0.1, 0.2, 0.3], [0.1, 0.5, 0.9]], "sum", 4, 0.6),
        ([[-0.0, 1.0], [-0.0, 2.0]], "sum", 1, 0.0),
    ],
)
def test_float_answer_is_a_grid_weight(rows, op, k, want):
    """A search on the weight's value once answered 0.125000685453,
    1.00000047684, 0.6000005722045898 and 7.15e-07 here."""
    got = kth_smallest(SortedWeightArrays(rows, op), k)
    assert got == want and math.copysign(1.0, got) == 1.0


def test_float_cuts_follow_the_fold():
    """Left entries far below ulp(r): the threshold wt - r puts the cut of
    count_leq(1e16) after 0.0 alone, where the fold 0.5 + 1e16 rounds to
    1e16 too; the count and the ranks follow the fold."""
    left = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    right = [1e16 + 2 * i for i in range(8)]
    arrays = SortedWeightArrays([left, right], "sum")
    folds = sorted(np.add.outer(left, right).ravel().tolist())
    for wt in sorted(set(folds)):
        assert count_leq(arrays, wt) == sum(w <= wt for w in folds)
    for window in (1, selection._WINDOW):
        with mock.patch.object(selection, "_WINDOW", window):
            assert [kth_smallest(arrays, k) for k in range(1, 65)] == folds
