"""Tests for k-th smallest and aggregate-of-k-smallest grid selection."""

import math
import random

import pytest

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
        assert split.s_l == (1, 2)
        assert split.ps_l == (0, 1, 3)

    def test_sizes(self):
        arrays = SortedWeightArrays([[1, 2]] * 3, "sum")
        assert len(build_split(arrays, 2).s_l) == 4

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
        rng = random.Random(19)
        for op in ("sum", "product"):
            arrays = SortedWeightArrays(
                [sorted(rng.uniform(0.5, 2.0) for _ in range(6)) for _ in range(3)],
                op,
            )
            weights = all_weights(arrays)
            for k in (1, 10, 100, 216):
                got = kth_smallest(arrays, k, eps=1e-9)
                assert got == pytest.approx(weights[k - 1], abs=1e-8)

    def test_float_iteration_budget(self):
        arrays = SortedWeightArrays([[0.0, 1.0], [0.0, 1.0]], "sum")
        eps = 1e-6
        _, stats = kth_smallest(arrays, 2, eps=eps, return_stats=True)
        budget = math.ceil(math.log2((arrays.wmax - arrays.wmin) / eps)) + 1
        assert stats["iterations"] <= budget

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
        for k in (1, 5, 60, 125):
            got = aggregate_k_smallest(arrays, "product", k, eps=1e-12)
            assert got == pytest.approx(math.prod(weights[:k]), rel=1e-9)
