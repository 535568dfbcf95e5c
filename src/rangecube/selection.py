"""Order statistics over an implicit grid of operator-combined sorted arrays.

Given d sorted arrays of length n and an operator (sum, product or max), each
of the n^d index tuples has an implicit weight: the operator applied across
one entry per array.  The k-th smallest weight is found without materialising
the grid, by binary search on the weight value with a counting feasibility
test (``count_leq(wt) >= k`` iff ``wt >= ww(k)``):

* for max the count is a product of d per-array binary searches;
* for sum/product the ComputeP recursion peels one array at a time, folding
  the consumed entries into the residual threshold, with a binary search on
  the first array at the bottom, in O(n^(d-1) log n) per test;
* with O(n^q) extra storage, a :class:`SelectionSplit` materialises the sorted
  multiset of all combinations of the first q arrays so each of the n^(d-q)
  right-side combinations costs a single binary search; ComputeP is the q=1
  case of this scheme.

Integer inputs are answered exactly (product thresholds use floor division,
never floating division); real inputs converge to any requested precision.
Aggregates (sum/product) of the k smallest weights reuse the same search plus
prefix aggregates of the split, correcting for duplicate weights at the end.

The store-everything path :func:`all_weights` is kept only as an oracle for
tests and the CLI's differential mode, not as a production path.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SortedWeightArrays",
    "SelectionSplit",
    "build_split",
    "choose_split_q",
    "count_leq",
    "kth_smallest",
    "aggregate_k_smallest",
    "all_weights",
]

#: Default storage cap (in values) for automatically chosen splits.
DEFAULT_SPLIT_CAP = 1 << 22

_VALID_OPS = ("sum", "product", "max")

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class SortedWeightArrays:
    """d equally long, non-decreasing weight arrays plus the combining operator.

    Domains keep the inverse operator total on the search interval:
    nonnegative entries for sum and max, strictly positive for product.
    """

    arrays: tuple
    op: str

    def __init__(self, arrays: Sequence[Sequence], op: str):
        if op not in _VALID_OPS:
            raise ValueError(f"op must be one of {_VALID_OPS}, got {op!r}")
        arrays = tuple(tuple(a) for a in arrays)
        if not arrays or not arrays[0]:
            raise ValueError("need at least one non-empty array")
        n = len(arrays[0])
        for i, a in enumerate(arrays):
            if len(a) != n:
                raise ValueError(f"array {i} has length {len(a)}, expected {n}")
            if any(x > y for x, y in zip(a, a[1:])):
                raise ValueError(f"array {i} is not sorted non-decreasing")
            if op == "product":
                if any(x <= 0 for x in a):
                    raise ValueError("product selection needs strictly positive entries")
            elif any(x < 0 for x in a):
                raise ValueError(f"{op} selection needs nonnegative entries")
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "op", op)
        if op == "sum" and self.wmax > _INT64_MAX and self.is_integer:
            # The sum count runs on int64 arrays; a larger weight cannot be
            # represented there.
            raise ValueError(
                f"int sum weights reach {self.wmax}, past the int64 limit 2**63 - 1"
            )

    @property
    def d(self) -> int:
        return len(self.arrays)

    @property
    def n(self) -> int:
        return len(self.arrays[0])

    @property
    def grid_size(self) -> int:
        return self.n ** self.d

    @property
    def is_integer(self) -> bool:
        return all(isinstance(x, (int, np.integer)) for a in self.arrays for x in a)

    def combine_many(self, values):
        if self.op == "sum":
            return sum(values)
        if self.op == "product":
            return math.prod(values)
        return max(values)

    @property
    def wmin(self):
        return self.combine_many([a[0] for a in self.arrays])

    @property
    def wmax(self):
        return self.combine_many([a[-1] for a in self.arrays])


@dataclass(frozen=True)
class SelectionSplit:
    """Sorted combinations of the first q arrays plus their prefix aggregates.

    ``s_l`` holds all n^q operator-combinations sorted ascending; ``ps_l`` has
    ``ps_l[j]`` = aggregate of the j smallest (``ps_l[0]`` is the identity).
    """

    q: int
    s_l: tuple
    ps_l: tuple


def build_split(arrays: SortedWeightArrays, q: int) -> SelectionSplit:
    """Materialise the n^q left-side combinations (requires 1 <= q <= d-1)."""
    if not 1 <= q <= arrays.d - 1:
        raise ValueError(f"split size q must be in [1, {arrays.d - 1}], got {q}")
    combos = sorted(
        arrays.combine_many(t) for t in itertools.product(*arrays.arrays[:q])
    )
    if arrays.op == "product":
        identity = 1
        prefix = list(itertools.accumulate(combos, lambda a, b: a * b, initial=identity))
    elif arrays.op == "sum":
        prefix = list(itertools.accumulate(combos, initial=0))
    else:  # max: prefix aggregates are never needed, keep running maxima anyway
        prefix = list(itertools.accumulate(combos, max, initial=combos[0]))
    return SelectionSplit(q, tuple(combos), tuple(prefix))


def choose_split_q(arrays: SortedWeightArrays, cap: int = DEFAULT_SPLIT_CAP) -> Optional[int]:
    """Default split size: ceil(d/2) if n^q fits the cap, else the largest
    feasible q, else None (pure ComputeP)."""
    if arrays.d < 2:
        return None
    preferred = min(-(-arrays.d // 2), arrays.d - 1)
    for q in range(preferred, 0, -1):
        if arrays.n ** q <= cap:
            return q
    return None


def _threshold(op: str, exact: bool, wt, consumed):
    """Largest value x may take so that ``x op consumed <= wt``."""
    if op == "sum":
        return wt - consumed
    if exact:
        return wt // consumed  # ints: x * consumed <= wt  <=>  x <= wt // consumed
    return wt / consumed


def _right_combos(arrays: SortedWeightArrays, q: int):
    """All operator-combinations of arrays q..d-1 (one identity element if none)."""
    if q >= arrays.d:
        return [0 if arrays.op == "sum" else 1]
    combos = [arrays.combine_many(t) for t in itertools.product(*arrays.arrays[q:])]
    return combos


def _count_with_split(arrays, wt, s_l, right, exact):
    op = arrays.op
    if exact and op == "product":
        total = 0
        for s in right:
            total += bisect.bisect_right(s_l, wt // s)
        return total
    s_np = np.asarray(s_l, dtype=np.int64 if exact else np.float64)
    r_np = np.asarray(right, dtype=np.int64 if exact else np.float64)
    if op == "sum":
        thresholds = wt - r_np
    else:
        thresholds = wt / r_np
    return int(np.searchsorted(s_np, thresholds, side="right").sum())


def _compute_p(arrays: SortedWeightArrays, wt, di: int, consumed, exact: bool):
    """ComputeP: count combinations of arrays 0..di-1 with weight op consumed <= wt."""
    op = arrays.op
    w = arrays.arrays
    if di == 1:
        if consumed is None:
            return bisect.bisect_right(w[0], wt)
        return bisect.bisect_right(w[0], _threshold(op, exact, wt, consumed))
    if di == 2 and not (exact and op == "product"):
        base = np.asarray(w[1], dtype=np.int64 if exact else np.float64)
        folded = base if consumed is None else (
            base + consumed if op == "sum" else base * consumed
        )
        if op == "sum":
            thresholds = wt - folded
        else:
            thresholds = wt / folded
        first = np.asarray(w[0], dtype=np.int64 if exact else np.float64)
        return int(np.searchsorted(first, thresholds, side="right").sum())
    total = 0
    for x in w[di - 1]:
        folded = x if consumed is None else (x + consumed if op == "sum" else x * consumed)
        total += _compute_p(arrays, wt, di - 1, folded, exact)
    return total


def count_leq(arrays: SortedWeightArrays, wt, split: Optional[SelectionSplit] = None) -> int:
    """Number of grid points whose weight is at most ``wt``.

    Monotone non-decreasing in ``wt``; values below every weight give 0 and
    above every weight give n^d.  ``split`` switches the sum/product count
    from the ComputeP recursion to the stored-combination scheme; max always
    uses the product-of-limits count.
    """
    if arrays.op == "max":
        p = 1
        for a in arrays.arrays:
            p *= bisect.bisect_right(a, wt)
        return p
    exact = arrays.is_integer and isinstance(wt, int)
    if split is not None:
        return _count_with_split(
            arrays, wt, split.s_l, _right_combos(arrays, split.q), exact
        )
    return _compute_p(arrays, wt, arrays.d, None, exact)


def kth_smallest(
    arrays: SortedWeightArrays,
    k: int,
    *,
    eps: float = 1e-6,
    split: Optional[SelectionSplit] = None,
    return_stats: bool = False,
):
    """The k-th smallest grid weight (1-based rank).

    Integer inputs give the exact answer via binary search on the integer
    lattice; real inputs converge until the search interval is shorter than
    ``eps`` and return its upper end (within ``eps`` of the true weight).
    """
    if not 1 <= k <= arrays.grid_size:
        raise ValueError(f"rank k must be in [1, {arrays.grid_size}], got {k}")
    right = None if split is None else _right_combos(arrays, split.q)

    def count(wt, exact):
        if arrays.op == "max":
            return count_leq(arrays, wt)
        if split is not None:
            return _count_with_split(arrays, wt, split.s_l, right, exact)
        return _compute_p(arrays, wt, arrays.d, None, exact)

    lo, hi = arrays.wmin, arrays.wmax
    iterations = 0
    if arrays.is_integer:
        lo, hi = int(lo), int(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            iterations += 1
            if count(mid, True) >= k:
                hi = mid
            else:
                lo = mid + 1
        result = lo
    else:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        lo, hi = float(lo), float(hi)
        while hi - lo > eps:
            mid = (lo + hi) / 2
            iterations += 1
            if count(mid, False) >= k:
                hi = mid
            else:
                lo = mid
        result = hi
    if return_stats:
        return result, {"iterations": iterations}
    return result


def _mop(op: str, u, v):
    """Weight u repeated v times under agg: u*v for sum, u**v for product."""
    if op == "sum":
        return u * v
    return u ** v


def aggregate_k_smallest(
    arrays: SortedWeightArrays,
    agg: str,
    k: int,
    *,
    eps: float = 1e-6,
    split: Optional[SelectionSplit] = None,
):
    """Aggregate (same operator as ``op``) of the k smallest grid weights.

    For max this is just the k-th smallest weight.  For sum/product the final
    counting pass at the found weight also folds prefix aggregates of the
    split (ComputeP acts as the q=1 split), and duplicate weights are
    corrected by ``agg``-ing ``k - p`` copies of the k-th weight — a negative
    count removes surplus copies.  Exact termination (integers) guarantees
    ``p >= k``; with reals the found weight may sit up to ``eps`` above the
    true one and the same correction stays within tolerance.
    """
    if agg != arrays.op:
        raise ValueError(f"agg {agg!r} must equal the arrays' op {arrays.op!r}")
    ww = kth_smallest(arrays, k, eps=eps, split=split)
    if arrays.op == "max":
        return ww
    exact = arrays.is_integer
    if split is not None:
        s_l, ps_l, q = split.s_l, split.ps_l, split.q
    else:
        # ComputeP is the q = 1 case of the split scheme; d = 1 degenerates to
        # a single identity right-side element.
        s_l = arrays.arrays[0]
        ps_l = tuple(
            itertools.accumulate(
                s_l,
                (lambda a, b: a + b) if arrays.op == "sum" else (lambda a, b: a * b),
                initial=0 if arrays.op == "sum" else 1,
            )
        )
        q = 1
    right = _right_combos(arrays, q)
    p = 0
    pagg = 0 if arrays.op == "sum" else 1
    for s in right:
        j = bisect.bisect_right(s_l, _threshold(arrays.op, exact, ww, s))
        p += j
        if arrays.op == "sum":
            pagg += ps_l[j] + s * j
        else:
            pagg *= ps_l[j] * s**j
    surplus = k - p
    if exact:
        assert p >= k, "integer search must terminate with count >= k"
        if arrays.op == "sum":
            return pagg + ww * surplus
        removed = ww ** (-surplus)
        assert pagg % removed == 0, "surplus copies of ww(k) divide the aggregate"
        return pagg // removed
    if arrays.op == "sum":
        return pagg + ww * surplus
    return pagg * ww**surplus


def all_weights(arrays: SortedWeightArrays) -> list:
    """Every grid weight, sorted ascending (test/CLI oracle; O(n^d) memory)."""
    return sorted(
        arrays.combine_many(t) for t in itertools.product(*arrays.arrays)
    )
