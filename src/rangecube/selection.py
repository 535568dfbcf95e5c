"""Order statistics over an implicit grid of operator-combined sorted arrays.

Given d sorted arrays of length n and an operator (sum, product or max), each
of the n^d index tuples has an implicit weight: the operator applied across
one entry per array.  The k-th smallest weight is found without materialising
the grid, by binary search on the weight value with a counting feasibility
test (``count_leq(wt) >= k`` iff ``wt >= ww(k)``).

For max the count is a product of d per-array binary searches.  Sum and
product share one counting kernel, in the sorted-matrix view of Frederickson
& Johnson (SIAM J. Comput. 1984): the n^q combinations of the first q arrays
form a sorted left side (a :class:`SelectionSplit`, or the first array for
q = 1), and a count is one ``np.searchsorted`` into it of the thresholds
``wt - r``, ``wt // r`` or ``wt / r`` of the right-side combinations ``r``.
The right side comes in blocks of at most ``_BLOCK`` combinations, so the
extra storage is O(n^q + block).

Integer inputs are exact: sum counts run on int64 (the largest weight must
fit), product counts on int64 floor division while the largest weight fits
and on Python ints otherwise.  Real inputs must stay finite and converge to
any requested precision.  Aggregates (sum/product) of the k smallest weights
reuse the search plus one final kernel pass over prefix aggregates of the
left side (int64 only where ``n^d * wmax`` fits), correcting for duplicate
weights at the end.

The store-everything path :func:`all_weights` is kept only as an oracle for
tests and the CLI's differential mode, not as a production path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SortedWeightArrays", "SelectionSplit", "build_split", "choose_split_q",
    "count_leq", "kth_smallest", "aggregate_k_smallest", "all_weights",
]

#: Default storage cap (in values) for automatically chosen splits.
DEFAULT_SPLIT_CAP = 1 << 22

#: Most right-side combinations one kernel pass holds at once.
_BLOCK = 1 << 16

_UFUNCS = {"sum": np.add, "product": np.multiply, "max": np.maximum}

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class SortedWeightArrays:
    """d equally long, non-decreasing weight arrays plus the combining operator.

    Domains keep the inverse operator total on the search interval:
    nonnegative entries for sum and max, strictly positive for product.
    Float weights must be finite, and so must every float combination.
    """

    arrays: tuple
    op: str

    def __init__(self, arrays: Sequence[Sequence], op: str):
        if op not in _UFUNCS:
            raise ValueError(f"op must be one of {tuple(_UFUNCS)}, got {op!r}")
        arrays = tuple(tuple(a) for a in arrays)
        if not arrays or not arrays[0]:
            raise ValueError("need at least one non-empty array")
        n = len(arrays[0])
        is_integer = all(isinstance(x, (int, np.integer)) for a in arrays for x in a)
        if is_integer:
            arrays = tuple(tuple(int(x) for x in a) for a in arrays)
        values = []
        for i, a in enumerate(arrays):
            if len(a) != n:
                raise ValueError(f"array {i} has length {len(a)}, expected {n}")
            try:
                v = np.array(a, dtype=object if is_integer else np.float64)
            except OverflowError:
                raise ValueError(f"array {i} holds an int past the float range") from None
            if not (is_integer or np.isfinite(v).all()):
                cause = "a NaN" if np.isnan(v).any() else "an infinite"
                raise ValueError(f"array {i} holds {cause} weight")
            if (v[1:] < v[:-1]).any():
                raise ValueError(f"array {i} is not sorted non-decreasing")
            if op == "product":
                if v[0] <= 0:
                    raise ValueError("product selection needs strictly positive entries")
            elif v[0] < 0:
                raise ValueError(f"{op} selection needs nonnegative entries")
            values.append(v)
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "op", op)
        if is_integer:
            if op == "sum" and self.wmax > _INT64_MAX:  # sum counts run on int64
                raise ValueError(f"int sum weights reach {self.wmax}, past the int64 limit 2**63 - 1")
            if self.wmax <= _INT64_MAX:  # then every entry and combination fits
                values = [v.astype(np.int64) for v in values]
        elif not (math.isfinite(self.wmin) and math.isfinite(self.wmax)) or (
            op == "product"
            and not 0.0 < math.prod(min(a[0], 1.0) for a in arrays)
            <= math.prod(max(a[-1], 1.0) for a in arrays) < math.inf
        ):
            raise ValueError(f"float {op} combinations leave the finite float64 range")
        object.__setattr__(self, "_values", tuple(values))

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
        return self._values[0].dtype != np.float64

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


def _identity(op: str, dtype) -> np.ndarray:
    """One identity entry of the sum/product fold."""
    return (np.zeros if op == "sum" else np.ones)(1, dtype)


def _combos(op: str, parts, start: int, stop: int) -> np.ndarray:
    """Combinations ``start:stop``, in C order, of one entry from each of ``parts``."""
    idx = np.unravel_index(np.arange(start, stop), tuple(len(a) for a in parts))
    return functools.reduce(_UFUNCS[op], [a[i] for a, i in zip(parts, idx)])


@dataclass(frozen=True, eq=False)
class SelectionSplit:
    """Sorted combinations of the first q arrays plus their prefix aggregates.

    ``left`` holds all n^q operator-combinations sorted ascending; ``prefix``
    has ``prefix[j]`` = aggregate of the j smallest (``prefix[0]`` is the
    identity).  ``s_l`` and ``ps_l`` give the same values as tuples.
    ``prefix`` is built on first use: only aggregates read it, and an int
    product split holds it as Python ints.
    """

    q: int
    left: np.ndarray
    arrays: SortedWeightArrays = field(repr=False)

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        op, acc = self.arrays.op, self.left
        if self.arrays.is_integer and (op == "product" or acc.size * int(acc[-1]) > _INT64_MAX):
            acc = acc.astype(object)  # exact Python-int prefix aggregates
        # max never needs prefix aggregates; it keeps running maxima anyway
        first = acc[:1] if op == "max" else _identity(op, acc.dtype)
        with np.errstate(over="ignore"):
            return _UFUNCS[op].accumulate(np.concatenate((first, acc)))

    @property
    def s_l(self) -> tuple:
        return tuple(self.left.tolist())

    @property
    def ps_l(self) -> tuple:
        return tuple(self.prefix.tolist())


def _split(arrays: SortedWeightArrays, q: int) -> SelectionSplit:
    """The split for any ``1 <= q <= d``, by broadcast plus sort."""
    left = np.sort(_combos(arrays.op, arrays._values[:q], 0, arrays.n**q))
    return SelectionSplit(q, left, arrays)


def build_split(arrays: SortedWeightArrays, q: int) -> SelectionSplit:
    """Materialise the n^q left-side combinations (requires 1 <= q <= d-1)."""
    if not 1 <= q <= arrays.d - 1:
        raise ValueError(f"split size q must be in [1, {arrays.d - 1}], got {q}")
    return _split(arrays, q)


def choose_split_q(arrays: SortedWeightArrays, cap: int = DEFAULT_SPLIT_CAP) -> Optional[int]:
    """Default split size: ceil(d/2) if n^q fits the cap, else the largest
    feasible q, else None (no stored split)."""
    if arrays.d < 2:
        return None
    preferred = min(-(-arrays.d // 2), arrays.d - 1)
    for q in range(preferred, 0, -1):
        if arrays.n ** q <= cap:
            return q
    return None


def _sides(arrays: SortedWeightArrays, split: Optional[SelectionSplit]):
    """Kernel operands: the left side (the split's, or the first array for q = 1)
    and a callable giving the combinations of arrays q..d-1 (one identity entry
    if q == d) in blocks of at most ``_BLOCK``: built once, on first use, when
    they fit one block, else rebuilt block by block on each pass."""
    q, left = (1, arrays._values[0]) if split is None else (split.q, split.left)
    rest = arrays._values[q:] or (_identity(arrays.op, arrays._values[0].dtype),)
    total = math.prod(len(a) for a in rest)

    def blocks():
        for s in range(0, total, _BLOCK):
            yield _combos(arrays.op, rest, s, min(s + _BLOCK, total))

    return left, (functools.cache(lambda: list(blocks())) if total <= _BLOCK else blocks)


def _ranks(arrays: SortedWeightArrays, wt, left: np.ndarray, blocks):
    """``(r, j)`` per right-side block ``r``: ``j[i]`` counts the left entries
    ``x`` with ``x op r[i] <= wt``.  ``wt`` lies in ``[wmin - 1, wmax]``, so
    int64 thresholds cannot wrap."""
    for r in blocks():
        if arrays.op == "sum":
            thresholds = wt - r
        elif arrays.is_integer:
            thresholds = wt // r  # x * r <= wt  <=>  x <= wt // r, for r >= 1
        else:
            with np.errstate(over="ignore"):
                thresholds = wt / r
        yield r, np.searchsorted(left, thresholds, side="right")


def _count(arrays: SortedWeightArrays, wt, left: np.ndarray, blocks) -> int:
    """The counting kernel: grid points whose weight is at most ``wt``."""
    if arrays.op == "max":
        return math.prod(int(np.searchsorted(a, wt, side="right")) for a in arrays._values)
    return sum(int(j.sum()) for _, j in _ranks(arrays, wt, left, blocks))


def count_leq(arrays: SortedWeightArrays, wt, split: Optional[SelectionSplit] = None) -> int:
    """Number of grid points whose weight is at most ``wt``.

    Monotone non-decreasing in ``wt``; values below every weight give 0 and
    above every weight give n^d.  ``split`` chooses the stored left side of
    the sum/product count; max always uses the product-of-limits count.
    """
    if wt != wt:
        raise ValueError("count threshold wt is NaN")
    if wt < arrays.wmin:
        return 0
    if wt >= arrays.wmax:
        return arrays.grid_size
    wt = math.floor(wt) if arrays.is_integer else float(wt)
    return _count(arrays, wt, *_sides(arrays, split))


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
    ``eps`` (or than the float64 spacing there) and return its upper end
    (within ``eps`` of the true weight).
    """
    if not 1 <= k <= arrays.grid_size:
        raise ValueError(f"rank k must be in [1, {arrays.grid_size}], got {k}")
    left, blocks = _sides(arrays, split)
    lo, hi = arrays.wmin, arrays.wmax
    iterations = 0
    if arrays.is_integer:
        while lo < hi:
            mid = (lo + hi) // 2
            iterations += 1
            if _count(arrays, mid, left, blocks) >= k:
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
            if mid >= hi:  # adjacent floats round up: test lo, the only value below hi
                mid = lo
            iterations += 1
            if _count(arrays, mid, left, blocks) >= k:
                hi = mid
            elif mid > lo:
                lo = mid
            else:  # nothing lies strictly between lo and hi, so ww(k) is hi
                break
        result = hi
    if return_stats:
        return result, {"iterations": iterations}
    return result


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
    kernel pass at the found weight also folds prefix aggregates of the left
    side (without a split, of the first array), and duplicate weights are
    corrected by ``agg``-ing ``k - p`` copies of the k-th weight — a negative
    count removes surplus copies.  Exact termination (integers) guarantees
    ``p >= k``; with reals the found weight may sit up to ``eps`` above the
    true one and the same correction stays within tolerance.
    """
    if agg != arrays.op:
        raise ValueError(f"agg {agg!r} must equal the arrays' op {arrays.op!r}")
    ww = kth_smallest(arrays, k, eps=eps, split=split)
    op, exact = arrays.op, arrays.is_integer
    if op == "max":
        return ww
    split = _split(arrays, 1) if split is None else split
    # int64 partial aggregates only where n^d * wmax bounds them all.
    wide = exact and (op == "product" or arrays.grid_size * arrays.wmax > _INT64_MAX)
    cast = int if exact else float
    p, pagg = 0, (0 if op == "sum" else 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for r, j in _ranks(arrays, ww, *_sides(arrays, split)):
            p += int(j.sum())
            parts = split.prefix[j]
            if wide:
                parts, r, j = parts.astype(object), r.astype(object), j.astype(object)
            if op == "sum":
                pagg += cast(parts.sum()) + cast((r * j).sum())
            else:
                pagg *= cast(parts.prod()) * cast((r**j).prod())
        surplus = k - p
        if exact:
            assert p >= k, "integer search must terminate with count >= k"
            if op == "sum":
                return pagg + ww * surplus
            removed = ww ** (-surplus)
            assert pagg % removed == 0, "surplus copies of ww(k) divide the aggregate"
            return pagg // removed
        result = pagg + ww * surplus if op == "sum" else pagg * np.float64(ww) ** surplus
    if not math.isfinite(result):
        raise ValueError(f"the {op} of the {k} smallest weights leaves the float64 range")
    return float(result)


def all_weights(arrays: SortedWeightArrays) -> list:
    """Every grid weight, sorted ascending (test/CLI oracle; O(n^d) memory)."""
    return sorted(
        arrays.combine_many(t) for t in itertools.product(*arrays.arrays)
    )
