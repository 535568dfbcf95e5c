"""Order statistics over an implicit grid of operator-combined sorted arrays.

Given d sorted arrays of length n and an operator (sum, product or max), each
of the n^d index tuples has an implicit weight: the operator applied across
one entry per array.  The k-th smallest weight is found without materialising
the grid, with a counting test (``count_leq(wt) >= k`` iff ``wt >= ww(k)``).

For max every weight is an entry: the count is a product of d per-array
binary searches, and the search bisects the sorted distinct entries.  Sum and
product share one counting kernel, in the sorted-matrix view of Frederickson
& Johnson (SIAM J. Comput. 1984): the n^q combinations of the first q arrays
form a sorted left side (a :class:`SelectionSplit`, or the first array for
q = 1), a grid weight is ``x op r`` for a left entry ``x`` and a combination
``r`` of the other arrays, and a count is one ``np.searchsorted`` into the
left side of the thresholds ``wt - r``, ``wt // r`` or ``wt / r``.  The right
side comes in blocks of at most ``_BLOCK`` combinations, so the extra storage
is O(n^q + block).

The search runs on an integer key: the int weight itself, or the bit pattern
of a nonnegative float weight (-0.0 read as +0.0), which orders floats as
their values.  It bisects the key until at most ``_WINDOW`` grid weights lie
in the bracket (lo, hi], or until lo and hi are adjacent keys, then lists
that window from the kernel's cuts at lo and hi (one slice of the left side
per right-side combination) and picks the rank it needs with
``np.partition``.  So the answer is always a grid weight: exact for ints, and
for floats the kernel's own ``fl(x op r)``.  Float threshold arithmetic
rounds, so each float cut is checked against that fold itself, and counts
and the listed window agree.

Integer inputs are exact: sum counts run on int64 (the largest weight must
fit), product counts on int64 floor division while the largest weight fits
and on Python ints otherwise.  Aggregates (sum/product) of the k smallest
weights fold, in one more kernel pass just below the k-th weight, prefix
aggregates of the left side (int64 only where ``n^d * wmax`` fits), then the
copies of the k-th weight that complete the k.  Float answers are within the
bounds :attr:`SortedWeightArrays.tolerance` and
:attr:`SortedWeightArrays.aggregate_tolerance` state.

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

from .cube import _FLOAT_MAX, _TINY, _gamma, _indices, _round_once

__all__ = [
    "SortedWeightArrays", "SelectionSplit", "build_split", "choose_split_q",
    "count_leq", "kth_smallest", "aggregate_k_smallest", "all_weights",
]

#: Default storage cap (in values) for automatically chosen splits.
DEFAULT_SPLIT_CAP = 1 << 22

#: Most right-side combinations one kernel pass holds at once.
_BLOCK = 1 << 16

#: Most grid weights the search lists and partitions instead of bisecting on.
_WINDOW = 1 << 13

_UFUNCS = {"sum": np.add, "product": np.multiply, "max": np.maximum}

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class SortedWeightArrays:
    """d equally long, non-decreasing weight arrays plus the combining operator.

    Domains keep the inverse operator total on the search interval:
    nonnegative entries for sum and max, strictly positive for product.
    Float weights must be finite, and so must every float combination; a
    float product's partial products must also stay normal floats, where a
    rounding errs by at most the unit roundoff u = 2**-53 of the product.
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
            and not _TINY <= math.prod(min(a[0], 1.0) for a in arrays)
            <= math.prod(max(a[-1], 1.0) for a in arrays) < math.inf
        ):
            raise ValueError(f"float {op} combinations leave the normal finite float64 range")
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

    def combine_exact(self, values):
        """``combine_many`` in exact arithmetic: ints as they are, floats
        folded in exact rationals and rounded once, as
        :func:`rangecube.cube.brute_force_range` folds a box."""
        if self.is_integer:
            return self.combine_many(values)
        from fractions import Fraction

        return _round_once(self.combine_many(map(Fraction, values)))

    @property
    def wmin(self):
        return self.combine_many([a[0] for a in self.arrays])

    @property
    def wmax(self):
        return self.combine_many([a[-1] for a in self.arrays])

    @property
    def tolerance(self) -> tuple:
        """``(rel_tol, abs_tol)`` for :func:`math.isclose` of a
        :func:`kth_smallest` answer against ``all_weights(arrays)[k - 1]``.

        Int and max answers are exact.  A float sum or product weight folds d
        nonnegative entries with d - 1 roundings, so it is within
        ``γ(d - 1)``, about ``(d - 1)·u·|w|``, of the exact weight, and so is
        the k-th smallest of them; the reference's own rounding adds ``u``,
        hence ``γ(d)``.
        """
        if self.is_integer or self.op == "max":
            return 0.0, 0.0
        return _gamma(self.d), 0.0

    @property
    def aggregate_tolerance(self) -> tuple:
        """``(rel_tol, abs_tol)`` for :func:`math.isclose` of an
        :func:`aggregate_k_smallest` answer against the exact fold of the k
        smallest ``all_weights`` entries, rounded once.

        Int and max answers are exact.  A float sum or product is within
        ``γ((d + 8)·n^d + 5)``: each of the k weights it folds is within
        ``γ(d)`` of the one it stands for, counting the rounding the kernel's
        split of a weight into ``x`` and ``r`` skips and the reference's
        rounding of each entry; the prefix aggregates, the per-column and
        per-block folds, the powers (at most 1 ulp each) and the copies of the
        k-th weight add at most ``6·n^d + 4`` roundings to any one term, and
        the reference rounds once more.  A float product aggregate assumes
        that the partial products it forms stay normal floats: a prefix
        product of the left side, a power ``r**j`` and a product of columns.
        An answer outside them raises.
        """
        if self.is_integer or self.op == "max":
            return 0.0, 0.0
        return _gamma((self.d + 8) * self.grid_size + 5), 0.0


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
    identity).  ``prefix`` is built on first use: only aggregates read it,
    and an int product split holds it as Python ints.
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


class _Kernel:
    """The sum/product counting kernel over one split.

    Its operands are the left side (the split's, or the first array for
    q = 1) and the combinations of arrays q..d-1 (one identity entry if
    q == d) in blocks of at most ``_BLOCK``: built once when they fit one
    block, else rebuilt block by block on each pass.  A grid weight is
    ``fold(x, r)`` as numpy computes it for a left entry ``x`` and a
    right-side combination ``r``.
    """

    def __init__(self, arrays: SortedWeightArrays, split: Optional[SelectionSplit]):
        q, self.left = (1, arrays._values[0]) if split is None else (split.q, split.left)
        self.rest = arrays._values[q:] or (_identity(arrays.op, self.left.dtype),)
        self.total = math.prod(len(a) for a in self.rest)
        self.arrays, self.fold = arrays, _UFUNCS[arrays.op]
        self._cached = [_combos(arrays.op, self.rest, 0, self.total)] if self.total <= _BLOCK else None

    def blocks(self):
        if self._cached is not None:
            return self._cached
        return (_combos(self.arrays.op, self.rest, s, min(s + _BLOCK, self.total))
                for s in range(0, self.total, _BLOCK))

    def extremes(self) -> tuple:
        """The smallest and largest grid weight: the fold is monotone in each
        operand, and the first and last combinations are the smallest and
        largest of the right side."""
        op, rest, total = self.arrays.op, self.rest, self.total
        first, last = _combos(op, rest, 0, 1), _combos(op, rest, total - 1, total)
        return self.fold(self.left[:1], first)[0], self.fold(self.left[-1:], last)[0]

    def cuts(self, wt, r: np.ndarray) -> np.ndarray:
        """``j[i]`` counts the left entries ``x`` with ``fold(x, r[i]) <= wt``,
        a prefix of the left side.  For ints ``wt`` lies in ``[wmin - 1,
        wmax]``, so int64 thresholds cannot wrap."""
        arrays, left = self.arrays, self.left
        if arrays.op == "sum":
            thresholds = wt - r
        elif arrays.is_integer:
            thresholds = wt // r  # x * r <= wt  <=>  x <= wt // r, for r >= 1
        else:
            with np.errstate(over="ignore"):
                thresholds = wt / r
        j = np.searchsorted(left, thresholds, side="right")
        if arrays.is_integer:
            return j
        # A rounded threshold can put a cut a few entries off the fold's own;
        # where a neighbour disagrees with fold(x, r) <= wt, bisect that row's
        # cut again on the fold itself, which is monotone in x.
        n, fold = len(left), self.fold
        off = (j > 0) & (fold(left[np.maximum(j - 1, 0)], r) > wt)
        off |= (j < n) & (fold(left[np.minimum(j, n - 1)], r) <= wt)
        rows = np.flatnonzero(off)
        if rows.size:
            lo, hi, r = np.zeros_like(rows), np.full_like(rows, n), r[rows]
            while (open_ := lo < hi).any():
                mid = (lo + hi) // 2
                inside = fold(left[np.minimum(mid, n - 1)], r) <= wt
                lo = np.where(open_ & inside, mid + 1, lo)
                hi = np.where(open_ & ~inside, mid, hi)
            j[rows] = lo
        return j

    def count(self, wt) -> int:
        """Grid points whose weight is at most ``wt``."""
        return sum(int(self.cuts(wt, r).sum()) for r in self.blocks())

    def window(self, lo, hi) -> np.ndarray:
        """Every grid weight in ``(lo, hi]``: per right-side combination
        ``r``, the left entries between the cuts at ``lo`` and ``hi``."""
        parts = []
        for r in self.blocks():
            start, stop = self.cuts(lo, r), self.cuts(hi, r)
            sizes = stop - start
            ends = np.cumsum(sizes)
            picks = np.arange(ends[-1]) + np.repeat(start - ends + sizes, sizes)
            parts.append(self.fold(self.left[picks], np.repeat(r, sizes)))
        return np.concatenate(parts)


def _max_count(arrays: SortedWeightArrays, wt) -> int:
    """Grid points whose max weight is at most ``wt``."""
    return math.prod(int(np.searchsorted(a, wt, side="right")) for a in arrays._values)


def _float_key(w) -> int:
    """The search key of a nonnegative float: its bit pattern, -0.0 read as +0.0."""
    return int(np.float64(abs(w)).view(np.int64))


def _float_value(key: int) -> float:
    """The float of a key, and of key -1 the largest float below zero."""
    return math.copysign(float(np.int64(abs(key)).view(np.float64)), key)


def _rank(arrays: SortedWeightArrays, k) -> int:
    """``k`` as an int in ``[1, n^d]``; numpy integers pass."""
    (k,) = _indices((k,), "rank k")
    if not 1 <= k <= arrays.grid_size:
        raise ValueError(f"rank k must be in [1, {arrays.grid_size}], got {k}")
    return k


def count_leq(arrays: SortedWeightArrays, wt, split: Optional[SelectionSplit] = None) -> int:
    """Number of grid points whose weight is at most ``wt``.

    Monotone non-decreasing in ``wt``; values below every weight give 0 and
    above every weight give n^d.  ``split`` chooses the stored left side of
    the sum/product count, and so which float fold a weight is; max always
    uses the product-of-limits count.
    """
    if wt != wt:
        raise ValueError("count threshold wt is NaN")
    if wt < (arrays.wmin if arrays.is_integer else 0):
        return 0
    if wt >= (arrays.wmax if arrays.is_integer else _FLOAT_MAX):
        return arrays.grid_size
    wt = math.floor(wt) if arrays.is_integer else float(wt)
    if arrays.op == "max":
        return _max_count(arrays, wt)
    return _Kernel(arrays, split).count(wt)


def kth_smallest(
    arrays: SortedWeightArrays,
    k: int,
    *,
    split: Optional[SelectionSplit] = None,
    return_stats: bool = False,
):
    """The k-th smallest grid weight (1-based rank).

    The answer is a grid weight: exact for ints and for max, and for a float
    sum or product the kernel's fold of it, within :attr:`SortedWeightArrays.tolerance`
    of the exact weight.  ``return_stats`` adds ``{"iterations": n}``, the
    counting passes made (listing the window counts as one): at most
    ``ceil(log2(wmax - wmin + 1))`` for ints and 64 for floats.
    """
    k = _rank(arrays, k)
    result, iterations = _search(arrays, k, None if arrays.op == "max" else _Kernel(arrays, split))
    if return_stats:
        return result, {"iterations": iterations}
    return result


def _search(arrays: SortedWeightArrays, k: int, kernel: Optional[_Kernel]) -> tuple:
    """``(ww(k), counting passes)`` of :func:`kth_smallest`, over ``kernel``
    (None for max)."""
    if kernel is None:
        # Every distinct entry from wmin up is a weight, and no other value
        # is; with no window to list, the search bisects to adjacent keys.
        weights = np.unique(np.concatenate(arrays._values))
        weights = weights[weights >= arrays.wmin]
        count, value, limit = functools.partial(_max_count, arrays), weights.__getitem__, 0
        lo, hi = -1, len(weights) - 1
    else:
        count, limit = kernel.count, _WINDOW
        key, value = (int, int) if arrays.is_integer else (_float_key, _float_value)
        lowest, highest = kernel.extremes()
        lo, hi = key(lowest) - 1, key(highest)
    # count(value(lo)) < k <= count(value(hi)), lo and hi keys
    c_lo, c_hi, iterations = 0, arrays.grid_size, 0
    while hi - lo > 1 and c_hi - c_lo > limit:
        mid = (lo + hi) // 2
        iterations += 1
        c = count(value(mid))
        if c >= k:
            hi, c_hi = mid, c
        else:
            lo, c_lo = mid, c
    if hi - lo > 1:
        iterations += 1
        window, rank = kernel.window(value(lo), value(hi)), k - c_lo - 1
        result = np.partition(window, rank)[rank]
    else:
        result = value(hi)
    return (int(result) if arrays.is_integer else float(result) + 0.0), iterations  # no -0.0


def aggregate_k_smallest(
    arrays: SortedWeightArrays,
    agg: str,
    k: int,
    *,
    split: Optional[SelectionSplit] = None,
):
    """Aggregate (same operator as ``op``) of the k smallest grid weights.

    For max this is just the k-th smallest weight ``ww``.  For sum/product one
    kernel pass just below ``ww`` counts the ``p < k`` weights under it and
    folds them from prefix aggregates of the left side (without a split, of
    the first array); ``k - p`` copies of ``ww`` complete the k.  Int answers
    are exact; a float answer is within
    :attr:`SortedWeightArrays.aggregate_tolerance` of the exact one.
    """
    if agg != arrays.op:
        raise ValueError(f"agg {agg!r} must equal the arrays' op {arrays.op!r}")
    k, op, exact = _rank(arrays, k), arrays.op, arrays.is_integer
    if op == "max":
        return _search(arrays, k, None)[0]
    # Without a split, the first array sorted is the left side kth_smallest reads.
    split = _split(arrays, 1) if split is None else split
    kernel = _Kernel(arrays, split)
    ww = _search(arrays, k, kernel)[0]
    below = ww - 1 if exact else _float_value(_float_key(ww) - 1)
    # int64 partial aggregates only where n^d * wmax bounds them all.
    wide = exact and (op == "product" or arrays.grid_size * arrays.wmax > _INT64_MAX)
    cast = int if exact else float
    p, pagg = 0, (0 if op == "sum" else 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in kernel.blocks():
            j = kernel.cuts(below, r)
            p += int(j.sum())
            parts = split.prefix[j]
            if wide:
                parts, r, j = parts.astype(object), r.astype(object), j.astype(object)
            # one term per right-side combination: the fold of its column
            if op == "sum":
                pagg += cast((parts + r * j).sum())
            else:
                pagg *= cast((parts * r**j).prod())
        if op == "sum":
            result = pagg + ww * (k - p)
        else:
            result = pagg * (ww if exact else np.float64(ww)) ** (k - p)
    if exact:
        return result
    if not (math.isfinite(result) and (op == "sum" or result >= _TINY)):
        raise ValueError(f"the {op} of the {k} smallest weights leaves the normal float64 range")
    return float(result)


def all_weights(arrays: SortedWeightArrays) -> list:
    """Every grid weight, each folded by :meth:`SortedWeightArrays.combine_exact`,
    sorted ascending (test/CLI oracle; O(n^d) memory)."""
    return sorted(arrays.combine_exact(t) for t in itertools.product(*arrays.arrays))
