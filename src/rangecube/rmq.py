"""Static multidimensional range minimum/maximum queries via sparse tables.

The classic sparse-table RMQ generalises to d dimensions, and further to
*grouped* dimensions: dimensions are partitioned into groups, each with a base
dimension, and every query box must have, in dimension ``j``, a side length
equal to ``stretch[j]`` times the side length in the base dimension of j's
group (``stretch == 1`` on base dimensions).  Singleton groups with stretch 1
recover the unconstrained d-dimensional RMQ.

The table ``m[c, k]`` stores the min (or max) over the box anchored at ``c``
whose side in dimension ``j`` is ``stretch[j] * 2**k[group(j)]``, as a rank
among the cube's sorted distinct values (rank-space reduction, Gabow, Bentley
& Tarjan, STOC 1984): min and max only compare, so ranks pick the same cell
as values.  Ranks take the narrowest unsigned dtype that holds them, 1 byte
per entry up to 256 distinct values, 2 up to 65536 and 4 beyond, against 8
for int64 or float64 values; an answer maps back through one gather into the
distinct values.  Level ``k``
holds only the anchors whose block fits the cube (``extent[j] - side[j] + 1``
of them in dimension ``j``).  Levels are filled in increasing lexicographic
order of the k-tuples; each step halves a single group (two shifted child
blocks per dimension of that group).  Level 0 is one sliding-window fold per
dimension with ``stretch[j] > 1``, built from the same two-view step with a
doubling window.  Queries combine ``2**d`` overlapping blocks, one anchored at
each corner mix of the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cube import DataCube, QueryBox, _check_boxes, _first_true

__all__ = [
    "DimensionGrouping",
    "SparseTable",
    "grouped_base_case",
    "constrained_boxes",
]


@dataclass(frozen=True)
class DimensionGrouping:
    """Partition of the dimensions into groups tied to base dimensions.

    ``group_of[j]`` is the group id (0-based, consecutive) of dimension j,
    ``base_dim[g]`` the base dimension of group g, and ``stretch[j]`` the
    factor tying j's query length to its base dimension's query length.
    """

    group_of: tuple
    base_dim: tuple
    stretch: tuple

    def __init__(self, group_of: Sequence[int], base_dim: Sequence[int], stretch: Sequence[int]):
        group_of = tuple(int(g) for g in group_of)
        base_dim = tuple(int(b) for b in base_dim)
        stretch = tuple(int(f) for f in stretch)
        d, e = len(group_of), len(base_dim)
        if len(stretch) != d:
            raise ValueError("stretch must list one factor per dimension")
        if sorted(set(group_of)) != list(range(e)):
            raise ValueError(f"group ids must cover 0..{e - 1} exactly")
        for g, b in enumerate(base_dim):
            if not 0 <= b < d or group_of[b] != g:
                raise ValueError(f"base dimension {b} is not a member of group {g}")
            if stretch[b] != 1:
                raise ValueError(f"base dimension {b} must have stretch 1, got {stretch[b]}")
        if any(f < 1 for f in stretch):
            raise ValueError("stretch factors must be >= 1")
        object.__setattr__(self, "group_of", group_of)
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "stretch", stretch)

    @classmethod
    def singleton(cls, d: int) -> "DimensionGrouping":
        """Every dimension in its own group: the unconstrained RMQ case."""
        return cls(range(d), range(d), [1] * d)

    @property
    def ndim(self) -> int:
        return len(self.group_of)

    @property
    def ngroups(self) -> int:
        return len(self.base_dim)

    def members(self, g: int) -> tuple:
        return tuple(j for j, gj in enumerate(self.group_of) if gj == g)


class SparseTable:
    """Precomputed min/max tables for shape-constrained box queries.

    Immutable after construction; queries cost at most ``2**d`` table lookups
    (tracked in :attr:`lookups_last_query`).  ``distinct`` holds the cube's
    sorted distinct values and every level of ``tables`` the ranks into it.
    """

    #: ``(rel_tol, abs_tol)`` of an answer: a min or max is one of the cells.
    tolerance = (0.0, 0.0)

    def __init__(
        self,
        cube: DataCube,
        grouping: Optional[DimensionGrouping] = None,
        mode: str = "min",
    ):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if grouping is None:
            grouping = DimensionGrouping.singleton(cube.ndim)
        if grouping.ndim != cube.ndim:
            raise ValueError(
                f"grouping covers {grouping.ndim} dimensions, cube has {cube.ndim}"
            )
        for j, (m, f) in enumerate(zip(cube.dims, grouping.stretch)):
            if m < f:
                raise ValueError(
                    f"extent {m} in dimension {j} is smaller than stretch factor {f}"
                )
        self.cube = cube
        self.grouping = grouping
        self.mode = mode
        self.dims = cube.dims
        self._ufunc = np.minimum if mode == "min" else np.maximum
        self._pick = min if mode == "min" else max
        #: kmax[g]: largest k with stretch[j] * 2**k <= extent[j] for all j in g.
        self.kmax = tuple(
            min((m // f).bit_length() - 1 for m, f in
                ((cube.dims[j], grouping.stretch[j]) for j in grouping.members(g)))
            for g in range(grouping.ngroups)
        )
        #: log2floor[x] = floor(log2(x)) for 1 <= x <= max extent (index 0 unused).
        self.log2floor = (0,) + tuple(x.bit_length() - 1 for x in range(1, max(cube.dims) + 1))
        self.lookups_last_query = 0
        self.distinct, inverse = np.unique(cube.values, return_inverse=True)
        ranks = inverse.reshape(cube.dims).astype(np.min_scalar_type(len(self.distinct) - 1))
        self.tables = {}
        self._build(ranks)

    # -- construction ------------------------------------------------------

    def _block_len(self, j: int, kt: tuple) -> int:
        return self.grouping.stretch[j] << kt[self.grouping.group_of[j]]

    def _fold(self, arr: np.ndarray, shifts: dict) -> np.ndarray:
        """Combine the ``2**len(shifts)`` views of ``arr`` that start at 0 or
        at ``shifts[j]`` along each axis j in ``shifts``: where ``arr`` holds
        blocks of side L along j, the result holds blocks of side
        ``L + shifts[j]`` (``shifts[j] <= L``), with ``shifts[j]`` fewer anchors."""
        ext = [m - shifts.get(j, 0) for j, m in enumerate(arr.shape)]
        # Fold from a copy of the first view, not the view itself: without the
        # copy, repeated builds of a 512x512 cube's uint16 rank tables in one
        # process took ~37 ms of CPU each against ~22 ms (2-core Xeon VM,
        # numpy 2.4).
        acc = None
        for starts in itertools.product(*((0, t) for t in shifts.values())):
            at = dict(zip(shifts, starts))
            view = arr[tuple(slice(at.get(j, 0), at.get(j, 0) + e) for j, e in enumerate(ext))]
            acc = view.copy() if acc is None else self._ufunc(acc, view)
        return acc

    def _build(self, ranks: np.ndarray):
        g = self.grouping
        zero = (0,) * g.ngroups
        self.tables[zero] = self._base_level(ranks)
        for kt in itertools.product(*(range(km + 1) for km in self.kmax)):
            if kt == zero:
                continue
            h = next(h for h, k in enumerate(kt) if k > 0)
            child_kt = kt[:h] + (kt[h] - 1,) + kt[h + 1:]
            self.tables[kt] = self._fold(
                self.tables[child_kt],
                {j: self._block_len(j, child_kt) for j in g.members(h)},
            )

    def _base_level(self, ranks: np.ndarray) -> np.ndarray:
        """Level 0: min/max rank over the anchored box of side stretch[j].

        The box is separable, so each axis takes its own sliding-window fold:
        the window doubles up to the largest power of two within
        ``stretch[j]``, and one more fold of two overlapping windows closes
        the rest, O(d log max(stretch)) numpy calls in all.
        """
        acc = ranks
        for j, f in enumerate(self.grouping.stretch):
            width = 1
            while width < f:
                step = min(width, f - width)
                acc = self._fold(acc, {j: step})
                width += step
        return acc

    # -- queries -----------------------------------------------------------

    def _check_shape(self, box: QueryBox):
        g = self.grouping
        lengths = box.lengths
        for gid in range(g.ngroups):
            base_len = lengths[g.base_dim[gid]]
            for j in g.members(gid):
                if lengths[j] != g.stretch[j] * base_len:
                    raise ValueError(
                        f"box length {lengths[j]} in dimension {j} violates the shape "
                        f"constraint stretch[{j}] * base length = {g.stretch[j]} * {base_len}"
                    )
        return lengths

    def query(self, box: QueryBox):
        """Min/max over a shape-constrained box from ``2**d`` block lookups.

        Equal values share one rank, and ``np.unique`` merges -0.0 with 0.0,
        so a zero answer carries the sign of the zero ``distinct`` kept, not
        that of the block picked first.
        """
        box.validate_for(self.dims)
        lengths = self._check_shape(box)
        g = self.grouping
        kt = tuple(self.log2floor[lengths[g.base_dim[gid]]] for gid in range(g.ngroups))
        table = self.tables[kt]
        block = [self._block_len(j, kt) for j in range(g.ndim)]
        self.lookups_last_query = 0
        best = None
        for s in itertools.product((0, 1), repeat=g.ndim):
            anchor = tuple(
                lo + sj * (ln - bl) for lo, sj, ln, bl in zip(box.lo, s, lengths, block)
            )
            rank = table.item(anchor)
            self.lookups_last_query += 1
            best = rank if best is None else self._pick(best, rank)
        return self.distinct.item(best)

    def query_many(self, lo, hi) -> np.ndarray:
        """Answers for the shape-constrained boxes ``[lo[i], hi[i]]`` of two
        N x d integer arrays.

        Boxes are grouped by level tuple; each group takes ``2**d`` gathers
        of ranks from its level's table, and one gather into ``distinct``
        maps every rank back, so the answers keep the cube's dtype.  Answer
        ``i`` equals ``query(QueryBox(lo[i], hi[i]))`` after ``.tolist()``,
        the sign of zero included.  Afterwards :attr:`lookups_last_query`
        holds the per-box count.
        """
        lo, hi = _check_boxes(lo, hi, self.dims)
        g = self.grouping
        lengths = hi - lo + 1
        base_lengths = lengths[:, list(g.base_dim)]
        wanted = base_lengths[:, list(g.group_of)] * np.array(g.stretch)
        if (lengths != wanted).any():
            i, j = _first_true(lengths != wanted)
            raise ValueError(
                f"box {i}: box length {lengths[i, j]} in dimension {j} violates the shape "
                f"constraint stretch[{j}] * base length = "
                f"{g.stretch[j]} * {base_lengths[i, g.group_of[j]]}"
            )
        levels = np.array(self.log2floor)[base_lengths]
        key = np.ravel_multi_index(tuple(levels.T), [km + 1 for km in self.kmax])
        order = np.argsort(key, kind="stable")
        ranks = np.empty(len(lo), dtype=self.tables[(0,) * g.ngroups].dtype)
        for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            if not rows.size:
                continue
            kt = tuple(levels[rows[0]].tolist())
            table = self.tables[kt]
            near = lo[rows]
            far = near + lengths[rows] - [self._block_len(j, kt) for j in range(g.ndim)]
            best = None
            for s in itertools.product((0, 1), repeat=g.ndim):
                rank = table[tuple((far if sj else near)[:, j] for j, sj in enumerate(s))]
                best = rank if best is None else self._ufunc(best, rank)
            ranks[rows] = best
        self.lookups_last_query = 1 << g.ndim if len(lo) else 0
        return self.distinct[ranks]

    def block_value(self, anchor: Sequence[int], kt: Sequence[int]):
        """Table entry: the aggregate of the block anchored at ``anchor``."""
        anchor = tuple(anchor)
        kt = tuple(kt)
        if len(kt) != self.grouping.ngroups or any(
            not 0 <= k <= km for k, km in zip(kt, self.kmax)
        ):
            raise ValueError(f"invalid level tuple {kt}")
        for j, (a, m) in enumerate(zip(anchor, self.dims)):
            if not 0 <= a <= m - self._block_len(j, kt):
                raise IndexError(f"anchor {a} out of range for level {kt} in dimension {j}")
        return self.distinct.item(self.tables[kt].item(anchor))


def grouped_base_case(
    cube: DataCube,
    grouping: DimensionGrouping,
    anchor: Sequence[int],
    mode: str = "min",
):
    """Min/max over the fixed-shape box of side ``stretch[j]`` anchored at ``anchor``.

    Base dimensions contribute a single coordinate (stretch 1).  The box is
    reduced directly with ``np.minimum``/``np.maximum``: the one-box twin of
    a table's level 0.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if grouping.ndim != cube.ndim:
        raise ValueError("grouping does not match cube dimensionality")
    anchor = tuple(int(a) for a in anchor)
    box = QueryBox(anchor, [a + f - 1 for a, f in zip(anchor, grouping.stretch)])
    box.validate_for(cube.dims)
    ufunc = np.minimum if mode == "min" else np.maximum
    return ufunc.reduce(cube.values[box.slices()], axis=None).item()


def constrained_boxes(dims: Sequence[int], grouping: DimensionGrouping):
    """Yield every query box satisfying the grouping's shape constraint."""
    per_group_max = [
        min(dims[j] // grouping.stretch[j] for j in grouping.members(g))
        for g in range(grouping.ngroups)
    ]
    for base_lens in itertools.product(*(range(1, m + 1) for m in per_group_max)):
        lengths = [
            grouping.stretch[j] * base_lens[grouping.group_of[j]]
            for j in range(grouping.ndim)
        ]
        for lo in itertools.product(
            *(range(m - ln + 1) for m, ln in zip(dims, lengths))
        ):
            yield QueryBox(lo, [a + ln - 1 for a, ln in zip(lo, lengths)])
