"""Static multidimensional range minimum/maximum queries via sparse tables.

The classic sparse-table RMQ generalises to d dimensions, and further to
*grouped* dimensions: dimensions are partitioned into groups, each with a base
dimension, and every query box must have, in dimension ``j``, a side length
equal to ``stretch[j]`` times the side length in the base dimension of j's
group (``stretch == 1`` on base dimensions).  Singleton groups with stretch 1
recover the unconstrained d-dimensional RMQ.

The table ``m[c, k]`` stores the min (or max) over the box anchored at ``c``
whose side in dimension ``j`` is ``stretch[j] * 2**k[group(j)]``; level ``k``
holds only the anchors whose block fits the cube (``extent[j] - side[j] + 1``
of them in dimension ``j``).  Levels are filled in increasing lexicographic
order of the k-tuples; each step halves a single group (two shifted child
blocks per dimension of that group).  The full recurrence that halves every
positive group simultaneously is kept behind the ``full_recurrence`` flag
purely for differential testing.  Queries combine ``2**d`` overlapping blocks,
one anchored at each corner mix of the box.
"""

from __future__ import annotations

import itertools
import math
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

#: Base-case boxes with at most this many cells are filled by direct scans;
#: larger stretch boxes go through the recursive lower-dimensional reduction.
BASE_CASE_SCAN_LIMIT = 64


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

    def is_base(self, j: int) -> bool:
        return self.base_dim[self.group_of[j]] == j


def _regroup_non_base(grouping: DimensionGrouping):
    """Grouping for the recursive base case, over the non-base dimensions only.

    Within each old group the surviving dimension with the smallest stretch
    becomes the new base; members whose stretch is an exact multiple stay in
    the group with the ratio as their new stretch, the rest are split off into
    singleton groups (their fixed query length is still the old stretch, which
    an unconstrained dimension accepts).

    Returns ``(kept_dims, new_grouping)`` where ``kept_dims`` maps new
    dimension index -> old dimension index.
    """
    kept = [j for j in range(grouping.ndim) if not grouping.is_base(j)]
    new_index = {j: i for i, j in enumerate(kept)}
    group_of = [None] * len(kept)
    stretch = [1] * len(kept)
    base_dim = []
    for g in range(grouping.ngroups):
        members = [j for j in grouping.members(g) if not grouping.is_base(j)]
        if not members:
            continue
        jprime = min(members, key=lambda j: (grouping.stretch[j], j))
        gid = len(base_dim)
        base_dim.append(new_index[jprime])
        for j in members:
            if j != jprime and grouping.stretch[j] % grouping.stretch[jprime] != 0:
                continue  # separated below
            group_of[new_index[j]] = gid
            stretch[new_index[j]] = grouping.stretch[j] // grouping.stretch[jprime]
        for j in members:
            if group_of[new_index[j]] is None:
                gid2 = len(base_dim)
                base_dim.append(new_index[j])
                group_of[new_index[j]] = gid2
                stretch[new_index[j]] = 1
    return kept, DimensionGrouping(group_of, base_dim, stretch)


class SparseTable:
    """Precomputed min/max tables for shape-constrained box queries.

    Immutable after construction; queries cost at most ``2**d`` table lookups
    (tracked in :attr:`lookups_last_query`).
    """

    def __init__(
        self,
        cube: DataCube,
        grouping: Optional[DimensionGrouping] = None,
        mode: str = "min",
        *,
        full_recurrence: bool = False,
        base_scan_limit: int = BASE_CASE_SCAN_LIMIT,
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
        self.tables = {}
        self._build(full_recurrence, base_scan_limit)

    # -- construction ------------------------------------------------------

    def _block_len(self, j: int, kt: tuple) -> int:
        return self.grouping.stretch[j] << kt[self.grouping.group_of[j]]

    def _valid_extents(self, kt: tuple) -> tuple:
        return tuple(m - self._block_len(j, kt) + 1 for j, m in enumerate(self.dims))

    def _build(self, full_recurrence: bool, base_scan_limit: int):
        g = self.grouping
        zero = (0,) * g.ngroups
        self.tables[zero] = self._base_level(base_scan_limit)
        for kt in itertools.product(*(range(km + 1) for km in self.kmax)):
            if kt == zero:
                continue
            if full_recurrence:
                halved = [h for h in range(g.ngroups) if kt[h] > 0]
            else:
                halved = [next(h for h in range(g.ngroups) if kt[h] > 0)]
            child_kt = tuple(k - 1 if h in halved else k for h, k in enumerate(kt))
            child = self.tables[child_kt]
            moving = [j for j in range(g.ndim) if g.group_of[j] in halved]
            half = {j: self._block_len(j, child_kt) for j in moving}
            ext = self._valid_extents(kt)
            acc = None
            for s in itertools.product((0, 1), repeat=len(moving)):
                start = [0] * g.ndim
                for j, sj in zip(moving, s):
                    start[j] = sj * half[j]
                view = child[tuple(slice(st, st + e) for st, e in zip(start, ext))]
                acc = view.copy() if acc is None else self._ufunc(acc, view)
            self.tables[kt] = acc

    def _base_level(self, base_scan_limit: int) -> np.ndarray:
        """Level 0: min/max over the anchored box of side stretch[j]."""
        g = self.grouping
        values = self.cube.values
        ext = self._valid_extents((0,) * g.ngroups)
        if all(f == 1 for f in g.stretch):
            return values.copy()
        if math.prod(g.stretch) <= base_scan_limit:
            acc = None
            for shift in itertools.product(*(range(f) for f in g.stretch)):
                view = values[tuple(slice(t, t + e) for t, e in zip(shift, ext))]
                acc = view.copy() if acc is None else self._ufunc(acc, view)
            return acc
        return self._base_level_recursive(ext, base_scan_limit)

    def _base_level_recursive(self, ext: tuple, base_scan_limit: int) -> np.ndarray:
        """Reduce the base case to lower-dimensional RMQ over non-base slices."""
        g = self.grouping
        kept, sub_grouping = _regroup_non_base(g)
        base_dims = [j for j in range(g.ndim) if g.is_base(j)]
        out = np.empty(ext, dtype=self.cube.values.dtype)
        for base_coords in itertools.product(*(range(ext[j]) for j in base_dims)):
            slicer = [slice(None)] * g.ndim
            for j, c in zip(base_dims, base_coords):
                slicer[j] = c
            sub_cube = DataCube([self.dims[j] for j in kept], self.cube.values[tuple(slicer)])
            sub = SparseTable(
                sub_cube, sub_grouping, self.mode, base_scan_limit=base_scan_limit
            )
            for anchors in itertools.product(*(range(ext[j]) for j in kept)):
                box = QueryBox(
                    anchors, [a + g.stretch[j] - 1 for a, j in zip(anchors, kept)]
                )
                dest = [0] * g.ndim
                for j, c in zip(base_dims, base_coords):
                    dest[j] = c
                for j, a in zip(kept, anchors):
                    dest[j] = a
                out[tuple(dest)] = sub.query(box)
        return out

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
        """Min/max over a shape-constrained box from ``2**d`` block lookups."""
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
            value = table[anchor].item()
            self.lookups_last_query += 1
            best = value if best is None else self._pick(best, value)
        return best

    def query_many(self, lo, hi) -> np.ndarray:
        """Answers for the shape-constrained boxes ``[lo[i], hi[i]]`` of two
        N x d integer arrays.

        Boxes are grouped by level tuple; each group takes ``2**d`` gathers
        from its level's table.  Answer ``i`` equals
        ``query(QueryBox(lo[i], hi[i]))`` after ``.tolist()``: blocks are
        picked in the same order with the same ``min``/``max`` rule, so NaN
        and -0.0 cells give the same answer.  Afterwards
        :attr:`lookups_last_query` holds the per-box count.
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
        beats = np.less if self.mode == "min" else np.greater
        answers = np.empty(len(lo), dtype=self.cube.values.dtype)
        for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            if not rows.size:
                continue
            kt = tuple(levels[rows[0]].tolist())
            table = self.tables[kt]
            near = lo[rows]
            far = near + lengths[rows] - [self._block_len(j, kt) for j in range(g.ndim)]
            best = None
            for s in itertools.product((0, 1), repeat=g.ndim):
                value = table[tuple((far if sj else near)[:, j] for j, sj in enumerate(s))]
                # min(best, value) keeps best unless value beats it
                best = value if best is None else np.where(beats(value, best), value, best)
            answers[rows] = best
        self.lookups_last_query = 1 << g.ndim if len(lo) else 0
        return answers

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
        return self.tables[kt][anchor].item()


def grouped_base_case(
    cube: DataCube,
    grouping: DimensionGrouping,
    anchor: Sequence[int],
    mode: str = "min",
    *,
    base_scan_limit: int = BASE_CASE_SCAN_LIMIT,
):
    """Min/max over the fixed-shape box of side ``stretch[j]`` anchored at ``anchor``.

    Base dimensions contribute a single coordinate (stretch 1).  Small stretch
    boxes are scanned directly; past ``base_scan_limit`` cells the box is
    answered through the recursive lower-dimensional reduction.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if grouping.ndim != cube.ndim:
        raise ValueError("grouping does not match cube dimensionality")
    anchor = tuple(int(a) for a in anchor)
    box = QueryBox(anchor, [a + f - 1 for a, f in zip(anchor, grouping.stretch)])
    box.validate_for(cube.dims)
    ufunc = np.minimum if mode == "min" else np.maximum
    if math.prod(grouping.stretch) <= base_scan_limit:
        return ufunc.reduce(cube.values[box.slices()], axis=None).item()
    kept, sub_grouping = _regroup_non_base(grouping)
    slicer = [slice(None)] * cube.ndim
    for j in range(cube.ndim):
        if grouping.is_base(j):
            slicer[j] = anchor[j]
    sub_cube = DataCube([cube.dims[j] for j in kept], cube.values[tuple(slicer)])
    sub = SparseTable(sub_cube, sub_grouping, mode, base_scan_limit=base_scan_limit)
    return sub.query(
        QueryBox(
            [anchor[j] for j in kept],
            [anchor[j] + grouping.stretch[j] - 1 for j in kept],
        )
    )


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
