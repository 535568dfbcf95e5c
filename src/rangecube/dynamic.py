"""Dynamic prefix/range aggregates for invertible operators.

Both structures here are one table that is a product of one-dimensional
schemes, one scheme per axis:

* :class:`FenwickCube` — the multidimensional binary indexed tree; every axis
  is a Fenwick tree, so updates and prefix queries touch at most
  ``prod(floor(log2 m[j]) + 1)`` cells.
* :class:`HybridCube` — a two-level block partition with tunable parameters
  ``k`` (block size) and ``q`` (number of query-side dimensions).  Every
  dimension's axis is extended with one slot per block; the first ``q``
  (outer) dimensions enumerate many cells at query time and only two per
  dimension at update time, the remaining ``d - q`` (inner) dimensions do the
  opposite.  Updates touch at most ``2**q * (k + ceil(n/k))**(d-q)`` cells and
  prefix queries at most ``(k + ceil(n/k))**q * 2**(d-q)``, so
  ``k = ceil(sqrt(n))`` with ``q = d // 2`` balances both.

The table is built by one numpy transform per axis.  An update or a prefix
query asks each axis's scheme for an index list and touches the Cartesian
product of those lists: each list becomes an ``intp`` array shaped to
broadcast along its axis (one ``np.ix_`` factor), so reads and writes are
single fancy-index operations.  A box query builds each axis's arrays once,
for ``hi`` and ``lo - 1``, and reuses them across its ``2**d`` corners.
Both structures co-maintain a plain shadow copy of the represented cube,
which makes "set cell to u" derivable from "combine cell with delta" and
provides cheap point reads.  A float table also counts the updates applied
to it and the magnitudes they brought, which its ``tolerance`` reads.

Min/max are not invertible and are rejected here; use the static structures.
Builds and updates keep every cell in the domain the cube module's table
check admits: int sum cells keep ``|value| * cells`` below ``2**62``, product
needs a float cube with no zero cell, and float cells stay finite.  A float
table whose prefix overflowed is reported when a query reads it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cube import (
    AggregateOp,
    DataCube,
    QueryBox,
    _check_fold,
    _check_table_domain,
    _inclusion_exclusion,
    _float_mass,
    _quiet,
    _rounding_tolerance,
    _settable_value,
    _updated_cell,
)

__all__ = [
    "FenwickCube",
    "HybridCube",
]


def _check_coords(coords, dims) -> tuple:
    coords = tuple(int(c) for c in coords)
    if len(coords) != len(dims):
        raise ValueError(f"expected {len(dims)} coordinates, got {len(coords)}")
    for j, (c, m) in enumerate(zip(coords, dims)):
        if not 0 <= c < m:
            raise IndexError(f"coordinate {c} out of range [0, {m}) in dimension {j}")
    return coords


class _FenwickAxis:
    """One axis of a binary indexed tree over ``m`` entries."""

    def __init__(self, m: int):
        self.m = m

    def build(self, table: np.ndarray, axis: int, op: AggregateOp) -> np.ndarray:
        # Propagating each node into its parent once equals point-updating
        # every entry into an identity-filled axis.
        view = np.moveaxis(table, axis, 0)
        for i in range(1, self.m + 1):
            parent = i + (i & -i)
            if parent <= self.m:
                dst = view[parent - 1 : parent]
                op.ufunc(dst, view[i - 1 : i], out=dst)
        return table

    def update_indices(self, c: int) -> list:
        chain = []
        i = c + 1
        while i <= self.m:
            chain.append(i - 1)
            i += i & -i
        return chain

    def query_indices(self, c: int) -> list:
        chain = []
        i = c + 1
        while i > 0:
            chain.append(i - 1)
            i &= i - 1
        return chain


class _BlockAxis:
    """An axis of extent ``m`` cut into blocks of ``k`` entries and extended
    by one slot per block (slot ``m + b`` belongs to block ``b``)."""

    def __init__(self, m: int, k: int):
        self.m = m
        self.k = k
        self.nblocks = -(-m // k)


class _OuterAxis(_BlockAxis):
    """Query-side axis: entries hold the cell itself, block slots the block total."""

    def build(self, table: np.ndarray, axis: int, op: AggregateOp) -> np.ndarray:
        totals = op.ufunc.reduceat(table, np.arange(0, self.m, self.k), axis=axis)
        return np.concatenate([table, totals], axis=axis)

    def update_indices(self, c: int) -> list:
        # the entry itself and its containing block
        return [c, self.m + c // self.k]

    def query_indices(self, c: int) -> list:
        # entries of c's block up to c, plus every earlier block
        blk = c // self.k
        return list(range(blk * self.k, c + 1)) + [self.m + b for b in range(blk)]


class _InnerAxis(_BlockAxis):
    """Update-side axis: entries hold the prefix from their block start, block
    slots the exclusive prefix of all earlier blocks."""

    def build(self, table: np.ndarray, axis: int, op: AggregateOp) -> np.ndarray:
        starts = np.arange(0, self.m, self.k)
        within = np.concatenate(
            [op.ufunc.accumulate(part, axis=axis) for part in np.split(table, starts[1:], axis=axis)],
            axis=axis,
        )
        # slot b holds blocks 0..b-1: identity, then running block totals
        totals = np.take(within, starts[1:] - 1, axis=axis)
        empty = np.full_like(np.take(within, [0], axis=axis), op.identity)
        return np.concatenate([within, empty, op.ufunc.accumulate(totals, axis=axis)], axis=axis)

    def update_indices(self, c: int) -> list:
        # entries from c through its block end, then every later block
        blk = c // self.k
        end = min(self.m, (blk + 1) * self.k)
        return list(range(c, end)) + [self.m + b for b in range(blk + 1, self.nblocks)]

    def query_indices(self, c: int) -> list:
        # the entry at c and the slot of c's block
        return [c, self.m + c // self.k]


class _AxisProductTable:
    """One table that is the product of per-axis schemes, plus a shadow cube.

    Subclasses pass one scheme per dimension; each scheme's ``build`` is that
    axis's transform, and its ``update_indices``/``query_indices`` give the
    axis positions an update or a prefix query touches.
    """

    def __init__(self, cube: DataCube, op: AggregateOp, schemes: tuple):
        _check_table_domain(cube.values, op, type(self).__name__)
        self.op = op
        self.dims = cube.dims
        self._schemes = schemes
        table = cube.values.copy()
        with _quiet(table):
            for axis, scheme in enumerate(schemes):
                table = scheme.build(table, axis, op)
        self.table = table
        self.shadow = cube.values.copy()
        self.cells_touched_last_update = 0
        self.cells_touched_last_query = 0
        # What the tolerance of a float table reads: Σ|cells| + Σ|deltas| and
        # the updates applied.  An int table counts nothing.
        self._float = table.dtype.kind == "f"
        self._mass = _float_mass(cube.values) if self._float and op.name == "sum" else 0.0
        self._updates = 0

    @property
    def tolerance(self) -> tuple:
        """``(rel_tol, abs_tol)`` for :func:`math.isclose` of a box answer
        against the exact aggregate of the shadow: ``(0.0, 0.0)`` for an int
        cube, the :func:`float_sum_error_bound` of Σ|initial cells| +
        Σ|applied deltas| for a float sum and the
        :func:`float_product_error_bound` for a float product, each counting
        the updates applied so far."""
        return _rounding_tolerance(self.op, self.table, self.shadow.size + 2 * self._updates, self._mass)

    def point_read(self, coords):
        """Current value of one represented cell (served by the shadow)."""
        return self.shadow[_check_coords(coords, self.dims)].item()

    def set_value(self, coords, value):
        """Set a cell to ``value``: the table is updated by the inverse of the
        old value and ``value``, and the shadow takes ``value`` itself, which a
        float combine of the old value and that delta may miss by a rounding."""
        coords = _check_coords(coords, self.dims)
        value = _settable_value(self.op, self.shadow, value)
        self.update(coords, self.op.inverse(value, self.shadow[coords].item()))
        self.shadow[coords] = value

    def update(self, coords, delta):
        """Combine the represented cell at ``coords`` with ``delta``."""
        coords = _check_coords(coords, self.dims)
        value = _updated_cell(self.op, self.shadow, coords, delta)
        axes = [s.update_indices(c) for s, c in zip(self._schemes, coords)]
        idx = self._index(axes)
        with _quiet(self.table):
            self.table[idx] = self.op.ufunc(self.table[idx], delta)
        self.cells_touched_last_update = math.prod(len(a) for a in axes)
        self.shadow[coords] = value
        if self._float:
            self._mass += abs(delta)
            self._updates += 1

    def _index(self, axes) -> tuple:
        """The fancy index of the Cartesian product of per-axis position lists."""
        return tuple(self._axis_index(j, positions) for j, positions in enumerate(axes))

    def _axis_index(self, axis: int, positions) -> np.ndarray:
        """``positions`` as an ``intp`` array broadcasting along ``axis``."""
        shape = (-1,) + (1,) * (len(self.dims) - 1 - axis)
        return np.array(positions, dtype=np.intp).reshape(shape)

    def prefix_query(self, b):
        """Aggregate over the prefix box ``[0..b[0]] x ... x [0..b[d-1]]``."""
        b = _check_coords(b, self.dims)
        with _quiet(self.table):
            value = self._prefix(self._index(s.query_indices(c) for s, c in zip(self._schemes, b)))
        _check_fold(self.op, value)
        return value

    def _prefix(self, index: tuple):
        block = self.table[index]
        self.cells_touched_last_query = block.size
        return self.op.ufunc.reduce(block, axis=None).item()

    def range_query(self, box: QueryBox):
        """Aggregate over an arbitrary box via 2**d prefix queries.

        After the call :attr:`cells_touched_last_query` holds the maximum cell
        count of any one constituent prefix query.
        """
        box.validate_for(self.dims)
        # Each axis's index arrays for hi and lo - 1 (None: empty prefix).
        schemes = self._schemes
        high = self._index(s.query_indices(c) for s, c in zip(schemes, box.hi))
        low = [
            self._axis_index(j, s.query_indices(c - 1)) if c else None
            for j, (s, c) in enumerate(zip(schemes, box.lo))
        ]
        touched = 0

        def lookup(corner):
            nonlocal touched
            index = tuple(h if c == b else l for c, b, h, l in zip(corner, box.hi, high, low))
            value = self._prefix(index)
            touched = max(touched, self.cells_touched_last_query)
            return value

        with _quiet(self.table):
            value = _inclusion_exclusion(self.op, box.lo, box.hi, lookup)
        self.cells_touched_last_query = touched
        return value


class FenwickCube(_AxisProductTable):
    """Multidimensional binary indexed tree (Fenwick tree).

    The tree array has the cube's shape; internally indices are 1-based and a
    node at index ``i`` covers the ``i & -i`` trailing entries, independently
    in every dimension.  A float answer is within :attr:`tolerance` of the
    exact aggregate of the box.
    """

    def __init__(self, cube: DataCube, op: AggregateOp):
        schemes = tuple(_FenwickAxis(m) for m in cube.dims)
        super().__init__(cube, op, schemes)

    @property
    def op_cell_bound(self) -> int:
        """Worst-case cells touched by one update or one prefix query."""
        return math.prod(m.bit_length() for m in self.dims)


class HybridCube(_AxisProductTable):
    """Two-level block partition with a tunable update/query trade-off.

    ``q = d`` degenerates to constant-size updates with large queries,
    ``q = 0`` to a single block partition over all dimensions (constant-size
    queries, large updates).  Defaults ``k = ceil(sqrt(n))`` (n = largest
    extent) and ``q = d // 2`` balance the two.  A float answer is within
    :attr:`tolerance` of the exact aggregate of the box.
    """

    def __init__(
        self,
        cube: DataCube,
        op: AggregateOp,
        k: Optional[int] = None,
        q: Optional[int] = None,
    ):
        n = max(cube.dims)
        if k is None:
            k = math.isqrt(n - 1) + 1 if n > 1 else 1
        if q is None:
            q = cube.ndim // 2
        if not 1 <= k <= n:
            raise ValueError(f"block size k must be in [1, {n}], got {k}")
        if not 0 <= q <= cube.ndim:
            raise ValueError(f"split count q must be in [0, {cube.ndim}], got {q}")
        self.k = int(k)
        self.q = int(q)
        schemes = tuple(
            (_OuterAxis if j < self.q else _InnerAxis)(m, self.k)
            for j, m in enumerate(cube.dims)
        )
        super().__init__(cube, op, schemes)

    @property
    def update_cell_bound(self) -> int:
        n = max(self.dims)
        return 2 ** self.q * (self.k + -(-n // self.k)) ** (len(self.dims) - self.q)

    @property
    def query_cell_bound(self) -> int:
        n = max(self.dims)
        return (self.k + -(-n // self.k)) ** self.q * 2 ** (len(self.dims) - self.q)
