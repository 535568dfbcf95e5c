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
single fancy-index operations.  A box query asks each axis for its lists at
``hi`` and ``lo - 1`` once and takes its non-empty corners from the corner
enumeration every inclusion-exclusion read in this package shares: each
corner is one prefix read, as :meth:`prefix_query` makes it, and one fold
joins the corners.
Both structures co-maintain a plain shadow copy of the represented cube,
which makes "set cell to u" derivable from "combine cell with delta" and
provides cheap point reads.  A float table also counts the updates applied
to it and the magnitudes they brought, which its ``tolerance`` reads.

Min/max are not invertible and are rejected here; use the static structures.
Builds and updates keep every cell in the domain the cube module's table
check admits: an int sum table keeps Σ|cells| below ``2**63``, tracked
exactly across updates; product needs a float cube with no zero cell and no
table entry below the normal floats, and no update may round a cell below
them; float cells stay finite.  A float table whose prefix overflowed is
reported when a query reads it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cube import (
    AggregateOp,
    DataCube,
    QueryBox,
    _check_coords,
    _check_fold,
    _check_int_mass,
    _check_normal_products,
    _check_table_domain,
    _corners,
    _float_mass,
    _fold_corners,
    _indices,
    _int_mass,
    _quiet,
    _rounding_tolerance,
    _settable_value,
    _updated_cell,
)

__all__ = [
    "FenwickCube",
    "HybridCube",
]


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
        # A sum table's mass.  An int one holds Σ|cells| exactly, which its
        # build and updates keep below 2**63; a float one Σ|cells| +
        # Σ|deltas|, read by its tolerance with the updates applied.
        self._int_sum = op.name == "sum" and cube.kind == "int"
        self._float = cube.kind == "float"
        mass = (_float_mass if self._float else _int_mass)(cube.values) if op.name == "sum" else 0
        self._mass = _check_int_mass(mass, "the sum of |cells|") if self._int_sum else mass
        self.op = op
        self.dims = cube.dims
        self._schemes = schemes
        # The shape that broadcasts a position list along each axis.
        self._shapes = tuple((-1,) + (1,) * (len(self.dims) - 1 - j) for j in range(len(self.dims)))
        table = cube.values.copy()
        with _quiet(table):
            for axis, scheme in enumerate(schemes):
                table = scheme.build(table, axis, op)
        if op.name == "product":
            _check_normal_products(table, "the build leaves")
        self.table = table
        self.shadow = cube.values.copy()
        self.cells_touched_last_update = 0
        self.cells_touched_last_query = 0
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
        value, delta = _settable_value(self.op, self.shadow, coords, value)
        if self._int_sum:
            # value - old may leave int64 while value fits: the int64 nodes
            # are exact modulo 2**64, so they take the delta reduced into it.
            self._apply(coords, value, (delta + (1 << 63)) % (1 << 64) - (1 << 63))
        else:
            self.update(coords, delta)
            self.shadow[coords] = value

    def update(self, coords, delta):
        """Combine the represented cell at ``coords`` with ``delta``."""
        coords = _check_coords(coords, self.dims)
        self._apply(coords, _updated_cell(self.op, self.shadow, coords, delta), delta)

    def _apply(self, coords, value, delta):
        """Combine the table with ``delta`` at ``coords`` and set the shadow
        cell to ``value``.  An int sum's new mass and a product's new nodes
        are checked before any write, so a rejected update changes nothing."""
        if self._int_sum:
            mass = self._mass - abs(self.shadow[coords].item()) + abs(value)
            self._mass = _check_int_mass(mass, "the sum of |cells| after the update")
        axes = [s.update_indices(c) for s, c in zip(self._schemes, coords)]
        idx = self._index(axes)
        with _quiet(self.table):
            block = self.op.ufunc(self.table[idx], delta)
        if self.op.name == "product":
            # Checked before the write, so a rejected update leaves the table as it was.
            _check_normal_products(block, f"updating cell {coords} by {delta!r} would leave")
        self.table[idx] = block
        self.cells_touched_last_update = math.prod(len(a) for a in axes)
        self.shadow[coords] = value
        if self._float:
            self._mass += abs(delta)
            self._updates += 1

    def _index(self, axes) -> tuple:
        """The fancy index of the Cartesian product of per-axis position
        lists: each list as an ``intp`` array broadcasting along its axis."""
        return tuple(np.array(p, dtype=np.intp).reshape(shape) for p, shape in zip(axes, self._shapes))

    def prefix_query(self, b):
        """Aggregate over the prefix box ``[0..b[0]] x ... x [0..b[d-1]]``."""
        b = _check_coords(b, self.dims)
        with _quiet(self.table):
            value = self._prefix([s.query_indices(c) for s, c in zip(self._schemes, b)])
        _check_fold(self.op, value)
        return value

    def _prefix(self, lists):
        """The fold of the table block that is the Cartesian product of the
        per-axis position ``lists``: one prefix read."""
        block = self.table[self._index(lists)]
        self.cells_touched_last_query = block.size
        return self.op.ufunc.reduce(block, axis=None).item()

    def range_query(self, box: QueryBox):
        """Aggregate over an arbitrary box via 2**d prefix queries.

        After the call :attr:`cells_touched_last_query` holds the maximum cell
        count of any one constituent prefix query.
        """
        box.validate_for(self.dims)
        # Each axis's position lists for hi and, unless lo is 0, lo - 1.
        picks = [
            (s.query_indices(b), s.query_indices(a - 1)) if a else (s.query_indices(b),)
            for s, a, b in zip(self._schemes, box.lo, box.hi)
        ]
        values, touched = [], 0
        with _quiet(self.table):
            for corner in _corners(picks):
                values.append(self._prefix(corner))
                touched = max(touched, self.cells_touched_last_query)
            value = _fold_corners(self.op, values)
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
        (k,), (q,) = _indices([k], "block size k"), _indices([q], "split count q")
        if not 1 <= k <= n:
            raise ValueError(f"block size k must be in [1, {n}], got {k}")
        if not 0 <= q <= cube.ndim:
            raise ValueError(f"split count q must be in [0, {cube.ndim}], got {q}")
        self.k, self.q = k, q
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
