"""Dense data cubes, aggregate operators, prefix cubes and brute-force range scans.

A :class:`DataCube` is a dense d-dimensional array of 64-bit values addressed
row-major (dimension 0 slowest).  :class:`PrefixCube` precomputes prefix
aggregates for an invertible operator so any box aggregate is answered from
``2**d`` corner lookups by inclusion-exclusion.  :func:`brute_force_range` is
the cell-by-cell reference scan that every other structure in this package is
tested against.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "MAX_DIMENSIONS",
    "AggregateOp",
    "SUM",
    "PRODUCT",
    "XOR",
    "MIN",
    "MAX",
    "OPS",
    "DataCube",
    "QueryBox",
    "PrefixCube",
    "make_cube",
    "brute_force_range",
    "float_sum_error_bound",
    "float_product_error_bound",
]

#: Hard ceiling on cube dimensionality; inclusion-exclusion costs 2**d lookups
#: per query, so d is kept desk-scale.
MAX_DIMENSIONS = 6

#: Integer sum cubes are safe from int64 overflow when |value| * cells < 2**62.
SUM_SAFE_BOUND = 1 << 62

@dataclass(frozen=True)
class AggregateOp:
    """An associative, commutative aggregate operator.

    ``inverse`` undoes one combine: ``inverse(combine(x, y), y) == x``.  It is
    defined for sum and xor, and for product over nonzero operands; min/max
    carry ``inverse=None`` and are rejected by every structure that needs
    deletion.  ``ufunc`` is the numpy twin used for vectorised builds and
    ``inverse_ufunc`` the twin of ``inverse`` used for batched reads.
    """

    name: str
    identity: object
    combine: Callable
    inverse: Optional[Callable]
    ufunc: np.ufunc
    inverse_ufunc: Optional[np.ufunc] = None

    @property
    def invertible(self) -> bool:
        return self.inverse is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AggregateOp({self.name})"


SUM = AggregateOp("sum", 0, operator.add, operator.sub, np.add, np.subtract)
PRODUCT = AggregateOp("product", 1, operator.mul, operator.truediv, np.multiply, np.true_divide)
XOR = AggregateOp("xor", 0, operator.xor, operator.xor, np.bitwise_xor, np.bitwise_xor)
MIN = AggregateOp("min", math.inf, min, None, np.minimum)
MAX = AggregateOp("max", -math.inf, max, None, np.maximum)

#: Operator registry keyed by name (used by the CLI).
OPS = {op.name: op for op in (SUM, PRODUCT, XOR, MIN, MAX)}

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_FLOAT_MAX = float(np.finfo(np.float64).max)
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


#: numpy dtype of each cube kind.
_KIND_DTYPES = {"int": np.int64, "float": np.float64}

#: Cube kind of each numpy dtype kind that converts with one ``astype``.
_DTYPE_KINDS = {"i": "int", "u": "int", "f": "float", "b": "float"}


def _first_misfit(flat) -> None:
    """Raise the range error for the first value of ``flat`` outside int64."""
    for v in flat:
        if not _INT64_MIN <= int(v) <= _INT64_MAX:
            raise ValueError(f"value {v} does not fit a 64-bit signed integer")


def _convert_list(flat: list, kind: Optional[str]) -> np.ndarray:
    """A flat int64/float64 array of ``int(v)`` or ``float(v)`` of every value.

    Without a requested kind, a list of ints makes an int cube and any other
    list a float cube.
    """
    if kind is None:
        kind = "int" if all(isinstance(v, (int, np.integer)) for v in flat) else "float"
    if kind == "int":
        _first_misfit(flat)
        return np.array([int(v) for v in flat], dtype=np.int64)
    if kind == "float":
        return np.array([float(v) for v in flat], dtype=np.float64)
    raise ValueError(f"unknown cube kind {kind!r}")


def _convert_array(values: np.ndarray, kind: Optional[str]) -> np.ndarray:
    """A C-ordered int64/float64 copy of ``values``, converted by dtype.

    Integer dtypes make an int cube, float and bool dtypes a float cube, with
    one ``astype`` copy and, for uint64, one vectorised bound check.  Other
    dtypes, and a requested kind other than the dtype's own, convert as the
    list of their values would.
    """
    natural = _DTYPE_KINDS.get(values.dtype.kind)
    if natural is None or kind not in (None, natural):
        return _convert_list(list(values.reshape(-1)), kind)
    if values.dtype == np.uint64 and values.max() > _INT64_MAX:
        _first_misfit(values.reshape(-1))
    return values.astype(_KIND_DTYPES[natural], order="C")


class DataCube:
    """Dense d-dimensional array of int64 or float64 values; float values are
    finite (NaN and +-inf are rejected).

    Cell addressing is row-major with dimension 0 slowest, i.e. the flat value
    sequence enumerates the last coordinate fastest.

    >>> make_cube([2, 2], [1, 2, 3, 4]).cell((1, 1))
    4
    """

    __slots__ = ("dims", "values")

    def __init__(self, dims: Sequence[int], values, kind: Optional[str] = None):
        dims = tuple(int(m) for m in dims)
        if not dims:
            raise ValueError("cube needs at least one dimension")
        if len(dims) > MAX_DIMENSIONS:
            raise ValueError(
                f"{len(dims)} dimensions exceed the ceiling of {MAX_DIMENSIONS}"
            )
        if any(m < 1 for m in dims):
            raise ValueError(f"all extents must be >= 1, got {dims}")
        ncells = math.prod(dims)
        if isinstance(values, np.ndarray) and (values.shape == dims or values.ndim == 1):
            if values.size != ncells:
                raise ValueError(
                    f"value count {values.size} does not match extent product {ncells}"
                )
            arr = _convert_array(values.reshape(dims), kind)
        else:
            flat = list(values)
            if len(flat) != ncells:
                raise ValueError(
                    f"value count {len(flat)} does not match extent product {ncells}"
                )
            arr = _convert_list(flat, kind)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            i = int(np.argmin(np.isfinite(arr)))
            cell = tuple(int(c) for c in np.unravel_index(i, dims))
            raise ValueError(f"cell {cell} holds {arr.flat[i]}; float cells must be finite")
        self.dims = dims
        self.values = arr.reshape(dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def kind(self) -> str:
        return "int" if self.values.dtype == np.int64 else "float"

    def cell(self, coords: Sequence[int]):
        """Value at ``coords`` as a plain Python number."""
        coords = tuple(coords)
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        for j, (c, m) in enumerate(zip(coords, self.dims)):
            if not 0 <= c < m:
                raise IndexError(f"coordinate {c} out of range [0, {m}) in dimension {j}")
        return self.values[coords].item()

    def flat(self) -> list:
        """Row-major value list (Python numbers)."""
        return self.values.reshape(-1).tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataCube(dims={self.dims}, kind={self.kind!r})"


def make_cube(dims: Sequence[int], values, kind: Optional[str] = None) -> DataCube:
    """Build a :class:`DataCube` from extents and a row-major value sequence."""
    return DataCube(dims, values, kind=kind)


@dataclass(frozen=True)
class QueryBox:
    """Per-dimension closed coordinate intervals ``[lo[j], hi[j]]``.

    Boxes are never empty: ``lo[j] <= hi[j]`` is enforced at construction and
    callers wanting an "empty means identity" convention must wrap explicitly
    (min/max have no safe identity in a bounded integer domain).
    """

    # No per-box __dict__: callers hold boxes by the ten thousand.
    __slots__ = ("lo", "hi")
    lo: tuple
    hi: tuple

    def __reduce__(self):
        # pickle and copy rebuild through __init__; a frozen box's slots
        # cannot be restored by plain setattr.
        return (type(self), (self.lo, self.hi))

    def __init__(self, lo: Sequence[int], hi: Sequence[int]):
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be equal-length, non-empty sequences")
        for j, (a, b) in enumerate(zip(lo, hi)):
            if a < 0:
                raise ValueError(f"negative coordinate {a} in dimension {j}")
            if a > b:
                raise ValueError(f"empty box in dimension {j}: lo {a} > hi {b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def full(cls, dims: Sequence[int]) -> "QueryBox":
        return cls([0] * len(dims), [m - 1 for m in dims])

    @classmethod
    def cell(cls, coords: Sequence[int]) -> "QueryBox":
        return cls(coords, coords)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def lengths(self) -> tuple:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def validate_for(self, dims: Sequence[int]) -> None:
        if len(dims) != self.ndim:
            raise ValueError(f"box has {self.ndim} dimensions, cube has {len(dims)}")
        for j, (b, m) in enumerate(zip(self.hi, dims)):
            if b >= m:
                raise IndexError(f"box exceeds extent {m} in dimension {j}: hi {b}")

    def coords(self):
        """Iterate every coordinate tuple inside the box."""
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def slices(self) -> tuple:
        return tuple(slice(a, b + 1) for a, b in zip(self.lo, self.hi))


def _first_true(mask: np.ndarray) -> tuple:
    """(row, column) of the first True entry of a 2-D mask, row-major."""
    return tuple(np.argwhere(mask)[0].tolist())


def _check_boxes(lo, hi, dims: Sequence[int]) -> tuple:
    """``lo`` and ``hi`` as N x d int64 arrays of boxes checked for ``dims``.

    Each row pair is checked as :class:`QueryBox` and
    :meth:`QueryBox.validate_for` check one box: ValueError for a wrong width,
    a negative coordinate or ``lo > hi``, IndexError for ``hi`` past the
    extent.  Messages name the first offending box.
    """
    lo, hi = np.asarray(lo), np.asarray(hi)
    if lo.ndim != 2 or lo.shape != hi.shape:
        raise ValueError(
            f"lo and hi must be N x d arrays of one shape, got {lo.shape} and {hi.shape}"
        )
    for a in (lo, hi):
        if a.size and not np.can_cast(a.dtype, np.int64):
            raise ValueError(f"box coordinates must be 64-bit integers, got dtype {a.dtype}")
    lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
    if lo.shape[1] != len(dims):
        raise ValueError(f"boxes have {lo.shape[1]} dimensions, cube has {len(dims)}")
    if (lo < 0).any():
        i, j = _first_true(lo < 0)
        raise ValueError(f"box {i}: negative coordinate {lo[i, j]} in dimension {j}")
    if (lo > hi).any():
        i, j = _first_true(lo > hi)
        raise ValueError(f"box {i}: empty box in dimension {j}: lo {lo[i, j]} > hi {hi[i, j]}")
    extents = np.array(dims, dtype=np.int64)
    if (hi >= extents).any():
        i, j = _first_true(hi >= extents)
        raise IndexError(f"box {i}: box exceeds extent {dims[j]} in dimension {j}: hi {hi[i, j]}")
    return lo, hi


def brute_force_range(cube: DataCube, box: QueryBox, op: AggregateOp):
    """Fold ``op`` over every cell in the box, cell by cell.

    This is the reference oracle for every range structure in the package; it
    deliberately avoids prefix tables, vectorisation tricks and operator
    inverses.  A float sum or product is folded in exact rationals and rounded
    once, to nearest as IEEE arithmetic rounds: a float fold can overflow where
    the answer fits (1e200 * 1e200 * 1e-200), and an exact value just past the
    largest float still rounds to it.  Only a value that rounds past the float
    range scans to ±inf, and a structure must raise on that box.
    """
    box.validate_for(cube.dims)
    values = cube.values
    if values.dtype.kind == "f" and (op is SUM or op is PRODUCT):
        from fractions import Fraction
        fold = sum if op is SUM else math.prod
        return _round_once(fold(Fraction(values[c].item()) for c in box.coords()))
    acc = op.identity
    for coords in box.coords():
        acc = op.combine(acc, values[coords].item())
    return acc


def _round_once(exact) -> float:
    """The rational ``exact`` rounded to the nearest float, ±inf where it
    rounds past the largest float (from 2**1024 - 2**970 on)."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def float_sum_error_bound(ndim: int, terms: int, mass) -> float:
    """The absolute error bound of a float box sum read from a table in
    ``ndim`` dimensions: ``2**(ndim + 2) * terms * eps * mass``, capped at the
    largest float.

    ``terms`` is the table's cells plus twice the updates applied to it, and
    ``mass`` the sum of the magnitudes of every term the table combined: the
    cells it was built from plus every delta applied since.  A read folds at
    most ``2**ndim`` prefix corners.  Each corner carries at most ``cells -
    1`` roundings from the build and the fold of its table entries, and one
    per update (an update's index set meets a prefix's in at most one entry);
    the reference cube rounds once per update more.  Each rounding errs by at
    most ``eps / 2`` of the magnitudes it combined, at most ``mass``, and the
    folds of the corners themselves stay within the factor 8 left over.
    """
    if not mass < _FLOAT_MAX:
        return _FLOAT_MAX
    return min(float(mass) * 2 ** (ndim + 2) * terms * _EPS, _FLOAT_MAX)


def float_product_error_bound(ndim: int, terms: int) -> float:
    """The relative error bound of a float box product read from a table in
    ``ndim`` dimensions: ``γ(n) = n·u / (1 - n·u)`` with ``u = eps / 2`` and
    ``n = 2**ndim * terms + 1``, capped at 1.

    ``terms`` is the table's cells plus twice the updates applied to it.  A
    product of exact factors rounded ``n`` times, each rounding a factor
    ``1 + δ`` or its inverse with ``|δ| <= u``, is within ``γ(n)`` of the
    exact product (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, Lemma 3.1).  A read folds at most ``2**ndim`` prefix corners, each
    carrying at most ``cells - 1`` roundings from the build and the fold of
    its table entries and one per update (an update's index set meets a
    prefix's in at most one entry); folding the corners and the one division
    add at most ``2**ndim - 1``, and the reference cube rounds once per
    update.

    Below the normal floats a product loses relative accuracy, so a float
    product table rejects, as ``product underflow``, a table entry below
    them at build or on update and an update that would leave a cell below
    them, and a read rejects a fold or an answer below them.  What is still
    assumed is that no product a read forms and does not check lands there:
    the running product inside one Fenwick or hybrid block read, and the
    running fold of a box's corners.
    """
    return _gamma(2**ndim * terms + 1)


def _gamma(n: int) -> float:
    """``γ(n) = n·u / (1 - n·u)`` with ``u = eps / 2``, capped at 1: the
    relative error of a product of exact factors rounded ``n`` times, and of
    a sum of nonnegative terms each rounded at most ``n`` times (Higham 2002,
    Lemma 3.1 and §4.2)."""
    rounded = n * _EPS / 2
    return rounded / (1 - rounded) if rounded < 0.5 else 1.0


def _rounding_tolerance(op: AggregateOp, table: np.ndarray, terms: int, mass) -> tuple:
    """``(rel_tol, abs_tol)`` for :func:`math.isclose` of a box read from
    ``table``: exact for int tables, :func:`float_sum_error_bound` absolute
    for a float sum and :func:`float_product_error_bound` relative for a
    float product."""
    if table.dtype.kind != "f":
        return 0.0, 0.0
    if op.name == "sum":
        return 0.0, float_sum_error_bound(table.ndim, terms, mass)
    return float_product_error_bound(table.ndim, terms), 0.0


def _float_mass(values: np.ndarray) -> float:
    """Sum of ``|values|`` as a float, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.abs(values).sum())


_OVERFLOW_RISK = "overflow risk: |value| * cell count must stay below 2**62 for sum cubes"


def _check_sum_bound(peak: int, cells: int, message: str = _OVERFLOW_RISK) -> None:
    """Reject ``peak * cells`` at or past ``SUM_SAFE_BOUND``: below it, every
    sum of at most ``cells`` terms of magnitude at most ``peak`` fits int64."""
    if peak * cells >= SUM_SAFE_BOUND:
        raise ValueError(message)


def _check_table_domain(values: np.ndarray, op: AggregateOp, what: str) -> None:
    """Reject a cube that ``op`` cannot give an exact, invertible table over:
    int sum cells keep ``|value| * cells`` below ``SUM_SAFE_BOUND`` and
    product needs a float cube, so no int64 prefix wraps."""
    if not op.invertible:
        raise ValueError(f"operator {op.name} has no inverse; {what} needs one")
    if op.name == "xor" and values.dtype.kind != "i":
        raise ValueError("xor needs an integer cube")
    if op.name == "product" and np.any(values == 0):
        raise ValueError(f"product {what} is undefined with zero cells")
    if op.name == "product" and values.dtype.kind == "i":
        raise ValueError("product structures are only offered on float cubes")
    if op.name == "sum" and values.dtype.kind == "i":
        # Python ints, so the peak of -2**63 is exact (np.abs would wrap).
        _check_sum_bound(max(int(values.max()), -int(values.min())), values.size)


def _updated_cell(op: AggregateOp, values: np.ndarray, coords: tuple, delta):
    """The value cell ``coords`` of ``values`` takes when combined with
    ``delta``, rejected where it leaves the domain ``_check_table_domain``
    admits; a float delta must be finite and an int cube's delta an integer."""
    kind = values.dtype.kind
    if kind == "i" and not isinstance(delta, (int, np.integer)):
        raise ValueError(f"delta {delta!r} is not an integer; int cubes take int deltas")
    if kind == "f" and not abs(delta) <= _FLOAT_MAX:
        raise ValueError(f"delta {delta} is not a finite float")
    # A numpy integer delta would combine in wrapping int64 arithmetic.
    value = op.combine(values[coords].item(), int(delta) if kind == "i" else delta)
    if kind == "f":
        if not abs(value) <= _FLOAT_MAX:
            raise ValueError(f"update would set cell {coords} to {value}, which is not finite")
        # Product tables are float only.  A cell below the normal floats has
        # lost the relative accuracy their tolerance assumes.
        if op.name == "product" and abs(value) < _TINY:
            if value == 0:
                raise ValueError(f"product update would set cell {coords} to zero")
            raise ValueError(
                f"product underflow: update would set cell {coords} to {value!r}, "
                "below the normal floats"
            )
    elif op.name == "sum":
        # The bound on the new cell also keeps the delta within int64.
        _check_sum_bound(abs(value), values.size)
    elif not _INT64_MIN <= delta <= _INT64_MAX:
        raise ValueError(f"delta {delta} does not fit a 64-bit signed integer")
    return value


def _settable_value(op: AggregateOp, values: np.ndarray, coords: tuple, value) -> tuple:
    """``value`` as cell ``coords`` of ``values`` takes it, and the delta
    that sets it there, rejected where no cell may hold the value or no table
    can take the delta.  An int cube's value is an integer (returned as a
    Python int), a float cube's finite and a product cell's nonzero.  A float
    delta must be finite, and a product delta normal: a quotient rounded
    below the normal floats has lost its relative accuracy.  The int bounds
    are the ones an update checks, as the cell it computes is then ``value``
    itself."""
    kind = values.dtype.kind
    if kind == "i" and not isinstance(value, (int, np.integer)):
        raise ValueError(f"value {value!r} is not an integer; int cubes take int values")
    if kind == "f" and not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"value {value} is not a finite float")
    if op.name == "product" and value == 0:
        raise ValueError("product cells cannot be set to zero")
    value = int(value) if kind == "i" else value
    old = values[coords].item()
    delta = op.inverse(value, old)
    if kind == "f":
        taken = (
            f"setting cell {coords} to {value!r} takes the delta "
            f"{value!r} {'/' if op.name == 'product' else '-'} {old!r}, which rounds to {delta!r}"
        )
        if not abs(delta) <= _FLOAT_MAX:
            raise ValueError(f"float overflow: {taken}")
        if op.name == "product" and abs(delta) < _TINY:
            raise ValueError(f"product underflow: {taken}, below the normal floats")
    return value, delta


_NO_ERRSTATE = contextlib.nullcontext()


def _quiet(values: np.ndarray):
    """Silence numpy's float overflow warnings on ``values``: the fold check
    reports a prefix that left the finite floats when a query reads it."""
    return np.errstate(over="ignore", invalid="ignore") if values.dtype.kind == "f" else _NO_ERRSTATE


def _padded_prefix_table(op: AggregateOp, values: np.ndarray, dtype=None, factor=None) -> np.ndarray:
    """Prefix aggregates of ``values`` (times ``factor``, broadcast, where
    one is given) in a ``dtype`` table padded with one identity plane per
    axis: entry ``b + 1`` holds the prefix ending at ``b`` and entry 0 of an
    axis the empty prefix.  One allocation, filled and accumulated in place;
    :func:`_interior` is the unpadded table."""
    padded = np.empty([m + 1 for m in values.shape], dtype or values.dtype)
    table = _interior(padded)
    with _quiet(padded):
        for axis in range(values.ndim):
            padded[(slice(None),) * axis + (0,)] = op.identity
        if factor is None:
            table[...] = values
        else:
            np.multiply(values, factor, out=table)
        for axis in range(values.ndim):
            op.ufunc.accumulate(table, axis=axis, out=table)
    return padded


def _interior(padded: np.ndarray) -> np.ndarray:
    """The view of a padded prefix table without its identity planes."""
    return padded[(slice(1, None),) * padded.ndim]


def _padded_strides(dims: Sequence[int]) -> tuple:
    """Element strides of the C-ordered padded prefix table of a ``dims`` cube."""
    return tuple(math.prod(m + 1 for m in dims[j + 1:]) for j in range(len(dims)))


def _corner_offsets(strides: Sequence[int], lo, hi):
    """Flat offsets of the ``2**d`` corners of the box ``[lo, hi]`` in a
    padded prefix table with element ``strides``: corner ``k`` reads
    ``lo[j] - 1`` (padded index ``lo[j]``) on the axes of the set bits of k
    and ``hi[j]`` (padded ``hi[j] + 1``) on the others, and enters with a
    plus sign where ``_EVEN[k]``.  An empty prefix reads an identity plane.
    ``lo`` and ``hi`` hold a coordinate per axis, or an array of them (one
    per box) for a batched read."""
    picks = [((b + 1) * s, a * s) for s, a, b in zip(strides, lo, hi)]
    picks.reverse()  # itertools.product varies its last argument fastest
    return map(sum, itertools.product(*picks))


#: Whether the k-th box corner, reading ``lo - 1`` on the axes of the set
#: bits of k, enters inclusion-exclusion with a plus sign.
_EVEN = tuple(bin(k).count("1") % 2 == 0 for k in range(1 << MAX_DIMENSIONS))

_REVERSED = operator.itemgetter(slice(None, None, -1))


_UNDERFLOW = "product underflow: a prefix product or the answer is below the normal floats"
_OVERFLOW = "float overflow: a prefix aggregate or the answer is not finite"


def _check_normal_products(entries: np.ndarray, what: str) -> None:
    """Reject float product table ``entries`` that hold one below the normal
    floats (zero included), where a product loses relative accuracy and
    :func:`float_product_error_bound` stops holding.  Callers pass product
    tables only, so no other table pays for the pass."""
    low = np.abs(entries) < _TINY
    if low.any():
        raise ValueError(
            f"product underflow: {what} a table entry of {entries[low][0].item()!r}, "
            "below the normal floats"
        )


def _check_fold(op: AggregateOp, *folds) -> None:
    """Reject a fold (a number, or an array of them) that does not hold the
    aggregate it stands for within the structure's tolerance.  A product fold
    below the normal floats underflowed (product tables hold no zero cell);
    cells are finite, so a non-finite float fold means a prefix overflowed."""
    if isinstance(folds[0], np.ndarray):
        low = op.name == "product" and any((np.abs(fold) < _TINY).any() for fold in folds)
        finite = all(np.isfinite(fold).all() for fold in folds)
    else:
        low = op.name == "product" and min(map(abs, folds)) < _TINY
        finite = all(map(math.isfinite, folds))
    if low:
        raise ValueError(_UNDERFLOW)
    if not finite:
        raise ValueError(_OVERFLOW)


def _corners(picks: list):
    """The non-empty corners of a box ``[lo, hi]``, in :func:`_corner_offsets` order.

    ``picks[j]`` is axis j's pair (what reads ``hi[j]``, what reads
    ``lo[j] - 1``), or only the first where ``lo[j]`` is 0: a corner reading
    ``-1`` is an empty prefix, whose value is the identity.  Each corner is
    the tuple of one pick per axis.  Axis 0 varies fastest, so the ``lo - 1``
    picks of the k-th corner are the set bits of k, counted over the axes
    that have one, and it enters with a plus sign where ``_EVEN[k]``.
    """
    return map(_REVERSED, itertools.product(*reversed(picks)))


def _fold_corners(op: AggregateOp, values):
    """Aggregate over a box from the prefix values at its corners, in
    :func:`_corner_offsets` order (or :func:`_corners` order, empty ones left out).

    The even- and odd-parity corners are folded separately and joined by one
    inverse; a fold that underflowed cannot be divided back out, and one that
    overflowed cannot be subtracted.
    """
    keep = drop = op.identity
    for value, even in zip(values, _EVEN):
        if even:
            keep = op.combine(keep, value)
        else:
            drop = op.combine(drop, value)
    _check_fold(op, keep, drop)
    answer = op.inverse(keep, drop)
    if isinstance(answer, float):  # an int answer is exact once its folds are
        _check_fold(op, answer)
    return answer


class PrefixCube:
    """Prefix-aggregate table answering box queries in ``2**d`` lookups.

    Cell ``b`` of the table holds the aggregate over the prefix subcube
    ``[0..b[0]] x ... x [0..b[d-1]]``.  Arbitrary boxes are recovered by
    inclusion-exclusion over the ``2**d`` prefix corners, which requires the
    operator to be invertible.  A float answer is within :attr:`tolerance`
    of the exact aggregate of the box.
    """

    def __init__(self, cube: DataCube, op: AggregateOp):
        _check_table_domain(cube.values, op, "prefix cube")
        self.op = op
        self.dims = cube.dims
        self._padded = _padded_prefix_table(op, cube.values)
        self._strides = _padded_strides(cube.dims)
        self._item = self._padded.item  # one attribute read per scalar query
        self.table = _interior(self._padded)
        if op.name == "product":
            _check_normal_products(self.table, "the build leaves")
        # Only a float sum's bound reads the cells' magnitudes.
        self._mass = _float_mass(cube.values) if op.name == "sum" and cube.kind == "float" else 0.0
        #: Prefix lookups made by the most recent range_aggregate call.
        self.lookups_last_query = 0

    @property
    def tolerance(self) -> tuple:
        """``(rel_tol, abs_tol)`` for :func:`math.isclose` of a box answer
        against the exact one: ``(0.0, 0.0)`` for an int cube, the
        :func:`float_sum_error_bound` of Σ|cells| for a float sum and the
        :func:`float_product_error_bound` for a float product."""
        return _rounding_tolerance(self.op, self.table, self.table.size, self._mass)

    def range_aggregate(self, box: QueryBox):
        box.validate_for(self.dims)
        corners = _corner_offsets(self._strides, box.lo, box.hi)
        value = _fold_corners(self.op, map(self._item, corners))
        self.lookups_last_query = 1 << len(self.dims)
        return value

    def range_aggregate_many(self, lo, hi) -> np.ndarray:
        """Answers for the boxes ``[lo[i], hi[i]]`` of two N x d integer arrays.

        One gather per corner answers every box.  Answer ``i`` equals
        ``range_aggregate(QueryBox(lo[i], hi[i]))`` after ``.tolist()``:
        corners fold in the same order, and the same fold check rejects a
        batch holding one box that it rejects.  Afterwards
        :attr:`lookups_last_query` holds the per-box count.
        """
        op, flat = self.op, self._padded.reshape(-1)
        lo, hi = _check_boxes(lo, hi, self.dims)
        keep = np.full(len(lo), op.identity, dtype=flat.dtype)
        drop = keep.copy()
        with _quiet(flat):
            for offsets, even in zip(_corner_offsets(self._strides, lo.T, hi.T), _EVEN):
                fold = keep if even else drop
                op.ufunc(fold, flat[offsets], out=fold)
            _check_fold(op, keep, drop)
            answers = op.inverse_ufunc(keep, drop)
        _check_fold(op, answers)
        self.lookups_last_query = 1 << len(self.dims) if len(lo) else 0
        return answers
