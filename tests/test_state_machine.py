"""A long-run differential state machine over the dynamic box-read structures.

One machine drives a :class:`FenwickCube`, a :class:`HybridCube` with drawn
``k`` and ``q`` and a :class:`PrefixCube` rebuilt for every read, all over one
reference cube kept by the test, through interleaved ``update``,
``set_value``, ``prefix_query`` and ``range_query`` steps.  The cube is an
int sum, int xor, float sum or float product cube.  Every step checks:

* int answers equal :func:`brute_force_range` over the reference cube;
* float answers lie within the answering structure's ``tolerance``;
* every counter stays within its structure's stated cell or lookup bound;
* a rejected change raises a ``ValueError`` that names its cause and leaves
  every table and shadow bit-identical.
"""

import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from rangecube import PRODUCT, SUM, XOR, PrefixCube, QueryBox, brute_force_range, make_cube
from rangecube.dynamic import FenwickCube, HybridCube


def _floats(lo, hi):
    """Floats of either sign with magnitudes in ``[lo, hi]``."""
    magnitude = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda pair: pair[0] * pair[1])


#: kind -> (cube kind, operator, cell and set values, deltas, deltas every structure rejects)
KINDS = {
    "int-sum": ("int", SUM, st.integers(-1000, 1000), st.integers(-50, 50), [1.5, 2**62, -(2**63)]),
    "int-xor": ("int", XOR, st.integers(0, 2**40), st.integers(0, 255), [1.5, 2**63, -(2**63) - 1]),
    "float-sum": ("float", SUM, _floats(0, 1e6), _floats(0, 1e3), [math.inf, math.nan, 10**400]),
    "float-product": ("float", PRODUCT, _floats(0.1, 10), _floats(0.5, 2), [0.0, math.inf, math.nan]),
}

#: Words that name the cause of each rejection the machine may meet.
CAUSES = ("overflow", "finite", "zero", "integer", "does not fit")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class DynamicStructures(RuleBasedStateMachine):
    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    @initialize(data=st.data())
    def build(self, data):
        cube_kind, self.op, self.values, self.deltas, self.bad = KINDS[self.kind]
        d = data.draw(st.integers(1, 3), label="d")
        dims = data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d), label="dims")
        cells = data.draw(st.lists(self.values, min_size=math.prod(dims), max_size=math.prod(dims)))
        self.cube = make_cube(dims, cells, kind=cube_kind)
        k = data.draw(st.integers(1, max(dims)), label="k")
        q = data.draw(st.integers(0, d), label="q")
        self.fenwick = FenwickCube(self.cube, self.op)
        self.hybrid = HybridCube(self.cube, self.op, k=k, q=q)

    @property
    def structures(self):
        return (self.fenwick, self.hybrid)

    def coords(self, data):
        return tuple(data.draw(st.integers(0, m - 1)) for m in self.cube.dims)

    def change(self, name, coords, arg, reference):
        """Apply ``name(coords, arg)`` to every structure; on success store
        ``reference`` (the cell the reference cube takes) in the cube."""
        before = [(s.table.copy(), s.shadow.copy()) for s in self.structures]
        errors = []
        for structure in self.structures:
            try:
                getattr(structure, name)(coords, arg)
            except ValueError as exc:
                errors.append(str(exc))
        if errors:
            assert len(errors) == len(self.structures), errors
            assert all(any(cause in e for cause in CAUSES) for e in errors), errors
            for structure, (table, shadow) in zip(self.structures, before):
                assert _same_bits(structure.table, table) and _same_bits(structure.shadow, shadow)
            return
        self.cube.values[coords] = reference()
        assert self.fenwick.cells_touched_last_update <= self.fenwick.op_cell_bound
        assert self.hybrid.cells_touched_last_update <= self.hybrid.update_cell_bound

    @rule(data=st.data())
    def update(self, data):
        coords = self.coords(data)
        delta = data.draw(st.one_of(self.deltas, st.sampled_from(self.bad)), label="delta")
        self.change("update", coords, delta, lambda: self.op.combine(self.cube.cell(coords), delta))

    @rule(data=st.data())
    def set_value(self, data):
        coords = self.coords(data)
        value = data.draw(st.one_of(self.values, st.sampled_from(self.bad)), label="value")
        self.change("set_value", coords, value, lambda: value)

    def check(self, answer, box, structure):
        expected = brute_force_range(self.cube, box, self.op)
        if self.cube.kind == "int":
            assert answer == expected, (box, answer, expected)
        else:
            rel_tol, abs_tol = structure.tolerance
            assert math.isclose(answer, expected, rel_tol=rel_tol, abs_tol=abs_tol), (box, answer, expected)

    @rule(data=st.data())
    def prefix_query(self, data):
        b = self.coords(data)
        box = QueryBox([0] * len(b), b)
        for structure in self.structures:
            self.check(structure.prefix_query(b), box, structure)
        assert self.fenwick.cells_touched_last_query <= self.fenwick.op_cell_bound
        assert self.hybrid.cells_touched_last_query <= self.hybrid.query_cell_bound

    @rule(data=st.data())
    def range_query(self, data):
        lo = self.coords(data)
        box = QueryBox(lo, [data.draw(st.integers(a, m - 1)) for a, m in zip(lo, self.cube.dims)])
        for structure in self.structures:
            self.check(structure.range_query(box), box, structure)
        # A range query reports its largest constituent prefix query.
        assert self.fenwick.cells_touched_last_query <= self.fenwick.op_cell_bound
        assert self.hybrid.cells_touched_last_query <= self.hybrid.query_cell_bound
        rebuilt = PrefixCube(self.cube, self.op)
        self.check(rebuilt.range_aggregate(box), box, rebuilt)
        assert rebuilt.lookups_last_query == 2 ** self.cube.ndim

    @invariant()
    def shadows_match(self):
        for structure in self.structures:
            assert _same_bits(structure.shadow, self.cube.values)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_long_runs_agree(kind):
    run_state_machine_as_test(
        lambda: DynamicStructures(kind),
        settings=settings(max_examples=20, stateful_step_count=50, derandomize=True, deadline=None),
    )
