"""In-memory spans around the benchmark's calls into rangecube modules.

A span is ``(name, start, end, parent, op_id)``: the span name is
``<module>.<public name>``, times come from :data:`clock`, ``parent``
is the index of the enclosing span (-1 at top level) and ``op_id`` is the
closed-loop request the call served.  Spans stay in memory until
:meth:`Tracer.write` dumps them when the run ends.

Untraced runs use :class:`NullTracer`, which calls straight through, so both
runs execute the same benchmark code.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

#: Every duration the benchmark reports is CPU time of its one thread (user
#: plus system).  On a shared virtual machine, wall time also holds the time
#: the hypervisor gives the core to other tenants, which swings by tens of
#: percent from one second to the next; thread CPU time leaves that out.
clock = time.thread_time


class NullTracer:
    """Tracing off: every call goes straight to the library."""

    enabled = False

    def __init__(self):
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, key, value):
        pass


class Tracer:
    """Tracing on: one span per call, plus counts noted at the same boundaries."""

    enabled = True

    def __init__(self):
        self.op_id = -1
        #: While False, calls go straight through and record nothing.
        self.active = True
        self.spans = []
        self.notes = defaultdict(list)
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op_id)

    def note(self, key, value):
        self.notes[key].append(value)

    def durations(self, name) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def median(self, name, scale=1.0) -> float:
        """Median duration of the ``name`` spans times ``scale`` (0 if none)."""
        d = self.durations(name)
        return float(np.median(d)) * scale if len(d) else 0.0

    def self_times(self, name) -> np.ndarray:
        """Duration of each ``name`` span minus the time its child spans cover.

        The benchmark is single-threaded, so children of one span never
        overlap and their durations add up.
        """
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return np.array(
            [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == name]
        )

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op_id"],
                    "spans": self.spans,
                    "notes": self.notes,
                },
                handle,
            )


def table_bytes(structure) -> int:
    """Bytes of every numpy table a structure holds directly or in a dict/list.

    Input cubes (:class:`rangecube.DataCube` attributes) are not counted.
    """
    total = 0
    for value in vars(structure).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else (value,)
        )
        total += sum(x.nbytes for x in items if isinstance(x, np.ndarray))
    return total


@contextlib.contextmanager
def traced_cli(tracer):
    """Wrap the public names ``rangecube.cli`` and ``rangecube.formats`` call.

    Covers ``load_cube``, ``make_cube``, the structure constructors and the
    query/update methods the ``query`` command uses.  Everything is restored
    on exit.
    """
    from rangecube import cli, cube, dynamic, formats, rmq

    saved = []

    def wrap_function(owner, attr, name, on_result=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if on_result is not None and tracer.active:
                on_result(args, result)
            return result

        saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def wrap_method(cls, attr, name):
        original = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            return tracer.call(name, original, self, *args, **kwargs)

        saved.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapper)

    def note_load(args, result):
        tracer.note("formats.bytes_read", os.path.getsize(args[0]))
        tracer.note("formats.values_parsed", result.size)

    def note_cells(args, result):
        tracer.note("cube.cells_built", result.size)

    def note_tables(key):
        return lambda args, result: tracer.note(key, table_bytes(result))

    def note_rmq(args, result):
        tracer.note("rmq.levels", len(result.tables))
        tracer.note("rmq.table_bytes", table_bytes(result))
        tracer.note("table_bytes", table_bytes(result))

    wrap_function(cli, "load_cube", "formats.load_cube", note_load)
    wrap_function(cli, "make_cube", "cube.make_cube", note_cells)
    wrap_function(formats, "make_cube", "cube.make_cube", note_cells)
    wrap_function(cli, "PrefixCube", "cube.PrefixCube", note_tables("table_bytes"))
    wrap_function(cli, "SparseTable", "rmq.SparseTable", note_rmq)
    wrap_function(cli, "FenwickCube", "dynamic.FenwickCube", note_tables("table_bytes"))
    wrap_function(cli, "HybridCube", "dynamic.HybridCube", note_tables("table_bytes"))
    wrap_method(cube.PrefixCube, "range_aggregate", "cube.PrefixCube.range_aggregate")
    wrap_method(rmq.SparseTable, "query", "rmq.SparseTable.query")
    for cls in (dynamic.FenwickCube, dynamic.HybridCube):
        prefix = f"dynamic.{cls.__name__}"
        wrap_method(cls, "update", f"{prefix}.update")
        wrap_method(cls, "range_query", f"{prefix}.range_query")
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
