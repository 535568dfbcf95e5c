"""Command-line front end.

Two commands:

* ``query STRUCT DATA SCRIPT [--oracle]`` — run a script of queries/updates
  against one structure.  ``STRUCT`` is ``name`` or ``name:key=val,...``:

  - ``prefix[:op=sum|xor|product]``       verbs: query, prefix
  - ``fenwick[:op=...]``                  verbs: query, prefix, update
  - ``hybrid[:op=...,k=K,q=Q]``           verbs: query, prefix, update
  - ``rmq[:mode=min|max]``                verbs: rmq
  - ``median:scales=FILE``                verbs: cube-median (any d), median (1-D)
  - ``kmedian:scales=FILE``               verbs: kmedian (1-D cubes)
  - ``select[:op=sum|product|max]``       verbs: select, agg-select
                                          (DATA is a weight-arrays file)

  Scripts hold one command per line (``#`` comments):
  ``prefix b1..bd`` | ``query lo1 hi1 .. lod hid`` | ``update c1..cd delta`` |
  ``rmq lo1 hi1 ..`` | ``median i j`` | ``cube-median lo1 hi1 ..`` |
  ``kmedian K L`` | ``select k [q]`` | ``agg-select k [q]``.
  With ``--oracle`` every answer is cross-checked against its brute-force
  twin (``brute_force_range``, ``brute_force_median``, the naive K-median DP,
  sort-all) and the first mismatch aborts.  Int answers must be equal; a float
  answer may differ by the rounding its computation can add, as the box-read
  structure's ``tolerance``, ``CubeMedianIndex.cost_error_bound`` and the
  selection arrays' ``tolerance`` and ``aggregate_tolerance`` state.
  Each structure is one ``_STRUCTURES`` entry (options, a build step, a
  handler per verb, optionally a batched handler) run by the one loop in
  :func:`run_script`.  That loop answers each run of reads between
  ``update`` lines as columns when the structure has a batched handler
  (``prefix`` and ``rmq``, whose whole script is one run): one parse turns
  the run's arguments into ``lo``/``hi`` int64 arrays, one batched read
  answers them and the values are formatted as one list under one counter
  record.  A run with a bad line, or a token that parse does not vouch for,
  goes through the verb handlers one command at a time instead, so output,
  counters, error messages and oracle checks stay those of one read at a
  time.  The lines go to stdout in one write once the script has run.  The
  structures check the numeric domain themselves: the int sum bound on load
  and on every update, float-only product and finite float cells.

* ``bench`` — deterministic touched-cell statistics for hybrid parameter
  sweeps against the predicted bounds.

All coordinates are 0-based (add 1 to translate to the common 1-based
conventions in the literature).  Exit code 0 iff no errors and, in oracle
mode, no mismatches.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cube import (
    MAX_DIMENSIONS,
    OPS,
    SUM,
    DataCube,
    PrefixCube,
    QueryBox,
    brute_force_range,
    make_cube,
)
from .dynamic import FenwickCube, HybridCube
from .formats import _parse_numbers, load_cube, load_number_lines
from .medians import (
    CubeMedianIndex,
    MedianIndex,
    WeightedPoints1D,
    brute_force_median,
    cube_range_weighted_median,
    interval_k_median,
    interval_k_median_naive,
    range_weighted_median,
)
from .rmq import SparseTable
from .selection import (
    SortedWeightArrays,
    aggregate_k_smallest,
    all_weights,
    build_split,
    choose_split_q,
    kth_smallest,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing error: printed to stderr, exit code 1."""


def format_value(value) -> str:
    """Decimal output; floats with 12 significant digits."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# -- scripts -----------------------------------------------------------------


class ScriptCommand(NamedTuple):
    lineno: int
    verb: str
    args: tuple
    raw: str


def parse_script(text: str):
    commands = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        verb, args = parts[0], tuple(parts[1:])
        if verb not in _ALL_VERBS:
            raise CliError(f"line {lineno}: unknown verb {verb!r}")
        commands.append(ScriptCommand(lineno, verb, args, body))
    return commands


def _ints(cmd: ScriptCommand, count: int):
    if len(cmd.args) != count:
        raise ValueError(f"{cmd.verb} expects {count} arguments, got {len(cmd.args)}")
    try:
        return [int(a) for a in cmd.args]
    except ValueError:
        raise ValueError(f"non-integer argument in {cmd.raw!r}") from None


def _box(cmd: ScriptCommand, dims) -> QueryBox:
    """The box a command names, checked against ``dims``: ``lo hi`` pairs, or
    for the ``prefix`` verb the corner ``b`` of the prefix box ``[0, b]``."""
    if cmd.verb == "prefix":
        box = QueryBox([0] * len(dims), _ints(cmd, len(dims)))
    else:
        coords = _ints(cmd, 2 * len(dims))
        box = QueryBox(coords[0::2], coords[1::2])
    box.validate_for(dims)
    return box


def _number(token: str, kind: str):
    return int(token) if kind == "int" else float(token)


class _Answer(NamedTuple):
    """What a verb handler returns for one command."""

    printed: tuple  # values of the output line; empty for an update
    got: object  # the value the oracle checks
    counter: object  # recorded under the verb's counter key (None: nothing)
    expected: object = None  # the brute-force value, computed only under --oracle
    rel_tol: float = 0.0  # float answers: math.isclose tolerances (both 0: exact)
    abs_tol: float = 0.0


def _line(answer: _Answer) -> str:
    return " ".join(map(format_value, answer.printed))


class _Stats:
    def __init__(self):
        self.queries = 0
        self.updates = 0
        self.counters = {}

    def record(self, key: str, value):
        if value is not None:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def lines(self):
        yield f"# ops queries={self.queries} updates={self.updates}"
        if self.counters:
            body = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            yield f"# counters {body}"


def _oracle_check(cmd: ScriptCommand, got, expected, rel_tol=0.0, abs_tol=0.0):
    if (isinstance(got, float) or isinstance(expected, float)) and (rel_tol or abs_tol):
        ok = math.isclose(got, expected, rel_tol=rel_tol, abs_tol=abs_tol)
    else:
        ok = got == expected
    if not ok:
        # Every digit of a float: 12 could print two different answers alike.
        shown = lambda v: repr(float(v)) if isinstance(v, float) else str(v)
        raise CliError(
            f"oracle mismatch at line {cmd.lineno}: {cmd.raw!r}: got "
            f"{shown(got)} expected {shown(expected)}"
        )


# -- structure options -------------------------------------------------------

_TABLE_OPS = ("sum", "xor", "product")


def _op_option(text):
    name = "sum" if text is None else text
    if name not in _TABLE_OPS:
        raise CliError(f"op must be one of {sorted(_TABLE_OPS)}, got {name!r}")
    return OPS[name]


def _int_option(text):
    return None if text is None else int(text)


def _mode_option(text):
    mode = "min" if text is None else text
    if mode not in ("min", "max"):
        raise CliError(f"rmq mode must be 'min' or 'max', got {mode!r}")
    return mode


def _scales_option(text):
    if text is None:
        raise CliError("this structure needs a scales=FILE option")
    return text


def _select_op_option(text):
    return "sum" if text is None else text


def _structure_options(spec: dict, options: dict) -> dict:
    """Convert every option ``spec`` names (an absent one arrives as ``None``)
    and reject the others."""
    values = {}
    for key, convert in spec.items():
        try:
            values[key] = convert(options.pop(key, None))
        except ValueError:
            raise CliError(f"invalid value for structure option {key!r}") from None
    if options:
        raise CliError(f"unknown structure options: {sorted(options)}")
    return values


# -- build steps -------------------------------------------------------------
#
# A build step takes the converted options, the data path and the oracle flag
# and returns the state its verb handlers read.  It names ``load_cube``,
# ``make_cube`` and the structure classes through this module's globals when
# it runs, so rebinding those names here (as the benchmark's tracer does)
# reaches every load and build.


@dataclass
class _BoxReads:
    """A built box-read structure (prefix, Fenwick, hybrid or sparse table)."""

    cube: DataCube
    op: object  # the aggregate the oracle folds
    structure: object  # the one that answers, takes ``update`` and states its ``tolerance``
    read: Callable  # QueryBox -> answer
    touched: Callable  # () -> lookups or cells of the last read (per box, after a batch)
    twin: object  # the cube the oracle scans (None for updatable ones without --oracle)
    read_many: Optional[Callable] = None  # static structures: (lo, hi) N x d arrays -> answers


def _build_prefix(o, data_path, oracle):
    cube = load_cube(data_path)
    pc = PrefixCube(cube, o["op"])
    return _BoxReads(
        cube, o["op"], pc, pc.range_aggregate, lambda: pc.lookups_last_query, cube,
        pc.range_aggregate_many,
    )


def _updatable(cube, op, structure, oracle):
    # The oracle scans its own copy of the cube, updated in step with the structure.
    twin = make_cube(cube.dims, cube.values, kind=cube.kind) if oracle else None
    return _BoxReads(
        cube, op, structure, structure.range_query, lambda: structure.cells_touched_last_query, twin
    )


def _build_fenwick(o, data_path, oracle):
    cube = load_cube(data_path)
    return _updatable(cube, o["op"], FenwickCube(cube, o["op"]), oracle)


def _build_hybrid(o, data_path, oracle):
    cube = load_cube(data_path)
    return _updatable(cube, o["op"], HybridCube(cube, o["op"], o["k"], o["q"]), oracle)


def _build_rmq(o, data_path, oracle):
    cube = load_cube(data_path)
    table = SparseTable(cube, mode=o["mode"])
    return _BoxReads(
        cube, OPS[o["mode"]], table, table.query, lambda: table.lookups_last_query, cube,
        table.query_many,
    )


def _build_median(o, data_path, oracle):
    cube = load_cube(data_path)
    scales = load_number_lines(o["scales"])
    index = CubeMedianIndex(cube, scales)
    line = MedianIndex(WeightedPoints1D(scales[0], cube.flat())) if cube.ndim == 1 else None
    return SimpleNamespace(cube=cube, index=index, line=line)


def _build_kmedian(o, data_path, oracle) -> WeightedPoints1D:
    cube = load_cube(data_path)
    scales = load_number_lines(o["scales"])
    if cube.ndim != 1:
        raise CliError("this structure needs a 1-dimensional cube")
    if len(scales) != 1 or len(scales[0]) != cube.dims[0]:
        raise CliError("scales file must hold one coordinate per cube entry")
    return WeightedPoints1D(scales[0], cube.flat())


def _build_select(o, data_path, oracle):
    arrays = SortedWeightArrays(load_number_lines(data_path), o["op"])
    return SimpleNamespace(arrays=arrays, op=o["op"], weights=all_weights(arrays) if oracle else None)


# -- verb handlers -----------------------------------------------------------
#
# A handler parses its command's arguments and returns an ``_Answer``.  It
# raises ValueError/IndexError for bad input; the caller adds the line number.


def _box_read(s: _BoxReads, cmd, oracle):
    box = _box(cmd, s.cube.dims)
    value = s.read(box)
    check = (brute_force_range(s.twin, box, s.op), *s.structure.tolerance) if oracle else ()
    return _Answer((value,), value, s.touched(), *check)


def _box_arrays(run, d: int):
    """The boxes a run of box reads names, as N x d int64 ``lo`` and ``hi``
    arrays (``prefix b`` names ``[0, b]``), from one parse of all their
    arguments; None where a line has the wrong argument count or holds a
    token :func:`~rangecube.formats._parse_numbers` does not vouch for."""
    prefix = np.array([cmd.verb == "prefix" for cmd in run])
    widths = np.where(prefix, d, 2 * d)
    if not np.array_equal([len(cmd.args) for cmd in run], widths):
        return None
    coords = _parse_numbers(" ".join(itertools.chain.from_iterable(cmd.args for cmd in run)), "int")
    if coords is None:
        return None
    starts = np.cumsum(widths) - widths
    lo = np.zeros((len(run), d), dtype=np.int64)
    hi = np.empty((len(run), d), dtype=np.int64)
    for rows, width in ((prefix, d), (~prefix, 2 * d)):
        group = coords[starts[rows, None] + np.arange(width)]
        if width == d:
            hi[rows] = group
        else:
            lo[rows], hi[rows] = group[:, 0::2], group[:, 1::2]
    return lo, hi


def _box_reads(s: _BoxReads, run, oracle):
    """A run of box reads answered by one batched read: ``(values, counter,
    checks)``, ``checks`` holding each box's ``(expected, rel_tol,
    abs_tol)`` under --oracle.  None where a line is bad; the caller then
    runs the commands one at a time, so the first bad line is named."""
    boxes = _box_arrays(run, s.cube.ndim)
    if boxes is None:
        return None
    try:
        values = s.read_many(*boxes).tolist()
    except (ValueError, IndexError):
        return None
    checks = None
    if oracle:
        tol = s.structure.tolerance
        pairs = zip(boxes[0].tolist(), boxes[1].tolist())
        checks = [(brute_force_range(s.twin, QueryBox(a, b), s.op), *tol) for a, b in pairs]
    return values, s.touched(), checks


def _box_update(s: _BoxReads, cmd, oracle):
    d = s.cube.ndim
    if len(cmd.args) != d + 1:
        raise ValueError(f"update expects {d} coordinates and a delta")
    try:
        coords = tuple(int(a) for a in cmd.args[:d])
        delta = _number(cmd.args[-1], s.cube.kind)
    except ValueError:
        raise ValueError(f"bad update arguments {cmd.raw!r}") from None
    s.structure.update(coords, delta)
    if oracle:
        s.twin.values[coords] = s.op.combine(s.twin.values[coords].item(), delta)
    return _Answer((), None, s.structure.cells_touched_last_update)


def _median(s, cmd, oracle):
    if s.line is None:
        raise ValueError("the 'median' verb needs a 1-dimensional cube")
    i, j = _ints(cmd, 2)
    if not 0 <= i <= j < len(s.line):
        raise ValueError(f"invalid position range [{i}, {j}]")
    r, cost = range_weighted_median(s.line, i, j)
    check = _median_oracle(s, QueryBox([i], [j])) if oracle else ()
    return _Answer((r, cost), cost, s.line.probes_last_query, *check)


def _cube_median(s, cmd, oracle):
    box = _box(cmd, s.cube.dims)
    res = cube_range_weighted_median(s.index, box)
    check = _median_oracle(s, box) if oracle else ()
    return _Answer((*res.location, res.cost), res.cost, s.index.rangesum_probes_last_query, *check)


def _median_oracle(s, box: QueryBox) -> tuple:
    """``(expected, rel_tol, abs_tol)`` of a median cost over ``box``."""
    return brute_force_median(s.cube, s.index.scales, box), 0.0, s.index.cost_error_bound


def _kmedian(pts: WeightedPoints1D, cmd, oracle):
    if len(cmd.args) != 2:
        raise ValueError("kmedian expects K and L")
    try:
        count = int(cmd.args[0])
        length = _number(cmd.args[1], "int" if "." not in cmd.args[1] else "float")
    except ValueError:
        raise ValueError(f"bad kmedian arguments {cmd.raw!r}") from None
    res = interval_k_median(pts, count, length)
    expected = float(interval_k_median_naive(pts, count, length)) if oracle else None
    printed = (res.cost, *(x for interval in res.intervals for x in interval))
    return _Answer(printed, float(res.cost), res.deque_pushes, expected, 1e-9, 1e-9)


def _select(s, cmd, oracle):
    """``select k [q]``: the k-th smallest weight; ``agg-select`` the
    structure's aggregate of the k smallest.  ``q`` is the split size (absent:
    the default, 0: no stored split).  The oracle compares with
    ``all_weights`` and with the exact fold of its k smallest entries, within
    the bound the arrays state for each."""
    if not 1 <= len(cmd.args) <= 2:
        raise ValueError(f"bad {cmd.verb} arguments {cmd.raw!r}")
    try:
        k = int(cmd.args[0])
        q = int(cmd.args[1]) if len(cmd.args) > 1 else choose_split_q(s.arrays)
    except ValueError:
        raise ValueError(f"bad {cmd.verb} arguments {cmd.raw!r}") from None
    split = build_split(s.arrays, q) if q else None
    if cmd.verb == "select":
        value = kth_smallest(s.arrays, k, split=split)
        check = (s.weights[k - 1], *s.arrays.tolerance) if oracle else ()
    else:
        value = aggregate_k_smallest(s.arrays, s.op, k, split=split)
        check = (s.arrays.combine_exact(s.weights[:k]), *s.arrays.aggregate_tolerance) if oracle else ()
    return _Answer((value,), value, None, *check)


# -- the structure table and the script loop ---------------------------------


@dataclass(frozen=True)
class _Structure:
    options: dict  # option key -> converter of its text (None when absent)
    build: Callable  # (options, data path, oracle) -> state for the handlers
    verbs: dict  # verb -> (handler(state, cmd, oracle) -> _Answer, counter key)
    batch: Optional[Callable] = None  # (state, run of reads, oracle) -> (values, counter, checks) or None


_DYNAMIC_VERBS = {
    "query": (_box_read, "query_cells_max"),
    "prefix": (_box_read, "query_cells_max"),
    "update": (_box_update, "update_cells_max"),
}

_STRUCTURES = {
    "prefix": _Structure(
        {"op": _op_option},
        _build_prefix,
        {"query": (_box_read, "prefix_lookups_max"), "prefix": (_box_read, "prefix_lookups_max")},
        _box_reads,
    ),
    "fenwick": _Structure({"op": _op_option}, _build_fenwick, _DYNAMIC_VERBS),
    "hybrid": _Structure(
        {"op": _op_option, "k": _int_option, "q": _int_option}, _build_hybrid, _DYNAMIC_VERBS
    ),
    "rmq": _Structure(
        {"mode": _mode_option}, _build_rmq, {"rmq": (_box_read, "rmq_lookups_max")}, _box_reads
    ),
    "median": _Structure(
        {"scales": _scales_option},
        _build_median,
        {"median": (_median, "median_probes_max"), "cube-median": (_cube_median, "rangesum_probes_max")},
    ),
    "kmedian": _Structure(
        {"scales": _scales_option}, _build_kmedian, {"kmedian": (_kmedian, "deque_pushes_max")}
    ),
    "select": _Structure(
        {"op": _select_op_option}, _build_select, {"select": (_select, None), "agg-select": (_select, None)}
    ),
}

_ALL_VERBS = {verb for entry in _STRUCTURES.values() for verb in entry.verbs}


def parse_struct_spec(spec: str):
    name, _, rest = spec.partition(":")
    options = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key:
                raise CliError(f"malformed structure option {item!r} in {spec!r}")
            options[key] = value
    if name not in _STRUCTURES:
        raise CliError(
            f"unknown structure {name!r}; expected one of {sorted(_STRUCTURES)}"
        )
    return name, options


def run_script(data_path, struct_spec: str, script_path, oracle: bool = False):
    """Execute a script against one structure; returns printed lines."""
    out = []
    name, options = parse_struct_spec(struct_spec)
    entry = _STRUCTURES[name]
    with open(script_path, "r", encoding="utf-8") as handle:
        commands = parse_script(handle.read())
    for cmd in commands:
        if cmd.verb not in entry.verbs:
            raise CliError(
                f"line {cmd.lineno}: unsupported verb {cmd.verb!r} for structure {name!r}"
            )
    state = entry.build(_structure_options(entry.options, options), data_path, oracle)
    stats = _Stats()
    # Updates are barriers: each run of reads between them is answered together
    # by the batched handler, if any.  A run it declines (a bad line) goes
    # through the verb handlers one command at a time, and they name the line.
    for _, run in itertools.groupby(commands, key=lambda cmd: cmd.verb == "update"):
        run = list(run)
        batched = None
        if entry.batch is not None and len(run) > 1 and run[0].verb != "update":
            batched = entry.batch(state, run, oracle)
        if batched is not None:
            values, counter, checks = batched
            if oracle:
                for cmd, got, check in zip(run, values, checks):
                    _oracle_check(cmd, got, *check)
            for verb in {cmd.verb for cmd in run}:
                stats.record(entry.verbs[verb][1], counter)
            stats.queries += len(values)
            out.extend(map(format_value, values))
            continue
        for cmd in run:
            answer = _answer(entry, state, cmd, oracle)
            stats.record(entry.verbs[cmd.verb][1], answer.counter)
            if cmd.verb == "update":
                stats.updates += 1
                continue
            stats.queries += 1
            if oracle:
                _oracle_check(cmd, answer.got, answer.expected, answer.rel_tol, answer.abs_tol)
            out.append(_line(answer))
    out.extend(stats.lines())
    return out


def _answer(entry: _Structure, state, cmd: ScriptCommand, oracle: bool) -> _Answer:
    handler = entry.verbs[cmd.verb][0]
    try:
        return handler(state, cmd, oracle)
    except (ValueError, IndexError) as exc:
        raise CliError(f"line {cmd.lineno}: {exc}") from None


# -- bench -------------------------------------------------------------------

BENCH_CELL_CAP = 1 << 22


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None


def run_bench(n, d, k_list, q_list, ratio, ops, seed, csv=False):
    if n < 1 or not 1 <= d <= MAX_DIMENSIONS:
        raise CliError(f"need n >= 1 and 1 <= d <= {MAX_DIMENSIONS}")
    if n**d > BENCH_CELL_CAP:
        raise CliError(f"parameter overflow: n**d = {n**d} exceeds {BENCH_CELL_CAP} cells")
    if not 0.0 <= ratio <= 1.0:
        raise CliError("ratio must be in [0, 1]")
    if k_list is None:
        root = math.isqrt(n - 1) + 1 if n > 1 else 1
        k_list = sorted({1, root, n})
    if q_list is None:
        q_list = list(range(d + 1))
    rng_cube = random.Random(seed)
    dims = [n] * d
    cube = make_cube(dims, [rng_cube.randint(-100, 100) for _ in range(n**d)])
    header = (
        "k",
        "q",
        "updates",
        "queries",
        "upd_mean",
        "upd_max",
        "upd_bound",
        "qry_mean",
        "qry_max",
        "qry_bound",
    )
    rows = [header]
    for k in k_list:
        for q in q_list:
            try:
                hc = HybridCube(cube, SUM, k, q)
            except ValueError as exc:
                raise CliError(str(exc)) from None
            rng = random.Random(f"{seed}:{k}:{q}")
            upd, qry = [], []
            for _ in range(ops):
                if rng.random() < ratio:
                    coords = [rng.randrange(n) for _ in range(d)]
                    hc.update(coords, rng.randint(-100, 100))
                    upd.append(hc.cells_touched_last_update)
                else:
                    b = [rng.randrange(n) for _ in range(d)]
                    hc.prefix_query(b)
                    qry.append(hc.cells_touched_last_query)
            mean = lambda xs: f"{sum(xs) / len(xs):.2f}" if xs else "-"
            peak = lambda xs: str(max(xs)) if xs else "-"
            rows.append(
                (
                    str(k),
                    str(q),
                    str(len(upd)),
                    str(len(qry)),
                    mean(upd),
                    peak(upd),
                    str(hc.update_cell_bound),
                    mean(qry),
                    peak(qry),
                    str(hc.query_cell_bound),
                )
            )
    if csv:
        return [",".join(row) for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ]


# -- entry point -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` keeps no state in it,
    so every ``main`` call reuses it instead of leaving one behind."""
    parser = argparse.ArgumentParser(
        prog="rangecube",
        description="Multidimensional range aggregates, RMQ, medians and selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run a script against a structure")
    p_query.add_argument("struct", help="structure spec, e.g. fenwick:op=xor")
    p_query.add_argument("data", help="cube file (weight-arrays file for 'select')")
    p_query.add_argument("script", help="script file, one command per line")
    p_query.add_argument("--oracle", action="store_true", help="cross-check answers")

    p_bench = sub.add_parser("bench", help="touched-cell statistics for hybrid sweeps")
    p_bench.add_argument("--n", type=int, required=True, help="extent per dimension")
    p_bench.add_argument("--d", type=int, required=True, help="number of dimensions")
    p_bench.add_argument("--k", type=str, default=None, help="comma-separated block sizes")
    p_bench.add_argument("--q", type=str, default=None, help="comma-separated split counts")
    p_bench.add_argument("--ratio", type=float, default=0.5, help="update fraction")
    p_bench.add_argument("--ops", type=int, default=200, help="operations per cell")
    p_bench.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_bench.add_argument("--csv", action="store_true", help="comma-separated output")
    return parser


def _write_lines(lines) -> int:
    """Print every line with one write to stdout."""
    sys.stdout.write("\n".join([*lines, ""]))
    return 0


def _cmd_query(ns) -> int:
    return _write_lines(run_script(ns.data, ns.struct, ns.script, oracle=ns.oracle))


def _cmd_bench(ns) -> int:
    k_list = _int_list(ns.k) if ns.k else None
    q_list = _int_list(ns.q) if ns.q else None
    return _write_lines(run_bench(ns.n, ns.d, k_list, q_list, ns.ratio, ns.ops, ns.seed, ns.csv))


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handler = {"query": _cmd_query, "bench": _cmd_bench}[ns.command]
    try:
        return handler(ns)
    except (CliError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
