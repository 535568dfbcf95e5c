"""Command-line front end.

Four commands:

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
  ``kmedian K L`` | ``select k [q]`` | ``agg-select k [q] [eps]``.
  With ``--oracle`` every answer is cross-checked against the brute-force
  reference (scan, naive DP or sort-all) and the first mismatch aborts.

* ``bench`` — deterministic touched-cell statistics for hybrid parameter
  sweeps against the predicted bounds.
* ``median CUBE SCALES lo1 hi1 [..]`` — one range weighted median query.
* ``select ARRAYS --op .. --k ..`` — one selection.

All coordinates are 0-based (add 1 to translate to the common 1-based
conventions in the literature).  Exit code 0 iff no errors and, in oracle
mode, no mismatches.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass

from .cube import (
    MAX_DIMENSIONS,
    OPS,
    SUM,
    SUM_SAFE_BOUND,
    DataCube,
    PrefixCube,
    QueryBox,
    brute_force_range,
    make_cube,
)
from .dynamic import FenwickCube, HybridCube
from .formats import load_cube, load_number_lines
from .medians import (
    WeightedPoints1D,
    build_cube_median_index,
    build_median_index,
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


# -- structure specs ---------------------------------------------------------

_STRUCT_VERBS = {
    "prefix": {"query", "prefix"},
    "fenwick": {"query", "prefix", "update"},
    "hybrid": {"query", "prefix", "update"},
    "rmq": {"rmq"},
    "median": {"median", "cube-median"},
    "kmedian": {"kmedian"},
    "select": {"select", "agg-select"},
}

_ALL_VERBS = set().union(*_STRUCT_VERBS.values())


def parse_struct_spec(spec: str):
    name, _, rest = spec.partition(":")
    options = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key:
                raise CliError(f"malformed structure option {item!r} in {spec!r}")
            options[key] = value
    if name not in _STRUCT_VERBS:
        raise CliError(
            f"unknown structure {name!r}; expected one of {sorted(_STRUCT_VERBS)}"
        )
    return name, options


def _pop_option(options, key, default=None, convert=str):
    if key not in options:
        return default
    try:
        return convert(options.pop(key))
    except ValueError:
        raise CliError(f"invalid value for structure option {key!r}") from None


def _get_op(options, allowed=("sum", "xor", "product")):
    name = _pop_option(options, "op", "sum")
    if name not in allowed:
        raise CliError(f"op must be one of {sorted(allowed)}, got {name!r}")
    return OPS[name]


def _check_cube_op(cube: DataCube, op):
    if op.name == "sum" and cube.kind == "int":
        peak = max((abs(v) for v in cube.flat()), default=0)
        if peak * cube.size >= SUM_SAFE_BOUND:
            raise CliError(
                "overflow risk: |value| * cell count must stay below 2**62 for sum cubes"
            )
    if op.name == "xor" and cube.kind != "int":
        raise CliError("xor needs an integer cube")
    if op.name == "product" and cube.kind != "float":
        raise CliError("product structures are only offered on float cubes")


# -- scripts -----------------------------------------------------------------


@dataclass(frozen=True)
class ScriptCommand:
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
        raise CliError(
            f"line {cmd.lineno}: {cmd.verb} expects {count} arguments, got {len(cmd.args)}"
        )
    try:
        return [int(a) for a in cmd.args]
    except ValueError:
        raise CliError(f"line {cmd.lineno}: non-integer argument in {cmd.raw!r}") from None


def _box(cmd: ScriptCommand, ndim: int) -> QueryBox:
    coords = _ints(cmd, 2 * ndim)
    try:
        return QueryBox(coords[0::2], coords[1::2])
    except ValueError as exc:
        raise CliError(f"line {cmd.lineno}: {exc}") from None


def _number(token: str, kind: str):
    return int(token) if kind == "int" else float(token)


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


def _oracle_check(cmd: ScriptCommand, got, expected, tol: float = 0.0):
    if isinstance(got, float) or isinstance(expected, float):
        ok = math.isclose(got, expected, rel_tol=tol, abs_tol=tol) if tol else got == expected
    else:
        ok = got == expected
    if not ok:
        raise CliError(
            f"oracle mismatch at line {cmd.lineno}: {cmd.raw!r}: got "
            f"{format_value(got)} expected {format_value(expected)}"
        )


def run_script(data_path, struct_spec: str, script_path, oracle: bool = False, out=None):
    """Execute a script against one structure; returns printed lines."""
    out = out if out is not None else []
    name, options = parse_struct_spec(struct_spec)
    with open(script_path, "r", encoding="utf-8") as handle:
        commands = parse_script(handle.read())
    unsupported = [c for c in commands if c.verb not in _STRUCT_VERBS[name]]
    if unsupported:
        first = unsupported[0]
        raise CliError(
            f"line {first.lineno}: unsupported verb {first.verb!r} for structure {name!r}"
        )
    runner = {
        "prefix": _run_prefix,
        "fenwick": _run_dynamic,
        "hybrid": _run_dynamic,
        "rmq": _run_rmq,
        "median": _run_median,
        "kmedian": _run_kmedian,
        "select": _run_select,
    }[name]
    stats = _Stats()
    runner(name, options, data_path, commands, oracle, out, stats)
    out.extend(stats.lines())
    return out


def _reject_leftover(options):
    if options:
        raise CliError(f"unknown structure options: {sorted(options)}")


def _run_prefix(name, options, data_path, commands, oracle, out, stats):
    op = _get_op(options)
    _reject_leftover(options)
    cube = load_cube(data_path)
    _check_cube_op(cube, op)
    pc = PrefixCube(cube, op)
    for cmd in commands:
        if cmd.verb == "prefix":
            b = _ints(cmd, cube.ndim)
            box = _bounds_box(cmd, b, cube.dims)
        else:
            box = _box(cmd, cube.ndim)
            _validate_box(cmd, box, cube.dims)
        value = pc.range_aggregate(box)
        stats.queries += 1
        stats.record("prefix_lookups_max", pc.lookups_last_query)
        if oracle:
            _oracle_check(cmd, value, brute_force_range(cube, box, op))
        out.append(format_value(value))


def _bounds_box(cmd, b, dims) -> QueryBox:
    try:
        box = QueryBox([0] * len(dims), b)
        box.validate_for(dims)
    except (ValueError, IndexError) as exc:
        raise CliError(f"line {cmd.lineno}: {exc}") from None
    return box


def _validate_box(cmd, box, dims):
    try:
        box.validate_for(dims)
    except (ValueError, IndexError) as exc:
        raise CliError(f"line {cmd.lineno}: {exc}") from None


def _run_dynamic(name, options, data_path, commands, oracle, out, stats):
    op = _get_op(options)
    if name == "hybrid":
        k = _pop_option(options, "k", None, int)
        q = _pop_option(options, "q", None, int)
    _reject_leftover(options)
    cube = load_cube(data_path)
    _check_cube_op(cube, op)
    if name == "hybrid":
        try:
            structure = HybridCube(cube, op, k, q)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    else:
        structure = FenwickCube(cube, op)
    shadow = make_cube(cube.dims, cube.flat(), kind=cube.kind) if oracle else None
    for cmd in commands:
        if cmd.verb == "update":
            if len(cmd.args) != cube.ndim + 1:
                raise CliError(
                    f"line {cmd.lineno}: update expects {cube.ndim} coordinates and a delta"
                )
            try:
                coords = [int(a) for a in cmd.args[: cube.ndim]]
                delta = _number(cmd.args[-1], cube.kind)
            except ValueError:
                raise CliError(f"line {cmd.lineno}: bad update arguments {cmd.raw!r}") from None
            try:
                structure.update(coords, delta)
            except (ValueError, IndexError) as exc:
                raise CliError(f"line {cmd.lineno}: {exc}") from None
            stats.updates += 1
            stats.record("update_cells_max", structure.cells_touched_last_update)
            if oracle:
                shadow.values[tuple(coords)] = op.combine(
                    shadow.values[tuple(coords)].item(), delta
                )
            continue
        if cmd.verb == "prefix":
            b = _ints(cmd, cube.ndim)
            _bounds_box(cmd, b, cube.dims)
            value = structure.prefix_query(b)
            box = QueryBox([0] * cube.ndim, b)
        else:
            box = _box(cmd, cube.ndim)
            _validate_box(cmd, box, cube.dims)
            value = structure.range_query(box)
        stats.queries += 1
        stats.record("query_cells_max", structure.cells_touched_last_query)
        if oracle:
            _oracle_check(cmd, value, brute_force_range(shadow, box, op))
        out.append(format_value(value))


def _run_rmq(name, options, data_path, commands, oracle, out, stats):
    mode = _pop_option(options, "mode", "min")
    if mode not in ("min", "max"):
        raise CliError(f"rmq mode must be 'min' or 'max', got {mode!r}")
    _reject_leftover(options)
    cube = load_cube(data_path)
    table = SparseTable(cube, mode=mode)
    op = OPS[mode]
    for cmd in commands:
        box = _box(cmd, cube.ndim)
        _validate_box(cmd, box, cube.dims)
        value = table.query(box)
        stats.queries += 1
        stats.record("rmq_lookups_max", table.lookups_last_query)
        if oracle:
            _oracle_check(cmd, value, brute_force_range(cube, box, op))
        out.append(format_value(value))


def _load_scaled_points(options, data_path, need_1d=False):
    scales_path = _pop_option(options, "scales", None)
    if scales_path is None:
        raise CliError("this structure needs a scales=FILE option")
    _reject_leftover(options)
    cube = load_cube(data_path)
    scales = load_number_lines(scales_path)
    if need_1d and cube.ndim != 1:
        raise CliError("this structure needs a 1-dimensional cube")
    return cube, scales


def _run_median(name, options, data_path, commands, oracle, out, stats):
    cube, scales = _load_scaled_points(options, data_path)
    try:
        idx = build_cube_median_index(cube, scales)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    idx1 = None
    if cube.ndim == 1:
        idx1 = build_median_index(WeightedPoints1D(scales[0], cube.flat()))
    for cmd in commands:
        if cmd.verb == "median":
            if idx1 is None:
                raise CliError(
                    f"line {cmd.lineno}: the 'median' verb needs a 1-dimensional cube"
                )
            i, j = _ints(cmd, 2)
            if not 0 <= i <= j < len(idx1):
                raise CliError(f"line {cmd.lineno}: invalid position range [{i}, {j}]")
            r, cost = range_weighted_median(idx1, i, j)
            stats.queries += 1
            stats.record("median_probes_max", idx1.probes_last_query)
            if oracle:
                xs, ws = idx1.points.xs, idx1.points.ws
                best = min(
                    sum(w * abs(x - xs[r2]) for x, w in zip(xs[i : j + 1], ws[i : j + 1]))
                    for r2 in range(i, j + 1)
                )
                _oracle_check(cmd, cost, best)
            out.append(f"{r} {format_value(cost)}")
        else:
            box = _box(cmd, cube.ndim)
            _validate_box(cmd, box, cube.dims)
            try:
                res = cube_range_weighted_median(idx, box)
            except ValueError as exc:
                raise CliError(f"line {cmd.lineno}: {exc}") from None
            stats.queries += 1
            stats.record("rangesum_probes_max", idx.rangesum_probes_last_query)
            if oracle:
                best = None
                for r in box.coords():
                    cost = sum(
                        cube.cell(c)
                        * sum(abs(scales[j][c[j]] - scales[j][r[j]]) for j in range(cube.ndim))
                        for c in box.coords()
                    )
                    best = cost if best is None else min(best, cost)
                _oracle_check(cmd, res.cost, best)
            out.append(
                " ".join(format_value(x) for x in res.location)
                + " "
                + format_value(res.cost)
            )


def _run_kmedian(name, options, data_path, commands, oracle, out, stats):
    cube, scales = _load_scaled_points(options, data_path, need_1d=True)
    if any(v < 0 for v in cube.flat()):
        raise CliError("kmedian weights must be nonnegative")
    if len(scales) != 1 or len(scales[0]) != cube.dims[0]:
        raise CliError("scales file must hold one coordinate per cube entry")
    pts = WeightedPoints1D(scales[0], cube.flat())
    for cmd in commands:
        if len(cmd.args) != 2:
            raise CliError(f"line {cmd.lineno}: kmedian expects K and L")
        try:
            count = int(cmd.args[0])
            length = _number(cmd.args[1], "int" if "." not in cmd.args[1] else "float")
        except ValueError:
            raise CliError(f"line {cmd.lineno}: bad kmedian arguments {cmd.raw!r}") from None
        try:
            res = interval_k_median(pts, count, length)
        except ValueError as exc:
            raise CliError(f"line {cmd.lineno}: {exc}") from None
        stats.queries += 1
        stats.record("deque_pushes_max", res.deque_pushes)
        if oracle:
            naive = interval_k_median_naive(pts, count, length)
            _oracle_check(cmd, float(res.cost), float(naive), tol=1e-9)
        parts = [format_value(res.cost)]
        for a, b in res.intervals:
            parts.append(format_value(a))
            parts.append(format_value(b))
        out.append(" ".join(parts))


def _run_select(name, options, data_path, commands, oracle, out, stats):
    op = _pop_option(options, "op", "sum")
    _reject_leftover(options)
    rows = load_number_lines(data_path)
    try:
        arrays = SortedWeightArrays(rows, op)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    oracle_weights = all_weights(arrays) if oracle else None
    for cmd in commands:
        if not 1 <= len(cmd.args) <= (2 if cmd.verb == "select" else 3):
            raise CliError(f"line {cmd.lineno}: bad {cmd.verb} arguments {cmd.raw!r}")
        try:
            k = int(cmd.args[0])
            q = int(cmd.args[1]) if len(cmd.args) > 1 else None
            eps = float(cmd.args[2]) if len(cmd.args) > 2 else 1e-6
        except ValueError:
            raise CliError(f"line {cmd.lineno}: bad {cmd.verb} arguments {cmd.raw!r}") from None
        split = _resolve_split(arrays, q)
        try:
            if cmd.verb == "select":
                value = kth_smallest(arrays, k, split=split)
            else:
                value = aggregate_k_smallest(arrays, op, k, eps=eps, split=split)
        except ValueError as exc:
            raise CliError(f"line {cmd.lineno}: {exc}") from None
        stats.queries += 1
        if oracle:
            if cmd.verb == "select":
                expected = oracle_weights[k - 1]
            else:
                chunk = oracle_weights[:k]
                expected = sum(chunk) if op == "sum" else (
                    math.prod(chunk) if op == "product" else max(chunk)
                )
            tol = 0.0 if arrays.is_integer else 1e-9
            _oracle_check(cmd, value, expected, tol=tol)
        out.append(format_value(value))


def _resolve_split(arrays, q):
    if q == 0:
        return None
    if q is None:
        q = choose_split_q(arrays)
        if q is None:
            return None
    try:
        return build_split(arrays, q)
    except ValueError as exc:
        raise CliError(str(exc)) from None


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


def _build_parser() -> argparse.ArgumentParser:
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

    p_median = sub.add_parser("median", help="range weighted median over a cube")
    p_median.add_argument("cube")
    p_median.add_argument("scales")
    p_median.add_argument("box", type=int, nargs="+", help="lo1 hi1 [lo2 hi2 ...]")

    p_select = sub.add_parser("select", help="k-th smallest / aggregate selection")
    p_select.add_argument("arrays")
    p_select.add_argument("--op", choices=("sum", "product", "max"), default="sum")
    p_select.add_argument("--agg", choices=("sum", "product", "max"), default=None)
    p_select.add_argument("--k", type=int, required=True)
    p_select.add_argument("--q", type=int, default=None, help="split size (0 = ComputeP)")
    p_select.add_argument("--eps", type=float, default=1e-6)
    return parser


def _cmd_query(ns) -> int:
    for line in run_script(ns.data, ns.struct, ns.script, oracle=ns.oracle):
        print(line)
    return 0


def _cmd_bench(ns) -> int:
    k_list = _int_list(ns.k) if ns.k else None
    q_list = _int_list(ns.q) if ns.q else None
    for line in run_bench(ns.n, ns.d, k_list, q_list, ns.ratio, ns.ops, ns.seed, ns.csv):
        print(line)
    return 0


def _cmd_median(ns) -> int:
    cube = load_cube(ns.cube)
    scales = load_number_lines(ns.scales)
    if len(ns.box) != 2 * cube.ndim:
        raise CliError(f"box needs {2 * cube.ndim} coordinates, got {len(ns.box)}")
    try:
        idx = build_cube_median_index(cube, scales)
        box = QueryBox(ns.box[0::2], ns.box[1::2])
        box.validate_for(cube.dims)
        res = cube_range_weighted_median(idx, box)
    except (ValueError, IndexError) as exc:
        raise CliError(str(exc)) from None
    print(" ".join(format_value(x) for x in res.location) + " " + format_value(res.cost))
    return 0


def _cmd_select(ns) -> int:
    rows = load_number_lines(ns.arrays)
    try:
        arrays = SortedWeightArrays(rows, ns.op)
        split = _resolve_split(arrays, ns.q)
        if ns.agg is not None:
            value = aggregate_k_smallest(arrays, ns.agg, ns.k, eps=ns.eps, split=split)
        else:
            value = kth_smallest(arrays, ns.k, eps=ns.eps, split=split)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(format_value(value))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handler = {
        "query": _cmd_query,
        "bench": _cmd_bench,
        "median": _cmd_median,
        "select": _cmd_select,
    }[ns.command]
    try:
        return handler(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
