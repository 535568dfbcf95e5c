"""The four benchmark workloads: seeded inputs, set-up, requests and gates.

Each workload is one closed loop: a single caller issues request ``i`` and
waits for it before issuing ``i + 1``.  Inputs come only from the seed; the
library sees the generated arrays, boxes and files.  Boxes are drawn per
dimension as a sorted pair of uniform positions, so box volumes range from
one cell to the whole cube.

Every request returns its answers together with the counters the structures
report about it.  The correctness gate runs after the timed loop: it checks
each answer against an independent numpy reference, checks each counter
against the structure's stated bound, and on a seeded sample also asks the
library's brute-force twins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import zlib
from types import SimpleNamespace

import numpy as np

from rangecube import (
    MIN,
    SUM,
    CubeMedianIndex,
    FenwickCube,
    HybridCube,
    PrefixCube,
    QueryBox,
    SortedWeightArrays,
    SparseTable,
    WeightedPoints1D,
    aggregate_k_smallest,
    all_weights,
    brute_force_range,
    build_split,
    cli,
    cube_range_weighted_median,
    interval_k_median,
    interval_k_median_naive,
    kth_smallest,
    make_cube,
    save_cube,
)
from rangecube.selection import choose_split_q

from tracing import clock as _now
from tracing import table_bytes, traced_cli

#: Seeded brute-force checks made per gate.
ORACLE_SAMPLES = 3


def draw_boxes(rng, dims, count):
    """``count`` boxes, each dimension a sorted pair of uniform positions."""
    ends = np.sort(rng.integers(0, dims, size=(count, 2, len(dims))), axis=1)
    return [QueryBox(lo.tolist(), hi.tolist()) for lo, hi in ends]


def box_array(boxes) -> np.ndarray:
    return np.array([b.lo + b.hi for b in boxes], dtype=np.int64)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def latency_pct(latencies, q) -> float:
    """Percentile ``q`` of latencies in seconds, as microseconds (0 if none)."""
    return float(np.percentile(latencies, q)) * 1e6 if len(latencies) else 0.0


def numpy_baselines(values, sum_boxes, min_boxes, reps=5) -> dict:
    """Plain-numpy work beside the layers: cumsum build, corner gather, slices.

    Uses the same array and boxes as the structure each number stands beside.
    """
    ndim = values.ndim
    builds = []
    for _ in range(reps):
        start = _now()
        table = values
        for axis in range(ndim):
            table = np.cumsum(table, axis=axis)
        builds.append(_now() - start)
    padded = np.zeros(tuple(m + 1 for m in values.shape), dtype=table.dtype)
    padded[(slice(1, None),) * ndim] = table
    coords = box_array(sum_boxes)
    lo, hi = coords[:, :ndim], coords[:, ndim:] + 1
    gathers = []
    for _ in range(reps):
        start = _now()
        total = np.zeros(len(coords), dtype=table.dtype)
        for mask in range(1 << ndim):
            corner = tuple(lo[:, j] if mask >> j & 1 else hi[:, j] for j in range(ndim))
            sign = -1 if bin(mask).count("1") % 2 else 1
            total += sign * padded[corner]
        gathers.append(_now() - start)

    def per_box(fn, boxes):
        start = _now()
        for box in boxes:
            fn(values[box.slices()])
        return (_now() - start) / len(boxes)

    return {
        "baseline.cumsum_build_s": float(np.median(builds)),
        "baseline.corner_gather_ns": float(np.median(gathers)) / len(coords) * 1e9,
        "baseline.box_sum_us": per_box(np.sum, sum_boxes) * 1e6,
        "baseline.box_min_us": per_box(np.min, min_boxes) * 1e6,
    }


class Workload:
    """Shared plumbing; subclasses define inputs, set-up, requests and gate."""

    name = ""
    #: Answers repeat every ``period`` requests (0: they never repeat).
    period = 0

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.reported = 0

    def sample(self, count, upto):
        """Seeded request indices for the brute-force twins."""
        if upto == 0:
            return []
        rng = np.random.default_rng([self.seed, 7])
        return sorted(set(rng.integers(0, upto, size=min(count, upto)).tolist()))

    def fail(self, message):
        """Record one failed check; the first few are shown on stderr."""
        if self.reported < 5:
            print(f"{self.name}: {message}", file=sys.stderr)
        self.reported += 1

    def instrument(self, tracer):
        """Context the traced half runs in; a workload installs wrappers here."""
        return contextlib.nullcontext()

    def detail(self, run) -> dict:
        """Untraced per-kind metrics: read/update latency, call-set rates."""
        return {}

    def layer_counters(self, run, tracer) -> dict:
        return {}


class StaticRead(Workload):
    """512x512 int cube; a request is one box's sum (prefix cube) and min
    (sparse table).  Read-only O(2^d) lookup paths plus the DataCube and table
    builds; dynamic, formats, cli, medians and selection do no work here."""

    name = "static-read"

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        self.dims = (24, 24) if tiny else (512, 512)
        self.values = self.rng.integers(-1000, 1001, size=self.dims)
        self.boxes = draw_boxes(self.rng, self.dims, 64 if tiny else 16384)
        self.period = len(self.boxes)
        self.digest = digest(self.values, box_array(self.boxes))

    def setup(self, tr):
        cube = tr.call("cube.make_cube", make_cube, self.dims, self.values)
        tr.note("cube.cells_built", cube.size)
        pc = tr.call("cube.PrefixCube", PrefixCube, cube, SUM)
        st = tr.call("rmq.SparseTable", SparseTable, cube, mode="min")
        tr.note("rmq.levels", len(st.tables))
        tr.note("rmq.table_bytes", table_bytes(st))
        return SimpleNamespace(cube=cube, pc=pc, st=st, tables=[pc, st])

    def requester(self, state, tr):
        boxes, count, call = self.boxes, len(self.boxes), tr.call
        pc, st = state.pc, state.st

        def request(i):
            box = boxes[i % count]
            total = call("cube.PrefixCube.range_aggregate", pc.range_aggregate, box)
            low = call("rmq.SparseTable.query", st.query, box)
            return total, low, pc.lookups_last_query, st.lookups_last_query

        return request

    def gate(self, state, run, tr):
        count = len(self.boxes)
        bound = 1 << len(self.dims)
        refs = []
        for box in self.boxes[: min(run.requests, count)]:
            cells = self.values[box.slices()]
            refs.append((int(cells.sum()), int(cells.min())))
        failed = 0
        for i, ans in enumerate(run.answers):
            if isinstance(ans, Exception):
                self.fail(f"request {i} raised {ans!r}")
            elif ans[:2] != refs[i % count]:
                self.fail(f"request {i}: got {ans[:2]}, numpy says {refs[i % count]}")
            elif ans[2] > bound or ans[3] > bound:
                self.fail(f"request {i}: lookups {ans[2:]} exceed 2^d = {bound}")
            else:
                continue
            failed += 1
        checks = 0
        for i in self.sample(ORACLE_SAMPLES, run.requests):
            box = self.boxes[i % count]
            for op, ref in zip((SUM, MIN), refs[i % count]):
                checks += 1
                got = tr.call("cube.brute_force_range", brute_force_range, state.cube, box, op)
                if got != ref:
                    failed += 1
                    self.fail(f"brute_force_range {op.name} on {box}: {got} != {ref}")
        return failed, checks

    def detail(self, run):
        return {
            "read_p50_us": latency_pct(run.latencies, 50),
            "read_p99_us": latency_pct(run.latencies, 99),
        }

    def layer_counters(self, run, tracer):
        ok = [a for a in run.answers if not isinstance(a, Exception)]
        return {
            "cube.prefix_lookups_max": max((a[2] for a in ok), default=0),
            "rmq.lookups_max": max((a[3] for a in ok), default=0),
        }

    def baselines(self):
        return numpy_baselines(self.values, self.boxes[:2000], self.boxes[:2000])


class DynamicMixed(Workload):
    """32^3 int cube under Fenwick and default-(k, q) hybrid cubes.  A request
    is one cell update followed by one box sum, each sent to both structures,
    so operations are half updates and half queries while request latency
    stays unimodal.  A query gain paid for by costlier updates, or a slower
    hybrid build, shows here; rmq and formats do no work."""

    name = "dynamic-mixed"

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        self.dims = (6, 6, 6) if tiny else (32, 32, 32)
        count = 64 if tiny else 1 << 15
        rng = self.rng
        self.values = rng.integers(-100, 101, size=self.dims)
        cells = rng.integers(0, self.dims, size=(count, len(self.dims)))
        deltas = rng.integers(-100, 101, size=count)
        boxes = draw_boxes(rng, self.dims, count)
        self.ops = list(zip(map(tuple, cells.tolist()), deltas.tolist(), boxes))
        self.digest = digest(self.values, cells, deltas, box_array(boxes))

    def setup(self, tr):
        cube = tr.call("cube.make_cube", make_cube, self.dims, self.values)
        tr.note("cube.cells_built", cube.size)
        fen = tr.call("dynamic.FenwickCube", FenwickCube, cube, SUM)
        hyb = tr.call("dynamic.HybridCube", HybridCube, cube, SUM)
        tr.note("dynamic.hybrid.table_bytes", table_bytes(hyb))
        return SimpleNamespace(fen=fen, hyb=hyb, tables=[fen, hyb])

    def requester(self, state, tr):
        ops, count, call = self.ops, len(self.ops), tr.call
        fen, hyb = state.fen, state.hyb

        def request(i):
            coords, delta, box = ops[i % count]
            start = _now()
            call("dynamic.FenwickCube.update", fen.update, coords, delta)
            call("dynamic.HybridCube.update", hyb.update, coords, delta)
            updated = _now()
            a = call("dynamic.FenwickCube.range_query", fen.range_query, box)
            b = call("dynamic.HybridCube.range_query", hyb.range_query, box)
            return (a, b, fen.cells_touched_last_update, hyb.cells_touched_last_update,
                    fen.cells_touched_last_query, hyb.cells_touched_last_query,
                    updated - start)

        return request

    def gate(self, state, run, tr):
        fen, hyb = state.fen, state.hyb
        bounds = (fen.op_cell_bound, hyb.update_cell_bound,
                  fen.op_cell_bound, hyb.query_cell_bound)
        arr = self.values.copy()
        samples = set(self.sample(ORACLE_SAMPLES, run.requests))
        failed = checks = 0
        for i, ans in enumerate(run.answers):
            coords, delta, box = self.ops[i % len(self.ops)]
            arr[coords] += delta
            ref = int(arr[box.slices()].sum())
            if isinstance(ans, Exception):
                self.fail(f"request {i} raised {ans!r}")
            elif ans[0] != ref or ans[1] != ref:
                self.fail(f"request {i}: fenwick {ans[0]}, hybrid {ans[1]}, numpy {ref}")
            elif any(c > b for c, b in zip(ans[2:6], bounds)):
                self.fail(f"request {i}: cells touched {ans[2:6]} exceed bounds {bounds}")
            else:
                if i in samples:
                    checks += 1
                    snapshot = make_cube(self.dims, arr)
                    got = tr.call("cube.brute_force_range", brute_force_range, snapshot, box, SUM)
                    if got != ref:
                        failed += 1
                        self.fail(f"brute_force_range on {box} after {i} requests: {got} != {ref}")
                continue
            failed += 1
        return failed, checks

    def detail(self, run):
        upd = np.array([a[6] if not isinstance(a, Exception) else np.nan for a in run.answers])
        ok = ~np.isnan(upd)
        upd, read = upd[ok], run.latencies[ok] - upd[ok]
        return {
            "read_p50_us": latency_pct(read, 50),
            "read_p99_us": latency_pct(read, 99),
            "update_ops_per_s": len(upd) / float(upd.sum()) if len(upd) else 0.0,
            "update_p50_us": latency_pct(upd, 50),
            "update_p99_us": latency_pct(upd, 99),
        }

    def layer_counters(self, run, tracer):
        ok = [a for a in run.answers if not isinstance(a, Exception)]
        names = ("dynamic.fenwick.update_cells_max", "dynamic.hybrid.update_cells_max",
                 "dynamic.fenwick.query_cells_max", "dynamic.hybrid.query_cells_max")
        return {name: max((a[2 + j] for a in ok), default=0) for j, name in enumerate(names)}

    def baselines(self):
        boxes = [box for _, _, box in self.ops[:2000]]
        return numpy_baselines(self.values, boxes, boxes)


class CliScript(Workload):
    """In-process ``rangecube query`` runs, stdout captured; a request is one
    set of three scripts: a long prefix and a long rmq read run over a 512x512
    cube file, and a 32^3 fenwick run alternating queries with updates (the
    barriers any CLI batching must respect).  Measures from reading the file
    to the last printed line."""

    name = "cli-script"

    SCRIPTS = (("prefix", "cube2.txt", "prefix.txt"),
               ("rmq:mode=min", "cube2.txt", "rmq.txt"),
               ("fenwick", "cube3.txt", "fenwick.txt"))

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        rng = self.rng
        self.dims2 = (16, 16) if tiny else (512, 512)
        self.dims3 = (5, 5, 5) if tiny else (32, 32, 32)
        reads = 50 if tiny else 10000
        pairs = 20 if tiny else 2000
        self.values2 = rng.integers(-1000, 1001, size=self.dims2)
        self.prefix_boxes = draw_boxes(rng, self.dims2, reads)
        self.rmq_boxes = draw_boxes(rng, self.dims2, reads)
        self.values3 = rng.integers(-100, 101, size=self.dims3)
        self.fen_boxes = draw_boxes(rng, self.dims3, pairs)
        self.fen_cells = rng.integers(0, self.dims3, size=(pairs, 3)).tolist()
        self.fen_deltas = rng.integers(-100, 101, size=pairs).tolist()
        self.digest = digest(
            self.values2, box_array(self.prefix_boxes), box_array(self.rmq_boxes),
            self.values3, box_array(self.fen_boxes), self.fen_cells, self.fen_deltas,
        )
        self._expected = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, tr):
        os.makedirs(self.workdir, exist_ok=True)
        for name, dims, values in (("cube2.txt", self.dims2, self.values2),
                                   ("cube3.txt", self.dims3, self.values3)):
            save_cube(self.path(name), make_cube(dims, values))

        def box_args(box):
            return " ".join(f"{a} {b}" for a, b in zip(box.lo, box.hi))

        scripts = {
            "prefix.txt": [f"query {box_args(b)}" for b in self.prefix_boxes],
            "rmq.txt": [f"rmq {box_args(b)}" for b in self.rmq_boxes],
            "fenwick.txt": [
                line
                for box, cell, delta in zip(self.fen_boxes, self.fen_cells, self.fen_deltas)
                for line in (f"query {box_args(box)}",
                             "update " + " ".join(map(str, cell)) + f" {delta}")
            ],
        }
        for name, lines in scripts.items():
            with open(self.path(name), "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        return SimpleNamespace(tables=[])

    def requester(self, state, tr):
        call = tr.call
        argvs = [["query", spec, self.path(data), self.path(script)]
                 for spec, data, script in self.SCRIPTS]

        def request(i):
            outputs = []
            for argv in argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = call("cli.main", cli.main, argv)
                outputs.append((code, buf.getvalue()))
            return tuple(outputs)

        return request

    @contextlib.contextmanager
    def instrument(self, tracer):
        with traced_cli(tracer):
            yield

    def expected(self):
        """Answer lines and counter bounds per script, from numpy alone."""
        if self._expected is None:
            prefix = [str(int(self.values2[b.slices()].sum())) for b in self.prefix_boxes]
            rmq = [str(int(self.values2[b.slices()].min())) for b in self.rmq_boxes]
            arr = self.values3.copy()
            fen = []
            for box, cell, delta in zip(self.fen_boxes, self.fen_cells, self.fen_deltas):
                fen.append(str(int(arr[box.slices()].sum())))
                arr[tuple(cell)] += delta
            fen_bound = math.prod(m.bit_length() for m in self.dims3)
            self._expected = (
                (prefix, {"prefix_lookups_max": 1 << len(self.dims2)}),
                (rmq, {"rmq_lookups_max": 1 << len(self.dims2)}),
                (fen, {"query_cells_max": fen_bound, "update_cells_max": fen_bound}),
            )
        return self._expected

    @staticmethod
    def counters(text):
        for line in text.splitlines():
            if line.startswith("# counters "):
                return {k: int(v) for k, v in (t.split("=") for t in line.split()[2:])}
        return {}

    def gate(self, state, run, tr):
        failed = 0
        expected = self.expected()
        for i, ans in enumerate(run.answers):
            bad = None
            if isinstance(ans, Exception):
                bad = f"raised {ans!r}"
            else:
                for (spec, _, _), (code, text), (lines, bounds) in zip(
                    self.SCRIPTS, ans, expected
                ):
                    got = [ln for ln in text.splitlines() if not ln.startswith("#")]
                    counters = self.counters(text)
                    if code != 0 or got != lines:
                        bad = f"{spec}: exit {code}, output differs from numpy"
                    elif any(counters.get(k, math.inf) > b for k, b in bounds.items()):
                        bad = f"{spec}: counters {counters} exceed {bounds}"
            if bad:
                failed += 1
                self.fail(f"script set {i}: {bad}")
        checks = 0
        cube = make_cube(self.dims2, self.values2)
        for j in self.sample(ORACLE_SAMPLES, len(self.prefix_boxes)):
            checks += 1
            box = self.prefix_boxes[j]
            got = tr.call("cube.brute_force_range", brute_force_range, cube, box, SUM)
            if str(got) != expected[0][0][j]:
                failed += 1
                self.fail(f"brute_force_range on {box}: {got} != {expected[0][0][j]}")
        return failed, checks

    def detail(self, run):
        return {"script_s": float(np.median(run.latencies)) if len(run.latencies) else 0.0}

    def layer_counters(self, run, tracer):
        out = {}
        names = {
            "prefix_lookups_max": "cube.prefix_lookups_max",
            "rmq_lookups_max": "rmq.lookups_max",
            "update_cells_max": "dynamic.fenwick.update_cells_max",
            "query_cells_max": "dynamic.fenwick.query_cells_max",
        }
        lines = 0
        for ans in run.answers:
            if isinstance(ans, Exception):
                continue
            for _, text in ans:
                lines += text.count("\n")
                for key, value in self.counters(text).items():
                    out[names[key]] = max(out.get(names[key], 0), value)
        out["cli.lines_out"] = lines / max(run.requests, 1)
        if tracer.enabled:
            mains = {i: s for i, s in enumerate(tracer.spans) if s[0] == "cli.main"}
            sets = max(len(mains) / len(self.SCRIPTS), 1)  # traced script sets
            builds = ("cube.PrefixCube", "rmq.SparseTable", "dynamic.FenwickCube",
                      "dynamic.HybridCube")
            build = sum(s[2] - s[1] for s in tracer.spans
                        if s[0] in builds and s[3] in mains)
            out["cube.make_cube_s"] = float(tracer.durations("cube.make_cube").sum()) / sets
            out["cli.load_s"] = float(tracer.durations("formats.load_cube").sum()) / sets
            out["cli.build_s"] = build / sets
            out["cli.run_self_s"] = float(tracer.self_times("cli.main").sum()) / sets
            out["formats.load_cube_s"] = float(tracer.self_times("formats.load_cube").sum()) / sets
            for key in ("formats.bytes_read", "formats.values_parsed"):
                out[key] = sum(tracer.notes[key]) / sets
            out["table_mb"] = sum(tracer.notes["table_bytes"]) / sets / 1e6
        return out

    def baselines(self):
        return numpy_baselines(self.values2, self.prefix_boxes[:2000], self.rmq_boxes[:2000])


class MediansSelect(Workload):
    """A request is one pass: 200 range weighted medians over a 512x512 weight
    cube, k-th smallest and aggregate-of-k-smallest on three sorted n=200
    arrays (ComputeP and the default split), and one interval K-median at
    n=5000, K=4.  These binary-search and DP layers run in no other workload."""

    name = "medians-select"
    KINDS = ("median", "kth-computep", "kth-split", "agg-computep", "agg-split", "kmedian")
    K = 4
    #: Interval lengths cycled by pass: fixed, so seeds vary only the points.
    LENGTHS = (500, 2000, 8000, 32000)

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        rng = self.rng
        self.dims = (16, 16) if tiny else (512, 512)
        self.medians_per_pass = 4 if tiny else 200
        self.weights = rng.integers(1, 1001, size=self.dims)
        self.scales = [np.cumsum(rng.integers(1, 11, size=m)).tolist() for m in self.dims]
        self.boxes = draw_boxes(rng, self.dims, 16 if tiny else 512)
        n = 12 if tiny else 200
        self.arrays = np.sort(rng.integers(0, 10**6, size=(3, n)), axis=1)
        self.ranks = rng.integers(1, n**3 + 1, size=8).tolist()
        npts = 60 if tiny else 5000
        self.xs = np.sort(rng.integers(0, 10**6, size=npts)).tolist()
        self.ws = rng.integers(0, 101, size=npts).tolist()
        self.digest = digest(
            self.weights, self.scales, box_array(self.boxes), self.arrays,
            self.ranks, self.xs, self.ws,
        )
        self._grid = None
        self._naive = {}

    def setup(self, tr):
        cube = tr.call("cube.make_cube", make_cube, self.dims, self.weights)
        tr.note("cube.cells_built", cube.size)
        idx = tr.call("medians.CubeMedianIndex", CubeMedianIndex, cube, self.scales)
        swa = tr.call("selection.SortedWeightArrays", SortedWeightArrays,
                      self.arrays.tolist(), "sum")
        split = tr.call("selection.build_split", build_split, swa, choose_split_q(swa))
        pts = tr.call("medians.WeightedPoints1D", WeightedPoints1D, self.xs, self.ws)
        return SimpleNamespace(idx=idx, swa=swa, split=split, pts=pts, tables=[idx, split])

    def requester(self, state, tr):
        call = tr.call
        idx, swa, split, pts = state.idx, state.swa, state.split, state.pts
        boxes, m = self.boxes, self.medians_per_pass

        def request(p):
            """One pass; returns ``(kind, answer, CPU seconds)`` per call."""
            calls = []
            for pos in range(m):
                box = boxes[(p * m + pos) % len(boxes)]
                start = _now()
                res = call("medians.cube_range_weighted_median",
                           cube_range_weighted_median, idx, box)
                calls.append((0, (res, idx.rangesum_probes_last_query), _now() - start))
            k = self.ranks[p % len(self.ranks)]
            length = self.LENGTHS[p % len(self.LENGTHS)]
            for kind, name, fn, args, kwargs in (
                (1, "selection.kth_smallest:computep", kth_smallest, (swa, k),
                 {"return_stats": True}),
                (2, "selection.kth_smallest:split", kth_smallest, (swa, k),
                 {"split": split, "return_stats": True}),
                (3, "selection.aggregate_k_smallest", aggregate_k_smallest, (swa, "sum", k), {}),
                (4, "selection.aggregate_k_smallest", aggregate_k_smallest, (swa, "sum", k),
                 {"split": split}),
                (5, "medians.interval_k_median", interval_k_median, (pts, self.K, length), {}),
            ):
                start = _now()
                answer = call(name, fn, *args, **kwargs)
                calls.append((kind, answer, _now() - start))
            return calls

        return request

    @staticmethod
    def calls(run):
        """``(pass, position, kind, answer, seconds)`` of every completed call."""
        return [(p, pos) + c for p, calls in enumerate(run.answers)
                if not isinstance(calls, Exception) for pos, c in enumerate(calls)]

    # -- references ---------------------------------------------------------

    def grid(self):
        """Every grid weight, sorted, with its running sums."""
        if self._grid is None:
            a, b, c = (x.astype(np.int64) for x in self.arrays)
            flat = np.sort((a[:, None, None] + b[None, :, None] + c[None, None, :]).ravel())
            self._grid = (flat, np.cumsum(flat))
        return self._grid

    def median_ref(self, box):
        """Optimal L1 cost per dimension, from box marginals and all positions."""
        cells = self.weights[box.slices()]
        costs = []
        for j in range(len(self.dims)):
            marginal = cells.sum(axis=tuple(x for x in range(cells.ndim) if x != j))
            pos = np.array(self.scales[j][box.lo[j] : box.hi[j] + 1], dtype=np.int64)
            costs.append(np.abs(pos[:, None] - pos[None, :]) @ marginal)
        return costs

    def probe_bound(self, box):
        """RangeSum probes: one mass check, then per dimension a binary search of
        ceil(log2 L) steps at 2 probes each plus two 4-probe cost evaluations."""
        return 1 + sum(2 * math.ceil(math.log2(n)) + 8 for n in box.lengths)

    def kmedian_cost(self, intervals):
        x = np.array(self.xs, dtype=np.int64)
        dist = np.min([np.maximum(np.maximum(a - x, x - b), 0) for a, b in intervals], axis=0)
        return int(dist @ np.array(self.ws, dtype=np.int64))

    def check(self, p, pos, kind, ans, median_refs):
        """What is wrong with one call's answer, or None."""
        if kind == 0:
            box_id = (p * self.medians_per_pass + pos) % len(self.boxes)
            box = self.boxes[box_id]
            if box_id not in median_refs:
                median_refs[box_id] = self.median_ref(box)
            costs = median_refs[box_id]
            res, probes = ans
            best = [int(c.min()) for c in costs]
            at = [int(c[r - a]) for c, r, a in zip(costs, res.indices, box.lo)]
            where = tuple(self.scales[j][r] for j, r in enumerate(res.indices))
            if res.cost != sum(best) or at != best or res.location != where:
                return f"median of {box}: cost {res.cost}, numpy {sum(best)}"
            if probes > self.probe_bound(box):
                return f"median of {box}: {probes} probes > {self.probe_bound(box)}"
        elif kind <= 4:
            flat, sums = self.grid()
            k = self.ranks[p % len(self.ranks)]
            value, stats = ans if kind <= 2 else (ans, None)
            ref = int(flat[k - 1]) if kind <= 2 else int(sums[k - 1])
            bound = math.ceil(math.log2(int(flat[-1]) - int(flat[0]) + 1))
            if value != ref:
                return f"{self.KINDS[kind]} k={k}: {value}, numpy {ref}"
            if stats is not None and stats["iterations"] > bound:
                return f"{self.KINDS[kind]} k={k}: {stats['iterations']} > {bound} iterations"
        else:
            bound = 4 * self.K * len(self.xs)
            if len(ans.intervals) > self.K or self.kmedian_cost(ans.intervals) != ans.cost:
                return f"kmedian: witness intervals do not cost {ans.cost}"
            if ans.deque_pushes > bound or ans.deque_pops > ans.deque_pushes:
                return f"kmedian: deque {ans.deque_pushes}/{ans.deque_pops} > {bound}"
        return None

    def gate(self, state, run, tr):
        median_refs = {}
        bad_passes = {p for p, ans in enumerate(run.answers) if isinstance(ans, Exception)}
        for p in sorted(bad_passes):
            self.fail(f"pass {p} raised {run.answers[p]!r}")
        for p, pos, kind, ans, _ in self.calls(run):
            bad = self.check(p, pos, kind, ans, median_refs)
            if bad:
                bad_passes.add(p)
                self.fail(f"pass {p}: {bad}")
        twin_failed, checks = self.twins(run, tr)
        return len(bad_passes) + twin_failed, checks

    def twins(self, run, tr):
        """Seeded checks against interval_k_median_naive and all_weights."""
        failed = checks = 0
        kmedians = [(p, ans) for p, _, kind, ans, _ in self.calls(run) if kind == 5]
        if kmedians:
            p, ans = kmedians[0]
            length = self.LENGTHS[p % len(self.LENGTHS)]
            if length not in self._naive:
                pts = WeightedPoints1D(self.xs, self.ws)
                self._naive[length] = tr.call(
                    "medians.interval_k_median_naive", interval_k_median_naive,
                    pts, self.K, length)
            checks += 1
            if not math.isclose(float(ans.cost), self._naive[length], rel_tol=1e-9):
                failed += 1
                self.fail(f"kmedian L={length}: {ans.cost} != naive {self._naive[length]}")
        # all_weights is O(n^d) Python: run it on a seeded 3 x 10 instance.
        rng = np.random.default_rng([self.seed, 11])
        small = np.sort(rng.integers(0, 1000, size=(3, 10)), axis=1).tolist()
        swa = SortedWeightArrays(small, "sum")
        split = build_split(swa, choose_split_q(swa))
        weights = tr.call("selection.all_weights", all_weights, swa)
        for k in rng.integers(1, len(weights) + 1, size=ORACLE_SAMPLES).tolist():
            got = (kth_smallest(swa, k), kth_smallest(swa, k, split=split),
                   aggregate_k_smallest(swa, "sum", k),
                   aggregate_k_smallest(swa, "sum", k, split=split))
            ref = (weights[k - 1],) * 2 + (sum(weights[:k]),) * 2
            checks += 1
            if got != ref:
                failed += 1
                self.fail(f"selection k={k} on the small instance: {got} != all_weights {ref}")
        return failed, checks

    def detail(self, run):
        calls = self.calls(run)
        out = {}
        for name, kinds in (("median_per_s", (0,)), ("select_per_s", (1, 2, 3, 4)),
                            ("kmedian_per_s", (5,))):
            secs = [s for _, _, kind, _, s in calls if kind in kinds]
            out[name] = len(secs) / sum(secs) if secs else 0.0
        return out

    def layer_counters(self, run, tracer):
        probes = iters = pushes = pops = 0
        for _, _, kind, ans, _ in self.calls(run):
            if kind == 0:
                probes = max(probes, ans[1])
            elif kind in (1, 2):
                iters = max(iters, ans[1]["iterations"])
            elif kind == 5:
                pushes, pops = max(pushes, ans.deque_pushes), max(pops, ans.deque_pops)
        out = {
            "medians.rangesum_probes_max": probes,
            "selection.iterations": iters,
            "medians.deque_pushes": pushes,
            "medians.deque_pops": pops,
        }
        if tracer.enabled:
            out["selection.kth_computep_ms"] = tracer.median("selection.kth_smallest:computep", 1e3)
            out["selection.kth_split_ms"] = tracer.median("selection.kth_smallest:split", 1e3)
            out["selection.agg_ms"] = tracer.median("selection.aggregate_k_smallest", 1e3)
            out["selection.split_build_s"] = tracer.median("selection.build_split")
            out["medians.index_build_s"] = tracer.median("medians.CubeMedianIndex")
            out["medians.cube_median_us"] = tracer.median("medians.cube_range_weighted_median", 1e6)
            out["medians.kmedian_s"] = tracer.median("medians.interval_k_median")
        return out

    def baselines(self):
        return numpy_baselines(self.weights, self.boxes, self.boxes)


WORKLOADS = {w.name: w for w in (StaticRead, DynamicMixed, CliScript, MediansSelect)}
