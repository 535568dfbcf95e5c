"""Seeded benchmark of rangecube: four closed-loop workloads on the public API.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload static-read --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``static-read``,
``dynamic-mixed``, ``cli-script`` and ``medians-select``.  Each run is one
process, one thread and one caller that waits for every request.

``--trace 0`` measures with tracing off and reports the end-to-end metrics
named in ``BENCHMARK.json``: ``setup_s`` (median of several full set-ups),
``requests_per_s`` (requests per second of busy time), ``request_p50_us`` and
``peak_rss_mb``.  A request is one box read, one update plus one box sum, one
set of three ``rangecube query`` scripts, or one pass of median, selection
and K-median calls.  Durations are CPU time of the benchmark's one thread (``tracing.clock``);
``--seconds`` is wall time.

``--trace 1`` splits the time into two halves.  The untraced half gives the
per-kind figures (read/update latency, script time, call-set rates).  In the
traced half, requests alternate between traced and untraced: spans around
every call into a rangecube module give the per-module metrics, and the
latency of the two kinds of request gives ``trace.overhead_pct``.
Spans are written to ``.bench_out/`` when the run ends.  A module that does no
work in a workload reports 0 there.

Every answer is checked against numpy after the timed loop; wrong answers,
exceptions and counters above their stated bound count as failed.  A line
``record: {...}`` gives the seed, a digest of the generated inputs and the
machine; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from array import array
from types import SimpleNamespace

import numpy as np

from tracing import NullTracer, Tracer, clock, table_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def closed_loop(workload, state, seconds, tracer):
    """Issue requests 0, 1, ... one at a time until ``seconds`` have passed.

    When a workload's answers repeat every ``workload.period`` requests, only
    the first period is kept and later answers that differ from it are logged
    as mismatches, so the log (and the peak RSS) does not grow with speed.
    """
    request = workload.requester(state, tracer)
    period = workload.period
    latencies, answers, mismatches = array("d"), [], []
    # A traced loop holds at least one traced and one untraced request.
    least = 2 if tracer.enabled else 1
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tracer.op_id = i
        if tracer.enabled:
            tracer.active = i % 2 == 0
        t0 = clock()
        try:
            answer = request(i)
        except Exception as exc:  # the gate counts and reports it
            answer = exc
        t1 = clock()
        latencies.append(t1 - t0)
        if period and i >= period:
            if answer != answers[i % period]:
                mismatches.append((i, answer))
        else:
            answers.append(answer)
        i += 1
        if i >= least and time.perf_counter() >= deadline:
            break
    if tracer.enabled:
        tracer.active = True
    return SimpleNamespace(
        requests=i,
        latencies=np.frombuffer(latencies),
        answers=answers,
        mismatches=mismatches,
    )


def gate(workload, state, run, tracer):
    """Failed checks and the number of extra oracle checks made."""
    for i, answer in run.mismatches[:5]:
        workload.fail(f"request {i}: {answer!r} differs from the same request earlier")
    failed, checks = workload.gate(state, run, tracer)
    return failed + len(run.mismatches), checks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def span_metrics(tracer) -> dict:
    """Per-call medians of the spans every workload shares."""
    median = tracer.median
    out = {
        "cube.make_cube_s": median("cube.make_cube", 1),
        "cube.prefix_build_s": median("cube.PrefixCube", 1),
        "cube.prefix_query_us": median("cube.PrefixCube.range_aggregate", 1e6),
        "cube.brute_force_us": median("cube.brute_force_range", 1e6),
        "rmq.build_s": median("rmq.SparseTable", 1),
        "rmq.query_us": median("rmq.SparseTable.query", 1e6),
    }
    for label, cls in (("fenwick", "FenwickCube"), ("hybrid", "HybridCube")):
        out[f"dynamic.{label}.build_s"] = median(f"dynamic.{cls}", 1)
        out[f"dynamic.{label}.update_us"] = median(f"dynamic.{cls}.update", 1e6)
        out[f"dynamic.{label}.range_us"] = median(f"dynamic.{cls}.range_query", 1e6)
    for key in ("cube.cells_built", "rmq.levels", "rmq.table_bytes",
                "dynamic.hybrid.table_bytes"):
        out[key] = max(tracer.notes.get(key, [0]))
    return out


def run_workload(name, seed, seconds, trace, tiny=False, workdir=None):
    """Run one workload; returns ``(result, record)``.

    ``tiny`` shrinks every input so the tests can smoke-run each workload.
    """
    from workloads import WORKLOADS

    workdir = workdir or os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    workload = WORKLOADS[name](seed, tiny=tiny, workdir=workdir)
    null = NullTracer()
    record = {
        "workload": name,
        "seed": seed,
        "inputs_digest": workload.digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seconds": seconds,
        "trace": int(trace),
    }
    try:
        if not trace:
            setups, state = [], None
            for _ in range(SETUP_REPS):
                state = None
                gc.collect()
                t0 = clock()
                state = workload.setup(null)
                setups.append(clock() - t0)
            run = closed_loop(workload, state, seconds, null)
            rss = peak_rss_mb()
            failed, checks = gate(workload, state, run, null)
            attempted = run.requests + checks
            metrics = {
                "setup_s": float(np.median(setups)),
                "requests_per_s": run.requests / float(run.latencies.sum()),
                "request_p50_us": float(np.median(run.latencies)) * 1e6,
                "peak_rss_mb": rss,
            }
            names = spec()["end_to_end"]
        else:
            state = workload.setup(null)
            plain = closed_loop(workload, state, seconds / 2, null)
            failed, checks = gate(workload, state, plain, null)
            attempted = plain.requests + checks
            metrics = {name_: 0 for name_ in (m["name"] for m in spec()["per_layer"])}
            metrics.update(workload.detail(plain))
            metrics["table_mb"] = sum(table_bytes(s) for s in state.tables) / 1e6
            state = None
            gc.collect()
            tracer = Tracer()
            with workload.instrument(tracer):
                state = workload.setup(tracer)
                traced = closed_loop(workload, state, seconds / 2, tracer)
            more_failed, more_checks = gate(workload, state, traced, tracer)
            failed += more_failed
            attempted += traced.requests + more_checks
            metrics.update(span_metrics(tracer))
            metrics.update(workload.layer_counters(traced, tracer))
            metrics.update(workload.baselines())
            # Even requests ran traced, odd ones untraced, under the same load.
            on = np.arange(traced.requests) % 2 == 0
            metrics["trace.overhead_pct"] = (
                np.median(traced.latencies[on]) / np.median(traced.latencies[~on]) - 1
            ) * 100
            metrics["error_rate"] = failed / attempted
            spans_path = os.path.join(ROOT, ".bench_out", f"spans-{name}-seed{seed}.json.gz")
            if not tiny:
                tracer.write(spans_path)
                record["spans"] = os.path.relpath(spans_path, ROOT)
            names = spec()["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unknown = set(metrics) - {m["name"] for m in names}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    record["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rangecube", "__init__.py")):
        print(f"error: no rangecube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import rangecube

    if not os.path.abspath(rangecube.__file__).startswith(SRC + os.sep):
        print(f"error: imported rangecube from {rangecube.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
