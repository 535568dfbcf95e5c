"""Query results are safe under concurrent readers.

Four threads read one shared :class:`PrefixCube`, :class:`SparseTable`,
:class:`CubeMedianIndex` and :class:`SortedWeightArrays`, each in its own
order, and every answer must equal the single-threaded one.  The
``*_last_*`` counters are not synchronised and are not compared.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from rangecube import (
    SUM,
    CubeMedianIndex,
    PrefixCube,
    QueryBox,
    SortedWeightArrays,
    SparseTable,
    aggregate_k_smallest,
    build_split,
    cube_range_weighted_median,
    kth_smallest,
    make_cube,
)

THREADS = 4


def reads(rng: random.Random) -> list:
    """One zero-argument call per read, over structures built once."""
    n = 48
    cube = make_cube([n, n], [rng.randint(1, 1000) for _ in range(n * n)])
    prefix = PrefixCube(cube, SUM)
    table = SparseTable(cube, mode="min")
    medians = CubeMedianIndex(cube, [list(range(n)), list(range(0, 3 * n, 3))])
    arrays = SortedWeightArrays([sorted(rng.randint(0, 500) for _ in range(24)) for _ in range(3)], "sum")
    split = build_split(arrays, 1)
    calls = []
    boxes = []
    for _ in range(150):
        lo = [rng.randrange(n) for _ in range(2)]
        box = QueryBox(lo, [rng.randint(a, n - 1) for a in lo])
        boxes.append(box)
        calls += [
            partial(prefix.range_aggregate, box),
            partial(table.query, box),
            partial(cube_range_weighted_median, medians, box),
        ]
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    calls += [lambda: prefix.range_aggregate_many(lo, hi).tolist(), lambda: table.query_many(lo, hi).tolist()]
    for _ in range(40):
        k = rng.randint(1, arrays.grid_size)
        for s in (None, split):
            calls += [
                partial(kth_smallest, arrays, k, split=s),
                partial(aggregate_k_smallest, arrays, "sum", k, split=s),
            ]
    return calls


def run_all(calls: list, order) -> dict:
    return {i: calls[i]() for i in order}


def test_concurrent_readers_match_one_thread():
    calls = reads(random.Random(31))
    expected = run_all(calls, range(len(calls)))
    orders = []
    for t in range(THREADS):
        order = list(range(len(calls)))
        random.Random(t).shuffle(order)
        orders.append(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so reads interleave
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(pool.map(lambda order: run_all(calls, order), orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == expected
