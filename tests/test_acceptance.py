"""Acceptance suite: every criterion has a dedicated test printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; runtimes are asserted against the stated budgets.
"""

import math
import random
import time

import numpy as np
import pytest

from rangecube import (
    MAX,
    MIN,
    PrefixCube,
    QueryBox,
    SUM,
    XOR,
    brute_force_range,
    make_cube,
)
from rangecube.cli import main, run_script
from rangecube.dynamic import FenwickCube, HybridCube
from rangecube.medians import (
    CubeMedianIndex,
    MedianIndex,
    WeightedPoints1D,
    cube_range_weighted_median,
    interval_1_median,
    interval_k_median,
    interval_k_median_naive,
    range_weighted_median,
)
from rangecube.rmq import (
    DimensionGrouping,
    SparseTable,
    constrained_boxes,
    grouped_base_case,
)
from rangecube.selection import (
    SortedWeightArrays,
    aggregate_k_smallest,
    all_weights,
    build_split,
    choose_split_q,
    count_leq,
    kth_smallest,
)


def report(number: int, title: str, elapsed: float, budget: float, detail: str = ""):
    line = f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def random_cube(rng, max_d=3, max_extent=8, lo=-100, hi=100):
    d = rng.randint(1, max_d)
    dims = [rng.randint(1, max_extent) for _ in range(d)]
    return make_cube(dims, [rng.randint(lo, hi) for _ in range(math.prod(dims))])


def random_box(rng, dims):
    lo = [rng.randint(0, m - 1) for m in dims]
    hi = [rng.randint(a, m - 1) for a, m in zip(lo, dims)]
    return QueryBox(lo, hi)


def test_criterion_1_static_aggregate_equivalence():
    """200 random cubes x 100 boxes: prefix sum/xor and rmq min/max vs scans."""
    start = time.perf_counter()
    rng = random.Random(10_001)
    rmq_counter_violations = 0
    for _ in range(200):
        cube = random_cube(rng)
        pc_sum = PrefixCube(cube, SUM)
        pc_xor = PrefixCube(cube, XOR)
        t_min = SparseTable(cube, mode="min")
        t_max = SparseTable(cube, mode="max")
        for _ in range(100):
            box = random_box(rng, cube.dims)
            assert pc_sum.range_aggregate(box) == brute_force_range(cube, box, SUM)
            assert pc_xor.range_aggregate(box) == brute_force_range(cube, box, XOR)
            assert t_min.query(box) == brute_force_range(cube, box, MIN)
            if t_min.lookups_last_query > 2**cube.ndim:
                rmq_counter_violations += 1
            assert t_max.query(box) == brute_force_range(cube, box, MAX)
            if t_max.lookups_last_query > 2**cube.ndim:
                rmq_counter_violations += 1
    assert rmq_counter_violations == 0
    report(1, "static aggregate equivalence", time.perf_counter() - start, 30)


@pytest.fixture(scope="module")
def dynamic_corpus():
    """Criterion 2's corpus; counter violations feed criterion 3."""
    start = time.perf_counter()
    rng = random.Random(20_002)
    violations = {"fenwick": 0, "hybrid_update": 0, "hybrid_query": 0}
    for _ in range(100):
        cube = random_cube(rng)
        d = cube.ndim
        n = max(cube.dims)
        root = math.isqrt(n - 1) + 1 if n > 1 else 1
        fenwick = FenwickCube(cube, SUM)
        hybrids = [
            HybridCube(cube, SUM, 1, 0),
            HybridCube(cube, SUM, root, d // 2),
            HybridCube(cube, SUM, root, d),
        ]
        shadow = cube.values.copy()
        fen_bound = fenwick.op_cell_bound
        for _ in range(500):
            if rng.random() < 0.5:
                coords = tuple(rng.randint(0, m - 1) for m in cube.dims)
                delta = rng.randint(-50, 50)
                fenwick.update(coords, delta)
                if fenwick.cells_touched_last_update > fen_bound:
                    violations["fenwick"] += 1
                for hc in hybrids:
                    hc.update(coords, delta)
                    if hc.cells_touched_last_update > hc.update_cell_bound:
                        violations["hybrid_update"] += 1
                shadow[coords] += delta
            else:
                b = tuple(rng.randint(0, m - 1) for m in cube.dims)
                # int64 reduce on the plain mirrored array is exact here
                expected = int(
                    shadow[tuple(slice(0, c + 1) for c in b)].sum(dtype=np.int64)
                )
                got = fenwick.prefix_query(b)
                if fenwick.cells_touched_last_query > fen_bound:
                    violations["fenwick"] += 1
                assert got == expected
                for hc in hybrids:
                    assert hc.prefix_query(b) == expected
                    if hc.cells_touched_last_query > hc.query_cell_bound:
                        violations["hybrid_query"] += 1
    return {"elapsed": time.perf_counter() - start, "violations": violations}


def test_criterion_2_dynamic_equivalence(dynamic_corpus):
    """100 scripts x 500 ops: Fenwick and three hybrid configs vs shadow cube."""
    report(2, "dynamic equivalence", dynamic_corpus["elapsed"], 60)


@pytest.fixture(scope="module")
def median_query_corpus():
    """Criterion 5's corpus; probe-budget violations feed criterion 3."""
    start = time.perf_counter()
    rng = random.Random(50_005)
    probe_violations = 0
    # 1D: position enumeration over materialised distance matrices
    for _ in range(100):
        n = rng.randint(1, 64)
        xs = sorted(rng.randint(0, 300) for _ in range(n))
        ws = [rng.randint(0, 9) for _ in range(n)]
        idx = MedianIndex(WeightedPoints1D(xs, ws))
        budget = 2 * math.ceil(math.log2(n)) + 4 if n > 1 else 4
        xs_np = np.array(xs, dtype=np.int64)
        ws_np = np.array(ws, dtype=np.int64)
        for _ in range(20):
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            r, cost = range_weighted_median(idx, i, j)
            if idx.probes_last_query > budget:
                probe_violations += 1
            dist = np.abs(xs_np[i : j + 1, None] - xs_np[None, i : j + 1])
            costs = dist @ ws_np[i : j + 1]
            assert cost == costs.min()
            assert cost == costs[r - i]
    # cubes: position enumeration over every candidate cell
    for _ in range(100):
        d = rng.randint(1, 3)
        dims = [rng.randint(1, 6) for _ in range(d)]
        values = [rng.randint(0, 9) for _ in range(math.prod(dims))]
        if not any(values):
            values[0] = 1
        scales = [sorted(rng.sample(range(100), m)) for m in dims]
        cube = make_cube(dims, values)
        idx = CubeMedianIndex(cube, scales)
        dist = [
            np.abs(
                np.array(s, dtype=np.int64)[:, None] - np.array(s, dtype=np.int64)[None, :]
            )
            for s in scales
        ]
        weights = cube.values
        for _ in range(10):
            box = random_box(rng, dims)
            in_box = weights[box.slices()]
            if not in_box.any():
                with pytest.raises(ValueError):
                    cube_range_weighted_median(idx, box)
                continue
            res = cube_range_weighted_median(idx, box)
            best = None
            for cand in box.coords():
                total = np.zeros((), dtype=np.int64)
                grid = np.zeros([b - a + 1 for a, b in zip(box.lo, box.hi)], dtype=np.int64)
                for j in range(d):
                    shape = [1] * d
                    shape[j] = grid.shape[j]
                    grid = grid + dist[j][cand[j], box.lo[j] : box.hi[j] + 1].reshape(shape)
                total = int((grid * in_box).sum())
                if best is None or total < best:
                    best = total
            assert res.cost == best
    return {"elapsed": time.perf_counter() - start, "probe_violations": probe_violations}


def test_criterion_5_range_weighted_median(median_query_corpus):
    """1D and cube medians equal position-enumeration brute force, exactly."""
    report(5, "range weighted median", median_query_corpus["elapsed"], 20)


def test_criterion_3_complexity_counters(dynamic_corpus, median_query_corpus):
    """Zero touched-cell / probe violations across the dynamic and median corpora.

    rmq lookup counters are asserted inside criterion 1's corpus run.
    """
    start = time.perf_counter()
    assert dynamic_corpus["violations"] == {
        "fenwick": 0,
        "hybrid_update": 0,
        "hybrid_query": 0,
    }
    assert median_query_corpus["probe_violations"] == 0
    report(3, "complexity counters", time.perf_counter() - start, 10)


def test_criterion_4_median_dp_equivalence():
    """Deque DP == naive O(n^2 K) DP on 100 instances; 1-median == K=1."""
    start = time.perf_counter()
    rng = random.Random(40_004)
    for _ in range(100):
        n = rng.randint(1, 50)
        xs = sorted(rng.randint(0, 400) for _ in range(n))
        ws = [rng.randint(0, 20) for _ in range(n)]
        count = rng.randint(1, 5)
        length = rng.choice([0, 1, 5])
        pts = WeightedPoints1D(xs, ws)
        fast = interval_k_median(pts, count, length)
        naive = interval_k_median_naive(pts, count, length)
        assert fast.cost == int(naive)
        sweep = interval_1_median(pts, length)
        assert sweep.cost == interval_k_median(pts, 1, length).cost
    report(4, "median DP equivalence", time.perf_counter() - start, 20)


def test_criterion_6_selection():
    """kth and aggregate vs the sort-all oracle for every rank.

    Integer sum/max instances are exact and run every rank through the default
    path and through every split size q in 1..d-1; the pure ComputeP path is
    compared on every rank for d <= 2 and on a 20-rank sample for d = 3 (it is
    the same counting logic, an order of magnitude slower), plus count-level
    agreement at sampled thresholds.  Product instances run on floats within
    1e-9 relative.
    """
    start = time.perf_counter()
    rng = random.Random(60_006)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(1, 10)
        int_rows = [sorted(rng.randint(0, 50) for _ in range(n)) for _ in range(d)]
        split_qs = list(range(1, d))

        for op in ("sum", "max"):
            arrays = SortedWeightArrays(int_rows, op)
            weights = all_weights(arrays)
            auto_q = choose_split_q(arrays)
            split = build_split(arrays, auto_q) if auto_q else None
            splits = [build_split(arrays, q) for q in split_qs]
            size = len(weights)
            if d >= 3:
                sample = sorted({1, size, *rng.sample(range(1, size + 1), min(20, size))})
            else:
                sample = range(1, size + 1)
            running = 0 if op == "sum" else None
            for k in range(1, size + 1):
                expected = weights[k - 1]
                assert kth_smallest(arrays, k, split=split) == expected
                for sp in splits:
                    assert kth_smallest(arrays, k, split=sp) == expected
                if op == "sum":
                    running += expected
                    assert aggregate_k_smallest(arrays, "sum", k, split=split) == running
                else:
                    assert aggregate_k_smallest(arrays, "max", k) == expected
            for k in sample:
                assert kth_smallest(arrays, k, split=None) == weights[k - 1]
            if op == "sum" and splits:
                for wt in sorted(rng.sample(range(0, arrays.wmax + 2), min(20, arrays.wmax + 2))):
                    base = count_leq(arrays, wt, split=None)
                    for sp in splits:
                        assert count_leq(arrays, wt, split=sp) == base

        float_rows = [
            sorted(rng.uniform(0.5, 2.0) for _ in range(n)) for _ in range(d)
        ]
        arrays = SortedWeightArrays(float_rows, "product")
        weights = all_weights(arrays)
        auto_q = choose_split_q(arrays)
        split = build_split(arrays, auto_q) if auto_q else None
        size = len(weights)
        sample = sorted({1, size, *rng.sample(range(1, size + 1), min(12, size))})
        running = math.prod(weights)
        rel_tol, _ = arrays.tolerance
        agg_rel_tol, _ = arrays.aggregate_tolerance
        for k in sample:
            got = kth_smallest(arrays, k, split=split)
            assert math.isclose(got, weights[k - 1], rel_tol=rel_tol)
            agg = aggregate_k_smallest(arrays, "product", k, split=split)
            assert math.isclose(agg, arrays.combine_exact(weights[:k]), rel_tol=agg_rel_tol)
        _, stats = kth_smallest(arrays, size, split=split, return_stats=True)
        assert stats["iterations"] <= 64
    report(6, "selection", time.perf_counter() - start, 30)


def test_criterion_7_differential_sparse_table_recurrences():
    """Every level-built table answers every constrained box as brute force."""
    start = time.perf_counter()
    rng = random.Random(70_007)

    def check(cube, grouping):
        tables = {mode: SparseTable(cube, grouping, mode) for mode in ("min", "max")}
        for mode, table in tables.items():
            level0 = table.distinct[table.tables[(0,) * grouping.ngroups]]
            expected = [grouped_base_case(cube, grouping, a, mode) for a in np.ndindex(level0.shape)]
            assert np.array_equal(level0, np.array(expected).reshape(level0.shape))
        for box in constrained_boxes(cube.dims, grouping):
            assert tables["min"].query(box) == brute_force_range(cube, box, MIN)
            assert tables["max"].query(box) == brute_force_range(cube, box, MAX)

    for _ in range(20):
        d = rng.randint(1, 2)
        dims = [rng.randint(1, 16) for _ in range(d)]
        cube = make_cube(dims, [rng.randint(-100, 100) for _ in range(math.prod(dims))])
        check(cube, DimensionGrouping.singleton(d))
    dims = [rng.randint(2, 12), rng.randint(2, 16)]
    cube = make_cube(dims, [rng.randint(-100, 100) for _ in range(math.prod(dims))])
    check(cube, DimensionGrouping([0, 0], [0], [1, 2]))
    report(7, "sparse tables vs brute force", time.perf_counter() - start, 10)


def test_criterion_8_cli_golden(tmp_path, capsys):
    """Documented example files produce byte-identical output; oracle exits 0."""
    start = time.perf_counter()

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    cube = write("cube.txt", "2\n2 2\nint\n1 2 3 4\n")
    zero = write("zero.txt", "2\n2 2\nint\n0 0 0 0\n")
    unit_scales = write("sc.txt", "0 1 2\n0 1 2\n")

    cases = [
        (
            ["query", "prefix:op=sum", cube, write("s1.txt", "prefix 1 1\n"), "--oracle"],
            "10\n# ops queries=1 updates=0\n# counters prefix_lookups_max=4\n",
            0,
        ),
        (
            ["query", "fenwick", zero, write("s2.txt", "update 0 0 5\nprefix 1 1\n"), "--oracle"],
            "5\n# ops queries=1 updates=1\n# counters query_cells_max=1 update_cells_max=4\n",
            0,
        ),
        (
            [
                "query",
                "rmq:mode=min",
                write("v.txt", "1\n5\nint\n3 1 4 1 5\n"),
                write("s3.txt", "rmq 1 3\n"),
                "--oracle",
            ],
            "1\n# ops queries=1 updates=0\n# counters rmq_lookups_max=2\n",
            0,
        ),
        (
            [
                "query",
                f"median:scales={unit_scales}",
                write("ones.txt", "2\n3 3\nint\n1 1 1 1 1 1 1 1 1\n"),
                write("s4.txt", "cube-median 0 2 0 2\n"),
                "--oracle",
            ],
            "1 1 12\n# ops queries=1 updates=0\n# counters rangesum_probes_max=21\n",
            0,
        ),
        (
            [
                "query",
                "select:op=sum",
                write("arr.txt", "1 2\n1 2\n"),
                write("s5.txt", "select 2\nagg-select 3\n"),
                "--oracle",
            ],
            "3\n8\n# ops queries=2 updates=0\n",
            0,
        ),
    ]
    for argv, expected, expected_code in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == expected, f"output mismatch for {argv}"
        assert code == expected_code

    # documented error cases exit nonzero with the failing line reported
    code = main(["query", "rmq", zero, write("bad.txt", "update 0 0 5\n")])
    captured = capsys.readouterr()
    assert code == 1 and "unsupported verb" in captured.err

    code = main(["query", "prefix", write("short.txt", "1\n3\nint\n1 2\n"), write("p.txt", "prefix 0\n")])
    captured = capsys.readouterr()
    assert code == 1 and "value" in captured.err

    # oracle mode over a random corpus exits 0 for every structure kind
    rng = random.Random(80_008)
    values = [rng.randint(-30, 30) for _ in range(36)]
    corpus_cube = write("c6.txt", "2\n6 6\nint\n" + " ".join(map(str, values)) + "\n")
    dyn_lines = []
    for _ in range(60):
        roll = rng.random()
        if roll < 0.4:
            dyn_lines.append(
                f"update {rng.randrange(6)} {rng.randrange(6)} {rng.randint(-9, 9)}"
            )
        elif roll < 0.7:
            dyn_lines.append(f"prefix {rng.randrange(6)} {rng.randrange(6)}")
        else:
            lo = [rng.randrange(6), rng.randrange(6)]
            dyn_lines.append(
                f"query {lo[0]} {rng.randint(lo[0], 5)} {lo[1]} {rng.randint(lo[1], 5)}"
            )
        rng.random()
    dyn_script = write("dyn.txt", "\n".join(dyn_lines) + "\n")
    for struct in ("fenwick", "fenwick:op=xor", "hybrid:k=3,q=1", "hybrid:k=1,q=0", "hybrid:k=2,q=2"):
        assert main(["query", struct, corpus_cube, dyn_script, "--oracle"]) == 0
        capsys.readouterr()

    rmq_lines = []
    for _ in range(40):
        lo = [rng.randrange(6), rng.randrange(6)]
        rmq_lines.append(f"rmq {lo[0]} {rng.randint(lo[0], 5)} {lo[1]} {rng.randint(lo[1], 5)}")
    rmq_script = write("rmqs.txt", "\n".join(rmq_lines) + "\n")
    for struct in ("rmq:mode=min", "rmq:mode=max"):
        assert main(["query", struct, corpus_cube, rmq_script, "--oracle"]) == 0
        capsys.readouterr()

    med_cube = write(
        "mw.txt", "2\n4 4\nint\n" + " ".join(str(rng.randint(1, 9)) for _ in range(16)) + "\n"
    )
    scales = write("msc.txt", "0 2 5 9\n1 4 6 7\n")
    med_lines = []
    for _ in range(15):
        lo = [rng.randrange(4), rng.randrange(4)]
        med_lines.append(
            f"cube-median {lo[0]} {rng.randint(lo[0], 3)} {lo[1]} {rng.randint(lo[1], 3)}"
        )
    assert (
        main(
            [
                "query",
                f"median:scales={scales}",
                med_cube,
                write("meds.txt", "\n".join(med_lines) + "\n"),
                "--oracle",
            ]
        )
        == 0
    )
    capsys.readouterr()

    w1d = write("w1.txt", "1\n6\nint\n2 0 3 1 4 2\n")
    sc1d = write("sc1.txt", "0 3 4 8 12 15\n")
    seq = "median 0 5\nmedian 2 4\nkmedian 2 3\nkmedian 1 0\n"
    assert (
        main(["query", f"median:scales={sc1d}", w1d, write("m1.txt", "median 0 5\nmedian 2 4\n"), "--oracle"])
        == 0
    )
    capsys.readouterr()
    assert (
        main(["query", f"kmedian:scales={sc1d}", w1d, write("k1.txt", "kmedian 2 3\nkmedian 1 0\n"), "--oracle"])
        == 0
    )
    capsys.readouterr()
    del seq

    arrays3 = write("arr3.txt", "1 3 7\n2 2 5\n0 4 4\n")
    sel_script = write(
        "sel.txt", "select 1\nselect 14\nselect 27\nagg-select 5\nagg-select 27 2\nselect 9 1\n"
    )
    assert main(["query", "select:op=sum", arrays3, sel_script, "--oracle"]) == 0
    capsys.readouterr()
    assert main(["query", "select:op=max", arrays3, write("sm.txt", "select 13\n"), "--oracle"]) == 0
    capsys.readouterr()

    # bench determinism: identical seeds give identical tables
    code = main(["bench", "--n", "8", "--d", "2", "--seed", "5", "--ops", "40", "--csv"])
    first = capsys.readouterr().out
    assert code == 0
    main(["bench", "--n", "8", "--d", "2", "--seed", "5", "--ops", "40", "--csv"])
    assert capsys.readouterr().out == first

    report(8, "CLI golden tests", time.perf_counter() - start, 30)
