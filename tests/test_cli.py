"""Golden tests for the command-line front end."""

import math
import random
import subprocess
import sys

import numpy as np
import pytest

from rangecube.cli import main, run_bench, run_script

CUBE_2X2 = "2\n2 2\nint\n1 2 3 4\n"
ZERO_2X2 = "2\n2 2\nint\n0 0 0 0\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueryGolden:
    def test_prefix_script(self, files, capsys):
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 1 1\n")
        code, out, err = run(capsys, ["query", "prefix:op=sum", cube, script, "--oracle"])
        assert code == 0
        assert err == ""
        assert out == "10\n# ops queries=1 updates=0\n# counters prefix_lookups_max=4\n"

    def test_fenwick_update_script(self, files, capsys):
        cube = files("zero.txt", ZERO_2X2)
        script = files("s.txt", "update 0 0 5\nprefix 1 1\n")
        code, out, err = run(capsys, ["query", "fenwick", cube, script, "--oracle"])
        assert code == 0
        assert out.splitlines()[0] == "5"

    def test_update_rejected_for_rmq(self, files, capsys):
        cube = files("zero.txt", ZERO_2X2)
        script = files("s.txt", "update 0 0 5\n")
        code, out, err = run(capsys, ["query", "rmq", cube, script])
        assert code == 1
        assert "unsupported verb 'update'" in err
        assert "line 1" in err

    def test_unknown_verb_with_line_number(self, files, capsys):
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 1 1\nfrobnicate 1\n")
        code, out, err = run(capsys, ["query", "prefix", cube, script])
        assert code == 1
        assert "line 2" in err and "frobnicate" in err

    def test_out_of_bounds_reports_line(self, files, capsys):
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 1 1\nprefix 9 9\n")
        code, out, err = run(capsys, ["query", "prefix", cube, script])
        assert code == 1
        assert "line 2" in err

    def test_rmq_script(self, files, capsys):
        cube = files("cube.txt", "1\n5\nint\n3 1 4 1 5\n")
        script = files("s.txt", "rmq 1 3\nrmq 0 4\n")
        code, out, err = run(capsys, ["query", "rmq:mode=min", cube, script, "--oracle"])
        assert code == 0
        assert out.splitlines()[:2] == ["1", "1"]
        code, out, err = run(capsys, ["query", "rmq:mode=max", cube, script, "--oracle"])
        assert out.splitlines()[:2] == ["4", "5"]

    def test_hybrid_matches_fenwick_output(self, files, capsys):
        rng = random.Random(11)
        dims = (4, 4)
        values = [rng.randint(-9, 9) for _ in range(16)]
        cube = files(
            "cube.txt", "2\n4 4\nint\n" + " ".join(map(str, values)) + "\n"
        )
        lines = ["update 2 3 7", "prefix 3 3", "query 1 2 0 3", "prefix 0 0"]
        script = files("s.txt", "\n".join(lines) + "\n")
        outputs = []
        for struct in ("fenwick", "hybrid:k=2,q=1", "hybrid:k=2,q=2", "prefix"):
            if struct == "prefix":
                sc = files("s2.txt", "prefix 0 0\n")
                code, out, err = run(capsys, ["query", struct, cube, sc, "--oracle"])
                assert code == 0
                continue
            code, out, err = run(capsys, ["query", struct, cube, script, "--oracle"])
            assert code == 0
            outputs.append([l for l in out.splitlines() if not l.startswith("#")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cube_median_script(self, files, capsys):
        cube = files("cube.txt", "2\n3 3\nint\n1 1 1 1 1 1 1 1 1\n")
        scales = files("scales.txt", "0 1 2\n0 1 2\n")
        script = files("s.txt", "cube-median 0 2 0 2\n")
        code, out, err = run(
            capsys, ["query", f"median:scales={scales}", cube, script, "--oracle"]
        )
        assert code == 0
        assert out.splitlines()[0] == "1 1 12"

    def test_median_1d_script(self, files, capsys):
        cube = files("w.txt", "1\n4\nint\n1 1 1 1\n")
        scales = files("scales.txt", "1 2 3 10\n")
        script = files("s.txt", "median 0 2\nmedian 0 3\n")
        code, out, err = run(
            capsys, ["query", f"median:scales={scales}", cube, script, "--oracle"]
        )
        assert code == 0
        assert out.splitlines()[:2] == ["1 2", "1 10"]

    def test_kmedian_script(self, files, capsys):
        cube = files("w.txt", "1\n3\nint\n1 1 1\n")
        scales = files("scales.txt", "0 4 10\n")
        script = files("s.txt", "kmedian 1 4\nkmedian 3 0\n")
        code, out, err = run(
            capsys, ["query", f"kmedian:scales={scales}", cube, script, "--oracle"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[0] == "6"
        assert lines[1].split()[0] == "0"

    def test_select_script(self, files, capsys):
        arrays = files("arr.txt", "1 2\n1 2\n")
        script = files("s.txt", "select 2\nselect 2 1\nagg-select 3\nagg-select 4 1\n")
        code, out, err = run(capsys, ["query", "select:op=sum", arrays, script, "--oracle"])
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("#")] == [
            "3",
            "3",
            "8",
            "12",
        ]

    def test_overflow_rejection(self, files, capsys):
        # Σ|cells| = 2**63 - 1 loads and reads exactly; 2**63 is rejected.
        half = 1 << 62
        script = files("s.txt", "prefix 3\n")
        cube = files("cube.txt", f"1\n4\nint\n{half} {-(half - 1)} 0 0\n")
        code, out, err = run(capsys, ["query", "prefix:op=sum", cube, script, "--oracle"])
        assert code == 0 and out.splitlines()[0] == "1"
        cube = files("cube.txt", f"1\n4\nint\n{half} {-half} 0 0\n")
        code, out, err = run(capsys, ["query", "prefix:op=sum", cube, script])
        assert code == 1
        assert f"overflow: the sum of |cells| is {1 << 63}" in err

    def test_overflow_rejection_at_int64_min(self, files, capsys):
        cube = files("cube.txt", f"1\n2\nint\n{-(1 << 63)} 0\n")
        script = files("s.txt", "prefix 1\n")
        code, out, err = run(capsys, ["query", "prefix:op=sum", cube, script])
        assert code == 1
        assert "overflow" in err

    @pytest.mark.parametrize("struct", ["prefix:op=xor", "fenwick:op=xor"])
    def test_xor_needs_int_cube(self, files, capsys, struct):
        cube = files("cube.txt", "2\n2 2\nfloat\n1.0 2.0 3.0 4.0\n")
        script = files("s.txt", "prefix 1 1\n")
        code, out, err = run(capsys, ["query", struct, cube, script])
        assert code == 1
        assert "xor needs an integer cube" in err

    def test_kmedian_negative_weight(self, files, capsys):
        cube = files("w.txt", "1\n3\nint\n1 -2 3\n")
        scales = files("scales.txt", "0 4 10\n")
        script = files("s.txt", "kmedian 1 4\n")
        code, out, err = run(capsys, ["query", f"kmedian:scales={scales}", cube, script])
        assert code == 1
        assert "nonnegative" in err

    def test_product_needs_float_cube(self, files, capsys):
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 1 1\n")
        code, out, err = run(capsys, ["query", "prefix:op=product", cube, script])
        assert code == 1
        assert "float" in err

    def test_product_float_cube(self, files, capsys):
        cube = files("cube.txt", "2\n2 2\nfloat\n1.0 2.0 3.0 4.0\n")
        script = files("s.txt", "query 0 1 0 1\n")
        code, out, err = run(capsys, ["query", "prefix:op=product", cube, script, "--oracle"])
        assert code == 0
        assert out.splitlines()[0] == "24"

    def test_malformed_cube_file(self, files, capsys):
        cube = files("cube.txt", "1\n3\nint\n1 2\n")
        script = files("s.txt", "prefix 0\n")
        code, out, err = run(capsys, ["query", "prefix", cube, script])
        assert code == 1
        assert "expected value" in err

    def test_unknown_structure(self, files, capsys):
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 1 1\n")
        code, out, err = run(capsys, ["query", "btree", cube, script])
        assert code == 1
        assert "unknown structure" in err


class TestOracleCorpus:
    def test_oracle_mode_full_corpus(self, files, tmp_path):
        """Random scripts over every structure kind run clean in oracle mode."""
        rng = random.Random(99)
        dims = (4, 3)
        values = [rng.randint(-20, 20) for _ in range(12)]
        cube_path = files("cube.txt", "2\n4 3\nint\n" + " ".join(map(str, values)) + "\n")
        lines = []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.4:
                c = [rng.randrange(4), rng.randrange(3)]
                lines.append(f"update {c[0]} {c[1]} {rng.randint(-9, 9)}")
            elif roll < 0.7:
                b = [rng.randrange(4), rng.randrange(3)]
                lines.append(f"prefix {b[0]} {b[1]}")
            else:
                lo = [rng.randrange(4), rng.randrange(3)]
                hi = [rng.randint(lo[0], 3), rng.randint(lo[1], 2)]
                lines.append(f"query {lo[0]} {hi[0]} {lo[1]} {hi[1]}")
        script = files("dyn.txt", "\n".join(lines) + "\n")
        for struct in ("fenwick", "fenwick:op=xor", "hybrid:k=2,q=1", "hybrid:k=1,q=0"):
            out = run_script(cube_path, struct, script, oracle=True)
            assert out  # no mismatch raised

        rmq_lines = []
        for _ in range(30):
            lo = [rng.randrange(4), rng.randrange(3)]
            hi = [rng.randint(lo[0], 3), rng.randint(lo[1], 2)]
            rmq_lines.append(f"rmq {lo[0]} {hi[0]} {lo[1]} {hi[1]}")
        rmq_script = files("rmq.txt", "\n".join(rmq_lines) + "\n")
        for struct in ("rmq:mode=min", "rmq:mode=max"):
            run_script(cube_path, struct, rmq_script, oracle=True)

    @pytest.mark.parametrize(
        "op, verb, search",
        [("sum", "select 3", "kth_smallest"), ("max", "agg-select 3", "aggregate_k_smallest")],
    )
    def test_float_kth_oracle_bound(self, files, capsys, monkeypatch, op, verb, search):
        """The oracle compares a float k-th smallest within the bound the
        arrays state: one float off a max weight, which is exact, fails it."""
        import rangecube.cli as cli

        arrays = files("arr.txt", "1000000000.5 1000000001.5\n1000000000.25 1000000002.0\n")
        script = files("s.txt", verb + "\n")
        code, out, err = run(capsys, ["query", f"select:op={op}", arrays, script, "--oracle"])
        assert (code, err) == (0, "")
        found = getattr(cli, search)
        step = 1000.0 if op == "sum" else 0.0
        monkeypatch.setattr(
            cli, search, lambda *a, **kw: math.nextafter(found(*a, **kw) + step, math.inf)
        )
        code, out, err = run(capsys, ["query", f"select:op={op}", arrays, script, "--oracle"])
        assert code == 1
        assert "oracle mismatch at line 1" in err

    def test_float_kth_oracle_past_eps_spacing(self, files, capsys):
        """Weights near 1e16 are spaced 2 or more apart, and a three-array sum
        rounds twice; every k-th smallest still passes the oracle."""
        arrays = files(
            "arr.txt",
            "400000000000003.0 840000000000002.0 4.600000000000001e+16\n"
            "1500000000000007.0 3200000000000008.0 1.4000000000000004e+16\n"
            "2000000000000003.0 5300000000000002.0 9900000000000002.0\n",
        )
        script = files("s.txt", "".join(f"select {k}\nagg-select {k}\n" for k in range(1, 28)))
        code, out, err = run(capsys, ["query", "select:op=sum", arrays, script, "--oracle"])
        assert (code, err) == (0, "")

    def test_identical_outputs_across_structures(self, files):
        rng = random.Random(123)
        values = [rng.randint(-20, 20) for _ in range(16)]
        cube_path = files("cube.txt", "2\n4 4\nint\n" + " ".join(map(str, values)) + "\n")
        lines = []
        for _ in range(30):
            if rng.random() < 0.5:
                b = [rng.randrange(4), rng.randrange(4)]
                lines.append(f"prefix {b[0]} {b[1]}")
            else:
                lo = [rng.randrange(4), rng.randrange(4)]
                hi = [rng.randint(lo[0], 3), rng.randint(lo[1], 3)]
                lines.append(f"query {lo[0]} {hi[0]} {lo[1]} {hi[1]}")
        script = files("q.txt", "\n".join(lines) + "\n")
        results = []
        for struct in ("prefix", "fenwick", "hybrid", "hybrid:k=4,q=2"):
            out = run_script(cube_path, struct, script, oracle=True)
            results.append([l for l in out if not l.startswith("#")])
        assert all(r == results[0] for r in results)


def brute_answers(values, lines):
    """Expected output lines of a box-read script over an int numpy cube."""
    arr = np.array(values)
    out = []
    for line in lines:
        body = line.split("#", 1)[0].split()
        if not body:
            continue
        verb, args = body[0], [int(a) for a in body[1:]]
        if verb == "update":
            arr[tuple(args[:-1])] += args[-1]
            continue
        if verb == "prefix":
            box = tuple(slice(0, b + 1) for b in args)
        else:
            box = tuple(slice(a, b + 1) for a, b in zip(args[0::2], args[1::2]))
        out.append(str(int(arr[box].min() if verb == "rmq" else arr[box].sum())))
    return out


class TestBatchedReads:
    """Runs of consecutive reads are answered in one batched call; output,
    counters, errors and oracle checks stay those of one read at a time."""

    def script_lines(self, rng, verbs, count, dims=(5, 4)):
        lines = []
        for _ in range(count):
            verb = rng.choice(verbs)
            if verb == "update":
                c = [rng.randrange(m) for m in dims]
                lines.append(f"update {c[0]} {c[1]} {rng.randint(-9, 9)}")
            elif verb == "prefix":
                lines.append("prefix " + " ".join(str(rng.randrange(m)) for m in dims))
            else:
                lo = [rng.randrange(m) for m in dims]
                hi = [rng.randint(a, m - 1) for a, m in zip(lo, dims)]
                lines.append(verb + " " + " ".join(f"{a} {b}" for a, b in zip(lo, hi)))
            if rng.random() < 0.2:
                lines.append(rng.choice(["", "# a comment", "   "]))
        return lines

    @pytest.mark.parametrize(
        "struct, verbs",
        [
            ("prefix", ["query", "prefix"]),
            ("prefix", ["query"]),
            ("rmq", ["rmq"]),
            ("fenwick", ["query", "prefix", "update"]),
            ("hybrid:k=2,q=1", ["query", "prefix", "update"]),
        ],
    )
    def test_runs_match_brute_force(self, files, struct, verbs):
        rng = random.Random(77)
        values = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(5)]
        cube = files("cube.txt", "2\n5 4\nint\n" + " ".join(map(str, sum(values, []))) + "\n")
        lines = self.script_lines(rng, verbs, 60)
        script = files("s.txt", "\n".join(lines) + "\n")
        for oracle in (False, True):
            out = run_script(cube, struct, script, oracle=oracle)
            assert [ln for ln in out if not ln.startswith("#")] == brute_answers(values, lines)

    @pytest.mark.parametrize(
        "struct, good, bad, message",
        [
            ("prefix", "query 0 1 0 1", "query 0 9 0 0", "box exceeds extent 2 in dimension 0: hi 9"),
            ("prefix", "prefix 1 1", "prefix 0 9223372036854775808", "box exceeds extent 2 in dimension 1"),
            ("prefix", "query 0 1 0 1", "query 0 x 0 0", "non-integer argument in 'query 0 x 0 0'"),
            ("prefix", "prefix 1 0", "prefix 1", "prefix expects 2 arguments, got 1"),
            ("prefix", "prefix 1 0", "query 1 0 0 0", "empty box in dimension 0: lo 1 > hi 0"),
            ("rmq", "rmq 0 1 0 1", "rmq 9223372036854775808 9223372036854775809 0 0", "box exceeds extent"),
            ("rmq", "rmq 0 1 0 1", "rmq 0 1.5 0 1", "non-integer argument"),
        ],
    )
    def test_first_bad_line_named(self, files, capsys, struct, good, bad, message):
        cube = files("cube.txt", CUBE_2X2)
        # The second bad line would fail on its own too; the first one is reported.
        second_bad = good.split()[0] + " 5 5 5 5 5"
        two_bad = files("s.txt", f"{good}\n{good}\n{bad}\n{good}\n{second_bad}\n")
        one_bad = files("t.txt", f"{good}\n{good}\n{bad}\n")
        code, out, err = run(capsys, ["query", struct, cube, two_bad])
        assert code == 1 and out == ""
        assert err.startswith(f"error: line 3: {message}")
        assert (code, err) == run(capsys, ["query", struct, cube, one_bad])[::2]

    def test_oracle_aborts_at_first_mismatch(self, files, capsys, monkeypatch):
        from rangecube.cube import PrefixCube

        original = PrefixCube.range_aggregate_many

        def off_by_one_from_row_2(self, lo, hi):
            answers = original(self, lo, hi)
            answers[2:] += 1
            return answers

        monkeypatch.setattr(PrefixCube, "range_aggregate_many", off_by_one_from_row_2)
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "prefix 0 0\n# skip\nprefix 1 1\n\nquery 1 1 0 1\nprefix 0 1\n")
        code, out, err = run(capsys, ["query", "prefix", cube, script, "--oracle"])
        assert code == 1
        assert err == "error: oracle mismatch at line 5: 'query 1 1 0 1': got 8 expected 7\n"
        code, out, err = run(capsys, ["query", "prefix", cube, script])
        assert code == 0 and out.splitlines()[:4] == ["1", "10", "8", "4"]

    @pytest.mark.parametrize(
        "struct, read",
        [("prefix", "range_aggregate_many"), ("fenwick", "range_query"), ("hybrid", "range_query")],
    )
    def test_float_sum_oracle_bound(self, files, capsys, monkeypatch, struct, read):
        """A float sum passes the oracle within the structure's tolerance,
        2**(d+2) * cells * eps * mass (about 53.3 for these cells), of the
        scan, and fails outside it."""
        from rangecube import cube as cube_module, dynamic

        cls = {"prefix": cube_module.PrefixCube}.get(struct, dynamic._AxisProductTable)
        original = getattr(cls, read)
        cube = files("cube.txt", "1\n3\nfloat\n1e16 1.0 1.0\n")
        script = files("s.txt", "query 1 2\nquery 0 0\n")
        # The sum (1e308) and product (1e200) over [1, 3] fit; a float fold reads inf.
        product = f"{struct}:op=product"
        for spec, cells in ((struct, "-1e308 1e308 1e308 -1e308"), (product, "1e-200 1e200 1e200 1e-200")):
            far = files("far.txt", f"1\n4\nfloat\n{cells}\n")
            assert run(capsys, ["query", spec, far, files("q.txt", "query 1 3\n"), "--oracle"])[::2] == (0, "")
        for shift, code, err in (
            (0.0, 0, ""),  # the tables answer 0 where the cells sum to 2
            (40.0, 0, ""),
            (60.0, 1, "error: oracle mismatch at line 1: 'query 1 2': got 60.0 expected 2.0\n"),
        ):
            monkeypatch.setattr(cls, read, lambda self, *a, s=shift: original(self, *a) + s)
            assert run(capsys, ["query", struct, cube, script, "--oracle"])[::2] == (code, err)

    def test_float_mismatch_prints_every_digit(self, files, capsys, monkeypatch):
        from rangecube.cube import PrefixCube

        original = PrefixCube.range_aggregate
        monkeypatch.setattr(PrefixCube, "range_aggregate", lambda self, box: original(self, box) + 1e-14)
        cube = files("cube.txt", "1\n3\nfloat\n0.1 0.2 0.3\n")
        script = files("s.txt", "query 1 2\n")
        code, out, err = run(capsys, ["query", "prefix", cube, script, "--oracle"])
        assert code == 1
        assert err == "error: oracle mismatch at line 1: 'query 1 2': got 0.5000000000000101 expected 0.5\n"

    @pytest.mark.parametrize(
        "line, search", [("median 0 3", "range_weighted_median"), ("cube-median 0 3", "cube_range_weighted_median")]
    )
    def test_float_median_oracle_bound(self, files, capsys, monkeypatch, line, search):
        """A float median cost passes the oracle within 64 * cells * eps *
        total weight * peak |scale| (about 2.4e-12 here), and fails outside it."""
        import dataclasses

        import rangecube.cli as cli

        found = getattr(cli, search)

        def pushed(shift):
            def call(*args):
                res = found(*args)
                if isinstance(res, tuple):
                    return res[0], res[1] + shift
                return dataclasses.replace(res, cost=res.cost + shift)

            return call

        cube = files("w.txt", "1\n4\nfloat\n0.5 1.5 0.25 2.0\n")
        scales = files("scales.txt", "0.1 0.7 2.5 10.0\n")
        script = files("s.txt", line + "\n")
        argv = ["query", f"median:scales={scales}", cube, script, "--oracle"]
        for shift, code in ((0.0, 0), (1e-13, 0), (1e-11, 1)):
            monkeypatch.setattr(cli, search, pushed(shift))
            assert run(capsys, argv)[0] == code

    @pytest.mark.parametrize(
        "struct, line, key",
        [("prefix", "query 0 1 1 1", "prefix_lookups_max"), ("rmq", "rmq 0 1 1 1", "rmq_lookups_max")],
    )
    def test_one_batched_call_and_counters(self, files, monkeypatch, struct, line, key):
        from rangecube import cube as cube_module, rmq

        scalar = {
            "prefix": (cube_module.PrefixCube, "range_aggregate"),
            "rmq": (rmq.SparseTable, "query"),
        }
        monkeypatch.setattr(*scalar[struct], None)  # a scalar read would raise TypeError
        cube = files("cube.txt", CUBE_2X2)
        script = files("s.txt", "\n".join([line] * 5) + "\n")
        out = run_script(cube, struct, script)
        assert out[-2] == "# ops queries=5 updates=0"
        assert out[-1] == f"# counters {key}=4"


class TestColumnarRuns:
    """A run of box reads parsed, read and printed as columns writes what the
    one-command path writes: stdout, stderr and exit code alike."""

    CUBES = {"int": CUBE_2X2, "float": "2\n2 2\nfloat\n0.1 -0.0\n2.5e-7 3.0\n"}
    GOOD = {
        "prefix": ["query 0 1 0 1", "prefix 1 0", "query 1 1\t0 1", "prefix 0 0", "query 0 0 1 1"],
        "rmq": ["rmq 0 1 0 1", "rmq 1 1 0 1", "rmq 0 0\t1 1", "rmq 0 1 1 1", "rmq 1 1 1 1"],
    }
    BAD = [
        "{v} 0 9 0 0",  # past the extent
        "{v} 1 0 0 0",  # empty box
        "{v} 0 1 0",  # argument count
        "{v} 0 x 0 0",
        "{v} 0 1 0 1e0",
        "{v} 0 - 0 1",  # numpy reads a lone sign as 0
        "{v} 0 -\t1 0 1",
        "{v} 0 1 0 9223372036854775808",
        "{v} -1 1 0 1",
        "{v} 0 \u0661 0 1",  # int() reads it as 1: a good line the batch declines
        "prefix 1",
        "prefix 0 +",
    ]

    @staticmethod
    def outputs(capsys, monkeypatch, argv):
        import dataclasses

        from rangecube import cli

        columnar = run(capsys, argv)
        with monkeypatch.context() as patch:
            for name, entry in cli._STRUCTURES.items():
                patch.setitem(cli._STRUCTURES, name, dataclasses.replace(entry, batch=None))
            one_at_a_time = run(capsys, argv)
        assert columnar == one_at_a_time
        return columnar

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("struct", ["prefix", "rmq"])
    @pytest.mark.parametrize("bad", BAD)
    def test_bad_line_anywhere_in_a_run(self, files, capsys, monkeypatch, oracle, kind, struct, bad):
        cube = files("cube.txt", self.CUBES[kind])
        good = self.GOOD[struct]
        bad = bad.format(v=good[0].split()[0])
        for at in (0, 2, len(good)):
            lines = good[:at] + [bad] + good[at:]
            script = files("s.txt", "\n".join(lines) + "\n")
            self.outputs(capsys, monkeypatch, ["query", struct, cube, script, *oracle])

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    @pytest.mark.parametrize(
        "struct, text",
        [
            ("prefix", "# head\r\nquery 0 1 0 1\r\n\r\n  prefix 1 1  # tail\r\n\tquery 1 1 0 0\r\nprefix 0 1\r\n"),
            ("prefix:op=xor", "prefix 1 1\nquery 0 1 1 1\nprefix 0 0\n#\nquery 1 1 1 1\n"),
            ("rmq:mode=max", "\n# c\nrmq 0 1 0 1\r\nrmq 1 1 0 0 # x\n\nrmq 0 0 1 1\n"),
            ("fenwick", "query 0 1 0 1\nprefix 1 1\nupdate 0 0 5\nquery 0 0 0 0\nprefix 1 0\nupdate 1 1 -2\nprefix 1 1\n"),
            ("hybrid:k=1,q=1", "prefix 1 1\nupdate 1 0 3\nupdate 0 1 1\nquery 0 1 0 1\nquery 1 1 0 0\n"),
        ],
    )
    def test_comments_crlf_mixed_verbs_and_updates(self, files, capsys, monkeypatch, oracle, struct, text):
        cube = files("cube.txt", CUBE_2X2)
        code, out, err = self.outputs(capsys, monkeypatch, ["query", struct, cube, files("s.txt", text), *oracle])
        assert code == 0 and err == "" and out.count("\n") >= 5


class TestUpdateOverflow:
    #: The delta that takes the cube 1 2 3 4 (Σ|cells| = 10) to Σ|cells| = 2**63 - 1.
    EDGE = (1 << 63) - 11

    @pytest.mark.parametrize("struct", ["fenwick", "hybrid"])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_sum_update_past_safe_bound_rejected(self, files, capsys, struct, oracle):
        cube = files("cube.txt", "1\n4\nint\n1 2 3 4\n")
        lines = [f"update 0 {self.EDGE}", "query 0 3", "update 1 1", "query 0 3"]
        script = files("s.txt", "\n".join(lines) + "\n")
        code, out, err = run(capsys, ["query", struct, cube, script, *oracle])
        assert code == 1 and out == ""
        assert err == (
            f"error: line 3: int sum overflow: the sum of |cells| after the update is {1 << 63}; "
            "exact int sums need it below 2**63\n"
        )

    def test_sum_update_within_bound_accepted(self, files, capsys):
        cube = files("cube.txt", "1\n4\nint\n1 2 3 4\n")
        script = files("s.txt", f"update 0 {self.EDGE}\nquery 0 3\nquery 1 3\n")
        code, out, err = run(capsys, ["query", "fenwick", cube, script, "--oracle"])
        assert code == 0 and out.splitlines()[:2] == [str((1 << 63) - 1), "9"]

    @pytest.mark.parametrize("struct", ["fenwick", "hybrid", "fenwick:op=xor", "hybrid:op=xor"])
    def test_delta_outside_int64_rejected(self, files, capsys, struct):
        cube = files("cube.txt", "1\n4\nint\n1 2 3 4\n")
        script = files("s.txt", "query 0 3\nupdate 0 99999999999999999999\nquery 0 3\n")
        code, out, err = run(capsys, ["query", struct, cube, script])
        assert code == 1
        assert err.startswith("error: line 2: delta 99999999999999999999 does not fit a 64-bit signed integer")


class TestBench:
    def test_deterministic(self):
        a = run_bench(8, 2, None, None, 0.5, 60, 42)
        b = run_bench(8, 2, None, None, 0.5, 60, 42)
        assert a == b

    def test_q_d_update_bound(self):
        rows = run_bench(16, 2, [4], [2], 1.0, 80, 7, csv=True)
        header = rows[0].split(",")
        row = rows[1].split(",")
        assert int(row[header.index("upd_max")]) <= 2**2
        assert int(row[header.index("upd_bound")]) == 4

    def test_measured_within_bounds(self):
        rows = run_bench(16, 2, [4], [1], 0.5, 100, 3, csv=True)
        header = rows[0].split(",")
        row = rows[1].split(",")
        assert int(row[header.index("upd_max")]) <= int(row[header.index("upd_bound")])
        assert int(row[header.index("qry_max")]) <= int(row[header.index("qry_bound")])
        assert int(row[header.index("upd_bound")]) == 2 * (4 + 4)

    def test_parameter_overflow(self, capsys):
        code = main(["bench", "--n", "300", "--d", "4", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "overflow" in captured.err


class TestTopLevelCommands:
    """What the removed ``median`` and ``select`` commands printed, printed by
    ``query`` scripts."""

    def test_median_command(self, files, capsys):
        cube = files("cube.txt", "2\n3 3\nint\n1 1 1 1 1 1 1 1 1\n")
        scales = files("scales.txt", "0 1 2\n0 1 2\n")
        script = files("s.txt", "cube-median 0 2 0 2\n")
        code, out, err = run(capsys, ["query", f"median:scales={scales}", cube, script])
        assert code == 0
        assert out.splitlines()[0] == "1 1 12"

    def test_median_zero_box(self, files, capsys):
        cube = files("cube.txt", "2\n2 2\nint\n0 0 0 1\n")
        scales = files("scales.txt", "0 1\n0 1\n")
        script = files("s.txt", "cube-median 0 0 0 0\n")
        code, out, err = run(capsys, ["query", f"median:scales={scales}", cube, script])
        assert code == 1
        assert err.startswith("error: line 1:") and "positive weight" in err

    def test_select_command(self, files, capsys):
        arrays = files("arr.txt", "1 2\n1 2\n")
        script = files("s.txt", "select 2\nagg-select 3\n")
        code, out, err = run(capsys, ["query", "select:op=sum", arrays, script, "--oracle"])
        assert code == 0 and out.splitlines()[:2] == ["3", "8"]
        script = files("s.txt", "select 4\n")
        code, out, err = run(capsys, ["query", "select:op=max", arrays, script, "--oracle"])
        assert code == 0 and out.splitlines()[0] == "2"

    def test_select_float_is_a_grid_weight(self, files, capsys):
        arrays = files("arr.txt", "0.5 1.5\n0.25 0.75\n")
        script = files("s.txt", "select 4 1\nselect 2 0\n")
        code, out, err = run(capsys, ["query", "select:op=sum", arrays, script, "--oracle"])
        assert code == 0
        assert out.splitlines()[:2] == ["2.25", "1.25"]
        script = files("s.txt", "select 4 1 1e-9\n")
        code, out, err = run(capsys, ["query", "select:op=sum", arrays, script])
        assert code == 1
        assert err == "error: line 1: bad select arguments 'select 4 1 1e-9'\n"

    @pytest.mark.parametrize("argv", [["median", "c", "s", "0", "1"], ["select", "a", "--k", "1"]])
    def test_only_query_and_bench(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_main_calls_share_one_parser(files, capsys):
    """Calls in one process, with different subcommands and flags, print what
    each prints in a process of its own."""
    cube = files("cube.txt", CUBE_2X2)
    script = files("s.txt", "prefix 1 1\nprefix 0 1\n")
    calls = [
        ["query", "prefix:op=sum", cube, script, "--oracle"],
        ["bench", "--n", "4", "--d", "2", "--ops", "20", "--seed", "1", "--csv"],
        ["query", "fenwick", cube, script],
        ["bench", "--n", "4", "--d", "1", "--k", "2", "--q", "1", "--seed", "2"],
    ]
    separate = [
        subprocess.run(
            [sys.executable, "-m", "rangecube", *argv], capture_output=True, text=True
        ).stdout
        for argv in calls
    ]
    together = []
    for argv in calls:
        code, out, err = run(capsys, argv)
        assert code == 0, err
        together.append(out)
    assert together == separate


def test_console_entry_point(tmp_path):
    cube = tmp_path / "cube.txt"
    cube.write_text(CUBE_2X2)
    script = tmp_path / "s.txt"
    script.write_text("prefix 1 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rangecube", "query", "prefix", str(cube), str(script)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10"
