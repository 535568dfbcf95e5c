"""A golden corpus of ``rangecube query`` runs: stdout, stderr and exit code.

Each case writes its cube, scales and script files to a temporary directory,
runs ``main(["query", ...])`` in-process and compares the three outputs with
the entry of the same name in ``cli_golden.json``.  Temporary paths in the
output are replaced by ``TMP``.

After an intended change of CLI output, regenerate the file and review its
diff::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from rangecube.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

#: Cube files by name.
CUBES = {
    "int2": "2\n2 3\nint\n1 -2 3\n4 5 -6\n",
    "int1": "1\n5\nint\n3 1 4 1 5\n",
    "int3": "3\n2 2 2\nint\n1 2 3 4 5 6 7 8\n",
    "zero2": "2\n2 2\nint\n0 0 0 0\n",
    "float2": "2\n2 2\nfloat\n1.5 2.0\n-3.25 4.0\n",
    "ones3x3": "2\n3 3\nint\n1 1 1 1 1 1 1 1 1\n",
    "weights1": "1\n4\nint\n1 3 1 2\n",
    # Σ|cells| at 2**63 and just below it
    "big_sum": f"1\n4\nint\n{1 << 62} {-(1 << 62)} 0 0\n",
    "edge_sum": f"1\n4\nint\n{1 << 62} {-(1 << 62) + 1} 0 0\n",
    "int64_min": f"1\n2\nint\n{-(1 << 63)} 0\n",
    "int64_wrap": f"1\n3\nint\n{1 << 62} {1 << 62} {-(1 << 62)}\n",
    "float_sum_overflow": "1\n3\nfloat\n1e308 1e308 1.0\n",
    "float_product_overflow": "1\n3\nfloat\n1e200 1e200 5.0\n",
    "float_product_underflow": "1\n3\nfloat\n1e-200 1e-200 5.0\n",
    "float_product_fold_underflow": "1\n3\nfloat\n1e-100 1e-100 1e-200\n",
    "inf_cell": "1\n2\nfloat\ninf 1.0\n",
    "nan_cell": "1\n4\nfloat\n1.0 nan 0.5 2.0\n",
    "short": "1\n3\nint\n1 2\n",
    "bad_token": "2\n2 2\nint\n1 2\nzap 4\n",
    "arrays": "1 2\n1 2\n",
    "float_arrays": "0.5 1.5\n0.25 2.0\n",
    # float sums whose table answer differs from the scan by rounding
    "float_tenths": "1\n3\nfloat\n0.1 0.2 0.3\n",
    "float_cancel": "1\n3\nfloat\n1e16 1.0 1.0\n",
    "float_fold_overflow": "1\n4\nfloat\n-1e308 1e308 1e308 -1e308\n",
    "float_product_fold_overflow": "1\n4\nfloat\n1e-200 1e200 1e200 1e-200\n",
    "float_max_tiny": "1\n2\nfloat\n1.7976931348623157e+308 5e-324\n",
    "float_weights1": "1\n4\nfloat\n0.5 1.5 0.25 2.0\n",
    "float_weights2": "2\n3 3\nfloat\n0.3 1.7 0.2\n2.5 0.1 0.9\n1.1 0.6 3.3\n",
    "zero_box": "2\n2 2\nint\n0 0 0 1\n",
}

#: Scale files by name.
SCALES = {
    "grid3": "0 1 2\n0 1 2\n",
    "line4": "1 2 3 10\n",
    "nan_scale": "0 nan 2\n0 1 2\n",
    "float_line4": "0.1 0.7 2.5 10.0\n",
    "float_grid3": "0.1 0.7 2.5\n-1.5 0.25 4.0\n",
    "grid2": "0 1\n0 1\n",
}

#: (case name, structure spec, cube, script, --oracle).  ``{name}`` in a
#: spec is the path of scale file ``name``.
CASES = [
    ("prefix-sum-int", "prefix", "int2", "prefix 1 2\nquery 0 1 1 2\nquery 1 1 0 0\n", True),
    ("prefix-sum-int-plain", "prefix:op=sum", "int3", "prefix 1 1 1\nquery 1 1 0 1 0 1\n", False),
    ("prefix-xor-int", "prefix:op=xor", "int2", "query 0 1 0 2\nprefix 0 1\n", True),
    ("prefix-sum-float", "prefix", "float2", "query 0 1 0 1\nprefix 1 0\n", True),
    ("prefix-product-float", "prefix:op=product", "float2", "query 0 1 0 1\nquery 1 1 0 1\n", True),
    ("prefix-product-int", "prefix:op=product", "int2", "prefix 1 1\n", False),
    ("prefix-xor-float", "prefix:op=xor", "float2", "prefix 1 1\n", False),
    ("fenwick-updates-int", "fenwick", "zero2", "update 0 0 5\nupdate 1 1 -2\nprefix 1 1\nquery 1 1 0 1\n", True),
    ("fenwick-xor", "fenwick:op=xor", "int2", "update 1 2 9\nquery 0 1 0 2\n", True),
    ("fenwick-float", "fenwick", "float2", "update 0 1 0.25\nquery 0 1 0 1\n", False),
    ("fenwick-product-float", "fenwick:op=product", "float2", "update 1 0 2.0\nquery 0 1 0 0\n", True),
    ("hybrid-int", "hybrid:k=2,q=1", "int2", "update 1 2 4\nprefix 1 2\nquery 0 0 1 2\n", True),
    ("hybrid-default-3d", "hybrid", "int3", "prefix 1 1 1\nupdate 0 1 0 3\nquery 0 1 1 1 0 0\n", False),
    ("rmq-min-int", "rmq", "int1", "rmq 1 3\nrmq 0 4\nrmq 2 2\n", True),
    ("rmq-max-int", "rmq:mode=max", "int1", "rmq 1 3\nrmq 0 4\n", True),
    ("rmq-min-float", "rmq", "float2", "rmq 0 1 0 1\nrmq 1 1 0 1\n", True),
    ("median-cube", "median:scales={grid3}", "ones3x3", "cube-median 0 2 0 2\ncube-median 0 1 1 2\n", True),
    ("median-line", "median:scales={line4}", "weights1", "median 0 2\nmedian 0 3\ncube-median 1 3\n", True),
    ("kmedian", "kmedian:scales={line4}", "weights1", "kmedian 1 4\nkmedian 2 0\n", True),
    ("select-sum", "select", "arrays", "select 2\nselect 2 1\nagg-select 3\nagg-select 4 1\n", True),
    ("select-max", "select:op=max", "arrays", "select 3\nagg-select 2\n", True),
    ("select-product-float", "select:op=product", "float_arrays", "select 1\nagg-select 2 0\n", False),
    ("select-product-float-oracle", "select:op=product", "float_arrays", "select 1\nselect 3\nagg-select 2 0\n", True),
    # numeric-domain repros
    ("overflow-load-bound", "prefix:op=sum", "big_sum", "prefix 3\n", False),
    ("sum-load-edge", "prefix:op=sum", "edge_sum", "prefix 0\nprefix 3\nquery 1 3\n", True),
    ("overflow-int64-min", "prefix:op=sum", "int64_min", "prefix 1\n", False),
    ("overflow-int64-wrap-fenwick", "fenwick", "int64_wrap", "query 0 1\n", False),
    # 3 1 4 1 5 updated to Σ|cells| = 2**63 - 1, then to 2**63
    ("overflow-update-sum", "fenwick", "int1", "update 0 9223372036854775793\nquery 0 4\nupdate 1 1\nquery 0 4\n", False),
    ("overflow-update-hybrid", "hybrid", "int1", "query 0 4\nupdate 0 99999999999999999999\n", True),
    ("overflow-update-xor", "fenwick:op=xor", "int1", "query 0 4\nupdate 0 99999999999999999999\n", False),
    ("float-sum-overflow", "prefix", "float_sum_overflow", "query 0 0\nquery 2 2\n", False),
    ("float-product-overflow", "prefix:op=product", "float_product_overflow", "query 0 0\nquery 2 2\n", False),
    ("float-product-underflow", "fenwick:op=product", "float_product_underflow", "query 0 0\nquery 2 2\n", False),
    ("float-product-fold-underflow", "fenwick:op=product", "float_product_fold_underflow", "query 0 1\nquery 2 2\n", False),
    ("inf-cell-sum", "prefix", "inf_cell", "query 1 1\n", False),
    ("nan-cell-rmq", "rmq", "nan_cell", "rmq 0 3\n", True),
    ("nan-scale-median", "median:scales={nan_scale}", "ones3x3", "cube-median 0 2 0 2\n", False),
    ("inf-update-float", "fenwick", "float2", "update 0 0 inf\nquery 0 1 0 1\n", False),
    # float answers within the oracle's rounding bound
    ("prefix-sum-float-tenths", "prefix", "float_tenths", "query 1 2\nquery 0 2\nprefix 1\n", True),
    ("fenwick-sum-float-tenths", "fenwick", "float_tenths", "query 1 2\nupdate 0 0.1\nquery 0 2\n", True),
    ("prefix-sum-float-cancel", "prefix", "float_cancel", "query 1 2\nquery 0 2\n", True),
    ("fenwick-sum-float-cancel", "fenwick", "float_cancel", "query 1 2\nupdate 2 0.5\nquery 1 2\n", True),
    ("prefix-sum-float-fold-overflow", "prefix", "float_fold_overflow", "query 1 3\nquery 0 3\n", True),
    ("prefix-product-float-fold-overflow", "prefix:op=product", "float_product_fold_overflow", "query 1 3\nquery 0 3\n", True),
    # the exact sum lies past the largest float but rounds to it, as every structure does
    ("prefix-sum-float-max", "prefix", "float_max_tiny", "query 0 1\nquery 1 1\n", True),
    ("fenwick-sum-float-max", "fenwick", "float_max_tiny", "query 0 1\nupdate 1 5e-324\nquery 0 1\n", True),
    ("hybrid-sum-float-max", "hybrid", "float_max_tiny", "query 0 1\nquery 1 1\n", True),
    ("median-line-float", "median:scales={float_line4}", "float_weights1", "median 0 3\nmedian 1 2\ncube-median 0 3\n", True),
    ("median-cube-float", "median:scales={float_grid3}", "float_weights2", "cube-median 0 2 0 2\ncube-median 1 2 0 1\n", True),
    ("select-sum-float", "select", "float_arrays", "select 4 1\nselect 2 0\nagg-select 3 1\n", True),
    # bad lines and bad input
    ("bad-unknown-verb", "prefix", "int2", "prefix 1 1\nfrobnicate 1\n", False),
    ("bad-unsupported-verb", "rmq", "int2", "update 0 0 5\n", False),
    ("bad-out-of-bounds", "prefix", "int2", "prefix 1 1\nprefix 9 9\n", True),
    ("bad-non-integer", "rmq", "int2", "rmq 0 1 0 1\nrmq 0 1.5 0 1\n", False),
    ("bad-arg-count", "fenwick", "int2", "prefix 1 1\nupdate 0 1\n", False),
    ("bad-update-args", "hybrid", "int2", "update 0 x 1\n", False),
    ("bad-empty-box", "prefix", "int2", "query 1 0 0 0\n", False),
    ("bad-structure", "btree", "int2", "prefix 1 1\n", False),
    ("bad-option", "rmq:mode=median", "int2", "rmq 0 0 0 0\n", False),
    ("bad-cube-short", "prefix", "short", "prefix 0\n", False),
    ("bad-cube-token", "rmq", "bad_token", "rmq 0 0 0 0\n", False),
    ("bad-median-zero-box", "median:scales={grid2}", "zero_box", "cube-median 0 0 0 0\n", False),
]


def run_case(case, directory: pathlib.Path) -> dict:
    """Run one case in ``directory`` and return its code, stdout and stderr."""
    _, spec, cube, script, oracle = case
    paths = {}
    for name, text in (("cube", CUBES[cube]), ("script", script)):
        paths[name] = directory / f"{name}.txt"
        paths[name].write_text(text)
    for name, text in SCALES.items():
        (directory / f"{name}.txt").write_text(text)
    spec = spec.format(**{name: directory / f"{name}.txt" for name in SCALES})
    argv = ["query", spec, str(paths["cube"]), str(paths["script"])] + (["--oracle"] if oracle else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    tmp = str(directory)
    return {
        "code": code,
        "stdout": out.getvalue().replace(tmp, "TMP"),
        "stderr": err.getvalue().replace(tmp, "TMP"),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert sorted(golden) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("case", CASES, ids=[name for name, *_ in CASES])
def test_output_matches_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case[0]]


def write_golden() -> None:
    results = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            results[case[0]] = run_case(case, pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
