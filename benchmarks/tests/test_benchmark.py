"""Tests of the benchmark itself (not part of the library's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q benchmarks/tests
"""

import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from rangecube import PrefixCube  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.spec()


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = WORKLOADS[name](3, workdir=str(tmp_path)).digest
    again = WORKLOADS[name](3, workdir=str(tmp_path)).digest
    other = WORKLOADS[name](4, workdir=str(tmp_path)).digest
    assert first == again != other


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct_and_names_every_metric(name, trace, tmp_path):
    result, record = run.run_workload(name, 5, 0.2, trace, tiny=True, workdir=str(tmp_path))
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_counts_wrong_answers(tmp_path, monkeypatch):
    original = PrefixCube.range_aggregate
    monkeypatch.setattr(PrefixCube, "range_aggregate", lambda self, box: original(self, box) + 1)
    result, record = run.run_workload("static-read", 5, 0.2, False, tiny=True,
                                      workdir=str(tmp_path))
    assert not result["correct"] and result["failed"] > 0
    assert record["error_rate"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "static-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_traced_cli_counts_per_script_set(tmp_path):
    result, _ = run.run_workload("cli-script", 5, 0.2, True, tiny=True, workdir=str(tmp_path))
    # Two loads of the 16x16 cube file and one of the 5x5x5 file per set.
    assert result["metrics"]["formats.values_parsed"]["value"] == 2 * 16 * 16 + 5**3
