"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q benchmark/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(trace, kind):
    done = _run("--workload", "all", "--smoke", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in SPEC["workloads"]
        for metric in SPEC[kind]
    }
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    # The table above the result line names every metric with its unit too.
    table = done.stdout
    for name, unit in expected.items():
        workload, metric = name.split(".", 1)
        assert any(line.split()[:2] == [workload, metric] and line.split()[-1] == unit for line in table.splitlines())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / BENCH.name).mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in BENCH.glob("*.py"):
            shutil.copy(source, bare / BENCH.name)
        done = _run("--workload", "holdout", "--smoke", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
