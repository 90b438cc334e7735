"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

Each traced run takes one pass of its workload, 15 to 60 seconds; two runs
per workload make the whole file take about four minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("calls", "terms", "order", "mulsub", "evals", "bytes", "ops")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counters_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counters = [
        {name: m["value"] for name, m in result["metrics"].items() if name.rsplit(".", 1)[1] in EXACT}
        for result in runs
    ]
    assert counters[0] == counters[1]
    assert counters[0]["trace.ops"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "one-shot", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
