"""The benchmark's own tests: every workload at ``--size tiny``.

Run with ``python3 -m pytest sibench``.  Each run goes through the same
code and checks as a full-size run, in a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-wh", "batch-rh", "service-stream")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(workload, trace, *, seed=3, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "sibench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_declared_metric(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs(workload):
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    # The only count that depends on timing: how often the producer
    # found the daemon's queue full.
    counts.discard("service.credit_waits")
    first, second = (_result(_run(workload, 1))["metrics"]
                     for _ in range(2))
    assert ({n: first[n]["value"] for n in counts}
            == {n: second[n]["value"] for n in counts})


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "sibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("batch-wh", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
