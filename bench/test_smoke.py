"""Smoke test of the benchmark: every workload runs one round of its
operations with all output checks, untraced and traced, and prints
exactly the metrics BENCHMARK.json declares.

    python3 -m pytest bench/test_smoke.py

Takes about a minute; it is not part of the tier-1 suite under tests/.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace):
    # --seconds 0: a single round (a traced run adds one untraced round)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_round(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % 6 == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = result["metrics"]
    assert sorted(printed) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in printed.values())


def test_fails_without_sources():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = os.path.join(BENCH, "runs", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("runs", "traces", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", "generic",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
