"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs from the root of a source checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

# counters that depend only on the inputs, never on timing
DETERMINISTIC = (".calls", ".sites", ".raised", ".calls_per_job",
                 ".windows_per_reference")


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _traced(workload, seed, hashseed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


@pytest.mark.parametrize("workload",
                         ["band-structure", "fsm-large", "fsm-corpus"])
def test_counters_repeat_exactly(workload):
    # two processes with different string hashing, same seed
    first = _traced(workload, 7, 1)
    second = _traced(workload, 7, 2)
    assert first["correct"] and second["correct"]
    counters = sorted(k for k in first["metrics"] if k.endswith(DETERMINISTIC))
    assert counters
    assert {k: first["metrics"][k]["value"] for k in counters} == \
        {k: second["metrics"][k]["value"] for k in counters}


def test_bare_directory_fails(tmp_path):
    # only BENCHMARK.json and the benchmark's files: no program to run
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fsm-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
