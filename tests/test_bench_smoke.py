"""The benchmark's own checks, run briefly: each workload of ``bench/run.py``
must read back what ``src/`` gives it.  Nothing here is about timing."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    ("train", "0"), ("evaluate", "0"), ("search", "0"),
    # the tracer reads the archive on every traced ``rank``
    ("search", "1"),
])
def test_workload_runs_correct(tmp_path, workload, trace):
    # bench/run.py writes .bench_work/ and .bench_out/ beside bench/, so it
    # runs from a copy
    ignore = shutil.ignore_patterns("__pycache__", ".bench_*")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert (report["correct"], report["failed"]) == (True, 0), report
