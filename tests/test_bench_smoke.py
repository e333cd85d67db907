"""The benchmark's smoke run, perfbench/smoke.py, passes.

It runs every workload at tiny sizes and checks their outputs, so a change
that breaks a workload's output checks fails here, not only in a benchmark
run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
