"""Smoke run of the benchmark in ``perfbench/`` at tiny sizes (about 20 s).

The benchmark imports package names of its own, among them
``kernels.sample_edges`` and the two stubs that ``kernels`` keeps for it,
and checks every workload's output against independent oracles. Running it
here keeps a refactor of the package from breaking it unnoticed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: all workloads passed" in proc.stdout
