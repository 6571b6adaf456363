"""Importing the package must not pull in scipy, and its export list must hold.

Importing scipy costs 0.24-0.35 s and about 33 MiB per process on a 2-vCPU
VM, past the benchmark's ``setup_s`` and ``peak_rss_mib`` bounds; scipy is
used only by the test and benchmark oracles.
"""

import os
import subprocess
import sys
from pathlib import Path

import supergraph

ROOT = Path(__file__).resolve().parent.parent


def test_import_supergraph_loads_no_scipy():
    code = ("import sys, supergraph; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_names_resolve_once():
    names = supergraph.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(supergraph, n)] == []
