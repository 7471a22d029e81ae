"""The benchmark's smoke run passes on the current code.

``perfbench/run.py --smoke`` runs every workload once at tiny sizes, untraced
and traced, and checks each child's outputs against ``reference.json``. It
fails when a name the tracer wraps is gone or an output drifts from the
stored reference, so running it here puts both checks in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "SMOKE PASS" in proc.stdout
