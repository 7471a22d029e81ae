"""``tests/test_golden_metrics.py`` and ``tests/test_batch_equivalence.py``
pass at one and at two BLAS threads.

Their digests and bit-for-bit checks must hold at both counts, but an
in-process run only sees the count numpy loaded with. Each case runs one
file under pytest in a fresh interpreter with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _passes_at_blas_threads(test_file: str, threads: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / test_file)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 0, output
    assert " passed" in output and " failed" not in output, output


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_metrics_pass_at_blas_threads(threads):
    _passes_at_blas_threads("test_golden_metrics.py", threads)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_batch_equivalence_passes_at_blas_threads(threads):
    _passes_at_blas_threads("test_batch_equivalence.py", threads)
