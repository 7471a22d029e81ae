"""Time a fixed piece of work, to measure how fast the machine runs now.

run.py starts this in its own process right before each workload child and
scales the child's times by the result, to cancel the machine's own changes
of speed. It imports numpy only, so no change to mixplan can change it.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/calibrate.py   # prints seconds
"""

from __future__ import annotations

import base64
import time

import numpy as np


def calibrate() -> float:
    """Seconds the work takes. It mixes what mixplan spends its time on: an
    interpreter loop, many small numpy calls, d=300 Cholesky factorizations,
    and a base64 round trip of 8 MB as in the policy artifact, about a
    quarter each."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((8, 8))
    small = small @ small.T + np.eye(8)
    vec = small[0].copy()
    big = rng.standard_normal((300, 300))
    big = big @ big.T + 300.0 * np.eye(300)
    blob = rng.standard_normal(1_000_000).tobytes()
    np.linalg.solve(small, vec)
    np.linalg.cholesky(big)
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    for _ in range(12_000):
        np.linalg.solve(small, vec)
    for _ in range(60):
        np.linalg.cholesky(big)
    base64.b64decode(base64.b64encode(blob))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(calibrate()))
