"""The concentration lab and the planner pinned byte for byte.

``verify_lemmas`` at a small fixed scale must write the same JSON report,
and ``plan`` on the knife-edge fixtures (basis-vector instances, where one
update can multiply the determinant by exactly 2) must take the same
snapshots, actions, values, factors and log-determinants. The digests
were recorded before the planner learned to skip the exact doubling test
while the log-determinant growth bound stays below log 2; the long-phase
fixtures (``hard_uniform_long``, ``random_d20``) were recorded while it
still chose and applied one context at a time. Each check runs
in a fresh interpreter at one and at two BLAS threads, because the thread
count is fixed when numpy loads.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixplan import (
    ExperimentConfig,
    make_hard_goptimal,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    plan,
    verify_lemmas,
)

LEMMAS_DIGEST = "00670ae0d61a96cf6261dc890a8adb40305b83a38d700866fcc2c678df870403"

PLAN_DIGESTS = {
    "hard_uniform": "418527e153952a7d1e5a5904ac243264ed295be8e0ea93d39e36eeea7cfbe87b",
    "hard_uniform_alpha_half": "cb805322a9f9187971ca93c66ac38a2dca696186e29c7019dfbcdb44b6d83cd3",
    "hard_uniform_lambda_small": "6faf0983721c1c6ae3ba08289bd514cad8757442f5f637631c3e7702f1ac52bb",
    "hard_goptimal": "5865014e3b46ca088e8e2c8b537a72e04291e8cfd7d74129fcba29c7f715a5a0",
    "nonconcentrating": "bc22a485ce1672a5ce70a538d9017e028f4f6a8076b3ffdf02b59153a6d5e92a",
    "random_d8": "1730f7c78c5fbd8dd5255fb79740f87efabf53729486a952d773e3bb2b974a0b",
    "random_d8_weak": "73971e280a75cbb4d02c3f25b790f9fa8914cbf5789ece748686e29ff27a29f6",
    "hard_uniform_long": "9f8627414602bfea1aba32dcd3abded0d221073318f00354b8ba13e047fff051",
    "random_d20": "951eb6d4d6bb6eb1c958474ee6434766497e75859465a0f500590ec3240003b7",
}

_FIXTURES = {
    # name: (instance factory, M, lambda_reg, alpha)
    "hard_uniform": (lambda: make_hard_uniform(6), 400, 1.0, 1.0),
    "hard_uniform_alpha_half": (lambda: make_hard_uniform(6), 400, 1.0, 0.5),
    "hard_uniform_lambda_small": (lambda: make_hard_uniform(6), 400, 0.25, 1.0),
    "hard_goptimal": (lambda: make_hard_goptimal(3), 400, 1.0, 1.0),
    "nonconcentrating": (lambda: make_hard_nonconcentrating(d=6, M=400), 400, 0.05, 1.0),
    "random_d8": (lambda: make_random_unit_instance(8, 5, seed=3), 400, 1.0, 1.0),
    "random_d8_weak": (lambda: make_random_unit_instance(8, 5, seed=4), 400, 0.5, 0.3),
    # The lab's sandwich regime: a few phases thousands of steps long.
    "hard_uniform_long": (lambda: make_hard_uniform(10), 3000, 24.0 * math.log(80.0), 50.0 / 3000),
    "random_d20": (lambda: make_random_unit_instance(20, 10, seed=5), 2000, 1.0, 1.0),
}


def lemmas_digest() -> str:
    report = verify_lemmas(seed=1, coverage_trials=200, sandwich_trials=2, planner_runs=4)
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def plan_digest(name: str) -> str:
    factory, M, lam, alpha = _FIXTURES[name]
    instance = factory()
    rng = np.random.default_rng(7)
    contexts = [instance.context_sampler(rng) for _ in range(M)]
    policy, trace = plan(contexts, ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=alpha))
    h = hashlib.sha256()
    h.update(np.asarray(policy.phase_starts, dtype="<i8").tobytes())
    h.update(np.asarray(trace.actions, dtype="<i8").tobytes())
    h.update(np.asarray(trace.values, dtype="<f8").tobytes())
    for snap in policy.snapshots:
        h.update(np.asarray(snap.factor, dtype="<f8").tobytes())
        h.update(np.asarray(snap.log_det, dtype="<f8").tobytes())
    return h.hexdigest()


def all_digests() -> dict:
    return {"lemmas": lemmas_digest(),
            "plan": {name: plan_digest(name) for name in _FIXTURES}}


@pytest.fixture(scope="module", params=["1", "2"])
def digests(request):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=request.param,
               OMP_NUM_THREADS=request.param, MKL_NUM_THREADS=request.param)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = "import json, test_golden_lemmas as g; print(json.dumps(g.all_digests()))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_verify_lemmas_report_matches_recorded_digest(digests):
    assert digests["lemmas"] == LEMMAS_DIGEST


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_plan_matches_recorded_digest(digests, name):
    assert digests["plan"][name] == PLAN_DIGESTS[name]
