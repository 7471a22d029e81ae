"""The benchmark's traced run can wrap, and then unwrap, the program.

``perfbench/tracing.py`` patches mixplan functions, methods and factory
results by name (``cls.__dict__[attr]``), so deleting or renaming a wrapped
name breaks the traced benchmark. This test installs the tracer, plans a
tiny policy under it, and restores everything.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import mixplan
from mixplan import ExperimentConfig, make_hard_uniform, plan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _surface():
    """Every attribute of every mixplan module and of the classes they define."""
    surface = {}
    for name, module in sorted(sys.modules.items()):
        if name == "mixplan" or name.startswith("mixplan."):
            for attr, value in vars(module).items():
                surface[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, member in vars(value).items():
                        surface[(name, attr, key)] = member
    return surface


def test_tracer_installs_records_and_restores():
    tracing = _load_tracing()
    cholesky = np.linalg.cholesky
    before = _surface()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert np.linalg.cholesky is not cholesky
        assert mixplan.planner.plan is not before[("mixplan.planner", "plan")]
        context = make_hard_uniform(3).context_sampler(np.random.default_rng(0))
        contexts = [context] * 4
        mixplan.planner.plan(contexts, ExperimentConfig(M=4, N=4))
    finally:
        tracer.restore()
    assert np.linalg.cholesky is cholesky
    after = _surface()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert {"planner.plan", "covariance.factor", "covariance.snapshot"} <= set(tracer.names)
    # Spans recorded after restore would mean a wrapper is still in place.
    spans = len(tracer.start)
    plan(contexts, ExperimentConfig(M=4, N=4))
    np.linalg.cholesky(np.eye(2))
    assert len(tracer.start) == spans
