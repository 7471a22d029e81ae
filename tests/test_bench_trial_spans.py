"""A harness trial fits and evaluates through the names the traced benchmark
wraps.

``perfbench/tracing.py`` reads ``estimator.ridge_fit`` and
``estimator.evaluate`` spans, so a trial that fits or evaluates through
another name shows those layers as 0. This test runs a tiny synthetic trial
and tiny stand-in trials of the planner and of the supervised oracle under
the tracer, and checks that each evaluation point records one span of each.
"""

import numpy as np
import pytest

import mixplan
from mixplan import RunConfig

from test_bench_surface import _load_tracing

TRIALS = {
    "synthetic-planner_sampler": dict(environment="synthetic", algorithm="planner_sampler",
                                      N=50, eval_every=20, eval_set_size=30),
    "standin-planner_sampler": dict(environment="rank_dataset", algorithm="planner_sampler",
                                    N=20, eval_every=8),
    "standin-supervised_oracle": dict(environment="rank_dataset", algorithm="supervised_oracle",
                                      N=20, eval_every=8),
}


@pytest.mark.parametrize("name", list(TRIALS))
def test_trial_records_one_fit_and_one_evaluation_per_point(tmp_path, name):
    fields = dict(TRIALS[name], seed=3)
    if fields["environment"] == "rank_dataset":
        fields.update(data_path=str(tmp_path / "standin.txt"), rank_raw_dim=30,
                      rank_subsampled_dim=10)
        mixplan.generate_standin_file(fields["data_path"], n_queries=40, seed=3, raw_dim=30)
    config = RunConfig(**fields)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rows = mixplan.harness.run_trial(config, 0)
    finally:
        tracer.restore()
    spans = np.bincount(tracer.name_of, minlength=len(tracer.names))
    assert len(rows) > 1
    for span in ("estimator.ridge_fit", "estimator.evaluate"):
        assert spans[tracer.names.index(span)] == len(rows), span
