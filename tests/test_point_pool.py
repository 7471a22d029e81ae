"""A trial's evaluation points give the same rows whether they run on the
thread pool or one after another.

``run_trial`` runs its points concurrently only when every loaded BLAS
reports one thread (``mixplan._lapack.blas_threads``). The bit-identity
cases force the pool on and off by patching the thread-count reader, on
small d=300 stand-in trials and a d=20 synthetic one, and compare
``metrics.csv`` bytes. Each runs in a fresh interpreter with
``OPENBLAS_NUM_THREADS`` set, because a process only sees the count its
BLAS loaded with.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixplan
from mixplan import DataError, RunConfig, _lapack, harness

HERE = Path(__file__).resolve().parent

SCRIPT = """
import json, sys, threading
from pathlib import Path
import mixplan
from mixplan import _lapack, harness

out = Path(sys.argv[1])
data = out / "standin.txt"
mixplan.generate_standin_file(data, n_queries=60, seed=5, raw_dim=320)
result = {"blas_threads": _lapack.blas_threads()}
standin = dict(environment="rank_dataset", data_path=str(data), rank_raw_dim=320,
               rank_subsampled_dim=300, N=40)
trials = {
    "standin-planner_sampler": dict(standin, algorithm="planner_sampler"),
    "standin-supervised_oracle": dict(standin, algorithm="supervised_oracle"),
    "synthetic-planner_sampler": dict(environment="synthetic", algorithm="planner_sampler",
                                      N=200, eval_set_size=500),
}
evaluate = harness.evaluate
for name, fields in trials.items():
    for pool, threads in (("on", 1), ("off", 2)):
        _lapack.blas_threads = lambda threads=threads: threads
        point_threads = set()

        def traced(*args):
            point_threads.add(threading.get_ident())
            return evaluate(*args)

        harness.evaluate = traced
        config = mixplan.RunConfig(**fields, eval_every=fields["N"] // 4, seed=5,
                                   output_path=str(out / f"{name}-{pool}"))
        run = mixplan.run_experiment(config)
        result[f"{name}-{pool}"] = {
            "metrics": run.metrics_path.read_text(),
            "points": len(run.rows),
            "off_main_thread": threading.get_ident() not in point_threads,
        }
print(json.dumps(result))
"""


def _run_script(tmp_path: Path, threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pool_and_serial_points_write_identical_metrics(tmp_path, threads):
    result = _run_script(tmp_path, threads)
    assert result["blas_threads"] == int(threads)
    for name in ("standin-planner_sampler", "standin-supervised_oracle",
                 "synthetic-planner_sampler"):
        on, off = result[f"{name}-on"], result[f"{name}-off"]
        assert on["points"] == off["points"] == 4
        assert on["metrics"] == off["metrics"], name
        assert not off["off_main_thread"]
        if len(os.sched_getaffinity(0)) > 1:
            assert on["off_main_thread"], "the forced-on run did not use the pool"


def _standin_config(tmp_path, **fields) -> RunConfig:
    data = tmp_path / "standin.txt"
    mixplan.generate_standin_file(data, n_queries=60, seed=5, raw_dim=320)
    return RunConfig(environment="rank_dataset", data_path=str(data), rank_raw_dim=320,
                     rank_subsampled_dim=300, seed=5, **fields)


def test_points_run_concurrently_only_at_one_blas_thread(monkeypatch):
    config = RunConfig(environment="synthetic", algorithm="planner_sampler", N=40, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for threads, expected in ((1, 4), (2, 1), (None, 1)):
        monkeypatch.setattr(_lapack, "blas_threads", lambda threads=threads: threads)
        assert harness._point_threads(config) == expected
    monkeypatch.setattr(_lapack, "blas_threads", lambda: 1)
    for n_trials, workers, expected in ((3, 3, 1), (2, 2, 2), (1, 3, 4)):
        at_once = RunConfig(**{**config.to_dict(), "n_trials": n_trials, "workers": workers})
        assert harness._point_threads(at_once) == expected


def test_more_point_threads_than_cores_switching_often_give_the_serial_rows(monkeypatch):
    """Points share the dataset and the evaluation set: eight threads that
    switch every microsecond must still give the rows of a serial run."""
    config = RunConfig(environment="synthetic", algorithm="planner_sampler", N=160,
                       eval_every=10, eval_set_size=300, seed=2)
    monkeypatch.setattr(harness, "_point_threads", lambda config: 1)
    serial = harness.run_trial(config, 0)
    monkeypatch.setattr(harness, "_point_threads", lambda config: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = harness.run_trial(config, 0)
    finally:
        sys.setswitchinterval(interval)
    untimed = [[dataclasses.replace(row, wall_time_ms=0.0) for row in rows]
               for rows in (serial, pooled)]
    assert len(serial) == 16 and untimed[0] == untimed[1]


def test_data_error_inside_a_point_comes_out_as_raised_and_leaves_no_output(tmp_path, monkeypatch):
    config = _standin_config(tmp_path, algorithm="supervised_oracle", N=40, eval_every=10,
                             output_path=str(tmp_path / "out"))
    monkeypatch.setattr(harness, "_point_threads", lambda config: 2)
    fits = []

    def failing(estimate, instance, eval_set):
        fits.append(estimate.n_samples)
        raise DataError(f"refused a fit of {estimate.n_samples} rows")

    monkeypatch.setattr(harness, "evaluate", failing)
    with pytest.raises(DataError) as caught:
        mixplan.run_experiment(config)
    # The first point's error, as it was raised: the pool yields in point order.
    assert type(caught.value) is DataError
    assert str(caught.value) == f"refused a fit of {min(fits)} rows"
    assert not (tmp_path / "out").exists()
