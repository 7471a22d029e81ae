import argparse
import concurrent.futures
import dataclasses
import json
import logging
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mixplan import (
    ConfigurationError,
    EvaluationReport,
    MixturePolicy,
    RunConfig,
    dataset_from_csv,
    dataset_to_npz,
    emit_action_histogram,
    evaluate,
    make_hard_uniform,
    make_synthetic,
    ridge_fit,
    run_experiment,
    sample,
)
from mixplan.baselines import RandomPolicy
from mixplan import cli
from mixplan.cli import main as cli_main
from mixplan.core import _RANGES
from mixplan import estimator as estimator_module
from mixplan import harness
from mixplan.artifact import write_artifact
from mixplan.environments import generate_standin_file
from mixplan.harness import _eval_points, _prepare_trial_env, _trial_seeds, run_trial


def _tiny_config(tmp_path, **overrides):
    payload = dict(
        environment="synthetic",
        algorithm="planner_sampler",
        N=60,
        eval_every=30,
        eval_set_size=40,
        n_trials=2,
        seed=7,
        output_path=str(tmp_path / "out"),
    )
    payload.update(overrides)
    return RunConfig(**payload)


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        RunConfig(environment="nope", algorithm="random", N=10)
    with pytest.raises(ConfigurationError):
        RunConfig(environment="synthetic", algorithm="nope", N=10)
    with pytest.raises(ConfigurationError):
        RunConfig(environment="rank_dataset", algorithm="random", N=10)
    # Each of these once built: a field is checked whether or not the run reads it.
    for fields in ({"seed": -1}, {"alpha": 1.5}, {"lambda_reg": float("nan")}):
        with pytest.raises(ConfigurationError, match=f"{next(iter(fields))} must"):
            RunConfig(environment="synthetic", algorithm="random", N=10, **fields)
    config = RunConfig(environment="synthetic", algorithm="random", N=10)
    assert config.M == 10
    round_trip = RunConfig.from_dict(config.to_dict())
    assert round_trip == config
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"environment": "synthetic", "algorithm": "random",
                             "N": 5, "bogus": 1})


def test_eval_points_include_horizon():
    assert _eval_points(100, 20) == [20, 40, 60, 80, 100]
    assert _eval_points(55, 20) == [20, 40, 55]
    assert _eval_points(7, 20) == [7]


def test_run_experiment_schema_and_summary(tmp_path):
    config = _tiny_config(tmp_path)
    result = run_experiment(config)
    # 2 trials x 2 eval points
    assert len(result.rows) == 4
    assert [r.n_samples_seen for r in result.rows] == [30, 60, 30, 60]
    csv_lines = result.metrics_path.read_text().strip().splitlines()
    assert csv_lines[0] == (
        "trial,n_samples_seen,policy_value,expected_suboptimality,expected_max_uncertainty"
    )
    assert len(csv_lines) == 5

    summary = json.loads((result.output_dir / "summary.json").read_text())
    final = summary["final"]
    values = [r.policy_value for r in result.rows if r.n_samples_seen == 60]
    assert final["policy_value_mean"] == pytest.approx(np.mean(values))
    expected_stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    assert final["policy_value_stderr"] == pytest.approx(expected_stderr)
    assert (result.output_dir / "resolved_config.json").exists()
    assert (result.output_dir / "timings.csv").exists()


def test_run_experiment_is_bit_reproducible(tmp_path):
    first = run_experiment(_tiny_config(tmp_path, output_path=str(tmp_path / "a")))
    second = run_experiment(_tiny_config(tmp_path, output_path=str(tmp_path / "b")))
    assert first.metrics_path.read_bytes() == second.metrics_path.read_bytes()


def test_trials_differ_but_algorithms_share_streams(tmp_path):
    config = _tiny_config(tmp_path, algorithm="random")
    env_random = _prepare_trial_env(config, _trial_seeds(config, 0))
    planner_config = _tiny_config(tmp_path)
    env_planner = _prepare_trial_env(planner_config, _trial_seeds(planner_config, 0))
    ids_random = [c.context_id for c in env_random.offline_contexts]
    ids_planner = [c.context_id for c in env_planner.offline_contexts]
    assert ids_random == ids_planner
    other_trial = _prepare_trial_env(config, _trial_seeds(config, 1))
    assert ids_random != [c.context_id for c in other_trial.offline_contexts]


def test_supervised_oracle_rows(tmp_path):
    config = _tiny_config(tmp_path, algorithm="supervised_oracle", n_trials=1)
    rows = run_trial(config, 0)
    assert len(rows) == 2
    assert rows[-1].n_samples_seen == 60
    assert rows[-1].expected_suboptimality is not None


def test_baseline_algorithms_run(tmp_path):
    for algorithm in ("random", "largest_norm", "single_action"):
        config = _tiny_config(
            tmp_path, algorithm=algorithm, n_trials=1, N=30, eval_every=30,
            output_path=str(tmp_path / algorithm),
        )
        result = run_experiment(config)
        assert len(result.rows) == 1


def test_stand_in_environment_pipeline(tmp_path):
    config = RunConfig(
        environment="stand_in",
        algorithm="planner_sampler",
        N=40,
        M=30,
        alpha=1.0,
        n_trials=1,
        eval_every=40,
        eval_set_size=10,
        seed=3,
        standin_queries=60,
        rank_raw_dim=30,
        rank_subsampled_dim=12,
        output_path=str(tmp_path / "standin"),
        data_path=str(tmp_path / "standin.txt"),
    )
    result = run_experiment(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.expected_suboptimality is None
    assert 0.0 <= row.policy_value <= 4.0
    # metrics.csv leaves the suboptimality column empty for data-driven envs
    line = result.metrics_path.read_text().strip().splitlines()[1]
    assert ",," in line


@pytest.mark.parametrize("environment, algorithm", [
    ("synthetic", "planner_sampler"),
    ("hard_uniform", "random"),
    ("stand_in", "planner_sampler"),
    ("stand_in", "supervised_oracle"),
])
def test_run_trial_stacks_its_evaluation_set_once(tmp_path, monkeypatch, environment,
                                                  algorithm):
    # Simulated instances stack one set per trial; ranking data stacks its
    # test split once, with the ingest, and every later trial reuses it.
    monkeypatch.setattr(harness, "_INGEST_CACHE", {})
    config = _tiny_config(tmp_path, environment=environment, algorithm=algorithm, n_trials=1,
                          eval_every=10, standin_queries=40, rank_raw_dim=20,
                          rank_subsampled_dim=8)
    if environment == "stand_in":
        config = harness._materialize_standin(
            dataclasses.replace(config, data_path=str(tmp_path / "standin.txt")))
    stack = estimator_module._context_blocks
    with mock.patch.object(estimator_module, "_context_blocks", wraps=stack) as stacking:
        rows = run_trial(config, 0)
        assert stacking.call_count == 1
        run_trial(config, 1)
    assert len(rows) > 2  # one stacking served every evaluation point
    assert stacking.call_count == (1 if environment == "stand_in" else 2)


def test_stand_in_default_file_is_keyed_by_generator_parameters(tmp_path, monkeypatch):
    # Without an explicit data_path the stand-in file is cached under runs/;
    # runs that differ only in standin_queries must not share it.
    monkeypatch.chdir(tmp_path)
    ingested = {}
    for queries in (20, 35):
        result = run_experiment(RunConfig(
            environment="stand_in", algorithm="random", N=10, n_trials=1,
            eval_every=10, eval_set_size=5, seed=3, standin_queries=queries,
            rank_raw_dim=30, rank_subsampled_dim=12,
            output_path=str(tmp_path / f"out-{queries}"),
        ))
        data_path = Path(result.summary["config"]["data_path"])
        assert data_path.parent == Path("runs")
        qids = {line.split()[1] for line in data_path.read_text().splitlines()}
        ingested[queries] = (data_path, len(qids))
    assert ingested[20][0] != ingested[35][0]
    assert ingested[20][1] == 20
    assert ingested[35][1] == 35


@pytest.mark.parametrize("layout", ["file", "directory"])
def test_ingest_cache_rereads_a_regenerated_file(tmp_path, monkeypatch, layout):
    # A ranking file rewritten at the same path within one process must be
    # ingested again, not served from the previous file's cache entry; for
    # a directory of splits, rewriting train.txt leaves the directory's own
    # modification time alone.
    data_path = tmp_path / "ranking.txt"
    ranking_file = data_path
    if layout == "directory":
        data_path = tmp_path / "ranking"
        data_path.mkdir()
        ranking_file = data_path / "train.txt"

    def run(label):
        result = run_experiment(RunConfig(
            environment="rank_dataset", algorithm="random", N=20, n_trials=1,
            eval_every=10, seed=3, rank_raw_dim=30, rank_subsampled_dim=12,
            data_path=str(data_path), output_path=str(tmp_path / label),
        ))
        return result.metrics_path.read_bytes()

    generate_standin_file(ranking_file, n_queries=40, seed=1, raw_dim=30)
    first = run("first")
    generate_standin_file(ranking_file, n_queries=40, seed=2, raw_dim=30)
    second = run("second")
    monkeypatch.setattr(harness, "_INGEST_CACHE", {})
    fresh = run("fresh")
    assert second == fresh
    assert second != first


def test_ingest_cache_keeps_the_latest_ingest_alone(tmp_path, monkeypatch):
    # Two runs on one file share its ingest, as the trial-standin benchmark's
    # two algorithms do; a run on another file replaces it.
    monkeypatch.setattr(harness, "_INGEST_CACHE", {})
    files = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for seed, path in enumerate(files):
        generate_standin_file(path, n_queries=40, seed=seed, raw_dim=30)

    def run(path, algorithm):
        run_experiment(RunConfig(
            environment="rank_dataset", algorithm=algorithm, N=20, n_trials=1,
            eval_every=10, seed=3, rank_raw_dim=30, rank_subsampled_dim=12,
            data_path=str(path), output_path=str(tmp_path / f"{path.stem}-{algorithm}"),
        ))
        (entry,) = harness._INGEST_CACHE.values()
        return entry[1]

    first = run(files[0], "planner_sampler")
    assert all(a is b for a, b in zip(run(files[0], "supervised_oracle"), first, strict=True))
    second = run(files[1], "planner_sampler")
    assert [key[0] for key in harness._INGEST_CACHE] == [files[1].resolve()]
    assert not any(a is b for a, b in zip(second, first))


def test_lambda_sweep_emits_one_metrics_file_per_value(tmp_path):
    standin = tmp_path / "sweep-data.txt"
    from mixplan import generate_standin_file

    generate_standin_file(standin, n_queries=50, seed=6, raw_dim=30)
    paths = []
    for lam in (0.1, 1.0, 10.0):
        config = RunConfig(
            environment="rank_dataset", algorithm="planner_sampler", N=20, M=15,
            alpha=1.0, lambda_reg=lam, n_trials=2, eval_every=20, eval_set_size=5,
            seed=6, data_path=str(standin), rank_raw_dim=30, rank_subsampled_dim=10,
            output_path=str(tmp_path / f"lam-{lam}"),
        )
        paths.append(run_experiment(config).metrics_path)
    assert all(p.exists() for p in paths)
    assert len({p.read_bytes() for p in paths}) == 3  # distinct regularization, distinct metrics


def test_worker_pool_matches_sequential(tmp_path):
    sequential = run_experiment(
        _tiny_config(tmp_path, output_path=str(tmp_path / "seq"), N=30, eval_every=30)
    )
    parallel = run_experiment(
        _tiny_config(tmp_path, output_path=str(tmp_path / "par"), N=30, eval_every=30,
                     workers=2)
    )
    assert sequential.metrics_path.read_bytes() == parallel.metrics_path.read_bytes()


@pytest.mark.parametrize("n_trials, pools", [(1, []), (2, [2])])
def test_run_experiment_starts_no_more_trial_processes_than_trials(tmp_path, monkeypatch,
                                                                   n_trials, pools):
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_experiment(_tiny_config(tmp_path, N=30, eval_every=30, n_trials=n_trials, workers=3))
    assert opened == pools


def test_rank_trial_logs_its_horizon_and_offline_caps(tmp_path, caplog):
    data = tmp_path / "rank.txt"
    generate_standin_file(data, n_queries=10, seed=3, raw_dim=20)
    config = RunConfig(environment="rank_dataset", algorithm="planner_sampler", N=50, M=50,
                       eval_every=10, data_path=str(data), rank_raw_dim=20,
                       rank_subsampled_dim=10)
    with caplog.at_level(logging.INFO, logger="mixplan.harness"):
        run_trial(config, 0)
    assert [record.getMessage() for record in caplog.records] == [
        "rank horizon capped at 6 distinct contexts",
        "rank offline contexts capped at 2, the size of the offline pool",
    ]


def test_histogram_mass_and_normalization():
    instance = make_synthetic(21)
    rng = np.random.default_rng(2)
    dataset = sample(RandomPolicy(), instance, 100_000, rng)
    histogram = emit_action_histogram(dataset)
    frequencies = histogram["frequencies"]
    assert abs(frequencies.sum() - 1.0) <= 1e-12
    assert np.abs(frequencies - 0.1).max() <= 0.01


def test_histogram_writes_csv(tmp_path):
    instance = make_synthetic(22)
    dataset = sample(RandomPolicy(), instance, 200, np.random.default_rng(0))
    path = tmp_path / "hist.csv"
    emit_action_histogram(dataset, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "action_index,count,frequency"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 200


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulated_pipeline(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    dataset_path = tmp_path / "dataset.csv"
    estimate_path = tmp_path / "estimate.json"
    report_path = tmp_path / "report.json"
    hist_path = tmp_path / "hist.csv"

    assert cli_main([
        "plan", "--env", "hard_uniform", "--actions", "6", "--M", "200",
        "--lambda-reg", "1.0", "--seed", "1", "--out", str(policy_path),
    ]) == 0
    assert cli_main([
        "sample", "--env", "hard_uniform", "--actions", "6", "--policy",
        str(policy_path), "--N", "150", "--seed", "2", "--out", str(dataset_path),
        "--binary", str(tmp_path / "dataset.npz"),
    ]) == 0
    assert cli_main([
        "fit", "--dataset", str(dataset_path), "--lambda-reg", "1.0",
        "--out", str(estimate_path),
    ]) == 0
    assert cli_main([
        "eval", "--env", "hard_uniform", "--actions", "6", "--estimate",
        str(estimate_path), "--n-eval", "50", "--seed", "3",
        "--out", str(report_path),
    ]) == 0
    assert cli_main([
        "histogram", "--dataset", str(dataset_path), "--out", str(hist_path),
    ]) == 0

    report = json.loads(report_path.read_text())
    assert report["n_eval_contexts"] == 50
    assert report["config"]["env"] == "hard_uniform"
    assert (tmp_path / "dataset.npz").exists()
    assert hist_path.exists()


def test_cli_fit_then_eval_reports_what_evaluate_gives_in_memory(tmp_path):
    policy_path, dataset_path = tmp_path / "policy.npz", tmp_path / "dataset.csv"
    estimate_path, report_path = tmp_path / "estimate.npz", tmp_path / "report.json"
    env = ["--env", "hard_uniform", "--actions", "6"]
    assert cli_main(["plan", *env, "--M", "120", "--seed", "1", "--out", str(policy_path)]) == 0
    assert cli_main(["sample", *env, "--policy", str(policy_path), "--N", "90", "--seed", "2",
                     "--out", str(dataset_path)]) == 0
    assert cli_main(["fit", "--dataset", str(dataset_path), "--lambda-reg", "0.5",
                     "--out", str(estimate_path)]) == 0
    assert cli_main(["eval", *env, "--estimate", str(estimate_path), "--n-eval", "40",
                     "--seed", "3", "--out", str(report_path)]) == 0
    # eval draws its contexts from the seed's third stream (spawn key 2).
    contexts = make_hard_uniform(6).draw_contexts(
        np.random.default_rng(np.random.SeedSequence(3, spawn_key=(2,))), 40)
    expected = evaluate(ridge_fit(dataset_from_csv(dataset_path), 0.5), make_hard_uniform(6),
                        contexts)
    written = json.loads(report_path.read_text())
    for field in EvaluationReport.__dataclass_fields__:
        assert written[field] == getattr(expected, field), field
    assert written["config"] == {"env": "hard_uniform", "seed": 3, "n_eval": 40}


def test_cli_plan_and_run_experiment_share_the_alpha_default(tmp_path):
    # N > M: both entry points discount offline updates by min(1, N/M) = 1.
    policy_path = tmp_path / "policy.npz"
    assert cli_main([
        "plan", "--env", "hard_uniform", "--M", "100", "--N", "200", "--seed", "5",
        "--out", str(policy_path),
    ]) == 0
    planned = MixturePolicy.load(policy_path)
    config = RunConfig(environment="hard_uniform", algorithm="planner_sampler",
                       M=100, N=200, seed=5)
    harnessed = harness._collection_policy(config, _prepare_trial_env(config, _trial_seeds(config, 0)))
    assert planned.alpha == harnessed.alpha == 1.0
    assert planned.phase_starts == harnessed.phase_starts
    assert np.array_equal(planned.features, harnessed.features)
    for a, b in zip(planned.snapshots, harnessed.snapshots):
        assert np.array_equal(a.factor, b.factor)


def test_cli_standin_and_ingest(tmp_path):
    standin = tmp_path / "standin.txt"
    summary_path = tmp_path / "ingest.json"
    assert cli_main([
        "gen-standin", "--out", str(standin), "--queries", "30",
        "--raw-dim", "25", "--seed", "4",
    ]) == 0
    assert cli_main([
        "ingest-ltr", "--path", str(standin), "--seed", "0", "--raw-dim", "25",
        "--subsampled-dim", "10", "--out", str(summary_path),
        "--export", str(tmp_path / "bundle"),
    ]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["n_train"] + summary["n_valid"] + summary["n_test"] == 30
    assert len(summary["subsample_indices"]) == 10
    assert (tmp_path / "bundle-train.npz").exists()


def test_cli_ingest_failed_export_leaves_no_summary(tmp_path, capsys):
    # The summary was once written before the bundles, so a failed export
    # left it behind.
    standin = generate_standin_file(tmp_path / "standin.txt", n_queries=12, seed=4, raw_dim=20)
    summary_path = tmp_path / "ingest.json"
    assert cli_main([
        "ingest-ltr", "--path", str(standin), "--raw-dim", "20", "--subsampled-dim", "8",
        "--out", str(summary_path), "--export", str(tmp_path / "missing" / "bundle"),
    ]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not summary_path.exists()


def test_cli_run_experiment_and_config_file(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "environment": "synthetic",
        "algorithm": "random",
        "N": 30,
        "eval_every": 30,
        "eval_set_size": 20,
        "n_trials": 1,
    }))
    out_dir = tmp_path / "run-out"
    assert cli_main([
        "run-experiment", "--config", str(config_path), "--seed", "5",
        "--out", str(out_dir),
    ]) == 0
    assert (out_dir / "metrics.csv").exists()
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["seed"] == 5


def test_cli_verify_lemmas(tmp_path):
    report_path = tmp_path / "lemmas.json"
    assert cli_main([
        "verify-lemmas", "--seed", "0", "--trials", "300",
        "--sandwich-trials", "3", "--planner-runs", "3",
        "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True


def test_cli_reports_missing_dataset(tmp_path, capsys):
    code = cli_main([
        "plan", "--env", "rank_dataset", "--data-path", str(tmp_path / "missing.txt"),
        "--M", "10", "--out", str(tmp_path / "p.json"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _plan_args(policy_path):
    return ["plan", "--env", "hard_uniform", "--actions", "4", "--M", "30",
            "--seed", "1", "--out", str(policy_path)]


def _sample_args(policy_path, tmp_path):
    return ["sample", "--env", "hard_uniform", "--actions", "4", "--policy",
            str(policy_path), "--N", "10", "--out", str(tmp_path / "dataset.csv")]


def test_cli_rejects_truncated_policy(tmp_path, capsys):
    policy_path = tmp_path / "policy.npz"
    assert cli_main(_plan_args(policy_path)) == 0
    blob = policy_path.read_bytes()
    policy_path.write_bytes(blob[: len(blob) // 2])
    assert cli_main(_sample_args(policy_path, tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_v1_json_policy(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({
        "format": "mixture-policy", "version": 1, "d": 2, "lambda_reg": 1.0,
        "alpha": 1.0, "M": 1, "phase_starts": [1], "snapshots": [],
    }))
    assert cli_main(_sample_args(policy_path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "re-run `mixplan plan`" in err


def test_cli_maps_typed_errors_to_exit_2(tmp_path, capsys):
    # A policy planned at d=2 sampled on an instance of another dimension
    # (ContractViolation), and a malformed dataset CSV (DataError).
    policy_path = tmp_path / "policy.npz"
    assert cli_main(_plan_args(policy_path)) == 0
    assert cli_main(["sample", "--env", "hard_goptimal", "--policy", str(policy_path),
                     "--N", "5", "--out", str(tmp_path / "d.csv")]) == 2
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("not,a,dataset\n")
    assert cli_main(["fit", "--dataset", str(bad_csv), "--out", str(tmp_path / "e.npz")]) == 2
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("row, message", [
    ("c0,0,1e200,1e200,1.0", "overflow"),
    ("c0,0,1e100,1e100,1.0", "not positive definite"),
], ids=["gram-overflow", "not-positive-definite"])
def test_cli_fit_reports_unsolvable_normal_equations(tmp_path, capsys, row, message):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("context_id,action_index,f0,f1,reward\n" + row + "\n")
    assert cli_main(["fit", "--dataset", str(csv_path), "--out", str(tmp_path / "e.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "e.npz").exists()


def test_cli_reports_a_directory_given_as_a_file(tmp_path, capsys):
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert cli_main(["fit", "--dataset", str(directory), "--out", str(tmp_path / "e.npz")]) == 2
    assert cli_main(_plan_args(directory)) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and err.count(str(directory)) == 2


def test_cli_eval_rejects_sigma_not_positive_definite(tmp_path, capsys):
    # A well-formed estimate whose sigma is finite but singular (zero at d=20).
    estimate_path = tmp_path / "estimate.npz"
    write_artifact(
        estimate_path, "ridge-estimate", 2,
        theta_hat=np.zeros(20), sigma=np.zeros((20, 20)),
        lambda_reg=np.array(1.0), n_samples=np.array(0),
    )
    assert cli_main(["eval", "--env", "synthetic", "--estimate", str(estimate_path),
                     "--n-eval", "5", "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "positive definite" in err
    assert "Traceback" not in err


def _skew_sigma():
    # Positive definite and finite, but not symmetric: the fit never writes it.
    sigma = 2.0 * np.eye(20)
    sigma[0, 1] = 0.5
    return sigma


@pytest.mark.parametrize("entries, message", [
    ({"theta_hat": np.array(["0.0"] * 20)}, "must be float arrays"),
    ({"sigma": np.full((20, 20), "1.0")}, "must be float arrays"),
    ({"theta_hat": np.zeros(20, dtype=bool)}, "must be float arrays"),
    ({"sigma": _skew_sigma()}, "sigma is not symmetric"),
    ({"n_samples": np.array(-4)}, "n_samples is negative"),
], ids=["string-theta", "string-sigma", "bool-theta", "asymmetric-sigma", "negative-n-samples"])
def test_cli_eval_refuses_an_estimate_it_cannot_use_as_stored(tmp_path, capsys, entries, message):
    arrays = {"theta_hat": np.zeros(20), "sigma": np.eye(20), "lambda_reg": np.array(1.0),
              "n_samples": np.array(0)}
    arrays.update(entries)
    estimate_path = tmp_path / "estimate.npz"
    write_artifact(estimate_path, "ridge-estimate", 2, **arrays)
    assert cli_main(["eval", "--env", "synthetic", "--estimate", str(estimate_path),
                     "--n-eval", "5", "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def _binary_dataset(tmp_path):
    """The npz that ``sample --binary`` writes, given to a command that reads text."""
    path = tmp_path / "dataset.npz"
    dataset_to_npz(sample(RandomPolicy(), make_hard_uniform(4), 5, np.random.default_rng(0)), path)
    return path


def _latin1_csv(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes(b"context_id,action_index,f0,f1,reward\nc0,0,1.0,0.0,\xff\n")
    return path


def _binary_file(tmp_path):
    path = tmp_path / "binary.bin"
    path.write_bytes(b"1 qid:1 1:0.5\n\x00\xff\xfe\x80\n")
    return path


@pytest.mark.parametrize("make_input, command", [
    (_binary_dataset, ["fit", "--out", "{tmp}/e.npz", "--dataset"]),
    (_latin1_csv, ["fit", "--out", "{tmp}/e.npz", "--dataset"]),
    (_latin1_csv, ["histogram", "--out", "{tmp}/h.csv", "--dataset"]),
    (_binary_file, ["run-experiment", "--out", "{tmp}/out", "--config"]),
    (_binary_file, ["ingest-ltr", "--out", "{tmp}/s.json", "--path"]),
    (_binary_file, ["plan", "--env", "rank_dataset", "--M", "5", "--out", "{tmp}/p.npz",
                    "--data-path"]),
], ids=["fit-npz", "fit-csv", "histogram-csv", "run-experiment-config", "ingest-ltr",
        "plan-rank-dataset"])
def test_cli_refuses_a_text_input_that_is_not_utf8(tmp_path, capsys, make_input, command):
    path = make_input(tmp_path)
    args = [arg.format(tmp=tmp_path) for arg in command] + [str(path)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "utf-8" in err.lower()
    assert "Traceback" not in err
    if command[0] in ("ingest-ltr", "plan"):
        assert "line 2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("n_eval", ["2000", "5"])
def test_cli_eval_rejects_rank_dataset_before_drawing(tmp_path, capsys, n_eval):
    # 2000 evaluation draws would exhaust the 30-query stream before the
    # evaluation itself could refuse an instance without theta_star.
    data, estimate_path = tmp_path / "standin.txt", tmp_path / "estimate.npz"
    assert cli_main(["gen-standin", "--out", str(data), "--queries", "30", "--raw-dim", "20"]) == 0
    write_artifact(
        estimate_path, "ridge-estimate", 2,
        theta_hat=np.zeros(8), sigma=np.eye(8), lambda_reg=np.array(1.0), n_samples=np.array(0),
    )
    assert cli_main(["eval", "--env", "rank_dataset", "--data-path", str(data),
                     "--raw-dim", "20", "--subsampled-dim", "8",
                     "--estimate", str(estimate_path), "--n-eval", n_eval,
                     "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "requires a linear instance" in err
    assert "exhausted" not in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text, message", [
    ('{"environment": "synthetic", ', "not valid JSON"),
    ('["synthetic", "random"]', "JSON object"),
    ('{"environment": "synthetic", "algorithm": "random", "N": "abc"}', "N must be an integer"),
    ('{"environment": "synthetic", "algorithm": "random", "N": 20, "delta": 0.9}', "'delta'"),
    ('{"environment": "synthetic", "algorithm": "random", "N": 20, "epsilon": 50.0}',
     "'epsilon'"),
], ids=["malformed-json", "json-array", "wrongly-typed-field", "removed-field-delta",
        "removed-field-epsilon"])
def test_cli_run_experiment_rejects_bad_config_file(tmp_path, capsys, text, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(text)
    code = cli_main(["run-experiment", "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


_RANK = {"algorithm": "random", "N": 10, "data_path": "missing.txt"}


def test_every_run_experiment_flag_but_config_stores_to_a_run_config_field():
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    dests = {action.dest for action in commands.choices["run-experiment"]._actions
             if action.option_strings and action.dest not in ("help", "config")}
    assert dests <= {field.name for field in dataclasses.fields(RunConfig)}
    assert "output_path" in dests


def _numeric_flags():
    """(command, flag, dest) of every flag of type int or float, read from the parser."""
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if action.type in (int, float):
                yield command, action.option_strings[0], action.dest


# Each command's required flags, with values that pass; the case's own flag
# comes last, where argparse lets it win. No file they name is ever read.
_VALID_ARGS = {
    "plan": ["--env", "hard_uniform", "--M", "4"],
    "sample": ["--env", "hard_uniform", "--policy", "missing.npz", "--N", "4"],
    "fit": ["--dataset", "missing.csv"],
    "eval": ["--env", "hard_uniform", "--estimate", "missing.npz"],
    "run-experiment": ["--environment", "synthetic", "--algorithm", "random", "--N", "4"],
    "ingest-ltr": ["--path", "missing.txt"],
}
# Out-of-range values of each setting; any other is a count of at least 1.
_OUT_OF_RANGE = {
    "seed": ["-1"],
    "lambda_reg": ["inf", "nan", "0", "-1"],
    "alpha": ["0", "-0.5", "1.5", "inf", "nan"],
    "actions": ["1", "0"],
    "k": ["1", "0"],
}
_FLAG_CASES = [(command, flag, dest, value) for command, flag, dest in _numeric_flags()
               for value in _OUT_OF_RANGE.get(dest, ["0", "-1"])]


@pytest.mark.parametrize("args, config, message", [
    (["gen-standin", "--raw-dim", "0"], None, "raw_dim must be at least 1"),
    (["gen-standin", "--raw-dim", "-3"], None, "raw_dim must be at least 1"),
    (["ingest-ltr", "--path", "missing.txt", "--subsampled-dim", "-1"], None, "subsampled_dim"),
    (["ingest-ltr", "--path", "missing.txt", "--raw-dim", "5", "--subsampled-dim", "6"], None,
     "subsampled_dim"),
    (["run-experiment"], dict(_RANK, environment="stand_in", rank_raw_dim=0),
     "rank_raw_dim must be at least 1"),
    (["run-experiment"], dict(_RANK, environment="rank_dataset", rank_subsampled_dim=-1),
     "subsampled_dim"),
    (["verify-lemmas", "--planner-runs", "0"], None, "planner_runs must be at least 1"),
    # --N 0 once read as unset and planned with N = M.
    (["plan", "--env", "hard_uniform", "--M", "4", "--N", "0"], None, "N must be at least 1"),
] + [([command, *_VALID_ARGS.get(command, []), flag, value], None, f"{dest} must")
      for command, flag, dest, value in _FLAG_CASES],
    ids=["standin-raw-dim-0", "standin-raw-dim-negative", "ingest-subsampled-dim-negative",
         "ingest-subsampled-above-raw", "config-rank-raw-dim-0",
         "config-rank-subsampled-dim-negative", "verify-lemmas-zero-planner-runs",
         "plan-zero-budget"] + [f"{command}-{dest}={value}"
                                for command, _, dest, value in _FLAG_CASES])
def test_cli_rejects_dimensions_and_run_counts_below_one(tmp_path, monkeypatch, capsys, args,
                                                         config, message):
    # Each once ended in a numpy traceback, or (zero planner runs) in a PASS
    # report with an Infinity that is not valid JSON, or ran with the value
    # (a negative seed, an infinite lambda_reg, alpha outside (0, 1]). The
    # check comes before any input is read, so no named file is ever reached.
    monkeypatch.chdir(tmp_path)
    if config is not None:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        args = args + ["--config", str(config_path)]
    out = tmp_path / "out"
    assert cli_main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "runs").exists()


def test_every_numeric_cli_flag_has_a_setting_range():
    # cli.main checks a flag only through its entry, so a numeric flag needs one.
    assert {dest for _, _, dest in _numeric_flags()} <= set(_RANGES)


def test_refused_stand_in_run_leaves_nothing_behind(tmp_path, monkeypatch, capsys):
    # The stand-in file under runs/ was once generated before lambda_reg was read.
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run-experiment", "--environment", "stand_in", "--algorithm", "random",
                     "--N", "10", "--lambda-reg", "-1", "--out", "out"]) == 2
    assert "error: lambda_reg must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("lambda_reg", np.inf), ("lambda_reg", 0.0), ("lambda_reg", -1.0),
    ("alpha", 1.5), ("alpha", np.nan),
])
def test_artifacts_with_settings_out_of_range_are_refused(tmp_path, capsys, field, value):
    policy = dict(features=np.eye(2), phase_starts=np.array([1]), M=np.array(2),
                  lambda_reg=np.array(1.0), alpha=np.array(1.0))
    policy[field] = np.array(value)
    write_artifact(tmp_path / "policy.npz", "mixture-policy", 2, **policy)
    with pytest.raises(ConfigurationError, match=f"{field} must"):
        MixturePolicy.load(tmp_path / "policy.npz")
    out = tmp_path / "out.csv"
    assert cli_main(["sample", "--env", "hard_uniform", "--policy", str(tmp_path / "policy.npz"),
                     "--N", "3", "--out", str(out)]) == 2
    if field == "lambda_reg":
        write_artifact(tmp_path / "estimate.npz", "ridge-estimate", 2, theta_hat=np.zeros(2),
                       sigma=np.eye(2), lambda_reg=np.array(value), n_samples=np.array(0))
        with pytest.raises(ConfigurationError, match="lambda_reg must"):
            cli._load_estimate(tmp_path / "estimate.npz")
        assert cli_main(["eval", "--env", "hard_uniform", "--estimate",
                         str(tmp_path / "estimate.npz"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must" in err and "Traceback" not in err
    assert not out.exists()


def test_run_config_from_dict_rejects_bad_payloads():
    for payload in ([1, 2], {"environment": "synthetic", "algorithm": "random"},
                    {"environment": "synthetic", "algorithm": "random", "N": 5,
                     "lambda_reg": "big"},
                    {"environment": "synthetic", "algorithm": "random", "N": True}):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(payload)
    config = RunConfig.from_dict({"environment": "synthetic", "algorithm": "random",
                                  "N": 5, "lambda_reg": 2, "M": None})
    assert config.lambda_reg == 2 and config.M == 5


@pytest.mark.parametrize("row, message", [
    ("c0,0,0.5,oops,1.0", "line 2"),
    ("c0,0,0.5,0.25,nan-ish", "line 2"),
    ("c0,1.5,0.5,0.25,1.0", "line 2"),
    ("c0,-1,0.5,0.25,1.0", "negative action index"),
], ids=["feature", "reward", "action-index", "negative-action-index"])
def test_cli_reports_unparsable_dataset_fields(tmp_path, capsys, row, message):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("context_id,action_index,f0,f1,reward\n" + row + "\n")
    for command in (["fit", "--dataset", str(bad_csv), "--out", str(tmp_path / "e.npz")],
                    ["histogram", "--dataset", str(bad_csv), "--out", str(tmp_path / "h.csv")]):
        assert cli_main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and str(bad_csv) in err


def test_cli_resolved_config_runs_again_to_identical_metrics(tmp_path):
    first = tmp_path / "first"
    assert cli_main([
        "run-experiment", "--environment", "synthetic", "--algorithm", "planner_sampler",
        "--N", "40", "--eval-every", "20", "--eval-set-size", "30", "--n-trials", "2",
        "--seed", "9", "--out", str(first),
    ]) == 0
    second = tmp_path / "second"
    assert cli_main([
        "run-experiment", "--config", str(first / "resolved_config.json"),
        "--out", str(second),
    ]) == 0
    assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()


def test_cli_plan_rejects_epsilon_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(_plan_args(tmp_path / "policy.npz") + ["--epsilon", "0.1"])
    assert exc.value.code == 2
    assert "--epsilon" in capsys.readouterr().err
    assert not (tmp_path / "policy.npz").exists()


def test_cli_sample_binary_is_written_to_the_exact_path(tmp_path):
    from mixplan import dataset_from_csv, dataset_from_npz

    policy_path = tmp_path / "policy.npz"
    assert cli_main(_plan_args(policy_path)) == 0
    binary = tmp_path / "d.bin"
    assert cli_main(_sample_args(policy_path, tmp_path) + ["--binary", str(binary)]) == 0
    assert binary.exists()
    assert not (tmp_path / "d.bin.npz").exists()
    written = dataset_from_csv(tmp_path / "dataset.csv")
    reread = dataset_from_npz(binary)
    assert [r.context_id for r in reread] == [r.context_id for r in written]
    assert [r.action_index for r in reread] == [r.action_index for r in written]
    assert np.array_equal(reread.feature_matrix(), written.feature_matrix())
    assert np.array_equal(reread.rewards(), written.rewards())


@pytest.mark.parametrize("fault, line_number", [("nan-label", 1), ("repeated-index", 5)])
@pytest.mark.parametrize("command", ["ingest-ltr", "run-experiment"])
def test_cli_rejects_malformed_ranking_files(tmp_path, capsys, command, fault, line_number):
    # A nan label once reached the planner's run, which wrote its metrics;
    # a repeated index kept its last value. Both are refused as the file is
    # read, before any output is made.
    data = tmp_path / "standin.txt"
    generate_standin_file(data, n_queries=40, seed=3, raw_dim=30)
    lines = data.read_text().splitlines()
    if fault == "nan-label":
        lines[0] = "nan " + lines[0].split(" ", 1)[1]
    else:
        lines[4] += " " + lines[4].split()[2]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    args = {
        "ingest-ltr": ["ingest-ltr", "--path", str(data), "--raw-dim", "30",
                       "--subsampled-dim", "12", "--export", str(out / "bundle")],
        "run-experiment": ["run-experiment", "--environment", "rank_dataset",
                           "--algorithm", "planner_sampler", "--data-path", str(data),
                           "--N", "24", "--eval-every", "12"],
    }[command]
    assert cli_main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line_number}:")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_gen_standin_splits_feed_ingest(tmp_path):
    from mixplan.environments import SPLIT_FILES

    directory = tmp_path / "splits"
    assert cli_main(["gen-standin", "--out", str(directory), "--queries", "12",
                     "--raw-dim", "25", "--seed", "3", "--splits"]) == 0
    assert sorted(p.name for p in directory.iterdir()) == sorted(SPLIT_FILES)
    summary_path = tmp_path / "ingest.json"
    assert cli_main(["ingest-ltr", "--path", str(directory), "--raw-dim", "25",
                     "--subsampled-dim", "10", "--out", str(summary_path)]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["n_train"] > 0 and summary["n_valid"] > 0 and summary["n_test"] > 0


@pytest.mark.parametrize("sizes, message", [
    (["--raw-dim", "0"], "raw_dim must be at least 1"),
    (["--queries", "0"], "queries must be at least 1"),
], ids=["raw-dim-0", "queries-0"])
def test_cli_gen_standin_splits_rejects_bad_sizes_without_a_directory(tmp_path, capsys, sizes,
                                                                      message):
    # The sizes are checked before the split directory is made, so a refused
    # run leaves nothing behind.
    directory = tmp_path / "splits"
    assert cli_main(["gen-standin", "--splits", "--out", str(directory)] + sizes) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not directory.exists()
