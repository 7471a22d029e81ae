import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mixplan import (
    ConfigurationError,
    MixturePolicy,
    RunConfig,
    emit_action_histogram,
    make_synthetic,
    run_experiment,
    sample,
)
from mixplan.baselines import RandomPolicy
from mixplan.cli import main as cli_main
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
def test_run_trial_stacks_its_evaluation_set_once(tmp_path, environment, algorithm):
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
    assert stacking.call_count == 2


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


def test_max_contexts_caps_rank_horizon(tmp_path):
    standin = tmp_path / "cap-data.txt"
    from mixplan import generate_standin_file

    generate_standin_file(standin, n_queries=40, seed=7, raw_dim=25)
    config = RunConfig(
        environment="rank_dataset", algorithm="random", N=100, M=10, alpha=1.0,
        n_trials=1, eval_every=100, eval_set_size=5, seed=7,
        data_path=str(standin), rank_raw_dim=25, rank_subsampled_dim=10,
        max_contexts=5, output_path=str(tmp_path / "capped"),
    )
    result = run_experiment(config)
    assert result.rows[-1].n_samples_seen == 5


def test_max_contexts_must_be_positive(tmp_path):
    for bad in (0, -3):
        with pytest.raises(ConfigurationError, match="max_contexts"):
            RunConfig(environment="rank_dataset", algorithm="random", N=10,
                      data_path=str(tmp_path / "x.txt"), max_contexts=bad)


def test_worker_pool_matches_sequential(tmp_path):
    sequential = run_experiment(
        _tiny_config(tmp_path, output_path=str(tmp_path / "seq"), N=30, eval_every=30)
    )
    parallel = run_experiment(
        _tiny_config(tmp_path, output_path=str(tmp_path / "par"), N=30, eval_every=30,
                     workers=2)
    )
    assert sequential.metrics_path.read_bytes() == parallel.metrics_path.read_bytes()


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


@pytest.mark.parametrize("text, message", [
    ('{"environment": "synthetic", ', "not valid JSON"),
    ('["synthetic", "random"]', "JSON object"),
    ('{"environment": "synthetic", "algorithm": "random", "N": "abc"}', "'N' must be int"),
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
