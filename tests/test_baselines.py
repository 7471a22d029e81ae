import logging

import numpy as np

from mixplan import (
    BanditInstance,
    LargestNormPolicy,
    RandomPolicy,
    SingleActionPolicy,
    make_synthetic,
    oracle_fits,
    ridge_fit,
    sample,
)
from mixplan.core import InteractionDataset, InteractionRecord

from conftest import make_context, unit_ball_contexts


def test_random_single_action_context(rng):
    context = make_context([[1.0, 0.0]])
    assert all(RandomPolicy().action(context, rng) == 0 for _ in range(20))


def test_random_is_uniform():
    context = make_context(np.eye(10))
    rng = np.random.default_rng(50)
    draws = np.array([RandomPolicy().action(context, rng) for _ in range(100_000)])
    frequencies = np.bincount(draws, minlength=10) / len(draws)
    assert np.abs(frequencies - 0.1).max() <= 0.01


def test_random_is_seed_reproducible():
    context = make_context(np.eye(4))
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        runs.append([RandomPolicy().action(context, rng) for _ in range(100)])
    assert runs[0] == runs[1]


def test_largest_norm_examples(rng):
    policy = LargestNormPolicy()
    assert policy.action(make_context([[1.0, 0.0], [0.0, 0.5]]), rng) == 0
    assert policy.action(make_context([[0.0, 0.0], [0.0, 0.0]]), rng) == 0


def test_largest_norm_matches_scan_oracle(rng):
    for context in unit_ball_contexts(rng, 20, 4, 20):
        norms = [float(np.linalg.norm(row)) for row in context.features]
        oracle = max(range(20), key=lambda a: (norms[a], -a))
        assert LargestNormPolicy().action(context, rng) == oracle


def test_single_action_fixed_and_clamped(caplog, rng):
    context = make_context(np.eye(5))
    assert SingleActionPolicy(0).action(context, rng) == 0
    assert SingleActionPolicy(3).action(context, rng) == 3
    with caplog.at_level(logging.WARNING):
        assert SingleActionPolicy(99).action(context, rng) == 4
    assert "clamping to 4" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert SingleActionPolicy(-2).action(context, rng) == 0
    assert "clamping to 0" in caplog.text


def _streaming_instance(theta, contexts, noise_std):
    stream = iter(contexts)
    return BanditInstance(d=len(theta), theta_star=np.asarray(theta, dtype=np.float64),
                          context_sampler=lambda rng: next(stream), noise_std=noise_std)


def test_supervised_oracle_recovers_theta_on_span(rng):
    theta = np.array([1.0, -2.0, 0.5, 0.0])
    contexts = unit_ball_contexts(rng, 50, 4, 5)
    instance = _streaming_instance(theta, contexts, noise_std=0.0)
    (estimate,) = oracle_fits(instance, [50], lambda_reg=1e-8, rng=rng)
    assert estimate.n_samples == 50 * 5
    assert np.linalg.norm(estimate.theta_hat - theta) < 1e-6


def test_supervised_oracle_equals_ridge_on_exploded_dataset(rng):
    contexts = unit_ball_contexts(rng, 10, 3, 4)
    instance = _streaming_instance([0.3, -0.1, 0.8], contexts, noise_std=1.0)
    oracle = list(oracle_fits(instance, [4, 10], lambda_reg=0.5,
                              rng=np.random.default_rng(7)))
    replay = np.random.default_rng(7)
    records = []
    for context in contexts:
        for a in range(context.n_actions):
            reward = instance.reward(context, a, replay)
            records.append(
                InteractionRecord(context.context_id, a, context.features[a], reward)
            )
    for estimate, n in zip(oracle, (4, 10)):
        direct = ridge_fit(InteractionDataset(3, records[: n * 4]), 0.5)
        assert np.array_equal(estimate.theta_hat, direct.theta_hat)


def test_baselines_produce_valid_datasets_through_sampler():
    instance = make_synthetic(11)
    rng = np.random.default_rng(12)
    for policy in (RandomPolicy(), LargestNormPolicy(), SingleActionPolicy(0)):
        dataset = sample(policy, instance, 50, rng)
        assert len(dataset) == 50
        assert dataset.d == instance.d
        for record in dataset:
            assert np.isfinite(record.reward)
            assert record.feature.shape == (instance.d,)


def test_single_action_policy_matches_histogram():
    from mixplan import emit_action_histogram

    instance = make_synthetic(13)
    dataset = sample(SingleActionPolicy(2), instance, 40, np.random.default_rng(3))
    histogram = emit_action_histogram(dataset)
    assert histogram["frequencies"][2] == 1.0


def test_supervised_oracle_soft_upper_bound_at_equal_samples(tmp_path):
    # Full feedback is an approximate upper bound: at an equal sample count
    # no bandit-feedback strategy should beat it by more than one pooled
    # standard error.
    from mixplan import RunConfig, run_experiment

    finals = {}
    for algorithm in ("supervised_oracle", "planner_sampler", "random",
                      "largest_norm", "single_action"):
        config = RunConfig(
            environment="synthetic", algorithm=algorithm, N=10_000, alpha=1.0,
            lambda_reg=1.0, n_trials=8, eval_every=10_000, eval_set_size=1500,
            seed=42, output_path=str(tmp_path / algorithm),
        )
        finals[algorithm] = run_experiment(config).summary["final"]
    oracle = finals["supervised_oracle"]
    for algorithm in ("planner_sampler", "random", "largest_norm", "single_action"):
        other = finals[algorithm]
        pooled = float(
            np.hypot(oracle["policy_value_stderr"], other["policy_value_stderr"])
        )
        assert oracle["policy_value_mean"] >= other["policy_value_mean"] - pooled
