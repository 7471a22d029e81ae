import numpy as np
import pytest

from mixplan import (
    BanditInstance,
    ContextLaw,
    LargestNormPolicy,
    RandomPolicy,
    RankDatasetSpec,
    SingleActionPolicy,
    full_feedback,
    generate_standin_file,
    ingest_rank_dataset,
    make_rank_instance,
    make_synthetic,
    ridge_fit,
    sample,
)
from mixplan.core import InteractionRecord

from conftest import make_context, make_dataset, unit_ball_contexts


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


def _streaming_instance(theta, contexts, noise_std):
    stream = iter(contexts)
    return BanditInstance(d=len(theta), theta_star=np.asarray(theta, dtype=np.float64),
                          context_law=ContextLaw.of_sampler(lambda rng: next(stream)),
                          noise_std=noise_std)


def test_supervised_oracle_recovers_theta_on_span(rng):
    theta = np.array([1.0, -2.0, 0.5, 0.0])
    contexts = unit_ball_contexts(rng, 50, 4, 5)
    instance = _streaming_instance(theta, contexts, noise_std=0.0)
    dataset, ends = full_feedback(instance, 50, rng)
    assert dataset.feature_matrix().shape == (50 * 5, 4) and ends[-1] == 50 * 5
    estimate = ridge_fit(dataset, 1e-8)
    assert np.linalg.norm(estimate.theta_hat - theta) < 1e-6


@pytest.mark.parametrize("action_counts, points", [
    ([4] * 10, [4, 10]),
    ([1, 1, 1, 2, 2, 3, 4, 5, 6, 6, 6, 6], [2, 3, 5, 8, 12]),
], ids=["uniform", "growing"])
def test_supervised_oracle_equals_ridge_on_exploded_dataset(rng, action_counts, points):
    contexts = [unit_ball_contexts(rng, 1, 3, a)[0] for a in action_counts]
    instance = _streaming_instance([0.3, -0.1, 0.8], contexts, noise_std=1.0)
    dataset, ends = full_feedback(instance, points[-1], np.random.default_rng(7))
    assert ends.tolist() == np.cumsum(action_counts).tolist()
    replay = np.random.default_rng(7)
    records = []
    for context in contexts:
        for a in range(context.n_actions):
            reward = instance.reward(context, a, replay)
            records.append(
                InteractionRecord(context.context_id, a, context.features[a], reward)
            )
    # Every row of the exploded dataset is the per-reward loop's record.
    assert [(r.context_id, r.action_index, r.feature.tobytes(), r.reward) for r in dataset] == [
        (r.context_id, r.action_index, r.feature.tobytes(), r.reward) for r in records]
    for n in points:
        estimate = ridge_fit(dataset[:ends[n - 1]], 0.5)
        direct = ridge_fit(make_dataset(3, records[: sum(action_counts[:n])]), 0.5)
        assert np.array_equal(estimate.theta_hat, direct.theta_hat)
        assert estimate.sigma_prime_n.tobytes() == direct.sigma_prime_n.tobytes()


def test_full_feedback_reads_a_ranking_instance_labels(tmp_path):
    path = generate_standin_file(tmp_path / "standin.txt", n_queries=12, seed=4, raw_dim=20)
    train = ingest_rank_dataset(path, RankDatasetSpec(raw_dim=20, subsampled_dim=8), 4).train
    order = np.random.default_rng(4).permutation(len(train))
    served = [train[i] for i in order]
    stream = np.random.default_rng(5)
    state = stream.bit_generator.state
    dataset, ends = full_feedback(make_rank_instance(train, order=order), len(served), stream)
    assert dataset.feature_matrix().tobytes() == np.concatenate(
        [rc.context.features for rc in served]).tobytes()
    assert dataset.rewards().tobytes() == np.concatenate(
        [rc.relevance for rc in served]).tobytes()
    assert dataset.context_ids == [rc.context.context_id for rc in served
                                   for _ in range(rc.context.n_actions)]
    assert dataset.actions.tolist() == [a for rc in served for a in range(rc.context.n_actions)]
    assert ends.tolist() == np.cumsum([rc.context.n_actions for rc in served]).tolist()
    assert stream.bit_generator.state == state


def test_baselines_produce_valid_datasets_through_sampler():
    instance = make_synthetic(11)
    rng = np.random.default_rng(12)
    for policy in (RandomPolicy(), LargestNormPolicy(), SingleActionPolicy()):
        dataset = sample(policy, instance, 50, rng)
        assert len(dataset) == 50
        assert dataset.d == instance.d
        for record in dataset:
            assert np.isfinite(record.reward)
            assert record.feature.shape == (instance.d,)


def test_single_action_policy_matches_histogram():
    from mixplan import emit_action_histogram

    instance = make_synthetic(13)
    dataset = sample(SingleActionPolicy(), instance, 40, np.random.default_rng(3))
    histogram = emit_action_histogram(dataset)
    assert histogram["frequencies"][0] == 1.0


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
