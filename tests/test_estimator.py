import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixplan.covariance as covariance_module

from mixplan import (
    BanditInstance,
    ConfigurationError,
    ContractViolation,
    DataError,
    InteractionDataset,
    InteractionRecord,
    Context,
    EvaluationReport,
    RidgeEstimate,
    evaluate,
    greedy_action,
    ridge_fit,
)
from mixplan.estimator import EvaluationSet, evaluate_values, ridge_fit_arrays

from conftest import make_context, make_dataset, unit_ball_contexts


def _dataset(features, rewards):
    features = np.asarray(features, dtype=np.float64)
    records = [
        InteractionRecord(f"r{i}", 0, features[i], float(rewards[i]))
        for i in range(len(features))
    ]
    return make_dataset(features.shape[1], records)


def _random_dataset(rng, n, d, theta=None, noise=0.1):
    features = rng.normal(size=(n, d))
    if theta is None:
        theta = rng.normal(size=d)
    rewards = features @ theta + noise * rng.standard_normal(n)
    return _dataset(features, rewards), theta


def test_ridge_fit_empty_dataset_is_zero():
    estimate = ridge_fit(InteractionDataset(3), 1.0)
    assert np.array_equal(estimate.theta_hat, np.zeros(3))
    assert estimate.n_samples == 0
    assert np.array_equal(estimate.sigma_prime_n.matrix, np.eye(3))


def test_ridge_fit_single_record():
    dataset = _dataset([[1.0, 0.0, 0.0]], [1.0])
    estimate = ridge_fit(dataset, 1.0)
    assert np.allclose(estimate.theta_hat, [0.5, 0.0, 0.0], atol=1e-14)


def test_ridge_fit_matches_normal_equation_oracle():
    rng = np.random.default_rng(41)
    dataset, _ = _random_dataset(rng, 500, 10)
    lam = 0.3
    estimate = ridge_fit(dataset, lam)
    features = dataset.feature_matrix()
    oracle = np.linalg.solve(
        features.T @ features + lam * np.eye(10), features.T @ dataset.rewards()
    )
    rel = np.linalg.norm(estimate.theta_hat - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-8


def test_ridge_fit_rejects_bad_inputs():
    dataset = _dataset([[1.0, 0.0]], [np.nan])
    with pytest.raises(DataError):
        ridge_fit(dataset, 1.0)
    with pytest.raises(ConfigurationError):
        ridge_fit(InteractionDataset(2), 0.0)


@pytest.mark.parametrize("features, rewards, message", [
    # Finite features whose Gram matrix overflows to inf.
    ([[1e200, 1.0], [2.0, -1e200]], [1.0, 2.0], "overflow"),
    # A finite Gram matrix with an overflowing right-hand side.
    ([[1e150, 0.0]], [1e300], "overflow"),
    # A finite Gram matrix of 1e200 entries that swallows lambda_reg: singular.
    ([[1e100, 1e100]], [1.0], "not positive definite"),
], ids=["gram-overflow", "rhs-overflow", "not-positive-definite"])
def test_ridge_fit_arrays_raises_data_error_on_unsolvable_normal_equations(
        features, rewards, message):
    with pytest.raises(DataError, match=message):
        ridge_fit_arrays(np.array(features), np.array(rewards), 1.0)


def test_greedy_action_basic():
    estimate = ridge_fit(InteractionDataset(2), 1.0)
    estimate = RidgeEstimate(np.array([1.0, 0.0]), estimate.sigma_prime_n, 0)
    context = make_context([[1.0, 0.0], [0.0, 1.0]])
    assert greedy_action(estimate, context) == 0


def test_greedy_action_tie_breaks_low():
    estimate = ridge_fit(InteractionDataset(2), 1.0)  # theta = 0, all scores tie
    context = make_context([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert greedy_action(estimate, context) == 0


def test_greedy_action_matches_scan_oracle():
    rng = np.random.default_rng(42)
    base = ridge_fit(InteractionDataset(6), 1.0)
    for _ in range(20):
        estimate = RidgeEstimate(rng.normal(size=6), base.sigma_prime_n, 0)
        context = make_context(rng.normal(size=(20, 6)))
        scores = [float(row @ estimate.theta_hat) for row in context.features]
        oracle = max(range(20), key=lambda a: (scores[a], -a))
        assert greedy_action(estimate, context) == oracle


def _instance_with_contexts(theta, contexts):
    return BanditInstance(
        d=len(theta),
        theta_star=np.asarray(theta, dtype=np.float64),
        context_sampler=lambda rng: contexts[0],
        noise_std=0.0,
    )


def test_evaluate_perfect_estimate_has_zero_gap(rng):
    contexts = unit_ball_contexts(rng, 30, 3, 4)
    theta = np.array([1.0, -0.5, 0.25])
    instance = _instance_with_contexts(theta, contexts)
    base = ridge_fit(InteractionDataset(3), 1.0)
    estimate = RidgeEstimate(theta, base.sigma_prime_n, 0)
    report = evaluate(estimate, instance, contexts)
    assert report.expected_suboptimality == 0.0
    assert report.n_eval_contexts == 30


def test_evaluate_forced_wrong_action_gap_is_one():
    context = make_context([[1.0, 0.0], [0.0, 1.0]])
    theta_star = np.array([1.0, 0.0])
    instance = _instance_with_contexts(theta_star, [context])
    base = ridge_fit(InteractionDataset(2), 1.0)
    estimate = RidgeEstimate(np.array([0.0, 1.0]), base.sigma_prime_n, 0)
    report = evaluate(estimate, instance, [context])
    assert report.expected_suboptimality == pytest.approx(1.0)
    assert report.policy_value == pytest.approx(0.0)


def test_evaluate_matches_enumeration_oracle(rng):
    contexts = unit_ball_contexts(rng, 40, 4, 6)
    theta_star = rng.normal(size=4)
    instance = _instance_with_contexts(theta_star, contexts)
    dataset, _ = _random_dataset(rng, 100, 4, theta=theta_star, noise=0.5)
    estimate = ridge_fit(dataset, 1.0)
    report = evaluate(estimate, instance, contexts)
    gaps = []
    for context in contexts:
        true_scores = context.features @ theta_star
        chosen = int(np.argmax(context.features @ estimate.theta_hat))
        gaps.append(float(true_scores.max() - true_scores[chosen]))
    assert report.expected_suboptimality == pytest.approx(np.mean(gaps), abs=1e-12)
    assert report.expected_suboptimality >= -1e-8


def test_evaluate_requires_contexts_and_theta(rng):
    contexts = unit_ball_contexts(rng, 5, 3, 4)
    theta = np.zeros(3)
    instance = _instance_with_contexts(theta, contexts)
    estimate = ridge_fit(InteractionDataset(3), 1.0)
    with pytest.raises(ConfigurationError):
        evaluate(estimate, instance, [])
    misspecified = BanditInstance(
        d=3, theta_star=None, context_sampler=lambda rng: contexts[0],
        reward_fn=lambda c, a, g: 0.0,
    )
    with pytest.raises(ContractViolation):
        evaluate(estimate, misspecified, contexts)


def test_prediction_error_sandwich(rng):
    # |phi (theta* - theta_hat)| <= ||phi||_{Sigma^-1} ||theta*-theta_hat||_Sigma
    dataset, theta_star = _random_dataset(rng, 80, 5, noise=1.0)
    estimate = ridge_fit(dataset, 1.0)
    sigma = estimate.sigma_prime_n.matrix
    err = theta_star - estimate.theta_hat
    err_norm = math.sqrt(float(err @ sigma @ err))
    for _ in range(50):
        phi = rng.normal(size=5)
        lhs = abs(float(phi @ err))
        rhs = estimate.sigma_prime_n.mahalanobis(phi) * err_norm
        assert lhs <= rhs + 1e-10


def test_suboptimality_bounded_by_twice_prediction_error(rng):
    contexts = unit_ball_contexts(rng, 50, 4, 5)
    theta_star = rng.normal(size=4)
    instance = _instance_with_contexts(theta_star, contexts)
    dataset, _ = _random_dataset(rng, 60, 4, theta=theta_star, noise=1.0)
    estimate = ridge_fit(dataset, 1.0)
    report = evaluate(estimate, instance, contexts)
    max_pred_error = np.mean(
        [
            float(np.abs(c.features @ (theta_star - estimate.theta_hat)).max())
            for c in contexts
        ]
    )
    assert report.expected_suboptimality <= 2.0 * max_pred_error + 1e-12


def test_reward_scaling_scales_theta_and_preserves_greedy(rng):
    dataset, _ = _random_dataset(rng, 60, 4, noise=0.5)
    estimate = ridge_fit(dataset, 1.0)
    doubled = _dataset(dataset.feature_matrix(), 2.0 * dataset.rewards())
    doubled_estimate = ridge_fit(doubled, 1.0)
    assert np.array_equal(doubled_estimate.theta_hat, 2.0 * estimate.theta_hat)
    scaled = _dataset(dataset.feature_matrix(), 3.7 * dataset.rewards())
    scaled_estimate = ridge_fit(scaled, 1.0)
    assert np.allclose(scaled_estimate.theta_hat, 3.7 * estimate.theta_hat, rtol=1e-12)
    for context in unit_ball_contexts(rng, 20, 4, 6):
        assert greedy_action(estimate, context) == greedy_action(scaled_estimate, context)


def test_report_serializes_with_config_echo(rng):
    contexts = unit_ball_contexts(rng, 10, 3, 4)
    theta = np.array([1.0, 0.0, 0.0])
    instance = _instance_with_contexts(theta, contexts)
    estimate = ridge_fit(InteractionDataset(3), 1.0)
    report = evaluate(estimate, instance, contexts)
    payload = json.loads(report.to_json(config_echo={"seed": 3}))
    assert payload["config"] == {"seed": 3}
    assert payload["n_eval_contexts"] == 10
    assert "expected_max_uncertainty" in payload


def _reference_report(estimate, contexts, true_values):
    """Evaluation one context at a time: greedy_action, the true scores of
    the context and one mahalanobis_rows call on its feature rows."""
    n = len(contexts)
    gaps, values, uncertainties = np.empty(n), np.empty(n), np.empty(n)
    for i, context in enumerate(contexts):
        true_scores = true_values[i]
        chosen = greedy_action(estimate, context)
        values[i] = true_scores[chosen]
        gaps[i] = float(true_scores.max()) - values[i]
        uncertainties[i] = float(estimate.sigma_prime_n.mahalanobis_rows(context.features).max())
    scale = math.sqrt(n) if n > 1 else 1.0
    return EvaluationReport(
        expected_max_uncertainty=float(uncertainties.mean()),
        expected_suboptimality=float(gaps.mean()),
        policy_value=float(values.mean()),
        n_eval_contexts=n,
        suboptimality_stderr=float(gaps.std(ddof=1) / scale) if n > 1 else 0.0,
        policy_value_stderr=float(values.std(ddof=1) / scale) if n > 1 else 0.0,
    )


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 30),
    action_counts=st.lists(st.integers(1, 12), min_size=1, max_size=40),
    uniform=st.booleans(),
    block_floats=st.sampled_from([1, 7, 64, 500, covariance_module._BLOCK_FLOATS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evaluation_matches_per_context_loop(d, action_counts, uniform, block_floats,
                                                     seed):
    # Block sizes from one context per block up to the module default, so
    # sets with mixed action counts span several blocks per group; uniform
    # sets (single-action ones among them) take the contiguous-slice path.
    # One stacked set is evaluated against several estimates, and so is the
    # plain list, which stacks on the spot.
    if uniform:
        action_counts = [action_counts[0]] * len(action_counts)
    rng = np.random.default_rng(seed)
    contexts = [Context(f"c{i}", rng.normal(size=(a, d))) for i, a in enumerate(action_counts)]
    theta_star = rng.normal(size=d)
    instance = _instance_with_contexts(theta_star, contexts)
    labels = [rng.integers(0, 3, size=c.n_actions).astype(np.float64) for c in contexts]
    true_scores = [c.features @ theta_star for c in contexts]
    fits = [ridge_fit(_dataset(rng.normal(size=(k * d, d)), rng.normal(size=k * d)), lam)
            for k, lam in ((3, 0.7), (1, 2.0))]
    tied = RidgeEstimate(np.zeros(d), fits[0].sigma_prime_n, fits[0].n_samples)
    with mock.patch.object(covariance_module, "_BLOCK_FLOATS", block_floats):
        linear_set = EvaluationSet(contexts, theta_star=instance.theta_star)
        labelled_set = EvaluationSet(contexts, true_values=labels)
        for estimate in (tied, *fits):
            reports = [
                (evaluate(estimate, instance, linear_set), true_scores),
                (evaluate(estimate, instance, contexts), true_scores),
                (evaluate_values(estimate, labelled_set), labels),
                (evaluate_values(estimate, linear_set), true_scores),
            ]
            for report, truth in reports:
                expected = _reference_report(estimate, contexts, truth)
                for field in EvaluationReport.__dataclass_fields__:
                    assert getattr(report, field) == getattr(expected, field), field
    # Every score of the tied estimate is 0, so the greedy policy takes action 0.
    assert (evaluate_values(tied, labelled_set).policy_value
            == float(np.mean([label[0] for label in labels])))


def test_evaluation_set_is_read_only_and_positions_cover_every_context(rng):
    contexts = unit_ball_contexts(rng, 7, 3, 2) + unit_ball_contexts(rng, 5, 3, 4)
    eval_set = EvaluationSet(contexts, theta_star=rng.normal(size=3))
    assert (eval_set.n, eval_set.d) == (12, 3)
    covered = np.concatenate([np.arange(12)[block.position] for block in eval_set.blocks])
    assert sorted(covered.tolist()) == list(range(12))
    for block in eval_set.blocks:
        assert not block.features.flags.writeable and not block.true.flags.writeable
    uniform = EvaluationSet(contexts[:7], true_values=[np.zeros(2)] * 7)
    assert [block.position for block in uniform.blocks] == [slice(0, 7)]


def test_evaluate_rejects_a_set_of_other_true_values(rng):
    contexts = unit_ball_contexts(rng, 4, 3, 2)
    instance = _instance_with_contexts(np.ones(3), contexts)
    estimate = ridge_fit(InteractionDataset(3), 1.0)
    for eval_set in (EvaluationSet(contexts, theta_star=np.full(3, 2.0)),
                     EvaluationSet(contexts, true_values=[np.zeros(2)] * 4)):
        with pytest.raises(ContractViolation):
            evaluate(estimate, instance, eval_set)
    with pytest.raises(ContractViolation):
        evaluate_values(estimate, contexts)
    with pytest.raises(ContractViolation):
        evaluate(ridge_fit(InteractionDataset(2), 1.0), instance, contexts)
    with pytest.raises(ConfigurationError):
        EvaluationSet([], theta_star=np.ones(3))


_TWO_ACTION_CONTEXTS = [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]


@pytest.mark.parametrize("labels, message", [
    # Before the check, a third value made the gap count an action that
    # does not exist: expected_suboptimality 9.0 and no error.
    ([[0.0, 0.0, 9.0]] * 3, r"shape \(3,\), expected \(2,\)"),
    ([[0.0, 1.0]] * 2, "2 true-value arrays for 3"),  # was an IndexError
    ([[0.0, 1.0], [1.0, 0.0], [1.0]], r"shape \(1,\)"),  # ragged block: a bare ValueError
    ([[0.0, 1.0], [np.nan, 0.0], [1.0, 0.0]], "non-finite"),
    ([[0.0, 1.0], ["high", 0.0], [1.0, 0.0]], "not numbers"),
], ids=["values-for-missing-actions", "too-few-entries", "ragged-block", "non-finite",
        "not-numbers"])
def test_evaluate_values_checks_true_values_while_stacking(labels, message):
    contexts = [make_context(rows, f"c{i}") for i, rows in enumerate(_TWO_ACTION_CONTEXTS)]
    with pytest.raises(ContractViolation, match=message):
        EvaluationSet(contexts, true_values=labels)


def test_evaluate_rejects_mismatched_context_dimension():
    estimate = ridge_fit(InteractionDataset(2), 1.0)
    contexts = [make_context([[1.0, 0.0]]), make_context([[1.0, 0.0, 0.0]])]
    with pytest.raises(ContractViolation):
        evaluate(estimate, _instance_with_contexts(np.ones(2), contexts), contexts)
    with pytest.raises(ContractViolation):
        EvaluationSet(contexts, true_values=[np.zeros(1), np.zeros(1)])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 30), total=st.integers(1, 80), data=st.data())
def test_prefix_slice_fit_equals_ridge_fit_on_prefix_dataset(d, total, data):
    n = data.draw(st.integers(0, total))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dataset = _dataset(rng.normal(size=(total, d)), rng.normal(size=total))
    features, rewards = dataset.feature_matrix(), dataset.rewards()
    sliced = ridge_fit_arrays(features[:n], rewards[:n], 0.5)
    direct = ridge_fit(make_dataset(d, dataset.records[:n]), 0.5)
    assert sliced.theta_hat.tobytes() == direct.theta_hat.tobytes()
    assert sliced.sigma_prime_n.matrix.tobytes() == direct.sigma_prime_n.matrix.tobytes()
    assert sliced.n_samples == direct.n_samples == n
