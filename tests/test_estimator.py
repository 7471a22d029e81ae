import json
import math
import os
import subprocess
import sys
from pathlib import Path
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
    ContextLaw,
    EvaluationReport,
    ExperimentConfig,
    RidgeEstimate,
    evaluate,
    full_feedback,
    greedy_action,
    make_synthetic,
    plan,
    ridge_fit,
    sample,
)
from mixplan.estimator import EvaluationSet

from conftest import make_context, make_dataset, snapshot_of, unit_ball_contexts


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
    assert np.array_equal(estimate.sigma_prime_n, np.eye(3))


@pytest.mark.parametrize("collection", ["sample", "full_feedback"])
def test_ridge_fit_returns_its_gram_matrix_read_only(collection):
    # Sigma'_N is lambda I + X^T X as computed, with no symmetrizing pass,
    # on prefixes of a sampled and of an exploded full-feedback dataset.
    instance, rng, lam = make_synthetic(5), np.random.default_rng(23), 0.7
    if collection == "sample":
        policy, _ = plan(instance.draw_contexts(rng, 40), ExperimentConfig(M=40, N=40),
                         norm_cap=None)
        dataset = sample(policy, instance, 40, rng)
    else:
        dataset, _ = full_feedback(instance, 12, rng)
    for n in (0, 1, 7, len(dataset) // 2, len(dataset)):
        estimate = ridge_fit(dataset[:n], lam)
        features = dataset[:n].feature_matrix()
        expected = lam * np.eye(dataset.d) + features.T @ features
        assert isinstance(estimate.sigma_prime_n, np.ndarray)
        assert estimate.sigma_prime_n.tobytes() == expected.tobytes()
        assert not estimate.sigma_prime_n.flags.writeable
        assert not estimate.theta_hat.flags.writeable


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
    # An infinite lambda_reg once failed as features too large.
    for lambda_reg in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="lambda_reg must be positive and finite"):
            ridge_fit(_dataset([[1.0, 0.0]], [1.0]), lambda_reg)


@pytest.mark.parametrize("features, rewards, message", [
    # Finite features whose Gram matrix overflows to inf.
    ([[1e200, 1.0], [2.0, -1e200]], [1.0, 2.0], "overflow"),
    # A finite Gram matrix with an overflowing right-hand side.
    ([[1e150, 0.0]], [1e300], "overflow"),
    # A finite Gram matrix of 1e200 entries that swallows lambda_reg: singular.
    ([[1e100, 1e100]], [1.0], "not positive definite"),
], ids=["gram-overflow", "rhs-overflow", "not-positive-definite"])
def test_ridge_fit_raises_data_error_on_unsolvable_normal_equations(features, rewards, message):
    with pytest.raises(DataError, match=message):
        ridge_fit(_dataset(features, rewards), 1.0)


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
        context_law=ContextLaw.of_sampler(lambda rng: contexts[0]),
        noise_std=0.0,
    )


def _labelled_instance(contexts, labels):
    """An instance whose rewards are ``labels``, one row per context."""
    return BanditInstance(
        d=contexts[0].d,
        theta_star=None,
        context_law=ContextLaw.of_sampler(lambda rng: contexts[0]),
        labels={c.context_id: label for c, label in zip(contexts, labels)},
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
        d=3, theta_star=None, context_law=ContextLaw.of_sampler(lambda rng: contexts[0]),
        labels={c.context_id: np.zeros(c.n_actions) for c in contexts},
    )
    with pytest.raises(ContractViolation):
        evaluate(estimate, misspecified, contexts)


def test_prediction_error_sandwich(rng):
    # |phi (theta* - theta_hat)| <= ||phi||_{Sigma^-1} ||theta*-theta_hat||_Sigma
    dataset, theta_star = _random_dataset(rng, 80, 5, noise=1.0)
    estimate = ridge_fit(dataset, 1.0)
    sigma = estimate.sigma_prime_n
    err = theta_star - estimate.theta_hat
    err_norm = math.sqrt(float(err @ sigma @ err))
    for _ in range(50):
        phi = rng.normal(size=5)
        lhs = abs(float(phi @ err))
        rhs = math.sqrt(float(phi @ np.linalg.solve(sigma, phi))) * err_norm
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
    snap = snapshot_of(estimate.sigma_prime_n)
    for i, context in enumerate(contexts):
        true_scores = true_values[i]
        chosen = greedy_action(estimate, context)
        values[i] = true_scores[chosen]
        gaps[i] = float(true_scores.max()) - values[i]
        uncertainties[i] = float(snap.mahalanobis_rows(context.features).max())
    scale = math.sqrt(n) if n > 1 else 1.0
    return EvaluationReport(
        expected_max_uncertainty=float(uncertainties.mean()),
        expected_suboptimality=float(gaps.mean()),
        policy_value=float(values.mean()),
        n_eval_contexts=n,
        suboptimality_stderr=float(gaps.std(ddof=1) / scale) if n > 1 else 0.0,
        policy_value_stderr=float(values.std(ddof=1) / scale) if n > 1 else 0.0,
    )


def _zero_some_rows(features, rng, share):
    """``features`` with each row set to zero (some as -0.0) with probability ``share``."""
    zero = rng.random(len(features)) < share
    features[zero] = np.where(rng.random((int(zero.sum()), features.shape[1])) < 0.5, 0.0, -0.0)
    return features


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 30),
    action_counts=st.lists(st.integers(1, 12), min_size=1, max_size=40),
    uniform=st.booleans(),
    block_floats=st.sampled_from([1, 7, 64, 500, covariance_module._BLOCK_FLOATS]),
    zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evaluation_matches_per_context_loop(d, action_counts, uniform, block_floats,
                                                     zero_share, seed):
    # Block sizes from one context per block up to the module default, so
    # sets with mixed action counts span several blocks per group; uniform
    # sets (single-action ones among them) take the contiguous-slice path.
    # About ``zero_share`` of the feature rows are all zero, so blocks keep
    # every row, some, one or none of them live. One stacked set is
    # evaluated against several estimates, and so is the plain list, which
    # stacks on the spot.
    if uniform:
        action_counts = [action_counts[0]] * len(action_counts)
    rng = np.random.default_rng(seed)
    contexts = [Context(f"c{i}", _zero_some_rows(rng.normal(size=(a, d)), rng, zero_share))
                for i, a in enumerate(action_counts)]
    theta_star = rng.normal(size=d)
    instance = _instance_with_contexts(theta_star, contexts)
    labels = [rng.integers(0, 3, size=c.n_actions).astype(np.float64) for c in contexts]
    labelled = _labelled_instance(contexts, labels)
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
                (evaluate(estimate, labelled, labelled_set), labels),
            ]
            for report, truth in reports:
                expected = _reference_report(estimate, contexts, truth)
                for field in EvaluationReport.__dataclass_fields__:
                    assert getattr(report, field) == getattr(expected, field), field
    # Every score of the tied estimate is 0, so the greedy policy takes action 0.
    assert (evaluate(tied, labelled, labelled_set).policy_value
            == float(np.mean([label[0] for label in labels])))


def _live_row_case(name):
    """(contexts, theta_star, _BLOCK_FLOATS) of a named evaluation set with
    all-zero feature rows."""
    rng = np.random.default_rng(sum(map(ord, name)))
    d = 5
    if name == "synthetic":
        instance = make_synthetic(20)
        contexts = instance.draw_contexts(rng, 400)
        return contexts, instance.theta_star, covariance_module._BLOCK_FLOATS
    if name == "all-zero":
        rows = [np.zeros((4, d)) for _ in range(6)]
        block_floats = 500
    elif name == "one-live-row-per-block":
        # One context per block, one nonzero row per context.
        rows = [np.zeros((3, d)) for _ in range(8)]
        for i, features in enumerate(rows):
            features[i % 3] = rng.normal(size=d)
        block_floats = 3 * d
    elif name == "one-live-row-in-a-set":
        rows = [np.zeros((3, d)) for _ in range(8)]
        rows[5][2] = rng.normal(size=d)
        block_floats = 500
    elif name == "two-live-rows":
        rows = [np.zeros((4, d)) for _ in range(8)]
        rows[1][3] = rng.normal(size=d)
        rows[6][0] = rng.normal(size=d)
        block_floats = 500
    elif name == "zero-single-action":
        rows = [rng.normal(size=(1, d)) * (i % 2) for i in range(9)]
        block_floats = 500
    else:  # mixed action counts, some contexts all zero, some with no zero row
        rows = [_zero_some_rows(rng.normal(size=(a, d)), rng, share)
                for a, share in zip([1, 2, 3, 5, 1, 2, 3, 5, 2, 3, 1, 5] * 3,
                                    [0.0, 0.5, 1.0, 0.6] * 9)]
        block_floats = 7 * d
    contexts = [Context(f"c{i}", features) for i, features in enumerate(rows)]
    return contexts, rng.normal(size=d), block_floats


LIVE_ROW_CASES = ["all-zero", "one-live-row-per-block", "one-live-row-in-a-set",
                  "two-live-rows", "zero-single-action", "mixed", "synthetic"]


def live_row_mismatches(name) -> list:
    """What differs in any bit between evaluating a live-row case stacked
    and one context at a time: report fields, and blocks whose norms
    differ from one ``mahalanobis_rows`` call per context."""
    contexts, theta_star, block_floats = _live_row_case(name)
    d = len(theta_star)
    rng = np.random.default_rng(3)
    instance = _instance_with_contexts(theta_star, contexts)
    labels = [rng.integers(0, 3, size=c.n_actions).astype(np.float64) for c in contexts]
    labelled = _labelled_instance(contexts, labels)
    true_scores = [c.features @ theta_star for c in contexts]
    fits = [ridge_fit(_dataset(rng.normal(size=(k * d, d)), rng.normal(size=k * d)), lam)
            for k, lam in ((3, 0.7), (1, 2.0))]
    mismatches = []
    with mock.patch.object(covariance_module, "_BLOCK_FLOATS", block_floats):
        linear_set = EvaluationSet(contexts, theta_star=theta_star)
        labelled_set = EvaluationSet(contexts, true_values=labels)
        for k, estimate in enumerate(fits):
            reports = [
                ("set", evaluate(estimate, instance, linear_set), true_scores),
                ("list", evaluate(estimate, instance, contexts), true_scores),
                ("labels", evaluate(estimate, labelled, labelled_set), labels),
            ]
            for kind, report, truth in reports:
                expected = _reference_report(estimate, contexts, truth)
                mismatches += [f"{kind}/{k}/{field}"
                               for field in EvaluationReport.__dataclass_fields__
                               if getattr(report, field) != getattr(expected, field)]
            snap = snapshot_of(estimate.sigma_prime_n)
            for b, block in enumerate(linear_set.blocks):
                norms = covariance_module._block_norms(snap.factor, block.features, block.live)
                one_at_a_time = np.stack([snap.mahalanobis_rows(rows) for rows in block.features])
                if norms.tobytes() != one_at_a_time.tobytes():
                    mismatches.append(f"norms/{k}/block {b}")
    return mismatches


@pytest.mark.parametrize("name", LIVE_ROW_CASES)
def test_live_row_evaluation_matches_per_context_loop(name):
    assert live_row_mismatches(name) == []


def test_evaluation_set_records_live_rows_once():
    # A block keeps a copy of its live rows when they are two or more and
    # no more than its zero rows, and the set records them when it is
    # stacked, not at each evaluation.
    contexts, theta_star, block_floats = _live_row_case("mixed")
    instance = _instance_with_contexts(theta_star, contexts)
    rng = np.random.default_rng(5)
    estimate = ridge_fit(_dataset(rng.normal(size=(20, 5)), rng.normal(size=20)), 1.0)
    with mock.patch.object(covariance_module, "_BLOCK_FLOATS", block_floats), \
            mock.patch("mixplan.estimator._live_rows",
                       side_effect=covariance_module._live_rows) as live_rows:
        eval_set = EvaluationSet(contexts, theta_star=theta_star)
        assert live_rows.call_count == len(eval_set.blocks)
        for _ in range(3):
            evaluate(estimate, instance, eval_set)
        assert live_rows.call_count == len(eval_set.blocks)
    kept = 0
    for block in eval_set.blocks:
        g, n_actions, d = block.features.shape
        flat = block.features.reshape(g * n_actions, d)
        nonzero = np.flatnonzero(np.abs(flat).sum(axis=1) > 0)
        if n_actions == 1 or len(nonzero) < 2 or 2 * len(nonzero) > len(flat):
            assert block.live is None
        else:
            index, rows = block.live
            assert index.tolist() == nonzero.tolist()
            assert rows.tobytes() == flat[nonzero].tobytes() and not rows.flags.writeable
            kept += 1
    assert 0 < kept < len(eval_set.blocks)
    synthetic = make_synthetic(20)
    eval_set = EvaluationSet(synthetic.draw_contexts(np.random.default_rng(1), 50),
                             theta_star=synthetic.theta_star)
    # Every synthetic context has 10 actions, 5 of them all zero.
    assert sum(len(block.live[0]) for block in eval_set.blocks) == 250


def test_live_row_evaluation_matches_per_context_loop_at_two_blas_threads():
    # The BLAS thread count is fixed when numpy loads, so the check runs in
    # a fresh interpreter.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import json, test_estimator as t; "
              "print(json.dumps({n: t.live_row_mismatches(n) for n in t.LIVE_ROW_CASES}))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == {name: [] for name in LIVE_ROW_CASES}


def test_evaluation_set_is_read_only_and_positions_cover_every_context(rng):
    contexts = unit_ball_contexts(rng, 7, 3, 2) + unit_ball_contexts(rng, 5, 3, 4)
    eval_set = EvaluationSet(contexts, theta_star=rng.normal(size=3))
    assert (eval_set.n, eval_set.d) == (12, 3)
    covered = np.concatenate([np.arange(12)[block.position] for block in eval_set.blocks])
    assert sorted(covered.tolist()) == list(range(12))
    for block in eval_set.blocks:
        assert not block.features.flags.writeable and not block.true.flags.writeable
    uniform = EvaluationSet(contexts[:7], true_values=[np.zeros(2)] * 7)
    assert [np.arange(7)[block.position].tolist() for block in uniform.blocks] == [
        list(range(7))]


def test_evaluate_rejects_a_set_of_other_true_values(rng):
    contexts = unit_ball_contexts(rng, 4, 3, 2)
    instance = _instance_with_contexts(np.ones(3), contexts)
    labels = [np.zeros(2)] * 4
    labelled = _labelled_instance(contexts, labels)
    labelled_set = EvaluationSet(contexts, true_values=labels)
    estimate = ridge_fit(InteractionDataset(3), 1.0)
    # A linear instance takes a set of its own theta_star's scores; a
    # labelled one a set of recorded values, not theta_star's scores and
    # not a plain context list.
    for owner, eval_contexts in ((instance, EvaluationSet(contexts, theta_star=np.full(3, 2.0))),
                                 (instance, labelled_set),
                                 (labelled, EvaluationSet(contexts, theta_star=np.ones(3))),
                                 (labelled, contexts)):
        with pytest.raises(ContractViolation):
            evaluate(estimate, owner, eval_contexts)
    assert evaluate(estimate, labelled, labelled_set).n_eval_contexts == 4
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
def test_evaluation_set_checks_true_values_while_stacking(labels, message):
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
    sliced = ridge_fit(dataset[:n], 0.5)
    direct = ridge_fit(make_dataset(d, list(dataset)[:n]), 0.5)
    assert sliced.theta_hat.tobytes() == direct.theta_hat.tobytes()
    assert sliced.sigma_prime_n.tobytes() == direct.sigma_prime_n.tobytes()
    assert sliced.n_samples == direct.n_samples == n
