import math

import numpy as np
import pytest

from mixplan import (
    BernoulliChain,
    ConfigurationError,
    ExperimentConfig,
    bernstein_bound,
    bernstein_pair,
    coverage_test,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    matrix_chernoff_tail,
    offline_context_requirement,
    online_regularization_requirement,
    plan,
    potential_check,
    reverse_bernstein_bound,
    reverse_bernstein_pair,
    sandwich_check,
    switch_bound_check,
    verify_lemmas,
)

from mixplan.planner import _greedy_block

from conftest import make_context, unit_ball_contexts


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def test_bernstein_bound_golden_values():
    e = math.e
    assert bernstein_bound(0.0, 1 / e) == pytest.approx(2.0, rel=1e-12)
    assert bernstein_bound(1.0, 1 / e) == pytest.approx(4.0, rel=1e-12)
    assert bernstein_bound(4.0, e**-4) == pytest.approx(16.0, rel=1e-12)


def test_reverse_bernstein_golden_value():
    bound = reverse_bernstein_bound(0.0, math.exp(-1.0))
    assert bound == pytest.approx(0.25 * (2.0 + math.sqrt(12.0)) ** 2, rel=1e-12)
    assert bound == pytest.approx(7.464, abs=1e-3)


def test_reverse_bernstein_limit_recovers_sum():
    # As delta -> 1 both correction constants vanish and the bound tends to
    # the realized sum itself.
    for sum_x in (0.0, 3.0, 42.0):
        bound = reverse_bernstein_bound(sum_x, 1.0 - 1e-12)
        assert bound == pytest.approx(sum_x, abs=1e-4)


def test_reverse_bernstein_monotonicity_grid():
    sums = np.linspace(0.0, 50.0, 21)
    bounds = reverse_bernstein_bound(sums, 0.05)
    assert (np.diff(bounds) > 0).all()
    for sum_x in (0.0, 5.0, 20.0):
        deltas = [0.5, 0.2, 0.05, 0.01]
        values = [reverse_bernstein_bound(sum_x, d) for d in deltas]
        assert (np.diff(values) > 0).all()  # grows as ln(1/delta) grows


def test_matrix_chernoff_tail_golden_values():
    assert matrix_chernoff_tail(10.0, 1.0, 0.0, 7, "min") == 7.0
    assert matrix_chernoff_tail(10.0, 1.0, 1.0, 1, "min") == pytest.approx(
        2.0**-10, rel=1e-12
    )
    assert matrix_chernoff_tail(40.0, 1.0, 0.0, 4, "doubling") == pytest.approx(
        4.0 * math.exp(-10.0), rel=1e-12
    )
    assert matrix_chernoff_tail(10.0, 1.0, 1.0, 1, "max") == pytest.approx(
        0.75**10, rel=1e-12
    )


def test_matrix_chernoff_tail_validation():
    with pytest.raises(ConfigurationError):
        matrix_chernoff_tail(0.0, 1.0, 0.5, 2, "min")
    with pytest.raises(ConfigurationError):
        matrix_chernoff_tail(1.0, 1.0, 1.5, 2, "min")
    with pytest.raises(ConfigurationError):
        matrix_chernoff_tail(1.0, 1.0, 0.5, 2, "median")


# ---------------------------------------------------------------------------
# Coverage tests
# ---------------------------------------------------------------------------


def test_reverse_bernstein_coverage_iid():
    report = coverage_test(
        BernoulliChain(horizon=100, kind="iid", p=0.3),
        reverse_bernstein_pair, trials=4000, delta=0.05, seed=0,
    )
    assert report.passed
    assert report.trials == 4000


def test_reverse_bernstein_coverage_adapted():
    report = coverage_test(
        BernoulliChain(horizon=100, kind="adapted"),
        reverse_bernstein_pair, trials=4000, delta=0.05, seed=1,
    )
    assert report.passed


def test_bernstein_coverage_iid():
    report = coverage_test(
        BernoulliChain(horizon=100, kind="iid", p=0.4),
        bernstein_pair, trials=4000, delta=0.05, seed=2,
    )
    assert report.passed


def test_constant_zero_process_never_violates():
    report = coverage_test(
        BernoulliChain(horizon=50, kind="iid", p=0.0),
        reverse_bernstein_pair, trials=500, delta=0.05, seed=3,
    )
    assert report.violations == 0


def test_coverage_report_threshold_math():
    report = coverage_test(
        BernoulliChain(horizon=10, kind="iid", p=0.2),
        reverse_bernstein_pair, trials=100, delta=0.05, seed=4,
    )
    assert report.threshold == pytest.approx(0.05 + 3 * math.sqrt(0.05 / 100))
    payload = report.to_json_dict()
    assert set(payload) >= {"trials", "violations", "target_delta", "pass", "seed"}


# ---------------------------------------------------------------------------
# Elliptical potential
# ---------------------------------------------------------------------------


def test_potential_check_single_basis_vector():
    check = potential_check(np.array([[1.0, 0.0]]), 1.0)
    assert check.lhs_squared == pytest.approx(1.0, rel=1e-12)
    assert check.rhs == pytest.approx(3.0 * math.log(2.0), rel=1e-12)
    assert check.passed


def test_potential_check_zero_vectors():
    check = potential_check(np.zeros((5, 3)), 1.0)
    assert check.lhs_squared == 0.0
    assert check.rhs == pytest.approx(0.0, abs=1e-12)
    assert check.passed


def test_potential_check_random_unit_vectors_sweep():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(1000, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors *= rng.uniform(0.0, 1.0, size=(1000, 1))
        check = potential_check(vectors, 1.0)
        assert check.passed, f"seed {seed}: {check}"


def test_potential_check_long_dense_run():
    rng = np.random.default_rng(77)
    vectors = rng.normal(size=(10_000, 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    check = potential_check(vectors, 1.0)
    assert check.passed


def test_potential_check_preconditions():
    with pytest.raises(ConfigurationError):
        potential_check(np.array([[1.0, 0.0]]), 0.5)
    with pytest.raises(ConfigurationError):
        potential_check(np.array([[2.0, 0.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        potential_check(np.zeros((0, 2)), 1.0)


# ---------------------------------------------------------------------------
# Switch-count lemma
# ---------------------------------------------------------------------------


def _plan_random(seed, d, M, lam):
    rng = np.random.default_rng(seed)
    contexts = unit_ball_contexts(rng, M, d, 5)
    config = ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=1.0)
    policy, _ = plan(contexts, config)
    return policy, config


def test_switch_bound_check_on_small_runs():
    policy, config = _plan_random(0, d=2, M=1, lam=1.0)
    check = switch_bound_check(policy, config)
    assert check.snapshot_count == 1
    assert check.passed

    policy, config = _plan_random(1, d=5, M=100, lam=1.0)
    check = switch_bound_check(policy, config)
    assert check.bound == pytest.approx(5 * math.log2(21))
    assert check.passed

    policy, config = _plan_random(2, d=2, M=1000, lam=10.0)
    check = switch_bound_check(policy, config)
    assert check.bound == pytest.approx(2 * math.log2(51))
    assert check.snapshot_count <= 11
    assert check.passed


def test_switch_bound_check_rejects_mismatched_config():
    policy, config = _plan_random(3, d=3, M=50, lam=1.0)
    other = ExperimentConfig(M=51, N=51, lambda_reg=1.0, alpha=1.0)
    with pytest.raises(ConfigurationError):
        switch_bound_check(policy, other)


# ---------------------------------------------------------------------------
# Covariance sandwich
# ---------------------------------------------------------------------------


def test_regularization_and_context_requirements():
    lam = online_regularization_requirement(2, 0.2)
    assert lam == pytest.approx(24.0 * math.log(16.0 / 0.2), rel=1e-12)
    M = offline_context_requirement(2, 50, lam, 0.2)
    K = max(1.0, 2 * math.log2(1.0 + M / (2 * lam)))
    required = (96.0 * K * 50 / lam) * math.log(192.0 * 2 * 50 * K / (lam * 0.2))
    assert M >= required


def test_sandwich_check_deterministic_single_context():
    # One fixed context makes the per-step conditional distributions point
    # masses, so SigmaBar is exact and both PSD events hold surely.
    delta = 0.2
    lam = online_regularization_requirement(2, delta)
    N = 30
    M = offline_context_requirement(2, N, lam, delta)
    config = ExperimentConfig(M=M, N=N, lambda_reg=lam, alpha=N / M, delta=delta)
    result = sandwich_check(
        make_hard_uniform(6), config, trials=10, seed=0, n_expectation_contexts=2
    )
    assert result.offline.violations == 0
    assert result.online.violations == 0
    assert result.passed


def test_sandwich_check_stochastic_contexts():
    delta = 0.2
    d = 3
    lam = online_regularization_requirement(d, delta)
    N = 30
    M = offline_context_requirement(d, N, lam, delta)
    instance = make_random_unit_instance(d, n_actions=4, seed=5)
    config = ExperimentConfig(M=M, N=N, lambda_reg=lam, alpha=N / M, delta=delta)
    result = sandwich_check(instance, config, trials=8, seed=1,
                            n_expectation_contexts=300)
    assert result.offline.passed
    assert result.online.passed


@pytest.mark.parametrize("kind", ["nonconcentrating", "mixed_random"])
def test_batched_snapshot_replay_matches_per_context_actions(kind):
    # Contexts with one and with two or more actions, interleaved: the
    # batched choice picks each context's action, norm and row as
    # snapshot_action and a solve of that context alone do, in context order.
    rng = np.random.default_rng(31)
    if kind == "nonconcentrating":
        instance = make_hard_nonconcentrating(d=4, M=8)
        contexts = [instance.context_sampler(rng) for _ in range(300)]
    else:
        pool = unit_ball_contexts(rng, 300, 4, 3)
        contexts = [make_context(c.features[: 1 + i % 3], f"c{i}") for i, c in enumerate(pool)]
    assert {c.n_actions for c in contexts} >= {1, 2}
    policy, _ = plan(contexts[:200], ExperimentConfig(M=200, N=200, lambda_reg=0.5, alpha=1.0))
    assert policy.snapshot_count > 1
    for k, snap in enumerate(policy.snapshots):
        expected = [policy.snapshot_action(k, c) for c in contexts]
        actions, values, rows = _greedy_block(snap, contexts)
        assert actions.tolist() == expected
        assert rows.tobytes() == np.array(
            [c.features[a] for c, a in zip(contexts, expected)]).tobytes()
        assert values.tobytes() == np.array(
            [snap.mahalanobis_rows(c.features)[a] for c, a in zip(contexts, expected)]).tobytes()


def test_lab_seeds_and_counts_are_checked_before_any_draw():
    # A negative seed once ended in numpy's ValueError, not a ConfigurationError.
    chain = BernoulliChain(horizon=10)
    for name, value in (("trials", 0), ("seed", -1), ("delta", 1.0)):
        with pytest.raises(ConfigurationError, match=f"{name} must"):
            coverage_test(chain, bernstein_pair, **{"trials": 10, "delta": 0.05, "seed": 0,
                                                    name: value})
    for name, value in (("seed", -1), ("sandwich_trials", 0), ("planner_runs", 0)):
        with pytest.raises(ConfigurationError, match=f"{name} must"):
            verify_lemmas(**{name: value})


def test_verify_lemmas_smoke():
    report = verify_lemmas(seed=0, coverage_trials=400, sandwich_trials=4,
                           planner_runs=4)
    assert report["pass"] is True
    assert report["bernstein"]["pass"]
    assert report["reverse_bernstein_adapted"]["pass"]
    assert report["switch_count"]["violations"] == 0
    assert "sandwich_below_threshold" in report
