"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated at runtime.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from mixplan import (
    BernoulliChain,
    ExperimentConfig,
    RunConfig,
    coverage_test,
    evaluate,
    make_hard_uniform,
    make_synthetic,
    offline_context_requirement,
    online_regularization_requirement,
    plan,
    potential_check,
    reverse_bernstein_pair,
    ridge_fit,
    run_experiment,
    sample,
    sandwich_check,
    switch_bound_check,
)
from mixplan.core import InteractionDataset, InteractionRecord
from mixplan.environments import RankDatasetSpec, build_rank_contexts, parse_rank_file

from conftest import unit_ball_contexts

DATA = Path(__file__).parent / "data"


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance {number:02d}] {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed: {detail}"


def test_criterion_01_ridge_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 21))
        n = int(rng.integers(1, 501))
        lam = float(rng.uniform(0.05, 5.0))
        features = rng.normal(size=(n, d))
        rewards = rng.normal(size=n)
        records = [
            InteractionRecord(f"r{i}", 0, features[i], float(rewards[i]))
            for i in range(n)
        ]
        estimate = ridge_fit(InteractionDataset(d, records), lam)
        oracle = np.linalg.solve(
            features.T @ features + lam * np.eye(d), features.T @ rewards
        )
        denom = max(np.linalg.norm(oracle), 1e-30)
        worst = max(worst, float(np.linalg.norm(estimate.theta_hat - oracle)) / denom)
    elapsed = time.perf_counter() - start
    _report(
        1, "ridge oracle equivalence",
        worst < 1e-8 and elapsed < 10.0,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_switch_count_lemma():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    runs = 0
    worst_margin = math.inf
    failures = []
    for d in (2, 3, 5, 8, 12):
        for lam in (0.5, 1.0, 2.0, 10.0):
            for M in (50, 400):
                for repeat in range(5):
                    contexts = unit_ball_contexts(rng, M, d, 4)
                    config = ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=1.0)
                    policy, _ = plan(contexts, config)
                    check = switch_bound_check(policy, config)
                    runs += 1
                    worst_margin = min(worst_margin, check.bound - check.snapshot_count)
                    if not check.passed:
                        failures.append((d, lam, M, repeat))
    elapsed = time.perf_counter() - start
    _report(
        2, "switch-count lemma exact",
        runs == 200 and not failures and elapsed < 60.0,
        f"{runs} runs, worst margin {worst_margin:.2f}, {elapsed:.1f}s",
    )


def test_criterion_03_decreasing_uncertainty():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst_increase = -math.inf
    for d, lam in ((2, 1.0), (4, 1.0), (4, 0.5), (6, 2.0), (8, 1.0), (3, 5.0)):
        contexts = unit_ball_contexts(rng, 300, d, 5)
        policy, _ = plan(contexts, ExperimentConfig(M=300, N=300, lambda_reg=lam, alpha=1.0))
        probes = unit_ball_contexts(rng, 50, d, 5)
        for probe in probes:
            maxima = np.array(
                [float(s.mahalanobis_rows(probe.features).max()) for s in policy.snapshots]
            )
            if len(maxima) > 1:
                worst_increase = max(worst_increase, float(np.diff(maxima).max()))
    elapsed = time.perf_counter() - start
    _report(
        3, "decreasing uncertainty exact",
        worst_increase <= 1e-8 and elapsed < 60.0,
        f"worst per-snapshot increase {worst_increase:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_elliptical_potential():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    failures = 0
    worst_slack = math.inf
    for run in range(100):
        d = int(rng.integers(2, 9))
        lam = float(rng.choice([1.0, 2.0, 5.0]))
        alpha = float(rng.choice([1.0, 0.5]))
        contexts = unit_ball_contexts(rng, 250, d, 5)
        config = ExperimentConfig(M=250, N=250, lambda_reg=lam, alpha=alpha)
        policy, _ = plan(contexts, config)
        check = potential_check(math.sqrt(alpha) * policy.features, lam)
        worst_slack = min(worst_slack, check.rhs - check.lhs_squared)
        if not check.passed:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        4, "elliptical potential (squared form)",
        failures == 0 and elapsed < 120.0,
        f"100 planner runs, worst slack {worst_slack:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_reverse_bernstein_coverage():
    start = time.perf_counter()
    report = coverage_test(
        BernoulliChain(horizon=100, kind="adapted"),
        reverse_bernstein_pair, trials=10_000, delta=0.05, seed=1005,
    )
    elapsed = time.perf_counter() - start
    threshold = 0.05 + 3.0 * math.sqrt(0.05 / 10_000)
    _report(
        5, "reverse Bernstein coverage",
        report.violation_rate <= threshold and elapsed < 120.0,
        f"violation rate {report.violation_rate:.4f} <= {threshold:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_covariance_sandwich():
    start = time.perf_counter()
    delta = 0.2
    d = 2
    lam = online_regularization_requirement(d, delta)
    N = 50
    M = offline_context_requirement(d, N, lam, delta)
    config = ExperimentConfig(M=M, N=N, lambda_reg=lam, alpha=N / M, delta=delta)
    result = sandwich_check(
        make_hard_uniform(10), config, trials=200, seed=1006, n_expectation_contexts=4
    )
    elapsed = time.perf_counter() - start
    detail = (
        f"lambda={lam:.1f}, M={M}, offline rate {result.offline.violation_rate:.3f}, "
        f"online rate {result.online.violation_rate:.3f}, "
        f"threshold {result.offline.threshold:.3f}, {elapsed:.0f}s"
    )
    _report(
        6, "covariance sandwich",
        result.offline.passed and result.online.passed and elapsed < 600.0,
        detail,
    )


def test_criterion_07_hard_instance_exploration_split():
    start = time.perf_counter()
    instance = make_hard_uniform(10)
    context = instance.context_sampler(np.random.default_rng(0))
    config = ExperimentConfig(M=2000, N=2000, lambda_reg=1.0, alpha=1.0)
    _, trace = plan([context] * 2000, config)
    planner_frequency = float(np.mean(trace.actions == 0))
    uniform_frequency = float(
        np.mean(np.random.default_rng(1007).integers(10, size=2000) == 0)
    )
    elapsed = time.perf_counter() - start
    _report(
        7, "hard-instance exploration split",
        0.4 <= planner_frequency <= 0.6 and abs(uniform_frequency - 0.1) < 0.03
        and elapsed < 30.0,
        f"planner picks the lone informative action {planner_frequency:.3f} of steps "
        f"vs {uniform_frequency:.3f} under uniform, {elapsed:.1f}s",
    )


def test_criterion_08_synthetic_ordering(tmp_path):
    start = time.perf_counter()
    horizon = 200
    finals = {}
    for algorithm in ("planner_sampler", "random", "largest_norm", "single_action",
                      "supervised_oracle"):
        n = 10_000 if algorithm == "supervised_oracle" else horizon
        config = RunConfig(
            environment="synthetic", algorithm=algorithm, N=n, alpha=1.0,
            lambda_reg=1.0, n_trials=20, eval_every=n, eval_set_size=2000,
            seed=0, output_path=str(tmp_path / algorithm),
        )
        finals[algorithm] = run_experiment(config).summary["final"]
    sp = finals["planner_sampler"]
    margins = {}
    for baseline in ("random", "largest_norm", "single_action"):
        other = finals[baseline]
        pooled = math.hypot(sp["policy_value_stderr"], other["policy_value_stderr"])
        margins[baseline] = (sp["policy_value_mean"] - other["policy_value_mean"]) / pooled
    sl_ok = finals["supervised_oracle"]["policy_value_mean"] >= sp["policy_value_mean"]
    elapsed = time.perf_counter() - start
    _report(
        8, "synthetic ordering (S-P > baselines, SL upper bound)",
        all(m >= 1.0 for m in margins.values()) and sl_ok and elapsed < 900.0,
        "margins in pooled standard errors: "
        + ", ".join(f"{k}={v:.2f}" for k, v in margins.items())
        + f"; SL {finals['supervised_oracle']['policy_value_mean']:.4f} >= "
          f"S-P {sp['policy_value_mean']:.4f}; {elapsed:.0f}s",
    )


def test_criterion_09_uncertainty_scaling():
    start = time.perf_counter()
    instance = make_synthetic(0)
    base = 500

    def uncertainty_at(n, trial):
        ss = np.random.SeedSequence(entropy=1009 + trial, spawn_key=(n,))
        s_offline, s_online, s_eval = ss.spawn(3)
        config = ExperimentConfig(M=n, N=n, lambda_reg=1.0, alpha=1.0)
        offline_rng = np.random.default_rng(s_offline)
        contexts = [instance.context_sampler(offline_rng) for _ in range(n)]
        policy, _ = plan(contexts, config, norm_cap=None)
        dataset = sample(policy, instance, n, np.random.default_rng(s_online))
        estimate = ridge_fit(dataset, 1.0)
        eval_rng = np.random.default_rng(s_eval)
        eval_contexts = [instance.context_sampler(eval_rng) for _ in range(2000)]
        return evaluate(estimate, instance, eval_contexts).expected_max_uncertainty

    small = np.mean([uncertainty_at(base, t) for t in range(10)])
    large = np.mean([uncertainty_at(4 * base, t) for t in range(10)])
    ratio = large / small
    elapsed = time.perf_counter() - start
    _report(
        9, "uncertainty scaling u(4N) <= 0.65 u(N)",
        ratio <= 0.65 and elapsed < 600.0,
        f"u({base})={small:.4f}, u({4 * base})={large:.4f}, ratio {ratio:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_ingestion_golden_round_trip():
    start = time.perf_counter()
    golden = json.loads((DATA / "rank_fixture_golden.json").read_text())
    spec = RankDatasetSpec(
        raw_dim=golden["spec"]["raw_dim"],
        subsampled_dim=golden["spec"]["subsampled_dim"],
        max_actions=golden["spec"]["max_actions"],
        norm_cap=golden["spec"]["norm_cap"],
    )
    contexts = build_rank_contexts(
        parse_rank_file(DATA / "rank_fixture.txt"),
        spec,
        np.array(golden["subsample_indices"]),
    )
    produced = [
        {
            "qid": rc.context.context_id,
            "n_actions": rc.context.n_actions,
            "relevance": [float(v) for v in rc.relevance],
            "features": [[float(v) for v in row] for row in rc.context.features],
        }
        for rc in contexts
    ]
    exact = produced == golden["contexts"]
    norms_ok = all(
        float(np.linalg.norm(row)) <= 1.0 + 1e-9
        for rc in contexts
        for row in rc.context.features
    )
    truncated = contexts[0].context.n_actions == 20
    elapsed = time.perf_counter() - start
    _report(
        10, "ingestion golden round trip",
        exact and norms_ok and truncated and elapsed < 1.0,
        f"3 contexts bit-exact, 22-doc query truncated to 20, {elapsed * 1000:.0f}ms",
    )
