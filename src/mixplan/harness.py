"""Reproducible experiment driver.

Runs multi-seed trials of one (environment, algorithm) pair: generate or
ingest the environment, run the offline phase on an independent context
stream, run the online phase with periodic ridge refits and evaluations,
and emit metric rows plus a summary with mean and standard error across
trials.

Each trial owns one master seed, split deterministically into environment,
offline-stream, online-stream, policy, and evaluation streams. The online
context stream depends only on the stream seed, so different algorithms
run with the same (seed, trial) observe the same contexts. The offline
stream is independent of the online one, and the exploration policy is
frozen before sampling begins; only the extracted greedy policy is
re-evaluated as samples accrue.

Everything written to metrics.csv is bit-reproducible for a fixed
configuration; wall-clock timings go to a separate timings.csv.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import (
    LargestNormPolicy,
    RandomPolicy,
    SingleActionPolicy,
)
from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ExperimentConfig,
    InteractionDataset,
    InteractionRecord,
)
from .estimator import RidgeEstimate, evaluate, greedy_action, ridge_fit
from .environments import (
    RankDatasetSpec,
    RankedContext,
    generate_standin_file,
    ingest_rank_dataset,
    make_hard_goptimal,
    make_hard_uniform,
    make_rank_instance,
    make_synthetic,
)
from .planner import plan

logger = logging.getLogger(__name__)

ENVIRONMENTS = ("synthetic", "hard_uniform", "hard_goptimal", "rank_dataset", "stand_in")
ALGORITHMS = ("planner_sampler", "random", "largest_norm", "single_action", "supervised_oracle")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one experiment run."""

    environment: str
    algorithm: str
    N: int
    M: Optional[int] = None
    alpha: Optional[float] = None
    lambda_reg: float = 1.0
    delta: float = 0.05
    epsilon: float = 0.1
    seed: int = 0
    n_trials: int = 1
    eval_every: int = 20
    eval_set_size: int = 2000
    output_path: Optional[str] = None
    n_actions: int = 10
    k: int = 3
    data_path: Optional[str] = None
    max_contexts: Optional[int] = None
    fixed_action: int = 0
    standin_queries: int = 200
    rank_raw_dim: int = 700
    rank_subsampled_dim: int = 300
    workers: int = 1

    def __post_init__(self):
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(f"unknown environment {self.environment!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.N < 1:
            raise ConfigurationError("N must be at least 1")
        if self.M is None:
            object.__setattr__(self, "M", self.N)
        if self.M < 1:
            raise ConfigurationError("M must be at least 1")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be at least 1")
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be at least 1")
        if self.eval_set_size < 1:
            raise ConfigurationError("eval_set_size must be at least 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.environment == "rank_dataset" and not self.data_path:
            raise ConfigurationError(
                "rank_dataset requires data_path; see the ingestion notes in the README "
                "(sparse 'label qid:<id> idx:val' format) or use the stand_in environment"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class MetricRow:
    trial: int
    n_samples_seen: int
    policy_value: float
    expected_suboptimality: Optional[float]
    expected_max_uncertainty: float
    wall_time_ms: float


@dataclass(frozen=True)
class RunResult:
    rows: tuple
    summary: dict
    output_dir: Path

    @property
    def metrics_path(self) -> Path:
        return self.output_dir / "metrics.csv"


@dataclass
class _TrialEnv:
    """Per-trial materialized environment."""

    instance: BanditInstance
    offline_contexts: list
    horizon: int
    norm_cap: Optional[float]
    evaluate_estimate: Callable[[RidgeEstimate], tuple]
    full_feedback_rewards: Callable[[Context, np.random.Generator], np.ndarray]


def _linear_env(instance: BanditInstance, config: RunConfig, seeds) -> _TrialEnv:
    s_offline, s_eval = seeds
    offline_rng = np.random.default_rng(s_offline)
    eval_rng = np.random.default_rng(s_eval)
    offline_contexts = [instance.context_sampler(offline_rng) for _ in range(config.M)]
    eval_contexts = [instance.context_sampler(eval_rng) for _ in range(config.eval_set_size)]

    def evaluate_estimate(estimate: RidgeEstimate):
        report = evaluate(estimate, instance, eval_contexts)
        return (
            report.policy_value,
            report.expected_suboptimality,
            report.expected_max_uncertainty,
        )

    def full_rewards(context: Context, rng: np.random.Generator) -> np.ndarray:
        return np.array(
            [instance.reward(context, a, rng) for a in range(context.n_actions)]
        )

    norm_cap = None if config.environment == "synthetic" else 1.0
    return _TrialEnv(
        instance=instance,
        offline_contexts=offline_contexts,
        horizon=config.N,
        norm_cap=norm_cap,
        evaluate_estimate=evaluate_estimate,
        full_feedback_rewards=full_rewards,
    )


def _rank_env(ingest, config: RunConfig, seeds) -> _TrialEnv:
    s_offline, s_stream = seeds
    train: Sequence[RankedContext] = ingest.train
    offline_pool: Sequence[RankedContext] = ingest.valid if ingest.valid else ingest.train
    test: Sequence[RankedContext] = ingest.test if ingest.test else ingest.train

    horizon = min(config.N, len(train))
    if config.max_contexts is not None:
        horizon = min(horizon, config.max_contexts)
    if horizon < config.N:
        logger.info("rank horizon capped at %d distinct contexts", horizon)

    offline_rng = np.random.default_rng(s_offline)
    offline_order = offline_rng.permutation(len(offline_pool))
    m_eff = min(config.M, len(offline_pool))
    offline_contexts = [offline_pool[int(i)].context for i in offline_order[:m_eff]]

    online_order = np.random.default_rng(s_stream).permutation(len(train))[:horizon]
    instance = make_rank_instance(train, order=online_order)

    test_features = [rc.context for rc in test]
    test_relevance = [rc.relevance for rc in test]
    relevance_by_id = {rc.context.context_id: rc.relevance for rc in train}

    def evaluate_estimate(estimate: RidgeEstimate):
        values = np.empty(len(test_features))
        uncertainties = np.empty(len(test_features))
        for i, context in enumerate(test_features):
            values[i] = test_relevance[i][greedy_action(estimate, context)]
            uncertainties[i] = float(
                estimate.sigma_prime_n.mahalanobis_rows(context.features).max()
            )
        return float(values.mean()), None, float(uncertainties.mean())

    def full_rewards(context: Context, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(relevance_by_id[context.context_id], dtype=np.float64)

    return _TrialEnv(
        instance=instance,
        offline_contexts=offline_contexts,
        horizon=horizon,
        norm_cap=1.0,
        evaluate_estimate=evaluate_estimate,
        full_feedback_rewards=full_rewards,
    )


def _prepare_trial_env(config: RunConfig, trial: int) -> _TrialEnv:
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
    s_env, s_offline, s_stream, s_policy, s_eval = ss.spawn(5)
    if config.environment == "synthetic":
        instance = make_synthetic(seed=config.seed)
        return _linear_env(instance, config, (s_offline, s_eval))
    if config.environment == "hard_uniform":
        return _linear_env(make_hard_uniform(config.n_actions), config, (s_offline, s_eval))
    if config.environment == "hard_goptimal":
        return _linear_env(make_hard_goptimal(config.k), config, (s_offline, s_eval))
    spec = RankDatasetSpec(
        raw_dim=config.rank_raw_dim, subsampled_dim=config.rank_subsampled_dim
    )
    ingest = _cached_ingest(config.data_path, spec, config.seed)
    return _rank_env(ingest, config, (s_offline, s_stream))


_INGEST_CACHE: dict = {}


def _cached_ingest(data_path: str, spec: RankDatasetSpec, seed: int):
    key = (str(data_path), spec, seed)
    if key not in _INGEST_CACHE:
        _INGEST_CACHE[key] = ingest_rank_dataset(data_path, spec, seed)
    return _INGEST_CACHE[key]


def _collection_policy(config: RunConfig, env: _TrialEnv):
    if config.algorithm == "planner_sampler":
        exp = ExperimentConfig(
            M=len(env.offline_contexts),
            N=env.horizon,
            lambda_reg=config.lambda_reg,
            alpha=config.alpha if config.alpha is not None
            else min(1.0, env.horizon / len(env.offline_contexts)),
            delta=config.delta,
            epsilon=config.epsilon,
            seed=config.seed,
        )
        policy, _ = plan(env.offline_contexts, exp, norm_cap=env.norm_cap)
        return policy
    if config.algorithm == "random":
        return RandomPolicy()
    if config.algorithm == "largest_norm":
        return LargestNormPolicy()
    if config.algorithm == "single_action":
        return SingleActionPolicy(config.fixed_action)
    return None  # supervised_oracle has no collection policy


def _eval_points(horizon: int, eval_every: int) -> list[int]:
    points = list(range(eval_every, horizon + 1, eval_every))
    if not points or points[-1] != horizon:
        points.append(horizon)
    return points


def run_trial(config: RunConfig, trial: int) -> list[MetricRow]:
    """One trial: collect online data and evaluate the extracted policy
    at every eval_every online samples."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
    _, _, s_stream, s_policy, _ = ss.spawn(5)
    env = _prepare_trial_env(config, trial)
    policy = _collection_policy(config, env)

    stream_rng = np.random.default_rng(s_stream)
    policy_rng = np.random.default_rng(s_policy)
    eval_points = set(_eval_points(env.horizon, config.eval_every))

    rows: list[MetricRow] = []
    start = time.perf_counter()
    dataset = InteractionDataset(env.instance.d)
    full_feedback: list = []

    for n in range(1, env.horizon + 1):
        context = env.instance.context_sampler(stream_rng)
        if config.algorithm == "supervised_oracle":
            rewards = env.full_feedback_rewards(context, stream_rng)
            for a in range(context.n_actions):
                full_feedback.append(
                    InteractionRecord(
                        context_id=context.context_id,
                        action_index=a,
                        feature=context.features[a],
                        reward=float(rewards[a]),
                    )
                )
        else:
            a = policy.action(context, policy_rng)
            reward = env.instance.reward(context, a, stream_rng)
            dataset.append(
                InteractionRecord(
                    context_id=context.context_id,
                    action_index=a,
                    feature=context.features[a],
                    reward=reward,
                )
            )
        if n in eval_points:
            if config.algorithm == "supervised_oracle":
                fit_data = InteractionDataset(env.instance.d, full_feedback)
            else:
                fit_data = dataset
            estimate = ridge_fit(fit_data, config.lambda_reg)
            value, subopt, uncertainty = env.evaluate_estimate(estimate)
            rows.append(
                MetricRow(
                    trial=trial,
                    n_samples_seen=n,
                    policy_value=value,
                    expected_suboptimality=subopt,
                    expected_max_uncertainty=uncertainty,
                    wall_time_ms=(time.perf_counter() - start) * 1000.0,
                )
            )
    return rows


def _trial_worker(payload: tuple) -> list[MetricRow]:
    config_dict, trial = payload
    return run_trial(RunConfig.from_dict(config_dict), trial)


def _float_repr(value: float) -> str:
    return repr(float(value))


def _write_metrics(rows: Sequence[MetricRow], output_dir: Path) -> None:
    lines = ["trial,n_samples_seen,policy_value,expected_suboptimality,expected_max_uncertainty"]
    for row in rows:
        subopt = "" if row.expected_suboptimality is None else _float_repr(row.expected_suboptimality)
        lines.append(
            f"{row.trial},{row.n_samples_seen},{_float_repr(row.policy_value)},"
            f"{subopt},{_float_repr(row.expected_max_uncertainty)}"
        )
    (output_dir / "metrics.csv").write_text("\n".join(lines) + "\n")

    timing_lines = ["trial,n_samples_seen,wall_time_ms"]
    for row in rows:
        timing_lines.append(f"{row.trial},{row.n_samples_seen},{row.wall_time_ms:.3f}")
    (output_dir / "timings.csv").write_text("\n".join(timing_lines) + "\n")


def summarize_rows(rows: Sequence[MetricRow]) -> dict:
    """Mean and standard error across trials at every evaluation point."""
    by_point: dict[int, list[MetricRow]] = {}
    for row in rows:
        by_point.setdefault(row.n_samples_seen, []).append(row)
    points = []
    for n in sorted(by_point):
        group = by_point[n]
        values = np.array([r.policy_value for r in group])
        uncertainties = np.array([r.expected_max_uncertainty for r in group])
        subopts = [r.expected_suboptimality for r in group if r.expected_suboptimality is not None]
        k = len(group)
        stderr = float(values.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        entry = {
            "n_samples_seen": n,
            "n_trials": k,
            "policy_value_mean": float(values.mean()),
            "policy_value_stderr": stderr,
            "expected_max_uncertainty_mean": float(uncertainties.mean()),
        }
        if subopts:
            sub = np.array(subopts)
            entry["expected_suboptimality_mean"] = float(sub.mean())
            entry["expected_suboptimality_stderr"] = (
                float(sub.std(ddof=1) / np.sqrt(len(sub))) if len(sub) > 1 else 0.0
            )
        points.append(entry)
    return {"points": points, "final": points[-1] if points else None}


def run_experiment(config: RunConfig) -> RunResult:
    """Run all trials, write metrics.csv, timings.csv, summary.json, and the
    resolved config next to them."""
    if config.environment == "stand_in":
        config = _materialize_standin(config)

    output_dir = Path(
        config.output_path
        or f"runs/{config.environment}-{config.algorithm}-seed{config.seed}"
    )
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / "resolved_config.json").write_text(json.dumps(config.to_dict(), indent=2))

    jobs = [(config.to_dict(), trial) for trial in range(config.n_trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_trial = list(pool.map(_trial_worker, jobs))
    else:
        per_trial = [run_trial(config, trial) for trial in range(config.n_trials)]

    rows: list[MetricRow] = [row for trial_rows in per_trial for row in trial_rows]
    _write_metrics(rows, output_dir)
    summary = summarize_rows(rows)
    summary["config"] = config.to_dict()
    (output_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return RunResult(rows=tuple(rows), summary=summary, output_dir=output_dir)


def _materialize_standin(config: RunConfig) -> RunConfig:
    """Generate the stand-in ranking file once, then run as a rank dataset.

    The default file name carries every generator parameter, so a cached
    file is only reused by runs that would generate the same one.
    """
    path = Path(config.data_path or (
        f"runs/standin-seed{config.seed}-q{config.standin_queries}"
        f"-raw{config.rank_raw_dim}.txt"))
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        generate_standin_file(
            path, n_queries=config.standin_queries, seed=config.seed,
            raw_dim=config.rank_raw_dim,
        )
    return dataclasses.replace(config, environment="rank_dataset", data_path=str(path))


def emit_action_histogram(dataset: InteractionDataset, path=None) -> dict:
    """Per-action frequency of a dataset; optionally written as CSV."""
    if len(dataset) == 0:
        raise ConfigurationError("dataset is empty")
    actions = np.array([r.action_index for r in dataset])
    n_actions = int(actions.max()) + 1
    counts = np.bincount(actions, minlength=n_actions)
    frequencies = counts / counts.sum()
    if path is not None:
        lines = ["action_index,count,frequency"]
        for a in range(n_actions):
            lines.append(f"{a},{counts[a]},{_float_repr(frequencies[a])}")
        Path(path).write_text("\n".join(lines) + "\n")
    return {
        "counts": counts,
        "frequencies": frequencies,
    }
