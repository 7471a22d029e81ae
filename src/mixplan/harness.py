"""Reproducible experiment driver.

Runs multi-seed trials of one (environment, algorithm) pair and emits
metric rows plus a summary with mean and standard error across trials.
A trial generates or ingests the environment, plans the collection policy
on an independent offline context stream, collects all of its online data
in one ``sample`` call, stacks it into one feature matrix, and then, at
every evaluation point n, ridge-fits the first n rows of that matrix and
evaluates the extracted greedy policy. The held-out contexts and their
true values are stacked once per trial into an ``estimator.EvaluationSet``
(the trial keeps only the set), so each evaluation point only scores and
solves. The supervised oracle takes the place of the collection and the
prefix fits with ``baselines.oracle_fits``, which fits the full feedback of
the first n contexts.

Each trial owns one master seed, split deterministically into environment,
offline-stream, online-stream, policy, and evaluation streams. The online
context stream depends only on the stream seed, so different algorithms
run with the same (seed, trial) observe the same contexts. The exploration
policy is frozen before sampling begins and evaluation draws from its own
stream, so fitting prefixes of one collected dataset gives exactly the
numbers that refitting during collection would.

Everything written to metrics.csv is bit-reproducible for a fixed
configuration; wall-clock timings go to a separate timings.csv.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import (
    LargestNormPolicy,
    RandomPolicy,
    SingleActionPolicy,
    oracle_fits,
)
from .core import (
    BanditInstance,
    ConfigurationError,
    ExperimentConfig,
    InteractionDataset,
)
from .estimator import (
    EvaluationReport,
    EvaluationSet,
    RidgeEstimate,
    evaluate,
    evaluate_values,
    ridge_fit_arrays,
)
from .environments import (
    SPLIT_FILES,
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
from .sampler import _float_repr, sample

logger = logging.getLogger(__name__)

ENVIRONMENTS = ("synthetic", "hard_uniform", "hard_goptimal", "rank_dataset", "stand_in")
ALGORITHMS = ("planner_sampler", "random", "largest_norm", "single_action", "supervised_oracle")
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one experiment run."""

    environment: str
    algorithm: str
    N: int
    M: Optional[int] = None
    alpha: Optional[float] = None
    lambda_reg: float = 1.0
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
        if self.max_contexts is not None and self.max_contexts < 1:
            raise ConfigurationError("max_contexts must be at least 1")
        if self.environment == "rank_dataset" and not self.data_path:
            raise ConfigurationError(
                "rank_dataset requires data_path; see the ingestion notes in the README "
                "(sparse 'label qid:<id> idx:val' format) or use the stand_in environment"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Build a config from JSON data; ConfigurationError for anything that
        is not an object of known, correctly typed fields."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"config must be an object of RunConfig fields, got {type(payload).__name__}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(payload) - set(types)
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        for name, value in payload.items():
            kind = types[name].removeprefix("Optional[").removesuffix("]")
            if value is None and kind != types[name]:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ConfigurationError(f"config field {name!r} must be {kind}, got {value!r}")
        try:
            return cls(**payload)
        except TypeError as exc:  # a required field is missing
            raise ConfigurationError(f"incomplete config: {exc}") from None


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
    evaluate_estimate: Callable[[RidgeEstimate], EvaluationReport]
    reports_gap: bool = True


def _linear_env(instance: BanditInstance, config: RunConfig, seeds) -> _TrialEnv:
    _, s_offline, _, _, s_eval = seeds
    offline_rng = np.random.default_rng(s_offline)
    eval_rng = np.random.default_rng(s_eval)
    offline_contexts = [instance.context_sampler(offline_rng) for _ in range(config.M)]
    eval_set = EvaluationSet(
        [instance.context_sampler(eval_rng) for _ in range(config.eval_set_size)],
        theta_star=instance.theta_star)

    norm_cap = None if config.environment == "synthetic" else 1.0
    return _TrialEnv(
        instance=instance,
        offline_contexts=offline_contexts,
        horizon=config.N,
        norm_cap=norm_cap,
        evaluate_estimate=lambda estimate: evaluate(estimate, instance, eval_set),
    )


def _rank_env(ingest, config: RunConfig, seeds) -> _TrialEnv:
    _, s_offline, s_stream, _, _ = seeds
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

    # Relevance labels are the true action values; the gap is not reported.
    eval_set = EvaluationSet([rc.context for rc in test],
                             true_values=[rc.relevance for rc in test])
    return _TrialEnv(
        instance=instance,
        offline_contexts=offline_contexts,
        horizon=horizon,
        norm_cap=1.0,
        evaluate_estimate=lambda estimate: evaluate_values(estimate, eval_set),
        reports_gap=False,
    )


def _trial_seeds(config: RunConfig, trial: int) -> list:
    """The trial's environment, offline, stream, policy and evaluation seeds."""
    return np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,)).spawn(5)


def _prepare_trial_env(config: RunConfig, seeds) -> _TrialEnv:
    if config.environment == "synthetic":
        return _linear_env(make_synthetic(seed=config.seed), config, seeds)
    if config.environment == "hard_uniform":
        return _linear_env(make_hard_uniform(config.n_actions), config, seeds)
    if config.environment == "hard_goptimal":
        return _linear_env(make_hard_goptimal(config.k), config, seeds)
    spec = RankDatasetSpec(raw_dim=config.rank_raw_dim, subsampled_dim=config.rank_subsampled_dim)
    return _rank_env(_cached_ingest(config.data_path, spec, config.seed), config, seeds)


_INGEST_CACHE: dict = {}


def _cached_ingest(data_path: str, spec: RankDatasetSpec, seed: int):
    """Ingest once per process while the input stays the same: an entry is
    reused only while the modification time and size of the ranking file,
    or of each split file of a ranking directory, are unchanged."""
    path = Path(data_path).resolve()
    files = [path / name for name in SPLIT_FILES] if path.is_dir() else [path]
    stamp = tuple((f.stat().st_mtime_ns, f.stat().st_size) if f.exists() else None
                  for f in files)
    key = (path, spec, seed)
    cached = _INGEST_CACHE.get(key)
    if cached is None or cached[0] != stamp:
        cached = _INGEST_CACHE[key] = (stamp, ingest_rank_dataset(data_path, spec, seed))
    return cached[1]


def _collection_policy(config: RunConfig, env: _TrialEnv):
    if config.algorithm == "planner_sampler":
        exp = ExperimentConfig(
            M=len(env.offline_contexts),
            N=env.horizon,
            lambda_reg=config.lambda_reg,
            alpha=config.alpha,
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
    """One trial: collect the online data, then fit and evaluate the
    extracted policy on its first n samples for every evaluation point n."""
    seeds = _trial_seeds(config, trial)
    _, _, s_stream, s_policy, _ = seeds
    env = _prepare_trial_env(config, seeds)
    policy = _collection_policy(config, env)
    stream_rng = np.random.default_rng(s_stream)
    points = _eval_points(env.horizon, config.eval_every)

    start = time.perf_counter()
    if policy is None:
        estimates = oracle_fits(env.instance, points, config.lambda_reg, stream_rng)
    else:
        dataset = sample(policy, env.instance, env.horizon, stream_rng,
                         policy_rng=np.random.default_rng(s_policy))
        features, rewards = dataset.feature_matrix(), dataset.rewards()
        estimates = (ridge_fit_arrays(features[:n], rewards[:n], config.lambda_reg)
                     for n in points)
    rows: list[MetricRow] = []
    for n, estimate in zip(points, estimates):
        report = env.evaluate_estimate(estimate)
        gap = report.expected_suboptimality if env.reports_gap else None
        rows.append(
            MetricRow(
                trial=trial,
                n_samples_seen=n,
                policy_value=report.policy_value,
                expected_suboptimality=gap,
                expected_max_uncertainty=report.expected_max_uncertainty,
                wall_time_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
    return rows


def _trial_worker(payload: tuple) -> list[MetricRow]:
    config_dict, trial = payload
    return run_trial(RunConfig.from_dict(config_dict), trial)


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
        # Imported here: concurrent.futures.process pulls in multiprocessing,
        # socket and subprocess, start-up cost that one-worker runs never use.
        from concurrent.futures import ProcessPoolExecutor

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
