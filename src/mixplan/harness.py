"""Reproducible experiment driver.

Runs multi-seed trials of one (environment, algorithm) pair and emits
metric rows plus a summary with mean and standard error across trials. A
trial's inputs come from one function, ``_prepare_trial_env``: a simulated
environment is built, with its norm cap, from ``environments.SIMULATED``,
and ranking data is ingested. The trial plans the collection policy on an
independent offline context stream, collects all of its online data into
one dataset with one ``sample`` call, and then, at every evaluation point
n, ridge-fits the dataset's first n steps (``dataset[:n]``, views of its
columns) and evaluates the extracted greedy policy. The held-out contexts
and their true values are stacked into an ``estimator.EvaluationSet`` (the
trial keeps only the set), so each evaluation point only scores and
solves: once per trial for simulated instances, and once per ingest for
ranking data, whose cache keeps the set in place of the test split. The
suboptimality gap is reported where the set holds theta_star's scores, not
for recorded relevance labels. The supervised oracle collects with
``baselines.full_feedback`` instead, one exploded dataset of the reward of
every action of each context, and its fit at point n takes the rows of the
first n contexts.

Each trial owns one master seed, split deterministically into environment,
offline-stream, online-stream, policy, and evaluation streams. The online
context stream depends only on the stream seed, so different algorithms
run with the same (seed, trial) observe the same contexts. The exploration
policy is frozen before sampling begins and evaluation draws from its own
stream, so fitting prefixes of one collected dataset gives exactly the
numbers that refitting during collection would.

``run_experiment`` maps ``run_trial`` over the ``RunConfig`` itself and
the trial indices; with ``workers`` above 1 it does so in worker
processes, no more than there are trials. Once collected, a trial's
dataset is fixed, so its evaluation points are independent: when every
loaded BLAS runs one thread per call, a trial runs its points on a thread
pool over its share of the cores, which are divided by the number of
trials that run at once (``_point_threads``), and the rows come back in
point order.

Everything written to metrics.csv is bit-reproducible for a fixed
configuration, whether the points run serially or at once; wall-clock
timings go to a separate timings.csv.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _lapack
from .baselines import LargestNormPolicy, RandomPolicy, SingleActionPolicy, full_feedback
from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ExperimentConfig,
    InteractionDataset,
    _check_fields,
)
from .estimator import EvaluationSet, evaluate, ridge_fit
from .environments import (
    RANK_NORM_CAP,
    SIMULATED,
    SPLIT_FILES,
    RankDatasetSpec,
    generate_standin_file,
    ingest_rank_dataset,
    make_rank_instance,
)
from .planner import plan
from .sampler import _float_repr, sample

logger = logging.getLogger(__name__)

ENVIRONMENTS = (*SIMULATED, "rank_dataset", "stand_in")
_BASELINES = {"random": RandomPolicy, "largest_norm": LargestNormPolicy,
              "single_action": SingleActionPolicy}
ALGORITHMS = ("planner_sampler", *_BASELINES, "supervised_oracle")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one experiment run; every field is checked,
    also one the environment or algorithm does not read."""

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
    standin_queries: int = 200
    rank_raw_dim: int = 700
    rank_subsampled_dim: int = 300
    workers: int = 1

    def __post_init__(self):
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(f"unknown environment {self.environment!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.M is None:
            object.__setattr__(self, "M", self.N)
        _check_fields(self)
        if self.environment in ("rank_dataset", "stand_in"):
            RankDatasetSpec(raw_dim=self.rank_raw_dim, subsampled_dim=self.rank_subsampled_dim)
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
        is not an object of known fields, each of its type and in its range."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"config must be an object of RunConfig fields, got {type(payload).__name__}")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
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
    offline_contexts: Sequence[Context]
    horizon: int
    norm_cap: Optional[float]
    eval_set: EvaluationSet


def _trial_seeds(config: RunConfig, trial: int) -> list:
    """The trial's environment, offline, stream, policy and evaluation seeds."""
    return np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,)).spawn(5)


def _prepare_trial_env(config: RunConfig, seeds) -> _TrialEnv:
    """The trial's instance, offline contexts, horizon, norm cap and
    evaluation set. A simulated instance comes from ``SIMULATED`` and draws
    its offline and evaluation contexts from their own streams; ranking data
    (``_cached_ingest``) gives the first M of a permutation of its offline
    pool and streams the first N of a permutation of its train split, both
    capped at what the data holds."""
    _, s_offline, s_stream, _, s_eval = seeds
    offline_rng = np.random.default_rng(s_offline)
    if config.environment in SIMULATED:
        build, norm_cap = SIMULATED[config.environment]
        instance = build(config.seed, config.n_actions, config.k)
        offline_contexts = instance.draw_contexts(offline_rng, config.M)
        eval_set = EvaluationSet(
            instance.draw_contexts(np.random.default_rng(s_eval), config.eval_set_size),
            theta_star=instance.theta_star)
        return _TrialEnv(instance=instance, offline_contexts=offline_contexts,
                         horizon=config.N, norm_cap=norm_cap, eval_set=eval_set)

    spec = RankDatasetSpec(raw_dim=config.rank_raw_dim, subsampled_dim=config.rank_subsampled_dim)
    train, offline_pool, eval_set = _cached_ingest(config.data_path, spec, config.seed)
    horizon = min(config.N, len(train))
    if horizon < config.N:
        logger.info("rank horizon capped at %d distinct contexts", horizon)
    m_eff = min(config.M, len(offline_pool))
    if m_eff < config.M:
        logger.info("rank offline contexts capped at %d, the size of the offline pool", m_eff)
    offline_order = offline_rng.permutation(len(offline_pool))[:m_eff]
    online_order = np.random.default_rng(s_stream).permutation(len(train))[:horizon]
    return _TrialEnv(
        instance=make_rank_instance(train, order=online_order),
        offline_contexts=[offline_pool[int(i)].context for i in offline_order],
        horizon=horizon,
        norm_cap=RANK_NORM_CAP,
        eval_set=eval_set,
    )


_INGEST_CACHE: dict = {}


def _cached_ingest(data_path: str, spec: RankDatasetSpec, seed: int) -> tuple:
    """The ranking data a trial reads: the train split, the offline pool (the
    validation split, else train) and the test split (else train) stacked
    into an ``EvaluationSet`` whose true values are its relevance labels.

    Ingested and stacked once per process while the input stays the same:
    the cache keeps the most recent ingest alone, and reuses it only while
    the modification time and size of the ranking file, or of each split
    file of a ranking directory, are unchanged."""
    path = Path(data_path).resolve()
    files = [path / name for name in SPLIT_FILES] if path.is_dir() else [path]
    stamp = tuple((f.stat().st_mtime_ns, f.stat().st_size) if f.exists() else None
                  for f in files)
    key = (path, spec, seed)
    cached = _INGEST_CACHE.get(key)
    if cached is None or cached[0] != stamp:
        _INGEST_CACHE.clear()  # before the next ingest is read, not beside it
        ingest = ingest_rank_dataset(data_path, spec, seed)
        test = ingest.test or ingest.train
        eval_set = EvaluationSet([rc.context for rc in test],
                                 true_values=[rc.relevance for rc in test])
        cached = _INGEST_CACHE[key] = (stamp, (ingest.train, ingest.valid or ingest.train,
                                               eval_set))
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
    if config.algorithm in _BASELINES:
        return _BASELINES[config.algorithm]()
    return None  # supervised_oracle has no collection policy


def _eval_points(horizon: int, eval_every: int) -> list[int]:
    points = list(range(eval_every, horizon + 1, eval_every))
    if not points or points[-1] != horizon:
        points.append(horizon)
    return points


def _point_threads(config: RunConfig) -> int:
    """How many of a trial's evaluation points run at once: the cores this
    process may use, shared among the trials that run at once (``workers``,
    at most ``n_trials``), when every loaded BLAS runs each call on one
    thread; otherwise 1.

    A multi-threaded BLAS already spreads each call over the cores, and
    points run beside it oversubscribe them: on a 2-core stand-in trial at
    2 BLAS threads, concurrent points took about twice as long as serial
    ones. A BLAS whose count cannot be read counts as multi-threaded.
    """
    if _lapack.blas_threads() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    return max(1, cpus // min(config.workers, config.n_trials))


def run_trial(config: RunConfig, trial: int) -> list[MetricRow]:
    """One trial: collect the online data, then fit and evaluate the
    extracted policy on its first n samples for every evaluation point n
    (for the oracle, on every action of its first n contexts).

    The collected dataset is fixed, so the points are independent: they
    run on a thread pool of ``_point_threads`` threads when that is more
    than one, else one after another, and the rows come back in point
    order either way, with the same bits. Each row's ``wall_time_ms`` is
    the time from the start of collection to the end of its point.
    """
    seeds = _trial_seeds(config, trial)
    _, _, s_stream, s_policy, _ = seeds
    env = _prepare_trial_env(config, seeds)
    policy = _collection_policy(config, env)
    stream_rng = np.random.default_rng(s_stream)
    points = _eval_points(env.horizon, config.eval_every)

    start = time.perf_counter()
    if policy is None:
        dataset, ends = full_feedback(env.instance, env.horizon, stream_rng)
        prefix_rows = ends[np.array(points) - 1].tolist()
    else:
        dataset = sample(policy, env.instance, env.horizon, stream_rng,
                         policy_rng=np.random.default_rng(s_policy))
        prefix_rows = points
    # The fits need only the dataset: freeing the policy's snapshot factors
    # (about 55 at d = 300 on a stand-in trial) lowers the peak memory.
    del policy

    def point(n: int, end: int) -> MetricRow:
        estimate = ridge_fit(dataset[:end], config.lambda_reg)
        report = evaluate(estimate, env.instance, env.eval_set)
        gap = report.expected_suboptimality if env.eval_set.theta_star is not None else None
        return MetricRow(
            trial=trial,
            n_samples_seen=n,
            policy_value=report.policy_value,
            expected_suboptimality=gap,
            expected_max_uncertainty=report.expected_max_uncertainty,
            wall_time_ms=(time.perf_counter() - start) * 1000.0,
        )

    threads = _point_threads(config)
    if threads == 1:
        return [point(n, end) for n, end in zip(points, prefix_rows)]
    # Imported here, like the process pool: serial trials never load it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(point, points, prefix_rows))


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

    configs, trials = [config] * config.n_trials, range(config.n_trials)
    workers = min(config.workers, config.n_trials)
    if workers > 1:
        # Imported here: concurrent.futures.process pulls in multiprocessing,
        # socket and subprocess, start-up cost that one-worker runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, configs, trials))
    else:
        per_trial = list(map(run_trial, configs, trials))

    # The output directory is made once every trial has run: a failed run leaves none.
    output_dir = Path(
        config.output_path
        or f"runs/{config.environment}-{config.algorithm}-seed{config.seed}"
    )
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / "resolved_config.json").write_text(json.dumps(config.to_dict(), indent=2))
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
    counts = np.bincount(dataset.actions)
    frequencies = counts / counts.sum()
    if path is not None:
        lines = ["action_index,count,frequency"]
        for a in range(len(counts)):
            lines.append(f"{a},{counts[a]},{_float_repr(frequencies[a])}")
        Path(path).write_text("\n".join(lines) + "\n")
    return {
        "counts": counts,
        "frequencies": frequencies,
    }
