"""Shared domain types for the two-phase exploration pipeline.

A bandit instance bundles the feature geometry, the reward model, and the
context distribution. Everything downstream (planner, sampler, estimator,
harness) speaks in these types. All of them are immutable after
construction and safe to share across threads, with two exceptions:
``InteractionDataset``, which ``append`` grows in place, and the instance of
``environments.make_rank_instance``, whose stream advances a hidden cursor.
Random generators are always passed in explicitly and owned by the caller,
never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ContractViolation(ValueError):
    """An argument broke an operation's contract (dimension, finiteness, norm)."""


class ConfigurationError(ValueError):
    """Invalid configuration values or an unusable input stream."""


class DataError(ValueError):
    """Malformed data encountered while fitting or evaluating."""


class ParseError(ValueError):
    """Malformed line in a sparse ranking file; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Context:
    """One decision point: an opaque id plus the feature rows of its actions.

    Row ``a`` of ``features`` is the feature vector of action ``a``. Feature
    rows are copied at construction and frozen, so records that reference
    them stay valid even if the source buffer is reused.
    """

    context_id: str
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ContractViolation(
                "context requires an (n_actions, d) feature matrix with at least one action"
            )
        if not np.isfinite(feats).all():
            raise ContractViolation(f"context {self.context_id!r} has a non-finite feature row")
        object.__setattr__(self, "features", _readonly(feats))

    @property
    def n_actions(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


RewardFn = Callable[[Context, int, np.random.Generator], float]
ContextSampler = Callable[[np.random.Generator], Context]


@dataclass(frozen=True)
class BanditInstance:
    """Ground truth for simulation: dimension, reward model, context law.

    ``theta_star`` may be None for data-driven instances whose rewards come
    from ``reward_fn`` instead (e.g. recorded relevance labels). Such
    instances run through the full pipeline, but value and suboptimality
    evaluation against theta_star is unavailable for them.
    """

    d: int
    theta_star: Optional[np.ndarray]
    context_sampler: ContextSampler
    noise_std: float = 1.0
    reward_fn: Optional[RewardFn] = None

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension must be at least 1")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        if self.theta_star is not None:
            theta = np.asarray(self.theta_star, dtype=np.float64)
            if theta.shape != (self.d,):
                raise ContractViolation(
                    f"theta_star has shape {theta.shape}, expected ({self.d},)"
                )
            if not np.isfinite(theta).all():
                raise ContractViolation("theta_star must be finite")
            object.__setattr__(self, "theta_star", _readonly(theta))
        elif self.reward_fn is None:
            raise ConfigurationError("instance needs theta_star or a reward_fn")

    def reward(self, context: Context, action_index: int, rng: np.random.Generator) -> float:
        """Reward for ``action_index`` in ``context``: ``reward_fn``'s value, or
        the feature's inner product with theta_star plus noise_std times one
        standard normal (none is drawn when noise_std = 0)."""
        if context.d != self.d:
            raise ContractViolation(f"context dimension {context.d} != instance dimension {self.d}")
        if not 0 <= action_index < context.n_actions:
            raise ContractViolation(f"action index {action_index} out of range")
        if self.reward_fn is not None:
            return float(self.reward_fn(context, action_index, rng))
        mean = float(context.features[action_index] @ self.theta_star)
        if self.noise_std == 0.0:
            return mean
        return mean + self.noise_std * float(rng.standard_normal())


@dataclass(frozen=True)
class InteractionRecord:
    """One online step: which action was taken where, and what it paid."""

    context_id: str
    action_index: int
    feature: np.ndarray
    reward: float

    def __post_init__(self):
        object.__setattr__(self, "feature", _readonly(self.feature))


class InteractionDataset:
    """Ordered bandit feedback, one record per online step."""

    def __init__(self, d: int):
        if d < 1:
            raise ConfigurationError("dimension must be at least 1")
        self.d = int(d)
        self.records: list[InteractionRecord] = []

    def append(self, record: InteractionRecord) -> None:
        if record.feature.shape != (self.d,):
            raise ContractViolation(
                f"record feature has shape {record.feature.shape}, expected ({self.d},)"
            )
        self.records.append(record)

    def feature_matrix(self) -> np.ndarray:
        if not self.records:
            return np.zeros((0, self.d))
        return np.vstack([r.feature for r in self.records])

    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.records], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class ExperimentConfig:
    """The exploration settings shared by the offline and online phases.

    ``M``, ``N``, ``lambda_reg`` and ``alpha`` fix the mixture policy.
    ``alpha`` is the discount on offline rank-one covariance updates and
    defaults to min(1, N/M), so that M = N/alpha offline contexts emulate N
    online samples; with fewer offline contexts than online samples each
    counts once. ``delta`` is the failure probability that sizes the theory's
    requirements; only the covariance sandwich check reads it.
    """

    M: int
    N: int
    lambda_reg: float = 1.0
    alpha: Optional[float] = None
    delta: float = 0.05

    def __post_init__(self):
        if self.M < 1:
            raise ConfigurationError("M must be at least 1")
        if self.N < 1:
            raise ConfigurationError("N must be at least 1")
        if self.lambda_reg <= 0:
            raise ConfigurationError("lambda_reg must be positive")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.alpha is None:
            object.__setattr__(self, "alpha", min(1.0, self.N / self.M))
        if not 0 < self.alpha <= 1:
            raise ConfigurationError("alpha must lie in (0, 1]")
