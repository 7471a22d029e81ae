"""Shared domain types for the two-phase exploration pipeline.

A bandit instance bundles the feature geometry, the reward model, and the
context distribution. Everything downstream (planner, sampler, estimator,
harness) speaks in these types. All of them are immutable after
construction and safe to share across threads, with two exceptions:
``InteractionDataset``, whose ``append`` adds one step in place, and the
instance of ``environments.make_rank_instance``, whose stream advances a
hidden cursor.
Random generators are always passed in explicitly and owned by the caller,
never stored.

Contexts drawn many at a time come as a ``ContextBatch``: their ids and one
stacked (n, A, d) feature array. An instance's ``ContextLaw`` splits its
context law in two: the generator calls of each context, made one context
after another in stream order, and one vectorised step that builds the
batch from them. Every ``BanditInstance`` is built from its law, and
``BanditInstance.draw_contexts`` is bit for bit n ``context_sampler``
calls, each the law's one-context case. A plain sampler becomes a law
through ``ContextLaw.of_sampler``, whose batches stack the sampled
contexts.

The reward contract: the reward of action a in a context is entry a of the
context's recorded reward row in ``labels`` (relevance labels, say), which
draws nothing, or the inner product of the action's feature row with
theta_star, computed one row at a time, plus noise_std times one standard
normal from the stream (none is drawn when noise_std = 0). Nothing about a
reward depends on an earlier draw, so a caller may draw a run of contexts
and their normals first and compute the rewards afterwards
(``BanditInstance.rewards``).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ContractViolation(ValueError):
    """An argument broke an operation's contract (dimension, finiteness, norm)."""


class ConfigurationError(ValueError):
    """Invalid configuration values or an unusable input stream."""


class DataError(ValueError):
    """Malformed data encountered while fitting or evaluating."""


#: The range of every setting, under each name a door takes it by: a
#: ``RunConfig`` or ``ExperimentConfig`` field, a CLI flag or a kernel's
#: argument. An entry is the setting's type, the test its values pass (which
#: for a float also says whether it must be finite) and the rule that test
#: states. ``check_settings`` reads it; no other code states a range.
_AT_LEAST_1 = (int, lambda v: v >= 1, "be at least 1")
_RANGES = {
    **dict.fromkeys(("M", "N", "d", "n_eval", "n_trials", "eval_every", "eval_set_size",
                     "workers", "trials", "sandwich_trials", "planner_runs", "queries",
                     "n_queries", "standin_queries", "raw_dim", "rank_raw_dim",
                     "subsampled_dim", "rank_subsampled_dim"), _AT_LEAST_1),
    **dict.fromkeys(("actions", "n_actions", "k"), (int, lambda v: v >= 2, "be at least 2")),
    "seed": (int, lambda v: v >= 0, "be at least 0"),
    "lambda_reg": (float, lambda v: 0 < v < math.inf, "be positive and finite"),
    "alpha": (float, lambda v: 0 < v <= 1, "lie in (0, 1]"),
    "delta": (float, lambda v: 0 < v < 1, "lie in (0, 1)"),
    **dict.fromkeys(("data_path", "output_path"), (str, lambda v: True, "")),
}
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


def check_settings(**settings) -> None:
    """Raise ConfigurationError, as "<name> must ..., got <value>", for the
    first setting of the wrong type or out of its range; a name without an
    entry in ``_RANGES`` is not a setting and passes."""
    for name, value in settings.items():
        if name not in _RANGES:
            continue
        kind, admits, rule = _RANGES[name]
        if isinstance(value, bool) or not isinstance(value, _KINDS[kind][0]):
            raise ConfigurationError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")
        if not admits(value):
            raise ConfigurationError(f"{name} must {rule}, got {value!r}")


def _check_fields(config) -> None:
    """``check_settings`` on every field of a dataclass; a field whose
    default is None may be None (unset)."""
    check_settings(**{field.name: getattr(config, field.name)
                      for field in dataclasses.fields(config)
                      if getattr(config, field.name) is not None or field.default is not None})


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


def _context_view(context_id: str, features: np.ndarray) -> Context:
    """A context over rows that are already read-only and checked (a batch's)."""
    context = object.__new__(Context)
    object.__setattr__(context, "context_id", context_id)
    object.__setattr__(context, "features", features)
    return context


class ContextBatch(Sequence):
    """Contexts with one action count, stacked: their ids and one read-only
    (n, A, d) feature array whose entry i holds context i's feature rows.

    It is a sequence of contexts: an index gives a ``Context`` that shares
    its rows with the batch; a slice or an integer index array gives a
    ``ContextBatch``. The feature array is taken over, not copied, and
    frozen.
    """

    __slots__ = ("ids", "features")

    def __init__(self, ids: Sequence[str], features: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 3 or features.shape[1] < 1:
            raise ContractViolation(
                "a context batch needs an (n, n_actions, d) feature array with at least one action")
        if len(ids) != len(features):
            raise ContractViolation(f"{len(ids)} context ids for {len(features)} contexts")
        if not np.isfinite(features).all():
            raise ContractViolation("context batch has a non-finite feature row")
        features.setflags(write=False)
        self.ids = list(ids)
        self.features = features

    @property
    def n_actions(self) -> int:
        return self.features.shape[1]

    @property
    def d(self) -> int:
        return self.features.shape[2]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _context_view(self.ids[index], self.features[index])
        if isinstance(index, slice):
            return ContextBatch(self.ids[index], self.features[index])
        index = np.asarray(index, dtype=np.intp)
        return ContextBatch([self.ids[i] for i in index.tolist()], self.features[index])


def stack_contexts(contexts: Sequence[Context]) -> Sequence[Context]:
    """``contexts`` as one ``ContextBatch`` when they share a feature shape,
    otherwise as a list."""
    contexts = list(contexts)
    if len({context.features.shape for context in contexts}) != 1:
        return contexts
    return ContextBatch([context.context_id for context in contexts],
                        np.stack([context.features for context in contexts]))


def context_ids(contexts: Sequence[Context]) -> list:
    """The id of each context, in order."""
    if isinstance(contexts, ContextBatch):
        return contexts.ids
    return [context.context_id for context in contexts]


def action_counts(contexts: Sequence[Context]) -> np.ndarray:
    """The action count of each context, in order."""
    if isinstance(contexts, ContextBatch):
        return np.full(len(contexts), contexts.n_actions)
    return np.array([context.n_actions for context in contexts], dtype=np.int64)


def feature_rows(contexts: Sequence[Context], actions=None) -> np.ndarray:
    """The feature row of ``actions[i]`` in context i, for every i, as an
    (n, d) array; with ``actions`` None, every row of every context, in
    context then action order."""
    if isinstance(contexts, ContextBatch):
        if actions is None:
            return contexts.features.reshape(-1, contexts.d)
        return contexts.features[np.arange(len(contexts)), actions]
    if actions is None:
        return np.concatenate([context.features for context in contexts])
    return np.array([context.features[a] for context, a in zip(contexts, actions)])


ContextSampler = Callable[[np.random.Generator], Context]


@dataclass(frozen=True)
class ContextLaw:
    """A context law in two parts.

    ``draw(rng, n)`` makes the generator calls of n contexts, one context
    after another in stream order, and returns what each context drew, as a
    sequence of n draws. ``build(draws)`` turns the draws of any number of
    contexts into those contexts in one vectorised step: a ``ContextBatch``,
    or a list when their action counts differ. ``n_actions(draw)`` is the
    action count of the context that one draw makes.
    """

    draw: Callable[[np.random.Generator, int], Sequence]
    build: Callable[[Sequence], Sequence[Context]]
    n_actions: Callable[[object], int]

    @classmethod
    def of_sampler(cls, context_sampler: ContextSampler) -> "ContextLaw":
        """The law of a plain sampler: each draw is one ``context_sampler``
        call, and the batch stacks the contexts it returned."""
        return cls(
            draw=lambda rng, n: [context_sampler(rng) for _ in range(n)],
            build=stack_contexts,
            n_actions=lambda context: context.n_actions,
        )


@dataclass(frozen=True)
class BanditInstance:
    """Ground truth for simulation: dimension, reward model, context law.

    The rewards are linear in ``theta_star`` or recorded in ``labels``, a
    mapping from context id to that context's reward row (relevance labels,
    say); an instance takes exactly one of the two. A labelled instance runs
    through the full pipeline, but value and suboptimality evaluation
    against theta_star is unavailable for it. The contexts come from
    ``context_law``.
    """

    d: int
    theta_star: Optional[np.ndarray]
    context_law: ContextLaw
    noise_std: float = 1.0
    labels: Optional[Mapping[str, np.ndarray]] = None

    def __post_init__(self):
        check_settings(d=self.d)
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        if not isinstance(self.context_law, ContextLaw):
            raise ConfigurationError(
                f"context_law must be a ContextLaw, got {type(self.context_law).__name__}")
        if (self.theta_star is None) == (self.labels is None):
            raise ConfigurationError("instance needs exactly one of theta_star and labels")
        if self.theta_star is not None:
            theta = np.asarray(self.theta_star, dtype=np.float64)
            if theta.shape != (self.d,):
                raise ContractViolation(
                    f"theta_star has shape {theta.shape}, expected ({self.d},)"
                )
            if not np.isfinite(theta).all():
                raise ContractViolation("theta_star must be finite")
            object.__setattr__(self, "theta_star", _readonly(theta))

    def _label_row(self, context: Context) -> np.ndarray:
        row = self.labels.get(context.context_id)
        if row is None:
            raise ContractViolation(f"context {context.context_id!r} has no label row")
        if len(row) != context.n_actions:
            raise ContractViolation(f"context {context.context_id!r} has {len(row)} labels "
                                    f"for {context.n_actions} actions")
        return row

    def reward(self, context: Context, action_index: int, rng: np.random.Generator) -> float:
        """Reward for ``action_index`` in ``context``: its entry of the
        context's label row, or the feature's inner product with theta_star
        plus noise_std times one standard normal (none is drawn when
        noise_std = 0)."""
        if context.d != self.d:
            raise ContractViolation(f"context dimension {context.d} != instance dimension {self.d}")
        if not 0 <= action_index < context.n_actions:
            raise ContractViolation(f"action index {action_index} out of range")
        if self.labels is not None:
            return float(self._label_row(context)[action_index])
        mean = float(context.features[action_index] @ self.theta_star)
        if self.noise_std == 0.0:
            return mean
        return mean + self.noise_std * float(rng.standard_normal())

    @property
    def noisy(self) -> bool:
        """Whether each reward draws a standard normal (linear rewards, noise_std > 0)."""
        return self.labels is None and self.noise_std != 0.0

    def context_sampler(self, rng: np.random.Generator) -> Context:
        """The next context of the stream: the one-context case of
        ``draw_contexts``."""
        return self.draw_contexts(rng, 1)[0]

    def build_contexts(self, draws: Sequence) -> Sequence[Context]:
        """The contexts of a run of the law's draws, checked against the
        instance dimension."""
        contexts = self.context_law.build(draws)
        dims = {contexts.d} if isinstance(contexts, ContextBatch) else {c.d for c in contexts}
        if dims - {self.d}:
            raise ContractViolation("context dimension does not match the instance")
        return contexts

    def draw_contexts(self, rng: np.random.Generator, n: int) -> Sequence[Context]:
        """The next n contexts of the stream: a ``ContextBatch`` (a list when
        their action counts differ), bit for bit the contexts of n
        ``context_sampler`` calls, with the generator left in the same
        state."""
        if n < 1:
            raise ConfigurationError(f"need at least one context, got {n}")
        return self.build_contexts(self.context_law.draw(rng, n))

    def rewards(self, contexts: Sequence[Context], actions,
                normals: Optional[np.ndarray]) -> np.ndarray:
        """``reward`` of ``actions[i]`` in context i for every i, or with
        ``actions`` None of every action of every context (context, then
        action order). ``normals`` holds each reward's standard normal, drawn
        by the caller in stream order, when the instance is ``noisy``, and is
        None otherwise."""
        if self.labels is not None:
            rows = [self._label_row(c) for c in contexts]
            if actions is None:
                return np.concatenate(rows, dtype=np.float64)
            return np.array([row[a] for row, a in zip(rows, actions)], dtype=np.float64)
        # A stack of (1, d) rows takes one dot product per row, bit for bit
        # as row @ theta_star; an (n, d) matrix product rounds differently.
        means = (feature_rows(contexts, actions)[:, None, :] @ self.theta_star)[:, 0]
        return means if normals is None else means + self.noise_std * np.asarray(normals)


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
    """Ordered bandit feedback as columns: the context ids, the actions
    (int64), an (n, d) feature array and the rewards. The arrays are
    read-only; arrays handed in are taken over and frozen, not copied.
    Iterating gives each step as an ``InteractionRecord``."""

    def __init__(self, d: int, context_ids: Sequence[str] = (), actions=(),
                 features: Optional[np.ndarray] = None, rewards=()):
        check_settings(d=d)
        self.d, self.context_ids = int(d), list(context_ids)
        n = len(self.context_ids)
        self.actions = np.asarray(actions, dtype=np.int64)
        self._features = np.asarray(np.zeros((0, self.d)) if features is None else features,
                                    dtype=np.float64)
        self._rewards = np.asarray(rewards, dtype=np.float64)
        shapes = (self.actions.shape, self._features.shape, self._rewards.shape)
        if shapes != ((n,), (n, self.d), (n,)):
            raise ContractViolation(f"columns of shapes {shapes} for {n} context ids and d = {d}")
        for column in (self.actions, self._features, self._rewards):
            column.setflags(write=False)

    def append(self, record: InteractionRecord) -> None:
        """Add one step at the end, copying every column."""
        if record.feature.shape != (self.d,):
            raise ContractViolation(f"record feature shape {record.feature.shape} != ({self.d},)")
        self.__init__(self.d, self.context_ids + [record.context_id],
                      np.append(self.actions, record.action_index),
                      np.vstack([self._features, record.feature]),
                      np.append(self._rewards, record.reward))

    def feature_matrix(self) -> np.ndarray:
        return self._features

    def rewards(self) -> np.ndarray:
        return self._rewards

    def __len__(self) -> int:
        return len(self.context_ids)

    def __getitem__(self, index: slice) -> "InteractionDataset":
        """The steps a slice selects, as a dataset of views of these columns:
        no feature, action or reward is copied."""
        if not isinstance(index, slice):
            raise TypeError(f"a dataset takes slices only, got {type(index).__name__}")
        return InteractionDataset(self.d, self.context_ids[index], self.actions[index],
                                  self._features[index], self._rewards[index])

    def __iter__(self):
        return map(InteractionRecord, self.context_ids, self.actions.tolist(), self._features,
                   self._rewards.tolist())


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
        _check_fields(self)
        if self.alpha is None:
            object.__setattr__(self, "alpha", min(1.0, self.N / self.M))
