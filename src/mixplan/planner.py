"""Offline phase: reward-free uncertainty maximization over historical contexts.

The planner takes its M offline contexts as one batch and walks them once,
in order. At each step it acts greedily with respect to the
inverse-covariance norm measured against the most recent covariance
snapshot, adds the chosen feature to the covariance (scaled by alpha), and
re-snapshots whenever the determinant has more than doubled since the last
snapshot. The result is a mixture policy: a uniform mixture over the
per-step policies, held in memory as the K distinct snapshots plus the step
at which each phase begins.

Within a phase every step measures against the same snapshot, so ``plan``
works a phase in blocks of steps. It chooses a block's actions with one
triangular solve per action count (``_greedy_block``) and hands the chosen
rows to ``RegularizedCovariance.rank_one_updates``, which adds them in step
order. That call stops after the first step whose log-determinant growth
bound (see ``mixplan.covariance``) comes within ``GROWTH_SLACK`` of log 2.
The next step then runs the exact doubling test; if it fires, the rest of
the block is chosen again against the new snapshot. The covariance is
factored only at a new snapshot and at those exact tests, so the snapshots,
actions and values are bit-identical to choosing, testing and updating one
context at a time. A phase's first block is as long as the previous phase
was; each further block is twice the last, and none holds more than
``_BLOCK_FLOATS`` floats of d x d update terms.

Snapshot k is exactly lambda_reg * I + alpha * sum_{m < start_k} phi_m phi_m^T,
so the whole policy is fixed by the M chosen features, the phase starts,
lambda_reg and alpha. That is what the policy artifact stores: a version-2
``.npz`` (see ``mixplan.artifact``) with ``features`` (M x d, ``<f8``),
``phase_starts`` (``<i8``), ``M``, ``lambda_reg`` and ``alpha``.
``MixturePolicy.load`` replays the features through the same covariance
updates and snapshots that ``plan`` made, so the rebuilt factors and
log-determinants are bit-identical to the planner's.

Nothing in this module can observe a reward. ``plan`` receives contexts and
a configuration only; non-reactivity is structural, not a convention.
``plan`` is also a pure function of its inputs: it draws no randomness, and
uncertainty-argmax ties break toward the lowest action index.

The doubling threshold is 2 for every regularization level. With
lambda_reg >= 1 and unit-capped features this keeps the determinant ratio
between consecutive snapshots at or below 4, which the elliptical-potential
and uncertainty-sum guarantees rely on; for lambda_reg < 1 a single update
can more than double the determinant, so those guarantees are not claimed
in that regime (the planner itself still runs fine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifact import read_artifact, scalar, write_artifact
from .core import ConfigurationError, Context, ContextBatch, ContractViolation, ExperimentConfig
from .covariance import (
    CovarianceSnapshot,
    RegularizedCovariance,
    _block_norms,
    _block_rows,
    _context_blocks,
)

ARTIFACT_FORMAT = "mixture-policy"
ARTIFACT_VERSION = 2


@dataclass(frozen=True)
class UncertaintyTrace:
    """Per-step realized uncertainty of a planner run.

    ``values`` is measured against the snapshot the step actually acted
    with. The selected feature rows, from which checks replay the
    covariance trajectory, are the policy's ``MixturePolicy.features``.
    """

    values: np.ndarray
    actions: np.ndarray


def _check_phase_starts(phase_starts, M: int) -> tuple:
    starts = tuple(int(v) for v in phase_starts)
    if not starts:
        raise ConfigurationError("phase_starts must be nonempty")
    if starts[0] != 1:
        raise ConfigurationError("first phase must start at step 1")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ConfigurationError("phase_starts must be strictly increasing")
    if starts[-1] > M:
        raise ConfigurationError("phase start beyond the final step")
    return starts


def _check_features(features) -> np.ndarray:
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2:
        raise ConfigurationError(f"features must be an (M, d) array, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ConfigurationError("features must be finite")
    features.setflags(write=False)
    return features


def _replay_snapshots(features: np.ndarray, phase_starts: Sequence[int], lambda_reg: float,
                      alpha: float) -> list[CovarianceSnapshot]:
    """The snapshots ``plan`` took: the same updates and snapshots, in its order."""
    cov = RegularizedCovariance(features.shape[1], lambda_reg, alpha, norm_cap=None)
    snapshots = []
    step = 1
    for start in phase_starts:
        cov.rank_one_updates(features[step - 1:start - 1])
        step = start
        snapshots.append(cov.snapshot())
    return snapshots


def _greedy_block(snapshot: CovarianceSnapshot,
                  contexts: Sequence[Context]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each context's uncertainty argmax under ``snapshot``, as
    ``MixturePolicy.snapshot_action`` picks it: the actions, their norms and
    their feature rows, in context order.

    Contexts with the same number of actions are grouped
    (``_context_blocks``) and each group's norms come from ``_block_norms``,
    which keeps the rounding of one solve per context. A block of one
    context, every block at d = 300, is solved directly: the grouping's
    bookkeeping made ``plan`` there 3-6 % slower.
    """
    if len(contexts) == 1:
        features = contexts[0].features
        norms = snapshot.mahalanobis_rows(features)
        a = int(np.argmax(norms))
        return np.array([a]), norms[a:a + 1], features[a:a + 1]
    n = len(contexts)
    actions = np.empty(n, dtype=np.int64)
    values = np.empty(n)
    rows = np.empty((n, snapshot.d))
    for block, feats in _context_blocks(contexts, snapshot.d):
        norms = _block_norms(snapshot.factor, feats)
        chosen = np.argmax(norms, axis=1)
        picked = np.arange(len(feats))
        actions[block] = chosen
        values[block] = norms[picked, chosen]
        rows[block] = feats[picked, chosen]
    return actions, values, rows


@dataclass(frozen=True, eq=False)
class MixturePolicy:
    """Uniform mixture over a planner run's per-step policies.

    Only the K distinct snapshot policies are kept; drawing a step index
    m uniformly from [1, M] and mapping it to its phase reproduces the full
    mixture. ``features`` (read-only, M x d) are the planner's chosen
    features, from which ``save``/``load`` rebuild the snapshots; M and d
    are its shape. Immutable and freely shareable across threads.
    """

    snapshots: Sequence[CovarianceSnapshot]
    phase_starts: Sequence[int]
    lambda_reg: float
    alpha: float
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", _check_features(self.features))
        starts = _check_phase_starts(self.phase_starts, self.M)
        if len(starts) != len(self.snapshots):
            raise ConfigurationError("phase_starts and snapshots must align")
        object.__setattr__(self, "phase_starts", starts)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))

    @property
    def M(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def snapshot_count(self) -> int:
        return len(self.snapshots)

    def phase_lengths(self) -> np.ndarray:
        bounds = list(self.phase_starts) + [self.M + 1]
        return np.diff(np.asarray(bounds))

    def snapshot_action(self, snapshot_index: int, context: Context) -> int:
        """Uncertainty argmax of one snapshot policy; ties go to the lowest index."""
        snap = self.snapshots[snapshot_index]
        if context.d != self.d:
            raise ContractViolation(f"context dimension {context.d} != policy dimension {self.d}")
        norms = snap.mahalanobis_rows(context.features)
        return int(np.argmax(norms))

    def draw(self, rng: np.random.Generator, n_actions) -> np.ndarray:
        """The policy's draws for contexts with these action counts: one
        step index m, uniform on [1, M], per context (one ``integers`` call
        gives the values and generator state of one call per context)."""
        return rng.integers(1, self.M + 1, size=len(n_actions))

    def decide(self, contexts: Sequence[Context], draws: np.ndarray) -> np.ndarray:
        """Act on context i with the snapshot of step ``draws[i]``'s phase.

        The contexts are grouped by phase, and ``_greedy_block`` chooses each
        group's actions, bit for bit as ``snapshot_action`` per context.
        """
        phases = np.searchsorted(self.phase_starts, draws, side="right") - 1
        if len(contexts) == 1:
            return _greedy_block(self.snapshots[phases[0]], contexts)[0]
        order = np.argsort(phases, kind="stable")
        actions = np.empty(len(contexts), dtype=np.int64)
        for steps in np.split(order, np.flatnonzero(np.diff(phases[order])) + 1):
            group = (contexts[steps] if isinstance(contexts, ContextBatch)
                     else [contexts[i] for i in steps.tolist()])
            actions[steps] = _greedy_block(self.snapshots[phases[steps[0]]], group)[0]
        return actions

    def action(self, context: Context, rng: np.random.Generator) -> int:
        """Draw m uniformly from [1, M], act with the snapshot of m's phase:
        ``decide`` on this one context."""
        if context.d != self.d:
            raise ContractViolation(f"context dimension {context.d} != policy dimension {self.d}")
        return int(self.decide([context], self.draw(rng, [context.n_actions]))[0])

    def save(self, path) -> None:
        """Write the version-2 ``.npz`` artifact to exactly ``path``."""
        write_artifact(
            path, ARTIFACT_FORMAT, ARTIFACT_VERSION,
            features=np.asarray(self.features, dtype="<f8"),
            phase_starts=np.asarray(self.phase_starts, dtype="<i8"),
            M=np.array(self.M, dtype="<i8"),
            lambda_reg=np.array(self.lambda_reg, dtype="<f8"),
            alpha=np.array(self.alpha, dtype="<f8"),
        )

    @classmethod
    def load(cls, path) -> "MixturePolicy":
        """Read a version-2 artifact and rebuild its snapshots by replay.

        Raises ConfigurationError for anything that is not such an artifact:
        an unreadable or truncated file, a missing key, another format or
        version, a JSON artifact of an older release, or features that are
        not a finite array of M rows.
        """
        payload = read_artifact(
            path, ARTIFACT_FORMAT, ARTIFACT_VERSION,
            ("features", "phase_starts", "M", "lambda_reg", "alpha"),
            remedy="re-run `mixplan plan` to write a current policy",
        )
        M = scalar(payload, "M", int)
        lambda_reg = scalar(payload, "lambda_reg", float)
        alpha = scalar(payload, "alpha", float)
        starts = payload["phase_starts"]
        if starts.ndim != 1 or starts.dtype.kind not in "iu":
            raise ConfigurationError("phase_starts must be a 1-d integer array")
        starts = _check_phase_starts(starts, M)
        features = payload["features"]
        if features.ndim != 2 or features.dtype.kind != "f":
            raise ConfigurationError(f"features must be a 2-d float array, got {features.shape}")
        if features.shape[0] != M:
            raise ConfigurationError(f"features have {features.shape[0]} rows, expected M={M}")
        # Replaying first lets the updates' own check reject non-finite rows;
        # the constructor then copies and checks the features, once.
        try:
            snapshots = _replay_snapshots(features, starts, lambda_reg, alpha)
        except ContractViolation:
            raise ConfigurationError("features must be finite") from None
        return cls(
            snapshots=snapshots,
            phase_starts=starts,
            lambda_reg=lambda_reg,
            alpha=alpha,
            features=features,
        )


def switch_count_budget(d: int, M: int, lambda_reg: float) -> float:
    """Determinant-doubling budget d * log2(1 + M / (d * lambda_reg)).

    Real runs stay within this on generic context streams; trajectories that
    keep the covariance spectrum perfectly balanced can spend the whole
    doubling budget and land one above it, because the initial policy does
    not consume a doubling.
    """
    return d * math.log2(1.0 + M / (d * lambda_reg))


def plan(contexts: Sequence[Context], config: ExperimentConfig, *,
         norm_cap: float | None = 1.0) -> tuple[MixturePolicy, UncertaintyTrace]:
    """Run the reward-free offline pass over a batch of exactly config.M contexts.

    Returns the mixture policy and the uncertainty trace. Raises
    ConfigurationError if the batch does not hold M contexts and
    ContractViolation if feature dimensions are inconsistent.
    """
    M = config.M
    if len(contexts) != M:
        raise ConfigurationError(f"{len(contexts)} offline contexts, config expects M={M}")
    d = contexts[0].d
    cov = RegularizedCovariance(d, config.lambda_reg, config.alpha, norm_cap=norm_cap)
    most = _block_rows(d)

    snapshots: list[CovarianceSnapshot] = []
    phase_starts: list[int] = []
    values = np.empty(M)
    actions = np.empty(M, dtype=np.int64)
    chosen = np.empty((M, d))

    snap = None
    block = 1
    m = 1  # the next step to apply
    decided = 0  # steps up to here hold their choice under snap
    while m <= M:
        if cov.doubled_since(snap):
            block = m - phase_starts[-1] if phase_starts else 1
            snap = cov.snapshot()
            snapshots.append(snap)
            phase_starts.append(m)
            decided = m - 1
        if decided < m:
            decided = min(M, m + min(block, most) - 1)
            actions[m - 1:decided], values[m - 1:decided], chosen[m - 1:decided] = (
                _greedy_block(snap, contexts[m - 1:decided]))
            block *= 2
        # Add the chosen rows until the growth screen stops them; the next
        # pass then runs the exact doubling test.
        m += cov.rank_one_updates(chosen[m - 1:decided], values[m - 1:decided])

    policy = MixturePolicy(
        snapshots=snapshots,
        phase_starts=phase_starts,
        lambda_reg=config.lambda_reg,
        alpha=config.alpha,
        features=chosen,
    )
    trace = UncertaintyTrace(values=values, actions=actions)
    return policy, trace
