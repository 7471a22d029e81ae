"""Offline phase: reward-free uncertainty maximization over historical contexts.

The planner walks the offline context stream exactly once. At each step it
acts greedily with respect to the inverse-covariance norm measured against
the most recent covariance snapshot, adds the chosen feature to the
covariance (scaled by alpha), and re-snapshots whenever the determinant has
more than doubled since the last snapshot. The result is a mixture policy:
a uniform mixture over the per-step policies, held in memory as the K
distinct snapshots plus the step at which each phase begins.

A step costs one triangular solve against the snapshot. The covariance is
factored only at a new snapshot and when the log-determinant growth bound
summed from those solves (see ``mixplan.covariance``) comes within
``GROWTH_SLACK`` of log 2, where the exact doubling test runs. The bound
only screens out exact tests that cannot fire, so the snapshots are the
ones an exact test at every step would take.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .artifact import read_artifact, scalar, write_artifact
from .core import ConfigurationError, Context, ContractViolation, ExperimentConfig
from .covariance import CovarianceSnapshot, RegularizedCovariance

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

    def __len__(self) -> int:
        return len(self.values)


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


def _check_features(features, M: int, d: int) -> np.ndarray:
    features = np.array(features, dtype=np.float64)
    if features.shape != (M, d):
        raise ConfigurationError(f"features have shape {features.shape}, expected ({M}, {d})")
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
        for phi in features[step - 1:start - 1]:
            cov.rank_one_update(phi)
        step = start
        snapshots.append(cov.snapshot())
    return snapshots


@dataclass(frozen=True, eq=False)
class MixturePolicy:
    """Uniform mixture over a planner run's per-step policies.

    Only the K distinct snapshot policies are kept; drawing a step index
    m uniformly from [1, M] and mapping it to its phase reproduces the full
    mixture. ``features`` (read-only, M x d) are the planner's chosen
    features, from which ``save``/``load`` rebuild the snapshots. Immutable
    and freely shareable across threads.
    """

    snapshots: Sequence[CovarianceSnapshot]
    phase_starts: Sequence[int]
    M: int
    d: int
    lambda_reg: float
    alpha: float
    features: np.ndarray

    def __post_init__(self):
        starts = _check_phase_starts(self.phase_starts, self.M)
        if len(starts) != len(self.snapshots):
            raise ConfigurationError("phase_starts and snapshots must align")
        object.__setattr__(self, "phase_starts", starts)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        object.__setattr__(self, "features", _check_features(self.features, self.M, self.d))

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

    def action(self, context: Context, rng: np.random.Generator) -> int:
        """Draw m uniformly from [1, M], act with the snapshot of m's phase."""
        m = int(rng.integers(1, self.M + 1))
        phase = bisect_right(self.phase_starts, m) - 1
        return self.snapshot_action(phase, context)

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
        not a finite (M, d) array.
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
        raw = payload["features"]
        if raw.ndim != 2 or raw.dtype.kind != "f":
            raise ConfigurationError(f"features must be a 2-d float array, got {raw.shape}")
        d = raw.shape[1]
        features = _check_features(raw, M, d)
        return cls(
            snapshots=_replay_snapshots(features, starts, lambda_reg, alpha),
            phase_starts=starts,
            M=M,
            d=d,
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


def plan(contexts: Iterable[Context], config: ExperimentConfig, *,
         norm_cap: float | None = 1.0) -> tuple[MixturePolicy, UncertaintyTrace]:
    """Run the reward-free offline pass over exactly config.M contexts.

    Returns the mixture policy and the uncertainty trace. Raises
    ConfigurationError if the stream cannot supply M contexts and
    ContractViolation if feature dimensions are inconsistent.
    """
    if hasattr(contexts, "__len__") and len(contexts) != config.M:
        raise ConfigurationError(
            f"context stream has {len(contexts)} contexts, config expects M={config.M}"
        )
    stream = iter(contexts)
    try:
        context = next(stream)
    except StopIteration:
        raise ConfigurationError("offline context stream is empty") from None

    d = context.d
    M = config.M
    cov = RegularizedCovariance(d, config.lambda_reg, config.alpha, norm_cap=norm_cap)

    snapshots: list[CovarianceSnapshot] = []
    phase_starts: list[int] = []
    values = np.empty(M)
    actions = np.empty(M, dtype=np.int64)
    chosen = np.empty((M, d))

    snap = None
    for m in range(1, M + 1):
        if m > 1:
            try:
                context = next(stream)
            except StopIteration:
                raise ConfigurationError(
                    f"offline context stream ended after {m - 1} of {M} contexts"
                ) from None
        if context.d != d:
            raise ContractViolation("context dimension changed mid-stream")

        if cov.doubled_since(snap):
            snap = cov.snapshot()
            snapshots.append(snap)
            phase_starts.append(m)

        norms = snap.mahalanobis_rows(context.features)
        a = int(np.argmax(norms))
        values[m - 1] = norms[a]
        actions[m - 1] = a
        chosen[m - 1] = context.features[a]
        cov.rank_one_update(context.features[a], norms[a])

    policy = MixturePolicy(
        snapshots=snapshots,
        phase_starts=phase_starts,
        M=M,
        d=d,
        lambda_reg=config.lambda_reg,
        alpha=config.alpha,
        features=chosen,
    )
    trace = UncertaintyTrace(values=values, actions=actions)
    return policy, trace
