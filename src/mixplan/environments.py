"""Instance generators and the learning-to-rank ingestion pipeline.

Three families live here: the category-structured synthetic instance used
for the simulation study, the two hand-constructed hard instances that
defeat uniform and context-ignoring exploration, and the sparse
``label qid:<id> idx:val ...`` ranking-file pipeline (parser, coordinate
subsampling, norm capping, deterministic splits) together with a stand-in
generator that emits files in the same format, so the full pipeline is
testable without the licensed dataset.

Feature indices in ranking files are 1-based on disk (the usual sparse
convention) and 0-based everywhere in memory. Generators are pure given
their seed; parsers are pure given the file bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    DataError,
    ParseError,
)

# Constants of the category-structured synthetic instance. A spiked row has
# variance _SPIKE_VARIANCE (_SHARED_ACTION_VARIANCE on the shared actions) at
# its spike coordinate and _FLOOR_VARIANCE on every other coordinate.
_SYNTHETIC_D = 20
_SYNTHETIC_ACTIONS = 10
_SYNTHETIC_CATEGORIES = 3
_SHARED_ACTIONS = (4, 5)
_SPIKE_VARIANCE = 1.0
_SHARED_ACTION_VARIANCE = 5.0
_FLOOR_VARIANCE = 1e-9


def synthetic_action_layout() -> dict:
    """Which action carries which variance spike, per category.

    Category c owns action c, whose spike sits at coordinate 0. Two further
    category-specific actions take spikes at the unique coordinates 2c+1 and
    2c+2; they are assigned from the pool of non-shared actions in order.
    Actions 4 and 5 are shared by all categories and spike at the last
    coordinate. Remaining actions have identically zero features.
    """
    pool = [a for a in range(_SYNTHETIC_ACTIONS) if a not in _SHARED_ACTIONS]
    layout = {}
    for c in range(_SYNTHETIC_CATEGORIES):
        extras = (
            pool[(2 * (c + 1)) % len(pool)],
            pool[(2 * (c + 1) + 1) % len(pool)],
        )
        layout[c] = {
            "own": (c, 0),
            "extras": tuple(zip(extras, (2 * c + 1, 2 * c + 2))),
            "shared": tuple((a, _SYNTHETIC_D - 1) for a in _SHARED_ACTIONS),
        }
    return layout


def make_synthetic(seed: int) -> BanditInstance:
    """Synthetic instance: three equiprobable context categories, sparse spikes.

    The reward parameter has its first d-1 coordinates drawn uniformly from
    {-1, +1} (seeded) and its last coordinate exactly zero, so the
    high-variance shared direction is worthless. Feature norms are
    unbounded (Gaussian spikes), so planner runs on this instance must
    relax the unit-norm gate.
    """
    d = _SYNTHETIC_D
    rng0 = np.random.default_rng(seed)
    theta = np.concatenate([rng0.choice([-1.0, 1.0], size=d - 1), [0.0]])
    layout = synthetic_action_layout()
    floor_std = math.sqrt(_FLOOR_VARIANCE)
    spike_std = math.sqrt(_SPIKE_VARIANCE)
    shared_std = math.sqrt(_SHARED_ACTION_VARIANCE)

    def sample_context(rng: np.random.Generator) -> Context:
        category = int(rng.integers(_SYNTHETIC_CATEGORIES))
        feats = np.zeros((_SYNTHETIC_ACTIONS, d))

        def spiked_row(coord: int, std: float) -> np.ndarray:
            row = rng.normal(0.0, floor_std, size=d)
            row[coord] = rng.normal(0.0, std)
            return row

        own_action, own_coord = layout[category]["own"]
        feats[own_action] = spiked_row(own_coord, spike_std)
        for action, coord in layout[category]["extras"]:
            feats[action] = spiked_row(coord, spike_std)
        for action, coord in layout[category]["shared"]:
            feats[action] = spiked_row(coord, shared_std)
        context_id = f"c{category}-{int(rng.integers(2**62)):016x}"
        return Context(context_id, feats)

    return BanditInstance(
        d=d, theta_star=theta, context_sampler=sample_context, noise_std=1.0
    )


def synthetic_category(context: Context) -> int:
    """Recover the category encoded in a synthetic context id."""
    return int(context.context_id[1 : context.context_id.index("-")])


def make_hard_uniform(A: int) -> BanditInstance:
    """Single-context instance where uniform exploration wastes A-1 arms.

    d = 2; action 0 has feature e1 and every other action has feature e2,
    so estimating action 0's reward under uniform play needs order A times
    more samples than an even split.
    """
    if A < 2:
        raise ConfigurationError("need at least 2 actions")
    feats = np.zeros((A, 2))
    feats[0, 0] = 1.0
    feats[1:, 1] = 1.0
    context = Context("s0", feats)
    return BanditInstance(
        d=2,
        theta_star=np.array([1.0, 0.0]),
        context_sampler=lambda rng: context,
        noise_std=1.0,
    )


def make_hard_goptimal(k: int) -> BanditInstance:
    """Instance where per-context optimal design is globally suboptimal.

    k uniform contexts in dimension d = 2k; actions 0..k-1 have the shared
    basis features e_0..e_{k-1}, while the last action of context i has the
    context-exclusive feature e_{k+i}. A per-context uniform design puts
    only 1/(k(k+1)) mass on each exclusive direction.
    """
    if k < 2:
        raise ConfigurationError("need k >= 2 contexts")
    d = 2 * k
    contexts = []
    for i in range(k):
        feats = np.zeros((k + 1, d))
        for j in range(k):
            feats[j, j] = 1.0
        feats[k, k + i] = 1.0
        contexts.append(Context(f"s{i}", feats))
    theta = np.array([(-1.0) ** j for j in range(d)]) / math.sqrt(d)
    return BanditInstance(
        d=d,
        theta_star=theta,
        context_sampler=lambda rng: contexts[int(rng.integers(k))],
        noise_std=1.0,
    )


def make_hard_nonconcentrating(d: int, M: int) -> BanditInstance:
    """Instance whose covariance fails to concentrate under weak regularization.

    One rare context (probability 1/(dM)) carries the only exposure to the
    first coordinate through its single action; the frequent contexts offer
    a second action that leaks a sqrt(d/M) component onto that coordinate.
    """
    if d < 2:
        raise ConfigurationError("need d >= 2")
    if M < d:
        raise ConfigurationError("need M >= d")
    leak = math.sqrt(d / M)
    keep = math.sqrt(1.0 - d / M)
    contexts = []
    rare = np.zeros((1, d))
    rare[0, 0] = 1.0
    contexts.append(Context("s0", rare))
    for s in range(1, d):
        feats = np.zeros((2, d))
        feats[0, s] = 1.0
        feats[1, s] = keep
        feats[1, 0] = leak
        contexts.append(Context(f"s{s}", feats))
    probs = np.full(d, (1.0 - 1.0 / (d * M)) / (d - 1))
    probs[0] = 1.0 / (d * M)
    # The draw rng.choice(d, p=probs) makes, without its per-call checks:
    # one uniform looked up in the normalized cumulative distribution.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    theta = np.ones(d) / math.sqrt(d)
    return BanditInstance(
        d=d,
        theta_star=theta,
        context_sampler=lambda rng: contexts[int(cdf.searchsorted(rng.random(), side="right"))],
        noise_std=1.0,
    )


def make_random_unit_instance(d: int, n_actions: int, seed: int = 0) -> BanditInstance:
    """Unstructured instance with i.i.d. feature rows inside the unit ball.

    Used for randomized sweeps (switch counts, potential checks) where the
    unit-norm cap must hold and no particular geometry is wanted.
    """
    if d < 1 or n_actions < 1:
        raise ConfigurationError("need d >= 1 and n_actions >= 1")
    rng0 = np.random.default_rng(seed)
    theta = rng0.normal(size=d)
    theta /= max(1.0, float(np.linalg.norm(theta)))

    def sample_context(rng: np.random.Generator) -> Context:
        directions = rng.normal(size=(n_actions, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(n_actions, 1))
        context_id = f"u-{int(rng.integers(2**62)):016x}"
        return Context(context_id, directions * radii)

    return BanditInstance(
        d=d, theta_star=theta, context_sampler=sample_context, noise_std=1.0
    )


# ---------------------------------------------------------------------------
# Learning-to-rank ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankDatasetSpec:
    """Preprocessing constants for ranking files."""

    raw_dim: int = 700
    subsampled_dim: int = 300
    max_actions: int = 20
    norm_cap: float = 1.0


@dataclass
class QueryGroup:
    """All rows of one query: relevance labels plus sparse 0-based features."""

    qid: str
    relevances: list = field(default_factory=list)
    rows: list = field(default_factory=list)


@dataclass(frozen=True)
class RankedContext:
    """A context paired with the relevance label of each of its actions."""

    context: Context
    relevance: np.ndarray

    def __post_init__(self):
        rel = np.asarray(self.relevance, dtype=np.float64)
        rel.setflags(write=False)
        object.__setattr__(self, "relevance", rel)
        if len(rel) != self.context.n_actions:
            raise DataError("relevance length does not match the action count")


@dataclass(frozen=True)
class RankIngest:
    """Ingestion output: deterministic splits plus the recorded subsample."""

    train: tuple
    valid: tuple
    test: tuple
    subsample_indices: np.ndarray


def parse_rank_file(path) -> list[QueryGroup]:
    """Parse a sparse ranking file into query groups, preserving order.

    Lines look like ``label qid:<id> idx:val idx:val ...`` with 1-based
    feature indices; ``#`` starts a comment. Malformed lines raise
    ParseError with the line number.
    """
    groups: dict[str, QueryGroup] = {}
    path = Path(path)
    with path.open() as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"bad relevance label {parts[0]!r}", line_number) from None
            if len(parts) < 2 or not parts[1].startswith("qid:"):
                raise ParseError("missing qid:<id> field", line_number)
            qid = parts[1][4:]
            if not qid:
                raise ParseError("empty query id", line_number)
            pairs = []
            for token in parts[2:]:
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val, got {token!r}", line_number)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(f"bad feature token {token!r}", line_number) from None
                if idx < 1:
                    raise ParseError(f"feature indices are 1-based, got {idx}", line_number)
                pairs.append((idx - 1, val))
            group = groups.setdefault(qid, QueryGroup(qid=qid))
            group.relevances.append(label)
            group.rows.append(pairs)
    return list(groups.values())


def draw_subsample_indices(spec: RankDatasetSpec, seed: int) -> np.ndarray:
    """Coordinate subsample for this seed: sorted, without replacement."""
    if spec.subsampled_dim > spec.raw_dim:
        raise ConfigurationError("cannot subsample to more coordinates than exist")
    rng = np.random.default_rng(seed)
    indices = rng.choice(spec.raw_dim, size=spec.subsampled_dim, replace=False)
    return np.sort(indices)


def build_rank_contexts(groups: Sequence[QueryGroup], spec: RankDatasetSpec,
                        subsample_indices: np.ndarray) -> list[RankedContext]:
    """Densify, truncate to max_actions, subsample coordinates, cap norms at 1.

    Rows whose post-subsampling norm exceeds the cap are rescaled onto the
    cap; all others are left untouched. Empty query groups are skipped with
    a warning.
    """
    indices = np.asarray(subsample_indices, dtype=np.int64)
    position = {int(orig): j for j, orig in enumerate(indices)}
    contexts = []
    for group in groups:
        if not group.rows:
            warnings.warn(f"query {group.qid} has no documents; skipped")
            continue
        rows = group.rows[: spec.max_actions]
        relevances = group.relevances[: spec.max_actions]
        dense = np.zeros((len(rows), len(indices)))
        for r, pairs in enumerate(rows):
            for idx, val in pairs:
                if idx >= spec.raw_dim:
                    raise DataError(
                        f"query {group.qid}: feature index {idx + 1} exceeds raw_dim {spec.raw_dim}"
                    )
                j = position.get(idx)
                if j is not None:
                    dense[r, j] = val
        norms = np.linalg.norm(dense, axis=1)
        scale = np.maximum(norms / spec.norm_cap, 1.0)
        dense = dense / scale[:, None]
        contexts.append(
            RankedContext(Context(group.qid, dense), np.array(relevances))
        )
    return contexts


#: The split files of a ranking directory, in (train, valid, test) order.
SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


def ingest_rank_dataset(path, spec: RankDatasetSpec = RankDatasetSpec(),
                        seed: int = 0) -> RankIngest:
    """Ingest a ranking dataset from a directory of splits or a single file.

    A directory must contain train.txt (test.txt and valid.txt optional); a
    single file is split 60/20/20 into train/valid/test by a seeded shuffle
    of its queries. The same seed drives the coordinate subsample, which is
    returned so it can be persisted alongside outputs.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(
            f"dataset path {path} does not exist; generate a stand-in file with "
            "gen-standin or point at files in the sparse 'label qid:<id> idx:val' format"
        )
    subsample_indices = draw_subsample_indices(spec, seed)
    if path.is_dir():
        if not (path / SPLIT_FILES[0]).exists():
            raise ConfigurationError(f"directory {path} has no {SPLIT_FILES[0]}")
        splits = []
        for name in SPLIT_FILES:
            file = path / name
            if file.exists():
                groups = parse_rank_file(file)
                splits.append(tuple(build_rank_contexts(groups, spec, subsample_indices)))
            else:
                splits.append(tuple())
        train, valid, test = splits
    else:
        contexts = build_rank_contexts(parse_rank_file(path), spec, subsample_indices)
        order = np.random.default_rng(seed).permutation(len(contexts))
        n_train = int(0.6 * len(contexts))
        n_valid = int(0.2 * len(contexts))
        train = tuple(contexts[i] for i in order[:n_train])
        valid = tuple(contexts[i] for i in order[n_train : n_train + n_valid])
        test = tuple(contexts[i] for i in order[n_train + n_valid :])
    return RankIngest(
        train=train, valid=valid, test=test, subsample_indices=subsample_indices
    )


def make_rank_instance(ranked: Sequence[RankedContext],
                       order: Optional[np.ndarray] = None) -> BanditInstance:
    """Data-driven instance streaming ranked contexts in a fixed order.

    Rewards are the deterministic relevance labels (a misspecified linear
    model); theta_star is unset. The stream raises ConfigurationError when
    the supplied contexts are exhausted.
    """
    if not ranked:
        raise ConfigurationError("no ranked contexts supplied")
    d = ranked[0].context.d
    relevance_by_id = {rc.context.context_id: rc.relevance for rc in ranked}
    if order is None:
        order = np.arange(len(ranked))
    sequence = [ranked[int(i)].context for i in order]
    cursor = {"next": 0}

    def stream(rng: np.random.Generator) -> Context:
        i = cursor["next"]
        if i >= len(sequence):
            raise ConfigurationError("ranked context stream exhausted")
        cursor["next"] = i + 1
        return sequence[i]

    def relevance_reward(context: Context, action_index: int, rng: np.random.Generator) -> float:
        return float(relevance_by_id[context.context_id][action_index])

    return BanditInstance(
        d=d,
        theta_star=None,
        context_sampler=stream,
        noise_std=0.0,
        reward_fn=relevance_reward,
    )


# Stand-in files: a query has 1.._STANDIN_MAX_DOCS documents (uniform), and each
# raw coordinate of a document is nonzero with probability _STANDIN_DENSITY.
_STANDIN_MAX_DOCS = 35
_STANDIN_DENSITY = 0.02


def generate_standin_file(path, n_queries: int, seed: int, raw_dim: int = 700) -> Path:
    """Emit a synthetic ranking file in the sparse interchange format.

    Relevance labels are a quantized noisy linear function of the features,
    so extracted policies have signal to find. Deterministic given the seed.
    """
    if n_queries < 1:
        raise ConfigurationError("need at least one query")
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, size=raw_dim)
    scale = math.sqrt(max(1.0, raw_dim * _STANDIN_DENSITY))
    path = Path(path)
    with path.open("w") as handle:
        for q in range(n_queries):
            n_docs = int(rng.integers(1, _STANDIN_MAX_DOCS + 1))
            for _ in range(n_docs):
                n_feats = max(1, int(rng.binomial(raw_dim, _STANDIN_DENSITY)))
                idx = np.sort(rng.choice(raw_dim, size=n_feats, replace=False))
                vals = np.round(rng.uniform(0.05, 1.0, size=n_feats), 4)
                score = float(vals @ weights[idx]) / scale
                relevance = int(np.clip(round(2.0 + 1.5 * score + 0.3 * rng.standard_normal()), 0, 4))
                tokens = " ".join(f"{i + 1}:{v}" for i, v in zip(idx, vals))
                handle.write(f"{relevance} qid:{q} {tokens}\n")
    return path
