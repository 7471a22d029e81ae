"""Instance generators and the learning-to-rank ingestion pipeline.

Three families live here: the category-structured synthetic instance used
for the simulation study, the two hand-constructed hard instances that
defeat uniform and context-ignoring exploration, and the sparse
``label qid:<id> idx:val ...`` ranking-file pipeline (parser, coordinate
subsampling, norm capping, deterministic splits) together with a stand-in
generator that emits files in the same format, so the full pipeline is
testable without the licensed dataset. ``SIMULATED`` names the simulated
environments of the CLI and the harness.

Ranking files are read into columns (``RankFile``); feature indices are
1-based on disk (the usual sparse convention) and 0-based in memory, and a
non-finite label or value or a repeated index is rejected. Generators are
pure given their seed; parsers are pure given the file bytes.

Every instance is built from a ``ContextLaw``. The synthetic, random-unit
and non-concentrating laws make the generator calls of each context, then
build a ``ContextBatch`` in one vectorised step. The two other hard
instances and the ranking stream take the law of a plain sampler
(``ContextLaw.of_sampler``), whose batches stack the sampled contexts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContextBatch,
    ContextLaw,
    DataError,
    ParseError,
    check_settings,
    stack_contexts,
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

    A context draws its category, then d + 1 standard normals for each of
    its five spiked rows (own action, two extras, two shared): d for the
    floor, one for the spike. A spiked row is ``floor_std`` times its floor
    normals with ``std`` times the spike normal at its spike coordinate, as
    ``rng.normal(0, s)`` computes ``0 + s * z``. Last comes the id.
    """
    d = _SYNTHETIC_D
    rng0 = np.random.default_rng(seed)
    theta = np.concatenate([rng0.choice([-1.0, 1.0], size=d - 1), [0.0]])
    layout = synthetic_action_layout()
    spiked = [[layout[c]["own"], *layout[c]["extras"], *layout[c]["shared"]]
              for c in range(_SYNTHETIC_CATEGORIES)]
    row_actions = np.array([[action for action, _ in rows] for rows in spiked])
    row_coords = np.array([[coord for _, coord in rows] for rows in spiked])
    n_rows = row_actions.shape[1]
    floor_std = math.sqrt(_FLOOR_VARIANCE)
    spike_stds = np.array([math.sqrt(_SPIKE_VARIANCE)] * 3
                          + [math.sqrt(_SHARED_ACTION_VARIANCE)] * 2)

    def draw(rng: np.random.Generator, n: int) -> list:
        return [(rng.integers(_SYNTHETIC_CATEGORIES), rng.standard_normal(n_rows * (d + 1)),
                 rng.integers(2**62)) for _ in range(n)]

    def build(draws) -> ContextBatch:
        n = len(draws)
        categories = np.array([category for category, _, _ in draws])
        normals = np.stack([z for _, z, _ in draws]).reshape(n, n_rows, d + 1)
        steps, actions = np.arange(n)[:, None], row_actions[categories]
        features = np.zeros((n, _SYNTHETIC_ACTIONS, d))
        features[steps, actions] = normals[:, :, :d]
        # Scaled in place; + 0.0 keeps the sign numpy's 0 + s * z gives a
        # zero product (and leaves the zero rows as they are).
        features *= floor_std
        features += 0.0
        features[steps, actions, row_coords[categories]] = normals[:, :, d] * spike_stds + 0.0
        ids = [f"c{int(category)}-{int(tag):016x}" for category, _, tag in draws]
        return ContextBatch(ids, features)

    law = ContextLaw(draw=draw, build=build, n_actions=lambda draw: _SYNTHETIC_ACTIONS)
    return BanditInstance(d=d, theta_star=theta, context_law=law, noise_std=1.0)


def make_hard_uniform(A: int) -> BanditInstance:
    """Single-context instance where uniform exploration wastes A-1 arms.

    d = 2; action 0 has feature e1 and every other action has feature e2,
    so estimating action 0's reward under uniform play needs order A times
    more samples than an even split.
    """
    check_settings(n_actions=A)
    feats = np.zeros((A, 2))
    feats[0, 0] = 1.0
    feats[1:, 1] = 1.0
    context = Context("s0", feats)
    return BanditInstance(
        d=2,
        theta_star=np.array([1.0, 0.0]),
        context_law=ContextLaw.of_sampler(lambda rng: context),
        noise_std=1.0,
    )


def make_hard_goptimal(k: int) -> BanditInstance:
    """Instance where per-context optimal design is globally suboptimal.

    k uniform contexts in dimension d = 2k; actions 0..k-1 have the shared
    basis features e_0..e_{k-1}, while the last action of context i has the
    context-exclusive feature e_{k+i}. A per-context uniform design puts
    only 1/(k(k+1)) mass on each exclusive direction.
    """
    check_settings(k=k)
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
        context_law=ContextLaw.of_sampler(lambda rng: contexts[int(rng.integers(k))]),
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
    # one uniform looked up in the normalized cumulative distribution. The
    # uniforms of n contexts are one rng.random(n) call.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    theta = np.ones(d) / math.sqrt(d)
    law = ContextLaw(
        draw=lambda rng, n: rng.random(n),
        build=lambda draws: stack_contexts(
            [contexts[i] for i in cdf.searchsorted(draws, side="right").tolist()]),
        n_actions=lambda u: contexts[int(cdf.searchsorted(u, side="right"))].n_actions,
    )
    return BanditInstance(d=d, theta_star=theta, context_law=law, noise_std=1.0)


def make_random_unit_instance(d: int, n_actions: int, seed: int = 0) -> BanditInstance:
    """Unstructured instance with i.i.d. feature rows inside the unit ball.

    Used for randomized sweeps (switch counts, potential checks) where the
    unit-norm cap must hold and no particular geometry is wanted.
    """
    check_settings(d=d)
    if n_actions < 1:
        raise ConfigurationError(f"need at least 1 action, got n_actions={n_actions}")
    rng0 = np.random.default_rng(seed)
    theta = rng0.normal(size=d)
    theta /= max(1.0, float(np.linalg.norm(theta)))

    def draw(rng: np.random.Generator, n: int) -> list:
        return [(rng.normal(size=(n_actions, d)), rng.uniform(0.0, 1.0, size=(n_actions, 1)),
                 rng.integers(2**62)) for _ in range(n)]

    def build(draws) -> ContextBatch:
        features = np.empty((len(draws), n_actions, d))
        # Normalized one context at a time: a whole batch at once was slower.
        for out, (directions, radii, _) in zip(features, draws):
            np.divide(directions, np.linalg.norm(directions, axis=1, keepdims=True), out=out)
            out *= radii
        return ContextBatch([f"u-{int(tag):016x}" for _, _, tag in draws], features)

    law = ContextLaw(draw=draw, build=build, n_actions=lambda draw: n_actions)
    return BanditInstance(d=d, theta_star=theta, context_law=law, noise_std=1.0)


#: The simulated environments of the CLI and the harness, by name: how a
#: run's (seed, n_actions, k) builds the instance, and the norm cap its
#: planner runs under (the synthetic spikes are unbounded). Each factory is
#: looked up when called, so a rebound module attribute is the one called.
SIMULATED = {
    "synthetic": (lambda seed, n_actions, k: make_synthetic(seed), None),
    "hard_uniform": (lambda seed, n_actions, k: make_hard_uniform(n_actions), 1.0),
    "hard_goptimal": (lambda seed, n_actions, k: make_hard_goptimal(k), 1.0),
}


# ---------------------------------------------------------------------------
# Learning-to-rank ingestion
# ---------------------------------------------------------------------------


#: Documents kept per query (the first in file order); norm cap of each row.
RANK_MAX_ACTIONS = 20
RANK_NORM_CAP = 1.0


@dataclass(frozen=True)
class RankDatasetSpec:
    """Dimensions of ranking files: raw coordinates and the subsample kept."""

    raw_dim: int = 700
    subsampled_dim: int = 300

    def __post_init__(self):
        check_settings(raw_dim=self.raw_dim, subsampled_dim=self.subsampled_dim)
        if self.subsampled_dim > self.raw_dim:
            raise ConfigurationError(f"subsampled_dim must be at most raw_dim ({self.raw_dim}), "
                                     f"got {self.subsampled_dim}")


class RankFile(NamedTuple):
    """A ranking file as columns; its documents are its data lines, in order."""

    qids: tuple  # the query ids, in first-seen order
    query: np.ndarray  # per document: the index of its query id in ``qids``
    labels: np.ndarray  # per document: its relevance label
    ends: np.ndarray  # per document: the end of its entries (CSR row offset)
    indices: np.ndarray  # per entry: a 0-based feature index
    values: np.ndarray  # per entry: that feature's value


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


def parse_rank_file(path) -> RankFile:
    """Parse a sparse ranking file into columns, preserving order.

    Lines look like ``label qid:<id> idx:val idx:val ...`` with 1-based
    feature indices; ``#`` starts a comment. A malformed line, or one that
    is not UTF-8 text, raises ParseError with its line number as it is read.
    Once the whole file is read, the first line with a non-finite label or
    value or a repeated index raises ParseError: a syntax fault is reported
    before these even when it comes later in the file.
    """
    from array import array  # an extension module: loaded by the runs that read ranking files
    qids: dict[str, int] = {}
    query, labels, ends, lines = array("q"), array("d"), array("q"), array("q")
    indices, values = array("q"), array("d")
    with Path(path).open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path} is not UTF-8 text: {exc}", line_number) from None
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
            for token in parts[2:]:
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val, got {token!r}", line_number)
                try:
                    indices.append(int(idx_str) - 1)  # OverflowError beyond 64 bits
                    values.append(float(val_str))
                except (ValueError, OverflowError):
                    raise ParseError(f"bad feature token {token!r}", line_number) from None
                if indices[-1] < 0:
                    raise ParseError(f"feature indices are 1-based, got {indices[-1] + 1}",
                                     line_number)
            query.append(qids.setdefault(qid, len(qids)))
            labels.append(label)
            ends.append(len(indices))
            lines.append(line_number)
    parsed = RankFile(tuple(qids), *map(np.asarray, (query, labels, ends, indices, values)))
    owner = np.repeat(np.arange(len(ends)), np.diff(parsed.ends, prepend=0))
    order = np.lexsort((parsed.indices, owner))
    repeats = (np.diff(parsed.indices[order]) == 0) & (np.diff(owner[order]) == 0)
    faults = [(docs.min(), message) for docs, message in (
        (np.flatnonzero(~np.isfinite(parsed.labels)), "non-finite label"),
        (owner[~np.isfinite(parsed.values)], "non-finite feature value"),
        (owner[order[1:][repeats]], "feature index given twice")) if docs.size]
    if faults:
        doc, message = min(faults)
        raise ParseError(message, lines[doc])
    return parsed


def draw_subsample_indices(spec: RankDatasetSpec, seed: int) -> np.ndarray:
    """Coordinate subsample for this seed: sorted, without replacement."""
    rng = np.random.default_rng(seed)
    indices = rng.choice(spec.raw_dim, size=spec.subsampled_dim, replace=False)
    return np.sort(indices)


def build_rank_contexts(parsed: RankFile, spec: RankDatasetSpec,
                        subsample_indices: np.ndarray) -> list[RankedContext]:
    """Densify, truncate to ``RANK_MAX_ACTIONS`` documents, subsample
    coordinates, cap norms at ``RANK_NORM_CAP``.

    Queries keep their first-seen order and documents their file order.
    Rows whose post-subsampling norm exceeds the cap are rescaled onto the
    cap; all others are left untouched.
    """
    column = np.full(spec.raw_dim, -1)
    column[subsample_indices] = np.arange(len(subsample_indices))
    lengths = np.diff(parsed.ends, prepend=0)
    by_query = np.argsort(parsed.query, kind="stable")
    query_ends = np.searchsorted(parsed.query[by_query], np.arange(len(parsed.qids) + 1))
    contexts = []
    for q, qid in enumerate(parsed.qids):
        # The query's documents in file order, all their entries, and each entry's row.
        docs = by_query[query_ends[q] : query_ends[q + 1]]
        rows = np.repeat(np.arange(len(docs)), lengths[docs])
        entries = np.arange(len(rows)) + np.repeat(parsed.ends[docs] - lengths[docs].cumsum(),
                                                   lengths[docs])
        feats = parsed.indices[entries]
        if (feats >= spec.raw_dim).any():
            raise DataError(f"query {qid}: feature index {feats[feats >= spec.raw_dim][0] + 1} "
                            f"exceeds raw_dim {spec.raw_dim}")
        kept = (rows < RANK_MAX_ACTIONS) & (column[feats] >= 0)
        dense = np.zeros((min(len(docs), RANK_MAX_ACTIONS), len(subsample_indices)))
        dense[rows[kept], column[feats[kept]]] = parsed.values[entries[kept]]
        scale = np.maximum(np.linalg.norm(dense, axis=1) / RANK_NORM_CAP, 1.0)
        dense = dense / scale[:, None]
        contexts.append(RankedContext(Context(qid, dense), parsed.labels[docs[:RANK_MAX_ACTIONS]]))
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

    Rewards are the recorded relevance labels (a misspecified linear
    model), passed as the instance's ``labels``; theta_star is unset. Unlike
    other instances this one is not immutable: its stream advances a cursor
    hidden in a closure, so each context is served once, and raises
    ConfigurationError when the supplied contexts are exhausted.
    """
    if not ranked:
        raise ConfigurationError("no ranked contexts supplied")
    d = ranked[0].context.d
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

    return BanditInstance(
        d=d,
        theta_star=None,
        context_law=ContextLaw.of_sampler(stream),
        noise_std=0.0,
        labels={rc.context.context_id: rc.relevance for rc in ranked},
    )


# Stand-in files: a query has 1.._STANDIN_MAX_DOCS documents (uniform), and each
# raw coordinate of a document is nonzero with probability _STANDIN_DENSITY.
_STANDIN_MAX_DOCS = 35
_STANDIN_DENSITY = 0.02


def generate_standin_file(path, n_queries: int, seed: int, raw_dim: int = 700) -> Path:
    """Emit a synthetic ranking file in the sparse interchange format.

    Relevance labels are a quantized noisy linear function of the features,
    so extracted policies have signal to find. The bytes depend on the
    arguments alone: the README gives the law, the generator calls in order.
    Lines go to a temporary file that replaces ``path`` only once it is
    complete.
    """
    check_settings(n_queries=n_queries, seed=seed, raw_dim=raw_dim)
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, size=raw_dim)
    scale = math.sqrt(max(1.0, raw_dim * _STANDIN_DENSITY))
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w") as handle:
            for q in range(n_queries):
                n_docs = int(rng.integers(1, _STANDIN_MAX_DOCS + 1))
                for _ in range(n_docs):
                    n_feats = max(1, int(rng.binomial(raw_dim, _STANDIN_DENSITY)))
                    idx = np.sort(rng.choice(raw_dim, size=n_feats, replace=False))
                    vals = np.round(rng.uniform(0.05, 1.0, size=n_feats), 4)
                    score = float(vals @ weights[idx]) / scale
                    noise = 0.3 * rng.standard_normal()
                    relevance = min(max(round(2.0 + 1.5 * score + noise), 0), 4)
                    # repr of a Python float is the text numpy's str gives the float64.
                    tokens = " ".join([f"{i + 1}:{v!r}"
                                       for i, v in zip(idx.tolist(), vals.tolist())])
                    handle.write(f"{relevance} qid:{q} {tokens}\n")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path
