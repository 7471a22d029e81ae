"""Non-reactive comparison strategies: random, largest-norm, single-action,
and the full-feedback supervised oracle.

The three policies have the mixture policy's interface, so ``sample``
collects their data like the planner's, and none of them can read a
reward: ``draw(rng, n_actions)`` makes their own draws for a run of
contexts (only ``RandomPolicy`` draws anything), ``decide(contexts,
draws)`` picks every action of the run in one pass, and ``action(context,
rng)`` is the one-context case of the two. The oracle is no
policy: ``oracle_fits`` observes the reward of every action of each context
and yields ridge fits on growing prefixes of that full feedback.
"""

from __future__ import annotations

import logging
from typing import Iterator, Sequence

import numpy as np

from .core import BanditInstance, Context, action_counts, context_ids, feature_rows
from .covariance import _context_blocks
from .estimator import RidgeEstimate, ridge_fit_arrays

logger = logging.getLogger(__name__)


class RandomPolicy:
    """Uniform over the context's available actions."""

    def draw(self, rng: np.random.Generator, n_actions) -> np.ndarray:
        """The action of each context, uniform over its count: one
        ``integers`` call, equal to one call per context."""
        return rng.integers(np.asarray(n_actions, dtype=np.int64))

    def decide(self, contexts: Sequence[Context], draws: np.ndarray) -> np.ndarray:
        return np.asarray(draws, dtype=np.int64)

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(self.decide([context], self.draw(rng, [context.n_actions]))[0])


class LargestNormPolicy:
    """argmax of the Euclidean feature norm; ties break to the lowest index."""

    def draw(self, rng: np.random.Generator, n_actions) -> None:
        return None

    def decide(self, contexts: Sequence[Context], draws=None) -> np.ndarray:
        """One norm pass per block of contexts with one action count."""
        actions = np.empty(len(contexts), dtype=np.int64)
        for position, feats in _context_blocks(contexts, contexts[0].d):
            actions[position] = np.argmax(np.linalg.norm(feats, axis=2), axis=1)
        return actions

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(self.decide([context], self.draw(rng, [context.n_actions]))[0])


class SingleActionPolicy:
    """Always the fixed index, clamped to the available actions if needed."""

    def __init__(self, fixed_index: int = 0):
        self.fixed_index = int(fixed_index)

    def draw(self, rng: np.random.Generator, n_actions) -> None:
        return None

    def decide(self, contexts: Sequence[Context], draws=None) -> np.ndarray:
        clamped = np.clip(self.fixed_index, 0, action_counts(contexts) - 1)
        unavailable = np.flatnonzero(clamped != self.fixed_index)
        if len(unavailable):
            ids = context_ids(contexts)
            for i in unavailable.tolist():
                logger.warning(
                    "fixed action %d unavailable in context %s; clamping to %d",
                    self.fixed_index, ids[i], clamped[i],
                )
        return clamped

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(self.decide([context], self.draw(rng, [context.n_actions]))[0])


def _grown(buffer: np.ndarray, rows: int, size: int) -> np.ndarray:
    """A buffer of ``size`` rows whose first ``rows`` are those of ``buffer``;
    the rest is left unwritten, so its pages are not touched yet."""
    grown = np.empty((size, *buffer.shape[1:]))
    grown[:rows] = buffer[:rows]
    return grown


def oracle_fits(instance: BanditInstance, points: Sequence[int], lambda_reg: float,
                rng: np.random.Generator) -> Iterator[RidgeEstimate]:
    """The full-feedback supervised oracle: for each n in ``points``
    (increasing), the ridge fit on every action of the first n contexts.

    The stream is the one ``BanditInstance.reward`` of every action of each
    context would draw: each context's own draws, then, for a noisy
    instance, one ``standard_normal(A)`` call for its A rewards. The
    contexts are built and their rewards computed once those draws are
    made (``BanditInstance.rewards``), and each fit equals ``ridge_fit`` on
    the exploded dataset so far, one row per (context, action). It is an
    approximate upper bound for the bandit-feedback strategies.

    The rows are appended to one growing buffer, and each point fits a
    prefix view of it. A buffer that runs out is sized for the last point
    at the rows per context seen so far (and at least doubled), so the
    rows are copied a bounded number of times, not once per point.
    """
    law, noisy = instance.law, instance.noisy
    features, rewards = np.empty((0, instance.d)), np.empty(0)
    rows = seen = 0
    for n in points:
        if n > seen:
            draws, normals = [], []
            for _ in range(n - seen):
                draws.extend(law.draw(rng, 1))
                if noisy:
                    normals.append(rng.standard_normal(law.n_actions(draws[-1])))
            contexts = instance.build_contexts(draws)
            block = feature_rows(contexts)
            end = rows + len(block)
            if end > len(features):
                size = max(end * points[-1] // n, 2 * len(features), end)
                features, rewards = _grown(features, rows, size), _grown(rewards, rows, size)
            features[rows:end] = block
            rewards[rows:end] = instance.rewards(
                contexts, None, np.concatenate(normals) if normals else None, rng)
            rows = end
        seen = n
        yield ridge_fit_arrays(features[:rows], rewards[:rows], lambda_reg)
