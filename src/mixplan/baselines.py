"""Non-reactive comparison strategies: random, largest-norm, single-action,
and the full-feedback supervised oracle.

The three policies have the mixture policy's interface, so ``sample``
collects their data like the planner's, and none of them can read a
reward: ``draw(rng, n_actions)`` makes their own draws for a run of
contexts (only ``RandomPolicy`` draws anything), ``decide(contexts,
draws)`` picks every action of the run in one pass, and ``action(context,
rng)`` is the one-context case of the two. The oracle is no
policy: ``full_feedback`` collects the reward of every action of each
context, and the harness ridge-fits prefixes of it as it fits prefixes of
``sample``'s dataset.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from .core import BanditInstance, Context, action_counts, context_ids, feature_rows
from .covariance import _context_blocks

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


def full_feedback(instance: BanditInstance, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-feedback supervised oracle's data: the (R, d) feature rows
    and the R rewards of every action of the next n contexts, in context
    then action order, and ``ends``, where ``ends[i]`` is the row count of
    the first i + 1 contexts.

    The stream is the one ``BanditInstance.reward`` of every action of each
    context would draw: each context's own draws, then, for a noisy
    instance, one ``standard_normal(A)`` call for its A rewards. A ridge fit
    on the first ``ends[i]`` rows equals ``ridge_fit`` on the exploded
    dataset of the first i + 1 contexts, one row per (context, action); it
    is an approximate upper bound for the bandit-feedback strategies.
    """
    law, noisy = instance.law, instance.noisy
    draws, normals = [], []
    for _ in range(n):
        draws.extend(law.draw(rng, 1))
        if noisy:
            normals.append(rng.standard_normal(law.n_actions(draws[-1])))
    contexts = instance.build_contexts(draws)
    rewards = instance.rewards(contexts, None, np.concatenate(normals) if normals else None)
    return feature_rows(contexts), rewards, np.cumsum(action_counts(contexts))
