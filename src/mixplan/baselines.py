"""Non-reactive comparison strategies: random, largest-norm, single-action,
and the full-feedback supervised oracle.

The three policies have the mixture policy's interface, so ``sample``
collects their data like the planner's, and none of them can read a
reward: ``draw(rng, n_actions)`` makes their own draws for a run of
contexts (only ``RandomPolicy`` draws anything), ``decide(contexts,
draws)`` picks every action of the run in one pass, and ``action(context,
rng)`` is the one-context case of the two. The oracle is no
policy: ``full_feedback`` collects the reward of every action of each
context into one exploded ``InteractionDataset``, and the harness
ridge-fits its prefixes as it fits prefixes of ``sample``'s dataset.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    BanditInstance,
    Context,
    InteractionDataset,
    action_counts,
    context_ids,
    feature_rows,
)
from .covariance import _context_blocks


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
    """Always action 0, which every context has."""

    def draw(self, rng: np.random.Generator, n_actions) -> None:
        return None

    def decide(self, contexts: Sequence[Context], draws=None) -> np.ndarray:
        return np.zeros(len(contexts), dtype=np.int64)

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(self.decide([context], self.draw(rng, [context.n_actions]))[0])


def full_feedback(instance: BanditInstance, n: int,
                  rng: np.random.Generator) -> tuple[InteractionDataset, np.ndarray]:
    """The full-feedback supervised oracle's data: the exploded dataset of
    the next n contexts, one row per (context, action) in context then
    action order, each with the context's id, the action index, its feature
    row and its reward; and ``ends``, where ``ends[i]`` is the row count of
    the first i + 1 contexts.

    The stream is the one ``BanditInstance.reward`` of every action of each
    context would draw: each context's own draws, then, for a noisy
    instance, one ``standard_normal(A)`` call for its A rewards. A ridge fit
    on ``dataset[:ends[i]]`` is an approximate upper bound for the
    bandit-feedback strategies at i + 1 contexts.
    """
    law, noisy = instance.context_law, instance.noisy
    draws, normals = [], []
    for _ in range(n):
        draws.extend(law.draw(rng, 1))
        if noisy:
            normals.append(rng.standard_normal(law.n_actions(draws[-1])))
    contexts = instance.build_contexts(draws)
    rewards = instance.rewards(contexts, None, np.concatenate(normals) if normals else None)
    counts = action_counts(contexts)
    ends = np.cumsum(counts)
    ids = [cid for cid, count in zip(context_ids(contexts), counts.tolist())
           for _ in range(count)]
    actions = np.arange(len(ids)) - np.repeat(ends - counts, counts)
    return InteractionDataset(instance.d, ids, actions, feature_rows(contexts), rewards), ends
