"""Non-reactive comparison strategies: random, largest-norm, single-action,
and the full-feedback supervised oracle.

The three policies are classes whose one entry point is the mixture
policy's ``action(context, rng)`` method, so ``sample`` collects their data
like the planner's, and none of them can read a reward. The oracle is no
policy: ``oracle_fits`` observes the reward of every action of each context
and yields ridge fits on growing prefixes of that full feedback.
"""

from __future__ import annotations

import logging
from typing import Iterator, Sequence

import numpy as np

from .core import BanditInstance, Context
from .estimator import RidgeEstimate, ridge_fit_arrays

logger = logging.getLogger(__name__)


class RandomPolicy:
    """Uniform over the context's available actions."""

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(rng.integers(context.n_actions))


class LargestNormPolicy:
    """argmax of the Euclidean feature norm; ties break to the lowest index."""

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return int(np.argmax(np.linalg.norm(context.features, axis=1)))


class SingleActionPolicy:
    """Always the fixed index, clamped to the available actions if needed."""

    def __init__(self, fixed_index: int = 0):
        self.fixed_index = int(fixed_index)

    def action(self, context: Context, rng: np.random.Generator) -> int:
        clamped = min(max(self.fixed_index, 0), context.n_actions - 1)
        if clamped != self.fixed_index:
            logger.warning(
                "fixed action %d unavailable in context %s; clamping to %d",
                self.fixed_index, context.context_id, clamped,
            )
        return clamped


def oracle_fits(instance: BanditInstance, points: Sequence[int], lambda_reg: float,
                rng: np.random.Generator) -> Iterator[RidgeEstimate]:
    """The full-feedback supervised oracle: for each n in ``points``
    (increasing), the ridge fit on every action of the first n contexts.

    Contexts and the reward of every action are drawn from ``rng`` in stream
    order through ``BanditInstance.reward``; each fit equals ``ridge_fit`` on the
    exploded dataset so far, one row per (context, action). The feature
    blocks and rewards are kept as arrays as the stream advances.
    It is an approximate upper bound for the bandit-feedback strategies.
    """
    blocks = [np.zeros((0, instance.d))]
    rewards: list[float] = []
    seen = 0
    for n in points:
        for _ in range(n - seen):
            context = instance.context_sampler(rng)
            blocks.append(context.features)
            rewards.extend(instance.reward(context, a, rng) for a in range(context.n_actions))
        seen = n
        yield ridge_fit_arrays(np.vstack(blocks), np.array(rewards, dtype=np.float64),
                               lambda_reg)
