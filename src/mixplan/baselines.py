"""Non-reactive comparison strategies: random, largest-norm, single-action,
and the full-feedback supervised oracle.

The three policies share the mixture policy's ``action(context, rng)``
interface, so ``sample`` collects their data like the planner's, and none of
them can read a reward. The oracle is no policy: ``oracle_fits`` observes the
reward of every action of each context and yields ridge fits on growing
prefixes of that full feedback.
"""

from __future__ import annotations

import logging
from typing import Iterator, Sequence

import numpy as np

from .core import BanditInstance, Context, InteractionDataset, InteractionRecord
from .estimator import RidgeEstimate, ridge_fit

logger = logging.getLogger(__name__)


def random_policy_action(context: Context, rng: np.random.Generator) -> int:
    """Uniform over the context's available actions."""
    return int(rng.integers(context.n_actions))


def largest_norm_action(context: Context) -> int:
    """argmax of the Euclidean feature norm; ties break to the lowest index."""
    return int(np.argmax(np.linalg.norm(context.features, axis=1)))


def single_action(context: Context, fixed_index: int) -> int:
    """Always the fixed index, clamped to the last available action if needed."""
    if fixed_index >= context.n_actions:
        logger.warning(
            "fixed action %d unavailable in context %s; clamping to %d",
            fixed_index, context.context_id, context.n_actions - 1,
        )
        return context.n_actions - 1
    if fixed_index < 0:
        logger.warning(
            "fixed action %d unavailable in context %s; clamping to 0",
            fixed_index, context.context_id,
        )
        return 0
    return fixed_index


class RandomPolicy:
    def action(self, context: Context, rng: np.random.Generator) -> int:
        return random_policy_action(context, rng)


class LargestNormPolicy:
    def action(self, context: Context, rng: np.random.Generator) -> int:
        return largest_norm_action(context)


class SingleActionPolicy:
    def __init__(self, fixed_index: int = 0):
        self.fixed_index = int(fixed_index)

    def action(self, context: Context, rng: np.random.Generator) -> int:
        return single_action(context, self.fixed_index)


def oracle_fits(instance: BanditInstance, points: Sequence[int], lambda_reg: float,
                rng: np.random.Generator) -> Iterator[RidgeEstimate]:
    """The full-feedback supervised oracle: for each n in ``points``
    (increasing), the ridge fit on every action of the first n contexts.

    Contexts and the reward of every action are drawn from ``rng`` in stream
    order through ``BanditInstance.reward``; each fit is ``ridge_fit`` on the
    exploded dataset so far. Records are built once, as the stream advances.
    It is an approximate upper bound for the bandit-feedback strategies.
    """
    records: list[InteractionRecord] = []
    seen = 0
    for n in points:
        for _ in range(n - seen):
            context = instance.context_sampler(rng)
            for a in range(context.n_actions):
                reward = instance.reward(context, a, rng)
                records.append(
                    InteractionRecord(context.context_id, a, context.features[a], reward))
        seen = n
        yield ridge_fit(InteractionDataset(instance.d, records), lambda_reg)
