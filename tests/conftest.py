import numpy as np
import pytest

from mixplan import Context, InteractionDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_context(rows, context_id="ctx"):
    return Context(context_id, np.asarray(rows, dtype=np.float64))


def make_dataset(d, records):
    """An ``InteractionDataset`` of dimension d holding ``records`` in order."""
    dataset = InteractionDataset(d)
    for record in records:
        dataset.append(record)
    return dataset


def unit_ball_contexts(rng, count, d, n_actions):
    """Random contexts whose feature rows all lie in the unit ball."""
    contexts = []
    for i in range(count):
        directions = rng.normal(size=(n_actions, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(n_actions, 1))
        contexts.append(Context(f"ctx-{i}", directions * radii))
    return contexts
