import numpy as np
import pytest

from mixplan import Context, CovarianceSnapshot, InteractionDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_context(rows, context_id="ctx"):
    return Context(context_id, np.asarray(rows, dtype=np.float64))


def snapshot_of(matrix):
    """A snapshot of the SPD ``matrix``: its ``np.linalg.cholesky`` factor and
    log-determinant, as ``RegularizedCovariance.snapshot`` computes them."""
    chol = np.linalg.cholesky(np.asarray(matrix, dtype=np.float64))
    return CovarianceSnapshot(chol, 2.0 * float(np.sum(np.log(np.diag(chol)))))


def make_dataset(d, records):
    """An ``InteractionDataset`` of dimension d holding ``records`` in order."""
    records = list(records)
    return InteractionDataset(
        d, [r.context_id for r in records], [r.action_index for r in records],
        np.array([r.feature for r in records]) if records else None,
        [r.reward for r in records])


def unit_ball_contexts(rng, count, d, n_actions):
    """Random contexts whose feature rows all lie in the unit ball."""
    contexts = []
    for i in range(count):
        directions = rng.normal(size=(n_actions, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(n_actions, 1))
        contexts.append(Context(f"ctx-{i}", directions * radii))
    return contexts
