import numpy as np
import pytest

from mixplan import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContractViolation,
    ExperimentConfig,
    InteractionDataset,
    InteractionRecord,
    reward_draw,
)

from conftest import make_context


def _fixed_instance(theta, noise_std=0.0):
    theta = np.asarray(theta, dtype=np.float64)
    context = make_context(np.eye(len(theta)))
    return BanditInstance(
        d=len(theta),
        theta_star=theta,
        context_sampler=lambda rng: context,
        noise_std=noise_std,
    )


def test_reward_draw_noiseless_identity(rng):
    instance = _fixed_instance([1.0, 0.0])
    assert reward_draw(instance, np.array([1.0, 0.0]), rng) == 1.0


def test_reward_draw_orthogonal_case(rng):
    instance = _fixed_instance([1.0, -1.0])
    assert reward_draw(instance, np.array([0.5, 0.5]), rng) == 0.0


def test_reward_draw_law_of_large_numbers():
    rng = np.random.default_rng(7)
    theta = rng.normal(size=6)
    instance = _fixed_instance(theta, noise_std=1.0)
    phi = rng.normal(size=6)
    phi /= np.linalg.norm(phi)
    draws = np.array([reward_draw(instance, phi, rng) for _ in range(100_000)])
    assert abs(draws.mean() - float(phi @ theta)) < 3e-2


def test_reward_draw_noiseless_is_linear(rng):
    instance = _fixed_instance([2.0, -3.0, 0.5])
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([-0.3, 0.0, 0.4])
    rx = reward_draw(instance, x, rng)
    ry = reward_draw(instance, y, rng)
    rxy = reward_draw(instance, x + y, rng)
    assert rxy == pytest.approx(rx + ry, abs=1e-15)


def test_reward_draw_dimension_mismatch(rng):
    instance = _fixed_instance([1.0, 0.0])
    with pytest.raises(ContractViolation):
        reward_draw(instance, np.array([1.0, 0.0, 0.0]), rng)


def test_seeded_runs_are_bit_reproducible():
    from mixplan import make_synthetic

    instance = make_synthetic(3)
    streams = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        contexts = [instance.context_sampler(rng) for _ in range(20)]
        rewards = [instance.reward(c, 0, rng) for c in contexts]
        streams.append((contexts, rewards))
    for c1, c2 in zip(streams[0][0], streams[1][0]):
        assert c1.context_id == c2.context_id
        assert np.array_equal(c1.features, c2.features)
    assert streams[0][1] == streams[1][1]


def test_context_requires_actions():
    with pytest.raises(ContractViolation):
        Context("empty", np.zeros((0, 3)))


def test_context_rejects_non_finite():
    with pytest.raises(ContractViolation):
        make_context([[np.nan, 0.0]])


def test_context_features_are_frozen():
    context = make_context([[1.0, 0.0]])
    with pytest.raises(ValueError):
        context.features[0, 0] = 2.0


def test_instance_validates_theta():
    context = make_context([[1.0, 0.0]])
    with pytest.raises(ContractViolation):
        BanditInstance(d=2, theta_star=np.array([1.0]), context_sampler=lambda rng: context)
    with pytest.raises(ContractViolation):
        BanditInstance(
            d=2, theta_star=np.array([np.inf, 0.0]), context_sampler=lambda rng: context
        )
    with pytest.raises(ConfigurationError):
        BanditInstance(d=2, theta_star=None, context_sampler=lambda rng: context)


def test_dataset_enforces_shared_dimension():
    dataset = InteractionDataset(2)
    dataset.append(InteractionRecord("a", 0, np.array([1.0, 0.0]), 1.0))
    with pytest.raises(ContractViolation):
        dataset.append(InteractionRecord("b", 0, np.array([1.0, 0.0, 0.0]), 1.0))
    assert len(dataset) == 1


def test_config_alpha_defaults_to_budget_ratio():
    config = ExperimentConfig(M=200, N=50, lambda_reg=1.0)
    assert config.alpha == pytest.approx(0.25)


def test_config_default_alpha_caps_at_one():
    assert ExperimentConfig(M=50, N=200, lambda_reg=1.0).alpha == 1.0
    assert ExperimentConfig(M=50, N=50, lambda_reg=1.0).alpha == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"M": 0, "N": 1},
        {"M": 1, "N": 0},
        {"M": 1, "N": 1, "lambda_reg": 0.0},
        {"M": 1, "N": 1, "delta": 0.0},
        {"M": 1, "N": 1, "delta": 1.0},
        {"M": 1, "N": 1, "alpha": 0.0},
        {"M": 1, "N": 1, "alpha": 1.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)
