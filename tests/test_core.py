import numpy as np
import pytest

from mixplan import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContextLaw,
    ContractViolation,
    ExperimentConfig,
    InteractionDataset,
    InteractionRecord,
)

from conftest import make_context


def _fixed_instance(theta, noise_std=0.0):
    theta = np.asarray(theta, dtype=np.float64)
    context = make_context(np.eye(len(theta)))
    return BanditInstance(
        d=len(theta),
        theta_star=theta,
        context_law=ContextLaw.of_sampler(lambda rng: context),
        noise_std=noise_std,
    )


def test_reward_draw_noiseless_identity(rng):
    instance = _fixed_instance([1.0, 0.0])
    context = make_context(np.eye(2))
    assert instance.reward(context, 0, rng) == 1.0


def test_reward_draw_orthogonal_case(rng):
    instance = _fixed_instance([1.0, -1.0])
    assert instance.reward(make_context([[0.5, 0.5]]), 0, rng) == 0.0


def test_reward_draw_law_of_large_numbers():
    rng = np.random.default_rng(7)
    theta = rng.normal(size=6)
    instance = _fixed_instance(theta, noise_std=1.0)
    phi = rng.normal(size=6)
    phi /= np.linalg.norm(phi)
    context = make_context([phi])
    draws = np.array([instance.reward(context, 0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - float(phi @ theta)) < 3e-2


def test_reward_draw_noiseless_is_linear(rng):
    instance = _fixed_instance([2.0, -3.0, 0.5])
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([-0.3, 0.0, 0.4])
    context = make_context([x, y, x + y])
    rx, ry, rxy = (instance.reward(context, a, rng) for a in range(3))
    assert rxy == pytest.approx(rx + ry, abs=1e-15)


def test_reward_draw_dimension_mismatch(rng):
    instance = _fixed_instance([1.0, 0.0])
    with pytest.raises(ContractViolation, match="dimension"):
        instance.reward(make_context([[1.0, 0.0, 0.0]]), 0, rng)


def test_reward_is_mean_plus_scaled_normal_bit_for_bit():
    rng = np.random.default_rng(8)
    theta = rng.normal(size=5)
    instance = _fixed_instance(theta, noise_std=0.7)
    context = make_context(rng.normal(size=(4, 5)))
    draws, replay = np.random.default_rng(9), np.random.default_rng(9)
    for a in (0, 3, 1, 2, 3):
        expected = float(context.features[a] @ theta) + 0.7 * float(replay.standard_normal())
        assert instance.reward(context, a, draws) == expected


def test_noiseless_reward_leaves_the_generator_untouched():
    instance = _fixed_instance([0.5, -2.0])
    rng = np.random.default_rng(10)
    before = rng.bit_generator.state
    instance.reward(make_context([[0.3, 0.4], [1.0, 0.0]]), 1, rng)
    assert rng.bit_generator.state == before


def test_reward_rejects_out_of_range_actions(rng):
    instance = _fixed_instance([1.0, 0.0])
    context = make_context(np.eye(2))
    for action in (-1, 2):
        with pytest.raises(ContractViolation, match="out of range"):
            instance.reward(context, action, rng)


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
        BanditInstance(d=2, theta_star=np.array([1.0]),
                       context_law=ContextLaw.of_sampler(lambda rng: context))
    with pytest.raises(ContractViolation):
        BanditInstance(
            d=2, theta_star=np.array([np.inf, 0.0]),
            context_law=ContextLaw.of_sampler(lambda rng: context)
        )
    with pytest.raises(ConfigurationError):
        BanditInstance(d=2, theta_star=None, context_law=ContextLaw.of_sampler(lambda rng: context))


def test_instance_takes_its_contexts_from_a_context_law_only():
    context = make_context([[1.0, 0.0]])
    with pytest.raises(ConfigurationError, match="context_law must be a ContextLaw, got function"):
        BanditInstance(d=2, theta_star=np.zeros(2), context_law=lambda rng: context)


def test_instance_takes_exactly_one_of_theta_and_labels():
    context = make_context([[1.0, 0.0]])
    for theta_star, labels in ((None, None), (np.zeros(2), {"ctx": np.array([2.0])})):
        with pytest.raises(ConfigurationError, match="exactly one of theta_star and labels"):
            BanditInstance(d=2, theta_star=theta_star,
                           context_law=ContextLaw.of_sampler(lambda rng: context), labels=labels)


def test_labelled_rewards_need_the_context_label_row(rng):
    labelled = make_context([[1.0, 0.0], [0.0, 1.0]], "q1")
    unlabelled = make_context([[1.0, 0.0]], "q2")
    instance = BanditInstance(d=2, theta_star=None,
                              context_law=ContextLaw.of_sampler(lambda rng: labelled),
                              noise_std=0.0, labels={"q1": np.array([3.0, 1.0]),
                                                     "q3": np.array([1.0, 2.0, 0.0])})
    assert instance.reward(labelled, 1, rng) == 1.0
    assert instance.rewards([labelled], None, None).tolist() == [3.0, 1.0]
    with pytest.raises(ContractViolation, match="'q2' has no label row"):
        instance.reward(unlabelled, 0, rng)
    for actions in (None, [0, 0]):
        with pytest.raises(ContractViolation, match="'q2' has no label row"):
            instance.rewards([labelled, unlabelled], actions, None)
    with pytest.raises(ContractViolation, match="'q3' has 3 labels for 2 actions"):
        instance.rewards([make_context(np.eye(2), "q3")], None, None)


def test_dataset_enforces_shared_dimension():
    dataset = InteractionDataset(2)
    dataset.append(InteractionRecord("a", 0, np.array([1.0, 0.0]), 1.0))
    with pytest.raises(ContractViolation):
        dataset.append(InteractionRecord("b", 0, np.array([1.0, 0.0, 0.0]), 1.0))
    assert len(dataset) == 1


def test_dataset_feature_matrix_is_the_stored_read_only_array():
    features = np.arange(6.0).reshape(3, 2)
    dataset = InteractionDataset(2, ["a", "b", "c"], [0, 1, 0], features, [1.0, 2.0, 3.0])
    first = dataset.feature_matrix()
    assert first is dataset.feature_matrix() and first is features
    assert dataset.rewards() is dataset.rewards()
    for column in (first, dataset.rewards(), dataset.actions):
        assert not column.flags.writeable
    assert dataset.actions.dtype == np.int64
    empty = InteractionDataset(2)
    assert empty.feature_matrix().shape == (0, 2) and len(empty) == 0


@pytest.mark.parametrize("columns", [
    (["a", "b"], [0], np.zeros((2, 2)), [1.0, 2.0]),
    (["a", "b"], [0, 1], np.zeros((3, 2)), [1.0, 2.0]),
    (["a", "b"], [0, 1], np.zeros((2, 3)), [1.0, 2.0]),
    (["a", "b"], [0, 1], np.zeros(4), [1.0, 2.0]),
    (["a", "b"], [0, 1], np.zeros((2, 2)), [1.0]),
    (["a", "b"], [0, 1], np.zeros((2, 2)), [[1.0], [2.0]]),
    (["a", "b"], [[0, 1]], np.zeros((2, 2)), [1.0, 2.0]),
    (["a"], [0, 1], np.zeros((2, 2)), [1.0, 2.0]),
    (["a"], [0], None, [1.0]),
], ids=["few actions", "extra rows", "wide rows", "flat features", "few rewards",
        "2-d rewards", "2-d actions", "few ids", "no features"])
def test_dataset_rejects_columns_that_do_not_fit(columns):
    with pytest.raises(ContractViolation, match="columns of shapes"):
        InteractionDataset(2, *columns)


def test_dataset_append_gives_the_constructor_dataset():
    rng = np.random.default_rng(3)
    ids, actions = ["a", "b,c", ""], [2, 0, 5]
    features, rewards = rng.normal(size=(3, 4)), rng.normal(size=3)
    grown = InteractionDataset(4)
    for i in range(3):
        grown.append(InteractionRecord(ids[i], actions[i], features[i], float(rewards[i])))
    built = InteractionDataset(4, ids, actions, features, rewards)
    assert grown.context_ids == built.context_ids == ids
    assert grown.actions.tobytes() == built.actions.tobytes()
    assert grown.feature_matrix().tobytes() == built.feature_matrix().tobytes()
    assert grown.rewards().tobytes() == built.rewards().tobytes()
    for column in (grown.actions, grown.feature_matrix(), grown.rewards()):
        assert not column.flags.writeable
    for a, b in zip(grown, built, strict=True):
        assert (a.context_id, a.action_index, a.reward) == (b.context_id, b.action_index, b.reward)
        assert a.feature.tobytes() == b.feature.tobytes()


@pytest.mark.parametrize("start, stop", [(0, 5), (1, 4), (3, 3), (2, 40), (None, -2)])
def test_dataset_slice_is_read_only_views_of_its_steps(start, stop):
    rng = np.random.default_rng(8)
    ids, actions = ["a", "b", "a", "c", "d"], [2, 0, 5, 1, 1]
    features, rewards = rng.normal(size=(5, 3)), rng.normal(size=5)
    dataset = InteractionDataset(3, ids, actions, features, rewards)
    part = dataset[start:stop]
    steps = slice(start, stop)
    built = InteractionDataset(3, ids[steps], actions[steps], features[steps].copy(),
                               rewards[steps].copy())
    assert part.d == 3 and part.context_ids == built.context_ids
    for column, whole, reference in ((part.actions, dataset.actions, built.actions),
                                     (part.feature_matrix(), features, built.feature_matrix()),
                                     (part.rewards(), rewards, built.rewards())):
        assert column.tobytes() == reference.tobytes() and column.shape == reference.shape
        assert column.base is whole
        assert not column.flags.writeable
    with pytest.raises(TypeError, match="slices only"):
        dataset[0]


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
        {"M": 1, "N": 1, "lambda_reg": float("inf")},
        {"M": 1, "N": 1, "lambda_reg": float("nan")},
        {"M": 1.0, "N": 1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("name", ["beta_radius", "ConfidenceRadius", "reward_draw", "oracle_fits"])
def test_removed_names_are_not_exported(name):
    with pytest.raises(ImportError):
        exec(f"from mixplan import {name}", {})
