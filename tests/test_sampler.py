import csv

import numpy as np
import pytest

from mixplan import (
    BanditInstance,
    ConfigurationError,
    ExperimentConfig,
    InteractionDataset,
    InteractionRecord,
    RegularizedCovariance,
    make_hard_uniform,
    plan,
    sample,
)
from mixplan.sampler import (
    dataset_from_csv,
    dataset_from_npz,
    dataset_to_csv,
    dataset_to_npz,
)

from conftest import make_context, make_dataset


def _fixed_instance(theta, rows, noise_std=0.0):
    context = make_context(rows, context_id="fixed")
    return BanditInstance(
        d=len(theta),
        theta_star=np.asarray(theta, dtype=np.float64),
        context_sampler=lambda rng: context,
        noise_std=noise_std,
    )


def _plan_on(instance, M, lam=1.0, alpha=1.0):
    stream_rng = np.random.default_rng(1)
    contexts = [instance.context_sampler(stream_rng) for _ in range(M)]
    config = ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=alpha)
    return plan(contexts, config)


def test_sample_rejects_zero_budget(rng):
    instance = _fixed_instance([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    policy, _ = _plan_on(instance, 5)
    with pytest.raises(ConfigurationError):
        sample(policy, instance, 0, rng)


def test_sample_single_noiseless_record(rng):
    instance = _fixed_instance([0.75, -0.5], [[0.8, 0.0], [0.0, 0.6]])
    policy, _ = _plan_on(instance, 3)
    dataset = sample(policy, instance, 1, rng)
    assert len(dataset) == 1
    record = dataset.records[0]
    expected = float(record.feature @ instance.theta_star)
    assert record.reward == expected


def test_sample_deterministic_policy_constant_rewards(rng):
    instance = _fixed_instance([1.0, 0.0], [[1.0, 0.0], [0.0, 0.5]])
    policy, _ = _plan_on(instance, 1)  # single phase, deterministic argmax
    dataset = sample(policy, instance, 100, rng)
    rewards = dataset.rewards()
    assert len(set(rewards.tolist())) == 1
    assert (np.array([r.action_index for r in dataset]) == 0).all()


def test_sample_replays_planner_mixture_frequencies():
    instance = make_hard_uniform(10)
    policy, trace = _plan_on(instance, 2000)
    offline_frequency = float(np.mean(trace.actions == 0))
    dataset = sample(policy, instance, 10_000, np.random.default_rng(4))
    online_frequency = float(np.mean([r.action_index == 0 for r in dataset]))
    assert abs(online_frequency - offline_frequency) <= 0.03


def test_sample_covariance_consistency(rng):
    instance = make_hard_uniform(4)
    policy, _ = _plan_on(instance, 200)
    dataset = sample(policy, instance, 300, rng)
    lam = 1.0
    folded = RegularizedCovariance(2, lam, alpha=1.0)
    for record in dataset:
        folded.rank_one_update(record.feature)
    direct = lam * np.eye(2) + dataset.feature_matrix().T @ dataset.feature_matrix()
    assert np.allclose(folded.matrix, direct, atol=1e-9)
    assert len(dataset) == 300


def test_sample_is_seed_reproducible():
    instance = make_hard_uniform(6)
    policy, _ = _plan_on(instance, 100)
    runs = []
    for _ in range(2):
        dataset = sample(policy, instance, 50, np.random.default_rng(77))
        runs.append(dataset)
    for a, b in zip(runs[0], runs[1]):
        assert a.context_id == b.context_id
        assert a.action_index == b.action_index
        assert a.reward == b.reward
        assert np.array_equal(a.feature, b.feature)


def test_sample_dimension_mismatch(rng):
    instance = _fixed_instance([1.0, 0.0], [[1.0, 0.0]])
    other = _fixed_instance([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    policy, _ = _plan_on(instance, 3)
    from mixplan import ContractViolation

    with pytest.raises(ContractViolation):
        sample(policy, other, 5, rng)


def test_dataset_csv_round_trip(tmp_path, rng):
    instance = make_hard_uniform(5)
    policy, _ = _plan_on(instance, 50)
    dataset = sample(policy, instance, 40, rng)
    path = tmp_path / "dataset.csv"
    dataset_to_csv(dataset, path)
    loaded = dataset_from_csv(path)
    assert loaded.d == dataset.d
    assert len(loaded) == len(dataset)
    for a, b in zip(dataset, loaded):
        assert a.context_id == b.context_id
        assert a.action_index == b.action_index
        assert a.reward == b.reward
        assert np.array_equal(a.feature, b.feature)


def _per_value_csv(dataset, path):
    """The interchange CSV written one record and one value at a time, each
    float formatted with repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["context_id", "action_index"]
                        + [f"f{j}" for j in range(dataset.d)] + ["reward"])
        for record in dataset:
            writer.writerow([record.context_id, record.action_index]
                            + [repr(float(v)) for v in record.feature]
                            + [repr(float(record.reward))])


def test_dataset_csv_bytes_match_a_per_value_writer(tmp_path):
    awkward = [-0.0, 0.0, 5e-324, 2.5e-310, -1e-320, 1e16, -1e16, 0.1, 1.0 / 3.0, 1e300,
               123456789.125, -2.0 ** -1074, 9007199254740993.0]
    d = 5
    records = [
        InteractionRecord(f"ctx,{i}" if i % 4 == 0 else f"ctx-{i}", i % 3,
                          np.array([awkward[(i + j) % len(awkward)] for j in range(d)]),
                          awkward[(7 * i) % len(awkward)])
        for i in range(2 * len(awkward))
    ]
    dataset = make_dataset(d, records)
    dataset_to_csv(dataset, tmp_path / "rows.csv")
    _per_value_csv(dataset, tmp_path / "values.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
    empty = tmp_path / "empty.csv"
    dataset_to_csv(InteractionDataset(d), empty)
    assert empty.read_bytes() == b"context_id,action_index,f0,f1,f2,f3,f4,reward\r\n"


def test_dataset_npz_round_trip(tmp_path, rng):
    instance = make_hard_uniform(5)
    policy, _ = _plan_on(instance, 50)
    dataset = sample(policy, instance, 25, rng)
    path = tmp_path / "dataset.npz"
    dataset_to_npz(dataset, path)
    loaded = dataset_from_npz(path)
    assert loaded.d == dataset.d
    for a, b in zip(dataset, loaded):
        assert a.context_id == b.context_id
        assert a.action_index == b.action_index
        assert a.reward == b.reward
        assert np.array_equal(a.feature, b.feature)


def test_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    from mixplan import DataError

    with pytest.raises(DataError):
        dataset_from_csv(path)
