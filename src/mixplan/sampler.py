"""Online phase: replay a frozen policy on fresh contexts with reward feedback.

The sampler never touches the policy's internals and the policy object has
no update surface, so non-reactivity holds by construction. The mixture
index is redrawn independently for every context. Datasets serialize to a
CSV interchange format and to a compact npz binary form.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import (
    BanditInstance,
    ConfigurationError,
    ContractViolation,
    DataError,
    InteractionDataset,
    InteractionRecord,
)


def sample(policy, instance: BanditInstance, N: int, rng: np.random.Generator, *,
           policy_rng: np.random.Generator | None = None) -> InteractionDataset:
    """Collect N records by running ``policy`` on the instance's context stream.

    ``policy`` is anything with an ``action(context, rng) -> int`` method
    (a MixturePolicy or any of the baselines). Contexts and rewards are drawn
    from ``rng``; the policy's own draws come from ``policy_rng``, which
    defaults to ``rng``.
    """
    if policy_rng is None:
        policy_rng = rng
    if N < 1:
        raise ConfigurationError("N must be at least 1")
    policy_d = getattr(policy, "d", None)
    if policy_d is not None and policy_d != instance.d:
        raise ContractViolation(
            f"policy dimension {policy_d} != instance dimension {instance.d}"
        )
    dataset = InteractionDataset(instance.d)
    for _ in range(N):
        context = instance.context_sampler(rng)
        if context.d != instance.d:
            raise ContractViolation("context dimension does not match the instance")
        a = policy.action(context, policy_rng)
        reward = instance.reward(context, a, rng)
        dataset.append(
            InteractionRecord(
                context_id=context.context_id,
                action_index=a,
                feature=context.features[a],
                reward=reward,
            )
        )
    return dataset


def _float_repr(value: float) -> str:
    return repr(float(value))


def dataset_to_csv(dataset: InteractionDataset, path) -> None:
    """Write the interchange CSV: context_id, action_index, d feature columns, reward."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["context_id", "action_index"]
            + [f"f{j}" for j in range(dataset.d)]
            + ["reward"]
        )
        for record in dataset:
            writer.writerow(
                [record.context_id, record.action_index]
                + [_float_repr(v) for v in record.feature]
                + [_float_repr(record.reward)]
            )


def dataset_from_csv(path) -> InteractionDataset:
    """Read the interchange CSV. A row that does not parse (wrong field count,
    a feature or reward that is not a number, an action index that is not a
    nonnegative integer) raises DataError naming its line."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "context_id":
            raise DataError(f"{path} is not an interaction dataset CSV")
        d = len(header) - 3
        dataset = InteractionDataset(d)
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: row with {len(row)} fields, expected {len(header)}")
            try:
                record = InteractionRecord(
                    context_id=row[0],
                    action_index=int(row[1]),
                    feature=np.array([float(v) for v in row[2:-1]]),
                    reward=float(row[-1]),
                )
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            if record.action_index < 0:
                raise DataError(f"{where}: negative action index {record.action_index}")
            dataset.append(record)
    return dataset


def dataset_to_npz(dataset: InteractionDataset, path) -> None:
    """Compact binary form of the dataset."""
    np.savez_compressed(
        Path(path),
        d=np.int64(dataset.d),
        context_ids=np.array([r.context_id for r in dataset], dtype=np.str_),
        action_indices=np.array([r.action_index for r in dataset], dtype=np.int64),
        features=dataset.feature_matrix(),
        rewards=dataset.rewards(),
    )


def dataset_from_npz(path) -> InteractionDataset:
    with np.load(Path(path), allow_pickle=False) as payload:
        d = int(payload["d"])
        ids = payload["context_ids"]
        actions = payload["action_indices"]
        features = payload["features"]
        rewards = payload["rewards"]
    dataset = InteractionDataset(d)
    for i in range(len(ids)):
        dataset.append(
            InteractionRecord(
                context_id=str(ids[i]),
                action_index=int(actions[i]),
                feature=features[i],
                reward=float(rewards[i]),
            )
        )
    return dataset
