"""Online phase: replay a frozen policy on fresh contexts with reward feedback.

The sampler never touches the policy's internals and the policy object has
no update surface, so non-reactivity holds by construction. The mixture
index is redrawn independently for every context. Because no action
changes what the generator draws next, ``sample`` draws a run of steps
first and decides them afterwards: the contexts are built as one batch,
the policy picks all their actions at once, and the rewards are computed
from the normals drawn in stream order. Datasets serialize to a CSV
interchange format and to a compact npz binary form.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .core import (
    BanditInstance,
    ConfigurationError,
    ContractViolation,
    DataError,
    InteractionDataset,
    InteractionRecord,
    action_counts,
    context_ids,
    feature_rows,
)


#: Stacked feature floats one run of ``sample`` steps holds (2**16 float64,
#: 512 KiB). Runs of 2**18 floats were 10 % faster at d = 300 but raised
#: a synthetic trial's peak memory by about 2 MB.
_RUN_FLOATS = 1 << 16


def sample(policy, instance: BanditInstance, N: int, rng: np.random.Generator, *,
           policy_rng: np.random.Generator | None = None) -> InteractionDataset:
    """Collect N records by running ``policy`` on the instance's context stream.

    ``policy`` is a MixturePolicy or any of the baselines: anything with
    ``draw(rng, n_actions)``, its own draws for contexts with those action
    counts, and ``decide(contexts, draws)``, their actions. Contexts and
    rewards are drawn from ``rng``; the policy's own draws come from
    ``policy_rng``, which defaults to ``rng``.

    The steps are taken in runs. A run first makes the generator calls of
    its steps in stream order (each context's draws, the policy's draw when
    it shares ``rng``, the reward's normal), then builds the contexts,
    decides their actions and computes their rewards. No action changes a
    draw, so the records are bit for bit those of one context at a time.
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
    shared = policy_rng is rng
    dataset = InteractionDataset(instance.d)
    done = 0
    while done < N:
        contexts, policy_draws, normals = _draw_run(policy, instance, N - done, rng, shared)
        done += len(contexts)
        if not shared:
            policy_draws = policy.draw(policy_rng, action_counts(contexts))
        actions = policy.decide(contexts, policy_draws)
        rewards = instance.rewards(contexts, actions, normals, rng)
        for context_id, a, feature, reward in zip(
                context_ids(contexts), actions.tolist(), feature_rows(contexts, actions),
                rewards.tolist()):
            dataset.append(InteractionRecord(context_id=context_id, action_index=a,
                                             feature=feature, reward=reward))
    return dataset


def _draw_run(policy, instance: BanditInstance, most: int, rng: np.random.Generator,
              shared: bool):
    """The generator calls of the next run of at most ``most`` steps, in
    stream order, and what they make: the run's contexts, the policy's draws
    (when it shares ``rng``; else None) and the rewards' normals (None when
    the instance draws none). A run ends once its contexts hold
    ``_RUN_FLOATS`` feature floats."""
    law, noisy = instance.law, instance.noisy
    draws, policy_draws, normals = [], [], []
    floats = 0
    while len(draws) < most and floats < _RUN_FLOATS:
        draws.extend(law.draw(rng, 1))
        n_actions = law.n_actions(draws[-1])
        if shared:
            policy_draws.append(policy.draw(rng, [n_actions]))
        if noisy:
            normals.append(rng.standard_normal())
        floats += n_actions * instance.d
    if not shared or policy_draws[0] is None:
        policy_draws = None
    else:
        policy_draws = np.concatenate(policy_draws)
    return instance.build_contexts(draws), policy_draws, (normals if noisy else None)


def _float_repr(value: float) -> str:
    return repr(float(value))


def dataset_to_csv(dataset: InteractionDataset, path) -> None:
    """Write the interchange CSV: context_id, action_index, d feature columns, reward.

    The bytes are those of ``csv.writer`` with its default dialect: a float
    is written as its repr, the text ``_float_repr`` gives, and every line
    ends in CR LF. Each row's context id and action index go through one
    reused ``csv.writer``, which quotes the id where it must; the float
    columns of a row are joined in one step.
    """
    path = Path(path)
    header = ["context_id", "action_index"] + [f"f{j}" for j in range(dataset.d)] + ["reward"]
    floats = np.column_stack([dataset.feature_matrix(), dataset.rewards()]).tolist()
    prefix = io.StringIO()
    prefix_writer = csv.writer(prefix)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for record, row in zip(dataset, floats):
            prefix.seek(0)
            prefix.truncate()
            # "<id>,<action_index>,\r\n": the empty last field leaves the comma.
            prefix_writer.writerow([record.context_id, record.action_index, ""])
            handle.write(f"{prefix.getvalue()[:-2]}{','.join(map(repr, row))}\r\n")


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
    """Compact binary form of the dataset, written to exactly ``path``
    (through an open handle, so no ``.npz`` suffix is appended)."""
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
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
