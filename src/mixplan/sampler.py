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
import zipfile
from pathlib import Path

import numpy as np

from .core import (
    BanditInstance,
    ContractViolation,
    DataError,
    InteractionDataset,
    action_counts,
    check_settings,
    context_ids,
    feature_rows,
)


#: Stacked feature floats one run of ``sample`` steps holds (2**16 float64,
#: 512 KiB). Runs of 2**18 floats were 10 % faster at d = 300 but raised
#: a synthetic trial's peak memory by about 2 MB.
_RUN_FLOATS = 1 << 16


def sample(policy, instance: BanditInstance, N: int, rng: np.random.Generator, *,
           policy_rng: np.random.Generator | None = None) -> InteractionDataset:
    """Collect N steps by running ``policy`` on the instance's context stream.

    ``policy`` is a MixturePolicy or any of the baselines: anything with
    ``draw(rng, n_actions)``, its own draws for contexts with those action
    counts, and ``decide(contexts, draws)``, their actions. Contexts and
    rewards are drawn from ``rng``; the policy's own draws come from
    ``policy_rng``, which defaults to ``rng``.

    The steps are taken in runs. A run first makes the generator calls of
    its steps in stream order (each context's draws, the policy's draw when
    it shares ``rng``, the reward's normal), then builds the contexts,
    decides their actions and computes their rewards into the dataset's
    columns. No action changes a draw, so the steps are bit for bit those of
    one context at a time.
    """
    check_settings(N=N)
    if policy_rng is None:
        policy_rng = rng
    policy_d = getattr(policy, "d", None)
    if policy_d is not None and policy_d != instance.d:
        raise ContractViolation(
            f"policy dimension {policy_d} != instance dimension {instance.d}"
        )
    shared = policy_rng is rng
    ids: list[str] = []
    actions = np.empty(N, dtype=np.int64)
    features = np.empty((N, instance.d))
    rewards = np.empty(N)
    done = 0
    while done < N:
        contexts, policy_draws, normals = _draw_run(policy, instance, N - done, rng, shared)
        run = slice(done, done + len(contexts))
        done = run.stop
        if not shared:
            policy_draws = policy.draw(policy_rng, action_counts(contexts))
        actions[run] = policy.decide(contexts, policy_draws)
        rewards[run] = instance.rewards(contexts, actions[run], normals)
        features[run] = feature_rows(contexts, actions[run])
        ids.extend(context_ids(contexts))
    return InteractionDataset(instance.d, ids, actions, features, rewards)


def _draw_run(policy, instance: BanditInstance, most: int, rng: np.random.Generator,
              shared: bool):
    """The generator calls of the next run of at most ``most`` steps, in
    stream order, and what they make: the run's contexts, the policy's draws
    (when it shares ``rng``; else None) and the rewards' normals (None when
    the instance draws none). A run ends once its contexts hold
    ``_RUN_FLOATS`` feature floats."""
    law, noisy = instance.context_law, instance.noisy
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

    The bytes are the UTF-8 text of ``csv.writer`` with its default
    dialect, whatever the locale, as ``dataset_from_csv`` reads it: a float
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
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(header)
        for context_id, a, row in zip(dataset.context_ids, dataset.actions.tolist(), floats):
            prefix.seek(0)
            prefix.truncate()
            # "<id>,<action_index>,\r\n": the empty last field leaves the comma.
            prefix_writer.writerow([context_id, a, ""])
            handle.write(f"{prefix.getvalue()[:-2]}{','.join(map(repr, row))}\r\n")


def dataset_from_csv(path) -> InteractionDataset:
    """Read the interchange CSV. A row that does not parse (wrong field count,
    a feature or reward that is not a number, an action index that is not a
    nonnegative integer) raises DataError naming its line, and a file that is
    not UTF-8 text one naming the file."""
    path = Path(path)
    ids, actions, features, rewards = [], [], [], []
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or len(header) < 3 or header[0] != "context_id":
                raise DataError(f"{path} is not an interaction dataset CSV")
            d = len(header) - 3
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if len(row) != len(header):
                    raise DataError(f"{where}: row with {len(row)} fields, expected {len(header)}")
                try:
                    actions.append(int(row[1]))
                    features.append(np.array([float(v) for v in row[2:-1]]))
                    rewards.append(float(row[-1]))
                except ValueError as exc:
                    raise DataError(f"{where}: {exc}") from None
                if actions[-1] < 0:
                    raise DataError(f"{where}: negative action index {actions[-1]}")
                ids.append(row[0])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    return InteractionDataset(d, ids, actions, np.array(features).reshape(len(ids), d), rewards)


def dataset_to_npz(dataset: InteractionDataset, path) -> None:
    """Compact binary form of the dataset, written to exactly ``path``
    (through an open handle, so no ``.npz`` suffix is appended)."""
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            d=np.int64(dataset.d),
            context_ids=np.array(dataset.context_ids, dtype=np.str_),
            action_indices=dataset.actions,
            features=dataset.feature_matrix(),
            rewards=dataset.rewards(),
        )


def dataset_from_npz(path) -> InteractionDataset:
    """Read the compact binary form. A file with a missing array, or with
    arrays that do not fit together, raises DataError naming the file."""
    path = Path(path)
    keys = ("d", "context_ids", "action_indices", "features", "rewards")
    try:
        with np.load(path, allow_pickle=False) as payload:
            d, ids, actions, features, rewards = (payload[key] for key in keys)
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not an interaction dataset npz: {exc}") from None
    if ids.ndim != 1 or ids.dtype.kind != "U":
        raise DataError(f"{path}: context ids must be one string per step")
    if actions.dtype.kind not in "iu" or (actions < 0).any():
        raise DataError(f"{path}: action indices must be nonnegative integers")
    try:
        return InteractionDataset(int(d), ids.tolist(), actions, features, rewards)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
