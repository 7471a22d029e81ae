"""Batched context draws and draw-then-decide collection, bit for bit.

``BanditInstance.draw_contexts`` must give the contexts of n
``context_sampler`` calls, and ``sample`` the records of one context at a
time: the ids, the feature bytes, the actions, the rewards and the state the
generators are left in. The references here are the per-context loops the
batched code replaced.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from mixplan import (
    BanditInstance,
    Context,
    ExperimentConfig,
    InteractionRecord,
    LargestNormPolicy,
    RandomPolicy,
    RankDatasetSpec,
    SingleActionPolicy,
    generate_standin_file,
    ingest_rank_dataset,
    make_hard_goptimal,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    make_rank_instance,
    make_synthetic,
    plan,
    ridge_fit,
    sample,
)
from mixplan import sampler as sampler_module
from mixplan.core import ContextBatch, ContextLaw
from mixplan.environments import synthetic_action_layout
from mixplan.estimator import EvaluationSet, evaluate

from conftest import make_dataset, unit_ball_contexts


def _legacy_synthetic_sampler():
    """The synthetic instance's per-context sampler before the batched law:
    ten ``rng.normal`` calls and five row writes per context."""
    d, n_actions = 20, 10
    layout = synthetic_action_layout()
    floor_std, spike_std, shared_std = math.sqrt(1e-9), 1.0, math.sqrt(5.0)

    def sample_context(rng):
        category = int(rng.integers(3))
        feats = np.zeros((n_actions, d))

        def spiked_row(coord, std):
            row = rng.normal(0.0, floor_std, size=d)
            row[coord] = rng.normal(0.0, std)
            return row

        own_action, own_coord = layout[category]["own"]
        feats[own_action] = spiked_row(own_coord, spike_std)
        for action, coord in layout[category]["extras"]:
            feats[action] = spiked_row(coord, spike_std)
        for action, coord in layout[category]["shared"]:
            feats[action] = spiked_row(coord, shared_std)
        return Context(f"c{category}-{int(rng.integers(2**62)):016x}", feats)

    return sample_context


def _legacy_random_unit_sampler(d, n_actions):
    def sample_context(rng):
        directions = rng.normal(size=(n_actions, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(n_actions, 1))
        return Context(f"u-{int(rng.integers(2**62)):016x}", directions * radii)

    return sample_context


def _rank_instances(tmp_path, count):
    """``count`` fresh ranking instances over one stand-in ingest (each has its
    own stream cursor)."""
    path = tmp_path / "standin.txt"
    generate_standin_file(path, n_queries=60, seed=4, raw_dim=30)
    ingest = ingest_rank_dataset(path, RankDatasetSpec(raw_dim=30, subsampled_dim=12), seed=1)
    order = np.random.default_rng(2).permutation(len(ingest.train))
    return [make_rank_instance(ingest.train, order=order) for _ in range(count)]


def _bare_instances(count):
    """``count`` instances over one fixed stream of contexts with 1-3 actions,
    built from a bare ``context_sampler`` (each with its own stream)."""
    pool = unit_ball_contexts(np.random.default_rng(8), 400, 4, 3)
    contexts = [Context(f"b{i}", c.features[: 1 + i % 3]) for i, c in enumerate(pool)]
    instances = []
    for _ in range(count):
        stream = iter(contexts)
        law = ContextLaw.of_sampler(lambda rng, stream=stream: next(stream))
        instances.append(BanditInstance(d=4, theta_star=np.array([0.5, -1.0, 0.25, 0.0]),
                                        context_law=law, noise_std=0.3))
    return instances


FACTORIES = {
    "synthetic": lambda: make_synthetic(3),
    "random_unit_d3": lambda: make_random_unit_instance(3, 5, seed=1),
    "random_unit_d300": lambda: make_random_unit_instance(300, 10, seed=2),
    "hard_uniform": lambda: make_hard_uniform(6),
    "hard_goptimal": lambda: make_hard_goptimal(3),
    "hard_nonconcentrating": lambda: make_hard_nonconcentrating(4, 8),
}


def _assert_same_contexts(batch, reference):
    assert len(batch) == len(reference)
    assert [c.context_id for c in batch] == [c.context_id for c in reference]
    for got, want in zip(batch, reference):
        assert got.features.dtype == want.features.dtype
        assert got.features.tobytes() == want.features.tobytes()


def _assert_same_next_draw(rng_a, rng_b):
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert rng_a.integers(2**62) == rng_b.integers(2**62)
    assert rng_a.integers(7) == rng_b.integers(7)


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_draw_contexts_equals_context_sampler_calls(name, n):
    instance = FACTORIES[name]()
    batch_rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    batch = instance.draw_contexts(batch_rng, n)
    reference = [instance.context_sampler(loop_rng) for _ in range(n)]
    _assert_same_contexts(batch, reference)
    _assert_same_next_draw(batch_rng, loop_rng)


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("name, legacy", [
    ("synthetic", _legacy_synthetic_sampler),
    ("random_unit_d3", lambda: _legacy_random_unit_sampler(3, 5)),
    ("random_unit_d300", lambda: _legacy_random_unit_sampler(300, 10)),
], ids=["synthetic", "random_unit_d3", "random_unit_d300"])
def test_batched_laws_equal_the_per_context_samplers_they_replaced(name, legacy, n):
    instance, sample_context = FACTORIES[name](), legacy()
    batch_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
    batch = instance.draw_contexts(batch_rng, n)
    assert isinstance(batch, ContextBatch)
    _assert_same_contexts(batch, [sample_context(loop_rng) for _ in range(n)])
    _assert_same_next_draw(batch_rng, loop_rng)


@pytest.mark.parametrize("n", [1, 2, 25])
def test_draw_contexts_of_the_rank_cursor_and_a_bare_sampler(tmp_path, n):
    for batched, looped in (_rank_instances(tmp_path, 2), _bare_instances(2)):
        batch_rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
        batch = batched.draw_contexts(batch_rng, n)
        _assert_same_contexts(batch, [looped.context_sampler(loop_rng) for _ in range(n)])
        # The next context continues the stream where the batch ended.
        assert batched.context_sampler(batch_rng).context_id == \
            looped.context_sampler(loop_rng).context_id
        _assert_same_next_draw(batch_rng, loop_rng)


def test_nonconcentrating_batches_mix_action_counts():
    # Rare one-action contexts among two-action ones: a batch that holds both
    # comes back as a list, one with a single action count as a ContextBatch.
    instance = make_hard_nonconcentrating(3, 3)
    contexts = instance.draw_contexts(np.random.default_rng(0), 200)
    assert {c.n_actions for c in contexts} == {1, 2}
    assert isinstance(contexts, list)
    first = instance.draw_contexts(np.random.default_rng(0), 1)
    assert isinstance(first, ContextBatch) and len(first) == 1


def _reference_sample(policy, instance, N, rng, policy_rng):
    """One step at a time: draw a context, let the policy act, draw the reward."""
    records = []
    for _ in range(N):
        context = instance.context_sampler(rng)
        a = policy.action(context, policy_rng)
        reward = instance.reward(context, a, rng)
        records.append((context.context_id, a, context.features[a].tobytes(), reward))
    return records


def _records(dataset):
    return [(r.context_id, r.action_index, r.feature.tobytes(), r.reward) for r in dataset]


def _policies(instance, M=120):
    """A mixture policy planned on M contexts of ``instance``, and the baselines."""
    offline = instance.draw_contexts(np.random.default_rng(21), M)
    mixture, _ = plan(offline, ExperimentConfig(M=M, N=M, lambda_reg=0.5, alpha=1.0),
                      norm_cap=None)
    return {"mixture": mixture, "random": RandomPolicy(), "largest_norm": LargestNormPolicy(),
            "single_action": SingleActionPolicy()}


SAMPLE_INSTANCES = {
    "synthetic": lambda: make_synthetic(5),
    "random_unit": lambda: make_random_unit_instance(4, 3, seed=6),
    "hard_nonconcentrating": lambda: make_hard_nonconcentrating(3, 3),
}


@pytest.mark.parametrize("shared", [True, False], ids=["shared-rng", "separate-policy-rng"])
@pytest.mark.parametrize("policy_name", ["mixture", "random", "largest_norm", "single_action"])
@pytest.mark.parametrize("name", sorted(SAMPLE_INSTANCES))
def test_sample_equals_the_per_step_loop(name, policy_name, shared):
    instance = SAMPLE_INSTANCES[name]()
    policy = _policies(instance)[policy_name]
    rng, ref_rng = np.random.default_rng(40), np.random.default_rng(40)
    policy_rng = rng if shared else np.random.default_rng(41)
    ref_policy_rng = ref_rng if shared else np.random.default_rng(41)
    dataset = sample(policy, instance, 300, rng, policy_rng=policy_rng)
    assert _records(dataset) == _reference_sample(policy, instance, 300, ref_rng, ref_policy_rng)
    _assert_same_next_draw(rng, ref_rng)
    _assert_same_next_draw(policy_rng, ref_policy_rng)


@pytest.mark.parametrize("shared", [True, False], ids=["shared-rng", "separate-policy-rng"])
def test_sample_in_many_short_runs_equals_the_per_step_loop(monkeypatch, shared):
    # A run budget of a few contexts makes every run boundary fall mid-stream.
    monkeypatch.setattr(sampler_module, "_RUN_FLOATS", 450)
    instance = make_synthetic(9)
    policy = _policies(instance)["mixture"]
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    policy_rng = rng if shared else np.random.default_rng(2)
    ref_policy_rng = ref_rng if shared else np.random.default_rng(2)
    dataset = sample(policy, instance, 50, rng, policy_rng=policy_rng)
    assert _records(dataset) == _reference_sample(policy, instance, 50, ref_rng, ref_policy_rng)
    _assert_same_next_draw(rng, ref_rng)


@pytest.mark.parametrize("policy_name", ["mixture", "random", "largest_norm", "single_action"])
@pytest.mark.parametrize("stream", ["ranking", "bare"])
def test_sample_on_ranking_and_bare_streams_equals_the_per_step_loop(tmp_path, stream,
                                                                     policy_name):
    # Three instances over one stream: one plans, one samples, one replays.
    planned, batched, looped = (_rank_instances(tmp_path, 3) if stream == "ranking"
                                else _bare_instances(3))
    policy = _policies(planned, M=12)[policy_name]
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    dataset = sample(policy, batched, 20, rng)
    assert _records(dataset) == _reference_sample(policy, looped, 20, ref_rng, ref_rng)
    _assert_same_next_draw(rng, ref_rng)


def test_each_action_is_the_per_context_rule_it_replaced():
    instance = make_random_unit_instance(5, 4, seed=3)
    policies = _policies(instance)
    mixture = policies["mixture"]
    assert mixture.snapshot_count > 1
    contexts = instance.draw_contexts(np.random.default_rng(4), 200)
    draws, replay = np.random.default_rng(5), np.random.default_rng(5)
    for context in contexts:
        m = int(replay.integers(1, mixture.M + 1))
        phase = bisect_right(mixture.phase_starts, m) - 1
        assert mixture.action(context, draws) == mixture.snapshot_action(phase, context)
        assert policies["random"].action(context, draws) == int(replay.integers(context.n_actions))
        assert policies["largest_norm"].action(context, draws) == int(
            np.argmax(np.linalg.norm(context.features, axis=1)))
    assert draws.bit_generator.state == replay.bit_generator.state


def _fresh_list(contexts):
    return [Context(c.context_id, np.array(c.features)) for c in contexts]


def _single_action_batch():
    pool = unit_ball_contexts(np.random.default_rng(14), 150, 4, 1)
    return ContextBatch([c.context_id for c in pool], np.stack([c.features for c in pool]))


BATCHES = {
    "synthetic": lambda: make_synthetic(2).draw_contexts(np.random.default_rng(6), 300),
    "random_unit": lambda: make_random_unit_instance(6, 4, seed=7).draw_contexts(
        np.random.default_rng(8), 300),
    "single_action": _single_action_batch,
}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_plan_on_a_batch_equals_plan_on_a_list(name):
    batch = BATCHES[name]()
    assert isinstance(batch, ContextBatch)
    config = ExperimentConfig(M=len(batch), N=len(batch), lambda_reg=0.5, alpha=1.0)
    policy, trace = plan(batch, config, norm_cap=None)
    ref_policy, ref_trace = plan(_fresh_list(batch), config, norm_cap=None)
    assert policy.phase_starts == ref_policy.phase_starts
    assert policy.features.tobytes() == ref_policy.features.tobytes()
    assert trace.actions.tobytes() == ref_trace.actions.tobytes()
    assert trace.values.tobytes() == ref_trace.values.tobytes()


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_evaluation_set_on_a_batch_equals_one_on_a_list(name):
    batch = BATCHES[name]()
    d = batch.d
    rng = np.random.default_rng(9)
    theta = rng.normal(size=d)
    law = ContextLaw.of_sampler(lambda rng: batch[0])
    instance = BanditInstance(d=d, theta_star=theta, context_law=law)
    estimate = ridge_fit(make_dataset(d, [
        InteractionRecord(f"t{i}", 0, rng.normal(size=d), float(rng.normal())) for i in range(40)
    ]), 1.0)
    labels = [rng.normal(size=batch.n_actions) for _ in range(len(batch))]
    labelled = BanditInstance(d=d, theta_star=None, context_law=law,
                              labels=dict(zip(batch.ids, labels)))
    reports = [
        evaluate(estimate, instance, EvaluationSet(batch, theta_star=theta)),
        evaluate(estimate, instance, batch),
        evaluate(estimate, labelled, EvaluationSet(batch, true_values=labels)),
    ]
    references = [
        evaluate(estimate, instance, EvaluationSet(_fresh_list(batch), theta_star=theta)),
        evaluate(estimate, instance, _fresh_list(batch)),
        evaluate(estimate, labelled, EvaluationSet(_fresh_list(batch), true_values=labels)),
    ]
    for report, reference in zip(reports, references):
        assert report == reference
