import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixplan import (
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    MixturePolicy,
    RegularizedCovariance,
    make_hard_goptimal,
    make_hard_uniform,
    make_random_unit_instance,
    plan,
    sample,
    switch_count_budget,
)

from mixplan import covariance as covariance_module
from mixplan import planner as planner_module
from mixplan.core import action_counts, stack_contexts

from conftest import make_context, snapshot_of, unit_ball_contexts


def _config(M, lam=1.0, alpha=1.0, **kwargs):
    return ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=alpha, **kwargs)


def _hard_uniform_stream(A, M):
    instance = make_hard_uniform(A)
    context = instance.context_sampler(np.random.default_rng(0))
    return [context] * M


def test_plan_single_step_picks_longest_row():
    contexts = [make_context([[1.0, 0.0], [0.0, 0.5]])]
    policy, trace = plan(contexts, _config(1))
    assert trace.actions[0] == 0
    assert policy.snapshot_count == 1
    assert trace.values[0] == pytest.approx(1.0)


def test_plan_hard_instance_splits_exploration_evenly():
    # The uncertainty argmax keeps both directions balanced, so the lone
    # informative action gets about half the pulls instead of 1/A.
    contexts = _hard_uniform_stream(A=10, M=2000)
    policy, trace = plan(contexts, _config(2000))
    frequency = float(np.mean(trace.actions == 0))
    assert 0.4 <= frequency <= 0.6
    others = set(np.unique(trace.actions)) - {0, 1}
    assert not others  # every e2 pick resolves to the lowest tied index


def test_plan_snapshot_count_within_budget():
    rng = np.random.default_rng(21)
    contexts = unit_ball_contexts(rng, 100, 5, 4)
    policy, _ = plan(contexts, _config(100))
    bound = 5 * math.log2(1 + 100 / 5)
    assert policy.snapshot_count <= bound
    assert policy.snapshot_count <= 21


def test_plan_is_deterministic():
    rng = np.random.default_rng(22)
    contexts = unit_ball_contexts(rng, 60, 3, 5)
    first_policy, first_trace = plan(contexts, _config(60))
    second_policy, second_trace = plan(contexts, _config(60))
    assert first_policy.phase_starts == second_policy.phase_starts
    for a, b in zip(first_policy.snapshots, second_policy.snapshots):
        assert np.array_equal(a.factor, b.factor)
        assert a.log_det == b.log_det
    assert np.array_equal(first_policy.features, second_policy.features)
    assert np.array_equal(first_trace.values, second_trace.values)
    assert np.array_equal(first_trace.actions, second_trace.actions)


def test_plan_decreasing_uncertainty_on_probe_contexts():
    rng = np.random.default_rng(23)
    contexts = unit_ball_contexts(rng, 300, 4, 5)
    policy, _ = plan(contexts, _config(300))
    probes = unit_ball_contexts(rng, 50, 4, 5)
    for probe in probes:
        maxima = [
            float(snap.mahalanobis_rows(probe.features).max())
            for snap in policy.snapshots
        ]
        diffs = np.diff(maxima)
        assert (diffs <= 1e-8).all()


def test_plan_uncertainty_sum_bound():
    rng = np.random.default_rng(24)
    for alpha in (1.0, 0.4):
        contexts = unit_ball_contexts(rng, 400, 6, 5)
        config = _config(400, lam=1.5, alpha=alpha)
        policy, trace = plan(contexts, config)
        total = float(trace.values.sum())
        final = np.eye(6) * config.lambda_reg + alpha * (policy.features.T @ policy.features)
        log_det_growth = float(np.linalg.slogdet(final)[1]) - 6 * math.log(config.lambda_reg)
        lemma_form = math.sqrt((400 / alpha) * 3.0 * log_det_growth)
        assert total <= lemma_form + 1e-9
        outer_form = 3.0 * math.sqrt(
            (400 / alpha) * 6 * math.log((6 * config.lambda_reg + 400) / 6)
        )
        assert total <= outer_form + 1e-9


def test_plan_uncertainty_capped_by_lambda():
    rng = np.random.default_rng(25)
    lam = 4.0
    contexts = unit_ball_contexts(rng, 100, 3, 4)
    _, trace = plan(contexts, _config(100, lam=lam))
    assert trace.values.max() <= 1.0 / math.sqrt(lam) + 1e-9


def _reference_plan(contexts, lam, alpha):
    """The planner loop with the exact doubling test at every step: updates
    carry no snapshot norm, so ``doubled_since`` always factors."""
    cov = RegularizedCovariance(contexts[0].d, lam, alpha)
    snap, snapshots, starts, actions, values = None, [], [], [], []
    for m, context in enumerate(contexts, start=1):
        if cov.doubled_since(snap):
            snap = cov.snapshot()
            snapshots.append(snap)
            starts.append(m)
        norms = snap.mahalanobis_rows(context.features)
        a = int(np.argmax(norms))
        actions.append(a)
        values.append(norms[a])
        cov.rank_one_update(context.features[a])
    return snapshots, starts, np.array(actions), np.array(values)


def _screen_fixture(kind, d, n_actions, seed, M):
    rng = np.random.default_rng(seed)
    if kind == "hard_uniform":
        instance = make_hard_uniform(n_actions + 1)
    elif kind == "hard_goptimal":
        instance = make_hard_goptimal(2 + seed % 3)
    else:
        return unit_ball_contexts(rng, M, d, n_actions)
    return [instance.context_sampler(rng) for _ in range(M)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["hard_uniform", "hard_goptimal", "random"]),
    d=st.integers(1, 8),
    n_actions=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    M=st.integers(1, 250),
    lam=st.sampled_from([0.05, 0.25, 0.5, 1.0, 2.0, 5.0]),
    alpha=st.sampled_from([0.05, 0.25, 0.5, 1.0]),
)
def test_screened_plan_matches_exact_test_at_every_step(kind, d, n_actions, seed, M, lam,
                                                        alpha):
    # Basis-vector instances with lam == alpha double the determinant
    # exactly on a fresh direction: the knife edge the screen must not cut.
    contexts = _screen_fixture(kind, d, n_actions, seed, M)
    policy, trace = plan(contexts, _config(M, lam=lam, alpha=alpha))
    _assert_matches_reference(policy, trace, contexts, lam, alpha)


def _assert_matches_reference(policy, trace, contexts, lam, alpha):
    snapshots, starts, actions, values = _reference_plan(contexts, lam, alpha)
    assert list(policy.phase_starts) == starts
    assert np.array_equal(trace.actions, actions)
    assert trace.values.tobytes() == values.tobytes()
    assert len(policy.snapshots) == len(snapshots)
    for ours, theirs in zip(policy.snapshots, snapshots):
        assert ours.factor.tobytes() == theirs.factor.tobytes()
        assert ours.log_det == theirs.log_det


def _mixed_action_contexts(rng, M, d):
    """Unit-ball contexts with 1 to 6 actions each, interleaved."""
    counts = rng.integers(1, 7, size=M)
    pool = unit_ball_contexts(rng, M, d, 6)
    return [make_context(c.features[:k], f"c{i}") for i, (c, k) in enumerate(zip(pool, counts))]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["mixed", "long"]),
    d=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    M=st.integers(1, 600),
    block=st.sampled_from([None, 1, 2, 3, 7]),
    block_floats=st.sampled_from([None, 7, 64]),
    data=st.data(),
)
def test_blocked_plan_matches_exact_test_at_every_step(kind, d, seed, M, block, block_floats,
                                                       data):
    # Blocks of steps chosen with one solve per action count and applied
    # until the growth screen stops them take the reference's snapshots,
    # actions and values bit for bit: on batches that mix action counts
    # and on phases hundreds of steps long. ``block``
    # caps the block length and the rows one stacked update holds;
    # ``block_floats`` also splits a block's contexts over several solves.
    rng = np.random.default_rng(seed)
    if kind == "long":
        lam = data.draw(st.sampled_from([20.0, 100.0]), label="lam")
        alpha = data.draw(st.sampled_from([0.01, 0.05]), label="alpha")
        contexts = unit_ball_contexts(rng, M, d, 1 + seed % 5)
    else:
        lam = data.draw(st.sampled_from([0.25, 1.0, 5.0]), label="lam")
        alpha = data.draw(st.sampled_from([0.25, 1.0]), label="alpha")
        contexts = _mixed_action_contexts(rng, M, d)
    floats = covariance_module._BLOCK_FLOATS if block_floats is None else block_floats
    with mock.patch.object(planner_module, "_block_rows", _capped_block_rows(block)), \
            mock.patch.object(covariance_module, "_block_rows", _capped_block_rows(block)), \
            mock.patch.object(covariance_module, "_BLOCK_FLOATS", floats):
        policy, trace = plan(contexts, _config(M, lam=lam, alpha=alpha))
    _assert_matches_reference(policy, trace, contexts, lam, alpha)


def _capped_block_rows(cap):
    original = covariance_module._block_rows
    return original if cap is None else (lambda d: min(cap, original(d)))


def test_blocked_plan_matches_exact_test_at_two_blas_threads():
    # Wide solves split their columns across BLAS threads, and the thread
    # count is fixed when numpy loads: rerun the property in a fresh
    # interpreter at two threads.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    name = "test_blocked_plan_matches_exact_test_at_every_step"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::{name}"],
        cwd=here.parent, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert "1 passed" in result.stdout


def test_plan_rejects_short_batches_and_dimension_changes_deep_in_a_phase():
    rng = np.random.default_rng(34)
    contexts = unit_ball_contexts(rng, 500, 3, 4)
    config = _config(500, lam=100.0, alpha=0.01)
    with pytest.raises(ConfigurationError, match="300 offline contexts, config expects M=500"):
        plan(contexts[:300], config)
    wider = unit_ball_contexts(rng, 1, 4, 4)
    with pytest.raises(ContractViolation):
        plan(contexts[:250] + wider + contexts[251:], config)
    # A long row at step 200 fails the norm gate when its update is added.
    long_row = make_context([[2.0, 0.0, 0.0]])
    with pytest.raises(ContractViolation, match="norm"):
        plan(contexts[:199] + [long_row] + contexts[200:], config)


@pytest.mark.parametrize("lam, alpha", [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)])
def test_screened_plan_keeps_the_knife_edge_snapshots(lam, alpha):
    contexts = _hard_uniform_stream(A=4, M=300)
    policy, _ = plan(contexts, _config(300, lam=lam, alpha=alpha))
    _, starts, _, _ = _reference_plan(contexts, lam, alpha)
    assert list(policy.phase_starts) == starts
    if lam == 1.0:
        # The first update doubles the determinant exactly; the computed
        # log ratio rounds above log 2, so the second step starts a phase.
        assert starts[:2] == [1, 2]


def test_plan_trace_values_nonnegative_and_match_actions():
    rng = np.random.default_rng(26)
    contexts = unit_ball_contexts(rng, 40, 3, 4)
    policy, trace = plan(contexts, _config(40))
    assert (trace.values >= 0).all()
    for m, context in enumerate(contexts):
        assert np.array_equal(policy.features[m], context.features[trace.actions[m]])


def test_plan_rejects_empty_stream():
    with pytest.raises(ConfigurationError):
        plan([], _config(1))


def test_plan_rejects_wrong_length_stream():
    contexts = [make_context([[1.0, 0.0]])] * 3
    with pytest.raises(ConfigurationError):
        plan(contexts, _config(5))
    with pytest.raises(TypeError):
        plan(iter(contexts), _config(5))


def test_plan_rejects_dimension_change():
    contexts = [make_context([[1.0, 0.0]]), make_context([[1.0, 0.0, 0.0]])]
    with pytest.raises(ContractViolation):
        plan(contexts, _config(2))


def test_plan_norm_cap_enforced_by_default():
    contexts = [make_context([[2.0, 0.0]])]
    with pytest.raises(ContractViolation):
        plan(contexts, _config(1))
    policy, _ = plan(contexts, _config(1), norm_cap=None)
    assert policy.snapshot_count == 1


def _single_phase_policy(matrix, M=10):
    snap = snapshot_of(matrix)
    return MixturePolicy(
        snapshots=[snap], phase_starts=[1], lambda_reg=1.0, alpha=1.0,
        features=np.zeros((M, snap.d)),
    )


def test_policy_action_single_phase_is_deterministic(rng):
    policy = _single_phase_policy(np.eye(2))
    context = make_context([[1.0, 0.0], [0.0, 0.9]])
    draws = {policy.action(context, rng) for _ in range(50)}
    assert draws == {0}


def test_policy_action_snapshot_metric():
    policy = _single_phase_policy(np.diag([10.0, 1.0]))
    context = make_context([[1.0, 0.0], [0.0, 1.0]])
    assert policy.action(context, np.random.default_rng(0)) == 1


def test_policy_action_phase_frequencies():
    # Two phases of lengths 30 and 70; the snapshots are rigged so the
    # chosen action reveals which phase was drawn.
    policy = MixturePolicy(
        snapshots=[snapshot_of(np.eye(2)), snapshot_of(np.diag([10.0, 1.0]))],
        phase_starts=[1, 31], lambda_reg=1.0, alpha=1.0, features=np.zeros((100, 2)),
    )
    context = make_context([[0.9, 0.0], [0.0, 0.5]])
    # snapshot A: norms (0.9, 0.5) -> action 0; snapshot B: (0.28, 0.5) -> action 1
    rng = np.random.default_rng(31)
    batch = stack_contexts([context] * 100_000)
    draws = policy.decide(batch, policy.draw(rng, action_counts(batch)))
    phase_one_rate = float(np.mean(draws == 0))
    assert phase_one_rate == pytest.approx(0.30, abs=0.01)


def test_policy_dimension_check():
    policy = _single_phase_policy(np.eye(2))
    with pytest.raises(ContractViolation):
        policy.action(make_context([[1.0, 0.0, 0.0]]), np.random.default_rng(0))


def test_policy_invariant_validation():
    snap = snapshot_of(np.eye(2))
    features = np.zeros((10, 2))
    common = dict(lambda_reg=1.0, alpha=1.0)
    with pytest.raises(ConfigurationError):
        MixturePolicy(snapshots=[snap], phase_starts=[2], features=features, **common)
    with pytest.raises(ConfigurationError):
        MixturePolicy(snapshots=[snap, snap], phase_starts=[1, 1], features=features, **common)
    with pytest.raises(ConfigurationError):
        MixturePolicy(snapshots=[snap], phase_starts=[1], features=np.zeros(10), **common)
    with pytest.raises(ConfigurationError):
        MixturePolicy(snapshots=[snap], phase_starts=[1],
                      features=np.full((10, 2), np.nan), **common)
    with pytest.raises(ConfigurationError):
        MixturePolicy(snapshots=[snap], phase_starts=[11], features=features, **common)
    policy = MixturePolicy(snapshots=[snap], phase_starts=[1], features=features, **common)
    assert (policy.M, policy.d) == (10, 2)
    with pytest.raises(ValueError):
        policy.features[0, 0] = 1.0


def _assert_same_policy(loaded, policy):
    assert loaded.phase_starts == policy.phase_starts
    assert (loaded.M, loaded.d) == (policy.M, policy.d)
    assert loaded.lambda_reg == policy.lambda_reg
    assert loaded.alpha == policy.alpha
    assert loaded.features.tobytes() == policy.features.tobytes()
    assert loaded.snapshot_count == policy.snapshot_count
    for a, b in zip(policy.snapshots, loaded.snapshots):
        assert a.factor.tobytes() == b.factor.tobytes()
        assert a.log_det == b.log_det


def test_policy_artifact_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(27)
    contexts = unit_ball_contexts(rng, 80, 4, 5)
    policy, _ = plan(contexts, _config(80, lam=0.7, alpha=0.5))
    path = tmp_path / "policy.json"
    policy.save(path)
    assert path.exists() and not (tmp_path / "policy.json.npz").exists()
    loaded = MixturePolicy.load(path)
    _assert_same_policy(loaded, policy)
    probe = unit_ball_contexts(rng, 1, 4, 6)[0]
    for k in range(policy.snapshot_count):
        assert policy.snapshot_action(k, probe) == loaded.snapshot_action(k, probe)


def _artifact(policy):
    return {
        "format": np.str_("mixture-policy"),
        "version": np.int64(2),
        "features": policy.features,
        "phase_starts": np.asarray(policy.phase_starts, dtype=np.int64),
        "M": np.int64(policy.M),
        "lambda_reg": np.float64(policy.lambda_reg),
        "alpha": np.float64(policy.alpha),
    }


def _write(path, **arrays):
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path


def test_policy_artifact_rejects_foreign_payloads(tmp_path):
    rng = np.random.default_rng(29)
    policy, _ = plan(unit_ball_contexts(rng, 40, 3, 4), _config(40))
    good = _artifact(policy)
    _assert_same_policy(MixturePolicy.load(_write(tmp_path / "good.npz", **good)), policy)

    saved = tmp_path / "saved.npz"
    policy.save(saved)
    blob = saved.read_bytes()
    bad_features = policy.features.copy()
    bad_features[3, 1] = np.inf
    cases = {
        "other-format": {**good, "format": np.str_("other")},
        "future-version": {**good, "version": np.int64(99)},
        "no-version": {k: v for k, v in good.items() if k != "version"},
        "no-features": {k: v for k, v in good.items() if k != "features"},
        "no-alpha": {k: v for k, v in good.items() if k != "alpha"},
        "short-features": {**good, "features": policy.features[:-1]},
        "flat-features": {**good, "features": policy.features.ravel()},
        "non-finite-features": {**good, "features": bad_features},
        "vector-M": {**good, "M": np.array([policy.M, 1])},
        "nan-lambda": {**good, "lambda_reg": np.float64(np.nan)},
        "late-phase": {**good, "phase_starts": np.array([1, policy.M + 1])},
    }
    for name, arrays in cases.items():
        with pytest.raises(ConfigurationError):
            MixturePolicy.load(_write(tmp_path / f"{name}.npz", **arrays))

    np.save(tmp_path / "eye.npy", np.eye(2))
    raw_files = {
        "truncated": blob[: len(blob) // 2],
        "empty": b"",
        "text": b"not an artifact\n",
        "npy": (tmp_path / "eye.npy").read_bytes(),
        "v1-json": json.dumps({"format": "mixture-policy", "version": 1, "d": 2, "M": 1,
                               "lambda_reg": 1.0, "alpha": 1.0, "phase_starts": [1],
                               "snapshots": ["AAAAAAAA8D8="]}).encode(),
    }
    for name, data in raw_files.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        with pytest.raises(ConfigurationError):
            MixturePolicy.load(path)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 8),
    M=st.integers(1, 60),
    n_actions=st.integers(1, 5),
    lambda_reg=st.floats(0.5, 5.0),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_save_load_round_trip_property(d, M, n_actions, lambda_reg, alpha, seed):
    instance = make_random_unit_instance(d, n_actions, seed=seed)
    offline_seed, online_seed = np.random.SeedSequence(seed).spawn(2)
    offline_rng = np.random.default_rng(offline_seed)
    contexts = [instance.context_sampler(offline_rng) for _ in range(M)]
    policy, _ = plan(contexts, _config(M, lam=lambda_reg, alpha=alpha))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "policy.json"
        policy.save(path)
        loaded = MixturePolicy.load(path)
    _assert_same_policy(loaded, policy)
    in_memory = sample(policy, instance, 30, np.random.default_rng(online_seed))
    replayed = sample(loaded, instance, 30, np.random.default_rng(online_seed))
    assert [r.action_index for r in replayed] == [r.action_index for r in in_memory]


def test_phase_lengths_sum_to_M():
    rng = np.random.default_rng(28)
    contexts = unit_ball_contexts(rng, 123, 3, 4)
    policy, _ = plan(contexts, _config(123))
    assert int(policy.phase_lengths().sum()) == 123
    assert policy.phase_lengths().min() >= 1


def test_switch_count_budget_formula():
    assert switch_count_budget(5, 100, 1.0) == pytest.approx(5 * math.log2(21))
    assert switch_count_budget(2, 1000, 10.0) == pytest.approx(2 * math.log2(51))
