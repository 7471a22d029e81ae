import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from mixplan import (
    ConfigurationError,
    DataError,
    ParseError,
    RankDatasetSpec,
    generate_standin_file,
    ingest_rank_dataset,
    make_hard_goptimal,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    make_rank_instance,
    make_synthetic,
)
from mixplan.environments import (
    QueryGroup,
    build_rank_contexts,
    draw_subsample_indices,
    parse_rank_file,
    synthetic_category,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Synthetic instance
# ---------------------------------------------------------------------------


def test_synthetic_theta_pattern():
    instance = make_synthetic(0)
    assert instance.theta_star[-1] == 0.0
    assert set(np.unique(instance.theta_star[:-1])) == {-1.0, 1.0}
    assert instance.d == 20


def test_synthetic_category_one_spike_variance():
    # In category 0 the own action is action 0, spiking at coordinate 0 with
    # unit variance; all other coordinates stay at the 1e-9 floor.
    instance = make_synthetic(1)
    rng = np.random.default_rng(2)
    rows = []
    while len(rows) < 10_000:
        context = instance.context_sampler(rng)
        if synthetic_category(context) == 0:
            rows.append(context.features[0])
    rows = np.array(rows)
    variances = rows.var(axis=0)
    assert abs(variances[0] - 1.0) < 0.05
    assert variances[1:].max() < 1e-6


def test_synthetic_shared_action_variance():
    instance = make_synthetic(1)
    rng = np.random.default_rng(3)
    rows = np.array([instance.context_sampler(rng).features[4] for _ in range(10_000)])
    variances = rows.var(axis=0)
    assert abs(variances[-1] - 5.0) < 0.3
    assert variances[:-1].max() < 1e-6


def test_synthetic_unused_actions_are_exactly_zero():
    instance = make_synthetic(4)
    rng = np.random.default_rng(5)
    layout_informative = {
        0: {0, 2, 3, 4, 5},
        1: {1, 6, 7, 4, 5},
        2: {2, 8, 9, 4, 5},
    }
    for _ in range(200):
        context = instance.context_sampler(rng)
        category = synthetic_category(context)
        for action in range(10):
            if action not in layout_informative[category]:
                assert not context.features[action].any()


def test_synthetic_category_marginals_uniform():
    instance = make_synthetic(6)
    rng = np.random.default_rng(7)
    counts = np.zeros(3)
    draws = 100_000
    for _ in range(draws):
        counts[synthetic_category(instance.context_sampler(rng))] += 1
    expected = draws / 3.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < chi2.ppf(0.99, df=2)


# ---------------------------------------------------------------------------
# Hard instances
# ---------------------------------------------------------------------------


def test_hard_uniform_features():
    instance = make_hard_uniform(10)
    context = instance.context_sampler(np.random.default_rng(0))
    assert np.array_equal(context.features[0], [1.0, 0.0])
    for a in range(1, 10):
        assert np.array_equal(context.features[a], [0.0, 1.0])
    two = make_hard_uniform(2)
    feats = two.context_sampler(np.random.default_rng(0)).features
    assert np.array_equal(feats, np.eye(2))
    with pytest.raises(ConfigurationError):
        make_hard_uniform(1)


def test_hard_uniform_mixture_covariances():
    A = 8
    instance = make_hard_uniform(A)
    context = instance.context_sampler(np.random.default_rng(0))
    rng = np.random.default_rng(9)
    lam = 0.5

    def empirical_cov(action_sampler, draws=100_000):
        actions = action_sampler(draws)
        phis = context.features[actions]
        return phis.T @ phis / draws + lam * np.eye(2)

    uniform = empirical_cov(lambda n: rng.integers(A, size=n))
    expected_uniform = np.diag([1.0 / A, (A - 1.0) / A]) + lam * np.eye(2)
    assert np.allclose(uniform, expected_uniform, atol=0.01)

    split = empirical_cov(lambda n: np.where(rng.random(n) < 0.5, 0, 1))
    expected_split = np.diag([0.5, 0.5]) + lam * np.eye(2)
    assert np.allclose(split, expected_split, atol=0.01)


def test_hard_goptimal_feature_layout():
    instance = make_hard_goptimal(2)
    assert instance.d == 4
    rng = np.random.default_rng(0)
    contexts = {}
    while len(contexts) < 2:
        context = instance.context_sampler(rng)
        contexts[context.context_id] = context
    s0 = contexts["s0"]
    assert s0.n_actions == 3
    assert np.array_equal(s0.features[2], [0.0, 0.0, 1.0, 0.0])
    s1 = contexts["s1"]
    assert np.array_equal(s1.features[2], [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(s0.features[0], s1.features[0])
    with pytest.raises(ConfigurationError):
        make_hard_goptimal(1)


def test_hard_goptimal_uncertainty_closed_forms():
    k = 3
    instance = make_hard_goptimal(k)
    rng = np.random.default_rng(1)
    contexts = {}
    while len(contexts) < k:
        context = instance.context_sampler(rng)
        contexts[context.context_id] = context
    contexts = [contexts[f"s{i}"] for i in range(k)]

    # Per-context uniform design: shared directions get k/(k+1) mass in
    # total, each exclusive direction only 1/(k(k+1)).
    uniform_diag = np.concatenate(
        [np.full(k, 1.0 / (k + 1)), np.full(k, 1.0 / (k * (k + 1)))]
    )
    uniform_cov = np.diag(uniform_diag)
    scores = [
        float(
            np.max(
                np.einsum(
                    "ad,ad->a",
                    c.features @ np.linalg.inv(uniform_cov),
                    c.features,
                )
            )
        )
        for c in contexts
    ]
    assert np.mean(scores) == pytest.approx(k * (k + 1), rel=1e-9)
    assert np.mean(scores) == pytest.approx(12.0, rel=1e-9)

    # The even split between shared and exclusive directions flattens the
    # design to diag(1/2k) and the worst-case score to 2k = d.
    split_cov = np.eye(2 * k) / (2.0 * k)
    split_scores = [
        float(
            np.max(
                np.einsum(
                    "ad,ad->a", c.features @ np.linalg.inv(split_cov), c.features
                )
            )
        )
        for c in contexts
    ]
    assert np.mean(split_scores) == pytest.approx(2.0 * k, rel=1e-9)
    assert np.mean(split_scores) <= 12.0  # = O(d) with constant c = 0.5 <= 1


def test_hard_nonconcentrating_structure():
    # Small M makes the rare context (probability 1 / (d M)) actually show up.
    instance = make_hard_nonconcentrating(d=6, M=12)
    rng = np.random.default_rng(2)
    seen = {}
    counts = {"s0": 0}
    draws = 30_000
    for _ in range(draws):
        context = instance.context_sampler(rng)
        seen[context.context_id] = context
        if context.context_id == "s0":
            counts["s0"] += 1
    rare = seen.get("s0")
    assert rare is not None and rare.n_actions == 1
    assert np.array_equal(rare.features[0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # binomial(30000, 1/72) concentrates around 417
    assert 250 <= counts["s0"] <= 600
    frequent = seen["s1"]
    assert frequent.n_actions == 2
    assert np.linalg.norm(frequent.features[1]) == pytest.approx(1.0, rel=1e-12)
    assert frequent.features[1][0] == pytest.approx(math.sqrt(6 / 12), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hard_nonconcentrating_draws_follow_rng_choice(seed):
    # The context draw keeps rng.choice's stream: same indices, and the
    # generator is left in the same state.
    d, M = 6, 400
    instance = make_hard_nonconcentrating(d=d, M=M)
    probs = np.full(d, (1.0 - 1.0 / (d * M)) / (d - 1))
    probs[0] = 1.0 / (d * M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [int(instance.context_sampler(ours).context_id[1:]) for _ in range(20_000)]
    expected = [int(theirs.choice(d, p=probs)) for _ in range(20_000)]
    assert drawn == expected
    assert 0 in drawn  # the rare context is among the draws
    assert ours.random() == theirs.random()


def test_random_unit_instance_norm_cap():
    instance = make_random_unit_instance(5, 7, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        context = instance.context_sampler(rng)
        assert np.linalg.norm(context.features, axis=1).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Ranking-file ingestion
# ---------------------------------------------------------------------------


def test_parse_single_line_format_oracle(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("2 qid:7 3:0.5 10:1.0\n")
    groups = parse_rank_file(path)
    assert len(groups) == 1
    group = groups[0]
    assert group.qid == "7"
    assert group.relevances == [2.0]
    assert group.rows == [[(2, 0.5), (9, 1.0)]]  # 1-based on disk, 0-based in memory


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x qid:7 1:0.5", "label"),
        ("2 1:0.5", "qid"),
        ("2 qid: 1:0.5", "query id"),
        ("2 qid:7 1-0.5", "idx:val"),
        ("2 qid:7 0:0.5", "1-based"),
        ("2 qid:7 a:0.5", "token"),
    ],
)
def test_parse_rejects_malformed_lines(tmp_path, line, fragment):
    path = tmp_path / "bad.txt"
    path.write_text("1 qid:1 1:1.0\n" + line + "\n")
    with pytest.raises(ParseError) as excinfo:
        parse_rank_file(path)
    assert excinfo.value.line_number == 2
    assert fragment in str(excinfo.value)


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("# header\n\n1 qid:1 1:1.0  # trailing comment\n")
    groups = parse_rank_file(path)
    assert len(groups) == 1
    assert groups[0].rows == [[(0, 1.0)]]


def test_fixture_truncates_to_twenty_actions():
    spec = RankDatasetSpec(raw_dim=10, subsampled_dim=6)
    groups = parse_rank_file(DATA / "rank_fixture.txt")
    assert len(groups[0].rows) == 22
    contexts = build_rank_contexts(groups, spec, np.array([0, 2, 3, 5, 7, 9]))
    assert contexts[0].context.n_actions == 20
    assert contexts[1].context.n_actions == 4
    assert contexts[2].context.n_actions == 2


def test_fixture_norms_capped():
    spec = RankDatasetSpec(raw_dim=10, subsampled_dim=6)
    groups = parse_rank_file(DATA / "rank_fixture.txt")
    contexts = build_rank_contexts(groups, spec, np.array([0, 2, 3, 5, 7, 9]))
    for rc in contexts:
        assert np.linalg.norm(rc.context.features, axis=1).max() <= 1.0 + 1e-9


def test_fixture_matches_committed_golden():
    golden = json.loads((DATA / "rank_fixture_golden.json").read_text())
    spec = RankDatasetSpec(
        raw_dim=golden["spec"]["raw_dim"],
        subsampled_dim=golden["spec"]["subsampled_dim"],
        max_actions=golden["spec"]["max_actions"],
        norm_cap=golden["spec"]["norm_cap"],
    )
    groups = parse_rank_file(DATA / "rank_fixture.txt")
    contexts = build_rank_contexts(
        groups, spec, np.array(golden["subsample_indices"])
    )
    assert len(contexts) == len(golden["contexts"])
    for rc, expected in zip(contexts, golden["contexts"]):
        assert rc.context.context_id == expected["qid"]
        assert rc.context.n_actions == expected["n_actions"]
        assert [float(v) for v in rc.relevance] == expected["relevance"]
        assert [[float(v) for v in row] for row in rc.context.features] == expected["features"]


def test_build_rejects_out_of_range_indices():
    spec = RankDatasetSpec(raw_dim=4, subsampled_dim=4)
    group = QueryGroup(qid="q", relevances=[1.0], rows=[[(7, 0.5)]])
    with pytest.raises(DataError):
        build_rank_contexts([group], spec, np.arange(4))


def test_build_skips_empty_groups_with_warning():
    spec = RankDatasetSpec(raw_dim=4, subsampled_dim=4)
    group = QueryGroup(qid="empty")
    with pytest.warns(UserWarning, match="empty"):
        contexts = build_rank_contexts([group], spec, np.arange(4))
    assert contexts == []


def test_subsample_indices_deterministic_and_sorted():
    spec = RankDatasetSpec(raw_dim=50, subsampled_dim=10)
    first = draw_subsample_indices(spec, 3)
    second = draw_subsample_indices(spec, 3)
    assert np.array_equal(first, second)
    assert (np.diff(first) > 0).all()
    assert len(set(first.tolist())) == 10
    with pytest.raises(ConfigurationError):
        draw_subsample_indices(RankDatasetSpec(raw_dim=5, subsampled_dim=6), 0)


def test_ingest_single_file_split_determinism(tmp_path):
    path = tmp_path / "standin.txt"
    generate_standin_file(path, n_queries=40, seed=8, raw_dim=30)
    spec = RankDatasetSpec(raw_dim=30, subsampled_dim=12)
    first = ingest_rank_dataset(path, spec, seed=1)
    second = ingest_rank_dataset(path, spec, seed=1)
    assert np.array_equal(first.subsample_indices, second.subsample_indices)
    assert [rc.context.context_id for rc in first.train] == [
        rc.context.context_id for rc in second.train
    ]
    total = len(first.train) + len(first.valid) + len(first.test)
    assert total == 40
    assert len(first.train) == 24
    assert len(first.valid) == 8


def test_ingest_directory_layout(tmp_path):
    directory = tmp_path / "bundle"
    directory.mkdir()
    for i, name in enumerate(("train.txt", "valid.txt", "test.txt")):
        generate_standin_file(directory / name, n_queries=10, seed=20 + i, raw_dim=25)
    spec = RankDatasetSpec(raw_dim=25, subsampled_dim=10)
    ingest = ingest_rank_dataset(directory, spec, seed=0)
    assert len(ingest.train) == 10
    assert len(ingest.valid) == 10
    assert len(ingest.test) == 10


def test_ingest_missing_path_message():
    with pytest.raises(ConfigurationError, match="stand-in"):
        ingest_rank_dataset("/nonexistent/data.txt")


def test_standin_file_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    generate_standin_file(a, n_queries=15, seed=5, raw_dim=40)
    generate_standin_file(b, n_queries=15, seed=5, raw_dim=40)
    assert a.read_bytes() == b.read_bytes()
    groups = parse_rank_file(a)
    assert len(groups) == 15
    relevances = {r for g in groups for r in g.relevances}
    assert relevances <= {0.0, 1.0, 2.0, 3.0, 4.0}


def test_rank_instance_streams_and_rewards(tmp_path):
    path = tmp_path / "standin.txt"
    generate_standin_file(path, n_queries=12, seed=9, raw_dim=20)
    spec = RankDatasetSpec(raw_dim=20, subsampled_dim=8)
    ingest = ingest_rank_dataset(path, spec, seed=2)
    instance = make_rank_instance(ingest.train)
    rng = np.random.default_rng(0)
    ranked = {rc.context.context_id: rc for rc in ingest.train}
    for expected in ingest.train:
        context = instance.context_sampler(rng)
        assert context.context_id == expected.context.context_id
        reward = instance.reward(context, 0, rng)
        assert reward == float(ranked[context.context_id].relevance[0])
    with pytest.raises(ConfigurationError):
        instance.context_sampler(rng)
