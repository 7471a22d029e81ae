import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mixplan import (
    ConfigurationError,
    DataError,
    ParseError,
    RankDatasetSpec,
    RunConfig,
    generate_standin_file,
    ingest_rank_dataset,
    make_hard_goptimal,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    make_rank_instance,
    make_synthetic,
    run_experiment,
)
from mixplan import environments
from mixplan.cli import main as cli_main
from mixplan.environments import (
    RANK_MAX_ACTIONS,
    RANK_NORM_CAP,
    build_rank_contexts,
    draw_subsample_indices,
    parse_rank_file,
)

DATA = Path(__file__).parent / "data"


def _category(context):
    """The category a synthetic context id encodes: ``c<category>-<hex>``."""
    return int(context.context_id[1 : context.context_id.index("-")])


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
        if _category(context) == 0:
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
        category = _category(context)
        for action in range(10):
            if action not in layout_informative[category]:
                assert not context.features[action].any()


def test_synthetic_category_marginals_uniform():
    instance = make_synthetic(6)
    rng = np.random.default_rng(7)
    counts = np.zeros(3)
    draws = 100_000
    for _ in range(10):
        for context in instance.draw_contexts(rng, draws // 10):
            counts[_category(context)] += 1
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
    parsed = parse_rank_file(path)
    assert parsed.qids == ("7",)
    assert parsed.query.tolist() == [0]
    assert parsed.labels.tolist() == [2.0]
    assert parsed.ends.tolist() == [2]
    assert parsed.indices.tolist() == [2, 9]  # 1-based on disk, 0-based in memory
    assert parsed.values.tolist() == [0.5, 1.0]


def test_parse_keeps_documents_in_file_order_across_interleaved_queries(tmp_path):
    path = tmp_path / "interleaved.txt"
    path.write_text("1 qid:b 2:0.5\n0 qid:a\n3 qid:b 1:0.25 4:1.0\n")
    parsed = parse_rank_file(path)
    assert parsed.qids == ("b", "a")
    assert parsed.query.tolist() == [0, 1, 0]
    assert parsed.labels.tolist() == [1.0, 0.0, 3.0]
    assert parsed.ends.tolist() == [1, 1, 3]
    assert parsed.indices.tolist() == [1, 0, 3]
    assert parsed.values.tolist() == [0.5, 0.25, 1.0]


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x qid:7 1:0.5", "label"),
        ("2 1:0.5", "qid"),
        ("2 qid: 1:0.5", "query id"),
        ("2 qid:7 1-0.5", "idx:val"),
        ("2 qid:7 0:0.5", "1-based"),
        ("2 qid:7 a:0.5", "token"),
        ("2 qid:7 99999999999999999999:0.5", "token"),
        ("nan qid:7 1:0.5", "non-finite label"),
        ("-inf qid:7 1:0.5", "non-finite label"),
        ("2 qid:7 1:0.5 2:inf", "non-finite feature value"),
        ("2 qid:7 1:0.5 1:0.25", "feature index given twice"),
        ("2 qid:7 3:0.5 1:0.1 3:0.25", "feature index given twice"),
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
    parsed = parse_rank_file(path)
    assert parsed.qids == ("1",)
    assert parsed.indices.tolist() == [0]
    assert parsed.values.tolist() == [1.0]


@pytest.mark.parametrize(
    "text,fragment,line_number",
    [
        # Line 2's indices are out of order but distinct, so it is accepted.
        ("1 qid:1 1:1.0\n1 qid:1 4:0.5 2:0.5\n1 qid:2 3:0.1 3:0.2\n"
         "nan qid:2 5:0.1 5:inf\n", "given twice", 3),
        # A syntax fault raises as its line is read, before the value checks.
        ("nan qid:1 1:1.0\n" + "1 qid:1 2:0.5\n" * 8 + "1 qid:2 a:0.5\n",
         "bad feature token", 10),
    ],
)
def test_parse_names_the_first_line_of_a_later_fault(tmp_path, text, fragment, line_number):
    # The non-finite and repeated-index checks run once the file is read and
    # name the first line that fails any of them.
    path = tmp_path / "late.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=fragment) as excinfo:
        parse_rank_file(path)
    assert excinfo.value.line_number == line_number


def test_fixture_truncates_to_twenty_actions():
    spec = RankDatasetSpec(raw_dim=10, subsampled_dim=6)
    parsed = parse_rank_file(DATA / "rank_fixture.txt")
    assert np.count_nonzero(parsed.query == 0) == 22
    contexts = build_rank_contexts(parsed, spec, np.array([0, 2, 3, 5, 7, 9]))
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
    assert golden["spec"]["max_actions"] == RANK_MAX_ACTIONS
    assert golden["spec"]["norm_cap"] == RANK_NORM_CAP
    spec = RankDatasetSpec(
        raw_dim=golden["spec"]["raw_dim"],
        subsampled_dim=golden["spec"]["subsampled_dim"],
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


@pytest.mark.parametrize("position", [1, RANK_MAX_ACTIONS + 1])
def test_build_rejects_out_of_range_indices(tmp_path, position):
    # Every document is checked, also those past the first RANK_MAX_ACTIONS
    # that the context drops.
    path = tmp_path / "wide.txt"
    lines = ["1 qid:q 1:0.5"] * (RANK_MAX_ACTIONS + 1)
    lines[position - 1] = "1 qid:q 1:0.5 99:0.5"
    path.write_text("2 qid:ok 2:0.5\n" + "\n".join(lines) + "\n")
    spec = RankDatasetSpec(raw_dim=3, subsampled_dim=3)
    with pytest.raises(DataError, match="^query q: feature index 99 exceeds raw_dim 3$"):
        build_rank_contexts(parse_rank_file(path), spec, np.arange(3))


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


def _reference_ingest(path, spec, seed):
    """A single ranking file's (train, valid, test) splits as the per-document
    loop made them before ranking files were read as columns: one group of
    ``(idx, val)`` lists per query, densified a document and an entry at a
    time. Each context is a ``(qid, features, relevance)`` triple."""
    groups = {}
    for raw in Path(path).read_text().split("\n"):
        line = raw.split("#", 1)[0].strip()
        if line:
            label, qid, *tokens = line.split()
            relevances, rows = groups.setdefault(qid[4:], ([], []))
            relevances.append(float(label))
            rows.append([(int(t.split(":")[0]) - 1, float(t.split(":")[1])) for t in tokens])
    subsample = draw_subsample_indices(spec, seed)
    position = {int(orig): j for j, orig in enumerate(subsample)}
    contexts = []
    for qid, (relevances, rows) in groups.items():
        rows = rows[:RANK_MAX_ACTIONS]
        dense = np.zeros((len(rows), len(subsample)))
        for r, pairs in enumerate(rows):
            for idx, val in pairs:
                j = position.get(idx)
                if j is not None:
                    dense[r, j] = val
        norms = np.linalg.norm(dense, axis=1)
        scale = np.maximum(norms / RANK_NORM_CAP, 1.0)
        dense = dense / scale[:, None]
        contexts.append((qid, dense, np.array(relevances[:RANK_MAX_ACTIONS])))
    order = np.random.default_rng(seed).permutation(len(contexts))
    n_train, n_valid = int(0.6 * len(contexts)), int(0.2 * len(contexts))
    return [[contexts[i] for i in part]
            for part in np.split(order, [n_train, n_train + n_valid])]


def _assert_matches_reference(path, spec, seed):
    ingest = ingest_rank_dataset(path, spec, seed=seed)
    splits = (ingest.train, ingest.valid, ingest.test)
    for split, expected in zip(splits, _reference_ingest(path, spec, seed), strict=True):
        assert [rc.context.context_id for rc in split] == [qid for qid, _, _ in expected]
        for rc, (_, features, relevance) in zip(split, expected):
            assert rc.context.features.shape == features.shape
            assert rc.context.features.tobytes() == features.tobytes()
            assert rc.relevance.tobytes() == relevance.tobytes()


@pytest.mark.parametrize("raw_dim, subsampled_dim, n_queries", [(700, 300, 60), (30, 12, 80)])
@pytest.mark.parametrize("seed", [0, 1])
def test_ingest_matches_per_document_reference_on_standin_files(tmp_path, raw_dim,
                                                                subsampled_dim, n_queries, seed):
    path = tmp_path / "standin.txt"
    generate_standin_file(path, n_queries=n_queries, seed=seed + 11, raw_dim=raw_dim)
    _assert_matches_reference(path, RankDatasetSpec(raw_dim, subsampled_dim), seed)


def test_ingest_matches_per_document_reference_on_the_fixture():
    golden = json.loads((DATA / "rank_fixture_golden.json").read_text())
    spec = RankDatasetSpec(golden["spec"]["raw_dim"], golden["spec"]["subsampled_dim"])
    for seed in (0, 1):
        _assert_matches_reference(DATA / "rank_fixture.txt", spec, seed)


_RANK_DOCUMENT = st.tuples(
    st.sampled_from(["a", "b", "7"]),
    st.integers(0, 4),
    st.dictionaries(st.integers(1, 12), st.floats(-5.0, 5.0, allow_nan=False), max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(long_query=st.lists(_RANK_DOCUMENT, min_size=RANK_MAX_ACTIONS + 1, max_size=30),
       others=st.lists(_RANK_DOCUMENT, max_size=30), subsampled_dim=st.integers(1, 12),
       seed=st.integers(0, 3), data=st.data())
def test_ingest_matches_per_document_reference_on_generated_files(long_query, others,
                                                                  subsampled_dim, seed, data):
    # Queries interleave line by line; documents may have no features or
    # indices out of order, and query "long" has more than RANK_MAX_ACTIONS.
    documents = data.draw(st.permutations(
        [("long", label, feats) for _, label, feats in long_query] + others))
    text = "".join(f"{label} qid:{qid} " + " ".join(f"{i}:{v!r}" for i, v in feats.items())
                   + "\n" for qid, label, feats in documents)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "generated.txt"
        path.write_text(text)
        _assert_matches_reference(path, RankDatasetSpec(12, subsampled_dim), seed)


def test_ingest_rejects_non_finite_values_in_dropped_coordinates(tmp_path):
    # An inf in a coordinate the subsample drops once never reached a check.
    path = tmp_path / "standin.txt"
    generate_standin_file(path, n_queries=40, seed=3, raw_dim=30)
    spec = RankDatasetSpec(raw_dim=30, subsampled_dim=12)
    dropped = min(set(range(30)) - set(draw_subsample_indices(spec, 0).tolist()))
    n_lines = len(path.read_text().splitlines())
    with path.open("a") as handle:
        handle.write(f"1 qid:extra {dropped + 1}:inf\n")
    with pytest.raises(ParseError, match="non-finite feature value") as excinfo:
        ingest_rank_dataset(path, spec, seed=0)
    assert excinfo.value.line_number == n_lines + 1


def test_ingest_missing_path_message():
    with pytest.raises(ConfigurationError, match="stand-in"):
        ingest_rank_dataset("/nonexistent/data.txt")


def test_standin_file_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    generate_standin_file(a, n_queries=15, seed=5, raw_dim=40)
    generate_standin_file(b, n_queries=15, seed=5, raw_dim=40)
    assert a.read_bytes() == b.read_bytes()
    parsed = parse_rank_file(a)
    assert len(parsed.qids) == 15
    assert set(parsed.labels.tolist()) <= {0.0, 1.0, 2.0, 3.0, 4.0}


@pytest.mark.parametrize("name, value", [("n_queries", 0), ("raw_dim", 0), ("seed", -1)])
def test_standin_generation_rejects_settings_out_of_range(tmp_path, name, value):
    # A negative seed once ended in numpy's ValueError; nothing is written.
    with pytest.raises(ConfigurationError, match=f"{name} must"):
        generate_standin_file(tmp_path / "s.txt", **{"n_queries": 5, "seed": 0, name: value})
    assert not list(tmp_path.iterdir())


#: sha256 of stand-in files by (n_queries, seed, raw_dim); the benchmark's
#: stored references are computed from such files, so their bytes must not
#: change. (500, 1, 700) is the trial-standin input at seed 1, (30, 0, 1) has
#: one coordinate, and at raw_dim 2000 most documents have 32 or more
#: entries, where OpenBLAS takes its vector dot product.
STANDIN_DIGESTS = {
    (500, 1, 700): "c6e6466ca66c4af7960dc0b7ec719ecc0f978a1b7c413406def09a1a6c46d639",
    (40, 8, 30): "9586d2c7194d2a418028d27db9f8aea5e8a67f100ff510c0fb424406425e3a28",
    (30, 0, 1): "816021434841414454ae7195069d4c13e81f1f3bcc4ad2959d170d9e7f0546fc",
    (200, 2001, 2000): "23de410bf21ef249cc44aa0a4f0c6e6671415f12c163b54c522888f11a1042f6",
}

#: The same for ``mixplan gen-standin --splits --queries 25 --raw-dim 60 --seed 7``.
STANDIN_SPLIT_DIGESTS = {
    "train.txt": "75c678ba0864b30062fab22be17a11d16d854977f24a7936b3f975ec73a68f0c",
    "valid.txt": "467485af9a4e419bd8225d4683f46d98ce633cbb659fe7a819c9faefb2faf2bb",
    "test.txt": "edef5230e1683b17602a15c9e5a50085139ff44768508e7ceec4219aafa50c5f",
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("n_queries, seed, raw_dim", sorted(STANDIN_DIGESTS))
def test_standin_file_bytes_are_pinned(tmp_path, n_queries, seed, raw_dim):
    path = generate_standin_file(tmp_path / "standin.txt", n_queries=n_queries, seed=seed,
                                 raw_dim=raw_dim)
    assert _sha256(path) == STANDIN_DIGESTS[n_queries, seed, raw_dim]


def test_cli_standin_split_bytes_are_pinned(tmp_path):
    directory = tmp_path / "splits"
    assert cli_main(["gen-standin", "--out", str(directory), "--queries", "25",
                     "--raw-dim", "60", "--seed", "7", "--splits"]) == 0
    assert {p.name: _sha256(p) for p in directory.iterdir()} == STANDIN_SPLIT_DIGESTS


def _fail_at_query(monkeypatch, failing_query):
    """Make stand-in generation raise KeyboardInterrupt as it starts query
    ``failing_query``, after the earlier queries were written: a query's
    first draw is its document count, its one ``integers`` call."""
    default_rng = np.random.default_rng

    class Interrupting:
        def __init__(self, seed):
            self.rng, self.queries = default_rng(seed), 0

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def integers(self, *args, **kwargs):
            if self.queries == failing_query:
                raise KeyboardInterrupt
            self.queries += 1
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(environments.np.random, "default_rng", Interrupting)


@pytest.mark.parametrize("earlier", [False, True], ids=["no-earlier-file", "earlier-file"])
def test_interrupted_standin_generation_leaves_the_target_as_it_was(tmp_path, monkeypatch,
                                                                    earlier):
    path = tmp_path / "standin.txt"
    if earlier:
        generate_standin_file(path, n_queries=5, seed=2, raw_dim=30)
    before = path.read_bytes() if earlier else None
    _fail_at_query(monkeypatch, 300)  # about 0.9 MB written by then
    with pytest.raises(KeyboardInterrupt):
        generate_standin_file(path, n_queries=500, seed=1, raw_dim=700)
    assert (path.read_bytes() if path.exists() else None) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == (["standin.txt"] if earlier else [])


def test_standin_run_after_an_interrupted_one_writes_the_whole_file(tmp_path, monkeypatch):
    # The harness reuses the default stand-in file whenever it exists, so an
    # interrupted generation must not leave a part of it there.
    monkeypatch.chdir(tmp_path)
    config = RunConfig(environment="stand_in", algorithm="random", N=10, n_trials=1,
                       eval_every=10, eval_set_size=5, seed=1, standin_queries=500,
                       rank_raw_dim=700, rank_subsampled_dim=12, output_path="out")
    with monkeypatch.context() as patch:
        _fail_at_query(patch, 300)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
    assert list((tmp_path / "runs").iterdir()) == []
    result = run_experiment(config)
    data_path = Path(result.summary["config"]["data_path"])
    assert [p.name for p in (tmp_path / "runs").iterdir()] == [data_path.name]
    assert _sha256(data_path) == STANDIN_DIGESTS[500, 1, 700]


def test_standin_generation_does_not_buffer_the_file(tmp_path):
    # Writing each line as it is drawn peaks near 0.04 MB traced; a buffer
    # of the whole 1.5 MB file peaked near 28 MB.
    tracemalloc.start()
    try:
        generate_standin_file(tmp_path / "standin.txt", n_queries=500, seed=1, raw_dim=700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
