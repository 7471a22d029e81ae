import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from mixplan import ConfigurationError, Context, ContractViolation, RegularizedCovariance
from mixplan import covariance as covariance_module
from mixplan.covariance import GROWTH_SLACK, _context_blocks, _mahalanobis_rows

from conftest import snapshot_of


def _random_unit_vectors(rng, count, d):
    vecs = rng.normal(size=(count, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * rng.uniform(0.0, 1.0, size=(count, 1))


def test_new_identity():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    assert np.array_equal(cov.matrix, np.eye(2))


def test_new_scaled_identity_determinant():
    cov = RegularizedCovariance(3, 0.5, 1.0)
    assert np.array_equal(cov.matrix, 0.5 * np.eye(3))
    assert math.exp(cov.log_det()) == pytest.approx(0.125, rel=1e-12)


def test_new_small_alpha_spectrum():
    cov = RegularizedCovariance(20, 1.0, 0.05)
    eigs = np.linalg.eigvalsh(cov.matrix)
    assert eigs.min() == pytest.approx(1.0)
    assert eigs.max() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d": 0, "lambda_reg": 1.0},
        {"d": 2, "lambda_reg": 0.0},
        {"d": 2, "lambda_reg": -1.0},
        {"d": 2, "lambda_reg": 1.0, "alpha": 0.0},
        {"d": 2, "lambda_reg": 1.0, "alpha": 1.2},
        {"d": 2, "lambda_reg": 1.0, "norm_cap": 0.0},
    ],
)
def test_new_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RegularizedCovariance(**kwargs)


def test_rank_one_update_basis_vector():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    cov.rank_one_update(np.array([1.0, 0.0]))
    assert np.array_equal(cov.matrix, np.diag([2.0, 1.0]))


def test_rank_one_update_scaled():
    cov = RegularizedCovariance(2, 1.0, 0.5)
    cov.rank_one_update(np.array([0.0, 1.0]))
    assert np.array_equal(cov.matrix, np.diag([1.0, 1.5]))


def test_rank_one_update_keeps_matrix_exactly_symmetric():
    rng = np.random.default_rng(17)
    cov = RegularizedCovariance(7, 0.9, 0.3)
    for phi in _random_unit_vectors(rng, 300, 7):
        cov.rank_one_update(phi)
    assert np.array_equal(cov.matrix, cov.matrix.T)


def test_rank_one_update_matches_batch_oracle():
    rng = np.random.default_rng(5)
    d, n, lam, alpha = 5, 100, 0.7, 0.3
    features = _random_unit_vectors(rng, n, d)
    cov = RegularizedCovariance(d, lam, alpha)
    for phi in features:
        cov.rank_one_update(phi)
    oracle = lam * np.eye(d) + alpha * features.T @ features
    assert np.allclose(cov.matrix, oracle, rtol=1e-9, atol=0.0)


def test_norm_gate_rejects_long_features():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        cov.rank_one_update(np.array([1.1, 0.0]))
    uncapped = RegularizedCovariance(2, 1.0, 1.0, norm_cap=None)
    uncapped.rank_one_update(np.array([3.0, 4.0]))
    assert np.array_equal(uncapped.matrix, [[10.0, 12.0], [12.0, 17.0]])


def test_update_rejects_non_finite():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        cov.rank_one_update(np.array([np.nan, 0.0]))


def test_mahalanobis_identity():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    assert cov.mahalanobis(np.array([1.0, 0.0])) == pytest.approx(1.0, rel=1e-12)


def test_mahalanobis_diagonal():
    snap = snapshot_of(np.diag([4.0, 1.0]))
    assert snap.mahalanobis(np.array([2.0, 0.0])) == pytest.approx(1.0, rel=1e-12)


def test_mahalanobis_matches_dense_solve_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        base = rng.normal(size=(6, 6))
        spd = base @ base.T + 6 * np.eye(6)
        snap = snapshot_of(spd)
        x = rng.normal(size=6)
        oracle = math.sqrt(float(x @ np.linalg.solve(spd, x)))
        assert snap.mahalanobis(x) == pytest.approx(oracle, rel=1e-10)


def test_mahalanobis_bounded_by_euclidean_over_sqrt_lambda():
    rng = np.random.default_rng(12)
    lam = 2.5
    cov = RegularizedCovariance(4, lam, 1.0)
    for phi in _random_unit_vectors(rng, 50, 4):
        cov.rank_one_update(phi)
    for _ in range(20):
        x = rng.normal(size=4)
        assert cov.mahalanobis(x) <= np.linalg.norm(x) / math.sqrt(lam) + 1e-12


def test_det_ratio_of_unchanged_state_is_one():
    cov = RegularizedCovariance(3, 2.0, 1.0)
    snap = cov.snapshot()
    assert math.exp(cov.log_det() - snap.log_det) == pytest.approx(1.0, rel=1e-14)


def test_det_ratio_after_basis_update():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    cov.rank_one_update(np.array([1.0, 0.0]))
    assert math.exp(cov.log_det() - snap.log_det) == pytest.approx(2.0, rel=1e-12)


def test_det_ratio_matches_direct_determinant_oracle():
    rng = np.random.default_rng(13)
    cov = RegularizedCovariance(4, 1.0, 0.8)
    snap = cov.snapshot()
    for phi in _random_unit_vectors(rng, 50, 4):
        cov.rank_one_update(phi)
    oracle = np.linalg.det(cov.matrix) / np.linalg.det(snap.factor @ snap.factor.T)
    assert math.exp(cov.log_det() - snap.log_det) == pytest.approx(oracle, rel=1e-8)


def test_snapshots_are_psd_ordered_and_norms_shrink():
    rng = np.random.default_rng(14)
    cov = RegularizedCovariance(5, 1.0, 1.0)
    snapshots = [cov.snapshot()]
    for count, phi in enumerate(_random_unit_vectors(rng, 120, 5), start=1):
        cov.rank_one_update(phi)
        if count % 30 == 0:
            snapshots.append(cov.snapshot())
    probes = rng.normal(size=(10, 5))
    for earlier, later in zip(snapshots, snapshots[1:]):
        gap = later.factor @ later.factor.T - earlier.factor @ earlier.factor.T
        assert np.linalg.eigvalsh(gap).min() >= -1e-8
        for x in probes:
            assert later.mahalanobis(x) <= earlier.mahalanobis(x) + 1e-8


def test_max_det_ratio_under_doubling_schedule():
    # Doubling rule plus lambda >= 1 and unit-ball features keeps the
    # current/snapshot determinant ratio at or below 4.
    rng = np.random.default_rng(15)
    for d in (2, 4):
        cov = RegularizedCovariance(d, 1.0, 1.0)
        snap = cov.snapshot()
        worst = 1.0
        for phi in _random_unit_vectors(rng, 400, d):
            if math.exp(cov.log_det() - snap.log_det) > 2.0:
                snap = cov.snapshot()
            cov.rank_one_update(phi)
            worst = max(worst, math.exp(cov.log_det() - snap.log_det))
        assert worst <= 4.0 + 1e-9


def test_matrix_stays_symmetric_and_positive():
    rng = np.random.default_rng(16)
    cov = RegularizedCovariance(6, 0.9, 0.4)
    for phi in _random_unit_vectors(rng, 200, 6):
        cov.rank_one_update(phi)
    assert np.abs(cov.matrix - cov.matrix.T).max() <= 1e-10
    assert np.linalg.eigvalsh(cov.matrix).min() >= 0.9 - 1e-8


def test_snapshot_matrices_are_immutable():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    with pytest.raises(ValueError):
        snap.factor[0, 0] = 5.0
    with pytest.raises(AttributeError):
        snap.factor = np.eye(2)
    # A snapshot keeps its factor only; the writer's later updates and
    # refactorizations leave it untouched.
    assert not hasattr(snap, "matrix")
    before = snap.factor.copy()
    cov.rank_one_update(np.array([0.6, 0.8]))
    cov.log_det()
    assert np.array_equal(snap.factor, before)


def test_snapshot_from_matrix_round_trip():
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    snap = snapshot_of(spd)
    assert np.allclose(snap.factor @ snap.factor.T, spd, rtol=1e-12, atol=0.0)
    assert math.exp(snap.log_det) == pytest.approx(np.linalg.det(spd), rel=1e-12)
    x = np.array([0.3, -0.7])
    oracle = math.sqrt(float(x @ np.linalg.solve(spd, x)))
    assert snap.mahalanobis(x) == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 300), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_mahalanobis_rows_equals_solve_triangular_bit_for_bit(d, n, seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(d, d))
    chol = np.linalg.cholesky(base @ base.T + d * np.eye(d))
    rows = rng.normal(size=(n, d))
    y = solve_triangular(chol, rows.T, lower=True, check_finite=False)
    expected = np.sqrt(np.einsum("ij,ij->j", y, y))
    assert np.array_equal(_mahalanobis_rows(chol, rows), expected)


def test_mahalanobis_rows_singular_factor_raises():
    chol = np.array([[1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        _mahalanobis_rows(chol, np.ones((3, 2)))


def test_mahalanobis_rows_of_no_rows_is_empty():
    cov = RegularizedCovariance(3, 1.0, 1.0)
    for owner in (cov, cov.snapshot()):
        norms = owner.mahalanobis_rows(np.zeros((0, 3)))
        assert norms.shape == (0,)


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    original = np.linalg.cholesky

    def counted(matrix):
        calls.append(matrix.shape[0])
        return original(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_growth_bound_skips_the_exact_test_without_factoring(cholesky_calls):
    cov = RegularizedCovariance(3, 1.0, 1.0)
    snap = cov.snapshot()
    phi = np.array([0.3, 0.0, 0.0])
    cov.rank_one_update(phi, snap.mahalanobis(phi))
    assert not cov.doubled_since(snap)
    assert cholesky_calls == []
    # Same answer as the exact test, which factors.
    assert cov.log_det() - snap.log_det <= math.log(2.0)
    assert cholesky_calls == [3]


def test_growth_bound_unknown_falls_back_to_exact_test(cholesky_calls):
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    phi = np.array([0.1, 0.0])
    cov.rank_one_update(phi, snap.mahalanobis(phi))
    cov.rank_one_update(phi)  # no snapshot norm: the bound is unknown
    assert not cov.doubled_since(snap)
    assert cholesky_calls == [2]
    # A snapshot this object did not take last is never screened.
    other = RegularizedCovariance(2, 1.0, 1.0)
    older = other.snapshot()
    newest = other.snapshot()
    other.rank_one_update(phi, newest.mahalanobis(phi))
    assert not other.doubled_since(newest)
    assert cholesky_calls == [2]
    assert not other.doubled_since(older)
    assert cholesky_calls == [2, 2]


def test_growth_bound_resets_at_each_snapshot():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    phi = np.array([0.8, 0.0])
    for _ in range(3):
        cov.rank_one_update(phi, snap.mahalanobis(phi))
    assert cov.doubled_since(snap)
    snap = cov.snapshot()
    cov.rank_one_update(phi, snap.mahalanobis(phi))
    assert cov._growth_bound == pytest.approx(math.log1p(snap.mahalanobis(phi) ** 2))
    assert cov._growth_bound < math.log(2.0) - GROWTH_SLACK


def test_knife_edge_basis_update_runs_the_exact_test(cholesky_calls):
    # lambda = alpha = 1 and a fresh basis vector multiply the determinant
    # by exactly 2: the bound is log1p(1) = log 2, so it cannot screen, and
    # the exact test decides (its rounding lands just above log 2).
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    e1 = np.array([1.0, 0.0])
    cov.rank_one_update(e1, snap.mahalanobis(e1))
    assert cov._growth_bound == math.log(2.0)
    assert cov.doubled_since(snap)
    assert cholesky_calls == [2]


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 30),
    n=st.integers(1, 40),
    lam=st.sampled_from([0.05, 0.5, 1.0, 5.0, 100.0]),
    alpha=st.floats(0.01, 1.0),
    with_norms=st.booleans(),
    chunk=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_updates_equal_sequential_rank_one_updates(d, n, lam, alpha, with_norms, chunk,
                                                           seed):
    # One rank_one_updates call adds what one rank_one_update per row adds,
    # in matrix bytes, growth bound and the factor after it. With snapshot
    # norms it stops after the first row that leaves the bound at or above
    # the screen, as a caller testing doubled_since before each step would.
    rng = np.random.default_rng(seed)
    rows = _random_unit_vectors(rng, n, d)
    batched = RegularizedCovariance(d, lam, alpha)
    sequential = RegularizedCovariance(d, lam, alpha)
    warm = _random_unit_vectors(rng, 3, d)
    for cov in (batched, sequential):
        cov.rank_one_update(warm[0])
        cov.snapshot()
        cov.rank_one_update(warm[1], 0.25)
    snap = sequential.snapshot()
    batched_snap = batched.snapshot()
    norms = snap.mahalanobis_rows(rows) if with_norms else None
    capped = covariance_module._block_rows if chunk is None else (lambda d: chunk)
    with mock.patch.object(covariance_module, "_block_rows", capped):
        count = batched.rank_one_updates(rows, norms)

    oracle = sequential.matrix.copy()
    expected = 0
    for k, phi in enumerate(rows):
        sequential.rank_one_update(phi, None if norms is None else norms[k])
        outer = phi[:, None] * phi
        outer *= alpha
        oracle += outer
        expected += 1
        if norms is not None and not sequential._growth_bound < math.log(2.0) - GROWTH_SLACK:
            break
    assert count == expected
    assert batched.matrix.tobytes() == sequential.matrix.tobytes() == oracle.tobytes()
    assert batched._growth_bound == sequential._growth_bound
    assert batched.factor().tobytes() == sequential.factor().tobytes()
    assert batched.doubled_since(batched_snap) == sequential.doubled_since(snap)


def test_batched_updates_gate_every_row_they_add():
    cov = RegularizedCovariance(3, 1.0, 1.0)
    before = cov.matrix.copy()
    rows = np.array([[0.6, 0.8, 0.0], [1.1, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ContractViolation):
        cov.rank_one_updates(rows)
    with pytest.raises(ContractViolation):
        cov.rank_one_updates(np.array([[0.0, 0.5, 0.0], [np.inf, 0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        cov.rank_one_updates(np.zeros((2, 2)))
    # A NaN row clears the norm gate; the finiteness check rejects it, with
    # or without a cap.
    for gated in (cov, RegularizedCovariance(3, 1.0, 1.0, norm_cap=None)):
        with pytest.raises(ContractViolation):
            gated.rank_one_updates(np.array([[0.0, 0.5, 0.0], [np.nan, 0.0, 0.0]]))
        assert gated.matrix.tobytes() == before.tobytes()
    # A row a hair inside the cap's tolerance passes, one a hair outside fails.
    inside = np.array([[1.0 + 0.5e-9, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert cov.rank_one_updates(inside) == 2
    with pytest.raises(ContractViolation):
        cov.rank_one_updates(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0 + 2e-9]]))
    # The screen stops the block, so a bad row after the stop is not looked at.
    cov.snapshot()
    e1 = np.array([1.0, 0.0, 0.0])
    stopped = np.array([e1, [5.0, 0.0, 0.0]])
    assert cov.rank_one_updates(stopped, [10.0, 10.0]) == 1
    assert not cov._growth_bound < math.log(2.0) - GROWTH_SLACK
    assert cov.rank_one_updates(np.zeros((0, 3)), []) == 0


def _grouped_blocks(contexts, d, block_floats):
    """The grouping by action count written out one context at a time."""
    by_actions = {}
    for i, context in enumerate(contexts):
        by_actions.setdefault(context.n_actions, []).append(i)
    for n_actions, indices in by_actions.items():
        step = max(1, block_floats // (n_actions * d))
        for start in range(0, len(indices), step):
            block = indices[start:start + step]
            yield block, np.stack([contexts[i].features for i in block])


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 12),
    action_counts=st.lists(st.integers(1, 6), min_size=1, max_size=30),
    uniform=st.booleans(),
    block_floats=st.sampled_from([1, 7, 64, covariance_module._BLOCK_FLOATS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_context_blocks_keep_the_grouping_and_chunk_boundaries(d, action_counts, uniform,
                                                               block_floats, seed):
    if uniform:
        action_counts = [action_counts[0]] * len(action_counts)
    rng = np.random.default_rng(seed)
    contexts = [Context(f"c{i}", rng.normal(size=(a, d))) for i, a in enumerate(action_counts)]
    with mock.patch.object(covariance_module, "_BLOCK_FLOATS", block_floats):
        blocks = list(_context_blocks(contexts, d))
    expected = list(_grouped_blocks(contexts, d, block_floats))
    assert len(blocks) == len(expected)
    for (position, features), (indices, stacked) in zip(blocks, expected):
        assert np.arange(len(contexts))[position].tolist() == indices
        assert features.shape == stacked.shape
        assert features.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("shapes", [[(2, 3), (2, 3)], [(2, 2), (1, 3)]], ids=["uniform", "mixed"])
def test_context_blocks_reject_a_foreign_dimension(shapes):
    contexts = [Context(f"c{i}", np.ones(shape)) for i, shape in enumerate(shapes)]
    with pytest.raises(ContractViolation, match="context dimension 3 != 2"):
        list(_context_blocks(contexts, 2))
