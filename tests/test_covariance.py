import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from mixplan import ConfigurationError, ContractViolation, RegularizedCovariance
from mixplan.covariance import GROWTH_SLACK, CovarianceSnapshot, _mahalanobis_rows


def _random_unit_vectors(rng, count, d):
    vecs = rng.normal(size=(count, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * rng.uniform(0.0, 1.0, size=(count, 1))


def test_new_identity():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    assert np.array_equal(cov.matrix, np.eye(2))
    assert cov.update_count == 0


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
    assert cov.update_count == 1


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
    assert cov.update_count == n


def test_norm_gate_rejects_long_features():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        cov.rank_one_update(np.array([1.1, 0.0]))
    uncapped = RegularizedCovariance(2, 1.0, 1.0, norm_cap=None)
    uncapped.rank_one_update(np.array([3.0, 4.0]))
    assert uncapped.update_count == 1


def test_update_rejects_non_finite():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        cov.rank_one_update(np.array([np.nan, 0.0]))


def test_mahalanobis_identity():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    assert cov.mahalanobis(np.array([1.0, 0.0])) == pytest.approx(1.0, rel=1e-12)


def test_mahalanobis_diagonal():
    cov = RegularizedCovariance.from_state(np.diag([4.0, 1.0]), lambda_reg=1.0)
    assert cov.mahalanobis(np.array([2.0, 0.0])) == pytest.approx(1.0, rel=1e-12)


def test_mahalanobis_matches_dense_solve_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        base = rng.normal(size=(6, 6))
        spd = base @ base.T + 6 * np.eye(6)
        cov = RegularizedCovariance.from_state(spd, lambda_reg=1.0)
        x = rng.normal(size=6)
        oracle = math.sqrt(float(x @ np.linalg.solve(spd, x)))
        assert cov.mahalanobis(x) == pytest.approx(oracle, rel=1e-10)


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
    assert cov.det_ratio(snap) == pytest.approx(1.0, rel=1e-14)


def test_det_ratio_after_basis_update():
    cov = RegularizedCovariance(2, 1.0, 1.0)
    snap = cov.snapshot()
    cov.rank_one_update(np.array([1.0, 0.0]))
    assert cov.det_ratio(snap) == pytest.approx(2.0, rel=1e-12)


def test_det_ratio_matches_direct_determinant_oracle():
    rng = np.random.default_rng(13)
    cov = RegularizedCovariance(4, 1.0, 0.8)
    snap = cov.snapshot()
    for phi in _random_unit_vectors(rng, 50, 4):
        cov.rank_one_update(phi)
    oracle = np.linalg.det(cov.matrix) / np.linalg.det(snap.factor @ snap.factor.T)
    assert cov.det_ratio(snap) == pytest.approx(oracle, rel=1e-8)


def test_snapshots_are_psd_ordered_and_norms_shrink():
    rng = np.random.default_rng(14)
    cov = RegularizedCovariance(5, 1.0, 1.0)
    snapshots = [cov.snapshot()]
    for phi in _random_unit_vectors(rng, 120, 5):
        cov.rank_one_update(phi)
        if cov.update_count % 30 == 0:
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
            if cov.det_ratio(snap) > 2.0:
                snap = cov.snapshot()
            cov.rank_one_update(phi)
            worst = max(worst, cov.det_ratio(snap))
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
    snap = CovarianceSnapshot.from_matrix(spd)
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
