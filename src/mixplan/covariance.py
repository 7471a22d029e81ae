"""Regularized cumulative covariance with scaled rank-one updates.

The matrix maintained here is lambda_reg * I + alpha * sum_j phi_j phi_j^T.
Its inverse metric defines the uncertainty score driving both phases of the
pipeline. All inverse applications go through a Cholesky factorization and
triangular solves; the inverse itself is never formed. Determinants are
tracked in log space so that d = 300 with tens of thousands of updates
cannot overflow.

The writer keeps the raw matrix current after every update and refreshes
the factorization lazily, the first time a determinant or norm is needed.
``RegularizedCovariance`` is single-writer; hand out ``CovarianceSnapshot``
objects (immutable) for concurrent readers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .core import ConfigurationError, ContractViolation

#: Absolute slack on the feature-norm gate.
NORM_TOLERANCE = 1e-9

_LOG2 = math.log(2.0)


def _mahalanobis_rows(chol_lower: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(x^T Sigma^{-1} x) given the lower Cholesky factor of Sigma."""
    y = solve_triangular(chol_lower, rows.T, lower=True, check_finite=False)
    return np.sqrt(np.einsum("ij,ij->j", y, y))


def _check_rows(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ContractViolation(f"expected rows of shape (n, {d}), got {rows.shape}")
    if not np.isfinite(rows).all():
        raise ContractViolation("non-finite entries in feature rows")
    return rows


class CovarianceSnapshot:
    """Immutable covariance state frozen at a switch point.

    A snapshot keeps only what its readers use: the read-only lower
    Cholesky factor L (the matrix is L L^T), the log-determinant and its
    index. Snapshots taken later dominate earlier ones in the PSD order,
    because the underlying matrix only ever gains positive semi-definite
    rank-one terms. Consequently inverse-metric norms can only shrink from
    one snapshot to the next.
    """

    __slots__ = ("_chol", "log_det", "snapshot_index")

    def __init__(self, chol: np.ndarray, log_det: float, snapshot_index: int):
        chol = np.array(chol, dtype=np.float64)
        chol.setflags(write=False)
        self._chol = chol
        self.log_det = float(log_det)
        self.snapshot_index = int(snapshot_index)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, snapshot_index: int = 0) -> "CovarianceSnapshot":
        chol = np.linalg.cholesky(np.asarray(matrix, dtype=np.float64))
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return cls(chol, log_det, snapshot_index)

    @property
    def factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor of the frozen matrix."""
        return self._chol

    @property
    def d(self) -> int:
        return self._chol.shape[0]

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt(x^T Sigma^{-1} x) via a triangular solve against the frozen factor."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ContractViolation(f"expected vector of length {self.d}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ContractViolation("non-finite entries in vector")
        return float(_mahalanobis_rows(self._chol, x[None, :])[0])

    def mahalanobis_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized ``mahalanobis`` over the rows of an (n, d) matrix."""
        return _mahalanobis_rows(self._chol, _check_rows(rows, self.d))


class RegularizedCovariance:
    """lambda_reg * I + alpha * sum of phi phi^T with factorization-backed queries.

    Features whose Euclidean norm exceeds ``norm_cap`` (default 1) are
    rejected rather than silently normalized; normalization is an ingestion
    concern. Pass ``norm_cap=None`` for instances whose feature law is
    unbounded (see the synthetic environment).
    """

    def __init__(self, d: int, lambda_reg: float, alpha: float = 1.0,
                 norm_cap: float | None = 1.0):
        if d < 1:
            raise ConfigurationError("dimension must be at least 1")
        if not lambda_reg > 0:
            raise ConfigurationError("lambda_reg must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        if norm_cap is not None and norm_cap <= 0:
            raise ConfigurationError("norm_cap must be positive or None")
        self.d = int(d)
        self.lambda_reg = float(lambda_reg)
        self.alpha = float(alpha)
        self.norm_cap = norm_cap
        self.matrix = np.eye(self.d) * self.lambda_reg
        self.update_count = 0
        self._chol = np.eye(self.d) * math.sqrt(self.lambda_reg)
        self._dirty = False
        self._snapshots_taken = 0

    @classmethod
    def from_state(cls, matrix: np.ndarray, lambda_reg: float, alpha: float = 1.0,
                   update_count: int = 0,
                   norm_cap: float | None = None) -> "RegularizedCovariance":
        """Rebuild a covariance from a serialized matrix (regularization included)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        cov = cls(matrix.shape[0], lambda_reg, alpha, norm_cap=norm_cap)
        cov.matrix = (matrix + matrix.T) * 0.5
        cov.update_count = int(update_count)
        cov._dirty = True
        return cov

    def factor(self) -> np.ndarray:
        """Current lower Cholesky factor, refreshed lazily after updates."""
        if self._dirty:
            self._chol = np.linalg.cholesky(self.matrix)
            self._dirty = False
        return self._chol

    def _gate(self, phi: np.ndarray) -> None:
        if not np.isfinite(phi).all():
            raise ContractViolation("non-finite feature vector")
        if self.norm_cap is not None:
            norm = float(np.linalg.norm(phi))
            if norm > self.norm_cap + NORM_TOLERANCE:
                raise ContractViolation(
                    f"feature norm {norm:.6g} exceeds cap {self.norm_cap:.6g}; "
                    "rescale at ingestion instead"
                )

    def rank_one_update(self, feature: np.ndarray) -> "RegularizedCovariance":
        """Add alpha * phi phi^T. The new matrix dominates the old in PSD order."""
        phi = np.asarray(feature, dtype=np.float64)
        if phi.shape != (self.d,):
            raise ContractViolation(f"expected vector of length {self.d}, got shape {phi.shape}")
        self._gate(phi)
        # alpha * phi_i * phi_j is bit-for-bit symmetric, so the in-place
        # sum stays exactly symmetric without a symmetrizing copy.
        self.matrix += self.alpha * np.outer(phi, phi)
        self.update_count += 1
        self._dirty = True
        return self

    def rank_one_update_many(self, features: np.ndarray) -> "RegularizedCovariance":
        """Bulk equivalent of repeated ``rank_one_update`` (same gate per row)."""
        rows = _check_rows(features, self.d)
        if rows.shape[0] == 0:
            return self
        if self.norm_cap is not None:
            norms = np.linalg.norm(rows, axis=1)
            worst = float(norms.max())
            if worst > self.norm_cap + NORM_TOLERANCE:
                raise ContractViolation(
                    f"feature norm {worst:.6g} exceeds cap {self.norm_cap:.6g}; "
                    "rescale at ingestion instead"
                )
        self.matrix = self.matrix + self.alpha * (rows.T @ rows)
        self.matrix = (self.matrix + self.matrix.T) * 0.5
        self.update_count += rows.shape[0]
        self._dirty = True
        return self

    def log_det(self) -> float:
        chol = self.factor()
        return 2.0 * float(np.sum(np.log(np.diag(chol))))

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt(x^T Sigma^{-1} x) against the current matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ContractViolation(f"expected vector of length {self.d}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ContractViolation("non-finite entries in vector")
        return float(_mahalanobis_rows(self.factor(), x[None, :])[0])

    def mahalanobis_rows(self, rows: np.ndarray) -> np.ndarray:
        return _mahalanobis_rows(self.factor(), _check_rows(rows, self.d))

    def snapshot(self) -> CovarianceSnapshot:
        """Freeze the current state. Later snapshots PSD-dominate earlier ones."""
        snap = CovarianceSnapshot(self.factor(), self.log_det(), self._snapshots_taken)
        self._snapshots_taken += 1
        return snap

    def doubled_since(self, snapshot: CovarianceSnapshot | None) -> bool:
        """The doubling rule: True when there is no snapshot yet or the
        determinant has more than doubled since ``snapshot`` was taken."""
        return snapshot is None or self.log_det() - snapshot.log_det > _LOG2

    def det_ratio(self, snapshot: CovarianceSnapshot) -> float:
        """det(current) / det(snapshot), computed from log determinants."""
        if snapshot.d != self.d:
            raise ContractViolation("snapshot dimension mismatch")
        return math.exp(self.log_det() - snapshot.log_det)
