"""Regularized cumulative covariance with scaled rank-one updates.

The matrix maintained here is lambda_reg * I + alpha * sum_j phi_j phi_j^T.
Its inverse metric defines the uncertainty score driving both phases of the
pipeline. All inverse applications go through a Cholesky factorization and
triangular solves; the inverse itself is never formed. Determinants are
tracked in log space so that d = 300 with tens of thousands of updates
cannot overflow.

The writer keeps the raw matrix current after every update and refreshes
the factorization lazily, the first time a determinant or norm is needed.
A factorization therefore happens at a snapshot, at a direct query, and
at an exact doubling test, but not at an update. ``doubled_since`` runs the
exact test only when a free bound cannot rule it out: by the matrix
determinant lemma, an update by phi raises the log-determinant by
log1p(alpha * phi^T Sigma^{-1} phi), which is at most log1p(alpha * u^2)
with u the norm of phi against the last snapshot (Sigma dominates it).
Callers that already hold u pass it to ``rank_one_update``; while the sum
of those terms stays below log 2 minus ``GROWTH_SLACK``, the determinant
cannot have doubled and no factorization is needed.

``RegularizedCovariance`` is single-writer; hand out ``CovarianceSnapshot``
objects (immutable) for concurrent readers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .core import ConfigurationError, ContractViolation

#: Absolute slack on the feature-norm gate.
NORM_TOLERANCE = 1e-9

#: Margin below log 2 that the log-determinant growth bound must keep for
#: ``doubled_since`` to skip the exact test. It covers the rounding of the
#: bound and of the two computed log-determinants (about d * M * eps).
GROWTH_SLACK = 1e-6

_LOG2 = math.log(2.0)


def _mahalanobis_rows(chol_lower: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(x^T Sigma^{-1} x) given the C-ordered lower Cholesky
    factor of Sigma.

    This is the LAPACK call ``solve_triangular`` makes for such a factor
    (its transpose is a Fortran-ordered upper factor, solved transposed),
    without the wrapper's validation and copies.
    """
    y, info = dtrtrs(chol_lower.T, rows.T, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
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
        self._last_snapshot: CovarianceSnapshot | None = None
        # Upper bound on the log-determinant growth since _last_snapshot;
        # infinite once an update arrives without its snapshot norm.
        self._growth_bound = math.inf

    @classmethod
    def from_state(cls, matrix: np.ndarray, lambda_reg: float,
                   update_count: int = 0) -> "RegularizedCovariance":
        """Rebuild a cumulative covariance (alpha = 1, no norm gate) from its
        matrix, regularization included; the matrix is symmetrized as
        (M + M^T) / 2 and factored on first use."""
        matrix = np.asarray(matrix, dtype=np.float64)
        cov = cls(matrix.shape[0], lambda_reg, 1.0, norm_cap=None)
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
            norm = math.sqrt(float(phi.dot(phi)))  # np.linalg.norm's arithmetic
            if norm > self.norm_cap + NORM_TOLERANCE:
                raise ContractViolation(
                    f"feature norm {norm:.6g} exceeds cap {self.norm_cap:.6g}; "
                    "rescale at ingestion instead"
                )

    def rank_one_update(self, feature: np.ndarray,
                        snapshot_norm: float | None = None) -> "RegularizedCovariance":
        """Add alpha * phi phi^T. The new matrix dominates the old in PSD order.

        ``snapshot_norm`` is phi's norm against the last snapshot this object
        took, if the caller has it; it lets ``doubled_since`` skip the exact
        test (see the module docstring).
        """
        phi = np.asarray(feature, dtype=np.float64)
        if phi.shape != (self.d,):
            raise ContractViolation(f"expected vector of length {self.d}, got shape {phi.shape}")
        self._gate(phi)
        # alpha * phi_i * phi_j is bit-for-bit symmetric, so the in-place
        # sum stays exactly symmetric without a symmetrizing copy.
        outer = phi[:, None] * phi
        outer *= self.alpha
        self.matrix += outer
        self.update_count += 1
        self._dirty = True
        if snapshot_norm is None:
            self._growth_bound = math.inf
        else:
            u = float(snapshot_norm)
            self._growth_bound += math.log1p(self.alpha * u * u)
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
        self._last_snapshot = snap
        self._growth_bound = 0.0
        return snap

    def doubled_since(self, snapshot: CovarianceSnapshot | None) -> bool:
        """The doubling rule: True when there is no snapshot yet or the
        determinant has more than doubled since ``snapshot`` was taken.

        When ``snapshot`` is the last one this object took and every update
        since came with its snapshot norm, a growth bound below log 2 minus
        ``GROWTH_SLACK`` answers False without factoring; otherwise the
        exact log-determinant test decides.
        """
        if snapshot is None:
            return True
        if snapshot is self._last_snapshot and self._growth_bound < _LOG2 - GROWTH_SLACK:
            return False
        return self.log_det() - snapshot.log_det > _LOG2

    def det_ratio(self, snapshot: CovarianceSnapshot) -> float:
        """det(current) / det(snapshot), computed from log determinants."""
        if snapshot.d != self.d:
            raise ContractViolation("snapshot dimension mismatch")
        return math.exp(self.log_det() - snapshot.log_det)
