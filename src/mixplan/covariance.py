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
Callers that already hold u pass it with the update; while the sum of
those terms stays below log 2 minus ``GROWTH_SLACK``, the determinant
cannot have doubled and no factorization is needed.

``rank_one_updates`` adds a block of rows in step order, bit for bit as one
``rank_one_update`` per row would. Given the rows' snapshot norms it stops
after the first row that leaves the growth bound at or above that screen,
so the caller runs the exact ``doubled_since`` test before the next step:
a planner can choose a whole block of steps against one snapshot and still
take the snapshots that an exact test at every step would take.

Triangular solves call LAPACK ``dtrtrs`` from ``mixplan._lapack``, SciPy's
compiled LAPACK loaded without importing ``scipy.linalg``; factorizations
use ``np.linalg.cholesky``.

``RegularizedCovariance`` is single-writer; hand out ``CovarianceSnapshot``
objects (immutable) for concurrent readers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._lapack import dtrtrs
from .core import ConfigurationError, Context, ContractViolation

#: Absolute slack on the feature-norm gate.
NORM_TOLERANCE = 1e-9

#: Margin below log 2 that the log-determinant growth bound must keep for
#: ``doubled_since`` to skip the exact test. It covers the rounding of the
#: bound and of the two computed log-determinants (about d * M * eps).
GROWTH_SLACK = 1e-6

_LOG2 = math.log(2.0)

#: A growth bound below this clears the screen of ``doubled_since``.
_SCREEN = _LOG2 - GROWTH_SLACK

#: Floats one stacked block of work may hold (2**16 float64, 512 KiB): the
#: d x d terms of a block of updates, and the stacked feature rows of a
#: block of contexts (``_context_blocks``) that one solve scores.
_BLOCK_FLOATS = 1 << 16


def _block_rows(d: int) -> int:
    """The most rows whose d x d outer products fit in ``_BLOCK_FLOATS``."""
    return max(1, _BLOCK_FLOATS // (d * d))


def _add_outer_products(matrix: np.ndarray, rows: np.ndarray, scale: float) -> None:
    """``matrix += scale * phi phi^T`` for each row phi, in row order and in
    place, bit for bit as one ``outer = phi[:, None] * phi; outer *= scale;
    matrix += outer`` per row.

    scale * phi_i * phi_j is bit-for-bit symmetric, so a symmetric matrix
    stays exactly symmetric. Scaling a finite product by 1.0 changes no bit,
    so that pass is skipped. The products of a block of rows are formed in
    one stacked multiply and then added one at a time, in row order. All
    blocks of a call share one buffer: at d = 300, a fresh product array per
    block of a short phase made the policy replay fault in new pages and run
    about 20 % slower.
    """
    d = matrix.shape[0]
    step = _block_rows(d)
    work = np.empty((min(len(rows), step), d, d))
    for first in range(0, len(rows), step):
        block = rows[first:first + step]
        terms = np.multiply(block[:, :, None], block[:, None, :], out=work[:len(block)])
        if scale != 1.0:
            terms *= scale
        for term in terms:
            matrix += term


def _context_blocks(contexts: Sequence[Context], d: int):
    """Yield (position, features): contexts with the same action count A,
    their feature rows stacked into a (g, A, d) array of about
    ``_BLOCK_FLOATS`` floats.

    ``position`` says where the block's contexts sit in ``contexts``: a
    slice when all contexts have one action count (every block is then a
    contiguous run, and no per-context grouping is needed), otherwise an
    index array.
    """
    shapes = {context.features.shape for context in contexts}
    if len(shapes) == 1:
        ((n_actions, context_d),) = shapes
        if context_d != d:
            raise ContractViolation(f"context dimension {context_d} != {d}")
        step = max(1, _BLOCK_FLOATS // (n_actions * d))
        for start in range(0, len(contexts), step):
            chunk = contexts[start:start + step]
            g = len(chunk)
            yield (slice(start, start + g),
                   np.concatenate([c.features for c in chunk]).reshape(g, n_actions, d))
        return
    by_actions: dict[int, list[int]] = {}
    for i, context in enumerate(contexts):
        if context.d != d:
            raise ContractViolation(f"context dimension {context.d} != {d}")
        by_actions.setdefault(context.n_actions, []).append(i)
    for n_actions, indices in by_actions.items():
        step = max(1, _BLOCK_FLOATS // (n_actions * d))
        for start in range(0, len(indices), step):
            block = indices[start:start + step]
            yield np.array(block, dtype=np.intp), np.stack([contexts[i].features for i in block])


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


def _check_vector(x: np.ndarray, d: int) -> np.ndarray:
    """``x`` as a one-row matrix, after checking it is a finite d-vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ContractViolation(f"expected vector of length {d}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolation("non-finite entries in vector")
    return x[None, :]


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
    Cholesky factor L (the matrix is L L^T) and the log-determinant.
    Snapshots taken later dominate earlier ones in the PSD order,
    because the underlying matrix only ever gains positive semi-definite
    rank-one terms. Consequently inverse-metric norms can only shrink from
    one snapshot to the next.
    """

    __slots__ = ("_chol", "log_det")

    def __init__(self, chol: np.ndarray, log_det: float):
        # A read-only factor, such as the writer's own, is kept as is: at
        # d = 300 a copy per snapshot cost a few per cent of a plan.
        chol = np.asarray(chol, dtype=np.float64)
        if chol.flags.writeable:
            chol = chol.copy()
            chol.setflags(write=False)
        self._chol = chol
        self.log_det = float(log_det)

    @property
    def factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor of the frozen matrix."""
        return self._chol

    @property
    def d(self) -> int:
        return self._chol.shape[0]

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt(x^T Sigma^{-1} x) via a triangular solve against the frozen factor."""
        return float(_mahalanobis_rows(self._chol, _check_vector(x, self.d))[0])

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
        self._chol = np.eye(self.d) * math.sqrt(self.lambda_reg)
        self._chol.setflags(write=False)
        self._dirty = False
        self._last_snapshot: CovarianceSnapshot | None = None
        # Upper bound on the log-determinant growth since _last_snapshot;
        # infinite once an update arrives without its snapshot norm.
        self._growth_bound = math.inf

    @classmethod
    def from_state(cls, matrix: np.ndarray, lambda_reg: float) -> "RegularizedCovariance":
        """Rebuild a cumulative covariance (alpha = 1, no norm gate) from its
        matrix, regularization included; the matrix is symmetrized as
        (M + M^T) / 2 and factored on first use."""
        matrix = np.asarray(matrix, dtype=np.float64)
        cov = cls(matrix.shape[0], lambda_reg, 1.0, norm_cap=None)
        cov.matrix = (matrix + matrix.T) * 0.5
        cov._dirty = True
        return cov

    def factor(self) -> np.ndarray:
        """Current lower Cholesky factor, refreshed lazily after updates.

        It is read-only and never written in place, so snapshots share it.
        """
        if self._dirty:
            self._chol = np.linalg.cholesky(self.matrix)
            self._chol.setflags(write=False)
            self._dirty = False
        return self._chol

    def _gate(self, rows: np.ndarray) -> None:
        """Reject rows longer than the norm cap."""
        if self.norm_cap is None:
            return
        limit = self.norm_cap + NORM_TOLERANCE
        # A vectorized squared norm can differ from phi.dot(phi) in its last
        # bits, so rows anywhere near the cap take the per-row arithmetic
        # (np.linalg.norm's) that decides.
        if len(rows) > 1:
            rows = rows[np.einsum("ij,ij->i", rows, rows) > (limit * (1.0 - 1e-6)) ** 2]
        for phi in rows:
            norm = math.sqrt(float(phi.dot(phi)))
            if norm > limit:
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
        phi = _check_vector(feature, self.d)
        bound = math.inf
        if snapshot_norm is not None:
            u = float(snapshot_norm)
            bound = self._growth_bound + math.log1p(self.alpha * u * u)
        self._add_rows(phi, bound)
        return self

    def rank_one_updates(self, rows: np.ndarray, snapshot_norms: np.ndarray | None = None) -> int:
        """Add alpha * phi phi^T for each row phi of ``rows``, in order and
        bit for bit as adding them one at a time; return how many rows were
        added.

        Without ``snapshot_norms`` every row is added and the growth bound
        becomes unknown. With them (each row's norm against the last
        snapshot this object took), rows are added up to and including the
        first one after which the growth bound no longer clears the screen
        of ``doubled_since``; the caller runs that test before the next step.
        Only the rows added are checked, so a caller may hand over the rest
        of a block at every step.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise ContractViolation(f"expected rows of shape (n, {self.d}), got {rows.shape}")
        if snapshot_norms is None:
            count, bound = len(rows), math.inf
        else:
            count, bound = 0, self._growth_bound
            for u in snapshot_norms:
                u = float(u)
                bound += math.log1p(self.alpha * u * u)
                count += 1
                if not bound < _SCREEN:
                    break
        if count == 0:
            return 0
        rows = rows[:count]
        if not np.isfinite(rows).all():
            raise ContractViolation("non-finite entries in feature rows")
        self._add_rows(rows, bound)
        return count

    def _add_rows(self, rows: np.ndarray, bound: float) -> None:
        """Gate and add checked rows; ``bound`` is the growth bound after them."""
        self._gate(rows)
        _add_outer_products(self.matrix, rows, self.alpha)
        self._dirty = True
        self._growth_bound = bound

    def log_det(self) -> float:
        chol = self.factor()
        return 2.0 * float(np.sum(np.log(np.diag(chol))))

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt(x^T Sigma^{-1} x) against the current matrix."""
        return float(_mahalanobis_rows(self.factor(), _check_vector(x, self.d))[0])

    def mahalanobis_rows(self, rows: np.ndarray) -> np.ndarray:
        return _mahalanobis_rows(self.factor(), _check_rows(rows, self.d))

    def snapshot(self) -> CovarianceSnapshot:
        """Freeze the current state. Later snapshots PSD-dominate earlier ones."""
        snap = CovarianceSnapshot(self.factor(), self.log_det())
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
        if snapshot is self._last_snapshot and self._growth_bound < _SCREEN:
            return False
        return self.log_det() - snapshot.log_det > _LOG2
