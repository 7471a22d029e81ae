"""Ridge extraction of the greedy policy and its evaluation.

Fits theta_hat by regularized least squares on an interaction dataset and
Monte-Carlo estimates the expected maximum uncertainty, policy value, and
suboptimality of the extracted greedy policy over a held-out context set. Every application of the inverse covariance goes
through a factorization solve.

The ridge solve calls LAPACK ``dpotrf`` and ``dpotrs`` directly, the two
calls ``scipy.linalg.cho_solve(cho_factor(m, lower=True), rhs)`` makes, from
``mixplan._lapack`` (SciPy's compiled LAPACK, loaded without importing
``scipy.linalg``). The checks those wrappers made are kept as typed errors:
a Gram matrix or right-hand side that overflows, or a Gram matrix that
cannot be factored, raises ``DataError``.

Evaluation runs in blocks: contexts with the same number of actions are
stacked into (g, A, d) arrays of about ``covariance._BLOCK_FLOATS`` floats
(``covariance._context_blocks``, which the planner shares), and each
block takes one stacked score product and one triangular solve (contexts
with a single action keep one solve each). Every output is bit-identical to
scoring and solving one context at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._lapack import dpotrf, dpotrs
from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContractViolation,
    DataError,
    InteractionDataset,
)
from .covariance import RegularizedCovariance, _context_blocks


@dataclass(frozen=True)
class RidgeEstimate:
    """Least-squares parameter estimate with its cumulative covariance (alpha = 1)."""

    theta_hat: np.ndarray
    sigma_prime_n: RegularizedCovariance
    n_samples: int

    @property
    def d(self) -> int:
        return len(self.theta_hat)


@dataclass(frozen=True)
class EvaluationReport:
    """Monte-Carlo evaluation of an estimate over a held-out context set."""

    expected_max_uncertainty: float
    expected_suboptimality: float
    policy_value: float
    n_eval_contexts: int
    suboptimality_stderr: float
    policy_value_stderr: float

    def to_json_dict(self, config_echo: Optional[dict] = None) -> dict:
        payload = {
            "expected_max_uncertainty": self.expected_max_uncertainty,
            "expected_suboptimality": self.expected_suboptimality,
            "policy_value": self.policy_value,
            "n_eval_contexts": self.n_eval_contexts,
            "suboptimality_stderr": self.suboptimality_stderr,
            "policy_value_stderr": self.policy_value_stderr,
        }
        if config_echo is not None:
            payload["config"] = dict(config_echo)
        return payload

    def to_json(self, config_echo: Optional[dict] = None) -> str:
        return json.dumps(self.to_json_dict(config_echo))


def ridge_fit(dataset: InteractionDataset, lambda_reg: float) -> RidgeEstimate:
    """Solve (Phi^T Phi + lambda I) theta = Phi^T r via a Cholesky solve.

    An empty dataset is allowed and yields theta_hat = 0, the ridge solution.
    """
    return ridge_fit_arrays(dataset.feature_matrix(), dataset.rewards(), lambda_reg)


def ridge_fit_arrays(features: np.ndarray, rewards: np.ndarray,
                     lambda_reg: float) -> RidgeEstimate:
    """``ridge_fit`` on an (n, d) feature matrix and its n rewards.

    Prefix slices ``features[:n]``, ``rewards[:n]`` of one stacked dataset
    give the same bits as ``ridge_fit`` on a dataset of its first n records.
    """
    if lambda_reg <= 0:
        raise ConfigurationError("lambda_reg must be positive")
    n, d = features.shape
    if n == 0:
        cov = RegularizedCovariance(d, lambda_reg, alpha=1.0, norm_cap=None)
        return RidgeEstimate(theta_hat=np.zeros(d), sigma_prime_n=cov, n_samples=0)
    if not np.isfinite(rewards).all():
        raise DataError("non-finite rewards in dataset")
    if not np.isfinite(features).all():
        raise DataError("non-finite features in dataset")
    # Finite features can still overflow the products; that is reported as
    # the DataError below, not as a RuntimeWarning from the matmul.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = RegularizedCovariance.from_state(lambda_reg * np.eye(d) + features.T @ features,
                                               lambda_reg)
        rhs = features.T @ rewards
    if not (np.isfinite(cov.matrix).all() and np.isfinite(rhs).all()):
        raise DataError("features too large: the ridge normal equations overflow")
    # The two LAPACK calls cho_solve(cho_factor(m, lower=True), rhs) makes.
    factor, info = dpotrf(cov.matrix, lower=1, clean=0)
    if info > 0:
        raise DataError(f"ridge Gram matrix is not positive definite (leading minor {info}); "
                        "the features are too large against lambda_reg")
    if info < 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
    theta, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return RidgeEstimate(theta_hat=theta, sigma_prime_n=cov, n_samples=n)


def greedy_action(estimate: RidgeEstimate, context: Context) -> int:
    """argmax over actions of phi^T theta_hat; ties break to the lowest index."""
    if context.d != estimate.d:
        raise ContractViolation(
            f"context dimension {context.d} != estimate dimension {estimate.d}"
        )
    scores = context.features @ estimate.theta_hat
    return int(np.argmax(scores))


def evaluate(estimate: RidgeEstimate, instance: BanditInstance,
             eval_contexts: Sequence[Context]) -> EvaluationReport:
    """Average per-context max uncertainty, suboptimality gap, and greedy value.

    Evaluation is noiseless: values and gaps are inner products with
    theta_star, so a perfectly estimated parameter yields zero gap exactly.
    """
    if instance.theta_star is None:
        raise ContractViolation(
            "evaluation against theta_star requires a linear instance"
        )
    theta_star = instance.theta_star
    return _evaluate_blocks(estimate, eval_contexts, lambda block, feats: feats @ theta_star)


def evaluate_values(estimate: RidgeEstimate, eval_contexts: Sequence[Context],
                    true_values: Sequence[np.ndarray]) -> EvaluationReport:
    """``evaluate`` against given true values: ``true_values[i]`` holds the
    value of every action of ``eval_contexts[i]`` (theta_star scores, or
    recorded relevance labels for a data-driven instance)."""
    return _evaluate_blocks(estimate, eval_contexts,
                            lambda block, feats: np.stack([true_values[i] for i in block]))


def _evaluate_blocks(estimate: RidgeEstimate, eval_contexts: Sequence[Context],
                     true_scores) -> EvaluationReport:
    """The evaluation loop of ``evaluate`` and ``evaluate_values``;
    ``true_scores(indices, features)`` gives a block's (g, A) true values."""
    if not eval_contexts:
        raise ConfigurationError("evaluation context set is empty")
    n = len(eval_contexts)
    gaps = np.empty(n)
    values = np.empty(n)
    uncertainties = np.empty(n)
    cov = estimate.sigma_prime_n
    for block, feats in _context_blocks(eval_contexts, estimate.d):
        g, n_actions, d = feats.shape
        # A stacked product scores each (A, d) matrix on its own, bit for bit
        # like one context at a time; a flattened (g*A, d) product does not.
        chosen = np.argmax(feats @ estimate.theta_hat, axis=1)
        true = true_scores(block, feats)
        values[block] = true[np.arange(g), chosen]
        gaps[block] = true.max(axis=1) - values[block]
        if n_actions == 1:
            # A one-column triangular solve takes another BLAS path than a
            # column of a wider solve, and its last bits differ.
            uncertainties[block] = [cov.mahalanobis_rows(rows)[0] for rows in feats]
        else:
            norms = cov.mahalanobis_rows(feats.reshape(g * n_actions, d))
            uncertainties[block] = norms.reshape(g, n_actions).max(axis=1)
    scale = math.sqrt(n) if n > 1 else 1.0
    return EvaluationReport(
        expected_max_uncertainty=float(uncertainties.mean()),
        expected_suboptimality=float(gaps.mean()),
        policy_value=float(values.mean()),
        n_eval_contexts=n,
        suboptimality_stderr=float(gaps.std(ddof=1) / scale) if n > 1 else 0.0,
        policy_value_stderr=float(values.std(ddof=1) / scale) if n > 1 else 0.0,
    )
