"""Ridge extraction of the greedy policy and its evaluation.

Fits theta_hat by regularized least squares on an interaction dataset,
computes the confidence radius sqrt(beta) with its small- and large-space
branches, and Monte-Carlo estimates the expected maximum uncertainty,
policy value, and suboptimality of the extracted greedy policy over a
held-out context set. Every application of the inverse covariance goes
through a factorization solve.

Evaluation runs in blocks: contexts with the same number of actions are
stacked into (g, A, d) arrays of about ``_BLOCK_FLOATS`` floats, and each
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
from scipy.linalg import cho_factor, cho_solve

from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContractViolation,
    DataError,
    InteractionDataset,
)
from .covariance import RegularizedCovariance


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
class ConfidenceRadius:
    """sqrt(beta) bound on the Sigma'-weighted estimation error.

    The radius is min(alpha1, alpha2) plus the regularization bias term
    sqrt(lambda_reg) * theta_norm_bound. alpha1 exists only when the
    state-action space is finite and its cardinality was supplied.
    """

    beta_sqrt: float
    branch: str
    theta_norm_bound: float
    alpha1: Optional[float]
    alpha2: float


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
    cov = RegularizedCovariance.from_state(lambda_reg * np.eye(d) + features.T @ features,
                                           lambda_reg, update_count=n)
    rhs = features.T @ rewards
    theta = cho_solve(cho_factor(cov.matrix, lower=True), rhs)
    return RidgeEstimate(theta_hat=theta, sigma_prime_n=cov, n_samples=n)


def greedy_action(estimate: RidgeEstimate, context: Context) -> int:
    """argmax over actions of phi^T theta_hat; ties break to the lowest index."""
    if context.d != estimate.d:
        raise ContractViolation(
            f"context dimension {context.d} != estimate dimension {estimate.d}"
        )
    scores = context.features @ estimate.theta_hat
    return int(np.argmax(scores))


def beta_radius(d: int, state_action_count: Optional[int] = None, delta: float = 0.05,
                lambda_reg: float = 1.0, theta_norm_bound: float = 1.0) -> ConfidenceRadius:
    """Confidence radius sqrt(beta) for the ridge estimate.

    For continuous context spaces the state-action count is undefined;
    leave it as None and the large-space branch applies.
    """
    if not 0 < delta <= 1:
        raise ConfigurationError("delta must lie in (0, 1]")
    if lambda_reg < 0:
        raise ConfigurationError("lambda_reg must be nonnegative")
    if theta_norm_bound < 0:
        raise ConfigurationError("theta_norm_bound must be nonnegative")
    log_inv_delta = math.log(1.0 / delta)
    alpha2 = 2.0 * math.sqrt(2.0 * d * math.log(6.0) + log_inv_delta)
    alpha1 = None
    if state_action_count is not None:
        if state_action_count < 1:
            raise ConfigurationError("state_action_count must be at least 1")
        alpha1 = math.sqrt(2.0 * math.log(2.0 * state_action_count) + log_inv_delta)
    if alpha1 is not None and alpha1 <= alpha2:
        branch, base = "small_space", alpha1
    else:
        branch, base = "large_space", alpha2
    beta_sqrt = base + math.sqrt(lambda_reg) * theta_norm_bound
    return ConfidenceRadius(
        beta_sqrt=beta_sqrt,
        branch=branch,
        theta_norm_bound=theta_norm_bound,
        alpha1=alpha1,
        alpha2=alpha2,
    )


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


#: Feature floats stacked into one evaluation block (2**16 float64, 512 KiB).
_BLOCK_FLOATS = 1 << 16


def _context_blocks(contexts: Sequence[Context], d: int):
    """Yield (indices, features): contexts with the same action count A,
    their feature rows stacked into a (g, A, d) array of about
    ``_BLOCK_FLOATS`` floats."""
    by_actions: dict[int, list[int]] = {}
    for i, context in enumerate(contexts):
        if context.d != d:
            raise ContractViolation("evaluation context dimension mismatch")
        by_actions.setdefault(context.n_actions, []).append(i)
    for n_actions, indices in by_actions.items():
        step = max(1, _BLOCK_FLOATS // (n_actions * d))
        for start in range(0, len(indices), step):
            block = indices[start:start + step]
            yield block, np.stack([contexts[i].features for i in block])


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
