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

Evaluation runs on an ``EvaluationSet``, the held-out contexts stacked once:
contexts with the same number of actions are grouped into (g, A, d) arrays
of about ``covariance._BLOCK_FLOATS`` floats (``covariance._context_blocks``,
which the planner shares), and each block keeps its features, its true
values (theta_star's scores or given labels, checked for shape and
finiteness) and their maximum. The harness builds one set per trial and
evaluates every estimate on it; ``evaluate`` and ``evaluate_values`` also
take a plain list of contexts, stacked on the spot one block at a time (so
no more than one block is held at once). Each evaluation
takes one stacked score product and one triangular solve per block
(contexts with a single action keep one solve each). Every output is
bit-identical to scoring and solving one context at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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


class _EvalBlock(NamedTuple):
    """Contexts with one action count A, stacked: where they sit in the set
    (a slice or an index array), their (g, A, d) features, their (g, A)
    true values and each context's best true value."""

    position: slice | np.ndarray
    features: np.ndarray
    true: np.ndarray
    best: np.ndarray


class EvaluationSet:
    """A held-out context set stacked once, to evaluate many estimates on.

    The true action values are theta_star's scores (``theta_star``) or one
    given array per context (``true_values``: recorded relevance labels,
    say); exactly one of the two is passed. The contexts are grouped and
    stacked by ``covariance._context_blocks``, and each block keeps its
    read-only features, its true values and their maximum. Evaluating an
    estimate on the set then costs one score product, one argmax and one
    triangular solve per block.
    """

    __slots__ = ("d", "n", "theta_star", "blocks")

    def __init__(self, contexts: Sequence[Context], *,
                 theta_star: Optional[np.ndarray] = None,
                 true_values: Optional[Sequence[np.ndarray]] = None):
        if (theta_star is None) == (true_values is None):
            raise ContractViolation("pass exactly one of theta_star and true_values")
        if theta_star is not None:
            theta_star = np.asarray(theta_star, dtype=np.float64)
        self.theta_star = theta_star
        self.d, self.n, blocks = _stack(contexts, theta_star, true_values)
        self.blocks = tuple(blocks)


def _stack(contexts: Sequence[Context], theta_star: Optional[np.ndarray],
           true_values: Optional[Sequence[np.ndarray]]):
    """Check an evaluation set's inputs; return its dimension, its size and
    an iterator that stacks its blocks one at a time, as they are reached.

    A block is one of ``_context_blocks``' with its true values: theta_star's
    scores, or the given values, one finite (A,) array per context.
    """
    if not contexts:
        raise ConfigurationError("evaluation context set is empty")
    n = len(contexts)
    if true_values is not None and len(true_values) != n:
        raise ContractViolation(f"{len(true_values)} true-value arrays for {n} evaluation contexts")
    d = contexts[0].d if theta_star is None else len(theta_star)

    def blocks():
        for position, feats in _context_blocks(contexts, d):
            if theta_star is not None:
                true = feats @ theta_star
            else:
                indices = range(n)[position] if isinstance(position, slice) else position.tolist()
                true = np.stack([_true_row(true_values[i], contexts[i].n_actions, i)
                                 for i in indices])
            feats.setflags(write=False)
            true.setflags(write=False)
            yield _EvalBlock(position, feats, true, true.max(axis=1))

    return d, n, blocks()


def _true_row(values, n_actions: int, i: int) -> np.ndarray:
    """Context ``i``'s true values as a finite (n_actions,) float array."""
    try:
        row = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ContractViolation(f"true values of evaluation context {i} are not numbers") from None
    if row.shape != (n_actions,):
        raise ContractViolation(
            f"true values of evaluation context {i} have shape {row.shape}, "
            f"expected ({n_actions},)")
    if not np.isfinite(row).all():
        raise ContractViolation(f"non-finite true values for evaluation context {i}")
    return row


def evaluate(estimate: RidgeEstimate, instance: BanditInstance,
             eval_contexts: Sequence[Context] | EvaluationSet) -> EvaluationReport:
    """Average per-context max uncertainty, suboptimality gap, and greedy value.

    Evaluation is noiseless: values and gaps are inner products with
    theta_star, so a perfectly estimated parameter yields zero gap exactly.
    ``eval_contexts`` is an ``EvaluationSet`` built from the instance's
    theta_star, or a list of contexts, stacked block by block on the spot.
    """
    if instance.theta_star is None:
        raise ContractViolation(
            "evaluation against theta_star requires a linear instance"
        )
    if not isinstance(eval_contexts, EvaluationSet):
        return _evaluate_blocks(estimate, *_stack(eval_contexts, instance.theta_star, None))
    if (eval_contexts.theta_star is None
            or not np.array_equal(eval_contexts.theta_star, instance.theta_star)):
        raise ContractViolation("the evaluation set was not built from this instance's theta_star")
    return _evaluate_blocks(estimate, eval_contexts.d, eval_contexts.n, eval_contexts.blocks)


def evaluate_values(estimate: RidgeEstimate, eval_contexts: Sequence[Context] | EvaluationSet,
                    true_values: Optional[Sequence[np.ndarray]] = None) -> EvaluationReport:
    """``evaluate`` against given true values: ``true_values[i]`` holds the
    value of every action of ``eval_contexts[i]`` (theta_star scores, or
    recorded relevance labels for a data-driven instance). An
    ``EvaluationSet`` holds its true values, so none are passed with it."""
    if not isinstance(eval_contexts, EvaluationSet):
        if true_values is None:
            raise ContractViolation("evaluating a list of contexts needs their true values")
        return _evaluate_blocks(estimate, *_stack(eval_contexts, None, true_values))
    if true_values is not None:
        raise ContractViolation("an evaluation set already holds its true values")
    return _evaluate_blocks(estimate, eval_contexts.d, eval_contexts.n, eval_contexts.blocks)


def _evaluate_blocks(estimate: RidgeEstimate, d: int, n: int, blocks) -> EvaluationReport:
    """The evaluation loop of ``evaluate`` and ``evaluate_values``, over the
    blocks of an evaluation set of n contexts of dimension d."""
    if d != estimate.d:
        raise ContractViolation(
            f"evaluation context dimension {d} != estimate dimension {estimate.d}")
    gaps = np.empty(n)
    values = np.empty(n)
    uncertainties = np.empty(n)
    cov = estimate.sigma_prime_n
    for position, feats, true, best in blocks:
        g, n_actions, d = feats.shape
        # A stacked product scores each (A, d) matrix on its own, bit for bit
        # like one context at a time; a flattened (g*A, d) product does not.
        chosen = np.argmax(feats @ estimate.theta_hat, axis=1)
        picked = true[np.arange(g), chosen]
        values[position] = picked
        gaps[position] = best - picked
        if n_actions == 1:
            # A one-column triangular solve takes another BLAS path than a
            # column of a wider solve, and its last bits differ.
            uncertainties[position] = [cov.mahalanobis_rows(rows)[0] for rows in feats]
        else:
            norms = cov.mahalanobis_rows(feats.reshape(g * n_actions, d))
            uncertainties[position] = norms.reshape(g, n_actions).max(axis=1)
    scale = math.sqrt(n) if n > 1 else 1.0
    return EvaluationReport(
        expected_max_uncertainty=float(uncertainties.mean()),
        expected_suboptimality=float(gaps.mean()),
        policy_value=float(values.mean()),
        n_eval_contexts=n,
        suboptimality_stderr=float(gaps.std(ddof=1) / scale) if n > 1 else 0.0,
        policy_value_stderr=float(values.std(ddof=1) / scale) if n > 1 else 0.0,
    )
