"""Ridge extraction of the greedy policy and its evaluation.

Fits theta_hat by regularized least squares on an interaction dataset and
Monte-Carlo estimates the expected maximum uncertainty, policy value, and
suboptimality of the extracted greedy policy over a held-out context set.
A fit is two read-only arrays, theta_hat and the Gram matrix
Sigma'_N = lambda I + Phi^T Phi; ``evaluate`` factors Sigma'_N once per
call and applies its inverse by triangular solves. The harness fits
prefixes ``dataset[:n]`` of one collected dataset, whose columns are
views, so no fit copies its rows.

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
evaluates every estimate on it. ``evaluate`` takes a set whose truth is the
instance's (theta_star's scores for a linear instance, recorded values for
a labelled one) or, for a linear instance, a plain list of contexts,
stacked on the spot one block at a time (so no more than one block is held
at once). Each evaluation takes one stacked score product and one
triangular solve per block. Where at least half of a block's feature rows
are all zero (five of the ten actions of every synthetic context), the set
keeps a copy of the other, live, rows, made once when it is stacked; the
solve then holds only those, and the zero rows' norm is written as 0.0, the
value their solve gives. The solve rules live in one kernel,
``covariance._block_norms``, which the planner shares: a column of a solve
rounds the same as long as the solve holds two or more columns, so a block
left with a single live row is solved in full, and contexts with a single
action keep one solve each. Every output is bit-identical to scoring and
solving one context at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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
    check_settings,
)
from .covariance import _block_norms, _context_blocks, _live_rows


@dataclass(frozen=True)
class RidgeEstimate:
    """Least-squares estimate and its Gram matrix Sigma'_N, both read-only arrays."""

    theta_hat: np.ndarray
    sigma_prime_n: np.ndarray
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
        """The report's fields, in order, plus ``config_echo`` as ``config``."""
        payload = asdict(self)
        if config_echo is not None:
            payload["config"] = dict(config_echo)
        return payload

    def to_json(self, config_echo: Optional[dict] = None) -> str:
        return json.dumps(self.to_json_dict(config_echo))


def ridge_fit(dataset: InteractionDataset, lambda_reg: float) -> RidgeEstimate:
    """Solve (Phi^T Phi + lambda I) theta = Phi^T r via a Cholesky solve.

    An empty dataset is allowed and yields theta_hat = 0, the ridge solution,
    and Sigma'_N = lambda I. A prefix ``dataset[:n]`` fits its columns' views
    in place, with the same bits as a dataset built from the first n steps.
    """
    check_settings(lambda_reg=lambda_reg)
    features, rewards = dataset.feature_matrix(), dataset.rewards()
    n, d = features.shape
    if not np.isfinite(rewards).all():
        raise DataError("non-finite rewards in dataset")
    if not np.isfinite(features).all():
        raise DataError("non-finite features in dataset")
    # Finite features can still overflow the products; that is reported as
    # the DataError below, not as a RuntimeWarning from the matmul.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = lambda_reg * np.eye(d) + features.T @ features
        rhs = features.T @ rewards
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise DataError("features too large: the ridge normal equations overflow")
    # The two LAPACK calls cho_solve(cho_factor(m, lower=True), rhs) makes.
    factor, info = dpotrf(gram, lower=1, clean=0)
    if info > 0:
        raise DataError(f"ridge Gram matrix is not positive definite (leading minor {info}); "
                        "the features are too large against lambda_reg")
    if info < 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
    theta, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    gram.setflags(write=False)
    theta.setflags(write=False)
    return RidgeEstimate(theta_hat=theta, sigma_prime_n=gram, n_samples=n)


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
    true values, each context's best true value, and its live rows
    (``covariance._live_rows``: the flat indices and a copy of the feature
    rows that are not all zero, or None to solve the block in full)."""

    position: slice | np.ndarray
    features: np.ndarray
    true: np.ndarray
    best: np.ndarray
    live: tuple[np.ndarray, np.ndarray] | None


class EvaluationSet:
    """A held-out context set stacked once, to evaluate many estimates on.

    The true action values are theta_star's scores (``theta_star``) or one
    given array per context (``true_values``: recorded relevance labels,
    say); exactly one of the two is passed. The contexts are grouped and
    stacked by ``covariance._context_blocks``, and each block keeps its
    read-only features, its true values, their maximum and, when at least
    half of its feature rows are all zero, a copy of the others (its live
    rows). Evaluating an estimate on the set then costs one score product,
    one argmax and one triangular solve per block, of the live rows where a
    block keeps them.
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

    A block is one of ``_context_blocks``' with its true values (theta_star's
    scores, or the given values, one finite (A,) array per context) and its
    live rows.
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
            yield _EvalBlock(position, feats, true, true.max(axis=1), _live_rows(feats))

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

    Evaluation is noiseless: values and gaps are read from the true values,
    so a perfectly estimated parameter yields zero gap exactly.
    ``eval_contexts`` is an ``EvaluationSet`` whose truth is the instance's:
    built from its theta_star for a linear instance, or from recorded true
    values (relevance labels, say) for a labelled one. It may also be a list
    of contexts of a linear instance, scored by theta_star and stacked block
    by block on the spot.
    """
    if isinstance(eval_contexts, EvaluationSet):
        truth, theta_star = eval_contexts.theta_star, instance.theta_star
        if (truth is None) != (theta_star is None) or (
                truth is not None and not np.array_equal(truth, theta_star)):
            raise ContractViolation(
                "the evaluation set's truth is not the instance's: a linear instance needs a set "
                "built from its theta_star, a labelled one a set of recorded true values")
        d, n, blocks = eval_contexts.d, eval_contexts.n, eval_contexts.blocks
    elif instance.theta_star is None:
        raise ContractViolation(
            "evaluation of a context list against theta_star requires a linear instance")
    else:
        d, n, blocks = _stack(eval_contexts, instance.theta_star, None)
    if d != estimate.d:
        raise ContractViolation(
            f"evaluation context dimension {d} != estimate dimension {estimate.d}")
    gaps = np.empty(n)
    values = np.empty(n)
    uncertainties = np.empty(n)
    chol = np.linalg.cholesky(estimate.sigma_prime_n)
    for position, feats, true, best, live in blocks:
        # A stacked product scores each (A, d) matrix on its own, bit for bit
        # like one context at a time; a flattened (g*A, d) product does not.
        chosen = np.argmax(feats @ estimate.theta_hat, axis=1)
        picked = true[np.arange(len(feats)), chosen]
        values[position] = picked
        gaps[position] = best - picked
        uncertainties[position] = _block_norms(chol, feats, live).max(axis=1)
    scale = math.sqrt(n) if n > 1 else 1.0
    return EvaluationReport(
        expected_max_uncertainty=float(uncertainties.mean()),
        expected_suboptimality=float(gaps.mean()),
        policy_value=float(values.mean()),
        n_eval_contexts=n,
        suboptimality_stderr=float(gaps.std(ddof=1) / scale) if n > 1 else 0.0,
        policy_value_stderr=float(values.std(ddof=1) / scale) if n > 1 else 0.0,
    )
