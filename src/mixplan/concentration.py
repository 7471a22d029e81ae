"""Numerical embodiment of the concentration toolkit.

Closed-form bound calculators (Bernstein, reverse Bernstein, matrix
Chernoff tails), Monte-Carlo coverage tests for the martingale
inequalities, the offline/online covariance sandwich experiment, the
elliptical-potential check under the determinant-doubling schedule, and
the switch-count assertion. Every calculator is a pure function of its
numeric inputs; every simulation records its seed in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BanditInstance, ConfigurationError, ExperimentConfig, check_settings
from .covariance import RegularizedCovariance, _add_outer_products
from .planner import MixturePolicy, _greedy_block, plan, switch_count_budget
from .sampler import sample

#: Slack on the squared elliptical-potential bound.
POTENTIAL_TOL = 1e-8
#: Slack on the minimum eigenvalue of each covariance sandwich PSD order.
SANDWICH_TOL = 1e-6
#: Iteration cap of the offline context requirement's fixed point.
_REQUIREMENT_ROUNDS = 200


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def bernstein_bound(sum_cond_var, delta: float):
    """Martingale Bernstein tail: 2 sqrt(V ln(1/delta)) + 2 ln(1/delta).

    Bounds the realized sum of an adapted sequence (bounded above by 1) in
    terms of the summed conditional second moments V.
    """
    check_settings(delta=delta)
    sum_cond_var = np.asarray(sum_cond_var, dtype=np.float64)
    if np.any(sum_cond_var < 0):
        raise ConfigurationError("conditional variance sum must be nonnegative")
    log_inv = math.log(1.0 / delta)
    out = 2.0 * np.sqrt(sum_cond_var * log_inv) + 2.0 * log_inv
    return float(out) if out.ndim == 0 else out


def reverse_bernstein_bound(sum_x, delta: float):
    """Bound the summed conditional means of a [0, 1] adapted sequence by the
    realized sum: (1/4) (c1 + sqrt(c1^2 + 4 (sum_x + c2)))^2 with
    c1 = 2 sqrt(ln(1/delta)), c2 = 2 ln(1/delta)."""
    check_settings(delta=delta)
    sum_x = np.asarray(sum_x, dtype=np.float64)
    if np.any(sum_x < 0):
        raise ConfigurationError("realized sum must be nonnegative")
    log_inv = math.log(1.0 / delta)
    c1 = 2.0 * math.sqrt(log_inv)
    c2 = 2.0 * log_inv
    out = 0.25 * (c1 + np.sqrt(c1 * c1 + 4.0 * (sum_x + c2))) ** 2
    return float(out) if out.ndim == 0 else out


def matrix_chernoff_tail(mu: float, R: float, deviation: float, d: int,
                         tail: str = "min") -> float:
    """Matrix Chernoff tail probability bounds for sums of PSD matrices.

    tail="min": d (1 - deviation^2/2)^(mu/R) bounds the lower tail of the
    minimum eigenvalue; tail="max": d (1 - deviation^2/4)^(mu/R) bounds the
    upper tail of the maximum eigenvalue; tail="doubling": d exp(-mu/(4R))
    bounds the probability the maximum eigenvalue doubles past mu
    (deviation is ignored). Bounds above 1 are vacuous but returned as is.
    """
    if mu <= 0 or R <= 0:
        raise ConfigurationError("mu and R must be positive")
    check_settings(d=d)
    if tail == "doubling":
        return d * math.exp(-mu / (4.0 * R))
    if not 0.0 <= deviation <= 1.0:
        raise ConfigurationError("deviation must lie in [0, 1]")
    if tail == "min":
        return d * (1.0 - deviation**2 / 2.0) ** (mu / R)
    if tail == "max":
        return d * (1.0 - deviation**2 / 4.0) ** (mu / R)
    raise ConfigurationError(f"unknown tail {tail!r}; expected min, max, or doubling")


# ---------------------------------------------------------------------------
# Coverage testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    """Violation count of a high-probability bound over simulated trials.

    The report FAILS when the violation frequency exceeds the target delta
    by more than three binomial standard deviations.
    """

    trials: int
    violations: int
    target_delta: float
    bound_description: str
    seed: int

    def __post_init__(self):
        if self.violations > self.trials:
            raise ConfigurationError("violations cannot exceed trials")

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials

    @property
    def threshold(self) -> float:
        return self.target_delta + 3.0 * math.sqrt(self.target_delta / self.trials)

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "target_delta": self.target_delta,
            "threshold": self.threshold,
            "bound": self.bound_description,
            "seed": self.seed,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class BernoulliChain:
    """Adapted Bernoulli sequences in [0, 1] with computable conditional means.

    kind="iid" keeps the success probability fixed at p; kind="adapted"
    lets it drift with the realized history mean (still predictable, so
    the martingale statements apply).
    """

    horizon: int
    kind: str = "iid"
    p: float = 0.3

    def describe(self) -> str:
        return f"bernoulli-{self.kind}(p={self.p}, T={self.horizon})"

    def simulate(self, rng: np.random.Generator, trials: int):
        """Return (X, P): realized values and conditional means, (trials, T)."""
        T = self.horizon
        if self.kind == "iid":
            P = np.full((trials, T), self.p)
            X = (rng.random((trials, T)) < self.p).astype(np.float64)
            return X, P
        if self.kind == "adapted":
            X = np.zeros((trials, T))
            P = np.empty((trials, T))
            running = np.zeros(trials)
            for t in range(T):
                p_t = np.clip(0.15 + 0.7 * running, 0.05, 0.95)
                P[:, t] = p_t
                X[:, t] = (rng.random(trials) < p_t).astype(np.float64)
                running = (running * t + X[:, t]) / (t + 1)
            return X, P
        raise ConfigurationError(f"unknown chain kind {self.kind!r}")


def reverse_bernstein_pair(X: np.ndarray, P: np.ndarray, delta: float):
    """lhs = summed conditional means, rhs = reverse Bernstein bound on them."""
    return P.sum(axis=1), reverse_bernstein_bound(X.sum(axis=1), delta)


def bernstein_pair(X: np.ndarray, P: np.ndarray, delta: float):
    """lhs = summed centered increments, rhs = Bernstein bound from the
    Bernoulli conditional variances."""
    return (X - P).sum(axis=1), bernstein_bound((P * (1.0 - P)).sum(axis=1), delta)


def coverage_test(process_family: BernoulliChain,
                  bound_fn: Callable[[np.ndarray, np.ndarray, float], tuple],
                  trials: int, delta: float, seed: int) -> CoverageReport:
    """Simulate the family and count violations of the bound at level delta."""
    check_settings(trials=trials, delta=delta, seed=seed)
    rng = np.random.default_rng(seed)
    X, P = process_family.simulate(rng, trials)
    lhs, rhs = bound_fn(X, P, delta)
    violations = int(np.sum(lhs > rhs + 1e-12))
    return CoverageReport(
        trials=trials,
        violations=violations,
        target_delta=delta,
        bound_description=f"{bound_fn.__name__} on {process_family.describe()}",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Elliptical potential and switch count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialCheck:
    """Squared-norm elliptical potential versus 3x the log-determinant growth.

    The squared form is what the uncertainty-sum argument consumes.
    """

    lhs_squared: float
    rhs: float
    passed: bool


def potential_check(vectors: np.ndarray, lambda_reg: float) -> PotentialCheck:
    """Run the doubling schedule over the vectors and check the potential bound.

    lhs = sum of squared snapshot-metric norms of the vectors, rhs = 3 times
    the log determinant ratio between the final covariance and lambda I.
    Requires lambda_reg >= 1 and vectors in the unit ball, which make the
    schedule's determinant ratio stay below 4.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ConfigurationError("need a nonempty (M, d) array of vectors")
    if lambda_reg < 1.0:
        raise ConfigurationError("the doubling potential bound requires lambda_reg >= 1")
    norms = np.linalg.norm(vectors, axis=1)
    if norms.max() > 1.0 + 1e-9:
        raise ConfigurationError("vectors must lie in the unit ball")

    d = vectors.shape[1]
    cov = RegularizedCovariance(d, lambda_reg, alpha=1.0, norm_cap=1.0)
    snap = None
    lhs_squared = 0.0
    for x in vectors:
        if cov.doubled_since(snap):
            snap = cov.snapshot()
        u = snap.mahalanobis(x)
        lhs_squared += u * u
        cov.rank_one_update(x, u)
    rhs = 3.0 * (cov.log_det() - d * math.log(lambda_reg))
    return PotentialCheck(
        lhs_squared=lhs_squared,
        rhs=rhs,
        passed=lhs_squared <= rhs + POTENTIAL_TOL,
    )


@dataclass(frozen=True)
class SwitchCheck:
    snapshot_count: int
    bound: float
    passed: bool


def switch_bound_check(policy: MixturePolicy, config: ExperimentConfig) -> SwitchCheck:
    """Assert the snapshot count against d log2(1 + M / (d lambda_reg))."""
    if policy.M != config.M or policy.lambda_reg != config.lambda_reg:
        raise ConfigurationError("policy was not produced under this configuration")
    bound = switch_count_budget(policy.d, config.M, config.lambda_reg)
    count = policy.snapshot_count
    return SwitchCheck(snapshot_count=count, bound=bound, passed=count <= bound)


# ---------------------------------------------------------------------------
# Offline/online covariance sandwich
# ---------------------------------------------------------------------------


def online_regularization_requirement(d: int, delta: float) -> float:
    """Smallest regularization for the online lower bound: 24 ln(8d/delta)."""
    check_settings(delta=delta)
    return 24.0 * math.log(8.0 * d / delta)


def offline_context_requirement(d: int, N: int, lambda_reg: float, delta: float) -> int:
    """Fixed point of M >= (96 K N / lambda) ln(192 d N K / (lambda delta)).

    K is itself the switch budget at M, so the requirement is solved by
    upward iteration from M = 1; it converges because K grows only
    logarithmically in M.
    """
    check_settings(delta=delta)
    M = 1.0
    for _ in range(_REQUIREMENT_ROUNDS):
        K = max(1.0, switch_count_budget(d, M, lambda_reg))
        target = (96.0 * K * N / lambda_reg) * math.log(
            192.0 * d * N * K / (lambda_reg * delta)
        )
        if target <= M:
            break
        M = target
    return int(math.ceil(M))


@dataclass(frozen=True)
class SandwichResult:
    """Per-side coverage of the covariance sandwich events."""

    offline: CoverageReport
    online: CoverageReport

    @property
    def passed(self) -> bool:
        return self.offline.passed and self.online.passed

    def to_json_dict(self) -> dict:
        return {
            "offline": self.offline.to_json_dict(),
            "online": self.online.to_json_dict(),
            "pass": self.passed,
        }


def sandwich_check(instance: BanditInstance, config: ExperimentConfig, trials: int,
                   seed: int, n_expectation_contexts: int = 128) -> SandwichResult:
    """Monte-Carlo check of the offline and online covariance bounds.

    Per trial, runs the planner and sampler, forms the conditional expected
    covariance by replaying each snapshot policy on fresh contexts, and
    tests the PSD orderings (2 SigmaBar - Sigma_M >= -SANDWICH_TOL) and
    (9 Sigma'_N - SigmaBar >= -SANDWICH_TOL) by minimum eigenvalue. Violation
    frequencies are compared against delta/4 per side. For instances whose
    per-step conditional context law is a point mass the replay estimate of
    SigmaBar is exact regardless of n_expectation_contexts.
    """
    check_settings(trials=trials, seed=seed)
    lam = config.lambda_reg
    alpha = config.alpha
    eye = np.eye(instance.d)
    offline_violations = 0
    online_violations = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng_offline, rng_online, rng_mc = (
            np.random.default_rng(s) for s in child.spawn(3)
        )
        contexts = instance.draw_contexts(rng_offline, config.M)
        policy, _ = plan(contexts, config)

        chosen = policy.features
        sigma_m = lam * eye + alpha * (chosen.T @ chosen)

        sigma_bar = lam * eye.copy()
        lengths = policy.phase_lengths()
        for k, snap in enumerate(policy.snapshots):
            # Choosing actions draws no randomness, so drawing the contexts
            # first leaves the stream as it was.
            contexts = instance.draw_contexts(rng_mc, n_expectation_contexts)
            expected = np.zeros((instance.d, instance.d))
            _add_outer_products(expected, _greedy_block(snap, contexts)[2], 1.0)
            expected /= n_expectation_contexts
            sigma_bar += alpha * float(lengths[k]) * expected

        if float(np.linalg.eigvalsh(2.0 * sigma_bar - sigma_m).min()) < -SANDWICH_TOL:
            offline_violations += 1

        dataset = sample(policy, instance, config.N, rng_online)
        feats = dataset.feature_matrix()
        sigma_n = lam * eye + feats.T @ feats
        if float(np.linalg.eigvalsh(9.0 * sigma_n - sigma_bar).min()) < -SANDWICH_TOL:
            online_violations += 1

    quarter = config.delta / 4.0
    return SandwichResult(
        offline=CoverageReport(
            trials=trials,
            violations=offline_violations,
            target_delta=quarter,
            bound_description="offline covariance upper bound (Sigma_M <= 2 SigmaBar)",
            seed=seed,
        ),
        online=CoverageReport(
            trials=trials,
            violations=online_violations,
            target_delta=quarter,
            bound_description="online covariance lower bound (9 Sigma'_N >= SigmaBar)",
            seed=seed,
        ),
    )


# ---------------------------------------------------------------------------
# Aggregate verification report
# ---------------------------------------------------------------------------


def verify_lemmas(seed: int = 0, coverage_trials: int = 4000, sandwich_trials: int = 40,
                  planner_runs: int = 25) -> dict:
    """Run the whole verification suite at reduced scale and report JSON-ably.

    The acceptance tests run the same checks at their full advertised
    scales; this entry point backs the verify-lemmas CLI command. Raises
    ConfigurationError for a seed or count out of its range.
    """
    check_settings(seed=seed, trials=coverage_trials, sandwich_trials=sandwich_trials,
                   planner_runs=planner_runs)
    from .environments import make_hard_nonconcentrating, make_hard_uniform, make_random_unit_instance

    report: dict = {"seed": seed}

    report["bernstein"] = coverage_test(
        BernoulliChain(horizon=100, kind="iid", p=0.3),
        bernstein_pair, coverage_trials, 0.05, seed,
    ).to_json_dict()
    report["reverse_bernstein_iid"] = coverage_test(
        BernoulliChain(horizon=100, kind="iid", p=0.3),
        reverse_bernstein_pair, coverage_trials, 0.05, seed + 1,
    ).to_json_dict()
    report["reverse_bernstein_adapted"] = coverage_test(
        BernoulliChain(horizon=100, kind="adapted"),
        reverse_bernstein_pair, coverage_trials, 0.05, seed + 2,
    ).to_json_dict()

    rng = np.random.default_rng(seed + 3)
    potential_failures = 0
    switch_failures = 0
    worst_margin = math.inf
    for _ in range(planner_runs):
        d = int(rng.integers(2, 9))
        lam = float(rng.choice([1.0, 2.0, 5.0]))
        M = int(rng.integers(50, 400))
        instance = make_random_unit_instance(d, n_actions=5, seed=int(rng.integers(2**31)))
        config = ExperimentConfig(M=M, N=M, lambda_reg=lam, alpha=1.0)
        stream_rng = np.random.default_rng(int(rng.integers(2**31)))
        contexts = instance.draw_contexts(stream_rng, M)
        policy, _ = plan(contexts, config)
        check = potential_check(math.sqrt(config.alpha) * policy.features, lam)
        potential_failures += 0 if check.passed else 1
        switch = switch_bound_check(policy, config)
        switch_failures += 0 if switch.passed else 1
        worst_margin = min(worst_margin, switch.bound - switch.snapshot_count)
    report["elliptical_potential"] = {
        "trials": planner_runs, "violations": potential_failures,
        "pass": potential_failures == 0,
    }
    report["switch_count"] = {
        "trials": planner_runs, "violations": switch_failures,
        "worst_margin": worst_margin, "pass": switch_failures == 0,
    }

    delta = 0.2
    d = 2
    lam = online_regularization_requirement(d, delta)
    N = 50
    M = offline_context_requirement(d, N, lam, delta)
    config = ExperimentConfig(M=M, N=N, lambda_reg=lam, delta=delta)
    sandwich = sandwich_check(make_hard_uniform(10), config, sandwich_trials, seed + 4,
                              n_expectation_contexts=4)
    report["sandwich"] = sandwich.to_json_dict()
    report["sandwich"]["lambda_reg"] = lam
    report["sandwich"]["M"] = M
    report["sandwich"]["N"] = N

    # Below the regularization threshold the sandwich is expected to break;
    # observed rates are reported, not asserted.
    weak = ExperimentConfig(M=400, N=100, lambda_reg=0.05, delta=delta)
    loose = sandwich_check(make_hard_nonconcentrating(d=6, M=400), weak,
                           max(10, sandwich_trials // 2), seed + 5,
                           n_expectation_contexts=64)
    report["sandwich_below_threshold"] = {
        "offline_violation_rate": loose.offline.violation_rate,
        "online_violation_rate": loose.online.violation_rate,
        "asserted": False,
    }

    report["matrix_chernoff"] = {
        "min_tail_example": matrix_chernoff_tail(10.0, 1.0, 1.0, 1, "min"),
        "max_tail_example": matrix_chernoff_tail(10.0, 1.0, 1.0, 1, "max"),
        "doubling_example": matrix_chernoff_tail(40.0, 1.0, 0.0, 4, "doubling"),
    }
    report["pass"] = all(
        section.get("pass", True)
        for section in report.values()
        if isinstance(section, dict)
    )
    return report
