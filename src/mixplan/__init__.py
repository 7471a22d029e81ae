"""Non-reactive exploration for linear contextual bandits.

Plan a single mixture exploration policy offline from reward-free
contexts, collect a dataset online under that frozen policy, and extract a
near-optimal greedy policy by ridge regression, with environments,
baselines, and a Monte-Carlo verification lab for the concentration
arguments behind the procedure.
"""

from .core import (
    BanditInstance,
    ConfigurationError,
    Context,
    ContractViolation,
    DataError,
    ExperimentConfig,
    InteractionDataset,
    InteractionRecord,
    ParseError,
    reward_draw,
)
from .covariance import CovarianceSnapshot, RegularizedCovariance
from .planner import MixturePolicy, UncertaintyTrace, plan, switch_count_budget
from .sampler import (
    dataset_from_csv,
    dataset_from_npz,
    dataset_to_csv,
    dataset_to_npz,
    sample,
)
from .estimator import (
    ConfidenceRadius,
    EvaluationReport,
    RidgeEstimate,
    beta_radius,
    evaluate,
    greedy_action,
    ridge_fit,
)
from .environments import (
    RankDatasetSpec,
    RankedContext,
    generate_standin_file,
    ingest_rank_dataset,
    make_hard_goptimal,
    make_hard_nonconcentrating,
    make_hard_uniform,
    make_random_unit_instance,
    make_rank_instance,
    make_synthetic,
)
from .baselines import LargestNormPolicy, RandomPolicy, SingleActionPolicy, oracle_fits
from .concentration import (
    BernoulliChain,
    CoverageReport,
    PotentialCheck,
    SandwichResult,
    SwitchCheck,
    bernstein_bound,
    bernstein_pair,
    coverage_test,
    matrix_chernoff_tail,
    offline_context_requirement,
    online_regularization_requirement,
    potential_check,
    reverse_bernstein_bound,
    reverse_bernstein_pair,
    sandwich_check,
    switch_bound_check,
    verify_lemmas,
)
from .harness import MetricRow, RunConfig, RunResult, emit_action_histogram, run_experiment

__version__ = "0.1.0"
