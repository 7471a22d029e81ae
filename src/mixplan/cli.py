"""Command-line entry points: plan, sample, fit, eval, run-experiment,
verify-lemmas, gen-standin, ingest-ltr, histogram."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .artifact import read_artifact, scalar, write_artifact
from .concentration import verify_lemmas
from .core import (
    ConfigurationError,
    ContractViolation,
    DataError,
    ExperimentConfig,
    ParseError,
    _readonly,
    check_settings,
)
from .environments import (
    RANK_MAX_ACTIONS,
    RANK_NORM_CAP,
    SIMULATED,
    SPLIT_FILES,
    RankDatasetSpec,
    generate_standin_file,
    ingest_rank_dataset,
    make_rank_instance,
)
from .estimator import RidgeEstimate, evaluate, ridge_fit
from .harness import RunConfig, emit_action_histogram, run_experiment
from .planner import MixturePolicy, plan
from .sampler import dataset_from_csv, dataset_to_csv, dataset_to_npz, sample


def _add_env_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--env", required=True, choices=(*SIMULATED, "rank_dataset"))
    parser.add_argument("--seed", type=int, default=0,
                        help="give every stage the same seed: on synthetic it also draws "
                             "theta*, on rank_dataset the coordinate subsample and split")
    parser.add_argument("--actions", type=int, default=10,
                        help="action count for hard_uniform")
    parser.add_argument("--k", type=int, default=3, help="context count for hard_goptimal")
    parser.add_argument("--data-path", default=None, help="ranking data file or directory")
    parser.add_argument("--raw-dim", type=int, default=700)
    parser.add_argument("--subsampled-dim", type=int, default=300)


def _build_env(args):
    """Returns (instance, offline_context_pool, norm_cap)."""
    if args.env in SIMULATED:
        build, norm_cap = SIMULATED[args.env]
        return build(args.seed, args.actions, args.k), None, norm_cap
    if not args.data_path:
        raise ConfigurationError("--data-path is required for rank_dataset")
    spec = RankDatasetSpec(raw_dim=args.raw_dim, subsampled_dim=args.subsampled_dim)
    ingest = ingest_rank_dataset(args.data_path, spec, args.seed)
    pool = ingest.valid if ingest.valid else ingest.train
    instance = make_rank_instance(
        ingest.train,
        order=np.random.default_rng(args.seed).permutation(len(ingest.train)),
    )
    return instance, [rc.context for rc in pool], RANK_NORM_CAP


def _cmd_plan(args) -> int:
    instance, pool, norm_cap = _build_env(args)
    config = ExperimentConfig(M=args.M, N=args.M if args.N is None else args.N,
                              lambda_reg=args.lambda_reg, alpha=args.alpha)
    if pool is None:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0,)))
        contexts = instance.draw_contexts(rng, config.M)
    else:
        if len(pool) < config.M:
            raise ConfigurationError(
                f"offline pool has only {len(pool)} contexts, M={config.M}"
            )
        contexts = pool[: config.M]
    policy, _ = plan(contexts, config, norm_cap=norm_cap)
    policy.save(args.out)
    print(f"planned M={config.M} steps, {policy.snapshot_count} snapshot policies -> {args.out}")
    return 0


def _cmd_sample(args) -> int:
    instance, _, _ = _build_env(args)
    policy = MixturePolicy.load(args.policy)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(1,)))
    dataset = sample(policy, instance, args.N, rng)
    dataset_to_csv(dataset, args.out)
    if args.binary:
        dataset_to_npz(dataset, args.binary)
    print(f"collected {len(dataset)} records -> {args.out}")
    return 0


ESTIMATE_FORMAT = "ridge-estimate"
ESTIMATE_VERSION = 2


def _cmd_fit(args) -> int:
    dataset = dataset_from_csv(args.dataset)
    estimate = ridge_fit(dataset, args.lambda_reg)
    write_artifact(
        args.out, ESTIMATE_FORMAT, ESTIMATE_VERSION,
        theta_hat=np.asarray(estimate.theta_hat, dtype="<f8"),
        sigma=np.asarray(estimate.sigma_prime_n, dtype="<f8"),
        lambda_reg=np.array(args.lambda_reg, dtype="<f8"),
        n_samples=np.array(estimate.n_samples, dtype="<i8"),
    )
    print(f"fit theta_hat on {estimate.n_samples} records -> {args.out}")
    return 0


def _load_estimate(path) -> RidgeEstimate:
    payload = read_artifact(
        path, ESTIMATE_FORMAT, ESTIMATE_VERSION,
        ("theta_hat", "sigma", "lambda_reg", "n_samples"),
        remedy="re-run `mixplan fit` to write a current estimate",
    )
    theta_hat, sigma = payload["theta_hat"], payload["sigma"]
    if theta_hat.dtype.kind != "f" or sigma.dtype.kind != "f":
        raise ConfigurationError(f"{path}: theta_hat and sigma must be float arrays")
    theta_hat, sigma = _readonly(theta_hat), _readonly(sigma)
    d = theta_hat.shape[0] if theta_hat.ndim == 1 else -1
    if sigma.shape != (d, d) or not (np.isfinite(theta_hat).all() and np.isfinite(sigma).all()):
        raise ConfigurationError(
            f"{path}: theta_hat {theta_hat.shape} and sigma {sigma.shape} must be finite, "
            "of shapes (d,) and (d, d)"
        )
    if not np.array_equal(sigma, sigma.T):  # used as stored: a fit writes it exactly symmetric
        raise ConfigurationError(f"{path}: sigma is not symmetric")
    check_settings(lambda_reg=scalar(payload, "lambda_reg", float))
    n_samples = scalar(payload, "n_samples", int)
    if n_samples < 0:
        raise ConfigurationError(f"{path}: n_samples is negative ({n_samples})")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"{path}: sigma is not positive definite") from None
    return RidgeEstimate(theta_hat=theta_hat, sigma_prime_n=sigma, n_samples=n_samples)


def _cmd_eval(args) -> int:
    if args.env == "rank_dataset":
        raise ConfigurationError(
            "eval scores an estimate against theta_star and requires a linear instance; "
            "rank_dataset rewards are relevance labels (run-experiment evaluates them)")
    instance, _, _ = _build_env(args)
    estimate = _load_estimate(args.estimate)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(2,)))
    contexts = instance.draw_contexts(rng, args.n_eval)
    report = evaluate(estimate, instance, contexts)
    echo = {"env": args.env, "seed": args.seed, "n_eval": args.n_eval}
    Path(args.out).write_text(report.to_json(config_echo=echo))
    print(f"policy value {report.policy_value:.4f}, "
          f"suboptimality {report.expected_suboptimality:.4f} -> {args.out}")
    return 0


def _cmd_run_experiment(args) -> int:
    payload = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"{args.config} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{args.config} must hold a JSON object of RunConfig fields")
    # Every flag of the command but --config stores to a RunConfig field.
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    payload.update({name: value for name, value in vars(args).items()
                    if name in fields and value is not None})
    result = run_experiment(RunConfig.from_dict(payload))
    final = result.summary["final"]
    print(f"wrote {result.metrics_path}; final policy value "
          f"{final['policy_value_mean']:.4f} +- {final['policy_value_stderr']:.4f}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    report = verify_lemmas(seed=args.seed, coverage_trials=args.trials,
                           sandwich_trials=args.sandwich_trials,
                           planner_runs=args.planner_runs)
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(f"lemma report ({'PASS' if report['pass'] else 'FAIL'}) -> {args.out}")
    return 0 if report["pass"] else 1


def _cmd_gen_standin(args) -> int:
    out = Path(args.out)
    if args.splits:
        out.mkdir(parents=True, exist_ok=True)
        for i, name in enumerate(SPLIT_FILES):
            generate_standin_file(out / name, n_queries=args.queries,
                                  seed=args.seed + i, raw_dim=args.raw_dim)
        print(f"stand-in splits -> {out}/")
    else:
        generate_standin_file(out, n_queries=args.queries, seed=args.seed,
                              raw_dim=args.raw_dim)
        print(f"stand-in file -> {out}")
    return 0


def _cmd_ingest_ltr(args) -> int:
    spec = RankDatasetSpec(raw_dim=args.raw_dim, subsampled_dim=args.subsampled_dim)
    ingest = ingest_rank_dataset(args.path, spec, args.seed)
    if args.export:
        for name, split in (("train", ingest.train), ("valid", ingest.valid),
                            ("test", ingest.test)):
            if not split:
                continue
            np.savez_compressed(
                f"{args.export}-{name}.npz",
                qids=np.array([rc.context.context_id for rc in split], dtype=np.str_),
                features=np.concatenate([rc.context.features for rc in split]),
                offsets=np.cumsum([0] + [rc.context.n_actions for rc in split]),
                relevance=np.concatenate([rc.relevance for rc in split]),
            )
    # The summary is written last, so a failed export leaves none behind.
    summary = {
        "n_train": len(ingest.train),
        "n_valid": len(ingest.valid),
        "n_test": len(ingest.test),
        "subsample_indices": [int(i) for i in ingest.subsample_indices],
        "max_actions": RANK_MAX_ACTIONS,
    }
    Path(args.out).write_text(json.dumps(summary, indent=2))
    print(f"ingested {summary['n_train']}/{summary['n_valid']}/{summary['n_test']} "
          f"train/valid/test queries -> {args.out}")
    return 0


def _cmd_histogram(args) -> int:
    dataset = dataset_from_csv(args.dataset)
    emit_action_histogram(dataset, path=args.out)
    print(f"action histogram -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixplan",
        description="Non-reactive exploration pipeline for linear contextual bandits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run the offline planner, write a policy artifact")
    _add_env_flags(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, default=None, help="online budget (defaults to M)")
    p.add_argument("--alpha", type=float, default=None,
                   help="offline update discount (defaults to min(1, N/M))")
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("sample", help="run a policy artifact online, write a dataset CSV")
    _add_env_flags(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", default=None, help="also write a compact npz")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="ridge-fit a dataset CSV, write the estimate")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate an estimate on fresh contexts")
    _add_env_flags(p)
    p.add_argument("--estimate", required=True)
    p.add_argument("--n-eval", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run-experiment", help="multi-trial experiment driver")
    p.add_argument("--config", default=None, help="JSON file with RunConfig fields")
    p.add_argument("--environment", default=None)
    p.add_argument("--algorithm", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda-reg", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-trials", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--eval-set-size", type=int, default=None)
    p.add_argument("--data-path", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="trials run at once in worker processes (default 1, at most one per "
                        "trial); the cores are divided by the trials that run at once, and a "
                        "trial's evaluation points share its part when the BLAS runs one "
                        "thread. Each process keeps the BLAS's thread count, so set "
                        "OPENBLAS_NUM_THREADS=1 to run more than one worker")
    p.add_argument("--out", dest="output_path", default=None)
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser("verify-lemmas", help="run the concentration verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=4000)
    p.add_argument("--sandwich-trials", type=int, default=40)
    p.add_argument("--planner-runs", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("gen-standin", help="generate a stand-in ranking file")
    p.add_argument("--out", required=True)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--raw-dim", type=int, default=700)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", action="store_true",
                   help="write a directory with train/valid/test files")
    p.set_defaults(func=_cmd_gen_standin)

    p = sub.add_parser("ingest-ltr", help="parse and preprocess a ranking dataset")
    p.add_argument("--path", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw-dim", type=int, default=700)
    p.add_argument("--subsampled-dim", type=int, default=300)
    p.add_argument("--export", default=None, help="prefix for npz context bundles")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest_ltr)

    p = sub.add_parser("histogram", help="per-action frequency of a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_histogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every flag given a value is checked before the command reads or writes a file.
        check_settings(**{name: value for name, value in vars(args).items()
                          if value is not None})
        return args.func(args)
    except (ConfigurationError, ContractViolation, DataError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
