"""One benchmark repetition, run in a fresh process by ``run.py``.

The child imports mixplan, builds the workload's inputs from the input
seed, runs the workload's timed calls once, and prints one JSON object as
its last line of output: set-up and wall time, peak memory, the artifact
size, the outputs the parent checks against the stored reference, the
invariants it checked itself, and, when traced, the per-layer metrics.

Usage (normally started by run.py, which also sets the BLAS thread count):

    python3 perfbench/child.py --workload trial-synthetic --input-seed 3 \
        --profile full --spawn-time <time.monotonic() of the parent> \
        --work <empty temp dir> [--trace-out spans.npz]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

#: Sizes per workload. "full" is what the benchmark measures; "smoke" is a
#: tiny version of the same calls that run.py --smoke uses to check that the
#: benchmark itself still works.
SIZES = {
    "pipeline-d300": {
        "full": {"d": 300, "n_actions": 10, "M": 300, "N": 500, "n_eval": 1000, "lambda_reg": 1.0},
        "smoke": {"d": 20, "n_actions": 5, "M": 60, "N": 60, "n_eval": 50, "lambda_reg": 1.0},
    },
    "trial-synthetic": {
        "full": {"N": 2000, "eval_every": 40, "eval_set_size": 1000},
        "smoke": {"N": 60, "eval_every": 20, "eval_set_size": 50},
    },
    "trial-standin": {
        "full": {"queries": 500, "raw_dim": 700, "subsampled_dim": 300, "N": 300, "eval_every": 20},
        "smoke": {"queries": 40, "raw_dim": 100, "subsampled_dim": 30, "N": 20, "eval_every": 10},
    },
    "lemmas": {
        "full": {"coverage_trials": 4000, "sandwich_trials": 4, "planner_runs": 8},
        "smoke": {"coverage_trials": 200, "sandwich_trials": 2, "planner_runs": 2},
    },
}


class Clock:
    """Times the workload's calls; the first call opens the timed region."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.start = None
        self.stop = None
        self.steps: dict[str, float] = {}

    def __call__(self, name, fn, *args, **kwargs):
        if self.start is None:
            if self.tracer is not None:
                self.tracer.mark_region()
            self.start = time.monotonic()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.steps[name] = self.steps.get(name, 0.0) + time.perf_counter() - t0
        return result

    def done(self):
        self.stop = time.monotonic()
        if self.tracer is not None:
            self.tracer.close_region()


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def _read_metrics(path: Path) -> dict:
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    floats = {}
    for column in ("policy_value", "expected_suboptimality", "expected_max_uncertainty"):
        floats[column] = [float(r[column]) if r[column] else None for r in rows]
    return {"n_samples_seen": [int(r["n_samples_seen"]) for r in rows], **floats}


def _eval_schedule(horizon: int, eval_every: int) -> list[int]:
    points = list(range(eval_every, horizon + 1, eval_every))
    if not points or points[-1] != horizon:
        points.append(horizon)
    return points


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def pipeline(s, seed, work: Path, clock: Clock):
    """plan -> save -> load -> sample -> CSV round trip -> ridge_fit -> evaluate."""
    import mixplan

    instance = mixplan.make_random_unit_instance(s["d"], s["n_actions"], seed=seed)
    offline_seed, online_seed, eval_seed = np.random.SeedSequence(seed).spawn(3)
    offline_rng = np.random.default_rng(offline_seed)
    eval_rng = np.random.default_rng(eval_seed)
    contexts = [instance.context_sampler(offline_rng) for _ in range(s["M"])]
    eval_contexts = [instance.context_sampler(eval_rng) for _ in range(s["n_eval"])]
    config = mixplan.ExperimentConfig(M=s["M"], N=s["N"], lambda_reg=s["lambda_reg"], alpha=1.0)
    policy_path = work / "policy.json"
    dataset_path = work / "dataset.csv"

    policy, trace = clock("plan", mixplan.plan, contexts, config)
    clock("save", policy.save, policy_path)
    loaded = clock("load", mixplan.MixturePolicy.load, policy_path)
    dataset = clock("sample", mixplan.sample, loaded, instance, s["N"],
                    np.random.default_rng(online_seed))
    clock("dataset_to_csv", mixplan.dataset_to_csv, dataset, dataset_path)
    reread = clock("dataset_from_csv", mixplan.dataset_from_csv, dataset_path)
    estimate = clock("ridge_fit", mixplan.ridge_fit, reread, s["lambda_reg"])
    report = clock("evaluate", mixplan.evaluate, estimate, instance, eval_contexts)
    clock.done()

    replay = mixplan.sample(policy, instance, s["N"], np.random.default_rng(online_seed))
    sampled = [r.action_index for r in dataset]
    budget = mixplan.switch_count_budget(s["d"], s["M"], s["lambda_reg"])
    invariants = {
        "snapshot_count_within_budget": policy.snapshot_count <= budget,
        "loaded_policy_same_actions": sampled == [r.action_index for r in replay],
        "csv_round_trip_exact": (
            np.array_equal(dataset.feature_matrix(), reread.feature_matrix())
            and np.array_equal(dataset.rewards(), reread.rewards())
            and [r.context_id for r in dataset] == [r.context_id for r in reread]
        ),
    }
    outputs = {
        "exact": {
            "snapshot_count": policy.snapshot_count,
            "phase_starts": list(policy.phase_starts),
            "plan_actions_sha256": _digest(trace.actions),
            "sampled_actions_sha256": _digest(sampled),
        },
        "approx": {
            "evaluate_report": report.to_json_dict(),
            "theta_hat_norm": float(np.linalg.norm(estimate.theta_hat)),
        },
    }
    return outputs, invariants, policy_path.stat().st_size


def _run_config(**fields):
    import mixplan

    return mixplan.RunConfig(n_trials=1, workers=1, **fields)


def trial_synthetic(s, seed, work: Path, clock: Clock):
    """One harness trial of planner_sampler on the synthetic instance."""
    import mixplan

    config = _run_config(environment="synthetic", algorithm="planner_sampler", N=s["N"],
                         eval_every=s["eval_every"], eval_set_size=s["eval_set_size"],
                         seed=seed, output_path=str(work / "synthetic"))
    result = clock("run_experiment", mixplan.run_experiment, config)
    clock.done()
    metrics = _read_metrics(result.metrics_path)
    invariants = {
        "eval_schedule": metrics["n_samples_seen"] == _eval_schedule(s["N"], s["eval_every"]),
    }
    outputs = {
        "exact": {"n_samples_seen": metrics["n_samples_seen"]},
        "approx": {k: v for k, v in metrics.items() if k != "n_samples_seen"},
    }
    return outputs, invariants, _dir_bytes(result.output_dir)


def trial_standin(s, seed, work: Path, clock: Clock):
    """planner_sampler then supervised_oracle on a stand-in ranking file.

    The file is generated into this run's own directory and passed as an
    explicit data_path, so no file under runs/ is ever read.
    """
    import mixplan

    data_path = work / "standin.txt"
    mixplan.generate_standin_file(data_path, n_queries=s["queries"], seed=seed,
                                  raw_dim=s["raw_dim"])
    results = {}
    for algorithm in ("planner_sampler", "supervised_oracle"):
        config = _run_config(environment="rank_dataset", algorithm=algorithm, N=s["N"],
                             eval_every=s["eval_every"], seed=seed, data_path=str(data_path),
                             rank_raw_dim=s["raw_dim"], rank_subsampled_dim=s["subsampled_dim"],
                             output_path=str(work / algorithm))
        results[algorithm] = clock(algorithm, mixplan.run_experiment, config)
    clock.done()

    outputs = {"exact": {}, "approx": {}}
    invariants = {}
    for algorithm, result in results.items():
        metrics = _read_metrics(result.metrics_path)
        horizon = metrics["n_samples_seen"][-1]
        invariants[f"{algorithm}.eval_schedule"] = (
            metrics["n_samples_seen"] == _eval_schedule(horizon, s["eval_every"]))
        outputs["exact"][f"{algorithm}.n_samples_seen"] = metrics["n_samples_seen"]
        for column in ("policy_value", "expected_max_uncertainty"):
            outputs["approx"][f"{algorithm}.{column}"] = metrics[column]
    return outputs, invariants, sum(_dir_bytes(r.output_dir) for r in results.values())


def lemmas(s, seed, work: Path, clock: Clock):
    """The concentration lab's verification report at one fixed scale, run
    through the command line so the program itself writes the report."""
    from mixplan import cli

    report_path = work / "lemmas.json"
    clock("verify_lemmas", cli.main, [
        "verify-lemmas", "--seed", str(seed), "--trials", str(s["coverage_trials"]),
        "--sandwich-trials", str(s["sandwich_trials"]), "--planner-runs", str(s["planner_runs"]),
        "--out", str(report_path)])
    clock.done()
    report = json.loads(report_path.read_text())
    counts = {}
    for section in ("bernstein", "reverse_bernstein_iid", "reverse_bernstein_adapted",
                    "elliptical_potential", "switch_count"):
        counts[f"{section}.violations"] = report[section]["violations"]
    for side in ("offline", "online"):
        counts[f"sandwich.{side}.violations"] = report["sandwich"][side]["violations"]
    outputs = {
        "exact": counts,
        "approx": {
            "switch_count.worst_margin": report["switch_count"]["worst_margin"],
            "sandwich_below_threshold": report["sandwich_below_threshold"],
        },
    }
    return outputs, {"verify_lemmas_pass": report["pass"] is True}, report_path.stat().st_size


WORKLOADS = {
    "pipeline-d300": pipeline,
    "trial-synthetic": trial_synthetic,
    "trial-standin": trial_standin,
    "lemmas": lemmas,
}


def _software() -> dict:
    """Interpreter, library and BLAS versions as this process sees them."""
    import scipy

    blas = {}
    for module in (np, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads_env": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--profile", required=True, choices=("full", "smoke"))
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    import mixplan.cli  # noqa: F401  (set-up cost: the import is part of setup_s)

    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    sizes = SIZES[args.workload][args.profile]
    clock = Clock(tracer)
    outputs, invariants, artifact_bytes = WORKLOADS[args.workload](
        sizes, args.input_seed, args.work, clock)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": clock.start - args.spawn_time,
        "wall_s": clock.stop - clock.start,
        "steps_s": clock.steps,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "artifact_mb": artifact_bytes / 1e6,
        "sizes": sizes,
        "software": _software(),
        "outputs": outputs,
        "invariants": invariants,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.save(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
