"""Span recorder for the traced benchmark run.

The traced child wraps the public functions and methods of each mixplan
module in a recorder and rebinds every module attribute that refers to
them (``mixplan.harness.evaluate`` as well as ``mixplan.estimator.evaluate``),
so calls made between modules are seen too. Each span keeps its name, start,
end and parent; hot, tiny calls get a counter instead of a span. Spans stay
in memory and are written out once, when the child ends.

A span's self time is its duration minus the time its direct child spans
cover. Calls are single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent) plus call counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.fact: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.region_start = 0.0
        self.region_end = float("inf")
        self.region_counts: Counter = Counter()
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, fact=None):
        """Wrap ``fn`` so each call records a span; ``fact(args, result)``
        may attach one value (a size, a count) to the span."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = _clock()
                stack.pop()
            if fact is not None:
                self.fact[index] = fact(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call is counted but not timed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def mark_region(self) -> None:
        """Start of the timed region: earlier spans count as set-up."""
        self.region_start = _clock()
        self.counts.clear()

    def close_region(self) -> None:
        """End of the timed region: later spans (output checks) are left out."""
        self.region_end = _clock()
        self.region_counts = Counter(self.counts)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=np.str_),
            "name_of": np.asarray(self.name_of, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span as arrays (names table, name index, start, end, parent)."""
        np.savez_compressed(path, **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap the mixplan public surface that the per-layer metrics read."""
    from mixplan import (
        concentration,
        core,
        covariance,
        environments,
        estimator,
        harness,
        planner,
        sampler,
    )

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "mixplan" or name.startswith("mixplan.")]

    def rebind(module, attr, wrap):
        original = getattr(module, attr)
        wrapped = wrap(original)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    tracer.patch(owner, key, wrapped)

    def function(module, attr, name, fact=None, count_only=False):
        rebind(module, attr, lambda fn: (tracer.counter(name, fn) if count_only
                                         else tracer.span(name, fn, fact)))

    def traced_sampler(factory):
        """Instances from ``factory`` time every context draw. BanditInstance
        is frozen, so the field is set the way the dataclass sets it."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            instance = factory(*args, **kwargs)
            object.__setattr__(instance, "context_sampler", tracer.span(
                "environments.context_sampler", instance.context_sampler))
            return instance

        return make

    def method(cls, attr, name, fact=None, count_only=False):
        raw = cls.__dict__[attr]
        inner = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = (tracer.counter(name, inner) if count_only
                   else tracer.span(name, inner, fact))
        tracer.patch(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    # covariance: every Cholesky factorization the layer performs (lazy
    # refactors in RegularizedCovariance.factor and snapshot rebuilds on load).
    tracer.patch(np.linalg, "cholesky",
                 tracer.span("covariance.factor", np.linalg.cholesky,
                             fact=lambda args, result: result.shape[0]))
    method(covariance.RegularizedCovariance, "rank_one_update", "covariance.rank_one_update")
    method(covariance.RegularizedCovariance, "snapshot", "covariance.snapshot",
           fact=lambda args, result: result.d)
    for cls in (covariance.RegularizedCovariance, covariance.CovarianceSnapshot):
        method(cls, "mahalanobis_rows", "covariance.mahalanobis_rows")
        method(cls, "mahalanobis", "covariance.mahalanobis_rows")

    # planner
    function(planner, "plan", "planner.plan", fact=lambda args, result: (
        result[0].snapshot_count,
        result[0].snapshot_count / planner.switch_count_budget(
            result[0].d, result[0].M, result[0].lambda_reg),
        result[0].M,
    ))
    method(planner.MixturePolicy, "save", "planner.save")
    method(planner.MixturePolicy, "load", "planner.load")
    method(planner.MixturePolicy, "action", "planner.action")

    # sampler
    function(sampler, "sample", "sampler.sample", fact=lambda args, result: len(result))
    function(sampler, "dataset_to_csv", "sampler.dataset_to_csv")
    function(sampler, "dataset_from_csv", "sampler.dataset_from_csv")

    # estimator
    function(estimator, "ridge_fit", "estimator.ridge_fit", fact=lambda args, result: result.n_samples)
    function(estimator, "evaluate", "estimator.evaluate")
    function(estimator, "greedy_action", "estimator.greedy_action", count_only=True)

    # core
    method(core.InteractionDataset, "feature_matrix", "core.feature_matrix")
    method(core.InteractionDataset, "append", "core.dataset_append", count_only=True)

    # environments: file generation and ingestion, plus every context draw of
    # the instances the factories hand out.
    function(environments, "generate_standin_file", "environments.generate_standin_file")
    function(environments, "ingest_rank_dataset", "environments.ingest_rank_dataset")
    function(environments, "parse_rank_file", "environments.parse_rank_file")
    function(environments, "build_rank_contexts", "environments.build_rank_contexts")
    for factory in ("make_synthetic", "make_random_unit_instance", "make_rank_instance",
                    "make_hard_uniform", "make_hard_goptimal", "make_hard_nonconcentrating"):
        rebind(environments, factory, traced_sampler)

    # harness
    function(harness, "run_trial", "harness.run_trial", fact=lambda args, result: len(result))

    # concentration
    for attr in ("verify_lemmas", "sandwich_check", "potential_check", "coverage_test"):
        function(concentration, attr, f"concentration.{attr}")


def _self_times(arrays: dict) -> np.ndarray:
    duration = arrays["end"] - arrays["start"]
    covered = np.zeros_like(duration)
    parent = arrays["parent"]
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the spans and counters of the timed region.

    Every metric is present for every workload; a layer a workload does not
    exercise reads 0. ``environments.generate_standin_file`` alone counts
    set-up spans as well, because the benchmark calls it before the timed
    region to make its input.
    """
    arrays = tracer.arrays()
    duration = arrays["end"] - arrays["start"]
    self_time = _self_times(arrays)
    in_region = (arrays["start"] >= tracer.region_start) & (arrays["start"] < tracer.region_end)
    names = list(arrays["names"])
    name_of = arrays["name_of"]

    def select(name, region=True):
        if name not in names:
            return np.zeros(0, dtype=np.int64)
        mask = name_of == names.index(name)
        if region:
            mask &= in_region
        return np.flatnonzero(mask)

    def calls(name):
        return float(len(select(name)))

    def total(name, region=True):
        return float(duration[select(name, region)].sum())

    def own(name):
        return float(self_time[select(name)].sum())

    def facts(name):
        return [tracer.fact[int(i)] for i in select(name)]

    def under(index, prefix):
        parent = arrays["parent"]
        i = parent[index]
        while i >= 0:
            if names[name_of[i]].startswith(prefix):
                return True
            i = parent[i]
        return False

    factor_dims = facts("covariance.factor")
    factor_s = own("covariance.factor")
    factor_flops = sum(d ** 3 / 3.0 for d in factor_dims)
    plan_facts = facts("planner.plan")
    plan_s = total("planner.plan")
    plan_steps = sum(f[2] for f in plan_facts)
    sample_s = total("sampler.sample")
    sample_steps = sum(facts("sampler.sample"))
    evaluate_ms = duration[select("estimator.evaluate")] * 1e3

    return {
        "covariance.factor.calls": calls("covariance.factor"),
        "covariance.factor.self_s": factor_s,
        "covariance.factor.gflops_computed": factor_flops / factor_s / 1e9 if factor_s > 0 else 0.0,
        "covariance.rank_one_update.calls": calls("covariance.rank_one_update"),
        "covariance.rank_one_update.self_s": own("covariance.rank_one_update"),
        "covariance.mahalanobis_rows.calls": calls("covariance.mahalanobis_rows"),
        "covariance.mahalanobis_rows.self_s": own("covariance.mahalanobis_rows"),
        "covariance.snapshot.calls": calls("covariance.snapshot"),
        "covariance.snapshot.self_s": own("covariance.snapshot"),
        "covariance.snapshot_bytes": float(sum(2 * d * d * 8 for d in facts("covariance.snapshot"))),
        "planner.plan.total_s": plan_s,
        "planner.plan.self_s": own("planner.plan"),
        "planner.step_us": plan_s / plan_steps * 1e6 if plan_steps else 0.0,
        "planner.snapshot_count": float(sum(f[0] for f in plan_facts)),
        "planner.switch_budget_used": max((f[1] for f in plan_facts), default=0.0),
        "planner.save.total_s": total("planner.save"),
        "planner.load.total_s": total("planner.load"),
        "planner.action.calls": calls("planner.action"),
        "planner.action.self_s": own("planner.action"),
        "sampler.sample.total_s": sample_s,
        "sampler.step_us": sample_s / sample_steps * 1e6 if sample_steps else 0.0,
        "sampler.dataset_to_csv.total_s": total("sampler.dataset_to_csv"),
        "sampler.dataset_from_csv.total_s": total("sampler.dataset_from_csv"),
        "estimator.ridge_fit.calls": calls("estimator.ridge_fit"),
        "estimator.ridge_fit.self_s": own("estimator.ridge_fit"),
        "estimator.ridge_fit.rows": float(sum(facts("estimator.ridge_fit"))),
        "estimator.evaluate.calls": calls("estimator.evaluate"),
        "estimator.evaluate.self_s": own("estimator.evaluate"),
        "estimator.evaluate.p50_ms": float(np.percentile(evaluate_ms, 50)) if len(evaluate_ms) else 0.0,
        "estimator.evaluate.p90_ms": float(np.percentile(evaluate_ms, 90)) if len(evaluate_ms) else 0.0,
        "estimator.greedy_action.calls": float(tracer.region_counts["estimator.greedy_action"]),
        "core.feature_matrix.calls": calls("core.feature_matrix"),
        "core.feature_matrix.self_s": own("core.feature_matrix"),
        "core.dataset_append.calls": float(tracer.region_counts["core.dataset_append"]),
        "environments.generate_standin_file.total_s": total(
            "environments.generate_standin_file", region=False),
        "environments.ingest_rank_dataset.total_s": total("environments.ingest_rank_dataset"),
        "environments.parse_rank_file.self_s": own("environments.parse_rank_file"),
        "environments.build_rank_contexts.self_s": own("environments.build_rank_contexts"),
        "environments.context_sampler.calls": calls("environments.context_sampler"),
        "environments.context_sampler.self_s": own("environments.context_sampler"),
        "harness.run_trial.total_s": total("harness.run_trial"),
        "harness.run_trial.self_s": own("harness.run_trial"),
        "harness.eval_points": float(sum(facts("harness.run_trial"))),
        "concentration.sandwich_check.total_s": total("concentration.sandwich_check"),
        "concentration.potential_check.total_s": total("concentration.potential_check"),
        "concentration.coverage_test.total_s": total("concentration.coverage_test"),
        "concentration.plan_calls": float(sum(
            1 for i in select("planner.plan") if under(i, "concentration."))),
    }
