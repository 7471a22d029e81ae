"""mixplan benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload pipeline-d300 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload lemmas --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke               # every workload once, tiny sizes
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

Every repetition runs in a fresh child process (``child.py``) with the
harness's ``workers=1`` and an explicit BLAS thread count. ``--trace 0``
repeats the untraced child until ``--seconds`` are used and reports medians
of the end-to-end metrics, times scaled to a reference machine speed by the
calibration (``calibrate.py``) run right before each child. ``--trace 1``
alternates untraced and traced children for the same time, then runs one
traced child with OpenBLAS's default thread count, and reports the
per-layer metrics, the tracing overhead and the planner's time at one and
at the default thread count.

Each child's outputs are checked against ``reference.json``. Inputs come
from the input seed ``seed % INPUT_SEEDS``, so every seed has a stored
reference. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; everything
else, including the machine, the library versions, the BLAS threads, every
seed and size and each sample, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Inputs are drawn from this many input seeds (seed % INPUT_SEEDS).
INPUT_SEEDS = 10
#: Relative and absolute tolerance for float outputs (metrics.csv values, the
#: evaluate report, lemma rates). Discrete outputs must match exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-9
#: BLAS threads of every measured child. With more than one, a BLAS call
#: waits for its slowest thread, so load on any other core slows a child
#: several-fold (3x on trial-synthetic, 24x on the stand-in planner, with one
#: core of two busy), and run-to-run spread follows the machine's other load.
BLAS_THREADS = 1
#: BLAS threads of the one traced child that shows the cost of OpenBLAS's own
#: default, one thread per core, on the 2-core machine the reference was
#: recorded on. Fixed, not read from the machine, because outputs depend on
#: it: the uncertainty argmax on the d=300 ranking data can flip between
#: thread counts, so the reference holds both.
DEFAULT_BLAS_THREADS = 2
#: What calibrate.py takes on a machine of reference speed. wall_s and
#: setup_s are the measured times scaled by this over the run's median
#: calibration time, so they read as seconds at that speed.
CALIBRATION_REF_S = 0.25
#: Repetitions per run at least, whatever --seconds says.
MIN_REPS = {"full": 3, "smoke": 1}
#: A run, and each child of --record-reference, is stopped after this long,
#: so the command always exits within 180 s.
TIME_LIMIT_S = 170


class ChildError(RuntimeError):
    """A child process exited with an error: the benchmark cannot run."""


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu": cpu, "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram / 2**30, 2), "platform": platform.platform()}


def _run(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))


def run_child(workload: str, input_seed: int, profile: str, threads: int,
              trace_out: Path | None = None, timeout: float = TIME_LIMIT_S) -> dict:
    """One repetition in a fresh process, right after a calibration in another
    one; returns the child's JSON result with the calibration time added."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--input-seed", str(input_seed), "--profile", profile, "--work", str(work)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    deadline = time.monotonic() + timeout
    try:
        calibration = _run([sys.executable, str(HERE / "calibrate.py")], env, deadline)
        spawned = time.monotonic()
        proc = _run(cmd + ["--spawn-time", repr(spawned)], env, deadline)
        elapsed = time.monotonic() - spawned
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} child still running after {exc.timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, done in (("calibration", calibration), (workload, proc)):
        if done.returncode != 0:
            raise ChildError(f"{name} child exited with {done.returncode}:\n{done.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["calibration_s"] = float(calibration.stdout)
    result["process_s"] = elapsed
    result["blas_threads"] = threads
    return result


def _same(expected, actual, path: str, problems: list) -> None:
    """Compare outputs: floats within the tolerance, everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            problems.append(f"{path}: keys {sorted(actual)} != {sorted(expected)}")
            return
        for key in expected:
            _same(expected[key], actual[key], f"{path}.{key}", problems)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(f"{path}: length {len(actual)} != {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _same(e, a, f"{path}[{i}]", problems)
    elif (isinstance(expected, float) and isinstance(actual, (int, float))
          and not isinstance(actual, bool)):
        if not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{path}: {actual!r} != {expected!r} (rel tol {REL_TOL})")
    elif expected != actual or type(expected) is not type(actual):
        problems.append(f"{path}: {actual!r} != {expected!r}")


def check(result: dict, reference: dict | None) -> list[str]:
    """Problems with one child's outputs; empty when every check passes."""
    problems = [f"invariant {name} failed" for name, ok in result["invariants"].items() if not ok]
    if reference is None:
        return problems + ["no stored reference for these inputs"]
    if reference["sizes"] != result["sizes"]:
        return problems + ["stored reference was recorded at other sizes"]
    _same(reference["outputs"], result["outputs"], "outputs", problems)
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_key(workload: str, profile: str, input_seed: int, threads: int) -> str:
    return f"{workload}/{profile}/{input_seed}/blas{threads}"


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]}


def summary(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail": tail(values), "samples": values}


class Run:
    """The children of one benchmark run and their checks."""

    def __init__(self, workload: str, seed: int, profile: str):
        self.workload = workload
        self.seed = seed
        self.input_seed = seed % INPUT_SEEDS
        self.profile = profile
        self.references = load_reference().get("entries", {})
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.children: list[dict] = []
        self.problems: list[list[str]] = []

    def child(self, threads: int, trace_out: Path | None = None) -> dict:
        result = run_child(self.workload, self.input_seed, self.profile, threads, trace_out,
                           timeout=self.deadline - time.monotonic())
        result["traced"] = trace_out is not None
        self.children.append(result)
        key = reference_key(self.workload, self.profile, self.input_seed, threads)
        self.problems.append(check(result, self.references.get(key)))
        return result

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def measure(workload: str, seed: int, seconds: float, trace: bool, profile: str,
            spec: dict) -> tuple[Run, dict, dict]:
    """Run children for ``seconds``; return the run, its end-to-end metrics
    and, when traced, its per-layer metrics (else an empty dict)."""
    run = Run(workload, seed, profile)
    begin = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    spans = RESULTS / f"{workload}-seed{seed}-spans"
    while True:
        untraced.append(run.child(BLAS_THREADS))
        if trace:
            spans.mkdir(parents=True, exist_ok=True)
            traced.append(run.child(BLAS_THREADS, spans / f"rep{len(traced)}.npz"))
        per_round = (time.monotonic() - begin) / len(untraced)
        if len(untraced) >= MIN_REPS[profile] and time.monotonic() - begin + per_round > seconds:
            break

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {name: summary([c[name] for c in untraced], units[name])
                  for name in ("peak_rss_mb", "artifact_mb")}
    calibration_s = statistics.median(c["calibration_s"] for c in untraced)
    to_reference = CALIBRATION_REF_S / calibration_s
    for name in ("wall_s", "setup_s"):
        measured = [c[name] for c in untraced]
        end_to_end[name] = summary([v * to_reference for v in measured], units[name])
        end_to_end[name.replace("_s", "_measured_s")] = summary(measured, "s")
    end_to_end["calibration_s"] = summary([c["calibration_s"] for c in untraced], "s")
    if not trace:
        return run, end_to_end, {}

    default_threads = run.child(DEFAULT_BLAS_THREADS, spans / "blas-default.npz")
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = summary([c["layers"][name] for c in traced], units[name])
    layers["planner.plan_s.blas1"] = summary(
        [c["layers"]["planner.plan.total_s"] for c in traced], units["planner.plan_s.blas1"])
    layers["planner.plan_s.blas2"] = summary(
        [default_threads["layers"]["planner.plan.total_s"]], units["planner.plan_s.blas2"])
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    layers["trace.overhead_frac"] = summary(
        [traced_wall / end_to_end["wall_measured_s"]["value"] - 1.0], units["trace.overhead_frac"])
    return run, end_to_end, layers


def report_lines(workload: str, metrics: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        t = m["tail"]
        tail_text = f"p{t['percentile']} {t['value']:.6g}" if t else "no tail (n < 11)"
        lines.append(f"{workload:16s} {name:44s} {m['value']:14.6g} {m['unit']:8s} "
                     f"n={m['n']:<3d} {tail_text}")
    return lines


def write_result(run: Run, trace: bool, seconds: float, end_to_end: dict, layers: dict,
                 spec: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(trace)}.json"
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    first = run.children[0]
    payload = {
        "workload": run.workload,
        "why": why.get(run.workload),
        "seed": run.seed,
        "input_seed": run.input_seed,
        "profile": run.profile,
        "sizes": first["sizes"],
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "software": first["software"],
        "blas_threads": {"children": BLAS_THREADS,
                         "default_threads_child": DEFAULT_BLAS_THREADS if trace else None},
        "harness_workers": 1,
        "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
        "calibration_ref_s": CALIBRATION_REF_S,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "children": [
            {k: c[k] for k in ("setup_s", "wall_s", "calibration_s", "steps_s", "peak_rss_mb",
                               "artifact_mb", "process_s", "blas_threads", "traced", "invariants")}
            for c in run.children
        ],
        "check_problems": run.problems,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark(args, spec: dict) -> int:
    run, end_to_end, layers = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                      "full", spec)
    path = write_result(run, bool(args.trace), args.seconds, end_to_end, layers, spec)
    host, software = machine(), run.children[0]["software"]
    print(f"machine: {host['cpu']}, nproc {host['nproc']}, {host['ram_gb']} GiB RAM; "
          f"python {software['python']}, numpy {software['numpy']}, scipy {software['scipy']}; "
          f"BLAS {software['blas']['numpy']['name']} {software['blas']['numpy']['version']} "
          f"with {BLAS_THREADS} thread(s); seed {run.seed} (input seed {run.input_seed}); "
          f"sizes {run.children[0]['sizes']}")
    for line in report_lines(args.workload, layers):
        print(line)
    if args.trace:
        print("untraced end-to-end, same run:")
    for line in report_lines(args.workload, end_to_end):
        print(line)
    print(f"failed_frac {run.failed}/{len(run.children)} = {run.failed / len(run.children):.3f}"
          f"  (runs whose output check failed / runs attempted)")
    for i, problems in enumerate(run.problems):
        for problem in problems[:10]:
            print(f"check failed, child {i}: {problem}")
    print(f"details: {path.relative_to(ROOT)}")
    metrics = layers if args.trace else end_to_end
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.children),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in names},
    }))
    return 0


def smoke(spec: dict) -> int:
    """Every workload once at tiny sizes, untraced and traced: every named
    metric must be emitted with its unit, and every output check must pass."""
    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            run, end_to_end, layers = measure(workload, 0, 0, trace, "smoke", spec)
            metrics = layers if trace else end_to_end
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    bad.append(f"{workload} trace={int(trace)}: metric {m['name']} missing or malformed")
            if run.failed:
                bad.append(f"{workload} trace={int(trace)}: output checks failed: {run.problems}")
            print(f"smoke {workload} trace={int(trace)}: {len(run.children)} children, "
                  f"{run.failed} failed")
    for line in bad:
        print(f"SMOKE FAIL {line}")
    print("SMOKE PASS" if not bad else "SMOKE FAIL")
    return 0 if not bad else 1


def record_reference(spec: dict) -> int:
    """Rewrite reference.json from the current code: every workload at every
    input seed (full sizes) and at input seed 0 (smoke sizes), at both BLAS
    thread counts."""
    entries = {}
    for workload in (w["name"] for w in spec["workloads"]):
        jobs = [("full", s) for s in range(INPUT_SEEDS)] + [("smoke", 0)]
        for (profile, input_seed), threads in itertools.product(
                jobs, (BLAS_THREADS, DEFAULT_BLAS_THREADS)):
            result = run_child(workload, input_seed, profile, threads)
            failed = [name for name, ok in result["invariants"].items() if not ok]
            if failed:
                print(f"{workload}/{profile}/{input_seed}: invariants failed: {failed}", file=sys.stderr)
                return 1
            entries[reference_key(workload, profile, input_seed, threads)] = {
                "sizes": result["sizes"], "outputs": result["outputs"]}
            print(f"recorded {reference_key(workload, profile, input_seed, threads)} "
                  f"in {result['process_s']:.1f} s")
    REFERENCE.write_text(json.dumps({"tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
                                     "entries": entries}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = load_spec()
    try:
        if args.smoke:
            return smoke(spec)
        if args.record_reference:
            return record_reference(spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return benchmark(args, spec)
    except ChildError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
