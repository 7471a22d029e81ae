"""mixplan's LAPACK routines come from SciPy's compiled extension without
``scipy.linalg``: what start-up leaves out, the identity of the routines,
the ridge solve against the ``cho_factor``/``cho_solve`` it replaces, the
lock-free entry to ``dtrtrs`` against the f2py one, and the BLAS thread
count read through ``ctypes``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from mixplan import InteractionDataset, covariance, ridge_fit
from mixplan._lapack import dtrtrs, dtrtrs_nogil

HERE = Path(__file__).resolve().parent

#: Modules that ``import mixplan.cli`` and a one-worker run must not load.
HEAVY = ("scipy.linalg", "numpy.f2py", "concurrent.futures.process")


def _run(script, threads="1"):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_import_leaves_scipy_linalg_f2py_and_process_pool_out():
    loaded = _run(f"import json, sys; import mixplan.cli; "
                  f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    assert loaded == []


def test_one_worker_run_leaves_scipy_linalg_f2py_and_process_pool_out(tmp_path):
    script = (
        "import json, sys\n"
        "from mixplan import RunConfig, run_experiment\n"
        f"run_experiment(RunConfig(environment='synthetic', algorithm='planner_sampler', N=20,\n"
        f"    eval_every=10, eval_set_size=20, output_path={str(tmp_path)!r}))\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert _run(script) == []
    assert (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("first", ["mixplan", "scipy"])
def test_routines_are_the_ones_scipy_linalg_lapack_exports(first):
    imports = ["from mixplan import _lapack", "from scipy.linalg import lapack"]
    if first == "scipy":
        imports.reverse()
    script = "\n".join(imports + [
        "import json",
        "print(json.dumps([getattr(_lapack, n) is getattr(lapack, n)"
        " for n in ('dtrtrs', 'dpotrf', 'dpotrs')]))",
    ])
    assert _run(script) == [True, True, True]


def ridge_mismatch(d, n, lam, seed):
    """Whether ``ridge_fit``'s theta_hat differs in any bit from
    ``cho_solve(cho_factor(m, lower=True), rhs)`` on the same Gram matrix."""
    rng = np.random.default_rng(seed)
    features, rewards = rng.normal(size=(n, d)), rng.normal(size=n)
    estimate = ridge_fit(InteractionDataset(d, [""] * n, np.zeros(n), features, rewards), lam)
    expected = cho_solve(cho_factor(estimate.sigma_prime_n, lower=True),
                         features.T @ rewards)
    return estimate.theta_hat.tobytes() != expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 40), n=st.integers(0, 60), lam=st.floats(0.01, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_ridge_theta_equals_cho_solve_bit_for_bit(d, n, lam, seed):
    assert not ridge_mismatch(d, n, lam, seed)


def test_ridge_theta_equals_cho_solve_bit_for_bit_at_two_blas_threads():
    script = (
        "import json, test_lapack as t\n"
        "cases = [(d, n, 0.5 + d / 8, 1000 * d + n) for d in (1, 2, 7, 20, 40)"
        " for n in (0, 1, 5, 30, 60)]\n"
        "print(json.dumps([c for c in cases if t.ridge_mismatch(*c)]))\n"
    )
    assert _run(script, threads="2") == []


def test_missing_extension_is_an_import_error_naming_the_path(monkeypatch):
    import importlib.machinery

    from mixplan import _lapack

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=r"_flapack was not found in .*linalg"):
        _lapack._load_flapack()


def _factor(rng, d):
    m = rng.normal(size=(d, d))
    return np.linalg.cholesky(m @ m.T + d * np.eye(d))


@pytest.mark.parametrize("d", [1, 2, 20, 300])
def test_gil_free_solve_equals_f2py_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for columns in (0, 1, 2, 3, 24, 101, 400):
        chol, rows = _factor(rng, d), rng.normal(size=(columns, d))
        # The layout _mahalanobis_rows solves, then the lower factor as given.
        for a, lower, trans in ((chol.T, 0, 1), (chol.T, 0, 0), (chol, 1, 0), (chol, 1, 1)):
            expected, info = dtrtrs(a, rows.T, lower=lower, trans=trans)
            got, got_info = dtrtrs_nogil(a, rows.T, lower=lower, trans=trans)
            assert (got_info, info) == (0, 0)
            assert got.flags.f_contiguous and got.tobytes() == expected.tobytes(), (columns, lower)


@pytest.mark.parametrize("columns", [2, 400])
def test_zero_on_the_diagonal_raises_the_same_error_either_way(columns):
    chol = np.linalg.cholesky(np.eye(300) * 4.0)
    chol[7, 7] = 0.0
    rows = np.ones((columns, 300))
    assert dtrtrs(chol.T, rows.T, lower=0, trans=1)[1] == 8
    assert dtrtrs_nogil(chol.T, rows.T, lower=0, trans=1)[1] == 8
    with pytest.raises(np.linalg.LinAlgError, match=r"^triangular solve failed \(LAPACK info 8\)$"):
        covariance._mahalanobis_rows(chol, rows)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_every_loaded_openblas(threads):
    assert _run("import json; from mixplan import _lapack;"
                " print(json.dumps(_lapack.blas_threads()))", threads=threads) == int(threads)
