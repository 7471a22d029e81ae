"""The three LAPACK routines mixplan calls, from SciPy's compiled extension.

``dtrtrs`` (triangular solve), ``dpotrf`` (Cholesky factor) and ``dpotrs``
(Cholesky solve) come from ``scipy/linalg/_flapack``, loaded on its own:
importing ``scipy.linalg`` would also import most of SciPy's Python layer
(``numpy.f2py`` among it), about 0.3 s of every process's start-up, while
the extension alone loads in a few milliseconds. The module is loaded under
its real name, ``scipy.linalg._flapack``, so these are the same function
objects that ``scipy.linalg.lapack`` exports, whichever is imported first.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path


def _load_flapack():
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("mixplan needs scipy for its compiled LAPACK, and scipy is not installed")
    linalg_dir = str(Path(scipy_spec.submodule_search_locations[0]) / "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK extension _flapack was not found in {linalg_dir}")
    spec.name = "scipy.linalg._flapack"
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dtrtrs = _flapack.dtrtrs
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
