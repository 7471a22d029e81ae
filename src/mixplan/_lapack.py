"""The three LAPACK routines mixplan calls, from SciPy's compiled extension.

``dtrtrs`` (triangular solve), ``dpotrf`` (Cholesky factor) and ``dpotrs``
(Cholesky solve) come from ``scipy/linalg/_flapack``, loaded on its own:
importing ``scipy.linalg`` would also import most of SciPy's Python layer
(``numpy.f2py`` among it), about 0.3 s of every process's start-up, while
the extension alone loads in a few milliseconds. The module is loaded under
its real name, ``scipy.linalg._flapack``, so these are the same function
objects that ``scipy.linalg.lapack`` exports, whichever is imported first.

The f2py wrappers hold the interpreter lock while LAPACK runs, so two
threads solving at once take turns. ``dtrtrs_nogil`` is a second entry to
the same Fortran ``dtrtrs``: it calls the routine's address, which f2py
keeps in ``_flapack.dtrtrs._cpointer``, through ``ctypes``, which releases
the lock for the call. It passes the arguments the f2py wrapper passes, so
it gives the same bits. mixplan makes every triangular solve through it; a
call costs about 5 µs more than the wrapper's (d = 4).

``blas_threads`` reads the thread count of every loaded OpenBLAS: numpy's,
which ``numpy.linalg._umath_linalg`` links, and SciPy's, which ``_flapack``
links. Each count is read through ``ctypes`` from the extension's own
handle, whose symbol lookup also searches the libraries it links, so no
wheel's library file name is needed.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np
import numpy.linalg._umath_linalg


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


def _fortran_dtrtrs():
    """The Fortran ``dtrtrs`` behind the f2py wrapper, as a ``ctypes``
    function: (uplo, trans, diag, n, nrhs, a, lda, b, ldb, info), every
    argument by address. ``_flapack`` is SciPy's LP64 build, so the integers
    are C ints."""
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    get_pointer.restype = ctypes.c_void_p
    address = get_pointer(dtrtrs._cpointer, None)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                                 *[ctypes.c_void_p] * 7)
    return prototype(address)


_DTRTRS = _fortran_dtrtrs()

#: dtrtrs's integer arguments in one buffer: n, nrhs, lda, ldb, info.
_INTS = ctypes.c_int * 5
_INT = ctypes.sizeof(ctypes.c_int)


def dtrtrs_nogil(a: np.ndarray, b: np.ndarray, lower: int = 0,
                 trans: int = 0) -> tuple[np.ndarray, int]:
    """``dtrtrs(a, b, lower=lower, trans=trans)`` without the interpreter
    lock, bit for bit: the solution in a Fortran-ordered copy of ``b``, and
    LAPACK's info (i > 0 when a's i-th diagonal entry is zero)."""
    a = np.asarray(a, dtype=np.float64, order="F")  # a view when already Fortran-ordered
    x = np.array(b, dtype=np.float64, order="F")  # always a copy, like f2py's
    if a.ndim != 2 or a.shape[0] != a.shape[1] or x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ValueError(f"dtrtrs needs a square a and b with as many rows, got shapes "
                         f"{a.shape} and {x.shape}")
    if trans not in (0, 1):
        raise ValueError(f"trans must be 0 or 1, got {trans!r}")
    n, nrhs = x.shape
    ints = _INTS(n, nrhs, n, n, 0)
    at = ctypes.addressof(ints)
    _DTRTRS(b"L" if lower else b"U", b"T" if trans else b"N", b"N", at, at + _INT,
            a.ctypes.data, at + 2 * _INT, x.ctypes.data, at + 3 * _INT, at + 4 * _INT)
    return x, ints[4]


#: The OpenBLAS thread-count getters of SciPy's wheels (64-bit integer build
#: for numpy, 32-bit for SciPy) and of plain OpenBLAS builds.
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _thread_getter(extension_path: str):
    """The OpenBLAS thread-count getter that ``extension_path`` links, or
    None when it links none that is known."""
    library = ctypes.CDLL(extension_path)  # the loaded extension's own handle
    for name in _THREAD_GETTERS:
        try:
            getter = getattr(library, name)
        except AttributeError:
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return getter
    return None


_GETTERS = tuple(_thread_getter(module.__file__)
                 for module in (numpy.linalg._umath_linalg, _flapack))


def blas_threads() -> int | None:
    """The most threads any loaded OpenBLAS runs a call on, read now, or None
    when a BLAS's count cannot be read."""
    if None in _GETTERS:
        return None
    return max(getter() for getter in _GETTERS)
