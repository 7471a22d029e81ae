"""Versioned ``.npz`` artifacts: the mixture policy and the ridge estimate.

An artifact is one uncompressed ``.npz`` archive holding named arrays plus
a ``format`` marker and a ``version``. Files are written and read through
an open binary handle, so the path is used exactly as given (``np.savez``
would otherwise append ``.npz`` to a bare name), and read with
``allow_pickle=False``. Anything that is not a readable archive of the
expected format, version and keys fails with ``ConfigurationError``.
"""

from __future__ import annotations

import zipfile

import numpy as np
from numpy.lib.npyio import NpzFile

from .core import ConfigurationError


def write_artifact(path, fmt: str, version: int, **arrays) -> None:
    """Write ``arrays`` plus the format marker and version to ``path``."""
    with open(path, "wb") as handle:
        np.savez(handle, format=np.str_(fmt), version=np.int64(version), **arrays)


def read_artifact(path, fmt: str, version: int, keys, remedy: str) -> dict:
    """Every array of the artifact at ``path``, after checking its format,
    version and that ``keys`` are present. ``remedy`` tells the user how to
    replace an artifact written by an older release."""
    with open(path, "rb") as handle:
        if handle.read(1) == b"{":
            raise ConfigurationError(
                f"{path} is a JSON artifact from an older mixplan release; {remedy}"
            )
        handle.seek(0)
        try:
            payload = np.load(handle, allow_pickle=False)
            arrays = {}
            if isinstance(payload, NpzFile):
                with payload:
                    arrays = {key: payload[key] for key in payload.files}
        except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigurationError(f"{path} is not a readable .npz artifact: {exc}") from exc
    found_fmt = arrays.get("format")
    if found_fmt is None or found_fmt.shape != () or str(found_fmt) != fmt:
        raise ConfigurationError(f"{path} is not a {fmt} artifact")
    found_version = scalar(arrays, "version", int)
    if found_version != version:
        raise ConfigurationError(
            f"{path} has {fmt} version {found_version}, this release reads version {version}"
        )
    missing = sorted(set(keys) - set(arrays))
    if missing:
        raise ConfigurationError(f"{path} lacks the keys {missing}")
    return arrays


def scalar(arrays: dict, key: str, kind: type):
    """The 0-d entry ``key`` as a Python ``int`` or ``float``."""
    value = arrays.get(key)
    kinds = "iu" if kind is int else "iuf"
    if value is None or value.shape != () or value.dtype.kind not in kinds:
        raise ConfigurationError(f"artifact entry {key!r} must be a {kind.__name__} scalar")
    return kind(value)
