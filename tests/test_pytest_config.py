"""The repository's pytest settings report a failing hypothesis example.

To print the failing example as a patch, hypothesis imports ``libcst``,
which imports ``mypy_extensions.TypedDict`` and so raises a
``DeprecationWarning``. Under ``error::DeprecationWarning`` alone that
warning ends the whole session with ``INTERNALERROR``; the ini options
ignore exactly that one warning.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_hypothesis_example_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
