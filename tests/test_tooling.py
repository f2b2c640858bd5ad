"""The suite's own settings: a failing property test fails alone.

pytest runs with warnings as errors.  Hypothesis imports libcst only when
it reports a failing example, and that import warns that
mypy_extensions.TypedDict is deprecated.  Unless pyproject.toml ignores
that one warning, the first failing @given test ends the session with an
INTERNALERROR (exit 3), and no later test runs.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_exits_1_and_the_session_goes_on(tmp_path):
    # run in tmp_path, so that hypothesis writes its database there
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    # the path in the node id depends on where tmp_path is
    assert re.search(r"^FAILED \S*::test_fails - ", out, re.M), out
    assert "1 failed, 1 passed" in out
