"""The suite's pytest settings report a failing Hypothesis test as failed.

`filterwarnings = ["error"]` turns every warning into an error, and a
third-party `DeprecationWarning` raised in Hypothesis's report hook would
then crash pytest with INTERNALERROR on any failing Hypothesis test, hiding
which test failed.  The settings ignore that one warning; this test plants a
failing Hypothesis test and runs pytest on it with the repo's settings.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1 and "1 failed" in out
    assert "FAILED test_planted.py::test_planted" in out
