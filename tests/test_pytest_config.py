"""The repository's pytest settings report every failure of a run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # a failing @given test once ended the run with INTERNALERROR (exit 3),
    # and the plain failure after it went unreported
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "2 failed" in out
    assert "INTERNALERROR" not in out
