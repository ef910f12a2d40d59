"""The project's pytest configuration reports every failure of a run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # under filterwarnings = ["error"], a warning raised while hypothesis reports
    # the failing example would stop the session with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    result = subprocess.run(
        [*argv, "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output.splitlines()[-1], output
