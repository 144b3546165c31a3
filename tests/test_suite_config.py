"""The suite's own pytest settings, checked in a child pytest session."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_after_it():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # When a property fails, Hypothesis imports libcst to explain it, and a
    # DeprecationWarning on that import must not become an INTERNALERROR
    # under filterwarnings = error, which would skip every later test.
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = child.stdout + child.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
