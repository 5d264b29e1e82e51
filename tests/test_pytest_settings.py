"""The repository's pytest settings keep a session running past a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_AND_PASSING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # Reporting a failed @given test imports hypothesis.extra._patching, whose
    # import chain warns; under filterwarnings = error that warning, unless
    # ignored, ends the session with an INTERNALERROR before later tests run.
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY_AND_PASSING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "test_property_fails - assert" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
