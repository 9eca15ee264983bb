"""The test configuration reports a failing property and runs on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTIES = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_b_passing():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # every warning is an error, and one raised while a failing property is
    # reported must not turn into an INTERNALERROR that skips the tests after it
    (tmp_path / "test_properties.py").write_text(PROPERTIES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
