"""The suite's own pytest settings, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    # reporting a failed Hypothesis example imports libcst, whose import
    # warns; with every warning an error and no exception for that one, the
    # report ends the run as an internal error (exit 3) and no later test runs
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
