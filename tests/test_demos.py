"""Every narrative script in demos/ runs to completion, cleanly.

Each demo runs in its own interpreter with the package on PYTHONPATH and
a scratch working directory, since some demos write files there. Warnings
are errors, and a demo must write nothing to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = os.environ | {"PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
