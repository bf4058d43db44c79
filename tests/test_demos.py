"""Every script in ``demos/`` runs to completion in a fresh interpreter.

The demos import only the public package names, so a removed or renamed
name shows up here as a failed run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
