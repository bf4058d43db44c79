"""Every script in ``demos/`` runs to completion in a fresh interpreter.

The demos import only the public package names, so a removed or renamed
name shows up here as a failed run.
"""

from pathlib import Path

import pytest

from children import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = run_python([str(demo)], timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
