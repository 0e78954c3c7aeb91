"""Every script under ``examples/`` runs to completion.

README points users at the examples, so each one is run as a user would:
a fresh interpreter on the checkout's ``src``, in a scratch working
directory (``scenario_sweep.py`` writes its CSV into the current one).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    finished = subprocess.run([sys.executable, "-B", str(script)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.strip()
