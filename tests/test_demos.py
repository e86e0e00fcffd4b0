"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qillum.cli import OUT_DIR_ENV

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop(OUT_DIR_ENV, None)  # demos read back the files they write in their working directory
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
