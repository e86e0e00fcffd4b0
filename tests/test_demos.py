"""Smoke test: every script under demos/ runs to completion."""

import subprocess
import sys

import pytest

from qillum.cli import OUT_DIR_ENV

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = src_env()
    env.pop(OUT_DIR_ENV, None)  # demos read back the files they write in their working directory
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
