"""Smoke test: every script under ``scripts/`` runs to completion on a small case."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMALL_ARGS = {
    "inner_vertex_flow.py": ["--max-iter", "3"],
}


def test_every_script_is_listed():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", sorted(SMALL_ARGS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SMALL_ARGS[script]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
