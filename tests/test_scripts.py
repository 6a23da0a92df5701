"""Smoke runs of the experiment scripts, which consume the dynamics' reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, arguments, header line of its table (whitespace-normalized)
RUNS = [
    ("bulletin_convergence.py", ["--games", "2", "--eps", "1e-2"],
     "game algo steps budget final gap CA ratio"),
    ("bandit_convergence.py", ["--players", "3", "--links", "3", "--episodes", "1"],
     "episode steps phi gap est error"),
]


@pytest.mark.parametrize("script, args, header", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    assert header in lines
