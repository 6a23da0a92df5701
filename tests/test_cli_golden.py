"""Golden stdout, stderr and exit codes of the congames CLI.

The CLI's report of the theorem checks is its stdout: one line per
assertion, `[PASS] name: measured m, bound b, margin bound - measured` (or
`[FAIL]`) with every number to 6 significant digits and `, vacuous (limit l)`
after a check that cannot fail, then the summary line.  The recorded file pins
that text byte for byte, with stderr and the exit code, on twelve runs: all
four `--algo` values, `--eps` and `--sigma` targets, the game file and
symmetric and asymmetric generated games, two runs whose checks fail (one
again under `--no-assert`), and the seed-302 bandit run whose unconverged
reference warns on stderr.  Regenerate it only on purpose, from a commit
whose outputs are trusted; the recorder prints every entry that changed,
old -> new:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from congames.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_stdout_golden.json"
ROOT = Path(__file__).resolve().parents[1]

RUNS = (
    "--game games/two_routes.game --algo bulletin-gd --eps 1e-6",
    "--game games/two_routes.game --algo bulletin-mu --sigma 0.25",
    "--game games/two_routes.game --algo bandit-mu --episodes 3 --nu 1",
    "--gen n=4,m=6,d=3,sym=1 --algo bulletin-mu --sigma 0.25",
    "--gen n=4,m=6,d=3,sym=1 --algo bulletin-gd --sigma 0.25 --steps 10",
    "--gen n=4,m=6,d=3,sym=1 --algo bulletin-gd --sigma 0.25 --steps 10 --no-assert",
    "--gen n=5,m=6,d=3,seed=4 --algo bulletin-gd --sigma 0.25",
    "--gen n=5,m=6,d=3,seed=4 --algo bulletin-mu --eps 1e-3 --steps 50",
    "--gen n=4,m=5,d=3,seed=9 --algo bulletin-gd --steps 200",
    "--gen n=3,m=3,d=3,deg=1,sym=1 --algo bandit-gd --episodes 4 --nu 1 --seed 2",
    "--gen n=4,m=5,d=3,seed=7 --algo bandit-mu --episodes 2 --nu 1",
    "--gen n=16,m=8,d=3,seed=302 --algo bandit-gd --episodes 1 --seed 0",
)


def _run(args: str) -> dict:
    argv = [str(ROOT / a) if a.startswith("games/") else a for a in args.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("args", RUNS)
def test_cli_output_matches_golden(golden, args, monkeypatch):
    monkeypatch.delenv("CONGESTION_LOG_LEVEL", raising=False)
    assert _run(args) == golden[args]


if __name__ == "__main__":
    import os

    from golden import write_golden

    os.environ.pop("CONGESTION_LOG_LEVEL", None)
    write_golden(GOLDEN, {args: _run(args) for args in RUNS})
