"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

Runs `run.py --record` once per workload and recorded variant (the default
inputs and the held-out ones), one process at a time, each writing the
outputs of one round into perfbench/reference.json.  Run it on the commit
whose outputs are the reference (the seed commit for the committed file),
never to make a failing check pass.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import RECORDED_VARIANTS  # noqa: E402


def main() -> int:
    for workload in WORKLOAD_NAMES:
        for variant in RECORDED_VARIANTS:
            subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                            "--seed", str(variant), "--record"],
                           cwd=BENCH_DIR.parent, check=True, timeout=600)
    return 0


if __name__ == "__main__":
    sys.exit(main())
