"""Self-test of the benchmark: its checks can fail, and its calibration is fair.

    python3 perfbench/selftest.py

Output checks: for each workload, runs one short round against the committed
reference (which must report failed == 0) and one against a copy in which a
single recorded value is altered (which must report failed > 0, so
failed_frac > 0).

Calibration: in this process, times pairs of rounds of the program as it is
and of a changed program, alternating which goes first, and compares the
median ratio changed / as-is of calibrated times (speed.py) with that of raw
times.  The changes are of kinds a later change to the package could make:

- "bulletin x2": the bulletin round done twice, i.e. a program twice as slow;
- "bandit 2 procs": the bandit round's two seeds run in a two-process pool
  that lives across rounds, i.e. seed-level process parallelism, which puts
  load on both vCPUs while the speed probe runs and keeps worker processes
  alive at round boundaries (their outputs must equal the serial ones).

For wall and CPU time each, the calibrated ratio must agree with the raw one
within the bound of wall_s (cpu_s) in BENCHMARK.json, and so must it with
the ratio the change is known to have: 2 for "bulletin x2", and 1 for the
CPU time of "bandit 2 procs" (the same work on more cores).  The raw ratio
itself moves with the host's speed while a pair runs, which is why both are
shown.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
PAIRS = 6


def _corrupt(outs: list, workload: str) -> str:
    """Alter one recorded value of variant 0 in place; describe what changed."""
    first = outs[0]
    if workload == "oracle":
        first["value"] += 1e-6
        return f"oracle value of {first['game']}/{first['oracle']} + 1e-6"
    if workload == "bulletin":
        first["steps"] += 1
        return f"bulletin step count of {first['game']}/{first['geometry']} + 1"
    if workload == "bandit":
        first["visits"][0] += 1
        return f"bandit visits[0] of seed {first['seed']} episode {first['episode']} + 1"
    first["csv"]["last"][1] *= 1.0 + 1e-6
    return f"cli CSV value last[1] of {first['run']} * (1 + 1e-6)"


def _run(workload: str, reference: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_checks() -> bool:
    ok = True
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in ("oracle", "bulletin", "bandit", "cli"):
        clean = _run(workload, REFERENCE)
        reference = json.loads(REFERENCE.read_text())
        what = _corrupt(reference[workload]["0"], workload)
        corrupted_path = out_dir / f"reference-corrupted-{workload}.json"
        corrupted_path.write_text(json.dumps(reference))
        bad = _run(workload, corrupted_path)
        clean_ok = clean["failed"] == 0 and clean["correct"]
        bad_ok = bad["failed"] > 0 and not bad["correct"]
        ok &= clean_ok and bad_ok
        print(f"{workload}: clean failed_frac {clean['failed']}/{clean['attempted']} "
              f"[{'PASS' if clean_ok else 'FAIL'}]; with {what}: failed_frac "
              f"{bad['failed']}/{bad['attempted']} [{'PASS' if bad_ok else 'FAIL'}]", flush=True)
    return ok


_BANDIT_STATE = None  # set before the pool forks, so workers inherit it


def _bandit_seed(seed: int):
    import congames as cg
    import workloads as wl

    game, ref, _ = _BANDIT_STATE
    preset = cg.euclidean_preset(game, episodes=wl.BANDIT_EPISODES, seed=seed)
    return seed, cg.run_bandit(game, preset, reference=ref)


def calibration_checks() -> bool:
    global _BANDIT_STATE
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import run

    run.pin_blas_threads()
    import multiprocessing

    import proctree
    import speed
    import workloads as wl

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    clock = speed.SpeedTrace()

    def timed(fn) -> dict:
        cpu0, t0 = proctree.cpu_seconds(), time.perf_counter()
        fn()
        t1, cpu = time.perf_counter(), proctree.cpu_seconds() - cpu0
        return {"raw wall": t1 - t0, "cal wall": clock.calibrated(t0, t1),
                "raw cpu": cpu, "cal cpu": clock.calibrated(t0, t1, cpu)}

    def compare(label: str, kind: str, as_is, changed, known: dict) -> bool:
        clock.kind = kind
        pairs = []
        for k in range(PAIRS):
            if k % 2 == 0:
                a = timed(as_is)
                b = timed(changed)
            else:
                b = timed(changed)
                a = timed(as_is)
            pairs.append({key: b[key] / a[key] for key in a})
        ratio = {key: statistics.median(p[key] for p in pairs) for key in pairs[0]}
        ok = True
        for what, bound in (("wall", bounds["wall_s"]), ("cpu", bounds["cpu_s"])):
            off = ratio[f"cal {what}"] / ratio[f"raw {what}"] - 1.0
            good = abs(off) <= bound
            line = (f"{label}: {what} ratio raw {ratio[f'raw {what}']:.3f}, calibrated "
                    f"{ratio[f'cal {what}']:.3f}, off by {off:+.3f}")
            if what in known:
                off_known = ratio[f"cal {what}"] / known[what] - 1.0
                good &= abs(off_known) <= bound
                line += f"; known {known[what]:g}, off by {off_known:+.3f}"
            ok &= good
            print(f"{line} (bound {bound:g}) [{'PASS' if good else 'FAIL'}]", flush=True)
        return ok

    clock.start()
    try:
        bulletin = wl.WORKLOADS["bulletin"]
        state = bulletin.setup(wl.DEFAULT_SEED, BENCH_DIR / "out")
        ok = compare("bulletin x2", bulletin.calibration, lambda: bulletin.round(state),
                     lambda: (bulletin.round(state), bulletin.round(state)),
                     {"wall": 2.0, "cpu": 2.0})

        bandit = wl.WORKLOADS["bandit"]
        _BANDIT_STATE = bandit.setup(wl.DEFAULT_SEED, BENCH_DIR / "out")
        serial = bandit.outputs(_BANDIT_STATE, bandit.round(_BANDIT_STATE))
        with multiprocessing.get_context("fork").Pool(2) as pool:
            parallel = bandit.outputs(_BANDIT_STATE, pool.map(_bandit_seed, _BANDIT_STATE[2]))
            same = parallel == serial
            print(f"bandit 2 procs: outputs equal the serial ones "
                  f"[{'PASS' if same else 'FAIL'}]", flush=True)
            ok &= same and compare("bandit 2 procs", bandit.calibration,
                                   lambda: bandit.round(_BANDIT_STATE),
                                   lambda: pool.map(_bandit_seed, _BANDIT_STATE[2]),
                                   {"cpu": 1.0})
    finally:
        clock.stop()
    return ok


def main() -> int:
    ok = output_checks()
    ok &= calibration_checks()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
