"""Benchmark of congames: one workload per run, checked outputs, one JSON result.

    python3 perfbench/run.py --workload {oracle,bulletin,bandit,cli}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  A run sets up its inputs from the
seed, then repeats identical rounds of fixed work until --seconds have
passed, checking every round's outputs against the recorded ones
(perfbench/reference.json).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s, wall_s and
cpu_s (medians over rounds of the fixed work) and peak_rss_mb.  With
--trace 1 rounds alternate untraced and traced, and the metrics are the
per-layer ones from the spans of traced rounds (see spans.py), including
trace.overhead_frac, plus the untraced rounds' uncalibrated medians
raw.wall_s and raw.cpu_s and their machine speed calibration.speed.  The
line before the result is a JSON record of the environment, every round (raw
and calibrated times) and every failed check; the same record (and, when
traced, every span) is written under perfbench/out/.

--record writes the outputs of one round for the seed's variant into the
reference file instead of measuring; see perfbench/README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"  # run records, spans and CLI outputs; ignored by git
WORKLOAD_NAMES = ("oracle", "bulletin", "bandit", "cli")
SETUP_REPEATS = 3
DEFAULT_SECONDS = 20


def _process_age() -> float:
    """Seconds since this process started, so setup_s includes interpreter start."""
    try:
        with open("/proc/self/stat") as fh:
            after_name = fh.read().rsplit(")", 1)[1].split()
        started = int(after_name[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_PROCESS_START = min(_START, time.perf_counter() - _process_age())


def _peak_rss_mb(clock) -> float:
    """Largest of: own peak, the largest waited-for child, the sampled tree sum."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
              clock.tree_rss_peak // 1024)
    return kib / 1024.0


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "congames").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0); seed 15 selects the held-out inputs, "
                        "every other seed the default ones")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help=f"length of the timed phase (default {DEFAULT_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json",
                   help="recorded outputs to check against")
    p.add_argument("--record", action="store_true",
                   help="write one round's outputs for this variant into --reference")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads() -> dict:
    """Fix the BLAS threads before numpy is imported: min(2, nproc), no spinning.

    Idle OpenBLAS workers otherwise spin for up to 2**28 cycles after each
    call.  Between the many small calls of the cli workload they used 1.8 s
    of CPU per 4.2 s of wall time that way, against 0.03 s with the shortest
    timeout (2**4 cycles), and cli's cpu_s moved by 14% between two sets of
    runs of the same code.  Without the spinning, cpu_s counts work.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_threads = min(2, nproc or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "blas_threads": blas_threads,
            "openblas_thread_timeout": 4}


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_blas_threads()
    env["loadavg_at_start"] = os.getloadavg()

    if not (SRC / "congames" / "__init__.py").is_file():
        print(f"error: no congames sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import speed  # imports numpy

    clock = speed.SpeedTrace("small")
    clock.start()
    try:
        return _run(args, clock, env)
    finally:
        clock.stop()


def _run(args, clock, env: dict) -> int:
    """Everything after the speed trace starts: imports, setup, rounds, report."""
    numpy_end = time.perf_counter()
    import numpy as np
    import scipy

    import congames
    import proctree
    import spans as tracing
    import speed
    import workloads as wl

    if Path(congames.__file__).resolve().parent != SRC / "congames":
        print(f"error: imported congames from {congames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_end = time.perf_counter()
    import_s = (numpy_end - _PROCESS_START) + clock.calibrated(numpy_end, import_end)

    seed = args.seed
    variant = wl.variant_of(seed)
    workload = wl.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    reference = json.loads(args.reference.read_text()) if args.reference.exists() else {}
    recorded = reference.get(args.workload, {}).get(str(variant))

    tracer = tracing.Tracer() if args.trace == 1 and not args.record else None
    if tracer:
        tracer.install()
    setups, setup_roots = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.root("setup") if tracer else contextlib.nullcontext() as idx:
            state = workload.setup(variant, OUT)
        if idx is not None:
            setup_roots.append(idx)
        t1 = time.perf_counter()
        setups.append({"raw_s": t1 - t0, "s": clock.calibrated(t0, t1),
                       "speed": clock.window(t0, t1)[1]})
    if tracer:
        tracer.uninstall()
    setup_s = import_s + statistics.median(r["s"] for r in setups)

    if args.record:
        outs = workload.outputs(state, workload.round(state))
        reference.setdefault(args.workload, {})[str(variant)] = outs
        reference.setdefault("_recorded_from", {})[args.workload] = {
            "git_sha": _git_sha(), "src_sha256": _src_digest()}
        args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.workload} variant {variant} into {args.reference}")
        return 0

    clock.kind = workload.calibration
    checks = wl.Checks()
    rounds: list[dict] = []
    round_roots: list[int] = []
    io_counts: dict = {}
    phase_start = time.perf_counter()
    while True:
        on = tracer is not None and len(rounds) % 2 == 1
        if on:
            tracer.install()
        cpu0, t0 = proctree.cpu_seconds(), time.perf_counter()
        with tracer.root("round") if on else contextlib.nullcontext() as idx:
            raw = workload.round(state)
        if idx is not None:
            round_roots.append(idx)
        t1, cpu = time.perf_counter(), proctree.cpu_seconds() - cpu0
        if on:
            tracer.uninstall()
        rounds.append({"wall_s": clock.calibrated(t0, t1), "cpu_s": clock.calibrated(t0, t1, cpu),
                       "raw_wall_s": t1 - t0, "raw_cpu_s": cpu,
                       "speed": clock.window(t0, t1)[1], "traced": on})
        io_counts = workload.check(workload.outputs(state, raw), recorded, checks)
        enough = len(rounds) >= (2 if tracer else 1)
        median_round = statistics.median(r["raw_wall_s"] for r in rounds)
        if enough and time.perf_counter() - phase_start + median_round > args.seconds:
            break

    untraced = [r for r in rounds if not r["traced"]]
    wall_q = _quartiles([r["wall_s"] for r in untraced])
    cpu_q = _quartiles([r["cpu_s"] for r in untraced])
    raw_wall_q = _quartiles([r["raw_wall_s"] for r in untraced])
    raw_cpu_q = _quartiles([r["raw_cpu_s"] for r in untraced])
    speed_med = statistics.median(r["speed"] for r in untraced)
    failed = len(checks.failures)
    failed_frac = failed / checks.attempted

    if tracer:
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(traced_walls) / wall_q[1] - 1.0
        setup_tot = tracing.pass_totals(tracer.spans, setup_roots[0], setups[0]["speed"])
        round_tots = [tracing.pass_totals(tracer.spans, idx, r["speed"])
                      for idx, r in zip(round_roots, [r for r in rounds if r["traced"]])]
        metrics = tracing.layer_metrics(setup_tot, round_tots, overhead, io_counts)
        metrics["raw.wall_s"] = {"value": raw_wall_q[1], "unit": "s"}
        metrics["raw.cpu_s"] = {"value": raw_cpu_q[1], "unit": "s"}
        metrics["calibration.speed"] = {"value": speed_med, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_q[1], "unit": "s"},
            "cpu_s": {"value": cpu_q[1], "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(clock), "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": seed, "variant": variant, "trace": args.trace,
        "seconds": args.seconds,
        "env": {
            **env, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(), "src_sha256": _src_digest(),
            "machine": platform.machine(),
        },
        "calibration": {"round_kernel": workload.calibration, "period_s": speed.PERIOD_S,
                        "samples": len(clock.samples)},
        "import_s": import_s, "raw_import_s": import_end - _PROCESS_START,
        "setups": setups,
        "rounds": rounds,
        "wall_quartiles_s": wall_q, "cpu_quartiles_s": cpu_q,
        "raw_wall_quartiles_s": raw_wall_q, "raw_cpu_quartiles_s": raw_cpu_q,
        "speed_median": speed_med,
        "attempted": checks.attempted, "failed": failed, "failed_frac": failed_frac,
        "failures": checks.failures[:50],
        "reference": str(args.reference), "recorded_variant": recorded is not None,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"workload={args.workload} seed={seed} variant={variant} trace={args.trace} "
          f"rounds={len(rounds)} items={checks.attempted}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'raw wall_s (uncalibrated)':<26} {raw_wall_q[1]:>14.6g} s")
    print(f"  {'raw cpu_s (uncalibrated)':<26} {raw_cpu_q[1]:>14.6g} s")
    print(f"  {'failed_frac':<26} {failed_frac:>14.6g} ratio ({failed} of {checks.attempted})")
    for line in checks.failures[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
