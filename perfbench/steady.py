"""Repeat mode: run one workload several times and report each metric's spread.

    python3 perfbench/steady.py --workload oracle [--runs 10] [--trace 0|1]
                                [--json PATH]

Runs perfbench/run.py once per seed 1, 2, ..., runs (every one of them
selects the default inputs, so the spread is the machine's), one run at a
time, and prints for every metric the median and quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / |median|.
Besides the result line's metrics it summarizes the uncalibrated medians
raw_wall_s and raw_cpu_s from each run's record.
For end-to-end metrics the spread is compared with the bound in
BENCHMARK.json: "steady" below a third of the bound, "within" below the
bound.  Each run lasts the run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, run record) of one run.py process."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(record)["record"]


def summarize(results: list[dict], bounds: dict) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        med = statistics.median(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        row = {"unit": results[0]["metrics"][name]["unit"], "median": med,
               "q1": q1, "q3": q3, "spread": spread, "values": values}
        if name in bounds:
            row["bound"] = bounds[name]
            row["verdict"] = ("steady" if spread < bounds[name] / 3
                              else "within" if spread <= bounds[name] else "UNSTEADY")
        table[name] = row
    return table


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path,
                   help="merge the summary into this file, under workload and trace")
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    results = []
    for seed in range(1, args.runs + 1):
        res, record = run_once(args.workload, seed, seconds, args.trace)
        if args.trace == 0:
            res["metrics"]["raw_wall_s"] = {"value": record["raw_wall_quartiles_s"][1],
                                            "unit": "s"}
            res["metrics"]["raw_cpu_s"] = {"value": record["raw_cpu_quartiles_s"][1],
                                           "unit": "s"}
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()
                         if not n.endswith("calls")), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = summarize(results, bounds)
    print(f"\n{args.workload}: {args.runs} runs, seeds 1..{args.runs}, {seconds:g} s each")
    for name, row in table.items():
        verdict = f"  {row['verdict']} (bound {row['bound']:g})" if "verdict" in row else ""
        print(f"  {name:<26} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
              f"q3 {row['q3']:<12.6g} spread {row['spread']:.3f}{verdict}")
    failed = sum(r["failed"] for r in results)
    print(f"  failed items: {failed} of {sum(r['attempted'] for r in results)}")
    if args.json:
        merged = json.loads(args.json.read_text()) if args.json.exists() else {}
        merged.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "runs": args.runs, "seeds": [1, args.runs], "seconds": seconds,
            "failed": failed, "env": record["env"], "metrics": table}
        args.json.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
