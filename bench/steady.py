"""Steadiness: run each workload with several seeds and print, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median.

    python3 bench/steady.py --runs 10 [--workload glue-ladder ...] [--seconds 20]

Runs are sequential, one process each, from the root of the checkout.  The
spreads are what the bounds in BENCHMARK.json are set from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One run's result and its wall time, start-up and checks included."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            out, wall = run_once(workload, seed, args.seconds)
            runs.append(out)
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in out["metrics"].items()})
                + f" in {wall:.1f} s", flush=True)
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        ratios = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)} ({'one value' if len(ratios) == 1 else 'DIFFERS'})")
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:14s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                  f"  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
