"""Run one workload over several seeds and report how steady it is.

    python3 perfbench/spread.py --workload tpch-local --seeds 1-10
    python3 perfbench/spread.py --workload tpch-tight --seeds 3,3 --trace 1

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median. When a
seed appears more than once, every count metric (unit ``count``, plus
``peak_band_mib`` and ``spark.shipped_mib``) must repeat exactly across
its runs; the script exits 1 when one does not.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count",)
EXACT_NAMES = ("peak_band_mib", "spark.shipped_mib", "spark.shipped_mib_per_task",
               "fusion.chunks_per_subtask")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values: dict[str, list[float]] = defaultdict(list)
    by_seed: dict[int, list[dict]] = defaultdict(list)
    units: dict[str, str] = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        units.update({k: m["unit"] for k, m in result["metrics"].items()})
        by_seed[seed].append(metrics)
        for k, v in metrics.items():
            values[k].append(v)
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()
                          if units[k] != "count"),
              flush=True)

    print(f"\n{'metric':30s} {'median':>12s} {'iqr/median':>11s}  n")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{k:30s} {med:12.6g} {spread:11.4f}  {len(vs)} {units[k]}")

    for seed, runs in by_seed.items():
        for k in runs[0]:
            if units[k] in EXACT_UNITS or k in EXACT_NAMES:
                seen = {r[k] for r in runs}
                if len(seen) > 1:
                    print(f"seed {seed}: {k} does not repeat: {sorted(seen)}")
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
