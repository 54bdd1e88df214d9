#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload paper-cold --runs 10

For each end-to-end metric the spread is the distance between the first
and third quartile of the per-run values (``statistics.quantiles(values,
n=4)``) as a share of their median, next to the metric's bound from
``BENCHMARK.json``: the benchmark is steady when every spread is below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        out = subprocess.run(
            [*bench["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: not correct\n{out.stdout}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        took = time.perf_counter() - started
        print(f"seed {seed} ({took:.1f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, series in values.items():
        bound = bounds[name]
        share = spread(series) if len(series) >= 2 else float("nan")
        verdict = ("ok" if share < bound / 3 else
                   "within bound" if share < bound else "TOO WIDE")
        print(f"{name:32s} median {statistics.median(series):14.6g} "
              f"spread {share:7.4f} bound {bound} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
