#!/usr/bin/env python3
"""Regenerate Figure 5 of the paper: impact of memory latency (4-way core).

Sweeps the idealized memory latency over 1, 12 and 50 cycles for all nine
kernels and all four ISAs, prints the cycle counts and the slow-down of each
ISA from the 1-cycle to the 50-cycle design point.

Run:  python examples/run_figure5.py [scale] [--jobs N] [--cache-dir DIR]
                                     [--stream-jsonl PATH] [--resume PATH]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.report import format_latency_table
from repro.cli import (add_sweep_arguments, engine_from_args, engine_summary,
                       stream_sinks)
from repro.experiments.figure5 import (figure5_cycles, figure5_results,
                                       figure5_slowdowns, figure5_sweep)
from repro.workloads.generators import WorkloadSpec


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate Figure 5")
    args = add_sweep_arguments(parser).parse_args()
    spec = WorkloadSpec(scale=args.scale) if args.scale else None
    points = figure5_sweep(spec=spec)
    engine = engine_from_args(args)
    start = time.time()
    with stream_sinks(args, total=len(points)) as on_result:
        results = figure5_results(engine.run(points, on_result=on_result))
    print(format_latency_table(figure5_cycles(results)))

    print("\nSlow-down from 1-cycle to 50-cycle memory latency:")
    slowdowns = figure5_slowdowns(results)
    for kernel, per_isa in slowdowns.items():
        cells = "  ".join(f"{isa:6s} {value:4.1f}x" for isa, value in per_isa.items())
        print(f"  {kernel:10s} {cells}")
    print(f"\n(regenerated in {time.time() - start:.1f}s: "
          f"{engine_summary(engine)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
