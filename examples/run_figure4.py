#!/usr/bin/env python3
"""Regenerate Figure 4 of the paper: speed-up over scalar vs issue width.

Runs all nine kernels on 1-, 2-, 4- and 8-way machines for the four ISAs and
prints the speed-up table (the data behind the paper's bar charts).

Run:  python examples/run_figure4.py [scale] [--jobs N] [--cache-dir DIR]
                                     [--stream-jsonl PATH] [--resume PATH]

``--jobs`` fans the 144 sweep points out over worker processes; with
``--cache-dir`` a warm re-run does zero simulations (and a warm *miss* —
a new machine configuration over cached traces — does zero trace builds).
``--stream-jsonl`` appends each point's result as a JSON line the moment
it completes; on a TTY a live progress line tracks the sweep.  With
``--resume PATH`` every completed point lands in a write-ahead journal,
so an interrupted run picks up where it stopped.
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.report import format_speedup_table
from repro.cli import (add_sweep_arguments, engine_from_args, engine_summary,
                       stream_sinks)
from repro.experiments.figure4 import (figure4_results, figure4_speedups,
                                       figure4_sweep)
from repro.workloads.generators import WorkloadSpec


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate Figure 4")
    args = add_sweep_arguments(parser).parse_args()
    spec = WorkloadSpec(scale=args.scale) if args.scale else None
    points = figure4_sweep(spec=spec)
    engine = engine_from_args(args)
    start = time.time()
    with stream_sinks(args, total=len(points)) as on_result:
        results = figure4_results(engine.run(points, on_result=on_result))
    speedups = figure4_speedups(results)
    print(format_speedup_table(speedups))
    print(f"\n(regenerated in {time.time() - start:.1f}s: "
          f"{engine_summary(engine)})")

    # Headline summary matching the paper's abstract.
    extra = []
    for kernel, per_isa in speedups.items():
        best_subword = max(per_isa["mmx"][4], per_isa["mdmx"][4])
        extra.append(per_isa["mom"][4] / best_subword)
    print(f"MOM additional speed-up over the best sub-word ISA at 4-way: "
          f"{min(extra):.2f}x .. {max(extra):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
