#!/usr/bin/env python3
"""Regenerate Tables 1-9 of the paper: IPC / OPI / R / S / F / VLx / VLy per
kernel and ISA on the 4-way core with perfect (1-cycle) memory.

Run:  python examples/run_tables.py [scale] [--jobs N] [--cache-dir DIR]
                                    [--stream-jsonl PATH] [--resume PATH]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.report import format_breakdown_table
from repro.cli import (add_sweep_arguments, engine_from_args, engine_summary,
                       stream_sinks)
from repro.experiments.tables import (TABLE_NUMBERS, breakdown_tables,
                                      tables_sweep)
from repro.workloads.generators import WorkloadSpec


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate Tables 1-9")
    args = add_sweep_arguments(parser).parse_args()
    spec = WorkloadSpec(scale=args.scale) if args.scale else None
    points = tables_sweep(spec=spec)
    engine = engine_from_args(args)
    start = time.time()
    with stream_sinks(args, total=len(points)) as on_result:
        tables = breakdown_tables(engine.run(points, on_result=on_result))
    for kernel in sorted(tables, key=lambda k: TABLE_NUMBERS[k]):
        print(f"\n(paper Table {TABLE_NUMBERS[kernel]})")
        print(format_breakdown_table(kernel, tables[kernel]))
    print(f"\n(regenerated in {time.time() - start:.1f}s: "
          f"{engine_summary(engine)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
