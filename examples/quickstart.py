#!/usr/bin/env python3
"""Quickstart: run one kernel on all four ISAs and print the paper's metrics.

This is the five-minute tour of the public API:

1. pick a kernel from the registry,
2. build its scalar / MMX / MDMX / MOM variants on a shared synthetic
   workload (every variant is checked against the NumPy golden reference),
3. simulate each instruction trace on the 4-way out-of-order core,
4. derive the paper's metrics (IPC, OPI, R, S, F, VLx, VLy).

Run:  python examples/quickstart.py [kernel] [scale]

The same stack is scriptable from the shell; a typical session::

    $ python -m repro --version
    repro 1.0.0 (timing model v1, front end v1)

    $ python -m repro figure4 --jobs 4 --cache-dir .sweep-cache
    ... speed-up table ...
    [sweep] 144 point(s) simulated, 0 from cache; 108 trace hit(s),
    36 trace build(s) (.sweep-cache)

    $ python -m repro cache stats --cache-dir .sweep-cache
    cache root: .sweep-cache
      results     144 entries, 215.3 KiB
      traces       36 entries, 5.6 MiB
      total       180 entries, 5.8 MiB
      oldest entry: 0.0 day(s) old

    $ python -m repro cache gc --cache-dir .sweep-cache --max-mb 4
    evicted 9 entries (2.1 MiB freed); 171 kept (3.7 MiB)

(each kernel's trace is built once for its first machine configuration and
served from the trace cache for the other three widths — and by any warm
re-run, in any process, until ``repro cache gc``/``clear`` evicts it).
"""

from __future__ import annotations

import sys

from repro import MachineConfig, kernel_names
from repro.analysis.metrics import compute_metrics
from repro.analysis.report import format_breakdown_table
from repro.experiments.runner import run_kernel_all_isas
from repro.workloads.generators import WorkloadSpec


def main() -> int:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "motion1"
    scale = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    if kernel not in kernel_names():
        print(f"unknown kernel {kernel!r}; choose one of: {', '.join(kernel_names())}")
        return 1

    print(f"Kernel: {kernel}   workload scale: {scale}")
    print("Building all four ISA variants and simulating on a 4-way core...\n")

    config = MachineConfig.for_way(4)
    runs = run_kernel_all_isas(kernel, config=config, spec=WorkloadSpec(scale=scale))

    for isa, run in runs.items():
        status = "OK " if run.build.correct else "BAD"
        print(f"  [{status}] {isa:6s}  {len(run.build.trace):6d} instructions  "
              f"{run.sim.operations:7d} operations  {run.cycles:6d} cycles")

    baseline = runs["scalar"].sim
    metrics = {isa: compute_metrics(run.sim, run.stats, baseline)
               for isa, run in runs.items()}
    print()
    print(format_breakdown_table(kernel, metrics))
    print()
    print(f"MOM speed-up over scalar : {metrics['mom'].speedup:5.1f}x")
    print(f"MOM speed-up over MMX    : "
          f"{runs['mmx'].cycles / runs['mom'].cycles:5.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
