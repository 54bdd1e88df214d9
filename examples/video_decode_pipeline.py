#!/usr/bin/env python3
"""Domain scenario: an MPEG-2 decode macroblock pipeline.

The paper motivates MOM with video codecs.  This example assembles the three
decoder kernels the paper evaluates — inverse DCT, motion-compensation
blending and the saturated residual add — into the per-macroblock work of a
small synthetic "frame", and compares the end-to-end cycle cost of the four
ISAs (per-kernel and total), i.e. the Amdahl view across a realistic kernel
mix rather than one kernel at a time.

Run:  python examples/video_decode_pipeline.py [macroblocks]
"""

from __future__ import annotations

import sys

from repro import MachineConfig
from repro.experiments.runner import run_kernel_all_isas
from repro.workloads.generators import WorkloadSpec

#: Kernel invocations per macroblock in an MPEG-2 P-frame decode:
#: six 8x8 blocks go through the IDCT and the residual add, and one 16x16
#: luma block (plus chroma, folded in) is motion compensated.
PIPELINE = (
    ("idct", 6),
    ("addblock", 6),
    ("comp", 1),
)

ISAS = ("scalar", "mmx", "mdmx", "mom")


def main() -> int:
    macroblocks = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    config = MachineConfig.for_way(4)
    print(f"MPEG-2 decode pipeline over {macroblocks} macroblocks "
          f"(4-way core, 1-cycle memory)\n")

    totals = {isa: 0 for isa in ISAS}
    print(f"{'kernel':10s} {'calls':>6s} " +
          " ".join(f"{isa:>10s}" for isa in ISAS))
    for kernel_name, calls_per_mb in PIPELINE:
        calls = calls_per_mb * macroblocks
        runs = run_kernel_all_isas(kernel_name, config=config,
                                   spec=WorkloadSpec(scale=1))
        cells = []
        for isa in ISAS:
            # cycles for one kernel invocation at scale 1, times call count
            cycles = runs[isa].cycles * calls
            totals[isa] += cycles
            cells.append(f"{cycles:10d}")
        print(f"{kernel_name:10s} {calls:6d} " + " ".join(cells))

    print(f"{'total':10s} {'':6s} " +
          " ".join(f"{totals[isa]:10d}" for isa in ISAS))
    print()
    for isa in ("mmx", "mdmx", "mom"):
        print(f"pipeline speed-up of {isa.upper():5s} over scalar: "
              f"{totals['scalar'] / totals[isa]:5.2f}x")
    print(f"pipeline speed-up of MOM over MMX          : "
          f"{totals['mmx'] / totals['mom']:5.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
