"""repro — a reproduction of the MOM matrix SIMD ISA study (SC'99).

The package is organised as a stack of substrates:

* :mod:`repro.common` — packed sub-word arithmetic (saturation, widening
  multiplies, fixed point) shared by every ISA model.
* :mod:`repro.isa` — architectural state (register files, accumulators) and
  bit-accurate instruction semantics for the four ISAs studied in the paper:
  a scalar Alpha-like baseline, an MMX-like extension, an MDMX-like extension
  (packed accumulators) and MOM itself.
* :mod:`repro.frontend` — the functional machine and the per-ISA *builders*
  that kernels use to emit code; every emitted instruction is executed
  immediately (execute-at-emit) and recorded as a dynamic-instruction trace.
* :mod:`repro.trace` — dynamic instruction records and trace statistics.
* :mod:`repro.timing` — a trace-driven out-of-order core model (the "Jinks"
  substitute) with configurable issue width and memory latency.
* :mod:`repro.kernels` — the nine MediaBench kernels evaluated by the paper,
  each written four times (scalar, MMX, MDMX, MOM) against NumPy references.
* :mod:`repro.workloads` — deterministic synthetic workload generators.
* :mod:`repro.analysis` — the paper's metrics (IPC, OPI, R, S, F, VLx, VLy)
  and report formatting.
* :mod:`repro.experiments` — drivers that regenerate Figure 4, Figure 5 and
  Tables 1–9 of the paper, plus ablations.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MachineConfig",
    "OutOfOrderCore",
    "simulate_trace",
    "FunctionalMachine",
    "ScalarBuilder",
    "MMXBuilder",
    "MDMXBuilder",
    "MOMBuilder",
    "KERNELS",
    "get_kernel",
    "kernel_names",
    "KernelMetrics",
    "compute_metrics",
    "run_kernel",
    "RunResult",
]

__version__ = "1.0.0"

# Served on first use, so ``import repro`` (which every ``repro.*`` import
# runs) loads no submodule.
__getattr__ = lazy_exports(__name__, {
    "repro.timing.config": ["MachineConfig"],
    "repro.timing.core": ["OutOfOrderCore", "simulate_trace"],
    "repro.frontend.machine": ["FunctionalMachine"],
    "repro.frontend.builders": ["ScalarBuilder", "MMXBuilder",
                                "MDMXBuilder", "MOMBuilder"],
    "repro.kernels.catalog": ["kernel_names"],
    "repro.kernels.registry": ["KERNELS", "get_kernel"],
    "repro.analysis.metrics": ["KernelMetrics", "compute_metrics"],
    "repro.experiments.runner": ["run_kernel", "RunResult"],
})
