"""The paper's performance metrics (section 4.4).

For every kernel and ISA the paper reports

* ``IPC``  — instructions committed per cycle,
* ``OPI``  — elemental operations per instruction,
* ``R``    — reduction of the overall number of operations relative to the
  scalar (Alpha) code: ``R = NOPS_alpha / NOPS_isa``,
* ``S``    — speed-up over the scalar code (cycle ratio),
* ``F``    — fraction of instructions that are vector (SIMD) instructions,
* ``VLx``  — average sub-word vector length of the vector instructions,
* ``VLy``  — average dimension-Y vector length of the vector instructions.

The decomposition identity the paper derives,
``S = R * IPC_isa * OPI_isa / IPC_alpha``, is exposed by
:func:`speedup_decomposition` and checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.timing.results import SimResult
from repro.trace.stats import TraceStats

__all__ = ["KernelMetrics", "compute_metrics", "speedup_decomposition"]


@dataclass(frozen=True)
class KernelMetrics:
    """One row of the paper's per-kernel breakdown tables."""

    kernel: str
    isa: str
    ipc: float
    opi: float
    r: float
    speedup: float
    f: float
    vlx: float
    vly: float
    cycles: int
    instructions: int
    operations: int


def compute_metrics(sim: SimResult, stats: TraceStats,
                    baseline: SimResult) -> KernelMetrics:
    """Derive one table row from a timing result and its trace statistics.

    ``baseline`` is the scalar (Alpha) run of the same kernel on the same
    machine configuration; R and S are relative to it.
    """
    nops_baseline = baseline.operations
    r = nops_baseline / sim.operations if sim.operations else 0.0
    speedup = baseline.cycles / sim.cycles if sim.cycles else 0.0
    return KernelMetrics(
        kernel=sim.kernel,
        isa=sim.isa,
        ipc=sim.ipc,
        opi=stats.operations_per_instruction,
        r=r,
        speedup=speedup,
        f=stats.vector_fraction,
        vlx=stats.avg_vlx,
        vly=stats.avg_vly,
        cycles=sim.cycles,
        instructions=sim.instructions,
        operations=sim.operations,
    )


def speedup_decomposition(metrics: KernelMetrics, baseline: KernelMetrics) -> float:
    """The paper's speed-up identity: ``S = R * IPC * OPI / IPC_alpha``.

    Returns the speed-up predicted from the decomposition; it should equal
    the measured cycle-ratio speed-up up to floating-point error (the test
    suite asserts this).
    """
    if baseline.ipc == 0:
        return 0.0
    return metrics.r * metrics.ipc * metrics.opi / (baseline.ipc * baseline.opi)
