"""Single-kernel experiment runner.

``run_kernel`` is the basic unit every experiment driver is built from:
build one ISA variant of one kernel (verifying its output against the NumPy
golden reference), then simulate its trace on a machine configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kernels.base import KernelBuildResult
from repro.kernels.catalog import ISA_VARIANTS
from repro.kernels.registry import get_kernel
from repro.timing.config import MachineConfig
from repro.timing.core import simulate_trace
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats, summarize_trace
from repro.workloads.generators import WorkloadSpec

__all__ = ["RunResult", "build_kernel_variant", "run_kernel",
           "run_kernel_all_isas"]


@dataclass
class RunResult:
    """Everything produced by one (kernel, ISA, machine) run."""

    build: KernelBuildResult
    sim: SimResult
    stats: TraceStats

    @property
    def kernel(self) -> str:
        return self.build.kernel

    @property
    def isa(self) -> str:
        return self.build.isa

    @property
    def cycles(self) -> int:
        return self.sim.cycles


def build_kernel_variant(
    kernel_name: str,
    isa: str,
    spec: Optional[WorkloadSpec] = None,
    workload: Optional[dict] = None,
) -> KernelBuildResult:
    """Build (without simulating) one kernel variant.

    Raises ``AssertionError`` if the variant's output does not match the
    golden reference — a build whose functional output is wrong must never
    contribute timing numbers.  Every build is checked; this is the single
    home of that rule, shared by :func:`run_kernel` and the sweep engine's
    trace batching, so every cached, journaled or served result is backed
    by a verified build.
    """
    kernel = get_kernel(kernel_name)
    build = kernel.run_variant(isa, spec=spec, workload=workload)
    if not build.correct:
        raise AssertionError(
            f"{kernel_name}/{isa}: functional output does not match the golden "
            f"reference (max abs error {build.max_abs_error()})"
        )
    return build


def run_kernel(
    kernel_name: str,
    isa: str,
    config: Optional[MachineConfig] = None,
    spec: Optional[WorkloadSpec] = None,
    workload: Optional[dict] = None,
) -> RunResult:
    """Build and simulate one kernel variant.

    Raises ``AssertionError`` if the variant's output does not match the
    golden reference (see :func:`build_kernel_variant`).
    """
    build = build_kernel_variant(kernel_name, isa, spec=spec,
                                 workload=workload)
    config = config if config is not None else MachineConfig.for_way(4)
    sim = simulate_trace(build.trace, config)
    stats = summarize_trace(build.trace)
    return RunResult(build=build, sim=sim, stats=stats)


def run_kernel_all_isas(
    kernel_name: str,
    config: Optional[MachineConfig] = None,
    spec: Optional[WorkloadSpec] = None,
) -> Dict[str, RunResult]:
    """Run all four ISA variants of a kernel on a shared workload.

    The spec is resolved once by the same
    :func:`~repro.sweep.spec.resolve_spec` rule every sweep driver uses, so
    the seeded spec regenerates identical data for each variant.  For
    parallel/cached multi-kernel sweeps use a :class:`~repro.sweep.SweepSpec`
    and the engine directly.
    """
    from repro.sweep.spec import resolve_spec

    spec = resolve_spec(kernel_name, spec)
    return {isa: run_kernel(kernel_name, isa, config=config, spec=spec)
            for isa in ISA_VARIANTS}
