"""What a sweep runs: a list of :class:`SweepPoint`\\ s.

A sweep names *what* to run without saying how (serially, in parallel,
cached): it is a list of points, which the
:class:`~repro.sweep.engine.SweepEngine` executes.  :func:`grid_points` is
the one grid expansion (kernels x widths x memory latencies x ISAs with a
workload scale and seed) behind Figure 4, Figure 5, Tables 1-9,
``repro run``/``sweep`` and every service job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

from repro.kernels.catalog import default_scale, kernel_names
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

__all__ = ["MAX_SCALE", "SweepPoint", "grid_points", "resolve_spec"]

#: Largest workload ``scale`` a sweep may ask for: head-room over 16, the
#: largest scale any shipped command uses.
MAX_SCALE = 64


def resolve_spec(kernel_name: str, spec: Optional[WorkloadSpec]) -> WorkloadSpec:
    """Resolve an optional workload spec to a concrete one.

    ``None`` means "the kernel's default": every experiment driver historically
    open-coded ``WorkloadSpec(scale=kernel.default_scale)`` — this helper is
    now the single home of that rule, so all drivers and the cache key agree
    on what the default workload is.  The scale comes from the kernel
    catalog, so resolving a point imports no kernel.
    """
    if spec is not None:
        return spec
    return WorkloadSpec(scale=default_scale(kernel_name))


@dataclass(frozen=True)
class SweepPoint:
    """One (kernel, ISA, machine config, workload spec) simulation point.

    ``spec`` may be ``None`` to mean the kernel's default workload; call
    :meth:`resolved` before hashing or executing the point.
    """

    kernel: str
    isa: str
    config: MachineConfig
    spec: Optional[WorkloadSpec] = None

    def resolved(self) -> "SweepPoint":
        """Return an equivalent point with a concrete workload spec."""
        if self.spec is not None:
            return self
        return SweepPoint(kernel=self.kernel, isa=self.isa, config=self.config,
                          spec=resolve_spec(self.kernel, None))

    def label(self) -> str:
        """Human-readable identification, used in progress/error messages."""
        spec = self.spec
        scale = spec.scale if spec is not None else "default"
        return (f"{self.kernel}/{self.isa} on {self.config.name} "
                f"(mem {self.config.mem_latency}, scale {scale})")


def grid_points(kernels: Optional[Iterable[str]], isas: Sequence[str],
                ways: Iterable[int], latencies: Sequence[int],
                scale: Optional[int], seed: int) -> List[SweepPoint]:
    """Expand a grid into resolved points: the only grid expansion.

    Kernel-major, then configuration (width-major, then memory latency),
    then ISA.  ``kernels=None`` means every registered kernel and
    ``scale=None`` each kernel's default scale; ``seed`` applies either
    way.  The paper drivers, the CLI and the service all expand through
    here, so a job's results match ``repro sweep`` for the same
    parameters.  A machine, scale or seed that makes no sense raises
    :class:`ValueError` naming the field (the message of
    :class:`~repro.timing.config.MachineConfig` or
    :class:`~repro.workloads.generators.WorkloadSpec`, or ``scale`` above
    :data:`MAX_SCALE`).
    """
    if scale is not None and scale > MAX_SCALE:
        raise ValueError(f"scale must be <= {MAX_SCALE}, got {scale}")
    configs = [MachineConfig.for_way(way, mem_latency=latency)
               for way in ways for latency in latencies]
    # Checked even when the grid is empty; a default scale is filled in
    # once per kernel, and the kernel's points share that spec.
    spec = WorkloadSpec(scale=1 if scale is None else scale, seed=seed)
    points: List[SweepPoint] = []
    for kernel in (kernels if kernels is not None else kernel_names()):
        kernel_spec = (spec if scale is not None
                       else replace(spec, scale=default_scale(kernel)))
        points.extend(SweepPoint(kernel=kernel, isa=isa, config=config,
                                 spec=kernel_spec)
                      for config in configs for isa in isas)
    return points
