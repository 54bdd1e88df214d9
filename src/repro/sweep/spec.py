"""Declarative sweep specifications.

A :class:`SweepSpec` names *what* to run — the cartesian product of kernels,
ISA variants, machine configurations and workload specs — without saying how
(serially, in parallel, cached).  The :class:`~repro.sweep.engine.SweepEngine`
expands it into :class:`SweepPoint`\\ s and executes them.
:func:`grid_points` is the one expansion of the ``repro sweep`` / service
grid (kernels x widths x memory latencies x ISAs with a seed override).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import get_kernel, kernel_names
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

__all__ = ["SweepPoint", "SweepSpec", "grid_points", "resolve_spec"]


def resolve_spec(kernel_name: str, spec: Optional[WorkloadSpec]) -> WorkloadSpec:
    """Resolve an optional workload spec to a concrete one.

    ``None`` means "the kernel's default": every experiment driver historically
    open-coded ``WorkloadSpec(scale=kernel.default_scale)`` — this helper is
    now the single home of that rule, so all drivers and the cache key agree
    on what the default workload is.
    """
    if spec is not None:
        return spec
    return WorkloadSpec(scale=get_kernel(kernel_name).default_scale)


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


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian product of kernels x ISAs x configs x workload specs.

    ``kernels=None`` means all registered kernels; ``spec=None`` means each
    kernel's default workload.  Expansion order is deterministic
    (kernel-major, then config, then ISA) so serial and parallel runs return
    results in the same order.
    """

    kernels: Optional[Tuple[str, ...]] = None
    isas: Tuple[str, ...] = ISA_VARIANTS
    configs: Tuple[MachineConfig, ...] = field(
        default_factory=lambda: (MachineConfig.for_way(4),))
    spec: Optional[WorkloadSpec] = None

    @classmethod
    def make(cls,
             kernels: Optional[Iterable[str]] = None,
             isas: Iterable[str] = ISA_VARIANTS,
             configs: Optional[Iterable[MachineConfig]] = None,
             spec: Optional[WorkloadSpec] = None) -> "SweepSpec":
        """Normalising constructor accepting any iterables.

        Parameters
        ----------
        kernels:
            Kernel names to sweep; ``None`` means every registered kernel.
        isas:
            ISA variant names (default: all four, in the paper's order).
        configs:
            Machine configurations; ``None`` means the paper's 4-way core.
        spec:
            Shared workload spec; ``None`` means each kernel's default
            (resolved per kernel by :func:`resolve_spec`).
        """
        return cls(
            kernels=tuple(kernels) if kernels is not None else None,
            isas=tuple(isas),
            configs=tuple(configs) if configs is not None else (
                MachineConfig.for_way(4),),
            spec=spec,
        )

    def kernel_names(self) -> Tuple[str, ...]:
        """The concrete kernel names this sweep covers (``kernels`` or all)."""
        return self.kernels if self.kernels is not None else tuple(kernel_names())

    def points(self) -> Iterator[SweepPoint]:
        """Expand the product into resolved points, deterministically ordered."""
        for kernel in self.kernel_names():
            spec = resolve_spec(kernel, self.spec)
            for config in self.configs:
                for isa in self.isas:
                    yield SweepPoint(kernel=kernel, isa=isa, config=config,
                                     spec=spec)

    def __len__(self) -> int:
        """Number of points :meth:`points` will expand to."""
        return len(self.kernel_names()) * len(self.configs) * len(self.isas)


def grid_points(kernels: Optional[Iterable[str]], isas: Sequence[str],
                ways: Iterable[int], latencies: Sequence[int],
                scale: Optional[int], seed: int) -> List[SweepPoint]:
    """Expand a ``repro sweep`` (or service job) grid into resolved points.

    Kernel-major, then configuration (width-major, then memory latency),
    then ISA.  ``kernels=None`` means every registered kernel and
    ``scale=None`` each kernel's default scale; ``seed`` applies either
    way.  The CLI and the service both expand through here, so a job's
    results match ``repro sweep`` for the same parameters.
    """
    configs = [MachineConfig.for_way(way, mem_latency=latency)
               for way in ways for latency in latencies]
    spec = WorkloadSpec(scale=scale, seed=seed) if scale is not None else None
    return [SweepPoint(kernel=kernel, isa=isa, config=config,
                       spec=replace(resolve_spec(kernel, spec), seed=seed))
            for kernel in (kernels if kernels is not None else kernel_names())
            for config in configs
            for isa in isas]
