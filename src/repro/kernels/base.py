"""Kernel framework: the interface every kernel implements.

A kernel bundles

* a workload generator (synthetic data with the paper's shapes),
* a NumPy golden reference,
* four ``build_*`` methods that emit the scalar / MMX / MDMX / MOM
  instruction streams against a :class:`~repro.frontend.machine.FunctionalMachine`
  and return the computed output for verification.

``run_variant`` is the one-stop entry point used by tests and experiments:
it creates a fresh machine and builder, runs the chosen variant, checks the
output against the golden reference and returns the trace alongside both
outputs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.frontend.builders import make_builder
from repro.frontend.machine import FunctionalMachine
from repro.frontend.scalar_builder import ScalarBuilder
from repro.kernels.catalog import ISA_VARIANTS
from repro.trace.container import Trace
from repro.workloads.generators import WorkloadSpec

__all__ = ["Kernel", "KernelBuildResult"]


@dataclass
class KernelBuildResult:
    """Everything produced by building one kernel variant."""

    kernel: str
    isa: str
    trace: Trace
    output: np.ndarray
    reference: np.ndarray
    workload: Dict[str, Any]

    @property
    def correct(self) -> bool:
        """Whether the variant's output matches the golden reference exactly."""
        return bool(np.array_equal(np.asarray(self.output), np.asarray(self.reference)))

    def max_abs_error(self) -> int:
        """Largest absolute difference vs. the reference (0 when correct)."""
        a = np.asarray(self.output, dtype=np.int64)
        b = np.asarray(self.reference, dtype=np.int64)
        if a.shape != b.shape:
            return int(max(np.abs(a).max(initial=0), np.abs(b).max(initial=0)))
        if a.size == 0:
            return 0
        return int(np.abs(a - b).max())


class Kernel(abc.ABC):
    """Base class for the nine MediaBench kernels."""

    #: Short kernel name used in tables/figures (e.g. ``"motion1"``).
    name: str = ""
    #: One-line description used in reports.
    description: str = ""
    #: Source benchmark in MediaBench (e.g. ``"mpeg2encode"``).
    benchmark: str = ""
    #: Default ``scale`` (repetition count) used by the experiment drivers;
    #: the nine paper kernels take theirs from
    #: :data:`repro.kernels.catalog.DEFAULT_SCALES`.
    default_scale: int = 4

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        """Generate the kernel's input data for a workload spec."""

    @abc.abstractmethod
    def reference(self, workload: Dict[str, Any]) -> np.ndarray:
        """NumPy golden model: the expected output for ``workload``."""

    @abc.abstractmethod
    def build_scalar(self, b: ScalarBuilder, workload: Dict[str, Any]) -> np.ndarray:
        """Emit the scalar (Alpha-like) variant; return its output."""

    @abc.abstractmethod
    def build_mmx(self, b, workload: Dict[str, Any]) -> np.ndarray:
        """Emit the MMX-like variant; return its output."""

    @abc.abstractmethod
    def build_mdmx(self, b, workload: Dict[str, Any]) -> np.ndarray:
        """Emit the MDMX-like variant; return its output."""

    @abc.abstractmethod
    def build_mom(self, b, workload: Dict[str, Any]) -> np.ndarray:
        """Emit the MOM variant; return its output."""

    # ------------------------------------------------------------------

    def build(self, isa: str, builder: ScalarBuilder,
              workload: Dict[str, Any]) -> np.ndarray:
        """Dispatch to the right ``build_*`` method."""
        methods = {
            "scalar": self.build_scalar,
            "mmx": self.build_mmx,
            "mdmx": self.build_mdmx,
            "mom": self.build_mom,
        }
        try:
            fn = methods[isa]
        except KeyError as exc:
            raise ValueError(f"unknown ISA variant {isa!r}") from exc
        return fn(builder, workload)

    def run_variant(self, isa: str, spec: WorkloadSpec | None = None,
                    workload: Dict[str, Any] | None = None,
                    columns: bool = True) -> KernelBuildResult:
        """Build one variant on a fresh machine and verify its output.

        Either a :class:`WorkloadSpec` or a pre-generated ``workload`` dict
        may be supplied (the latter lets callers run all four variants on
        identical data).  ``columns`` selects the trace emission path (the
        column fast path by default; ``False`` forces the object path for
        the front-end benchmarks).
        """
        if workload is None:
            workload = self.make_workload(spec if spec is not None else WorkloadSpec(
                scale=self.default_scale))
        machine = FunctionalMachine()
        builder = make_builder(isa, machine, name=self.name, columns=columns)
        output = self.build(isa, builder, workload)
        return KernelBuildResult(
            kernel=self.name,
            isa=isa,
            trace=builder.trace,
            output=np.asarray(output),
            reference=np.asarray(self.reference(workload)),
            workload=workload,
        )

    def run_all_variants(self, spec: WorkloadSpec | None = None) -> Dict[str, KernelBuildResult]:
        """Build all four variants on a shared workload."""
        workload = self.make_workload(spec if spec is not None else WorkloadSpec(
            scale=self.default_scale))
        return {isa: self.run_variant(isa, workload=workload) for isa in ISA_VARIANTS}
