"""Tables 1-9: per-kernel breakdown of the speed-up into IPC, OPI and R.

The paper reports, for each kernel on the 4-way core with 1-cycle memory
latency, the IPC, OPI, R, S, F, VLx and VLy of the scalar, MMX, MDMX and MOM
versions (Tables 1 to 9).

The sweep is the point list :func:`tables_sweep` expands through
:func:`~repro.sweep.spec.grid_points`, executed by the shared
:class:`~repro.sweep.SweepEngine` and reduced by :func:`breakdown_tables`;
pass a configured ``engine`` to parallelise, cache or journal the
regeneration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.analysis.metrics import KernelMetrics, compute_metrics
from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep.engine import PointResult, SweepEngine, require_complete
from repro.sweep.spec import SweepPoint, grid_points
from repro.workloads.generators import WorkloadSpec

__all__ = ["tables_sweep", "breakdown_tables", "run_breakdown_tables",
           "breakdown_for_kernel"]

#: Paper table number for each kernel (Tables 1-9).
TABLE_NUMBERS = {
    "motion2": 1,
    "motion1": 2,
    "idct": 3,
    "rgb2ycc": 4,
    "h2v2": 5,
    "comp": 6,
    "addblock": 7,
    "ltppar": 8,
    "ltpsfilt": 9,
}


def _metrics_from_runs(runs: Dict[str, "object"]) -> Dict[str, KernelMetrics]:
    baseline = runs["scalar"].sim
    return {
        isa: compute_metrics(run.sim, run.stats, baseline)
        for isa, run in runs.items()
    }


def tables_sweep(
    kernels: Optional[Iterable[str]] = None,
    way: int = 4,
    mem_latency: int = 1,
    spec: Optional[WorkloadSpec] = None,
) -> List[SweepPoint]:
    """The Tables 1-9 sweep as a point list (kernels x ISAs on one
    machine)."""
    return grid_points(kernels, ISA_VARIANTS, [way], [mem_latency],
                       None if spec is None else spec.scale,
                       (spec or WorkloadSpec()).seed)


def breakdown_tables(results: List[PointResult],
                     ) -> Dict[str, Dict[str, KernelMetrics]]:
    """Reduce a tables run to ``tables[kernel][isa]``; raises
    :class:`~repro.sweep.engine.SweepFailed` if any point failed."""
    runs: Dict[str, Dict[str, PointResult]] = {}
    for result in require_complete(results):
        runs.setdefault(result.kernel, {})[result.isa] = result
    return {name: _metrics_from_runs(per_isa) for name, per_isa in runs.items()}


def run_breakdown_tables(
    kernels: Optional[Iterable[str]] = None,
    way: int = 4,
    mem_latency: int = 1,
    spec: Optional[WorkloadSpec] = None,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[str, Dict[str, KernelMetrics]]:
    """Compute the full set of breakdown tables: ``tables[kernel][isa]``.

    ``on_result`` (if given) streams each point's result as it completes.
    Raises :class:`~repro.sweep.engine.SweepFailed` if any point failed.
    """
    engine = engine or SweepEngine()
    return breakdown_tables(engine.run(
        tables_sweep(kernels, way, mem_latency, spec), on_result=on_result))


def breakdown_for_kernel(
    kernel_name: str,
    way: int = 4,
    mem_latency: int = 1,
    spec: Optional[WorkloadSpec] = None,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[str, KernelMetrics]:
    """Compute one breakdown table (IPC / OPI / R / S / F / VLx / VLy).

    ``on_result`` (if given) streams each point's result as it completes.
    Raises :class:`~repro.sweep.engine.SweepFailed` if any point failed.
    """
    return run_breakdown_tables(
        kernels=[kernel_name], way=way, mem_latency=mem_latency, spec=spec,
        engine=engine, on_result=on_result,
    )[kernel_name]
