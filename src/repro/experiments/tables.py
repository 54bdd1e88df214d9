"""Tables 1-9: per-kernel breakdown of the speed-up into IPC, OPI and R.

The paper reports, for each kernel on the 4-way core with 1-cycle memory
latency, the IPC, OPI, R, S, F, VLx and VLy of the scalar, MMX, MDMX and MOM
versions (Tables 1 to 9).

The underlying runs go through the shared :class:`~repro.sweep.SweepEngine`;
pass a configured ``engine`` to parallelise, cache or journal the
regeneration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.analysis.metrics import KernelMetrics, compute_metrics
from repro.sweep.engine import PointResult, SweepEngine, require_complete
from repro.sweep.spec import SweepSpec
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

__all__ = ["run_breakdown_tables", "breakdown_for_kernel"]

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
    sweep = SweepSpec.make(
        kernels=kernels,
        configs=[MachineConfig.for_way(way, mem_latency=mem_latency)],
        spec=spec,
    )
    runs: Dict[str, Dict[str, object]] = {}
    for result in require_complete(engine.run(sweep, on_result=on_result)):
        runs.setdefault(result.kernel, {})[result.isa] = result
    return {name: _metrics_from_runs(per_isa) for name, per_isa in runs.items()}


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
