"""Figure 5: impact of memory latency on performance (4-way core).

The paper varies the idealized memory latency over 1, 12 and 50 cycles
(perfect L1, L2 hit, main memory) and reports execution cycles for the
scalar, MMX, MDMX and MOM versions of every kernel on the 4-way core.

The sweep is the point list :func:`figure5_sweep` expands through
:func:`~repro.sweep.spec.grid_points`, executed by the shared
:class:`~repro.sweep.SweepEngine` and reduced by :func:`figure5_results`;
pass a configured ``engine`` to parallelise, cache or journal the
regeneration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep.engine import PointResult, SweepEngine, require_complete
from repro.sweep.spec import SweepPoint, grid_points
from repro.workloads.generators import WorkloadSpec

__all__ = ["figure5_sweep", "figure5_results", "run_figure5",
           "figure5_cycles", "figure5_slowdowns"]


def figure5_sweep(
    kernels: Optional[Iterable[str]] = None,
    latencies: Sequence[int] = (1, 12, 50),
    way: int = 4,
    spec: Optional[WorkloadSpec] = None,
) -> List[SweepPoint]:
    """The Figure 5 sweep as a point list (kernels x latencies x ISAs)."""
    return grid_points(kernels, ISA_VARIANTS, [way], latencies,
                       None if spec is None else spec.scale,
                       (spec or WorkloadSpec()).seed)


def figure5_results(results: List[PointResult],
                    ) -> Dict[str, Dict[str, Dict[int, PointResult]]]:
    """Reduce a Figure 5 run to ``results[kernel][isa][latency]``; raises
    :class:`~repro.sweep.engine.SweepFailed` if any point failed."""
    reduced: Dict[str, Dict[str, Dict[int, PointResult]]] = {}
    for result in require_complete(results):
        per_isa = reduced.setdefault(result.kernel, {})
        per_isa.setdefault(result.isa, {})[result.point.config.mem_latency] = result
    return reduced


def run_figure5(
    kernels: Optional[Iterable[str]] = None,
    latencies: Sequence[int] = (1, 12, 50),
    way: int = 4,
    spec: Optional[WorkloadSpec] = None,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[str, Dict[str, Dict[int, "object"]]]:
    """Run the Figure 5 sweep: ``results[kernel][isa][latency] -> PointResult``.

    ``on_result`` (if given) streams each point's result as it completes.
    Raises :class:`~repro.sweep.engine.SweepFailed` if any point failed.
    """
    engine = engine or SweepEngine()
    return figure5_results(engine.run(
        figure5_sweep(kernels, latencies, way, spec), on_result=on_result))


def figure5_cycles(results) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Reduce :func:`run_figure5` output to raw cycle counts."""
    cycles: Dict[str, Dict[str, Dict[int, int]]] = {}
    for kernel, per_isa in results.items():
        cycles[kernel] = {
            isa: {lat: run.cycles for lat, run in runs.items()}
            for isa, runs in per_isa.items()
        }
    return cycles


def figure5_slowdowns(results) -> Dict[str, Dict[str, float]]:
    """Slow-down of each ISA when memory latency goes from the smallest to
    the largest simulated value (the paper's headline latency-tolerance
    comparison)."""
    slowdowns: Dict[str, Dict[str, float]] = {}
    for kernel, per_isa in results.items():
        slowdowns[kernel] = {}
        for isa, runs in per_isa.items():
            lats = sorted(runs)
            slowdowns[kernel][isa] = runs[lats[-1]].cycles / runs[lats[0]].cycles
    return slowdowns
