"""Figure 4: speed-up of MMX / MDMX / MOM over scalar code vs issue width.

The paper evaluates all nine kernels on 1-, 2-, 4- and 8-way out-of-order
cores with an idealized 1-cycle-latency memory and reports the speed-up of
each multimedia ISA over the scalar (Alpha) code.

The sweep is the point list :func:`figure4_sweep` expands through
:func:`~repro.sweep.spec.grid_points`, executed by the shared
:class:`~repro.sweep.SweepEngine` and reduced by :func:`figure4_results`;
pass a configured ``engine`` to parallelise, cache or journal the
regeneration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep.engine import PointResult, SweepEngine, require_complete
from repro.sweep.spec import SweepPoint, grid_points
from repro.workloads.generators import WorkloadSpec

__all__ = ["figure4_sweep", "figure4_results", "run_figure4",
           "figure4_speedups"]


def figure4_sweep(
    kernels: Optional[Iterable[str]] = None,
    ways: Sequence[int] = (1, 2, 4, 8),
    spec: Optional[WorkloadSpec] = None,
    mem_latency: int = 1,
) -> List[SweepPoint]:
    """The Figure 4 sweep as a point list (kernels x widths x ISAs)."""
    return grid_points(kernels, ISA_VARIANTS, ways, [mem_latency],
                       None if spec is None else spec.scale,
                       (spec or WorkloadSpec()).seed)


def figure4_results(results: List[PointResult],
                    ) -> Dict[str, Dict[str, Dict[int, PointResult]]]:
    """Reduce a Figure 4 run to ``results[kernel][isa][way]``; raises
    :class:`~repro.sweep.engine.SweepFailed` if any point failed."""
    reduced: Dict[str, Dict[str, Dict[int, PointResult]]] = {}
    for result in require_complete(results):
        per_isa = reduced.setdefault(result.kernel, {})
        per_isa.setdefault(result.isa, {})[result.point.config.issue_width] = result
    return reduced


def run_figure4(
    kernels: Optional[Iterable[str]] = None,
    ways: Sequence[int] = (1, 2, 4, 8),
    spec: Optional[WorkloadSpec] = None,
    mem_latency: int = 1,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[str, Dict[str, Dict[int, "object"]]]:
    """Run the Figure 4 sweep.

    Returns ``results[kernel][isa][way] -> PointResult``.  Each kernel uses
    one shared (seeded, deterministic) workload across all ISAs and widths so
    speed-ups are apples to apples.  ``on_result`` (if given) streams each
    point's result as it completes — see
    :meth:`~repro.sweep.engine.SweepEngine.run`.  Raises
    :class:`~repro.sweep.engine.SweepFailed` if any point failed.
    """
    engine = engine or SweepEngine()
    return figure4_results(engine.run(
        figure4_sweep(kernels, ways, spec, mem_latency), on_result=on_result))


def figure4_speedups(results) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Reduce :func:`run_figure4` output to speed-up numbers over scalar.

    Tolerates partially-populated sweeps: a kernel with no scalar baseline
    contributes no rows, and ISA variants or widths missing from the input
    are skipped rather than raising ``KeyError``.
    """
    speedups: Dict[str, Dict[str, Dict[int, float]]] = {}
    for kernel, per_isa in results.items():
        baselines = per_isa.get("scalar", {})
        speedups[kernel] = {}
        for isa in ("mmx", "mdmx", "mom"):
            per_way = {}
            for way, run in per_isa.get(isa, {}).items():
                baseline = baselines.get(way)
                if baseline is not None:
                    per_way[way] = baseline.cycles / run.cycles
            if per_way:
                speedups[kernel][isa] = per_way
    return speedups
