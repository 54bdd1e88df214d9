"""Ablation experiments beyond the paper's figures.

Section 4.4 of the paper argues that MOM's advantage comes from fetch-
pressure reduction and that further performance is available by replicating
the vector functional units ("simply replicating the number of parallel
functional units which execute a matrix instruction").  These ablations make
those arguments measurable in the reproduction:

* :func:`run_lane_ablation` — MOM performance vs vector lanes per multimedia
  functional unit (the replication argument).
* :func:`run_rob_ablation` — sensitivity of each ISA to the out-of-order
  window size (MOM needs far fewer in-flight instructions).
* :func:`run_trace_length_sensitivity` — checks that the per-iteration
  metrics are stable in the workload scale, justifying the scaled-down
  workloads documented in DESIGN.md.

All three route their points through the shared
:class:`~repro.sweep.SweepEngine` (pass a configured ``engine`` to
parallelise, cache or journal them).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep.engine import PointResult, SweepEngine
from repro.sweep.spec import SweepPoint, resolve_spec
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

__all__ = [
    "run_lane_ablation",
    "run_rob_ablation",
    "run_trace_length_sensitivity",
]


def run_lane_ablation(
    kernel_name: str,
    lanes: Sequence[int] = (1, 2, 4),
    way: int = 4,
    spec: Optional[WorkloadSpec] = None,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[int, "object"]:
    """MOM cycles as the number of vector lanes per multimedia FU grows."""
    spec = resolve_spec(kernel_name, spec)
    points = [
        SweepPoint(
            kernel=kernel_name, isa="mom", spec=spec,
            config=MachineConfig.for_way(way).with_updates(
                name=f"way{way}-lanes{lane_count}", media_lanes=lane_count,
                mem_port_width=2 * lane_count,
            ),
        )
        for lane_count in lanes
    ]
    results = (engine or SweepEngine()).run(points, on_result=on_result)
    return {lane_count: result for lane_count, result in zip(lanes, results)}


def run_rob_ablation(
    kernel_name: str,
    rob_sizes: Sequence[int] = (16, 32, 64, 128),
    way: int = 4,
    spec: Optional[WorkloadSpec] = None,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[int, Dict[str, "object"]]:
    """Cycles for each ISA as the reorder-buffer size varies."""
    spec = resolve_spec(kernel_name, spec)
    points = [
        SweepPoint(
            kernel=kernel_name, isa=isa, spec=spec,
            config=MachineConfig.for_way(way).with_updates(
                name=f"way{way}-rob{rob}", rob_size=rob),
        )
        for rob in rob_sizes
        for isa in ISA_VARIANTS
    ]
    flat = (engine or SweepEngine()).run(points, on_result=on_result)
    results: Dict[int, Dict[str, object]] = {}
    for point, result in zip(points, flat):
        results.setdefault(point.config.rob_size, {})[point.isa] = result
    return results


def run_trace_length_sensitivity(
    kernel_name: str,
    scales: Sequence[int] = (1, 2, 4, 8),
    way: int = 4,
    engine: Optional[SweepEngine] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> Dict[int, Dict[str, "object"]]:
    """Per-scale runs used to check that derived metrics are scale-stable."""
    config = MachineConfig.for_way(way)
    points = [
        SweepPoint(kernel=kernel_name, isa=isa, config=config,
                   spec=WorkloadSpec(scale=scale))
        for scale in scales
        for isa in ISA_VARIANTS
    ]
    flat = (engine or SweepEngine()).run(points, on_result=on_result)
    results: Dict[int, Dict[str, object]] = {}
    for point, result in zip(points, flat):
        results.setdefault(point.spec.scale, {})[point.isa] = result
    return results
