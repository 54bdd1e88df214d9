"""Backend selection for batch simulation: object / lowered / vector.

The timing package has three executions of the same interval model:

``object``
    :meth:`~repro.timing.core.OutOfOrderCore.run` — the readable reference
    loop over :class:`~repro.trace.instruction.DynInstr` objects.
``lowered``
    :meth:`~repro.timing.core.OutOfOrderCore.run_lowered` — the flat-array
    interpreter, ~4x the object loop per configuration.
``vector``
    :mod:`repro.timing.vector`'s array program — one NumPy pass over the
    instruction rows advancing every configuration in the batch at once;
    wins beyond :data:`VECTOR_MIN_BATCH` configurations.

All three are bit-identical (pinned by the golden snapshots and the
equivalence suites), so picking one is purely a performance decision.
:func:`simulate_batch` is that decision point: the sweep engine routes
every trace-sharing group of configurations through it with the default
``auto``, which resolves to ``vector`` for large batches and ``lowered``
otherwise (:func:`resolve_execution`).  The explicit names exist for the
equivalence suites, which pin the three executions against each other.

This module owns the batch-size rule and the one per-config lowered loop
(:func:`simulate_lowered`), and imports neither NumPy nor the vector
backend: a paper group of 2-4 configurations — every group a trace-cache
hit feeds in ``figure5`` and the tables — simulates in pure Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.timing.config import MachineConfig
from repro.timing.results import SimResult

if TYPE_CHECKING:
    from repro.timing.lowered import LoweredTrace
    from repro.trace.container import Trace

__all__ = ["BACKENDS", "VECTOR_AUTO_CELL_BUDGET", "VECTOR_MIN_BATCH",
           "resolve_execution", "simulate_batch", "simulate_lowered"]

#: Selectable timing backends (``auto`` resolves per call).
BACKENDS = ("auto", "object", "lowered", "vector")

#: Smallest batch for which the array program is worth its per-row NumPy
#: dispatch overhead; below it ``auto`` loops the per-config lowered
#: interpreter instead.  Measured cut-over on the reference trace is 24-32
#: configs (~20 before the lowered loop dropped its drain loops); the
#: margin keeps the loop path on machines where NumPy dispatch is
#: relatively more expensive, and no shipped paper group lies inside it
#: (paper groups hold at most 4 configs).
VECTOR_MIN_BATCH = 64

#: Upper bound on ``instructions x configs`` for the *automatic* vector
#: choice.  The array program's working set is O(n x N) — the interleaved
#: history alone is ``16 * n * N`` bytes, the busy planes ~``10 * n * N``
#: — versus O(n) for the per-config interpreter, so a huge trace swept
#: over a wide batch should not be silently routed into hundreds of MB of
#: scratch.  At this bound the scratch stays around half a GB.  An explicit
#: ``backend="vector"`` bypasses the budget.
VECTOR_AUTO_CELL_BUDGET = 1 << 24


def _auto_uses_vector(num_configs: int, num_instructions: int) -> bool:
    """The ``auto`` rule: a large batch whose working set fits the budget."""
    return (num_configs >= VECTOR_MIN_BATCH
            and num_configs * num_instructions <= VECTOR_AUTO_CELL_BUDGET)


def resolve_execution(backend: str, num_configs: int,
                      num_instructions: int = 0, *,
                      lowered: Optional[LoweredTrace] = None) -> str:
    """The concrete backend a ``simulate_batch`` call will execute.

    ``auto`` resolves to ``"vector"`` when the batch reaches
    :data:`VECTOR_MIN_BATCH` configurations and the
    ``instructions x configs`` working set fits the
    :data:`VECTOR_AUTO_CELL_BUDGET` memory budget; ``"lowered"``
    otherwise.  Explicit names resolve to themselves.  Given the
    ``lowered`` trace, a ``"vector"`` choice the array program declines
    resolves to ``"lowered"``: its sliding-window rename pools assume at
    most one destination per rename pool and row (a full pool pops exactly
    once per push), which :attr:`LoweredTrace.has_same_pool_multi_dst`
    traces such as idct/mom break.  Raises ``ValueError`` for an unknown
    backend name.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown timing backend {backend!r}; choose from {BACKENDS}")
    if backend == "auto":
        backend = ("vector"
                   if _auto_uses_vector(num_configs, num_instructions)
                   else "lowered")
    if (backend == "vector" and lowered is not None
            and lowered.has_same_pool_multi_dst):
        return "lowered"
    return backend


def simulate_lowered(lowered: LoweredTrace,
                     configs: Sequence[MachineConfig],
                     vector: bool = False,
                     record_timeline: bool = False) -> List[SimResult]:
    """Simulate ``lowered`` under every configuration; one result each.

    ``vector`` runs the array program (loading NumPy and the vector
    backend); it raises ``ValueError`` for a trace the array program
    declines (see :func:`resolve_execution`).  Otherwise each
    configuration runs the lowered interpreter in turn.
    ``record_timeline`` attaches each result's pipeline timeline as a
    ``timeline`` attribute.
    """
    configs = list(configs)
    if vector:
        if lowered.has_same_pool_multi_dst:
            raise ValueError(
                f"the vector backend cannot run {lowered.name}/"
                f"{lowered.isa}: a row writes two destinations in one "
                f"rename pool; resolve_execution routes it to 'lowered'")
        from repro.timing.vector import _run_vector

        return _run_vector(lowered, configs, record_timeline)
    return _each_config("run_lowered", lowered, configs, record_timeline)


def _each_config(method: str, trace, configs: Sequence[MachineConfig],
                 record_timeline: bool) -> List[SimResult]:
    """One fresh core per configuration, running ``core.<method>(trace)``."""
    from repro.timing.core import OutOfOrderCore

    results = []
    for config in configs:
        core = OutOfOrderCore(config)
        result = getattr(core, method)(trace, record_timeline=record_timeline)
        if record_timeline:
            result.timeline = core.timeline
        results.append(result)
    return results


def simulate_batch(trace: Union[Trace, LoweredTrace],
                   configs: Sequence[MachineConfig],
                   backend: str = "auto",
                   record_timeline: bool = False) -> List[SimResult]:
    """Simulate ``trace`` under every configuration with one backend.

    Parameters
    ----------
    trace:
        A :class:`~repro.trace.container.Trace` (lowered on demand via its
        memoised :meth:`~repro.trace.container.Trace.lower`) or an
        already-compiled :class:`~repro.timing.lowered.LoweredTrace`.
        The ``object`` backend needs the original trace and raises
        ``TypeError`` when given only a lowering.
    configs:
        Machine configurations; one :class:`SimResult` per entry is
        returned, in order.  Duplicates are legal.
    backend:
        One of :data:`BACKENDS`.  Results are identical across backends;
        only the wall time differs.
    record_timeline:
        Attach each result's per-instruction pipeline timeline as a
        ``timeline`` attribute (as the scalar cores expose on themselves).
    """
    from repro.timing.lowered import LoweredTrace

    if resolve_execution(backend, len(configs)) == "object":
        if isinstance(trace, LoweredTrace):
            raise TypeError(
                "the object backend replays DynInstr objects and cannot "
                "run from a LoweredTrace; pass the original Trace")
        return _each_config("run", trace, configs, record_timeline)
    lowered = trace if isinstance(trace, LoweredTrace) else trace.lower()
    execution = resolve_execution(backend, len(configs), len(lowered),
                                  lowered=lowered)
    return simulate_lowered(lowered, configs,
                            vector=(execution == "vector"),
                            record_timeline=record_timeline)
