"""Backend selection for batch simulation: object / lowered / vector.

The timing package has three executions of the same interval model:

``object``
    :meth:`~repro.timing.core.OutOfOrderCore.run` — the readable reference
    loop over :class:`~repro.trace.instruction.DynInstr` objects.
``lowered``
    :meth:`~repro.timing.core.OutOfOrderCore.run_lowered` — the flat-array
    interpreter, ~3x the object loop per configuration.
``vector``
    :func:`~repro.timing.vector.run_lowered_batch`'s array program — one
    NumPy pass over the instruction rows advancing every configuration in
    the batch at once; wins beyond
    :data:`~repro.timing.vector.VECTOR_MIN_BATCH` configurations.

All three are bit-identical (pinned by the golden snapshots and the
equivalence suites), so picking one is purely a performance decision.
:func:`simulate_batch` is that decision point: the sweep engine routes
every trace-sharing group of configurations through it with the default
``auto``, which resolves to ``vector`` for large batches and ``lowered``
otherwise (:func:`resolve_execution`).  The explicit names exist for the
equivalence suites, which pin the three executions against each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

from repro.timing.config import MachineConfig
from repro.timing.results import SimResult

if TYPE_CHECKING:
    from repro.timing.lowered import LoweredTrace
    from repro.trace.container import Trace

__all__ = ["BACKENDS", "resolve_execution", "simulate_batch"]

#: Selectable timing backends (``auto`` resolves per call).
BACKENDS = ("auto", "object", "lowered", "vector")


def resolve_execution(backend: str, num_configs: int,
                      num_instructions: int = 0) -> str:
    """The concrete backend a ``simulate_batch`` call will execute.

    ``auto`` resolves to ``"vector"`` when the batch reaches
    :data:`~repro.timing.vector.VECTOR_MIN_BATCH` configurations and the
    ``instructions x configs`` working set fits the vector backend's
    :data:`~repro.timing.vector.VECTOR_AUTO_CELL_BUDGET` memory budget;
    ``"lowered"`` otherwise.  Explicit names resolve to themselves.
    Raises ``ValueError`` for an unknown backend name.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown timing backend {backend!r}; choose from {BACKENDS}")
    if backend == "auto":
        # The backends load on first use: this module is imported with the
        # timing package, which a result-cache hit must keep NumPy-free.
        from repro.timing.vector import _auto_uses_vector

        return ("vector"
                if _auto_uses_vector(num_configs, num_instructions)
                else "lowered")
    return backend


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
    from repro.timing.vector import run_lowered_batch

    execution = resolve_execution(backend, len(configs), len(trace))
    if execution == "object":
        from repro.timing.core import OutOfOrderCore

        if isinstance(trace, LoweredTrace):
            raise TypeError(
                "the object backend replays DynInstr objects and cannot "
                "run from a LoweredTrace; pass the original Trace")
        results = []
        for config in configs:
            core = OutOfOrderCore(config)
            result = core.run(trace, record_timeline=record_timeline)
            if record_timeline:
                result.timeline = core.timeline
            results.append(result)
        return results
    lowered = trace if isinstance(trace, LoweredTrace) else trace.lower()
    return run_lowered_batch(lowered, configs,
                             record_timeline=record_timeline,
                             force_vector=(execution == "vector"))
