"""The sweep engine: run a sweep's points, cache and stream results.

The engine is the one place in the reproduction that knows *how* experiment
points get executed:

* in-process, on the inline executor (the default, and what a sweep with
  one trace group and no task deadline gets at any ``jobs``),
* or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor` when
  ``jobs > 1`` — each worker rebuilds its kernel workload from the (seeded,
  deterministic) spec, so no large arrays cross the process boundary and
  parallel results are bit-identical to inline ones,
* optionally backed (with a ``cache_dir``) by an on-disk result store — the
  append-only log of :class:`~repro.sweep.cache.ResultCache` (re-running a
  sweep whose points are already cached does zero simulations) — and an
  on-disk :class:`~repro.sweep.tracecache.TraceCache` under
  ``<cache_dir>/traces`` (a point whose *result* misses but whose
  functional trace is cached skips the dominant trace-rebuild cost — in
  every process, parent or worker),
* optionally journaled: with a write-ahead
  :class:`~repro.sweep.journal.SweepJournal` every completed point is
  appended durably as it lands, and a restarted sweep replays the journal
  first — an interrupted million-point run resumes where it died instead
  of starting over (``repro sweep --resume PATH``).

Points are executed in **trace batches**: the points left after the result-
cache scan are grouped by trace identity (kernel, ISA, workload), and each
group acquires its functional trace exactly once — from the trace cache or
one front-end build — lowers it once
(:meth:`~repro.trace.container.Trace.lower`) and simulates every machine
configuration in the group off the shared
:class:`~repro.timing.lowered.LoweredTrace`.  A cold build is an array
program end to end: the builders emit into flat columns, the lowering is
a zero-copy adoption of those columns, the cached payload serializes from
them and the group's trace statistics are computed column-natively — no
per-instruction Python objects exist anywhere on the path.  A trace-cache
hit revives those same columns, so a warm-miss group creates no
instruction objects either and imports no NumPy unless the group is large
enough for the vector backend.  One group is one task, so no two
workers ever build the same trace concurrently (the old cold-cache
duplicate-build race is gone by construction), and the build/lowering
cost is amortised to ~zero per point.

Every build is verified against its NumPy golden reference
(:func:`~repro.experiments.runner.build_kernel_variant` raises on a
mismatch, and the point becomes a failure), so every result the engine
yields, caches or journals is backed by a verified build, and every store
is keyed by the live timing-model and builder versions.

Results stream: :meth:`SweepEngine.iter_results` yields each
:class:`PointResult` the moment it completes (cache hits first, then
simulations in completion order), and both it and :meth:`SweepEngine.run`
accept an ``on_result`` callback for live progress reporting and incremental
output.  :meth:`run` additionally returns the results in the order of
the points it was given, so barrier-style callers see no completion order.

Execution failures are *supervised*, not fatal, by one policy over two
executors (:mod:`repro.sweep.supervisor`): a failing group is split into
single points, a single point is retried once, and a point that still
fails becomes a structured :class:`~repro.sweep.supervisor.PointFailure`
on its :class:`PointResult` instead of aborting the sweep — inline or
under the pool alike.  The pool adds its own recovery: infrastructure
failures (a sandbox that forbids fork, an unpicklable point at submit
time, a pool that breaks mid-run) respawn it with bounded exponential
backoff before the inline executor takes over the rest of the run; a hung
worker is detected by a per-task deadline (``task_timeout``) and its group
re-submitted; and a point that repeatedly kills or hangs its worker is
**quarantined**.

What a run did is one frozen :class:`RunReport`, read from
:attr:`SweepEngine.report`: during a run it shows the run so far, after it
the final record.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, NamedTuple, Optional, Sequence, Tuple, Union)

from repro.sweep.cache import (ResultCache, point_key, sim_from_dict,
                               stats_from_dict)
from repro.sweep.spec import SweepPoint
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats

if TYPE_CHECKING:
    from repro.sweep.journal import SweepJournal
    from repro.sweep.supervisor import PointFailure, PoolSupervisor
    from repro.sweep.tracecache import TraceCache
    from repro.trace.container import Trace

__all__ = ["Batch", "PointResult", "RunReport", "SweepEngine", "SweepFailed",
           "check_engine_settings", "require_complete"]


def __getattr__(name: str) -> Any:
    # The pool executor loads with the pool path, not with the engine: a
    # run served from the result cache never imports concurrent.futures.
    # ``engine.ProcessPoolExecutor`` stays a module attribute that tests
    # can patch (see :meth:`SweepEngine._iter_supervised`).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Callback type for streaming results: called once per completed point.
OnResult = Callable[["PointResult"], None]

#: The ``last_*`` names ``perfbench`` reads after :meth:`SweepEngine.run`:
#: its view of :attr:`SweepEngine.report`, kept until it reads the report.
_PERFBENCH_VIEW = frozenset({
    "last_batches", "last_trace_builds", "last_failures", "last_pool_tasks",
    "last_retries", "last_pool_restarts", "last_timeouts"})


@dataclass
class PointResult:
    """Result of one sweep point: the timing outcome plus trace statistics.

    Attributes
    ----------
    point:
        The fully-resolved :class:`~repro.sweep.spec.SweepPoint` that was
        executed.
    sim:
        The :class:`~repro.timing.results.SimResult` of the timing model.
    stats:
        Static :class:`~repro.trace.stats.TraceStats` of the trace.
    cached:
        True when the whole result was served from the on-disk result cache
        (no simulation ran).
    journaled:
        True when the result was replayed from a write-ahead
        :class:`~repro.sweep.journal.SweepJournal` (a resumed sweep; no
        simulation ran and the result cache was not consulted).
    trace_cached:
        True when the simulation ran but its functional trace came from the
        trace cache (no front-end build ran).
    index:
        Position of the point in the sweep's deterministic expansion order;
        lets streaming consumers reassemble barrier order.
    failure:
        ``None`` for a completed point.  Otherwise the structured
        :class:`~repro.sweep.supervisor.PointFailure` explaining why the
        point has no numbers (quarantined poison point, kernel exception,
        …); ``sim`` and ``stats`` are ``None`` then — check :attr:`ok`
        before touching them.
    key:
        The point's :func:`~repro.sweep.cache.point_key`, hashed once per
        run when the engine has a result store or a journal; else ``None``.
    """

    point: SweepPoint
    sim: Optional[SimResult] = None
    stats: Optional[TraceStats] = None
    cached: bool = False
    journaled: bool = False
    trace_cached: bool = False
    index: int = -1
    failure: Optional[PointFailure] = None
    key: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the point completed (i.e. carries sim/stats numbers from
        a build verified against the golden reference)."""
        return self.failure is None

    @property
    def kernel(self) -> str:
        """Kernel name of the point (shorthand for ``point.kernel``)."""
        return self.point.kernel

    @property
    def isa(self) -> str:
        """ISA variant of the point (shorthand for ``point.isa``)."""
        return self.point.isa

    @property
    def cycles(self) -> int:
        """Simulated cycle count (shorthand for ``sim.cycles``)."""
        return self.sim.cycles


class SweepFailed(Exception):
    """A sweep that feeds a figure or table lost points, so the figure
    cannot be drawn.  ``failed`` holds those points' results (each with
    its :class:`~repro.sweep.supervisor.PointFailure`) in expansion
    order."""

    def __init__(self, failed: Sequence[PointResult]) -> None:
        self.failed = list(failed)
        super().__init__(
            f"{len(self.failed)} sweep point(s) failed: "
            + "; ".join(f"{r.point.label()}: {r.failure.error_type}"
                        for r in self.failed))


def require_complete(results: List[PointResult]) -> List[PointResult]:
    """Return ``results`` if every point completed, else raise
    :class:`SweepFailed` with the ones that did not."""
    failed = [r for r in results if r.failure is not None]
    if failed:
        raise SweepFailed(failed)
    return results


class Batch(NamedTuple):
    """One completed task of a run: a trace group, or a single point split
    from one, simulated off one trace."""

    #: The task's points in expansion order (while the run is yielding
    #: them, those yielded so far).
    points: Tuple[SweepPoint, ...]
    #: The timing backend that executed them (``"lowered"`` or ``"vector"``).
    backend: str
    #: Whether the task built its trace (else a trace store served it).
    built: bool


@dataclass(frozen=True)
class RunReport:
    """What one engine run did (:attr:`SweepEngine.report`).

    It holds only state the run has: the result-cache and journal counts,
    one :class:`Batch` per completed task, and the record of the run's
    :class:`~repro.sweep.supervisor.PoolSupervisor`.  Every other count is
    a property derived from those, so no two counts can disagree.

    Attributes
    ----------
    cached / journaled:
        Points served whole from the result cache / replayed from the
        write-ahead journal (a resumed sweep; zero without a journal).
    batches:
        One :class:`Batch` per completed task, in completion order.
    pool_tasks:
        Tasks submitted to the process pool (0 when everything ran
        inline): one per trace group, plus every re-submission — the
        single points split from a failing group, retries, and tasks
        re-run after a pool restart.
    retries:
        Tasks submitted because an earlier task failed — split singles
        plus single-point retries — on either executor.  Tasks re-run
        after a pool restart (victims, probation suspects) are not retries.
    pool_restarts / timeouts:
        Worker-pool respawns, and task deadlines that fired.
    failures:
        The :class:`~repro.sweep.supervisor.PointFailure` of every point
        the run gave up on (also on those results' ``failure`` field).
    fallback_reason:
        Why the run gave up its process pool and finished on the inline
        executor, or ``None``.
    """

    cached: int = 0
    journaled: int = 0
    batches: Tuple[Batch, ...] = ()
    pool_tasks: int = 0
    retries: int = 0
    pool_restarts: int = 0
    timeouts: int = 0
    failures: Tuple[PointFailure, ...] = ()
    fallback_reason: Optional[str] = None

    @property
    def simulated(self) -> int:
        """Points simulated (every point of every batch)."""
        return sum(len(batch.points) for batch in self.batches)

    @property
    def trace_builds(self) -> int:
        """Front-end builds.  Points sharing a trace are batched, so this
        counts distinct traces built: zero on a warm trace cache, and
        never above the sweep's (kernel, ISA, workload) combinations."""
        return sum(batch.built for batch in self.batches)

    @property
    def trace_hits(self) -> int:
        """Simulated points whose trace came from a trace store."""
        return sum(len(batch.points) for batch in self.batches
                   if not batch.built)

    @property
    def quarantined(self) -> int:
        """Failures quarantined for repeatedly killing or hanging their
        worker."""
        return _quarantined(self.failures)

    def counts(self) -> Dict[str, int]:
        """Every count of the run by name (a service job's ``telemetry``)."""
        return {"simulated": self.simulated, "cached": self.cached,
                "journaled": self.journaled, "trace_hits": self.trace_hits,
                "trace_builds": self.trace_builds,
                "pool_tasks": self.pool_tasks, "retries": self.retries,
                "pool_restarts": self.pool_restarts,
                "timeouts": self.timeouts, "failed": len(self.failures),
                "quarantined": self.quarantined}

    def __repr__(self) -> str:
        # Counts only: the batches hold every point of the run.
        counts = ", ".join(f"{name}={n}" for name, n in self.counts().items())
        return (f"RunReport({counts}, "
                f"fallback_reason={self.fallback_reason!r})")


def _quarantined(failures: Iterable[PointFailure]) -> int:
    return sum(failure.quarantined for failure in failures)


def _trace_identity(point: SweepPoint) -> Tuple[str, str, int, int]:
    """Grouping key of the functional trace behind a (resolved) point.

    Mirrors :func:`~repro.sweep.tracecache.trace_key` minus the builder
    version (the same for every point of a run): two points with equal identity
    are simulated off one shared trace/lowering.
    """
    return (point.kernel, point.isa, point.spec.scale, point.spec.seed)


def _group_by_trace(points: Sequence[SweepPoint],
                    indices: Iterable[int]) -> List[List[int]]:
    """Group point indices by trace identity, keeping expansion order."""
    groups: Dict[Tuple[str, str, int, int], List[int]] = {}
    for i in indices:
        groups.setdefault(_trace_identity(points[i]), []).append(i)
    return list(groups.values())


def _acquire_trace(point: SweepPoint,
                   trace_dir: Optional[str]) -> Tuple[Trace, bool]:
    """Fetch the point's functional trace from the trace store under
    ``trace_dir`` (if any) or build it once.

    Returns ``(trace, from_cache)``.  A fresh build is verified against
    the golden reference (it raises otherwise) and stores its trace for
    every later run and worker.  Only a miss imports the kernels (and with
    them NumPy): a hit is a column-mode trace, simulated in pure Python.
    """
    traces = None
    if trace_dir:
        from repro.sweep.tracecache import TraceCache

        traces = TraceCache(trace_dir)
        trace = traces.get(point)
        if trace is not None:
            return trace, True
    # Local import: avoids a cycle with the experiments layer, which
    # imports the engine.
    from repro.experiments.runner import build_kernel_variant

    build = build_kernel_variant(point.kernel, point.isa, spec=point.spec)
    if traces is not None:
        traces.put(point, build.trace)
    return build.trace, False


def _simulate_group(args: Tuple[Tuple[SweepPoint, ...], Optional[str]]
                    ) -> Tuple[List[SimResult], TraceStats, bool, str]:
    """Run one trace-sharing group of resolved points: the top-level
    (picklable) task both executors run.

    ``args`` is ``(points, trace_dir)``.  The trace is acquired once and
    lowered once; every configuration in the group is simulated off the
    shared flat arrays through the timing package's batch dispatch, whose
    ``auto`` rule picks the vector array program for large groups and the
    lowered interpreter otherwise.  The build and the lowering stay where
    the task runs; it returns only the per-point sims, the group's trace
    statistics, whether it built the trace, and the executed backend.
    """
    from repro.sweep import faults
    from repro.timing.dispatch import resolve_execution, simulate_batch
    from repro.trace.stats import summarize_trace

    points, trace_dir = args
    # Deterministic fault injection (no-op unless REPRO_FAULT_INJECT is
    # set): every point gets its chance to crash/hang/raise before any
    # simulation work, in the process that would execute it.
    for point in points:
        faults.fire_faults(point)
    trace, from_cache = _acquire_trace(points[0], trace_dir)
    stats = summarize_trace(trace)
    sims = simulate_batch(trace, [p.config for p in points])
    backend = resolve_execution("auto", len(points), len(trace),
                                lowered=trace.lower())
    return sims, stats, not from_cache, backend


def _init_pool_worker() -> None:
    """Set up a fresh pool worker: restore the default SIGTERM disposition,
    then mark the process for the fault harness.

    Forked workers inherit the parent's handlers, and the CLI's raises an
    exception: without the reset, every pool recycle (which SIGTERMs the
    workers) would print a traceback per worker on stderr.  It comes
    first, before anything a SIGTERM could interrupt.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    from repro.sweep import faults

    faults.mark_worker()


def check_engine_settings(jobs: int, task_timeout: Optional[float]) -> None:
    """Reject engine settings that make no sense with a :class:`ValueError`
    naming the field: a worker count below 1, or a task deadline that is
    not a positive number of seconds.  :class:`SweepEngine` and
    :class:`~repro.sweep.service.SweepService` both call it first, so a
    bad setting fails where it is given, before anything is written."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if task_timeout is not None and not task_timeout > 0:
        raise ValueError(
            f"task_timeout must be > 0 seconds, got {task_timeout}")


class SweepEngine:
    """Runs sweep points with optional process parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker-process count, at least 1.  ``jobs > 1`` runs a sweep with
        more than one trace group (or a ``task_timeout``) on a
        ``ProcessPoolExecutor``; everything else runs in-process on the
        inline executor, with bit-identical results.
    cache_dir:
        Root directory for the on-disk caches, or an open
        :class:`~repro.sweep.cache.ResultCache` to share (the sweep
        service hands one store to every job); ``None`` disables both.
        Results live in the segment log under ``<cache_dir>/log/`` and
        serialized traces under ``<cache_dir>/traces/``.  Both are keyed by
        the live :data:`~repro.versions.MODEL_VERSION` (results only) and
        :data:`~repro.versions.BUILDER_VERSION`, read at call
        time.  Every build is verified against its NumPy golden reference,
        so both stores admit every completed result.
    journal:
        Write-ahead journal for crash-safe sweeps: a
        :class:`~repro.sweep.journal.SweepJournal`, a path for one, or
        ``None`` (default, no journaling).  Every completed point is
        appended as it lands; on the next run over the same journal the
        recorded points replay instantly and are neither re-simulated nor
        re-built (``repro sweep --resume PATH``).  Journaled *failure*
        records are not replayed: a resume re-runs those points.
    task_timeout:
        Wall-clock seconds one pool task (a trace group) may run before its
        worker is presumed hung and the pool recycled; ``None`` (default)
        disables deadlines.  CLI: ``--task-timeout``.

    What the current (or most recent) run did is :attr:`report`.
    """

    # The run state :attr:`report` is built from; each run starts afresh.
    _cached = 0
    _journaled = 0
    _batches: Sequence[Batch] = ()
    _supervisor: Optional[PoolSupervisor] = None

    def __init__(self, jobs: int = 1,
                 cache_dir: Union[None, str, ResultCache] = None,
                 journal: Union[None, str, SweepJournal] = None,
                 task_timeout: Optional[float] = None) -> None:
        check_engine_settings(jobs, task_timeout)
        self.jobs = int(jobs)
        self.task_timeout = task_timeout
        # A store opened here closes after each run; a shared one, never.
        self._owns_cache = not isinstance(cache_dir, ResultCache)
        if self._owns_cache:
            cache_dir = ResultCache(cache_dir) if cache_dir else None
        self.cache = cache_dir
        self._trace_cache: Optional[TraceCache] = None
        if isinstance(journal, (str, os.PathLike)):
            # Only a journaled run loads the journal module.
            from repro.sweep.journal import SweepJournal

            journal = SweepJournal(journal)
        self.journal = journal

    @property
    def trace_cache(self) -> Optional[TraceCache]:
        """The trace store under ``<cache_dir>/traces`` (``None`` without a
        ``cache_dir``), built on first use: only a result miss needs it,
        so a run served from the result cache never imports it."""
        if self._trace_cache is None and self.cache is not None:
            from repro.sweep.tracecache import TRACE_SUBDIR, TraceCache

            self._trace_cache = TraceCache(
                os.path.join(self.cache.cache_dir, TRACE_SUBDIR))
        return self._trace_cache

    @property
    def report(self) -> RunReport:
        """The :class:`RunReport` of the run so far, or of the most recent
        run once it has ended."""
        sup = self._supervisor
        supervised = () if sup is None else (
            sup.tasks, sup.retries, sup.pool_restarts, sup.timeouts,
            tuple(sup.failures), sup.fallback_reason)
        return RunReport(self._cached, self._journaled, tuple(self._batches),
                         *supervised)

    def supervision(self) -> Dict[str, int]:
        """:attr:`report`'s ``retries``, ``pool_restarts``, ``timeouts`` and
        ``quarantined`` for the run so far, read off its supervisor without
        building a :class:`RunReport` (every ``--stream-jsonl`` record
        carries them)."""
        sup = self._supervisor
        if sup is None:
            return {"retries": 0, "pool_restarts": 0, "timeouts": 0,
                    "quarantined": 0}
        return {"retries": sup.retries, "pool_restarts": sup.pool_restarts,
                "timeouts": sup.timeouts,
                "quarantined": _quarantined(sup.failures)}

    def __getattr__(self, name: str) -> Any:
        """perfbench's view: its ``last_*`` names read :attr:`report`."""
        if name in _PERFBENCH_VIEW:
            return getattr(self.report, name[len("last_"):])
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------

    def run(self, sweep: Iterable[SweepPoint],
            on_result: Optional[OnResult] = None) -> List[PointResult]:
        """Execute a sweep and return one :class:`PointResult` per point, in
        the order of the sweep's points.

        Parameters
        ----------
        sweep:
            The :class:`~repro.sweep.spec.SweepPoint`\\ s to run (a list
            from :func:`~repro.sweep.spec.grid_points`, or any iterable).
        on_result:
            Optional callback invoked with each :class:`PointResult` as it
            completes (completion order, not expansion order) — the barrier
            return value is unaffected.
        """
        results = {r.index: r
                   for r in self.iter_results(sweep, on_result=on_result)}
        return [results[i] for i in range(len(results))]

    def iter_results(self, sweep: Iterable[SweepPoint],
                     on_result: Optional[OnResult] = None,
                     ) -> Iterator[PointResult]:
        """Yield one :class:`PointResult` per point *as each completes*.

        Journal replays and result-cache hits are yielded first (they are
        free), then simulated points in completion order — under a worker
        pool that order is nondeterministic, so each result carries its
        expansion-order ``index``.  The yielded set is always exactly the
        sweep's points; sorting by ``index`` reproduces :meth:`run`'s
        return value.

        ``on_result`` (if given) is called with every result just before it
        is yielded, which suits callers that both stream and collect.

        With the engine's ``journal``, every non-replayed result is
        appended to it *before* ``on_result`` runs — a crash inside the
        callback still leaves the point recorded for resume.
        """
        points = [p.resolved() for p in sweep]
        self._cached = self._journaled = 0
        self._batches = []
        self._supervisor = None
        journal = self.journal
        completed = journal.load() if journal is not None else {}

        try:
            yield from self._iter_results_journaled(points, completed,
                                                    on_result)
        finally:
            # Release the journal's writer lock (and file handle) and the
            # result segment whether the run completed, raised, or the
            # consumer abandoned the generator — a later run (this process
            # or another) must be able to take the lock.
            if journal is not None:
                journal.close()
            if self._owns_cache and self.cache is not None:
                self.cache.close()

    def _iter_results_journaled(self, points: Sequence[SweepPoint],
                                completed: Dict[str, Dict[str, Any]],
                                on_result: Optional[OnResult],
                                ) -> Iterator[PointResult]:
        journal, cache = self.journal, self.cache
        # Each point is hashed once per run, and only when a store or the
        # journal reads the key.
        keys: Sequence[Optional[str]] = (
            [point_key(p) for p in points]
            if cache is not None or journal is not None
            else [None] * len(points))

        def emit(result: PointResult) -> PointResult:
            result.key = keys[result.index]
            if journal is not None and not result.journaled:
                journal.record(result.key, result)
            if on_result is not None:
                on_result(result)
            return result

        # Serve what we can from the journal, then the result cache.
        todo: List[int] = []
        for i, (point, key) in enumerate(zip(points, keys)):
            if completed:
                record = completed.get(key)
                if record is not None:
                    sim = sim_from_dict(record["sim"])
                    stats = stats_from_dict(record["stats"])
                    self._journaled += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           journaled=True, index=i))
                    continue
            if cache is not None:
                cached = cache.get(point, key)
                if cached is not None:
                    sim, stats = cached
                    self._cached += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           cached=True, index=i))
                    continue
            todo.append(i)

        if todo:
            for result in self._iter_supervised(points, todo):
                if result.failure is None and cache is not None:
                    cache.put(result.point, result.sim, result.stats,
                              keys[result.index])
                yield emit(result)

    # ------------------------------------------------------------------

    def _iter_supervised(self, points: Sequence[SweepPoint],
                         todo: Sequence[int]) -> Iterator[PointResult]:
        """Yield the results of the ``todo`` points, run under supervision.

        One task is one *trace group* (see module docstring): it acquires
        and lowers the group's trace once and simulates all of its
        configurations, so each distinct trace is built at most once —
        duplicate concurrent builds of the same trace cannot happen — and
        a group of ``VECTOR_MIN_BATCH`` or more configurations stays whole
        on the vector backend.

        :class:`~repro.sweep.supervisor.PoolSupervisor` applies the one
        failure policy (split a failing group, retry a single point once,
        then record a failure) over one of two executors: the process pool
        when ``jobs > 1`` and there is more than one group or a
        ``task_timeout`` to enforce, else the inline executor.  The pool
        runs one worker per group at most; when it fails for good, the
        supervisor finishes the run inline and says why in the report's
        ``fallback_reason``.

        The single points split from a failing group share its trace: with
        a ``cache_dir`` through ``<cache_dir>/traces``, without one through
        a scratch trace store made at the first split and removed when the
        run ends.
        """
        from repro.sweep.supervisor import PoolSupervisor

        groups = _group_by_trace(points, todo)
        group_size = {i: len(group) for group in groups for i in group}
        trace_dir = (self.trace_cache.cache_dir
                     if self.trace_cache is not None else None)
        scratch: Optional[str] = None

        def make_args(indices: Sequence[int]) -> tuple:
            nonlocal scratch
            task_dir = trace_dir
            if task_dir is None and len(indices) < group_size[indices[0]]:
                if scratch is None:
                    import tempfile

                    scratch = tempfile.mkdtemp(prefix="repro-split-traces-")
                task_dir = scratch
            return (tuple(points[i] for i in indices), task_dir)

        pool_factory = None
        if self.jobs > 1 and (len(groups) > 1
                              or self.task_timeout is not None):
            module = sys.modules[__name__]
            # The lambda resolves the engine module's ProcessPoolExecutor
            # attribute per call, so tests that monkeypatch it keep working.
            pool_factory = lambda n: module.ProcessPoolExecutor(  # noqa: E731
                max_workers=n, initializer=_init_pool_worker)
        supervisor = PoolSupervisor(
            points, groups, make_args, _simulate_group,
            min(self.jobs, len(groups), (os.cpu_count() or 1) * 4),
            pool_factory=pool_factory, task_timeout=self.task_timeout)
        # The report reads the supervisor live, so the streaming callbacks
        # (--stream-jsonl) see current counts with each result.
        self._supervisor = supervisor
        events = supervisor.run()
        try:
            for kind, payload, extra in events:
                if kind == "failure":
                    failure: PointFailure = payload
                    yield PointResult(point=points[failure.index],
                                      failure=failure, index=failure.index)
                    continue
                sims, stats, built, backend = extra
                row, done = len(self._batches), ()
                for i, sim in zip(payload, sims):
                    # A batch holds the points yielded so far, so the
                    # report counts each point as it is delivered.
                    done += (points[i],)
                    self._batches[row:] = [Batch(done, backend, built)]
                    yield PointResult(point=points[i], sim=sim, stats=stats,
                                      trace_cached=not built, index=i)
        finally:
            # Runs on completion and — crucially — when the consumer closes
            # the generator early (GeneratorExit at a yield): closing the
            # supervision loop tears its pool down, so queued points are
            # cancelled instead of being executed behind the caller's back.
            events.close()
            if scratch is not None:
                import shutil

                shutil.rmtree(scratch, ignore_errors=True)
