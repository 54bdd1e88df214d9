"""The sweep engine: expand a spec, run its points, cache and stream results.

The engine is the one place in the reproduction that knows *how* experiment
points get executed:

* serially in-process (the deterministic fallback, and the default),
* or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor` when
  ``jobs > 1`` — each worker rebuilds its kernel workload from the (seeded,
  deterministic) spec, so no large arrays cross the process boundary and
  parallel results are bit-identical to serial ones,
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
enough for the vector backend.  Under a worker pool one group
is one task, so no two workers ever build the same trace concurrently (the
old cold-cache duplicate-build race is gone by construction), and the
build/lowering cost is amortised to ~zero per point.

Every build is verified against its NumPy golden reference
(:func:`~repro.experiments.runner.build_kernel_variant` raises on a
mismatch, and the point becomes a failure), so every result the engine
yields, caches or journals is backed by a verified build, and every store
is keyed by the live timing-model and builder versions.

Results stream: :meth:`SweepEngine.iter_results` yields each
:class:`PointResult` the moment it completes (cache hits first, then
simulations in completion order), and both it and :meth:`SweepEngine.run`
accept an ``on_result`` callback for live progress reporting and incremental
output.  :meth:`run` additionally reassembles the deterministic
spec-expansion order, so existing barrier-style callers are unchanged.

Execution failures are *supervised*, not fatal
(:mod:`repro.sweep.supervisor`): pool-infrastructure failures (a sandbox
that forbids fork, an unpicklable point at submit time, a pool that breaks
mid-run) respawn the pool with bounded exponential backoff before the
serial fallback takes over; a hung worker is detected by a per-task
deadline (``task_timeout``) and its group re-submitted; a failing group
is split into single points, and a point that repeatedly kills or hangs
its worker is **quarantined**;
and a point whose kernel raises — under the pool or on the serial path —
becomes a structured :class:`~repro.sweep.supervisor.PointFailure` on its
:class:`PointResult` instead of aborting the sweep.
:attr:`SweepEngine.last_fallback_reason`, :attr:`SweepEngine.last_retries`,
:attr:`SweepEngine.last_pool_restarts`, :attr:`SweepEngine.last_timeouts`
and :attr:`SweepEngine.last_failures` record what supervision did.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple, Union)

from repro.sweep.cache import (ResultCache, point_key, sim_from_dict,
                               stats_from_dict)
from repro.sweep.journal import SweepJournal
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats

if TYPE_CHECKING:
    from repro.sweep.supervisor import PointFailure
    from repro.sweep.tracecache import TraceCache
    from repro.trace.container import Trace

__all__ = ["PointResult", "SweepEngine", "SweepFailed", "require_complete"]


def __getattr__(name: str) -> Any:
    # The pool executor loads with the pool path, not with the engine: a
    # run served from the result cache never imports concurrent.futures.
    # ``engine.ProcessPoolExecutor`` stays a module attribute that tests
    # can patch (see :meth:`SweepEngine._iter_pool`).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Callback type for streaming results: called once per completed point.
OnResult = Callable[["PointResult"], None]


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
    """

    point: SweepPoint
    sim: Optional[SimResult] = None
    stats: Optional[TraceStats] = None
    cached: bool = False
    journaled: bool = False
    trace_cached: bool = False
    index: int = -1
    failure: Optional[PointFailure] = None

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
                   traces: Optional[TraceCache]) -> Tuple[Trace, bool]:
    """Fetch the point's functional trace from the cache or build it once.

    Returns ``(trace, from_cache)``.  A fresh build is verified against
    the golden reference (it raises otherwise) and stores its trace for
    every later run and worker.  Only a miss imports the kernels (and with
    them NumPy): a hit is a column-mode trace, simulated in pure Python.
    """
    if traces is not None:
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


def _simulate_group(points: Sequence[SweepPoint],
                    traces: Optional[TraceCache],
                    ) -> Tuple[List[Tuple[SimResult, TraceStats, bool]],
                               int, Tuple[int, str]]:
    """Run one trace-sharing group of resolved points in this process.

    The trace is acquired once and lowered once; every configuration in
    the group is simulated off the shared flat arrays through the timing
    package's batch dispatch, whose ``auto`` rule picks the vector array
    program for large groups and the lowered interpreter otherwise.  Returns
    the per-point ``(sim, stats, trace_cached)`` rows, how many front-end
    builds ran (0 or 1), and the group's ``(size, executed backend)``.
    """
    from repro.sweep import faults
    from repro.timing.dispatch import resolve_execution, simulate_batch
    from repro.trace.stats import summarize_trace

    # Deterministic fault injection (no-op unless REPRO_FAULT_INJECT is
    # set): every point gets its chance to crash/hang/raise before any
    # simulation work, in the process that would execute it.
    for point in points:
        faults.fire_faults(point)
    trace, from_cache = _acquire_trace(points[0], traces)
    stats = summarize_trace(trace)
    sims = simulate_batch(trace, [p.config for p in points])
    rows = [(sim, stats, from_cache) for sim in sims]
    execution = (len(points),
                 resolve_execution("auto", len(points), len(trace),
                                   lowered=trace.lower()))
    return rows, 0 if from_cache else 1, execution


def _init_pool_worker() -> None:
    """Restore the default SIGTERM disposition in a fresh pool worker.

    Forked workers inherit the parent's handlers, and the CLI's raises an
    exception: without this, every pool recycle (which SIGTERMs the
    workers) would print a traceback per worker on stderr.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _pool_worker(args: Tuple[Tuple[SweepPoint, ...], Optional[str]]
                 ) -> Tuple[List[Tuple[SimResult, TraceStats, bool]], int,
                            Tuple[int, str]]:
    """Top-level (picklable) worker for the process pool: one trace group.

    The functional build and the lowered trace stay in the worker — only
    the compact result rows (and whether the trace came from the shared
    on-disk cache, plus the build count and backend execution record)
    travel back to the parent.
    """
    from repro.sweep import faults
    from repro.sweep.tracecache import TraceCache

    faults.mark_worker()
    points, trace_dir = args
    traces = TraceCache(trace_dir) if trace_dir else None
    return _simulate_group(points, traces)


class SweepEngine:
    """Runs sweep points with optional process parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker-process count, at least 1.  ``jobs == 1`` selects the
        deterministic in-process path; ``jobs > 1`` uses a
        ``ProcessPoolExecutor``.
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
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Union[None, str, ResultCache] = None,
                 journal: Union[None, str, SweepJournal] = None,
                 task_timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and not task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0 seconds, got {task_timeout}")
        self.jobs = int(jobs)
        self.task_timeout = task_timeout
        # A store opened here closes after each run; a shared one, never.
        self._owns_cache = not isinstance(cache_dir, ResultCache)
        if self._owns_cache:
            cache_dir = ResultCache(cache_dir) if cache_dir else None
        self.cache = cache_dir
        self._trace_cache: Optional[TraceCache] = None
        if isinstance(journal, (str, os.PathLike)):
            journal = SweepJournal(journal)
        self.journal = journal
        self._reset_counters()

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

    def _reset_counters(self) -> None:
        """Zero the ``last_*`` record of the most recent run."""
        #: Number of points actually simulated by the most recent run.
        self.last_simulated = 0
        #: Number of points served whole from the result cache.
        self.last_cached = 0
        #: Number of points replayed from the write-ahead journal by the
        #: most recent run (a resumed sweep; zero without a journal).
        self.last_journaled = 0
        #: Of the simulated points, how many got their trace from the cache.
        self.last_trace_hits = 0
        #: Front-end builds the most recent run executed.  Points sharing a
        #: trace are batched, so this counts *distinct traces built* — with
        #: a warm trace cache it is zero, and it never exceeds the number of
        #: distinct (kernel, ISA, workload) combinations in the sweep.
        self.last_trace_builds = 0
        #: Tasks the most recent run submitted to the worker pool (0 when
        #: everything ran serially): one per trace group, plus every
        #: re-submission — the single points split from a failing group,
        #: retries, and tasks re-run after a pool restart.
        self.last_pool_tasks = 0
        #: Why the most recent run fell back to serial execution (if it did).
        self.last_fallback_reason: Optional[str] = None
        #: Task retries the most recent run's supervision performed (pool
        #: re-submissions after crash/timeout/exception, plus serial
        #: point-isolation re-runs).
        self.last_retries = 0
        #: Worker-pool respawns the most recent run performed.
        self.last_pool_restarts = 0
        #: Task deadlines that fired during the most recent run.
        self.last_timeouts = 0
        #: Points the most recent run gave up on, as
        #: :class:`~repro.sweep.supervisor.PointFailure` records (also
        #: carried on the corresponding results' ``failure`` field).
        self.last_failures: List[PointFailure] = []
        #: Of those, how many were quarantined for repeatedly killing or
        #: hanging their worker.
        self.last_quarantined = 0
        #: Per simulated trace group of the most recent run: ``(number of
        #: configurations, executed timing backend)`` — the observable
        #: record that groups were routed through the batch dispatch, and
        #: which execution each one resolved to.
        self.last_batches: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------

    def run(self, sweep: Union[SweepSpec, Iterable[SweepPoint]],
            on_result: Optional[OnResult] = None) -> List[PointResult]:
        """Execute a sweep and return one :class:`PointResult` per point, in
        the sweep's deterministic expansion order.

        Parameters
        ----------
        sweep:
            A :class:`~repro.sweep.spec.SweepSpec` or an iterable of
            :class:`~repro.sweep.spec.SweepPoint`\\ s.
        on_result:
            Optional callback invoked with each :class:`PointResult` as it
            completes (completion order, not expansion order) — the barrier
            return value is unaffected.
        """
        results = {r.index: r
                   for r in self.iter_results(sweep, on_result=on_result)}
        return [results[i] for i in range(len(results))]

    def iter_results(self, sweep: Union[SweepSpec, Iterable[SweepPoint]],
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
        points = [p.resolved() for p in
                  (sweep.points() if isinstance(sweep, SweepSpec) else sweep)]
        self._reset_counters()
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
        journal = self.journal

        def emit(result: PointResult) -> PointResult:
            if journal is not None and not result.journaled:
                journal.record(point_key(result.point), result)
            if on_result is not None:
                on_result(result)
            return result

        # Serve what we can from the journal, then the result cache.
        todo: List[int] = []
        for i, point in enumerate(points):
            if completed:
                record = completed.get(point_key(point))
                if record is not None:
                    sim = sim_from_dict(record["sim"])
                    stats = stats_from_dict(record["stats"])
                    self.last_journaled += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           journaled=True, index=i))
                    continue
            if self.cache is not None:
                cached = self.cache.get(point)
                if cached is not None:
                    sim, stats = cached
                    self.last_cached += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           cached=True, index=i))
                    continue
            todo.append(i)

        if not todo:
            return

        # A set: results land in completion order under the pool, and a
        # list's remove() would make every landing an O(n) scan.  Order for
        # the serial path comes from sorting, not from insertion.
        remaining: Set[int] = set(todo)
        if self.jobs > 1 and len(todo) > 1:
            for result in self._iter_pool(points, remaining):
                yield emit(self._record(result))
            # On pool fallback `remaining` still holds what the pool did
            # not finish; the serial loop below completes the sweep.

        for result in self._iter_serial(points, remaining):
            yield emit(self._record(result))

    # ------------------------------------------------------------------

    def _iter_serial(self, points: Sequence[SweepPoint],
                     remaining: Set[int]) -> Iterator[PointResult]:
        """Yield the remaining points' results, simulated in this process.

        Points are batched by trace identity — one trace acquisition and
        one lowering per group, then one batch simulation through the
        timing dispatch (all of a group's configurations at once, so the
        vector backend can amortise the instruction walk), yielded one
        point at a time.  The generator stays lazy at group granularity:
        no group beyond the one being consumed is simulated ahead of the
        consumer.

        A group that raises is re-run point by point so one bad point
        cannot abort the sweep (:meth:`_isolate_serial_group`).
        """
        for group in _group_by_trace(points, sorted(remaining)):
            try:
                rows, builds, execution = _simulate_group(
                    [points[i] for i in group], self.trace_cache)
            except Exception:
                yield from self._isolate_serial_group(points, group,
                                                      remaining)
                continue
            self.last_trace_builds += builds
            self.last_batches.append(execution)
            for i, (sim, stats, from_cache) in zip(group, rows):
                remaining.discard(i)
                yield PointResult(point=points[i], sim=sim, stats=stats,
                                  trace_cached=from_cache, index=i)

    def _isolate_serial_group(self, points: Sequence[SweepPoint],
                              group: Sequence[int],
                              remaining: Set[int]) -> Iterator[PointResult]:
        """Re-run one raising serial group point by point.

        The solo pass doubles as the retry — a transient exception
        recovers here — and the points that *still* raise become
        :class:`~repro.sweep.supervisor.PointFailure` records
        (``phase="serial"``, two attempts) instead of aborting the sweep.
        """
        from repro.sweep.supervisor import PointFailure

        for i in group:
            self.last_retries += 1
            try:
                rows, builds, execution = _simulate_group(
                    [points[i]], self.trace_cache)
            except Exception as exc:
                remaining.discard(i)
                point = points[i]
                yield PointResult(
                    point=point, index=i,
                    failure=PointFailure(
                        index=i, kernel=point.kernel, isa=point.isa,
                        config=point.config.name,
                        error_type=type(exc).__name__, message=str(exc),
                        phase="serial", attempts=2))
                continue
            self.last_trace_builds += builds
            self.last_batches.append(execution)
            sim, stats, from_cache = rows[0]
            remaining.discard(i)
            yield PointResult(point=points[i], sim=sim, stats=stats,
                              trace_cached=from_cache, index=i)

    def _record(self, result: PointResult) -> PointResult:
        """Account for one fresh (non-result-cached) result and cache it."""
        if result.failure is not None:
            self.last_failures.append(result.failure)
            if result.failure.quarantined:
                self.last_quarantined += 1
            return result
        self.last_simulated += 1
        if result.trace_cached:
            self.last_trace_hits += 1
        if self.cache is not None:
            self.cache.put(result.point, result.sim, result.stats)
        return result

    def _iter_pool(self, points: Sequence[SweepPoint],
                   remaining: Set[int]) -> Iterator[PointResult]:
        """Yield pool-computed results, discarding their indices from
        ``remaining`` as they land.

        One submitted task is one *trace group* (see module docstring):
        the worker acquires and lowers the group's trace once and
        simulates all of its configurations, so each distinct trace is
        built at most once across the whole pool — duplicate concurrent
        builds of the same trace cannot happen — and a group of
        ``VECTOR_MIN_BATCH`` or more configurations stays whole on the
        vector backend.  A pool with fewer groups than workers runs one
        worker per group.

        Execution is supervised (:class:`~repro.sweep.supervisor
        .PoolSupervisor`): infrastructure failures respawn the pool with
        backoff, hung tasks are detected by ``task_timeout`` deadlines and
        re-submitted, and points that repeatedly kill or hang a worker are
        quarantined — yielded as failed results — instead of costing the
        run its parallelism.  Only when the restart budget is spent does
        the generator stop with :attr:`last_fallback_reason` set and the
        unfinished indices still in ``remaining``, for the caller's serial
        path to finish.
        """
        trace_dir = (self.trace_cache.cache_dir
                     if self.trace_cache is not None else None)
        groups = _group_by_trace(points, sorted(remaining))
        workers = min(self.jobs, len(groups), (os.cpu_count() or 1) * 4)

        def make_args(indices: Sequence[int]) -> tuple:
            return (tuple(points[i] for i in indices), trace_dir)

        from repro.sweep.supervisor import PoolSupervisor

        engine_module = sys.modules[__name__]
        supervisor = PoolSupervisor(
            points, groups, make_args, _pool_worker, workers,
            # The lambda resolves the engine module's ProcessPoolExecutor
            # attribute per call, so tests that monkeypatch it keep working.
            pool_factory=lambda n: engine_module.ProcessPoolExecutor(
                max_workers=n, initializer=_init_pool_worker),
            task_timeout=self.task_timeout)
        events = supervisor.run()
        try:
            for kind, payload, extra in events:
                # Fold the supervision telemetry in continuously, so the
                # streaming callbacks (--stream-jsonl) see current counts
                # with each result, not only the end-of-run totals.
                self.last_pool_tasks = supervisor.tasks
                self.last_retries = supervisor.retries
                self.last_pool_restarts = supervisor.pool_restarts
                self.last_timeouts = supervisor.timeouts
                if kind == "failure":
                    failure: PointFailure = payload
                    remaining.discard(failure.index)
                    yield PointResult(point=points[failure.index],
                                      failure=failure, index=failure.index)
                    continue
                indices = payload
                rows, builds, execution = extra
                self.last_trace_builds += builds
                self.last_batches.append(execution)
                for i, (sim, stats, trace_cached) in zip(indices, rows):
                    remaining.discard(i)
                    yield PointResult(point=points[i], sim=sim, stats=stats,
                                      trace_cached=trace_cached, index=i)
        finally:
            # Runs on normal completion, on fallback, and — crucially — when
            # the consumer closes the generator early (GeneratorExit at a
            # yield): closing the supervision loop tears its pool down, so
            # queued points are cancelled instead of being executed to
            # completion behind the caller's back.
            events.close()
            self.last_pool_tasks = supervisor.tasks
            self.last_retries = supervisor.retries
            self.last_pool_restarts = supervisor.pool_restarts
            self.last_timeouts = supervisor.timeouts
            if supervisor.fallback_reason is not None:
                self.last_fallback_reason = supervisor.fallback_reason

