"""Supervised execution: one failure policy, two executors.

Every simulated point of a sweep runs through :class:`PoolSupervisor`.  It
owns the one failure policy of the engine — split a failing group into
single points, retry a single point once, then give up on it as a
structured :class:`PointFailure` — and applies it to task outcomes from
either of two executors:

* the **process pool** (a ``ProcessPoolExecutor``), for a sweep with
  ``jobs > 1`` and more than one trace group or a task deadline;
* the **inline executor** (:class:`InlineExecutor`), which runs each task
  in this process at submit time.  It has no deadlines and no crash
  isolation, so the only failure it reports is a raised exception.

What the pool adds on top of the policy, all bounded and deterministic:

**Per-task deadlines.**  With ``task_timeout`` set, every submitted group
carries a wall-clock deadline.  The loop waits with a timeout instead of
forever; an overdue task's worker is presumed hung, the whole pool is
recycled (a running task cannot be cancelled any other way), the victim
tasks that shared the pool are re-queued untouched, and the hung group is
re-submitted with its failure counted.  The supervisor keeps at most
``workers`` tasks in flight so a deadline measures *running* time, not
queue time.

**Bounded pool restarts with backoff.**  Pool-infrastructure failures —
``BrokenProcessPool`` mid-run, ``PicklingError``/``OSError`` at submit —
respawn the pool, sleeping an exponentially growing delay
(:func:`backoff_delay`) between attempts.  Only restarts made without
progress count against the budget: after :data:`MAX_POOL_RESTARTS` of
them in a row, with no task completing in between, the supervisor gives
up on the pool, records why in :attr:`PoolSupervisor.fallback_reason` and
runs the rest of the queue on the inline executor.  A pool that cannot be
created at all takes the same route at once.  Any completed task resets
the count, so a transient hiccup costs one restart and any number of
poison points among healthy work can be quarantined.

**Probation (precise blame).**  When the pool breaks with several tasks in
flight, the culprit is unknowable — the executor reports one aggregate
``BrokenProcessPool``.  Rather than punish every task, the supervisor
re-runs the suspects *one at a time* in the fresh pool: a suspect that
completes is innocent, and a suspect that breaks the pool alone is guilty
beyond doubt.  Only precisely-blamed failures count against a task.

**Quarantine of single points.**  A multi-point group that raises, kills
its worker alone or overruns its deadline is split into single-point
tasks, each with fresh attempts, that run one at a time on probation: the
first to complete stores the group's trace for the rest (see
:meth:`~repro.sweep.engine.SweepEngine._iter_supervised`).  A single
point that still crashes or times out after :data:`QUARANTINE_RETRIES`
retries is **quarantined**: it becomes a structured :class:`PointFailure`
and the sweep finishes without it.  A single point that keeps *raising*
(a kernel bug, a verification failure) takes the same route on either
executor — minus the pool restarts — and ends as a non-quarantined
:class:`PointFailure`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = ["InlineExecutor", "PointFailure", "PoolSupervisor",
           "backoff_delay"]

#: Retries of a *single* point before it is quarantined (crash or timeout)
#: or recorded as failed (exception).
QUARANTINE_RETRIES = 1

#: Consecutive pool restarts with no task completed before the run falls
#: back to the inline executor.
MAX_POOL_RESTARTS = 6

#: Exponential-backoff schedule (seconds) for pool restarts and client
#: retries; see :func:`backoff_delay`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 0.5


def _pool_infra_errors() -> Tuple[type, ...]:
    """Pool-infrastructure failures the supervisor retries (and that, once
    the restart budget is spent, hand the run to the inline executor
    instead of failing the sweep): sandbox/fork problems, unpicklable work
    items, and a pool whose workers died.  Everything else is a *task*
    failure (quarantine route), not an infrastructure one.

    Built when a process pool is, so that an inline run loads no
    ``concurrent.futures``.
    """
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    return (OSError, PermissionError, ImportError, BrokenProcessPool,
            pickle.PicklingError)


@dataclass
class PointFailure:
    """Structured record of one sweep point that could not be completed.

    Carried on :attr:`~repro.sweep.engine.PointResult.failure`, written to
    the write-ahead journal (so ``--resume`` retries the point)
    and to ``--stream-jsonl`` records.

    Attributes
    ----------
    index:
        The point's position in the sweep's deterministic expansion order.
    kernel / isa / config:
        Identification of the point (config is the machine-config name).
    error_type / message:
        The exception class name and message of the final failure (for
        timeouts, ``TimeoutError`` and the deadline that fired).
    phase:
        Where the final failure happened: ``"crash"`` (worker death),
        ``"timeout"`` (deadline fired) or ``"exception"`` (the task
        raised, on either executor).
    attempts:
        How many times this exact point was attempted before giving up.
    quarantined:
        True when the point was isolated for repeatedly killing or hanging
        its worker — the engine will not re-run it this sweep.
    """

    index: int
    kernel: str
    isa: str
    config: str
    error_type: str
    message: str
    phase: str
    attempts: int
    quarantined: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (journal and ``--stream-jsonl`` records)."""
        return {
            "index": self.index,
            "kernel": self.kernel,
            "isa": self.isa,
            "config": self.config,
            "error_type": self.error_type,
            "message": self.message,
            "phase": self.phase,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }


def backoff_delay(attempt: int) -> float:
    """Exponential backoff: ``BACKOFF_BASE * 2**attempt`` seconds, capped
    at :data:`BACKOFF_CAP`."""
    return min(BACKOFF_BASE * (2.0 ** max(0, attempt)), BACKOFF_CAP)


class _Done:
    """The settled future an :class:`InlineExecutor` submit returns."""

    __slots__ = ("_value", "_exc")

    def __init__(self, value: Any, exc: Optional[BaseException]) -> None:
        self._value = value
        self._exc = exc

    def result(self) -> Any:
        return self._value

    def exception(self) -> Optional[BaseException]:
        return self._exc


class InlineExecutor:
    """Runs each task in this process, at submit time.

    It has no deadlines and no crash isolation: a task that hangs hangs
    the run, and one that kills its process kills the run.  A task that
    raises comes back as a settled future carrying the exception, which
    the supervisor routes as ``phase="exception"`` — the pool's
    infrastructure-error and restart route never applies here.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> _Done:
        try:
            return _Done(fn(*args), None)
        except Exception as exc:
            return _Done(None, exc)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False
                 ) -> None:
        pass


class _Task:
    """One schedulable unit: a list of point indices plus its blame count."""

    __slots__ = ("indices", "attempts")

    def __init__(self, indices: Sequence[int], attempts: int = 0) -> None:
        self.indices = list(indices)
        self.attempts = attempts


class PoolSupervisor:
    """Drives one run's worth of tasks under the one failure policy.

    Parameters
    ----------
    points:
        The sweep's resolved points (indexed by the groups).
    groups:
        Lists of point indices; one group = one task.
    make_args:
        Maps a list of indices to the picklable argument tuple of
        ``worker``.
    worker:
        The top-level task function; both executors run it.
    workers:
        Worker-process count (also the in-flight task cap).
    pool_factory:
        ``workers -> ProcessPoolExecutor`` (injected so the engine's
        module-level ``ProcessPoolExecutor`` symbol stays patchable by
        tests), or ``None`` to run every task on the
        :class:`InlineExecutor`.
    task_timeout:
        Wall-clock seconds one pool task may *run* before its worker is
        presumed hung and the pool recycled; ``None`` disables deadlines.
        The inline executor has none.
    sleep:
        Backoff sleeper (tests inject a recorder).

    The telemetry attributes hold the run's supervision record as it
    goes: ``tasks`` (every submission to the process pool, the single
    points split from a failing group and each retry included),
    ``retries`` (tasks submitted because an earlier task failed: split
    singles plus single-point retries, on either executor),
    ``pool_restarts``, ``timeouts``, ``failures`` (the
    :class:`PointFailure` list) and ``fallback_reason`` (non-``None`` when
    the process pool was given up and the rest ran inline).
    """

    def __init__(self, points: Sequence["SweepPoint"],  # noqa: F821
                 groups: Sequence[Sequence[int]],
                 make_args: Callable[[Sequence[int]], tuple],
                 worker: Callable[..., Any],
                 workers: int,
                 pool_factory: Optional[Callable[[int], Any]],
                 task_timeout: Optional[float] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.points = points
        self.groups = [list(g) for g in groups]
        self.make_args = make_args
        self.worker = worker
        self.workers = max(1, int(workers))
        self.pool_factory = pool_factory
        self.task_timeout = task_timeout
        self.sleep = sleep
        #: Exceptions that mean pool trouble rather than a failed task;
        #: none while the executor is inline.
        self._infra_errors: Tuple[type, ...] = ()
        # Telemetry.
        self.tasks = 0
        self.retries = 0
        self.pool_restarts = 0
        self.timeouts = 0
        #: Restarts since the last completed task (the budgeted count).
        self._stalled_restarts = 0
        self.failures: List[PointFailure] = []
        self.fallback_reason: Optional[str] = None
        # Execution state.
        self._pool: Any = None
        self._queue: Deque[_Task] = deque()
        self._probation: Deque[_Task] = deque()
        self._inflight: Dict[Any, _Task] = {}
        self._deadlines: Dict[Any, float] = {}
        self._suspect: Any = None  # the future of the running probation task

    # -- executor lifecycle ------------------------------------------------

    @property
    def _inline(self) -> bool:
        return isinstance(self._pool, InlineExecutor)

    def _make_pool(self) -> None:
        """Create the process pool, or hand the run to the inline executor
        when there is none to create or it cannot be created."""
        if self.pool_factory is not None:
            self._infra_errors = _pool_infra_errors()
            try:
                self._pool = self.pool_factory(self.workers)
                return
            except self._infra_errors as exc:
                self.fallback_reason = f"{type(exc).__name__}: {exc}"
        self._go_inline()

    def _go_inline(self) -> None:
        """Run everything still to do in this process, one task at a time
        (a task is simulated only when the consumer asks for more)."""
        self._pool = InlineExecutor()
        self._infra_errors = ()
        self.workers = 1

    def _kill_pool(self) -> None:
        """Tear the pool down even when its workers are hung or dead."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Snapshot the worker processes *before* shutdown clears them.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # A hung worker never drains its call queue; SIGTERM it.  The
        # executor's manager thread observes the deaths and unwinds.
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in procs:
            try:
                proc.join(5)
            except Exception:
                pass

    def _restart_pool(self, exc: BaseException, where: str = "") -> None:
        """Recycle the pool after an incident, honouring the budget; once
        it is spent, the inline executor takes over.

        Tasks still in flight are swept back to the *front* of the queue,
        blameless — callers that know better (crash suspects, hung tasks)
        have already routed theirs elsewhere.
        """
        for future in list(self._inflight):
            self._queue.appendleft(self._inflight.pop(future))
        self._deadlines.clear()
        self._suspect = None
        self._kill_pool()
        self.pool_restarts += 1
        self._stalled_restarts += 1
        if self._stalled_restarts > MAX_POOL_RESTARTS:
            self.fallback_reason = (
                f"{type(exc).__name__}{where}: {exc} (after "
                f"{MAX_POOL_RESTARTS} pool restarts without progress)")
            self._go_inline()
            return
        self.sleep(backoff_delay(self._stalled_restarts - 1))
        self._make_pool()

    # -- failure routing ---------------------------------------------------

    def _failure(self, task: _Task, exc: BaseException, phase: str,
                 quarantined: bool) -> PointFailure:
        index = task.indices[0]
        point = self.points[index]
        failure = PointFailure(
            index=index, kernel=point.kernel, isa=point.isa,
            config=point.config.name, error_type=type(exc).__name__,
            message=str(exc), phase=phase, attempts=task.attempts,
            quarantined=quarantined)
        self.failures.append(failure)
        return failure

    def _handle_task_failure(self, task: _Task, exc: BaseException,
                             phase: str) -> Iterator[Tuple[str, Any, Any]]:
        """Split, retry or quarantine one precisely-blamed failed task.

        A multi-point task splits into single points with fresh attempts,
        run one at a time on probation: the first to complete stores the
        group's trace for the rest, and none shares a pool with another.
        A single point retried after a crash or a timeout goes back on
        probation too.
        """
        hostile = phase in ("crash", "timeout")
        if len(task.indices) > 1:
            self.retries += len(task.indices)
            self._probation.extend(_Task([i]) for i in task.indices)
            return
        task.attempts += 1
        if task.attempts > QUARANTINE_RETRIES:
            yield ("failure",
                   self._failure(task, exc, phase, quarantined=hostile),
                   None)
        else:
            self.retries += 1
            (self._probation if hostile else self._queue).append(task)

    # -- the supervision loop ----------------------------------------------

    def run(self) -> Iterator[Tuple[str, Any, Any]]:
        """Execute every group; yield ``("group", indices, payload)`` for
        completed tasks and ``("failure", PointFailure, None)`` for points
        given up on.  Every point of every group is yielded exactly once:
        when the process pool fails for good, the inline executor finishes
        the run (:attr:`fallback_reason` says why).
        """
        self._queue = deque(_Task(g) for g in self.groups)
        self._probation = deque()
        self._inflight = {}
        self._deadlines = {}
        self._suspect = None
        self._make_pool()
        try:
            while self._queue or self._probation or self._inflight:
                self._fill()
                if self._inflight:
                    yield from self._collect(self._wait())
                    yield from self._reap_overdue()
        finally:
            if self._inflight:
                self._inflight.clear()
                self._deadlines.clear()
                self._suspect = None
                self._kill_pool()
            elif self._pool is not None:
                try:
                    self._pool.shutdown(wait=True, cancel_futures=True)
                except Exception:
                    pass
                self._pool = None

    def _wait(self) -> set:
        """The in-flight futures that are done, waiting for at least one
        (inline futures are settled at submit)."""
        if self._inline:
            return set(self._inflight)
        from concurrent.futures import FIRST_COMPLETED, wait

        timeout = None
        if self._deadlines:
            timeout = max(0.05, min(self._deadlines.values())
                          - time.monotonic())
        done, _ = wait(set(self._inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        return done

    def _fill(self) -> None:
        """Submit work: probation tasks strictly one at a time, else up to
        ``workers`` in flight (so deadlines measure running time)."""
        while True:
            if self._suspect is not None:
                return  # a suspect is running alone; nothing shares its pool
            if self._probation:
                if self._inflight:
                    return  # drain regular work before trying a suspect
                source = self._probation
            elif self._queue and len(self._inflight) < self.workers:
                source = self._queue
            else:
                return
            task = source.popleft()
            try:
                future = self._pool.submit(self.worker,
                                           self.make_args(task.indices))
            except self._infra_errors as exc:
                # Submit-time infrastructure failure: the task is blameless.
                # Respawn the pool (bounded, backed off) and try again.
                source.appendleft(task)
                self._restart_pool(exc, where=" at submit")
                continue
            self._inflight[future] = task
            if source is self._probation:
                self._suspect = future
            if not self._inline:
                self.tasks += 1
                if self.task_timeout is not None:
                    self._deadlines[future] = (time.monotonic()
                                               + self.task_timeout)

    def _collect(self, done) -> Iterator[Tuple[str, Any, Any]]:
        """Harvest finished futures: results first, then failures."""
        infra_incident: Optional[BaseException] = None
        for future in sorted(done, key=lambda f: f.exception() is not None):
            task = self._inflight.pop(future, None)
            if task is None:
                continue  # already swept up as a victim below
            self._deadlines.pop(future, None)
            solo = future is self._suspect or not self._inflight
            if future is self._suspect:
                self._suspect = None
            exc = future.exception()
            if exc is None:
                self._stalled_restarts = 0
                yield ("group", task.indices, future.result())
                continue
            if isinstance(exc, self._infra_errors):
                if solo:
                    # It failed alone: guilty beyond doubt.
                    yield from self._handle_task_failure(task, exc, "crash")
                else:
                    # Unknown culprit: every task that shared the broken
                    # pool becomes a suspect and re-runs alone (probation),
                    # blame unassigned.
                    self._probation.append(task)
                    for victim in list(self._inflight):
                        self._probation.append(self._inflight.pop(victim))
                    self._deadlines.clear()
                infra_incident = exc
                continue
            # The task raised (pool healthy, or inline): split/retry/record.
            yield from self._handle_task_failure(task, exc, "exception")
        if infra_incident is not None:
            self._restart_pool(infra_incident)

    def _reap_overdue(self) -> Iterator[Tuple[str, Any, Any]]:
        """Handle tasks that outlived their deadline: presume hung."""
        if not self._deadlines:
            return
        now = time.monotonic()
        overdue = [f for f in list(self._inflight)
                   if self._deadlines.get(f, float("inf")) <= now]
        if not overdue:
            return
        self.timeouts += len(overdue)
        hung = []
        for future in overdue:
            if future is self._suspect:
                self._suspect = None
            hung.append(self._inflight.pop(future))
        # The other in-flight tasks are victims of the recycle, not
        # suspects: ``_restart_pool`` re-queues them untouched.
        timeout_exc = TimeoutError(
            f"task exceeded the {self.task_timeout:g}s deadline")
        for task in hung:
            yield from self._handle_task_failure(task, timeout_exc, "timeout")
        self._restart_pool(timeout_exc)
