"""Supervised worker-pool execution: deadlines, retries, quarantine.

The engine's original pool loop treated every failure as terminal: one
``BrokenProcessPool`` collapsed the rest of the run to serial forever, one
kernel exception aborted the sweep, and a hung worker blocked ``wait()``
indefinitely.  This module is the missing supervisor — the part of a
long-running sweep service that keeps *one* bad point or *one* transient
infrastructure hiccup from costing the other 999,999 points their
parallelism (or their results).

The supervision loop (:class:`PoolSupervisor`) wraps a
``ProcessPoolExecutor`` with four behaviours, all bounded and deterministic:

**Per-task deadlines.**  With :attr:`SupervisorPolicy.task_timeout` set,
every submitted group carries a wall-clock deadline.  The loop waits with a
timeout instead of forever; an overdue task's worker is presumed hung, the
whole pool is recycled (a running task cannot be cancelled any other way),
the victim tasks that shared the pool are re-queued untouched, and the
hung group is re-submitted with its failure counted.  The supervisor keeps
at most ``workers`` tasks in flight so a deadline measures *running* time,
not queue time.

**Bounded pool restarts with backoff.**  Pool-infrastructure failures —
``BrokenProcessPool`` mid-run, ``PicklingError``/``OSError`` at submit —
respawn the pool up to :attr:`SupervisorPolicy.max_pool_restarts` times,
sleeping an exponentially growing, deterministically jittered delay
(:func:`backoff_delay`, :data:`BACKOFF_BASE` up to :data:`BACKOFF_CAP`
seconds) between attempts, before giving up and leaving the remainder to
the engine's serial fallback.  A transient hiccup costs one
restart, not the whole run's parallelism.

**Probation (precise blame).**  When the pool breaks with several tasks in
flight, the culprit is unknowable — the executor reports one aggregate
``BrokenProcessPool``.  Rather than punish every task, the supervisor
re-runs the suspects *one at a time* in the fresh pool: a suspect that
completes is innocent, and a suspect that breaks the pool alone is guilty
beyond doubt.  Only precisely-blamed failures count against a task.

**Quarantine by bisection.**  A group that kills or hangs its worker when
running alone is split in half; the halves re-run (still one at a time)
and the offending point is cornered in O(log n) rounds.  A single point
that still crashes or times out after :data:`QUARANTINE_RETRIES` retries
is **quarantined**: it becomes a structured :class:`PointFailure` and the
sweep finishes without it.  Ordinary exceptions raised *by* a task (a
kernel bug, a verification failure) take the same retry/bisect route —
minus the pool restarts, since the pool is healthy — and end as
non-quarantined :class:`PointFailure`\\ s.

The serial path reuses :class:`PointFailure` directly: a group that raises
in-process is re-run point by point, and the points that still raise are
recorded as failures instead of aborting the sweep
(:meth:`~repro.sweep.engine.SweepEngine._iter_serial`).
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = ["PointFailure", "PoolSupervisor", "SupervisorPolicy",
           "backoff_delay"]

#: Same-membership retries of a multi-point group whose task *raised*
#: (pool healthy) before it is bisected.  Crash/timeout failures bisect
#: immediately — the blame-all probation pass that precedes them already
#: was the retry.
MAX_GROUP_RETRIES = 1

#: Retries of a *single* point before it is quarantined (crash or timeout)
#: or recorded as failed (exception).
QUARANTINE_RETRIES = 1

#: Exponential-backoff schedule (seconds) for pool restarts and client
#: retries; see :func:`backoff_delay`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 0.5


def _pool_infra_errors() -> Tuple[type, ...]:
    """Pool-infrastructure failures the supervisor retries (and that, once
    the restart budget is spent, degrade to the serial path instead of
    failing the sweep): sandbox/fork problems, unpicklable work items, and
    a pool whose workers died.  Everything else is a *task* failure
    (quarantine route), not an infrastructure one.

    Built when a supervisor is, so that importing this module (the engine
    does, for :class:`PointFailure`) loads no ``concurrent.futures``.
    """
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    return (OSError, PermissionError, ImportError, BrokenProcessPool,
            pickle.PicklingError)


@dataclass(frozen=True)
class SupervisorPolicy:
    """The two settable knobs of the supervised pool loop (engine/CLI:
    ``--task-timeout``, ``--max-pool-restarts``).  The retry counts and the
    backoff schedule are module constants.

    Attributes
    ----------
    task_timeout:
        Wall-clock seconds one submitted group may *run* before its worker
        is presumed hung and the pool recycled; ``None`` (default)
        disables deadlines — the pre-supervision behaviour.
    max_pool_restarts:
        Pool respawns per run before the engine's serial fallback takes
        over.  Quarantining one poison point in a group of *n* costs about
        ``log2(n) + 3`` restarts; the default leaves room for that plus a
        couple of genuine transients.
    """

    task_timeout: Optional[float] = None
    max_pool_restarts: int = 6

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0 seconds, got {self.task_timeout}")
        if self.max_pool_restarts < 0:
            raise ValueError(f"max_pool_restarts must be >= 0, "
                             f"got {self.max_pool_restarts}")


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
        ``"timeout"`` (deadline fired), ``"exception"`` (task raised under
        the pool) or ``"serial"`` (raised on the in-process path).
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


def backoff_delay(attempt: int, token: str = "") -> float:
    """Exponential backoff with *deterministic* jitter.

    ``BACKOFF_BASE * 2**attempt`` capped at :data:`BACKOFF_CAP`, plus a
    jitter in ``[0, BACKOFF_BASE)`` derived from a SHA-256 of ``(token,
    attempt)`` — the same inputs always produce the same delay, so
    supervised runs stay reproducible while concurrent sweeps sharing a
    machine still decorrelate (each passes its own token).
    """
    delay = min(BACKOFF_BASE * (2.0 ** max(0, attempt)), BACKOFF_CAP)
    digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF * BACKOFF_BASE
    return min(delay + jitter, BACKOFF_CAP)


class _Task:
    """One schedulable unit: a list of point indices plus its blame count."""

    __slots__ = ("indices", "attempts")

    def __init__(self, indices: Sequence[int], attempts: int = 0) -> None:
        self.indices = list(indices)
        self.attempts = attempts


class _RestartsExhausted(Exception):
    """Internal: the pool-restart budget is spent; fall back to serial."""


class PoolSupervisor:
    """Drives one run's worth of pool tasks under the supervision policy.

    Parameters
    ----------
    points:
        The sweep's resolved points (indexed by the groups).
    groups:
        Lists of point indices; one group = one pool task.
    make_args:
        Maps a list of indices to the picklable argument tuple of
        ``worker``.
    worker:
        The top-level pool worker function.
    workers:
        Worker-process count (also the in-flight task cap).
    pool_factory:
        ``workers -> ProcessPoolExecutor`` (injected so the engine's
        module-level ``ProcessPoolExecutor`` symbol stays patchable by
        tests, and so the supervisor itself is executor-agnostic).
    policy:
        The :class:`SupervisorPolicy`.
    sleep:
        Backoff sleeper (tests inject a recorder).

    After :meth:`run` finishes, the telemetry attributes hold the run's
    supervision record: ``retries``, ``pool_restarts``, ``timeouts``,
    ``failures`` (the :class:`PointFailure` list) and ``fallback_reason``
    (non-``None`` when the remainder needs the serial path).
    """

    def __init__(self, points: Sequence["SweepPoint"],  # noqa: F821
                 groups: Sequence[Sequence[int]],
                 make_args: Callable[[Sequence[int]], tuple],
                 worker: Callable[..., Any],
                 workers: int,
                 pool_factory: Callable[[int], Any],
                 policy: Optional[SupervisorPolicy] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.points = points
        self.groups = [list(g) for g in groups]
        self.make_args = make_args
        self.worker = worker
        self.workers = max(1, int(workers))
        self.pool_factory = pool_factory
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.sleep = sleep
        self._infra_errors = _pool_infra_errors()
        # Telemetry.
        self.retries = 0
        self.pool_restarts = 0
        self.timeouts = 0
        self.failures: List[PointFailure] = []
        self.fallback_reason: Optional[str] = None
        # Execution state.
        self._pool: Any = None
        self._queue: Deque[_Task] = deque()
        self._probation: Deque[_Task] = deque()
        self._inflight: Dict[Any, _Task] = {}
        self._deadlines: Dict[Any, float] = {}
        self._suspect: Any = None  # the future of the running probation task

    # -- pool lifecycle ----------------------------------------------------

    def _make_pool(self) -> None:
        try:
            self._pool = self.pool_factory(self.workers)
        except self._infra_errors as exc:
            self.fallback_reason = f"{type(exc).__name__}: {exc}"
            self._pool = None
            raise _RestartsExhausted()

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
        """Recycle the pool after an incident, honouring the budget.

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
        if self.pool_restarts > self.policy.max_pool_restarts:
            suffix = f" (after {self.policy.max_pool_restarts} pool restarts)"
            self.fallback_reason = (
                f"{type(exc).__name__}{where}: {exc}{suffix}")
            raise _RestartsExhausted()
        self.sleep(backoff_delay(self.pool_restarts - 1,
                                 token=where or "restart"))
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
        """Retry, bisect or quarantine one precisely-blamed failed task."""
        task.attempts += 1
        hostile = phase in ("crash", "timeout")
        requeue = self._probation if hostile else self._queue
        if len(task.indices) == 1:
            if task.attempts > QUARANTINE_RETRIES:
                yield ("failure",
                       self._failure(task, exc, phase, quarantined=hostile),
                       None)
            else:
                self.retries += 1
                requeue.append(task)
            return
        if hostile or task.attempts > MAX_GROUP_RETRIES:
            # Bisect: corner the offending point(s) in O(log n) rounds.
            mid = len(task.indices) // 2
            requeue.append(_Task(task.indices[:mid]))
            requeue.append(_Task(task.indices[mid:]))
        else:
            self.retries += 1
            requeue.append(task)

    # -- the supervision loop ----------------------------------------------

    def run(self) -> Iterator[Tuple[str, Any, Any]]:
        """Execute every group; yield ``("group", indices, payload)`` for
        completed tasks and ``("failure", PointFailure, None)`` for points
        given up on.

        Returns early (leaving un-yielded work to the caller's serial
        fallback) only when the pool cannot be (re)created or the restart
        budget is spent — :attr:`fallback_reason` says why.
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        self._queue = deque(_Task(g) for g in self.groups)
        self._probation = deque()
        self._inflight = {}
        self._deadlines = {}
        self._suspect = None
        try:
            self._make_pool()
        except _RestartsExhausted:
            return
        try:
            while self._queue or self._probation or self._inflight:
                try:
                    self._fill()
                except _RestartsExhausted:
                    return
                if not self._inflight:
                    continue
                timeout = None
                if self.policy.task_timeout is not None:
                    now = time.monotonic()
                    timeout = max(0.05,
                                  min(self._deadlines.get(f, float("inf"))
                                      for f in self._inflight) - now)
                done, _ = wait(set(self._inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                try:
                    yield from self._collect(done)
                    yield from self._reap_overdue()
                except _RestartsExhausted:
                    return
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
            if self.policy.task_timeout is not None:
                self._deadlines[future] = (time.monotonic()
                                           + self.policy.task_timeout)

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
            # The task raised (pool healthy): retry/bisect/record.
            yield from self._handle_task_failure(task, exc, "exception")
        if infra_incident is not None:
            self._restart_pool(infra_incident)

    def _reap_overdue(self) -> Iterator[Tuple[str, Any, Any]]:
        """Handle tasks that outlived their deadline: presume hung."""
        if not self._inflight:
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
            f"task exceeded the {self.policy.task_timeout:g}s deadline")
        for task in hung:
            yield from self._handle_task_failure(task, timeout_exc, "timeout")
        self._restart_pool(timeout_exc)

