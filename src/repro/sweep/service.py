"""Crash-tolerant sweep service: ``repro serve`` and its HTTP protocol.

A long-lived server process that accepts sweep submissions over HTTP, runs
them on the shared :class:`~repro.sweep.engine.SweepEngine` (one engine run
per job, all jobs sharing the server's result/trace caches), and streams
live progress.  Everything rides the stdlib — ``http.server`` + threads on
the server, ``urllib`` in the client — so the service adds zero
dependencies.

Robustness is the design center, built on the primitives the sweep stack
already trusts:

* **Journal-backed recovery.**  Every job runs under its own write-ahead
  :class:`~repro.sweep.journal.SweepJournal`
  (``<state_dir>/journals/<job>.jsonl``).  A SIGKILLed server restarted on
  the same ``--state-dir`` re-enqueues every non-terminal job and the
  engine replays each journal — completed points re-simulate **zero**
  work and the final results are byte-identical to an uninterrupted run.
* **Idempotent submission.**  A job's id is a content hash of its
  normalized submission (plus the timing-model and builder versions), so
  resubmitting the same sweep — a retrying client, a confused script —
  *attaches* to the existing job instead of running it twice.
* **Backpressure.**  The job queue is bounded (``--max-queue``); a
  submission over the bound is rejected with HTTP 429 and a
  ``Retry-After`` header instead of letting memory and latency grow
  without bound.
* **Deadlines.**  A submission may carry ``deadline_seconds``; a job over
  its deadline is reaped at the next record boundary and recorded as a
  structured failure (its journal keeps every point that did complete).
  Long-poll requests carry their own bounded wait.
* **Graceful drain.**  SIGTERM stops intake (``/readyz`` flips to 503),
  interrupts the running job at a record boundary, flushes its journal,
  and reports how to resume — exactly the Ctrl-C contract of the CLI.
* **Chaos-testable.**  The service declares fault-injection stages
  (:func:`repro.sweep.faults.fire_stage`): a ``REPRO_FAULT_INJECT`` rule
  with ``"stage": "service.result"`` can SIGKILL the server after exactly
  N journaled results, which is how the CI smoke proves the recovery
  story end to end.

Wire format (all JSON)::

    POST /jobs            {"kernels": [...], "isas": [...], "ways": [...],
                           "latencies": [...], "scale": N|null, "seed": N,
                           "deadline_seconds": S|null, "check": bool}
                          -> 201 {job} new, 200 {job} attached,
                             400 bad submission or Content-Length,
                             413 body over MAX_BODY_BYTES,
                             429 queue full (Retry-After), 503 draining
    GET  /jobs            -> 200 {"jobs": [{job}, ...]}
    GET  /jobs/<id>       -> 200 {job}
    GET  /jobs/<id>/events?since=N&timeout=S
                          -> 200 {"events": [...], "next": M, "job": {job}}
                             (long-polls up to S seconds for new events)
    GET  /jobs/<id>/result
                          -> 200 {"job": {job}, "results": [...],
                                  "failures": [...]} when done,
                             409 {job} while not finished
    GET  /healthz         -> 200 (the process is up)
    GET  /readyz          -> 200 accepting, 503 draining

A *job* object carries ``id``, ``status`` (``queued`` / ``running`` /
``done`` / ``failed`` / ``interrupted``), the normalized submission, point
counts, timestamps, engine telemetry for finished runs, and the error for
failed ones.  Job state is persisted with the same atomic tempfile+rename
discipline as every other store, so a crash can never leave a torn job
file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.atomicio import atomic_write_json
from repro.frontend import builders
from repro.sweep import faults
from repro.sweep.engine import SweepEngine
from repro.sweep.journal import SweepJournal, read_jsonl
from repro.sweep.spec import SweepPoint, resolve_spec
from repro.timing.config import MachineConfig
from repro.timing.core import MODEL_VERSION
from repro.workloads.generators import WorkloadSpec

__all__ = ["JOB_TERMINAL_STATES", "MAX_BODY_BYTES", "QueueFull",
           "ServiceHTTPServer", "SweepService", "UnknownJob", "job_id_for",
           "normalize_submission", "submission_points"]

#: Job states with nothing left to run; anything else is re-enqueued when
#: a restarted server recovers its state directory.
JOB_TERMINAL_STATES = ("done", "failed")

#: Largest request body the service reads; a bigger ``Content-Length`` is
#: answered 413 before any byte of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Fault-injection stage names the service fires
#: (:func:`repro.sweep.faults.fire_stage`).
STAGE_SUBMIT = "service.submit"
STAGE_RESULT = "service.result"


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity; retry after a delay."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(f"job queue is full ({limit} queued); retry later")


class BodyTooLarge(ValueError):
    """The request declared a body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


class UnknownJob(KeyError):
    """No job with the requested id exists in this state directory."""


class _Interrupted(Exception):
    """Internal: the runner abandoned a job at a record boundary (drain)."""


class _DeadlineExceeded(Exception):
    """Internal: the running job crossed its submission deadline."""


# ----------------------------------------------------------------------
# Submissions: normalization, identity, expansion.

def normalize_submission(data: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical form of a submission: defaults filled, junk rejected.

    The normalized dict is what gets hashed for the job id and persisted
    in the job file, so two submissions that mean the same sweep normalize
    identically (e.g. an omitted ``isas`` and an explicit full list).
    """
    from repro.kernels.base import ISA_VARIANTS
    from repro.kernels.registry import kernel_names

    if not isinstance(data, dict):
        raise ValueError("submission must be a JSON object")
    known = {"kernels", "isas", "ways", "latencies", "scale", "seed",
             "deadline_seconds", "check"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown submission field(s): {sorted(unknown)}")

    kernels = data.get("kernels")
    if kernels is None:
        kernels = list(kernel_names())
    bad = [k for k in kernels if k not in kernel_names()]
    if bad:
        raise ValueError(f"unknown kernel(s): {bad}")
    isas = data.get("isas")
    if isas is None:
        isas = list(ISA_VARIANTS)
    bad = [i for i in isas if i not in ISA_VARIANTS]
    if bad:
        raise ValueError(f"unknown isa(s): {bad}")

    ways = [int(w) for w in data.get("ways", [4])]
    latencies = [int(m) for m in data.get("latencies", [1])]
    for name, values in (("ways", ways), ("latencies", latencies)):
        if any(v < 1 for v in values):
            raise ValueError(f"{name} must all be >= 1, got {values}")
    if not (kernels and isas and ways and latencies):
        raise ValueError("submission expands to zero points")
    scale = data.get("scale")
    deadline = data.get("deadline_seconds")
    return {
        "kernels": list(kernels),
        "isas": list(isas),
        "ways": ways,
        "latencies": latencies,
        "scale": int(scale) if scale is not None else None,
        "seed": int(data.get("seed", 1999)),
        "deadline_seconds": float(deadline) if deadline is not None else None,
        "check": bool(data.get("check", True)),
    }


def job_id_for(submission: Dict[str, Any]) -> str:
    """Content-hash id of a normalized submission (idempotency key).

    Folds in the timing-model and builder versions (the builder version
    read at call time): after either bump the "same" submission is a
    different job, matching the cache-key rule everywhere else in the
    stack.  The deadline is excluded — it shapes *how long* the job may
    run, not *what* it computes, so resubmitting with a longer deadline
    attaches to the job instead of forking a duplicate.
    """
    import hashlib

    body = {k: v for k, v in submission.items() if k != "deadline_seconds"}
    body["model_version"] = MODEL_VERSION
    body["builder_version"] = builders.BUILDER_VERSION
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def submission_points(submission: Dict[str, Any]) -> List[SweepPoint]:
    """Expand a normalized submission into resolved sweep points.

    Mirrors ``repro sweep``'s expansion exactly (kernel-major, then
    config, then ISA; per-kernel default scales; the seed applied even
    without an explicit scale) so a job's results match the CLI's for the
    same parameters.
    """
    spec = (WorkloadSpec(scale=submission["scale"], seed=submission["seed"])
            if submission["scale"] is not None else None)
    configs = [MachineConfig.for_way(way, mem_latency=latency)
               for way in submission["ways"]
               for latency in submission["latencies"]]
    return [
        SweepPoint(kernel=kernel, isa=isa, config=config,
                   spec=replace(resolve_spec(kernel, spec),
                                seed=submission["seed"]))
        for kernel in submission["kernels"]
        for config in configs
        for isa in submission["isas"]
    ]


# ----------------------------------------------------------------------
# The service.

class SweepService:
    """Job queue + runner + persistent state behind the HTTP front end.

    Parameters
    ----------
    state_dir:
        Durable home of the service: job files under ``jobs/``, one
        write-ahead journal per job under ``journals/``.  Everything a
        restart needs lives here.
    cache_dir / jobs / backend / task_timeout /
    max_pool_restarts:
        Passed through to the :class:`~repro.sweep.engine.SweepEngine`
        built for each job run — one shared cache root, one parallelism
        setting, for every job.
    max_queue:
        Bound on jobs waiting to run (the running job does not count).
        Submissions over the bound raise :class:`QueueFull` (HTTP 429).
    """

    def __init__(self, state_dir: str,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 max_queue: int = 16,
                 backend: str = "auto",
                 task_timeout: Optional[float] = None,
                 max_pool_restarts: Optional[int] = None) -> None:
        self.state_dir = os.fspath(state_dir)
        self.cache_dir = cache_dir
        self.engine_jobs = jobs
        self.max_queue = max_queue
        self.backend = backend
        self.task_timeout = task_timeout
        self.max_pool_restarts = max_pool_restarts

        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.journals_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._queue: deque = deque()
        self._draining = threading.Event()
        self._runner: Optional[threading.Thread] = None
        self._running_id: Optional[str] = None

    # -- paths -------------------------------------------------------------

    @property
    def jobs_dir(self) -> str:
        return os.path.join(self.state_dir, "jobs")

    @property
    def journals_dir(self) -> str:
        return os.path.join(self.state_dir, "journals")

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id + ".json")

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.journals_dir, job_id + ".jsonl")

    # -- persistence -------------------------------------------------------

    def _persist(self, job: Dict[str, Any]) -> None:
        atomic_write_json(self.job_path(job["id"]), job, sort_keys=True)

    def recover(self) -> List[str]:
        """Load every persisted job; re-enqueue the non-terminal ones.

        The resumption contract: a job that was queued, running, or
        interrupted when the previous server died is queued again, and its
        engine run replays the job's journal — every journaled point is
        served without simulation.  Returns the re-enqueued ids.
        """
        resumed: List[str] = []
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return resumed
        with self._lock:
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self.jobs_dir, name)
                try:
                    with open(path, "r", encoding="utf-8") as f:
                        job = json.load(f)
                except (OSError, ValueError):
                    continue
                job_id = job.get("id")
                if not isinstance(job_id, str):
                    continue
                self._jobs[job_id] = job
                if job.get("status") not in JOB_TERMINAL_STATES:
                    job["status"] = "queued"
                    job["interruptions"] = int(job.get("interruptions", 0)) + 1
                    self._persist(job)
                    self._queue.append(job_id)
                    resumed.append(job_id)
            self._wake.notify_all()
        return resumed

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the runner thread (idempotent)."""
        if self._runner is None or not self._runner.is_alive():
            self._runner = threading.Thread(target=self._run_loop,
                                            name="sweep-runner", daemon=True)
            self._runner.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Stop intake and interrupt the running job at a record boundary.

        Safe to call repeatedly.  Waits up to ``timeout`` for the runner
        to park; the journals are flushed per record, so even an expired
        wait loses nothing.
        """
        self._draining.set()
        with self._lock:
            self._wake.notify_all()
        runner = self._runner
        if runner is not None and runner.is_alive():
            runner.join(timeout=timeout)

    def resume_state(self) -> Dict[str, Any]:
        """What a restart would pick up: queued/interrupted job ids."""
        with self._lock:
            pending = [job_id for job_id, job in sorted(self._jobs.items())
                       if job["status"] not in JOB_TERMINAL_STATES]
        return {"state_dir": self.state_dir, "pending": pending}

    # -- submission & queries ---------------------------------------------

    def submit(self, data: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Accept one submission; returns ``(job, created)``.

        ``created`` is False when the submission's content hash matched an
        existing job (idempotent resubmission: the caller attaches to it).
        Resubmitting a *failed* job requeues it — the new submission's
        deadline applies, the journal replays everything already done, so
        a deadline-reaped job continues instead of restarting.  Raises
        :class:`QueueFull` when the queue is at capacity and
        :class:`ValueError` on a malformed submission.
        """
        submission = normalize_submission(data)
        faults.fire_stage(STAGE_SUBMIT)
        job_id = job_id_for(submission)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing["status"] == "failed":
                    if len(self._queue) >= self.max_queue:
                        raise QueueFull(self.max_queue)
                    existing.update(submission=submission, status="queued",
                                    error=None, finished_at=None)
                    self._persist(existing)
                    self._queue.append(job_id)
                    self._wake.notify_all()
                return dict(existing), False
            if len(self._queue) >= self.max_queue:
                raise QueueFull(self.max_queue)
            job = {
                "id": job_id,
                "status": "queued",
                "submission": submission,
                "total": len(submission_points(submission)),
                "done": 0,
                "failed_points": 0,
                "created_at": time.time(),
                "started_at": None,
                "finished_at": None,
                "interruptions": 0,
                "error": None,
                "telemetry": None,
            }
            self._jobs[job_id] = job
            self._persist(job)
            self._queue.append(job_id)
            self._wake.notify_all()
            return dict(job), True

    def job(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            return dict(job)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(job) for _id, job in sorted(self._jobs.items())]

    def events(self, job_id: str, since: int = 0) -> List[Dict[str, Any]]:
        """Journal records of a job from event index ``since`` onward.

        The write-ahead journal doubles as the progress stream: each
        non-header record is one event, in completion order.  Reading
        takes no lock and never blocks the runner (the tolerant scanner
        skips a torn in-flight tail).
        """
        self.job(job_id)  # raises UnknownJob for a bogus id
        records = read_jsonl(self.journal_path(job_id)).records
        events = [r for r in records if "key" in r]
        return events[max(0, since):]

    def result(self, job_id: str) -> Dict[str, Any]:
        """Full results of a finished job, rebuilt from its journal.

        The payload is a pure function of the journal records, so a
        killed-and-resumed job returns bytes identical to a clean run's.
        """
        job = self.job(job_id)
        journal = SweepJournal(self.journal_path(job_id))
        completed = journal.load()
        results = sorted(completed.values(), key=lambda r: r.get("index", 0))
        failures = sorted(journal.failed.values(),
                          key=lambda r: r.get("index", 0))
        return {"job": job, "results": results, "failures": failures}

    # -- the runner --------------------------------------------------------

    def _update(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs[job_id]
            job.update(fields)
            self._persist(job)
            return dict(job)

    def _run_loop(self) -> None:
        """Consume the queue until drained; one engine run per job."""
        while not self._draining.is_set():
            with self._lock:
                while not self._queue and not self._draining.is_set():
                    self._wake.wait(timeout=0.5)
                if self._draining.is_set():
                    return
                job_id = self._queue.popleft()
                self._running_id = job_id
            try:
                self._run_job(job_id)
            finally:
                with self._lock:
                    self._running_id = None

    def _run_job(self, job_id: str) -> None:
        job = self._update(job_id, status="running", started_at=time.time())
        submission = job["submission"]
        points = submission_points(submission)
        engine = SweepEngine(
            jobs=self.engine_jobs,
            cache_dir=self.cache_dir,
            backend=self.backend,
            check=submission["check"],
            journal=self.journal_path(job_id),
            task_timeout=self.task_timeout,
            max_pool_restarts=self.max_pool_restarts,
        )
        deadline = submission.get("deadline_seconds")
        started = time.monotonic()
        progress = {"done": 0, "failed": 0}

        def on_result(result: Any) -> None:
            # The engine journaled this result *before* calling us, so a
            # crash fired here (the chaos stage) leaves it durable — the
            # restart replays it.  Replayed results don't re-fire the
            # stage: each crash/restart cycle must make forward progress,
            # not die again on the record that killed it last time.
            if not result.journaled:
                faults.fire_stage(STAGE_RESULT, label=job_id)
            progress["done"] += 1
            if result.failure is not None:
                progress["failed"] += 1
            if self._draining.is_set():
                raise _Interrupted()
            if deadline is not None and time.monotonic() - started > deadline:
                raise _DeadlineExceeded()

        try:
            engine.run(points, on_result=on_result)
        except _Interrupted:
            # Drain: the journal holds everything completed so far; the
            # job re-queues on the next recover().
            self._update(job_id, status="interrupted",
                         done=progress["done"],
                         failed_points=progress["failed"])
            return
        except _DeadlineExceeded:
            self._update(
                job_id, status="failed", finished_at=time.time(),
                done=progress["done"], failed_points=progress["failed"],
                error={
                    "type": "deadline",
                    "message": (f"job exceeded its deadline of "
                                f"{deadline:.1f}s after "
                                f"{progress['done']}/{job['total']} "
                                f"point(s); completed points are journaled "
                                f"— resubmit with a longer deadline to "
                                f"continue from them"),
                    "deadline_seconds": deadline,
                    "completed_points": progress["done"],
                })
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._update(
                job_id, status="failed", finished_at=time.time(),
                done=progress["done"], failed_points=progress["failed"],
                error={"type": type(exc).__name__, "message": str(exc)})
            return
        self._update(
            job_id, status="done", finished_at=time.time(),
            done=job["total"], failed_points=progress["failed"],
            telemetry={
                "simulated": engine.last_simulated,
                "cached": engine.last_cached,
                "journaled": engine.last_journaled,
                "trace_hits": engine.last_trace_hits,
                "trace_builds": engine.last_trace_builds,
                "retries": engine.last_retries,
                "pool_restarts": engine.last_pool_restarts,
                "timeouts": engine.last_timeouts,
                "quarantined": engine.last_quarantined,
            })


# ----------------------------------------------------------------------
# The HTTP front end.

class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server wrapping one :class:`SweepService`.

    Requests are handled on daemon threads (so a slow long-poll never
    blocks ``/healthz``); the sweep itself runs on the service's single
    runner thread, which supplies parallelism through the engine's own
    worker pool.  ``max_poll_seconds`` caps the server-side wait of any
    long-poll request — the per-request deadline.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: SweepService,
                 max_poll_seconds: float = 30.0) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.max_poll_seconds = max_poll_seconds


class _Handler(BaseHTTPRequestHandler):
    """Routes the wire protocol documented in the module docstring."""

    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # The default handler logs every request to stderr; the CLI owns the
    # terminal, so the server stays quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing ----------------------------------------------------------

    def _send(self, code: int, payload: Any,
              headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to salvage

    def _error(self, code: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send(code, {"error": message}, headers=headers)

    def _read_body(self) -> Any:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: nothing after it can be parsed.
            self.close_connection = True
            raise ValueError(f"invalid Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BodyTooLarge(f"request body of {length} bytes exceeds "
                               f"the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw.decode("utf-8"))

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urlsplit(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        service = self.server.service
        try:
            if parts == ["healthz"]:
                self._send(200, {"ok": True})
            elif parts == ["readyz"]:
                if service.draining:
                    self._error(503, "draining: not accepting submissions")
                else:
                    self._send(200, {"ok": True})
            elif parts == ["jobs"]:
                self._send(200, {"jobs": service.list_jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send(200, service.job(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "events":
                self._get_events(parts[1], query)
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                result = service.result(parts[1])
                if result["job"]["status"] != "done":
                    self._send(409, result["job"])
                else:
                    self._send(200, result)
            else:
                self._error(404, f"no such endpoint: {parsed.path}")
        except UnknownJob as exc:
            self._error(404, f"no such job: {exc.args[0]}")

    def _get_events(self, job_id: str, query: Dict[str, List[str]]) -> None:
        """Long-poll: wait (bounded) for events past ``since``.

        Returns immediately when new events exist or the job is terminal;
        otherwise polls the journal until ``timeout`` (capped by the
        server's ``max_poll_seconds``) runs out and returns an empty
        batch — the client's cue to re-poll.
        """
        service = self.server.service
        since = int((query.get("since") or ["0"])[0])
        timeout = float((query.get("timeout") or ["0"])[0])
        timeout = max(0.0, min(timeout, self.server.max_poll_seconds))
        deadline = time.monotonic() + timeout
        while True:
            events = service.events(job_id, since=since)
            job = service.job(job_id)
            if (events or job["status"] in JOB_TERMINAL_STATES
                    or time.monotonic() >= deadline):
                self._send(200, {"events": events,
                                 "next": since + len(events),
                                 "job": job})
                return
            time.sleep(0.05)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urlsplit(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        service = self.server.service
        if parts != ["jobs"]:
            self._error(404, f"no such endpoint: {parsed.path}")
            return
        if service.draining:
            self._error(503, "draining: not accepting submissions",
                        headers={"Retry-After": "30"})
            return
        try:
            data = self._read_body()
            job, created = service.submit(data)
        except QueueFull as exc:
            self._error(429, str(exc), headers={"Retry-After": "5"})
            return
        except BodyTooLarge as exc:
            self._error(413, str(exc))
            return
        except ValueError as exc:
            self._error(400, f"bad submission: {exc}")
            return
        except faults.InjectedFault as exc:
            self._error(500, f"injected fault: {exc}")
            return
        self._send(201 if created else 200, job)
