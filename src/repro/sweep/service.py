"""Crash-tolerant sweep service: ``repro serve`` and its HTTP protocol.

A long-lived server process that accepts sweep submissions over HTTP, runs
them on the shared :class:`~repro.sweep.engine.SweepEngine` (one engine run
per job, all jobs sharing the server's one result store and trace cache),
and streams live progress.  Everything rides the stdlib — ``http.server``
+ threads on the server, ``urllib`` in the client — so the service adds
zero dependencies.

Robustness is the design center, built on the primitives the sweep stack
already trusts:

* **Log-backed recovery.**  A job's durable state is its job record plus
  the shared result log, which holds each completed point before it is
  reported.  A SIGKILLed server restarted on the same ``--state-dir``
  re-enqueues every unfinished job (and each ``done`` one missing a logged
  point); reruns serve logged points as hits — **zero** re-simulation,
  results byte-identical to an uninterrupted run.
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
  structured failure (every point that did complete stays in the log).
  Long-poll requests carry their own bounded wait.
* **Graceful drain.**  SIGTERM stops intake (``/readyz`` flips to 503),
  interrupts the running job at a record boundary, and reports how to
  resume — exactly the Ctrl-C contract of the CLI.
* **Chaos-testable.**  The service declares fault-injection stages
  (:func:`repro.sweep.faults.fire_stage`): a ``REPRO_FAULT_INJECT`` rule
  with ``"stage": "service.result"`` can SIGKILL the server after exactly
  N logged results, which is how the CI smoke proves the recovery story
  end to end.

Wire format (all JSON)::

    POST /jobs            {"kernels": [...], "isas": [...], "ways": [...],
                           "latencies": [...], "scale": N|null, "seed": N,
                           "deadline_seconds": S|null}
                          -> 201 {job} new, 200 {job} attached,
                             400 bad submission or Content-Length,
                             413 body over MAX_BODY_BYTES,
                             422 more than MAX_JOB_POINTS points,
                             429 queue full (Retry-After), 503 draining
    GET  /jobs            -> 200 {"jobs": [{job}, ...]}
    GET  /jobs/<id>       -> 200 {job}
    GET  /jobs/<id>/events?since=N&timeout=S
                          -> 200 {"events": [...], "next": M, "job": {job},
                                  "boot": id}, 400 bad since or timeout
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
failed ones.  Job records are written with the same atomic tempfile+rename
discipline as every other store, so a crash can never leave a torn job
file.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.atomicio import atomic_write_text
from repro import versions
from repro.sweep import faults
from repro.sweep.cache import ResultCache, point_key, point_record
from repro.sweep.engine import PointResult, SweepEngine, check_engine_settings
from repro.sweep.spec import SweepPoint, grid_points

__all__ = ["JOB_TERMINAL_STATES", "MAX_BODY_BYTES", "MAX_JOB_POINTS",
           "QueueFull", "ServiceHTTPServer", "SweepService",
           "TooManyPoints", "UnknownJob", "job_id_for",
           "normalize_submission", "submission_points"]

#: Job states with nothing left to run; anything else is re-enqueued when
#: a restarted server recovers its state directory.
JOB_TERMINAL_STATES = ("done", "failed")

#: Largest request body the service reads; a bigger ``Content-Length`` is
#: answered 413 before any byte of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Most points one job may expand to (HTTP 422 above); head-room over the
#: 2304-point dense grid, the largest sweep the repository runs.
MAX_JOB_POINTS = 10_000

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


class TooManyPoints(ValueError):
    """The submission expands to over :data:`MAX_JOB_POINTS` points (422)."""


class UnknownJob(KeyError):
    """No job with the requested id exists in this state directory."""


class _Interrupted(Exception):
    """Internal: the runner abandoned a job at a record boundary (drain)."""


class _DeadlineExceeded(Exception):
    """Internal: the running job crossed its submission deadline."""


# ----------------------------------------------------------------------
# Submissions: normalization, identity, expansion.

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _names(data: Dict[str, Any], field: str, what: str,
           known: Sequence[str]) -> List[str]:
    """``data[field]`` as a list of names from ``known`` (all of them if
    the field is omitted)."""
    names = data.get(field)
    if names is None:
        return list(known)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{field} must be a list of strings, got {names!r}")
    bad = [n for n in names if n not in known]
    if bad:
        raise ValueError(f"unknown {what}(s): {bad}")
    return names


def normalize_submission(data: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical form of a submission: defaults filled, junk rejected.

    The normalized dict is what gets hashed for the job id and persisted
    in the job file, so two submissions that mean the same sweep normalize
    identically (e.g. an omitted ``isas`` and an explicit full list).
    Every job verifies its builds against the golden reference; there is
    no field to switch that off, and a ``check`` field is rejected as
    unknown.

    Only the JSON types (and the kernel and ISA names) are checked here:
    lists of strings and of integers, an integer scale and seed and a
    numeric deadline, no booleans.  Their ranges are the machine's and the
    workload's, checked where the points are built
    (:func:`submission_points`), with the messages every front end gives.
    """
    from repro.kernels.catalog import ISA_VARIANTS, kernel_names

    if not isinstance(data, dict):
        raise ValueError("submission must be a JSON object")
    known = {"kernels", "isas", "ways", "latencies", "scale", "seed",
             "deadline_seconds"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown submission field(s): {sorted(unknown)}")

    kernels = _names(data, "kernels", "kernel", kernel_names())
    isas = _names(data, "isas", "isa", ISA_VARIANTS)

    ways = data.get("ways", [4])
    latencies = data.get("latencies", [1])
    for name, values in (("ways", ways), ("latencies", latencies)):
        if not isinstance(values, list) or not all(map(_is_int, values)):
            raise ValueError(f"{name} must be a list of integers, "
                             f"got {values!r}")
    points = len(kernels) * len(isas) * len(ways) * len(latencies)
    if not points:
        raise ValueError("submission expands to zero points")
    if points > MAX_JOB_POINTS:
        raise TooManyPoints(f"submission expands to {points} points, over "
                            f"the {MAX_JOB_POINTS}-point limit")
    scale = data.get("scale")
    if scale is not None and not _is_int(scale):
        raise ValueError(f"scale must be an integer, got {scale!r}")
    seed = data.get("seed", 1999)
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    deadline = data.get("deadline_seconds")
    if deadline is not None:
        # The upper bound also refuses inf, NaN and an int too big for a
        # float; a bool is not a number of seconds.
        if (not isinstance(deadline, (int, float)) or isinstance(deadline, bool)
                or not 0 < deadline <= sys.float_info.max):
            raise ValueError(f"deadline_seconds must be a finite number "
                             f"> 0, got {deadline!r}")
        deadline = float(deadline)
    return {
        "kernels": list(kernels),
        "isas": list(isas),
        "ways": ways,
        "latencies": latencies,
        "scale": scale,
        "seed": seed,
        "deadline_seconds": deadline,
    }


def job_id_for(submission: Dict[str, Any]) -> str:
    """Content-hash id of a normalized submission (idempotency key).

    Folds in the timing-model and builder versions, read at call time like
    every result key (:func:`~repro.sweep.cache.point_key`), so either bump
    makes the "same" submission a different job.  The deadline is excluded:
    it shapes *how long* the job may run, not *what* it computes, so a
    resubmission with a longer deadline attaches instead of forking.
    """
    import hashlib

    body = {k: v for k, v in submission.items() if k != "deadline_seconds"}
    body["model_version"] = versions.MODEL_VERSION
    body["builder_version"] = versions.BUILDER_VERSION
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def submission_points(submission: Dict[str, Any]) -> List[SweepPoint]:
    """Expand a normalized submission into resolved sweep points, through
    the same :func:`~repro.sweep.spec.grid_points` as ``repro sweep``, so
    a job's results match the CLI's for the same parameters.  A machine,
    scale or seed out of range raises its :class:`ValueError` here, naming
    the field as the CLI does (``way (issue width) must be <= 64``)."""
    return grid_points(submission["kernels"], submission["isas"],
                       submission["ways"], submission["latencies"],
                       submission["scale"], submission["seed"])


# ----------------------------------------------------------------------
# The service.

class SweepService:
    """Job queue + runner + persistent state behind the HTTP front end.

    Parameters
    ----------
    state_dir:
        Durable home of the service: one job record per job under
        ``jobs/``.
    cache_dir / jobs / task_timeout:
        Passed through to the :class:`~repro.sweep.engine.SweepEngine`
        built for each job run; ``jobs`` and ``task_timeout`` are checked
        by :func:`~repro.sweep.engine.check_engine_settings` before the
        service writes anything.  The result store under ``cache_dir``
        (default ``<state_dir>/cache``) is opened once, and only the
        runner thread and :meth:`recover` use it.
    max_queue:
        Bound on jobs waiting to run (the running job does not count).
        Submissions over the bound raise :class:`QueueFull` (HTTP 429).
    """

    def __init__(self, state_dir: str,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 max_queue: int = 16,
                 task_timeout: Optional[float] = None) -> None:
        check_engine_settings(jobs, task_timeout)
        self.state_dir = os.fspath(state_dir)
        self.cache = ResultCache(cache_dir
                                 or os.path.join(self.state_dir, "cache"))
        self.engine_jobs = jobs
        self.max_queue = max_queue
        self.task_timeout = task_timeout
        #: Changes with every server start; watchers restart on a change.
        self.boot_id = os.urandom(8).hex()

        os.makedirs(self.jobs_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, Dict[str, Any]] = {}
        #: Result records of each job's current run, in completion order.
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._queue: deque = deque()
        self._draining = threading.Event()
        self._runner: Optional[threading.Thread] = None

    # -- paths -------------------------------------------------------------

    @property
    def jobs_dir(self) -> str:
        return os.path.join(self.state_dir, "jobs")

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id + ".json")

    # -- persistence -------------------------------------------------------

    def _persist(self, job: Dict[str, Any]) -> None:
        atomic_write_text(self.job_path(job["id"]),
                          json.dumps(job, sort_keys=True))

    def _enqueue(self, job_id: str) -> None:
        """Queue a job with an empty event list (caller holds the lock)."""
        self._events[job_id] = []
        self._queue.append(job_id)
        self._wake.notify_all()

    def _logged_events(self, job: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Records of the job's points the result log holds, by index."""
        events = []
        for i, point in enumerate(submission_points(job["submission"])):
            key = point_key(point)
            hit = self.cache.get(point, key)
            if hit is not None:
                events.append(point_record(key, PointResult(
                    point=point, sim=hit[0], stats=hit[1], index=i)))
        return events

    def recover(self) -> List[str]:
        """Load every persisted job (before :meth:`start`); returns the
        ids it re-enqueues: the unfinished jobs, and the ``done`` ones with
        a point missing from the log (it failed, or the cache was
        cleared), so ``/result`` never serves a partial job.  A terminal
        job's events are rebuilt from the log in index order."""
        resumed: List[str] = []
        with self._lock:
            for name in sorted(os.listdir(self.jobs_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(self.jobs_dir, name),
                              encoding="utf-8") as f:
                        job = json.load(f)
                except (OSError, ValueError):
                    continue
                job_id = job.get("id")
                if not isinstance(job_id, str):
                    continue
                self._jobs[job_id] = job
                status = job.get("status")
                if status in JOB_TERMINAL_STATES:
                    events = self._logged_events(job)
                    if status == "failed" or len(events) == job["total"]:
                        self._events[job_id] = events
                        continue
                    job.update(finished_at=None, telemetry=None)
                else:
                    job["interruptions"] = int(job.get("interruptions", 0)) + 1
                job["status"] = "queued"
                self._persist(job)
                self._enqueue(job_id)
                resumed.append(job_id)
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
        to park; the log is flushed per record, so an expired wait loses
        nothing."""
        self._draining.set()
        with self._lock:
            self._wake.notify_all()
        runner = self._runner
        if runner is not None and runner.is_alive():
            runner.join(timeout=timeout)

    def pending(self) -> List[str]:
        """What a restart would pick up: queued/interrupted job ids."""
        with self._lock:
            return [job_id for job_id, job in sorted(self._jobs.items())
                    if job["status"] not in JOB_TERMINAL_STATES]

    # -- submission & queries ---------------------------------------------

    def submit(self, data: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Accept one submission; returns ``(job, created)``.

        ``created`` is False when the submission's content hash matched an
        existing job (idempotent resubmission: the caller attaches to it).
        Resubmitting a *failed* job requeues it under the new deadline; its
        logged points are hits, so a deadline-reaped job continues.  Raises
        :class:`QueueFull` when the queue is at capacity and
        :class:`ValueError` on a malformed submission.
        """
        submission = normalize_submission(data)
        total = len(submission_points(submission))  # checks the ranges
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
                    self._enqueue(job_id)
                return dict(existing), False
            if len(self._queue) >= self.max_queue:
                raise QueueFull(self.max_queue)
            job = {
                "id": job_id,
                "status": "queued",
                "submission": submission,
                "total": total,
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
            self._enqueue(job_id)
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

    def poll(self, job_id: str, since: int = 0, timeout: float = 0.0,
             ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """``(events, job)``: the job's events from index ``since`` on,
        waiting up to ``timeout`` seconds for one while it is not
        terminal.  One lock covers both reads."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise UnknownJob(job_id)
                events = self._events.get(job_id, [])[since:]
                remaining = deadline - time.monotonic()
                if (events or job["status"] in JOB_TERMINAL_STATES
                        or remaining <= 0):
                    return events, dict(job)
                self._wake.wait(remaining)

    def events(self, job_id: str, since: int = 0) -> List[Dict[str, Any]]:
        """The job's current run's result records from ``since`` on."""
        return self.poll(job_id, since)[0]

    def result(self, job_id: str) -> Dict[str, Any]:
        """A job with its run's success records, then failure records,
        each sorted by index: a resumed job's equal a clean run's."""
        events, job = self.poll(job_id)
        events.sort(key=lambda r: r["index"])
        return {"job": job,
                "results": [r for r in events if "failure" not in r],
                "failures": [r for r in events if "failure" in r]}

    # -- the runner --------------------------------------------------------

    def _update(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs[job_id]
            job.update(fields)
            self._persist(job)
            self._wake.notify_all()
            return dict(job)

    def _run_loop(self) -> None:
        """Consume the queue until drained, one engine run per job; then
        close the result store."""
        while not self._draining.is_set():
            with self._lock:
                while not self._queue and not self._draining.is_set():
                    self._wake.wait(timeout=0.5)
                if self._draining.is_set():
                    break
                job_id = self._queue.popleft()
            self._run_job(job_id)
        self.cache.close()

    def _run_job(self, job_id: str) -> None:
        job = self._update(job_id, status="running", started_at=time.time())
        submission = job["submission"]
        engine = SweepEngine(jobs=self.engine_jobs, cache_dir=self.cache,
                             task_timeout=self.task_timeout)
        deadline = submission.get("deadline_seconds")
        started = time.monotonic()
        events = self._events[job_id]

        def on_result(result: PointResult) -> None:
            # The engine logged this result *before* calling us, so a
            # crash fired here (the chaos stage) leaves it durable.  Hits
            # don't re-fire the stage: each crash/restart cycle must make
            # forward progress, not die again on the same record.
            if not result.cached:
                faults.fire_stage(STAGE_RESULT, label=job_id)
            record = point_record(result.key, result)
            with self._lock:
                events.append(record)
                self._wake.notify_all()
            if self._draining.is_set():
                raise _Interrupted()
            if deadline is not None and time.monotonic() - started > deadline:
                raise _DeadlineExceeded()

        status, error, telemetry = "done", None, None
        try:
            engine.run(submission_points(submission), on_result=on_result)
            telemetry = engine.report.counts()
        except _Interrupted:
            # Drain: the log holds everything completed so far; the job
            # re-queues on the next recover().
            status = "interrupted"
        except _DeadlineExceeded:
            status, error = "failed", {
                "type": "deadline",
                "message": (f"job exceeded its deadline of {deadline:.1f}s "
                            f"after {len(events)}/{job['total']} point(s); "
                            f"completed points are in the result log — "
                            f"resubmit with a longer deadline to continue "
                            f"from them"),
                "deadline_seconds": deadline,
                "completed_points": len(events),
            }
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            status, error = "failed", {"type": type(exc).__name__,
                                       "message": str(exc)}
        self._update(
            job_id, status=status, error=error, telemetry=telemetry,
            done=len(events),
            failed_points=sum("failure" in r for r in events),
            finished_at=None if status == "interrupted" else time.time())


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


def _number(query: Dict[str, List[str]], name: str, kind: type) -> Any:
    """Query parameter ``name`` as ``kind`` (0 when absent); None if not."""
    try:
        return kind((query.get(name) or ["0"])[0])
    except ValueError:
        return None


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
        """Long-poll: wait (bounded) for events past ``since``; an empty
        batch after ``timeout`` (capped by ``max_poll_seconds``) is the
        client's cue to re-poll."""
        since = _number(query, "since", int)
        if since is None or since < 0:
            self._error(400, "since must be an integer >= 0")
            return
        timeout = _number(query, "timeout", float)
        if timeout is None or not math.isfinite(timeout):
            self._error(400, "timeout must be a finite number")
            return
        service = self.server.service
        events, job = service.poll(
            job_id, since,
            max(0.0, min(timeout, self.server.max_poll_seconds)))
        self._send(200, {"events": events, "next": since + len(events),
                         "job": job, "boot": service.boot_id})

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
        except TooManyPoints as exc:
            self._error(422, str(exc))
            return
        except ValueError as exc:
            self._error(400, f"bad submission: {exc}")
            return
        except faults.InjectedFault as exc:
            self._error(500, f"injected fault: {exc}")
            return
        self._send(201 if created else 200, job)
