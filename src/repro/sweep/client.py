"""HTTP client for the sweep service: ``repro client submit|watch|fetch``.

A thin stdlib (``urllib``) client over the wire protocol of
:mod:`repro.sweep.service`, built for unreliable conditions — the whole
point of the service is surviving crashes, so its client must survive the
server's absences:

* **Retries with deterministic backoff.**  Connection failures, 5xx
  responses and 429 backpressure all retry, sleeping per the supervisor's
  exponential :func:`~repro.sweep.supervisor.backoff_delay`, so client
  behaviour is reproducible in tests.  A 429's ``Retry-After`` header,
  when present, takes precedence over the computed delay (the server
  knows its own queue).
* **Resumable watching.**  :meth:`ServiceClient.watch` long-polls the
  job's event stream by index from the last event seen (from the start,
  skipping seen points, after a server restart) — never duplicating or
  losing progress lines.
* **Idempotent submission.**  Submitting is safe to repeat (the server
  keys jobs by content), which is what makes the retry loop sound: a
  submit whose response was lost re-submits and attaches to the job the
  first attempt created.

4xx responses other than 429 do not retry — they are the caller's bug
(bad submission, unknown job), and retrying would just repeat it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sweep.supervisor import backoff_delay

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request failed definitively (after retries, or a caller error).

    ``status`` is the HTTP status (0 when the server was unreachable);
    ``payload`` is the decoded error body when one existed.
    """

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.status = status
        self.payload = payload or {}
        super().__init__(message)


class ServiceClient:
    """Client for one sweep service instance.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``http://127.0.0.1:8023``.
    timeout:
        Per-request socket timeout (long-poll requests add their poll
        window on top).
    retries:
        Attempts per request for *retryable* failures (connection errors,
        429, 5xx) before :class:`ServiceError` is raised; between attempts
        the client sleeps the pool supervisor's :func:`backoff_delay`.
    sleep:
        Injectable sleep for tests.
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 retries: int = 5,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(1, retries)
        self._sleep = sleep

    # -- transport ---------------------------------------------------------

    def _once(self, method: str, path: str, body: Optional[Dict[str, Any]],
              timeout: float) -> Tuple[int, Any, Dict[str, str]]:
        """One HTTP exchange; returns ``(status, payload, headers)``.

        4xx/5xx come back as statuses, not exceptions — the retry policy
        lives in :meth:`_request`, not here.  Raises ``URLError`` (and
        kin) when the server is unreachable.
        """
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
                return response.status, payload, dict(response.headers)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError:
                payload = {"error": raw.decode("utf-8", "replace")}
            return exc.code, payload, dict(exc.headers or {})

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Tuple[int, Any]:
        """Request with retry: connection errors, 429 and 5xx back off."""
        timeout = self.timeout if timeout is None else timeout
        last_error = "unreachable"
        last_status = 0
        last_payload: Optional[Dict[str, Any]] = None
        for attempt in range(self.retries):
            if attempt:
                self._sleep(self._delay(attempt, last_status))
            try:
                status, payload, headers = self._once(method, path, body,
                                                      timeout)
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                last_error = f"server unreachable: {exc}"
                last_status = 0
                last_payload = None
                continue
            if status == 429 or status >= 500:
                last_error = (payload.get("error", f"HTTP {status}")
                              if isinstance(payload, dict)
                              else f"HTTP {status}")
                last_status = status
                last_payload = (payload if isinstance(payload, dict)
                                else None)
                retry_after = headers.get("Retry-After")
                if retry_after is not None:
                    try:
                        self._retry_after = float(retry_after)
                    except ValueError:
                        self._retry_after = None
                else:
                    self._retry_after = None
                continue
            if status >= 400:
                message = (payload.get("error", f"HTTP {status}")
                           if isinstance(payload, dict) else f"HTTP {status}")
                raise ServiceError(status, message,
                                   payload if isinstance(payload, dict)
                                   else None)
            return status, payload
        raise ServiceError(last_status,
                           f"{method} {path} failed after "
                           f"{self.retries} attempt(s): {last_error}",
                           last_payload)

    _retry_after: Optional[float] = None

    def _delay(self, attempt: int, last_status: int) -> float:
        """Backoff before retry ``attempt``; a 429's Retry-After wins."""
        computed = backoff_delay(attempt)
        if last_status == 429 and self._retry_after is not None:
            return max(computed, self._retry_after)
        return computed

    # -- operations --------------------------------------------------------

    def health(self) -> bool:
        """Whether the server process answers at all."""
        try:
            status, _payload = self._request("GET", "/healthz")
        except ServiceError:
            return False
        return status == 200

    def ready(self) -> bool:
        """Whether the server is accepting submissions (not draining)."""
        try:
            self._request("GET", "/readyz")
        except ServiceError:
            return False
        return True

    def submit(self, submission: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Submit a sweep; returns ``(job, created)``.

        Safe to retry: the server's content-addressed job ids turn a
        duplicate submit into an attach (``created=False``).
        """
        status, job = self._request("POST", "/jobs", body=submission)
        return job, status == 201

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")[1]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")[1]["jobs"]

    def events(self, job_id: str, since: int = 0,
               timeout: float = 25.0) -> Dict[str, Any]:
        """One long-poll for events past ``since`` (see the service docs)."""
        return self._request(
            "GET", f"/jobs/{job_id}/events?since={since}&timeout={timeout}",
            timeout=self.timeout + timeout)[1]

    def watch(self, job_id: str,
              poll_timeout: float = 25.0) -> Iterator[Dict[str, Any]]:
        """Yield the job's events live until it reaches a terminal state.

        Resumes from the last seen event across dropped connections.  A
        restarted server (new ``boot`` id) may list events in another
        order, so the watch starts over and skips points it has yielded.
        The final item is a ``{"job": ...}`` sentinel with the terminal job.
        """
        since = 0
        boot = None
        seen = set()
        while True:
            batch = self.events(job_id, since=since, timeout=poll_timeout)
            if boot not in (None, batch["boot"]):
                boot, since = batch["boot"], 0
                continue
            boot = batch["boot"]
            for event in batch["events"]:
                if event["index"] not in seen:
                    seen.add(event["index"])
                    yield event
            since = batch["next"]
            job = batch["job"]
            if job["status"] in ("done", "failed"):
                yield {"job": job}
                return

    def fetch(self, job_id: str) -> Dict[str, Any]:
        """Full results of a finished job.

        Raises :class:`ServiceError` with status 409 while the job is
        still queued/running/interrupted.
        """
        return self._request("GET", f"/jobs/{job_id}/result")[1]
