"""Tests of the crash-tolerant sweep service and its client.

Three layers, cheapest first:

* pure functions — submission normalization, content-hash job ids, point
  expansion parity with ``repro sweep``;
* the in-process :class:`SweepService` — queueing, idempotent attach,
  backpressure, deadlines, drain + journal-backed recovery;
* the HTTP surface — a real ``ServiceHTTPServer`` on an ephemeral port
  driven by the real :class:`ServiceClient` (retries, long-poll watch,
  error mapping), plus the full out-of-process SIGKILL/restart chaos
  smoke (``scripts/service_chaos_smoke.py``) as a slow test.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import kernel_names
from repro.sweep.client import ServiceClient, ServiceError
from repro.sweep.journal import SweepJournal
from repro.sweep.service import (JOB_TERMINAL_STATES, MAX_BODY_BYTES,
                                 QueueFull,
                                 ServiceHTTPServer, SweepService, UnknownJob,
                                 job_id_for, normalize_submission,
                                 submission_points)

#: A fast submission: 4 points (one kernel, one config, all four ISAs).
SMALL = {"kernels": ["comp"], "ways": [1], "latencies": [1], "scale": 4}


def _wait(predicate, timeout: float = 60.0, interval: float = 0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached in {timeout}s")


def _wait_terminal(service: SweepService, job_id: str,
                   timeout: float = 120.0) -> dict:
    _wait(lambda: service.job(job_id)["status"] in JOB_TERMINAL_STATES,
          timeout=timeout)
    return service.job(job_id)


class TestNormalizeSubmission:
    def test_defaults_fill_in(self):
        sub = normalize_submission({})
        assert sub["kernels"] == list(kernel_names())
        assert sub["isas"] == list(ISA_VARIANTS)
        assert sub["ways"] == [4]
        assert sub["latencies"] == [1]
        assert sub["scale"] is None
        assert sub["seed"] == 1999
        assert sub["deadline_seconds"] is None
        assert sub["check"] is True

    def test_explicit_defaults_normalize_identically(self):
        # An omitted field and its explicit default mean the same sweep,
        # so they must produce the same job id.
        assert normalize_submission({}) == normalize_submission(
            {"isas": list(ISA_VARIANTS), "seed": 1999})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown submission field"):
            normalize_submission({"kernel": ["comp"]})

    def test_unknown_kernel_and_isa_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            normalize_submission({"kernels": ["nope"]})
        with pytest.raises(ValueError, match="unknown isa"):
            normalize_submission({"isas": ["avx512"]})

    def test_zero_point_submission_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            normalize_submission({"ways": []})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            normalize_submission(["comp"])

    @pytest.mark.parametrize("field, values", [
        ("ways", [4, 0]), ("ways", [-1]),
        ("latencies", [1, 0]), ("latencies", [-5])])
    def test_nonphysical_machine_rejected(self, field, values):
        with pytest.raises(ValueError, match=f"{field} must all be >= 1"):
            normalize_submission({field: values})


class TestJobId:
    def test_stable_and_content_addressed(self):
        a = job_id_for(normalize_submission(dict(SMALL)))
        b = job_id_for(normalize_submission(dict(SMALL)))
        c = job_id_for(normalize_submission(dict(SMALL, seed=7)))
        assert a == b
        assert a != c

    def test_deadline_does_not_fork_the_job(self):
        # The deadline bounds how long the job may run, not what it
        # computes: resubmitting with a longer deadline must attach.
        short = normalize_submission(dict(SMALL, deadline_seconds=1))
        long = normalize_submission(dict(SMALL, deadline_seconds=3600))
        assert job_id_for(short) == job_id_for(long)

    def test_model_version_is_folded_in(self, monkeypatch):
        import repro.sweep.service as service_mod
        sub = normalize_submission(dict(SMALL))
        before = job_id_for(sub)
        monkeypatch.setattr(service_mod, "MODEL_VERSION", "test-bump")
        assert job_id_for(sub) != before


class TestSubmissionPoints:
    def test_matches_cli_expansion(self):
        """The service must run exactly the points ``repro sweep`` would."""
        from dataclasses import replace

        from repro.sweep.spec import resolve_spec
        from repro.timing.config import MachineConfig
        from repro.workloads.generators import WorkloadSpec

        sub = normalize_submission({"kernels": ["comp", "addblock"],
                                    "ways": [1, 2], "latencies": [1, 12],
                                    "scale": 4, "seed": 7})
        points = submission_points(sub)
        configs = [MachineConfig.for_way(w, mem_latency=m)
                   for w in (1, 2) for m in (1, 12)]
        expected = [
            (kernel, config.name, isa)
            for kernel in ("comp", "addblock")
            for config in configs
            for isa in ISA_VARIANTS
        ]
        assert [(p.kernel, p.config.name, p.isa) for p in points] == expected
        spec = replace(resolve_spec("comp", WorkloadSpec(scale=4, seed=7)),
                       seed=7)
        assert points[0].spec == spec

    def test_default_scale_is_per_kernel(self):
        sub = normalize_submission({"kernels": ["comp", "h2v2"],
                                    "ways": [1], "latencies": [1]})
        scales = {p.kernel: p.spec.scale for p in submission_points(sub)}
        from repro.kernels.registry import KERNELS
        assert scales == {"comp": KERNELS["comp"].default_scale,
                         "h2v2": KERNELS["h2v2"].default_scale}


class TestServiceInProcess:
    def test_submit_runs_to_done(self, tmp_path):
        service = SweepService(str(tmp_path / "state"))
        job, created = service.submit(dict(SMALL))
        assert created
        assert job["status"] == "queued"
        assert job["total"] == 4
        service.start()
        final = _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        assert final["done"] == 4
        assert final["telemetry"]["simulated"] == 4

        result = service.result(job["id"])
        assert [r["index"] for r in result["results"]] == [0, 1, 2, 3]
        assert result["failures"] == []
        # The job file survived with the same content the API serves.
        with open(service.job_path(job["id"]), encoding="utf-8") as f:
            assert json.load(f)["status"] == "done"

    def test_resubmission_attaches(self, tmp_path):
        service = SweepService(str(tmp_path / "state"))
        job, created = service.submit(dict(SMALL))
        again, created_again = service.submit(dict(SMALL))
        assert created and not created_again
        assert again["id"] == job["id"]
        # Still only one queue entry: attaching must not double-run.
        assert len(service._queue) == 1

    def test_queue_full_rejects(self, tmp_path):
        service = SweepService(str(tmp_path / "state"), max_queue=1)
        service.submit(dict(SMALL))  # runner not started: stays queued
        with pytest.raises(QueueFull):
            service.submit(dict(SMALL, seed=7))
        # But re-submitting the queued job still attaches fine.
        _job, created = service.submit(dict(SMALL))
        assert not created

    def test_unknown_job_raises(self, tmp_path):
        service = SweepService(str(tmp_path / "state"))
        with pytest.raises(UnknownJob):
            service.job("0123456789abcdef")
        with pytest.raises(UnknownJob):
            service.events("0123456789abcdef")

    def test_events_are_journal_records(self, tmp_path):
        service = SweepService(str(tmp_path / "state"))
        job, _created = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        events = service.events(job["id"])
        assert len(events) == 4
        assert all("key" in e and "sim" in e for e in events)
        assert service.events(job["id"], since=3) == events[3:]
        assert service.events(job["id"], since=99) == []

    def test_deadline_reaps_then_resubmit_continues(self, tmp_path,
                                                    monkeypatch):
        """A deadline-failed job keeps its journal; resubmitting requeues
        it and the engine replays the completed points.  The overrun is
        forced with an injected ``slow`` fault at the service stage, so
        the reap happens under the fault harness, deterministically."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", json.dumps({
            "faults": [{"kind": "slow", "stage": "service.result",
                        "seconds": 0.2, "times": -1}]}))
        service = SweepService(str(tmp_path / "state"))
        job, _created = service.submit(dict(SMALL, deadline_seconds=0.05))
        service.start()
        final = _wait_terminal(service, job["id"])
        assert final["status"] == "failed"
        assert final["error"]["type"] == "deadline"
        assert final["error"]["completed_points"] >= 1
        journaled = len(SweepJournal(service.journal_path(job["id"])).load())
        assert journaled == final["error"]["completed_points"]

        # Same submission, longer deadline: same id, requeued, finishes.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        again, created = service.submit(dict(SMALL, deadline_seconds=3600))
        assert not created and again["id"] == job["id"]
        assert again["status"] == "queued"
        final = _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        assert final["telemetry"]["journaled"] == journaled
        assert final["telemetry"]["simulated"] == 4 - journaled

    def test_drain_interrupts_and_recover_resumes(self, tmp_path,
                                                  monkeypatch):
        """Drain parks the running job at a record boundary; a new service
        on the same state dir re-enqueues it and finishes from the
        journal."""
        # Slow every journaled record so the drain lands mid-job
        # deterministically (24 points x 0.2s >> the drain latency).
        monkeypatch.setenv("REPRO_FAULT_INJECT", json.dumps({
            "faults": [{"kind": "slow", "stage": "service.result",
                        "seconds": 0.2, "times": -1}]}))
        state = str(tmp_path / "state")
        service = SweepService(state)
        sub = {"kernels": ["comp"], "ways": [1, 2], "latencies": [1, 12, 50],
               "scale": 4}
        job, _created = service.submit(sub)
        service.start()
        _wait(lambda: service.events(job["id"]), timeout=60)
        service.drain(timeout=30)
        parked = service.job(job["id"])
        assert parked["status"] == "interrupted"
        journaled = len(SweepJournal(service.journal_path(job["id"])).load())
        assert journaled >= 1

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        revived = SweepService(state)
        assert revived.recover() == [job["id"]]
        assert revived.job(job["id"])["interruptions"] == 1
        revived.start()
        final = _wait_terminal(revived, job["id"])
        revived.drain(timeout=10)
        assert final["status"] == "done"
        assert final["telemetry"]["journaled"] >= journaled
        total = 1 * 2 * 3 * 4
        assert len(revived.result(job["id"])["results"]) == total

    def test_recover_skips_terminal_jobs(self, tmp_path):
        state = str(tmp_path / "state")
        service = SweepService(state)
        job, _created = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, job["id"])
        service.drain(timeout=10)

        revived = SweepService(state)
        assert revived.recover() == []
        assert revived.job(job["id"])["status"] == "done"

    def test_results_shared_through_cache_across_jobs(self, tmp_path):
        """Jobs share the service's cache root: a second job covering the
        same points simulates nothing."""
        service = SweepService(str(tmp_path / "state"),
                               cache_dir=str(tmp_path / "cache"))
        first, _ = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, first["id"])
        second, created = service.submit(dict(SMALL, seed=1999,
                                              isas=list(ISA_VARIANTS)))
        assert not created  # same normalized submission
        third, created = service.submit(dict(SMALL, latencies=[1, 1]))
        assert created  # different submission ([1, 1] != [1])...
        final = _wait_terminal(service, third["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        # ...but every point of it was already in the shared cache.
        assert final["telemetry"]["simulated"] == 0
        assert final["telemetry"]["cached"] == final["total"]


@pytest.fixture
def http_stack(tmp_path):
    """A real service + HTTP server on an ephemeral port + fast client."""
    service = SweepService(str(tmp_path / "state"), max_queue=4)
    service.start()
    server = ServiceHTTPServer(("127.0.0.1", 0), service,
                               max_poll_seconds=5.0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           timeout=10.0, retries=3, sleep=lambda _s: None)
    try:
        yield service, server, client
    finally:
        server.shutdown()
        server.server_close()
        service.drain(timeout=10)
        thread.join(timeout=10)


class TestHTTP:
    def test_health_and_ready(self, http_stack):
        service, _server, client = http_stack
        assert client.health()
        assert client.ready()
        service._draining.set()
        try:
            assert client.health()  # still alive...
            assert not client.ready()  # ...but not accepting
        finally:
            service._draining.clear()

    def test_submit_watch_fetch_roundtrip(self, http_stack):
        _service, _server, client = http_stack
        job, created = client.submit(dict(SMALL))
        assert created
        events = []
        final = None
        for item in client.watch(job["id"], poll_timeout=2.0):
            if "key" in item:
                events.append(item)
            else:
                final = item["job"]
        assert final is not None and final["status"] == "done"
        assert len(events) == 4
        assert [e["index"] for e in events] == [0, 1, 2, 3]

        result = client.fetch(job["id"])
        assert result["job"]["status"] == "done"
        assert [r["key"] for r in result["results"]] \
            == [e["key"] for e in events]

        # Resubmission over HTTP attaches (200, created False).
        _job, created_again = client.submit(dict(SMALL))
        assert not created_again

    def test_fetch_unfinished_is_409(self, tmp_path):
        # A service whose runner never starts: the job stays queued.
        service = SweepService(str(tmp_path / "state2"))
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retries=1, sleep=lambda _s: None)
        try:
            job, _created = client.submit(dict(SMALL))
            with pytest.raises(ServiceError) as excinfo:
                client.fetch(job["id"])
            assert excinfo.value.status == 409
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_bad_submission_is_400_and_no_retry(self, http_stack):
        _service, _server, client = http_stack
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kernels": ["nope"]})
        assert excinfo.value.status == 400
        assert "unknown kernel" in str(excinfo.value)
        assert sleeps == []  # 4xx is the caller's bug: no retry loop

    def test_nonphysical_latency_is_400_before_any_job(self, http_stack):
        service, _server, client = http_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SMALL, latencies=[-5]))
        assert excinfo.value.status == 400
        assert "latencies must all be >= 1" in str(excinfo.value)
        assert service.list_jobs() == []

    @staticmethod
    def _post_with_length(server, length: str, body: bytes = b""):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_address[1],
                                          timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_invalid_content_length_is_400(self, http_stack, length):
        service, server, _client = http_stack
        status, payload = self._post_with_length(server, length, b"{}")
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert service.list_jobs() == []

    def test_oversized_body_is_413_before_reading(self, http_stack):
        service, server, _client = http_stack
        # Only the headers are sent: the server must answer without
        # waiting for a body it will never read.
        status, payload = self._post_with_length(
            server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert service.list_jobs() == []

    def test_unknown_job_is_404(self, http_stack):
        _service, _server, client = http_stack
        for call in (lambda: client.job("no-such-job"),
                     lambda: client.fetch("no-such-job"),
                     lambda: client.events("no-such-job")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        service = SweepService(str(tmp_path / "state3"), max_queue=0)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        sleeps = []
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retries=2, sleep=sleeps.append)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(SMALL))
            assert excinfo.value.status == 429
            assert "queue is full" in str(excinfo.value)
            # The client retried, sleeping at least the server's
            # Retry-After hint before the second attempt.
            assert len(sleeps) == 1
            assert sleeps[0] >= 5.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_backpressure_client_backs_off_then_succeeds(self, tmp_path):
        """The full backpressure loop: a saturated queue yields 429, the
        client sleeps at least Retry-After, and the retry lands once the
        queue has room."""
        service = SweepService(str(tmp_path / "state4"), max_queue=1)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        sleeps = []

        def sleep_and_drain(delay: float) -> None:
            # Stand-in for the runner picking up the queued job while the
            # client backs off.
            sleeps.append(delay)
            with service._lock:
                service._queue.clear()

        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retries=3, sleep=sleep_and_drain)
        try:
            client.submit(dict(SMALL))  # saturates the queue (no runner)
            job, created = client.submit(dict(SMALL, seed=7))
            assert created
            assert job["status"] == "queued"
            assert len(sleeps) == 1  # one 429, one backoff, one success
            assert sleeps[0] >= 5.0  # at least the server's Retry-After
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_draining_submission_is_503(self, http_stack):
        service, _server, client = http_stack
        client.retries = 1
        service._draining.set()
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(SMALL))
            assert excinfo.value.status == 503
        finally:
            service._draining.clear()

    def test_events_long_poll_returns_promptly_when_terminal(
            self, http_stack):
        _service, _server, client = http_stack
        job, _created = client.submit(dict(SMALL))
        for item in client.watch(job["id"], poll_timeout=2.0):
            pass
        started = time.time()
        batch = client.events(job["id"], since=99, timeout=5.0)
        assert time.time() - started < 2.0  # terminal: no wait
        assert batch["events"] == []
        assert batch["job"]["status"] == "done"


class TestClientRetries:
    def test_unreachable_server_retries_then_fails(self):
        # Grab a port that is certainly closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=1.0,
                               retries=3, sleep=sleeps.append)
        with pytest.raises(ServiceError) as excinfo:
            client.jobs()
        assert excinfo.value.status == 0
        assert "unreachable" in str(excinfo.value)
        assert len(sleeps) == 2  # retries - 1 backoff sleeps

    def test_backoff_is_deterministic(self):
        from repro.sweep.supervisor import backoff_delay
        client = ServiceClient("http://127.0.0.1:1", retries=5)
        delays = [client._delay(a, "/jobs", 0, None) for a in (1, 2, 3)]
        assert delays == [backoff_delay(a, token="/jobs") for a in (1, 2, 3)]


def _cli_env() -> dict:
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(
                    [os.path.join(os.path.dirname(__file__), "..", "..",
                                  "src")]
                    + ([os.environ["PYTHONPATH"]]
                       if os.environ.get("PYTHONPATH") else [])))


class TestServeCLI:
    @pytest.mark.slow
    def test_serve_submit_watch_sigterm_roundtrip(self, tmp_path):
        """End to end through the real CLI: serve on an ephemeral port,
        submit + watch with ``repro client``, drain on SIGTERM."""
        import signal

        env = _cli_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            url = line.split("listening on ")[1].split()[0]

            watch = subprocess.run(
                [sys.executable, "-m", "repro", "client", "--server", url,
                 "submit", "--kernels", "comp", "--ways", "1",
                 "--latencies", "1", "--scale", "4", "--watch"],
                env=env, capture_output=True, text=True, timeout=180)
            assert watch.returncode == 0, watch.stderr
            events = [json.loads(l) for l in watch.stdout.splitlines()]
            assert len(events) == 4
            assert ": done (4/4 point(s))" in watch.stderr

            fetch = subprocess.run(
                [sys.executable, "-m", "repro", "client", "--server", url,
                 "fetch", job_id_for(normalize_submission(
                     {"kernels": ["comp"], "ways": [1], "latencies": [1],
                      "scale": 4}))],
                env=env, capture_output=True, text=True, timeout=60)
            assert fetch.returncode == 0, fetch.stderr
            payload = json.loads(fetch.stdout)
            assert len(payload["results"]) == 4
        finally:
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "SIGTERM: draining" in err


class TestChaosSmoke:
    @pytest.mark.slow
    def test_service_chaos_smoke_script(self, tmp_path):
        """The CI chaos story: SIGKILL the server mid-run (twice), restart
        on the same state dir, finish from the journal, fetch results
        identical to a clean run's."""
        script = os.path.join(os.path.dirname(__file__), "..", "..",
                              "scripts", "service_chaos_smoke.py")
        proc = subprocess.run(
            [sys.executable, script, "--workdir", str(tmp_path),
             "--scale", "4"],
            env=_cli_env(), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, \
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        assert "service chaos smoke PASSED" in proc.stdout
