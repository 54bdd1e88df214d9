"""Tests of the crash-tolerant sweep service and its client.

Three layers, cheapest first:

* pure functions — submission normalization, content-hash job ids, point
  expansion parity with ``repro sweep``;
* the in-process :class:`SweepService` — queueing, idempotent attach,
  backpressure, deadlines, drain + log-backed recovery;
* the HTTP surface — a real ``ServiceHTTPServer`` on an ephemeral port
  driven by the real :class:`ServiceClient` (retries, long-poll watch,
  error mapping), plus the full out-of-process SIGKILL/restart chaos
  smoke (``scripts/service_chaos_smoke.py``) as a slow test.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import kernel_names
from repro.sweep.cache import ResultCache
from repro.sweep.client import ServiceClient, ServiceError
from repro.sweep.service import (JOB_TERMINAL_STATES, MAX_BODY_BYTES,
                                 MAX_JOB_POINTS, QueueFull,
                                 ServiceHTTPServer, SweepService, UnknownJob,
                                 job_id_for, normalize_submission,
                                 submission_points)
from repro.sweep.spec import MAX_SCALE
from repro.timing.config import MAX_MEM_LATENCY, MAX_WAY

#: The message a machine field out of range gets, from the machine
#: (:class:`~repro.timing.config.MachineConfig`), as on the CLI.
_MACHINE_FIELD = {"ways": "way (issue width)", "latencies": "mem_latency"}

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


def _logged(state: str, submission: dict) -> int:
    """How many of the submission's points the service's result log
    (under ``<state>/cache``, no ``--cache-dir``) holds."""
    cache = ResultCache(os.path.join(state, "cache"))
    return sum(cache.get(point) is not None for point in
               submission_points(normalize_submission(submission)))


def _get_bytes(service: SweepService, path: str) -> bytes:
    """The raw body ``service`` answers to ``GET path`` over real HTTP."""
    import urllib.request

    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


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
        assert set(sub) == {"kernels", "isas", "ways", "latencies", "scale",
                            "seed", "deadline_seconds"}

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
        """A range is checked where the points are built, with the
        machine's message: normalizing checks only the JSON types."""
        submission = normalize_submission({field: values})
        with pytest.raises(ValueError, match=re.escape(
                f"{_MACHINE_FIELD[field]} must be >= 1, got {min(values)}")):
            submission_points(submission)

    @pytest.mark.parametrize("field, limit", [("ways", MAX_WAY),
                                              ("latencies", MAX_MEM_LATENCY)])
    def test_oversized_machine_rejected(self, field, limit):
        assert len(submission_points(normalize_submission(
            {"kernels": ["comp"], field: [1, limit]}))) == 8
        submission = normalize_submission({field: [1, 10 ** 9]})
        with pytest.raises(ValueError, match=re.escape(
                f"{_MACHINE_FIELD[field]} must be <= {limit}, "
                f"got {10 ** 9}")):
            submission_points(submission)


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
        import repro.versions

        sub = normalize_submission(dict(SMALL))
        before = job_id_for(sub)
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "test-bump")
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

    def test_clean_job_writes_its_record_at_creation_and_end(
            self, tmp_path, monkeypatch):
        """Two job-record writes per clean job: ``queued`` at creation and
        ``done`` at the end; ``running`` stays in memory."""
        import repro.sweep.service as service_module

        writes = []
        write = service_module.atomic_write_text

        def counting(path, text):
            writes.append((path, json.loads(text)["status"]))
            write(path, text)

        monkeypatch.setattr(service_module, "atomic_write_text", counting)
        service = SweepService(str(tmp_path / "state"))
        job, _created = service.submit(dict(SMALL))
        service.start()
        final = _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        path = service.job_path(job["id"])
        assert writes == [(path, "queued"), (path, "done")]

    def test_sigkill_mid_job_reruns_with_one_interruption(self, tmp_path):
        """A server SIGKILLed mid-job leaves the record at ``queued``; a
        restart re-runs the job, counts one interruption and serves the
        logged points as hits."""
        import signal

        state = str(tmp_path / "state")
        env = dict(_cli_env(), REPRO_FAULT_INJECT=json.dumps({
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"kind": "crash", "stage": "service.result",
                        "times": 1}]}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", state],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on " in line, line
            client = ServiceClient(line.split("listening on ")[1].split()[0],
                                   retries=3, sleep=lambda _s: None)
            job, _created = client.submit(dict(SMALL))
            assert proc.wait(timeout=120) == -signal.SIGKILL
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        with open(os.path.join(state, "jobs", job["id"] + ".json"),
                  encoding="utf-8") as f:
            assert json.load(f)["status"] == "queued"
        logged = _logged(state, SMALL)
        assert logged >= 1

        revived = SweepService(state)
        assert revived.recover() == [job["id"]]
        assert revived.job(job["id"])["interruptions"] == 1
        revived.start()
        final = _wait_terminal(revived, job["id"])
        revived.drain(timeout=10)
        assert final["status"] == "done"
        assert final["interruptions"] == 1
        assert final["telemetry"]["cached"] == logged
        assert final["telemetry"]["simulated"] == 4 - logged

    def test_wrong_builds_yield_only_failures(self, tmp_path, monkeypatch):
        """Every job verifies its builds: a build that fails its golden
        check gives a failure record, never numbers."""
        from repro.kernels.base import KernelBuildResult

        monkeypatch.setattr(KernelBuildResult, "correct",
                            property(lambda self: False))
        service = SweepService(str(tmp_path / "state"),
                               cache_dir=str(tmp_path / "cache"))
        job, _created = service.submit(dict(SMALL))
        service.start()
        final = _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        assert final["failed_points"] == final["total"] == 4
        assert final["telemetry"]["simulated"] == 0
        result = service.result(job["id"])
        assert result["results"] == []
        assert [f["failure"]["error_type"] for f in result["failures"]] == \
            ["AssertionError"] * 4
        assert not os.path.exists(str(tmp_path / "cache"))

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

    def test_events_are_result_records(self, tmp_path):
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
        """A deadline-failed job's completed points stay in the result log;
        resubmitting requeues it and they are served as hits.  The overrun is
        forced with an injected ``slow`` fault at the service stage, so
        the reap happens under the fault harness, deterministically."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", json.dumps({
            "faults": [{"kind": "slow", "stage": "service.result",
                        "seconds": 0.2, "times": -1}]}))
        state = str(tmp_path / "state")
        service = SweepService(state)
        job, _created = service.submit(dict(SMALL, deadline_seconds=0.05))
        service.start()
        final = _wait_terminal(service, job["id"])
        assert final["status"] == "failed"
        assert final["error"]["type"] == "deadline"
        assert final["error"]["completed_points"] >= 1
        logged = _logged(state, SMALL)
        assert logged == final["error"]["completed_points"]

        # Same submission, longer deadline: same id, requeued, finishes.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        again, created = service.submit(dict(SMALL, deadline_seconds=3600))
        assert not created and again["id"] == job["id"]
        assert again["status"] == "queued"
        final = _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert final["status"] == "done"
        assert final["telemetry"]["cached"] == logged
        assert final["telemetry"]["simulated"] == 4 - logged

    def test_drain_interrupts_and_recover_resumes(self, tmp_path,
                                                  monkeypatch):
        """Drain parks the running job at a record boundary; a new service
        on the same state dir re-enqueues it and finishes, serving the
        logged points as hits."""
        # Slow every logged record so the drain lands mid-job
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
        logged = _logged(state, sub)
        assert logged >= 1

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        revived = SweepService(state)
        assert revived.recover() == [job["id"]]
        assert revived.job(job["id"])["interruptions"] == 1
        revived.start()
        final = _wait_terminal(revived, job["id"])
        revived.drain(timeout=10)
        assert final["status"] == "done"
        assert final["telemetry"]["cached"] == logged
        assert final["telemetry"]["simulated"] == final["total"] - logged
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

    def test_restart_serves_done_result_with_zero_simulations(
            self, tmp_path, count_calls):
        """A restarted server rebuilds a done job's events from the log:
        ``GET /jobs/<id>/result`` answers the same bytes and nothing is
        simulated again."""
        import repro.sweep.engine

        state = str(tmp_path / "state")
        service = SweepService(state)
        job, _created = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, job["id"])
        before = _get_bytes(service, f"/jobs/{job['id']}/result")
        service.drain(timeout=10)

        groups = count_calls(repro.sweep.engine, "_simulate_group")
        revived = SweepService(state)
        assert revived.recover() == []
        revived.start()
        try:
            after = _get_bytes(revived, f"/jobs/{job['id']}/result")
        finally:
            revived.drain(timeout=10)
        assert after == before
        assert [r["index"] for r in json.loads(after)["results"]] == \
            [0, 1, 2, 3]
        assert groups == []

    def test_cache_clear_between_restarts_requeues_done_job(self, tmp_path):
        """``repro cache clear`` empties the log a done job's results live
        in: the restart re-queues the job, and it recomputes identical
        rows."""
        from repro.cli import main

        state = str(tmp_path / "state")
        service = SweepService(state)
        job, _created = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        before = service.result(job["id"])["results"]

        assert main(["cache", "clear", "--cache-dir",
                     os.path.join(state, "cache")]) == 0
        revived = SweepService(state)
        assert revived.recover() == [job["id"]]
        assert revived.job(job["id"])["status"] == "queued"
        revived.start()
        final = _wait_terminal(revived, job["id"])
        revived.drain(timeout=10)
        assert final["status"] == "done"
        assert final["interruptions"] == 0
        assert final["telemetry"]["simulated"] == 4
        assert revived.result(job["id"])["results"] == before

    def test_default_cache_lives_under_state_dir(self, tmp_path):
        """Without ``cache_dir`` the result log is
        ``<state-dir>/cache/log/``, and no ``journals/`` appears."""
        state = tmp_path / "state"
        service = SweepService(str(state))
        job, _created = service.submit(dict(SMALL))
        service.start()
        _wait_terminal(service, job["id"])
        service.drain(timeout=10)
        assert len(os.listdir(state / "cache" / "log")) == 1
        assert sorted(os.listdir(state)) == ["cache", "jobs"]
        assert _logged(str(state), SMALL) == 4

    @pytest.mark.parametrize("setting, field", [
        ({"jobs": 0}, "jobs"),
        ({"task_timeout": -1}, "task_timeout"),
    ])
    def test_bad_engine_setting_fails_before_writing(self, tmp_path,
                                                     setting, field):
        """A setting no job's engine could take fails at construction,
        not in the runner thread, and leaves no state behind."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SweepService(str(tmp_path), **setting)
        assert not (tmp_path / "jobs").exists()

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

    def test_one_result_store_per_server(self, tmp_path, count_calls):
        """Every job runs on the server's one result store: three jobs
        append to one segment, the log is scanned once, and the served
        rows equal a fresh engine run."""
        import repro.sweep.cache
        from repro.sweep.cache import sim_to_dict, stats_to_dict
        from repro.sweep.engine import SweepEngine

        scans = count_calls(repro.sweep.cache, "scan_log")
        cache = tmp_path / "cache"
        service = SweepService(str(tmp_path / "state"), cache_dir=str(cache))
        submissions = [dict(SMALL, ways=[1]), dict(SMALL, ways=[2]),
                       dict(SMALL, ways=[1, 2])]
        jobs = [service.submit(sub)[0] for sub in submissions]
        service.start()
        finals = [_wait_terminal(service, job["id"]) for job in jobs]
        service.drain(timeout=10)
        assert [f["status"] for f in finals] == ["done"] * 3
        assert finals[2]["telemetry"]["cached"] == finals[2]["total"]
        assert len(os.listdir(cache / "log")) == 1
        assert len(scans) == 1
        for job in jobs:
            fresh = SweepEngine().run(
                submission_points(normalize_submission(job["submission"])))
            rows = service.result(job["id"])["results"]
            assert [(r["sim"], r["stats"]) for r in rows] == [
                (sim_to_dict(r.sim), stats_to_dict(r.stats)) for r in fresh]


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
        assert "mem_latency must be >= 1, got -5" in str(excinfo.value)
        assert service.list_jobs() == []

    @pytest.mark.parametrize("field", ["ways", "latencies"])
    def test_oversized_machine_is_400_before_any_job(self, http_stack,
                                                     field):
        service, _server, client = http_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SMALL, **{field: [10 ** 6]}))
        assert excinfo.value.status == 400
        assert f"{_MACHINE_FIELD[field]} must be <=" in str(excinfo.value)
        assert service.list_jobs() == []

    @pytest.mark.parametrize("field, value", [
        ("scale", 0),
        ("scale", -3),
        ("scale", 10 ** 9),
        ("scale", MAX_SCALE + 1),
        ("scale", True),
        ("deadline_seconds", -1),
        ("deadline_seconds", 0),
        ("deadline_seconds", float("nan")),
        ("deadline_seconds", float("inf")),
        ("ways", [True]),
        ("ways", [4.7]),
        ("ways", ["4"]),
        ("ways", 4),
        ("latencies", [True, 2]),
        ("latencies", [12.5]),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        pytest.param("deadline_seconds", 10 ** 400,
                     id="deadline_seconds-int_over_float_max"),
        ("deadline_seconds", True),
        ("deadline_seconds", "5"),
        ("deadline_seconds", [1]),
        ("kernels", 5),
        ("kernels", "comp"),
        ("kernels", [5]),
        ("isas", "mom"),
        ("isas", [None]),
    ])
    def test_out_of_bounds_field_is_400_naming_it(self, http_stack, field,
                                                  value):
        service, _server, client = http_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SMALL, **{field: value}))
        assert excinfo.value.status == 400
        assert f"{field} must be" in str(excinfo.value)
        assert service.list_jobs() == []

    @pytest.mark.parametrize("value", [False, True])
    def test_check_field_is_400_naming_it(self, http_stack, value):
        """Verification cannot be switched off: ``check`` is not a
        submission field."""
        service, _server, client = http_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SMALL, check=value))
        assert excinfo.value.status == 400
        assert "unknown submission field(s): ['check']" in str(excinfo.value)
        assert service.list_jobs() == []

    def test_largest_shipped_scale_and_grid_fit_the_bounds(self):
        assert MAX_SCALE > 16
        dense_grid = len(kernel_names()) * len(ISA_VARIANTS) * 4 * 16
        assert dense_grid == 2304 < MAX_JOB_POINTS
        assert normalize_submission({"ways": [1, 2, 4, 8],
                                     "latencies": list(range(1, 17)),
                                     "scale": MAX_SCALE})["scale"] == MAX_SCALE

    def test_oversized_job_is_422_before_any_job(self, http_stack):
        service, _server, client = http_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"ways": [4] * 100000})
        assert excinfo.value.status == 422
        assert str(MAX_JOB_POINTS) in str(excinfo.value)
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

    def test_deeply_nested_body_is_400_naming_the_nesting(self, http_stack,
                                                          capsys):
        """A body under the size limit that nests past the parser's
        recursion limit is answered, not dropped with a traceback."""
        service, server, _client = http_stack
        depth = 200_000
        body = b"[" * depth + b"]" * depth
        assert len(body) <= MAX_BODY_BYTES
        status, payload = self._post_with_length(server, str(len(body)), body)
        assert status == 400
        assert "nests too deeply" in payload["error"]
        assert service.list_jobs() == []
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unexpected_error_is_json_500(self, http_stack, monkeypatch,
                                          capsys, method):
        """An exception no route expects is answered with a JSON 500 that
        names it, and the connection is closed."""
        import http.client

        service, server, _client = http_stack

        def broken(*_args, **_kwargs):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(service, "list_jobs", broken)
        monkeypatch.setattr(service, "submit", broken)
        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_address[1],
                                          timeout=10)
        try:
            body = json.dumps(SMALL).encode() if method == "POST" else None
            conn.request(method, "/jobs", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 500
        assert response.getheader("Connection") == "close"
        assert payload["error"] == \
            "internal error: RuntimeError: broken on purpose"
        assert "Traceback" not in capsys.readouterr().err

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

    @staticmethod
    def _get(server, path: str):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_address[1],
                                          timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("query, field", [
        ("since=abc", "since must be an integer >= 0"),
        ("since=-3", "since must be an integer >= 0"),
        ("timeout=xyz", "timeout must be a finite number"),
        ("timeout=nan", "timeout must be a finite number"),
    ])
    def test_malformed_long_poll_is_400_naming_it(self, http_stack, query,
                                                  field):
        _service, server, client = http_stack
        job, _created = client.submit(dict(SMALL))
        status, payload = self._get(server,
                                    f"/jobs/{job['id']}/events?{query}")
        assert status == 400
        assert field in payload["error"]

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


class TestWatch:
    def test_boot_change_restarts_and_yields_each_point_once(self):
        """A restarted server (new boot id) may list events in another
        order: the watch starts over from 0 and skips what it yielded."""
        running = {"status": "running"}
        batches = iter([
            {"boot": "a", "events": [{"index": 2}, {"index": 0}],
             "next": 2, "job": running},
            # The restart: a stale ``since`` on the new boot is discarded.
            {"boot": "b", "events": [{"index": 3}], "next": 3,
             "job": running},
            {"boot": "b", "events": [{"index": 0}, {"index": 2},
                                     {"index": 1}],
             "next": 3, "job": running},
            {"boot": "b", "events": [{"index": 3}], "next": 4,
             "job": {"status": "done"}},
        ])
        calls = []
        client = ServiceClient("http://127.0.0.1:1")

        def events(job_id, since=0, timeout=0.0):
            calls.append(since)
            return next(batches)

        client.events = events
        items = list(client.watch("job"))
        assert [e["index"] for e in items[:-1]] == [2, 0, 1, 3]
        assert items[-1] == {"job": {"status": "done"}}
        assert calls == [0, 2, 0, 3]


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
        delays = [client._delay(a, 0) for a in (1, 2, 3)]
        assert delays == [backoff_delay(a) for a in (1, 2, 3)]

    def test_backoff_is_not_a_client_option(self):
        with pytest.raises(TypeError):
            ServiceClient("http://127.0.0.1:1", backoff=None)


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
        on the same state dir, finish from the result log, fetch results
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
