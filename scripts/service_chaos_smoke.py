#!/usr/bin/env python3
"""CI chaos smoke of the sweep service: serve, SIGKILL, restart, diff.

Exercises the service's whole recovery story out of process:

1. run a sweep job on a clean server and fetch its results;
2. run the same job on a second state dir with a fault rule that SIGKILLs
   the server right after a result reaches the result log — twice, across
   two restarts (the fault budget lives in slot files, so each
   incarnation dies once after one more durable result);
3. restart a third time, let the job finish, and verify:
   - each restart resumed the unfinished job,
   - the durable points (the job's points in ``<state>/cache``) only ever
     grew, and the final run served every one of them from the log (no
     re-simulation of durable points),
   - no ``<state>/journals`` directory exists,
   - the fetched results are byte-identical to the clean server's.

Exits nonzero (with a diagnostic) on any violation.  Usage::

    python scripts/service_chaos_smoke.py [--scale N] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sweep.cache import ResultCache  # noqa: E402
from repro.sweep.client import ServiceClient  # noqa: E402
from repro.sweep.service import (job_id_for,  # noqa: E402
                                 normalize_submission, submission_points)

KERNELS = ["comp", "addblock"]
WAYS = [1, 2, 4, 8]
LATENCIES = [1, 12, 50]
TOTAL_POINTS = len(KERNELS) * len(WAYS) * len(LATENCIES) * 4  # x ISAs


def _env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def _serve(state_dir: str, stderr_path: str, extra_env=None):
    """Start ``repro serve --port 0``; return (proc, base_url)."""
    stderr = open(stderr_path, "a", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state_dir],
        env=_env(extra_env), stdout=subprocess.PIPE, stderr=stderr,
        text=True)
    stderr.close()  # the child owns the fd now
    line = proc.stdout.readline()
    if "listening on " not in line:
        proc.kill()
        raise SystemExit(f"FAIL: server did not announce itself: {line!r}")
    return proc, line.split("listening on ")[1].split()[0]


def _stop(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: server exited {proc.returncode} on SIGTERM")


def _await_done(client: ServiceClient, job_id: str, timeout: float = 600):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = client.job(job_id)
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.2)
    raise SystemExit(f"FAIL: job {job_id} did not finish in {timeout}s")


def _durable_points(state_dir: str, submission: dict) -> int:
    """How many of the job's points the server's result log holds."""
    cache = ResultCache(os.path.join(state_dir, "cache"))
    return sum(cache.get(point) is not None for point in
               submission_points(normalize_submission(submission)))


def _canonical_results(payload: dict) -> str:
    """The result payload minus the job metadata (which carries wall-clock
    timestamps): the part that must be byte-identical across runs."""
    return json.dumps({"results": payload["results"],
                       "failures": payload["failures"]}, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=16,
                        help="workload scale (larger = longer kill window)")
    parser.add_argument("--workdir", default=None,
                        help="directory for state dirs (default: a tempdir)")
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="service-chaos-")
    os.makedirs(workdir, exist_ok=True)
    submission = {"kernels": KERNELS, "ways": WAYS, "latencies": LATENCIES,
                  "scale": args.scale}
    job_id = job_id_for(normalize_submission(submission))

    # -- 1. the clean reference run ---------------------------------------
    clean_state = os.path.join(workdir, "state-clean")
    proc, url = _serve(clean_state, os.path.join(workdir, "clean.err"))
    client = ServiceClient(url, retries=8)
    job, created = client.submit(submission)
    if not created or job["id"] != job_id:
        raise SystemExit(f"FAIL: unexpected clean submission reply: {job}")
    _await_done(client, job_id)
    clean = _canonical_results(client.fetch(job_id))
    _stop(proc)
    print(f"clean run: {TOTAL_POINTS} point(s) done, server drained")

    # -- 2. the chaos run: SIGKILL after a logged result, twice -----------
    chaos_state = os.path.join(workdir, "state-chaos")
    chaos_err = os.path.join(workdir, "chaos.err")
    fault_env = {"REPRO_FAULT_INJECT": json.dumps({
        "state_dir": os.path.join(workdir, "fault-state"),
        "faults": [{"kind": "crash", "stage": "service.result",
                    "times": 2}]})}

    proc, url = _serve(chaos_state, chaos_err, fault_env)
    client = ServiceClient(url, retries=8)
    job, created = client.submit(submission)
    if not created or job["id"] != job_id:
        raise SystemExit(f"FAIL: unexpected chaos submission reply: {job}")
    proc.wait(timeout=600)  # the injected crash SIGKILLs the server
    if proc.returncode != -signal.SIGKILL:
        raise SystemExit(f"FAIL: expected the server to SIGKILL itself, "
                         f"got exit {proc.returncode}")
    after_first = _durable_points(chaos_state, submission)
    if after_first < 1:
        raise SystemExit("FAIL: nothing logged before the first kill")
    print(f"kill 1: server SIGKILLed with {after_first}/{TOTAL_POINTS} "
          f"point(s) in the result log")

    # -- 3. restart on the same state dir: resumes, dies once more --------
    proc, url = _serve(chaos_state, chaos_err, fault_env)
    proc.wait(timeout=600)
    if proc.returncode != -signal.SIGKILL:
        raise SystemExit(f"FAIL: expected the restarted server to SIGKILL "
                         f"itself, got exit {proc.returncode}")
    after_second = _durable_points(chaos_state, submission)
    if after_second <= after_first:
        raise SystemExit(f"FAIL: the restart made no progress "
                         f"({after_first} -> {after_second} logged)")
    print(f"kill 2: restarted server resumed and SIGKILLed with "
          f"{after_second}/{TOTAL_POINTS} point(s) in the result log")

    # -- 4. final restart: the job completes from the log -----------------
    proc, url = _serve(chaos_state, chaos_err, fault_env)
    client = ServiceClient(url, retries=8)
    job = _await_done(client, job_id)
    if job["status"] != "done":
        raise SystemExit(f"FAIL: chaos job finished as {job['status']}: "
                         f"{job.get('error')}")
    telemetry = job["telemetry"]
    if telemetry["cached"] != after_second:
        raise SystemExit(f"FAIL: final run served {telemetry['cached']} "
                         f"point(s) from the log, expected {after_second} "
                         f"(the log at kill time)")
    if telemetry["simulated"] != TOTAL_POINTS - after_second:
        raise SystemExit(f"FAIL: final run simulated "
                         f"{telemetry['simulated']} point(s), expected "
                         f"{TOTAL_POINTS - after_second}")
    if job["interruptions"] != 2:
        raise SystemExit(f"FAIL: expected 2 recorded interruptions, got "
                         f"{job['interruptions']}")
    if os.path.exists(os.path.join(chaos_state, "journals")):
        raise SystemExit("FAIL: the server wrote a journals/ directory")
    print(f"final restart: {telemetry['cached']} from the log + "
          f"{telemetry['simulated']} simulated = {TOTAL_POINTS} point(s)")

    with open(chaos_err, encoding="utf-8") as f:
        err_text = f.read()
    if err_text.count("resumed 1 unfinished job(s)") < 2:
        raise SystemExit(f"FAIL: restarts did not announce the resumed "
                         f"job:\n{err_text}")

    # -- 5. the fetched results are byte-identical to the clean run's -----
    chaos = _canonical_results(client.fetch(job_id))
    _stop(proc)
    if chaos != clean:
        raise SystemExit("FAIL: chaos-run results differ from the clean "
                         "run's")
    print(f"all {TOTAL_POINTS} result(s) byte-identical to the clean run; "
          f"service chaos smoke PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
