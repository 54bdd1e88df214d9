"""The four workloads and how one pass of each runs.

A *pass* is one unit of user work, measured end to end:

``paper-cold``
    ``repro figure4``, ``repro figure5``, ``repro tables`` in sequence at
    ``--jobs 1`` on one fresh ``--cache-dir``, each with a fresh
    ``--resume`` journal.
``paper-warm``
    The same three commands against a cache an untimed pre-pass filled,
    with no journal.
``dense-grid``
    ``repro sweep`` over every kernel x ISA x ways {1,2,4,8} x 16 memory
    latencies at ``--jobs 2``, no cache: 64 configurations per trace group,
    so ``auto`` picks the vector backend.
``service-jobs``
    One ``repro serve`` on a fresh state directory; one closed-loop client
    submits N distinct jobs one after another, watches each to its end and
    fetches its result.

Every pass runs either as real child processes (the end-to-end metrics)
or in this process through ``repro.cli.main`` / an in-process service
(the traced run), through the same functions here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shutil
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import checks
from spans import ISAS
from harness import Proc, Sandbox, dir_bytes, launch, reap, repro_argv, run_process

WORKLOADS = ("paper-cold", "paper-warm", "dense-grid", "service-jobs")
NUM_KERNELS = 9
#: Two pool workers: one per CPU of the 2-CPU hosts this was sized on.
GRID_JOBS = 2
GRID_LATENCIES = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 30, 35, 40, 45, 50)


@dataclass(frozen=True)
class Sizes:
    """How big each workload is.  ``None`` keeps the CLI's own default."""

    kernels: Optional[Tuple[str, ...]] = None
    fig4_ways: Optional[Tuple[int, ...]] = None
    fig5_latencies: Optional[Tuple[int, ...]] = None
    grid_ways: Tuple[int, ...] = (1, 2, 4, 8)
    grid_latencies: Tuple[int, ...] = GRID_LATENCIES
    service_jobs: int = 4
    setup_samples: int = 5

    @property
    def num_kernels(self) -> int:
        return len(self.kernels) if self.kernels else NUM_KERNELS

    def paper_points(self) -> Dict[str, int]:
        per_kernel = self.num_kernels * len(ISAS)
        return {"figure4": per_kernel * len(self.fig4_ways or (1, 2, 4, 8)),
                "figure5": per_kernel * len(self.fig5_latencies or (1, 12, 50)),
                "tables": per_kernel}


FULL = Sizes()
#: Same code path, a few points per command: what the self-tests run.
SMOKE = Sizes(kernels=("comp",), fig4_ways=(1, 4), fig5_latencies=(1, 12),
              grid_ways=(1, 4), grid_latencies=(1, 2), service_jobs=2,
              setup_samples=1)


@dataclass
class PassResult:
    """One pass: its end-to-end numbers, outputs and any problems."""

    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: List[float] = field(default_factory=list)
    instructions: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)
    fetched: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Running one CLI command: a child process or repro.cli.main in-process.

class SubprocessRunner:
    def __init__(self, sandbox: Sandbox) -> None:
        self.sandbox = sandbox

    def __call__(self, argv: Sequence[str], name: str) -> Proc:
        return run_process(repro_argv(*argv), self.sandbox, name)


class InProcessRunner:
    """``repro.cli.main(argv)`` with stdout captured; with a tracer each
    call is a ``cli.main`` span."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def __call__(self, argv: Sequence[str], name: str) -> Proc:
        """Like a child process, without CPU time or peak RSS."""
        from repro.cli import main

        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span("cli.main", command=name)
                if self.tracer is not None else contextlib.nullcontext())
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span:
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code if isinstance(exc.code, int) else 2
        return Proc(code, time.perf_counter() - started, 0.0, 0.0,
                    out.getvalue(), err.getvalue())


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]
    except OSError:
        return []


def _root_span(tracer):
    return (tracer.span("bench.pass") if tracer is not None
            else contextlib.nullcontext())


def _account_commands(result: PassResult, runs: Dict[str, Proc],
                      streams: Dict[str, str], expected: Dict[str, int],
                      paths: Sequence[str], fresh_only: bool = True) -> None:
    """Fold finished commands into ``result``: counts, outputs, records.

    ``result.instructions`` counts the freshly simulated points, or with
    ``fresh_only`` false every delivered one: a warm pass simulates none.
    """
    for name, run in runs.items():
        records = _read_jsonl(streams[name])
        delivered = [r for r in records if "failure" not in r]
        if fresh_only:
            delivered = [r for r in delivered
                         if not (r["cached"] or r["journaled"])]
        bad = [r for r in records if "failure" in r]
        missing = max(0, expected[name] - len(records))
        result.attempted += expected[name] + 1
        result.failed += len(bad) + missing + (run.exit_code != 0)
        if run.exit_code != 0:
            result.problems.append(f"{name} exited {run.exit_code}")
        if bad or missing:
            result.problems.append(f"{name}: {len(bad)} failed and "
                                   f"{missing} missing point(s)")
        result.instructions += sum(r["instructions"] for r in delivered)
        result.records.extend(records)
        result.outputs[name] = checks.normalize(run.stdout, paths)
        result.cpu_s += run.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, run.maxrss_mb)
        result.latencies.append(run.wall_s)


# ----------------------------------------------------------------------
# paper-cold / paper-warm

def paper_argvs(sizes: Sizes, cache_dir: str, stream_dir: str,
                journal_dir: Optional[str]) -> Dict[str, List[str]]:
    kernels = ["--kernels", *sizes.kernels] if sizes.kernels else []
    argvs = {
        "figure4": ["figure4", *kernels] + (
            ["--ways", *map(str, sizes.fig4_ways)] if sizes.fig4_ways else []),
        "figure5": ["figure5", *kernels] + (
            ["--latencies", *map(str, sizes.fig5_latencies)]
            if sizes.fig5_latencies else []),
        "tables": ["tables", *kernels],
    }
    for name, argv in argvs.items():
        argv += ["--jobs", "1", "--cache-dir", cache_dir,
                 "--stream-jsonl", os.path.join(stream_dir, f"{name}.jsonl")]
        if journal_dir is not None:
            argv += ["--resume", os.path.join(journal_dir, f"{name}.jsonl")]
    return argvs


def paper_pass(sizes: Sizes, sandbox: Sandbox, runner,
               cache: Optional[str] = None, warm: bool = False,
               tracer=None) -> PassResult:
    """One paper regeneration on ``cache`` (default: a fresh one, removed
    afterwards).  Cold passes get fresh journals; warm passes none."""
    tmp = sandbox.mkdtemp("paper-")
    cache = cache or os.path.join(tmp, "cache")
    streams = os.path.join(tmp, "streams")
    journals = None if warm else os.path.join(tmp, "journals")
    os.makedirs(streams)
    argvs = paper_argvs(sizes, cache, streams, journals)
    runs: Dict[str, Proc] = {}
    started = time.perf_counter()
    with _root_span(tracer):
        for name, argv in argvs.items():
            runs[name] = runner(argv, name)
    result = PassResult(wall_s=time.perf_counter() - started)
    _account_commands(result, runs,
                      {n: os.path.join(streams, f"{n}.jsonl") for n in argvs},
                      sizes.paper_points(), [cache], fresh_only=not warm)
    result.extra = {
        "cache_bytes": dir_bytes(cache, exclude="traces"),
        "tracecache_bytes": dir_bytes(os.path.join(cache, "traces")),
        "journal_bytes": dir_bytes(journals) if journals else 0,
    }
    shutil.rmtree(tmp, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# dense-grid

def grid_argv(sizes: Sizes, seed: int, jobs: int, stream: str) -> List[str]:
    kernels = ["--kernels", *sizes.kernels] if sizes.kernels else []
    return ["sweep", *kernels,
            "--ways", *map(str, sizes.grid_ways),
            "--latencies", *map(str, sizes.grid_latencies),
            "--seed", str(seed), "--jobs", str(jobs),
            "--stream-jsonl", stream]


def grid_pass(sizes: Sizes, sandbox: Sandbox, runner, seed: int,
              jobs: Optional[int] = None, tracer=None) -> PassResult:
    tmp = sandbox.mkdtemp("grid-")
    stream = os.path.join(tmp, "sweep.jsonl")
    argv = grid_argv(sizes, seed, jobs or GRID_JOBS, stream)
    started = time.perf_counter()
    with _root_span(tracer):
        run = runner(argv, "sweep")
    result = PassResult(wall_s=time.perf_counter() - started)
    expected = (sizes.num_kernels * len(ISAS) * len(sizes.grid_ways)
                * len(sizes.grid_latencies))
    _account_commands(result, {"sweep": run}, {"sweep": stream},
                      {"sweep": expected}, [])
    shutil.rmtree(tmp, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# service-jobs

def job_submission(sizes: Sizes, seed: int, job: int) -> Dict[str, Any]:
    """Job ``job`` of a pass: its own seed, so it misses every cache."""
    submission: Dict[str, Any] = {
        "ways": [1, 4], "latencies": [1], "scale": 1,
        "seed": seed * 1000 + job}
    if sizes.kernels:
        submission["kernels"] = list(sizes.kernels)
    return submission


def reference_rows(submission: Dict[str, Any]) -> List[Dict[str, Any]]:
    """An in-process engine run of a job's points, as fetched rows."""
    from repro.sweep import SweepEngine
    from repro.sweep.cache import sim_to_dict, stats_to_dict
    from repro.sweep.service import normalize_submission, submission_points

    points = submission_points(normalize_submission(submission))
    results = SweepEngine().run(points)
    rows = [{"index": r.index, "sim": sim_to_dict(r.sim),
             "stats": stats_to_dict(r.stats)} for r in results]
    return json.loads(json.dumps(rows))  # the wire form: str keys, lists


_LISTENING = re.compile(r"listening on (http://\S+)")


class _ChildServer:
    """``repro serve`` as a child process."""

    def __init__(self, sandbox: Sandbox, state: str, cache: str,
                 name: str = "serve") -> None:
        self.sandbox, self.name = sandbox, name
        self.started = time.perf_counter()
        self.proc = launch(repro_argv("serve", "--port", "0", "--jobs", "1",
                                      "--state-dir", state,
                                      "--cache-dir", cache), sandbox, name)
        self.url = self._wait_ready()
        self.ready_s = time.perf_counter() - self.started

    def _wait_ready(self) -> str:
        out = self.sandbox.tmp / f"{self.name}.out"
        deadline = self.started + 60.0
        url = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}"
                                   f" before it was ready")
            if url is None:
                match = _LISTENING.search(out.read_text(errors="replace"))
                url = match.group(1) if match else None
            if url is not None and _http_ok(url + "/readyz"):
                return url
            time.sleep(0.002)
        self.proc.kill()
        raise RuntimeError("repro serve was not ready within 60 s")

    def stop(self) -> Proc:
        """SIGTERM (the graceful drain), then reap with resource usage."""
        self.proc.send_signal(signal.SIGTERM)
        return reap(self.proc, self.started, self.sandbox, self.name)

    def kill(self) -> None:
        self.proc.kill()
        reap(self.proc, self.started, self.sandbox, self.name)


def _http_ok(url: str) -> bool:
    try:
        with urllib.request.urlopen(url, timeout=1.0) as response:
            return response.status == 200
    except (urllib.error.URLError, ConnectionError, OSError):
        return False


class _InProcessServer:
    """The same service hosted on threads of this process, so the engine,
    kernel and timing spans inside it are visible to the tracer."""

    def __init__(self, state: str, cache: str) -> None:
        from repro.sweep.service import ServiceHTTPServer, SweepService

        self.started = time.perf_counter()
        self.service = SweepService(state, cache_dir=cache, jobs=1)
        self.service.recover()
        self.service.start()
        self.server = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        # A short poll interval: stopping the server is harness time.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.02},
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.ready_s = time.perf_counter() - self.started

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.drain()
        self.thread.join(timeout=10)


def measure_service_ready(sandbox: Sandbox) -> float:
    """Launch ``repro serve`` on a fresh state dir, time it to its first
    ``/readyz`` 200, and kill it.

    Only readiness is measured here; every pass drains its server with
    SIGTERM and checks the exit code.  Killing this one keeps a stall
    out of the run: once in about 400 set-up samples, a SIGTERM sent
    right after the first ``/readyz`` left ``repro serve`` running for
    over two minutes.
    """
    tmp = sandbox.mkdtemp("ready-")
    server = _ChildServer(sandbox, os.path.join(tmp, "state"),
                          os.path.join(tmp, "cache"), name="ready")
    server.kill()
    shutil.rmtree(tmp, ignore_errors=True)
    return server.ready_s


def service_pass(sizes: Sizes, sandbox: Sandbox, seed: int,
                 in_process: bool = False, tracer=None) -> PassResult:
    from repro.sweep.client import ServiceClient

    tmp = sandbox.mkdtemp("service-")
    state, cache = os.path.join(tmp, "state"), os.path.join(tmp, "cache")
    started = time.perf_counter()
    client_cpu = resource.getrusage(resource.RUSAGE_THREAD)
    result = PassResult(wall_s=0.0)
    with _root_span(tracer):
        server = (_InProcessServer(state, cache) if in_process
                  else _ChildServer(sandbox, state, cache))
        # One attempt per request: a retry would hide an HTTP error from
        # the failure count and put its backoff into the job latency.
        client = ServiceClient(server.url, timeout=30.0, retries=1)
        try:
            for job in range(sizes.service_jobs):
                _one_job(client, job_submission(sizes, seed, job), job,
                         result)
        finally:
            proc = server.stop()
    result.wall_s = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    result.cpu_s = ((usage.ru_utime - client_cpu.ru_utime)
                    + (usage.ru_stime - client_cpu.ru_stime))
    if proc is not None:
        result.cpu_s += proc.cpu_s
        result.peak_rss_mb = proc.maxrss_mb
        result.attempted += 1
        if proc.exit_code != 0:
            result.failed += 1
            result.problems.append(f"repro serve exited {proc.exit_code}")
    result.extra = {"ready_s": server.ready_s,
                    "state_bytes": dir_bytes(state),
                    "cache_bytes": dir_bytes(cache, exclude="traces"),
                    "tracecache_bytes": dir_bytes(os.path.join(cache,
                                                               "traces")),
                    "journal_bytes": dir_bytes(os.path.join(state,
                                                            "journals"))}
    shutil.rmtree(tmp, ignore_errors=True)
    return result


def _one_job(client, submission: Dict[str, Any], job: int,
             result: PassResult) -> None:
    """Submit, watch to the end, fetch: one closed-loop job."""
    from repro.sweep.client import ServiceError

    started = time.perf_counter()
    result.attempted += 3
    try:
        record, _created = client.submit(submission)
        final = None
        for event in client.watch(record["id"]):
            if "key" not in event and "job" in event:
                final = event["job"]
        fetched = client.fetch(record["id"])
    except ServiceError as exc:
        result.failed += 1
        result.problems.append(f"job {job}: {exc}")
        return
    result.latencies.append(time.perf_counter() - started)
    rows = fetched["results"]
    failures = len(fetched["failures"])
    missing = max(0, record["total"] - len(rows) - failures)
    result.attempted += record["total"]
    result.failed += failures + missing
    if final is None or final["status"] != "done" or failures or missing:
        result.problems.append(f"job {job}: status "
                               f"{final and final['status']}, {failures} "
                               f"failed and {missing} missing point(s)")
    # Every job has a seed of its own on a fresh cache, so every row must
    # have been simulated by this pass.
    simulated = (final or {}).get("telemetry", {}).get("simulated")
    if simulated != len(rows):
        result.problems.append(f"job {job}: {simulated} of {len(rows)} "
                               f"point(s) simulated, the rest cached")
    result.instructions += sum(r["sim"]["instructions"] for r in rows)
    result.outputs[f"job{job}"] = json.dumps(rows, sort_keys=True)
    if job == 0:
        result.fetched = rows
