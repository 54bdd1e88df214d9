"""One equivalence matrix for every path a result takes to its caller.

A cached, journaled, resumed or served result must equal what a fresh
build and simulation gives today.  Each case of :func:`test_result_path`
produces the ``repro figure4 --kernels comp`` slice (16 points at the
default scale and seed 1999) through one path and asserts four things:

* every point's cycles, instructions and stall breakdown equal
  ``tests/golden/paper_grid.json``;
* every point's ``SimResult`` and ``TraceStats`` equal the no-cache run's;
* the path's own counts: what it simulated, built and served;
* on CLI paths, the figure on stdout without the ``[sweep]`` footer
  equals the no-cache run's byte for byte.

:func:`test_stale_stores_never_hit` fills every store, bumps one version
stamp and checks that nothing stored under the old stamp is served.

To add a path, write a ``(tmp_path, shared) -> Run`` function that asserts
its own counts and list it in :data:`PATHS`; to drop one (``resume`` goes
with the journal), delete its entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional

import pytest

from repro import versions
from repro.cli import main
from repro.experiments.figure4 import figure4_sweep
from repro.sweep import SweepJournal
from repro.sweep.cache import ResultCache, sim_from_dict, stats_from_dict
from repro.sweep.client import ServiceClient
from repro.sweep.engine import PointResult, SweepEngine
from repro.sweep.service import (ServiceHTTPServer, SweepService,
                                 normalize_submission, submission_points)

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
with open(os.path.join(os.path.dirname(__file__), "..", "golden",
                       "paper_grid.json"), encoding="utf-8") as f:
    GRID = json.load(f)["results"]

FIGURE = ["figure4", "--kernels", "comp"]
#: The same slice as a service submission.
SUBMISSION = {"kernels": ["comp"], "ways": [1, 2, 4, 8], "latencies": [1]}
POINTS = list(figure4_sweep(kernels=["comp"]).points())
#: ``(trace, machine) -> pinned counts`` of the slice's points.
GOLDEN = {(trace, machine): GRID[trace][machine] for trace, machine in (
    (f"{p.kernel}/{p.isa}", f"{p.config.name}_lat{p.config.mem_latency}")
    for p in POINTS)}


@dataclass
class Run:
    """What one path produced."""

    results: List[PointResult]
    engine: Optional[SweepEngine] = None  # None for the service
    figure: Optional[str] = None  # CLI stdout without the footer


def _cli(*flags: str) -> Run:
    """``repro figure4 --kernels comp FLAGS`` in this process, with the
    engine it ran, that engine's results and the figure it printed."""
    runs: List[Run] = []
    run = SweepEngine.run

    def capture(engine, sweep, on_result=None):
        results = run(engine, sweep, on_result=on_result)
        runs.append(Run(results, engine))
        return results

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(SweepEngine, "run", capture)
        assert main(FIGURE + list(flags)) == 0
    (captured,) = runs
    captured.figure = out.getvalue().partition("\n[sweep] ")[0]
    return captured


def _expect(run: Run, simulated=0, cached=0, journaled=0, trace_hits=0,
            builds=0) -> None:
    """The engine's counts, and each result's flags agreeing with them."""
    engine = run.engine
    assert {"simulated": engine.last_simulated, "cached": engine.last_cached,
            "journaled": engine.last_journaled,
            "trace_hits": engine.last_trace_hits,
            "builds": engine.last_trace_builds} == {
        "simulated": simulated, "cached": cached, "journaled": journaled,
        "trace_hits": trace_hits, "builds": builds}
    assert [sum(getattr(r, flag) for r in run.results)
            for flag in ("cached", "journaled", "trace_cached")] == [
        cached, journaled, trace_hits]


def _label(sim):
    return f"{sim.kernel}/{sim.isa}", f"{sim.config_name}_lat{sim.mem_latency}"


def _assert_golden(results: List[PointResult]) -> None:
    assert {_label(r.sim): {"cycles": r.sim.cycles,
                            "instructions": r.sim.instructions,
                            "stall_breakdown": dict(r.sim.stall_breakdown)}
            for r in results} == GOLDEN


def _log_records(cache_dir: str) -> int:
    """Complete lines across the result log's segments."""
    log = os.path.join(cache_dir, "log")
    count = 0
    for name in os.listdir(log) if os.path.isdir(log) else ():
        with open(os.path.join(log, name), "rb") as f:
            count += f.read().count(b"\n")
    return count


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """The no-cache reference run, and a cold ``--cache-dir`` run whose
    filled cache the warm, trace-only and stale-hit cases copy."""
    cold_dir = str(tmp_path_factory.mktemp("cold") / "cache")
    return SimpleNamespace(fresh=_cli(), cold=_cli("--cache-dir", cold_dir),
                           cold_dir=cold_dir)


# -- the paths -------------------------------------------------------------

def _no_cache(tmp_path, shared) -> Run:
    _expect(shared.fresh, simulated=16, builds=4)
    return shared.fresh


def _cold(tmp_path, shared) -> Run:
    _expect(shared.cold, simulated=16, builds=4)
    return shared.cold


def _warm(tmp_path, shared) -> Run:
    cache = shutil.copytree(shared.cold_dir, tmp_path / "cache")
    run = _cli("--cache-dir", str(cache))
    _expect(run, cached=16)
    return run


def _trace_only(tmp_path, shared) -> Run:
    cache = shutil.copytree(shared.cold_dir, tmp_path / "cache")
    shutil.rmtree(cache / "log")
    run = _cli("--cache-dir", str(cache))
    _expect(run, simulated=16, trace_hits=16)
    return run


def _jobs2(tmp_path, shared) -> Run:
    run = _cli("--jobs", "2", "--cache-dir", str(tmp_path / "cache"))
    _expect(run, simulated=16, builds=4)
    assert run.engine.last_fallback_reason is None
    assert run.engine.last_pool_tasks == 4  # one per trace group
    return run


def _resume(tmp_path, shared) -> Run:
    journal = str(tmp_path / "sweep.jsonl")
    _expect(_cli("--resume", journal), simulated=16, builds=4)
    run = _cli("--resume", journal)
    _expect(run, journaled=16)
    return run


def _killed(tmp_path, shared) -> Run:
    """SIGKILL a cached figure, then re-run it on the same ``--cache-dir``.

    The MOM group, last of the four, hangs, so the kill lands once the
    other three groups' 12 records are flushed."""
    cache = str(tmp_path / "cache")
    hang = {"kind": "hang", "kernel": "comp", "isa": "mom", "seconds": 60,
            "scope": "any"}
    env = dict(os.environ, REPRO_FAULT_INJECT=json.dumps([hang]),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + FIGURE + ["--cache-dir", cache],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while (_log_records(cache) < 12 and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    flushed = _log_records(cache)
    assert flushed == 12
    run = _cli("--cache-dir", cache)
    _expect(run, simulated=16 - flushed, cached=flushed, builds=1)
    return run


def _served(tmp_path, shared) -> Run:
    """One job through ``repro serve``'s HTTP API, fetched from
    ``/jobs/<id>/result``."""
    service = SweepService(str(tmp_path / "state"))
    service.start()
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        job, created = client.submit(SUBMISSION)
        for _event in client.watch(job["id"], poll_timeout=5):
            pass
        body = client.fetch(job["id"])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.drain()
    assert created and body["job"]["status"] == "done"
    assert body["failures"] == []
    telemetry = body["job"]["telemetry"]
    assert (telemetry["simulated"], telemetry["cached"],
            telemetry["trace_builds"]) == (16, 0, 4)
    points = submission_points(normalize_submission(SUBMISSION))
    return Run([PointResult(point=points[r["index"]],
                            sim=sim_from_dict(r["sim"]),
                            stats=stats_from_dict(r["stats"]),
                            index=r["index"]) for r in body["results"]])


PATHS = {
    "no-cache": _no_cache,
    "cold": _cold,
    "warm": _warm,
    "trace-only": _trace_only,
    "jobs2": _jobs2,
    "resume": _resume,
    "killed": _killed,
    "served": _served,
}


@pytest.mark.parametrize("path", list(PATHS))
def test_result_path(path, tmp_path, shared):
    run = PATHS[path](tmp_path, shared)
    _assert_golden(run.results)
    fresh = {_label(r.sim): (r.sim, r.stats) for r in shared.fresh.results}
    assert {_label(r.sim): (r.sim, r.stats) for r in run.results} == fresh
    if run.figure is not None:
        assert run.figure == shared.fresh.figure


@pytest.mark.parametrize("stamp", ["BUILDER_VERSION", "MODEL_VERSION"])
def test_stale_stores_never_hit(stamp, tmp_path, shared, monkeypatch):
    """Fill the result log, the trace cache, a journal and the service's
    job store, then bump one version stamp: no result-log, journal or
    job-id hit may follow, and after a builder bump no trace hit either.
    A trace hit after a model bump is right: ``trace_key`` leaves the
    model version out."""
    cache = str(shutil.copytree(shared.cold_dir, tmp_path / "cache"))
    journal = str(tmp_path / "sweep.jsonl")
    filler = SweepEngine(cache_dir=cache, journal=journal)
    _expect(Run(filler.run(POINTS), filler), cached=16)  # each journaled
    assert len(SweepJournal(journal).load()) == 16
    # Every store and reader below is built, and indexed, before the bump.
    engine = SweepEngine(cache_dir=cache, journal=journal)
    assert all(engine.trace_cache.get(p) is not None for p in POINTS[:4])
    log = ResultCache(cache)
    assert all(log.get(p) is not None for p in POINTS)
    service = SweepService(str(tmp_path / "state"), cache_dir=cache)
    assert service.submit(SUBMISSION)[1]

    monkeypatch.setattr(versions, stamp, "bumped")
    fresh_log = ResultCache(cache)
    assert not any(store.get(p) for store in (log, fresh_log)
                   for p in POINTS)
    assert service.submit(SUBMISSION)[1], "attached to a pre-bump job"
    run = Run(engine.run(POINTS), engine)
    if stamp == "BUILDER_VERSION":
        _expect(run, simulated=16, builds=4)
    else:
        _expect(run, simulated=16, trace_hits=16)
    assert engine.cache.hits == 0
    _assert_golden(run.results)
