"""Crash-injection tests: sweeps killed partway must resume losslessly.

Three ways to die, one invariant: after any interruption, re-running with
the same journal completes the sweep with results byte-identical to an
uninterrupted run, and re-simulates / re-builds none of the journaled
points.

* a consumer callback (``on_result``) raising mid-sweep,
* a worker process SIGKILLed under the pool (``BrokenProcessPool``),
* the whole CLI process SIGKILLed from outside (subprocess test),
* the whole CLI process SIGTERMed (graceful: exit 143, sinks closed at a
  record boundary, resume hint printed).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep import SweepEngine, SweepJournal, grid_points
from repro.sweep.cache import sim_to_dict, stats_to_dict
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _sweep(kernels=("comp", "addblock"), ways=(1, 2)) -> list:
    return grid_points(kernels, ISA_VARIANTS, ways, [1], _SPEC.scale,
                       _SPEC.seed)


def _fingerprint(results):
    """Canonical bytes of a result list, index order, for byte-identity."""
    return "\n".join(
        json.dumps({"index": r.index, "sim": sim_to_dict(r.sim),
                    "stats": stats_to_dict(r.stats)}, sort_keys=True)
        for r in sorted(results, key=lambda r: r.index))


class _Boom(Exception):
    pass


class TestCallbackCrash:
    def test_resume_after_on_result_raises(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        sweep = _sweep()
        clean = SweepEngine().run(sweep)

        crash_after = 3
        seen = []

        def exploding(result):
            seen.append(result)
            if len(seen) == crash_after:
                raise _Boom()

        with pytest.raises(_Boom):
            SweepEngine(journal=journal).run(sweep, on_result=exploding)

        # Write-ahead: the point whose callback exploded is journaled too.
        assert len(SweepJournal(journal).load()) == crash_after

        engine = SweepEngine(journal=journal)
        resumed = engine.run(sweep)
        assert engine.report.journaled == crash_after
        assert engine.report.simulated == len(sweep) - crash_after
        assert _fingerprint(resumed) == _fingerprint(clean)

    def test_journaled_points_are_not_rebuilt(self, tmp_path):
        """Resume must skip the front end too, not just the timing model."""
        journal = str(tmp_path / "j.jsonl")
        sweep = _sweep(kernels=("comp",), ways=(1, 2, 4, 8))

        def explode_late(result):
            # All four configurations of the single trace complete before
            # the crash, so on resume the trace has no remaining consumer.
            if result.index >= len(sweep) - 1:
                raise _Boom()

        with pytest.raises(_Boom):
            SweepEngine(journal=journal).run(sweep, on_result=explode_late)

        engine = SweepEngine(journal=journal)
        engine.run(sweep)
        assert engine.report.simulated == 0
        assert engine.report.trace_builds == 0, "journaled points were rebuilt"


def _sigkill_pool_worker():  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_sigkilled_worker_falls_back_and_journal_survives(
            self, tmp_path, monkeypatch):
        """SIGKILL under the pool breaks it (BrokenProcessPool); the engine
        finishes inline and the journal stays complete and parseable."""
        import repro.sweep.engine as engine_mod

        journal = str(tmp_path / "j.jsonl")
        sweep = _sweep()
        clean = SweepEngine().run(sweep)

        # Every pool worker runs the patched initializer and dies before its
        # first task; the inline executor, which finishes the run, never
        # calls it.
        monkeypatch.setattr(engine_mod, "_init_pool_worker",
                            _sigkill_pool_worker)
        engine = SweepEngine(jobs=2, journal=journal)
        results = engine.run(sweep)
        assert engine.report.fallback_reason is not None
        assert "BrokenProcessPool" in engine.report.fallback_reason
        assert _fingerprint(results) == _fingerprint(clean)

        # Every point was journaled by the inline fallback; a resume
        # replays all of them without touching the (still-broken) pool.
        resumed_engine = SweepEngine(jobs=2, journal=journal)
        resumed = resumed_engine.run(sweep)
        assert resumed_engine.report.journaled == len(sweep)
        assert resumed_engine.report.simulated == 0
        assert _fingerprint(resumed) == _fingerprint(clean)


def _cli_env() -> dict:
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(
                    [os.path.join(os.path.dirname(__file__), "..", "..",
                                  "src")]
                    + ([os.environ["PYTHONPATH"]]
                       if os.environ.get("PYTHONPATH") else [])))


class TestProcessKill:
    """Kill the whole CLI partway through; resume via ``--resume``."""

    @pytest.mark.slow
    def test_sigkill_and_resume_cli(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        argv = [sys.executable, "-m", "repro", "sweep",
                "--kernels", "comp", "addblock",
                "--ways", "1", "2", "4", "8", "--latencies", "1", "12", "50",
                "--scale", "16", "--resume", journal]
        env = _cli_env()

        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # Kill as soon as at least two points are durably journaled.
        deadline = time.time() + 60
        while time.time() < deadline and proc.poll() is None:
            if len(SweepJournal(journal).load()) >= 2:
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait(timeout=30)

        killed_with = len(SweepJournal(journal).load())
        # The interesting case is a genuine partial journal, but a machine
        # fast enough to finish first still exercises the full replay.
        total = 2 * 4 * 3 * 4  # kernels x ways x latencies x ISAs

        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        if killed_with and killed_with < total:
            assert f"{killed_with} from journal" in done.stdout

        # Byte-identical to an uninterrupted run: every journal record of
        # the resumed sweep matches the clean sweep's record exactly.
        clean_journal = str(tmp_path / "clean.jsonl")
        clean_argv = argv[:-1] + [clean_journal]
        clean = subprocess.run(clean_argv, env=env, capture_output=True,
                               text=True, timeout=300)
        assert clean.returncode == 0, clean.stderr

        resumed_records = SweepJournal(journal).load()
        clean_records = SweepJournal(clean_journal).load()
        assert len(resumed_records) == total
        assert set(resumed_records) == set(clean_records)
        for key, record in clean_records.items():
            for field in ("sim", "stats", "kernel", "isa", "config"):
                assert resumed_records[key][field] == record[field], key

        # And a second resume re-simulates nothing at all.
        again = subprocess.run(argv, env=env, capture_output=True, text=True,
                               timeout=300)
        assert again.returncode == 0, again.stderr
        assert f"0 point(s) simulated, 0 from cache, {total} from journal" \
            in again.stdout


class TestSigterm:
    """SIGTERM gets Ctrl-C parity: graceful teardown, exit 143, resume."""

    @pytest.mark.slow
    def test_sigterm_exits_143_with_clean_sinks_and_resumes(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        stream = str(tmp_path / "s.jsonl")
        argv = [sys.executable, "-m", "repro", "sweep",
                "--kernels", "comp", "addblock",
                "--ways", "1", "2", "4", "8", "--latencies", "1", "12", "50",
                "--scale", "16", "--resume", journal,
                "--stream-jsonl", stream]
        env = _cli_env()

        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        deadline = time.time() + 60
        while time.time() < deadline and proc.poll() is None:
            if len(SweepJournal(journal).load()) >= 2:
                break
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        stderr = proc.communicate(timeout=60)[1]
        total = 2 * 4 * 3 * 4

        if proc.returncode == 0:  # finished before the signal landed
            pytest.skip("sweep completed before SIGTERM could interrupt it")
        assert proc.returncode == 143, stderr
        assert "terminated (SIGTERM)" in stderr
        assert f"--resume {journal}" in stderr
        # The progress line was erased, not left dangling mid-\r.
        assert not stderr.rstrip("\n").endswith("\x1b[K")

        # The stream sink closed at a record boundary: every line whole.
        with open(stream, "rb") as f:
            data = f.read()
        if data:
            assert data.endswith(b"\n")
        for line in data.splitlines():
            json.loads(line)

        # And the journal resumes exactly like the SIGKILL case.
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert len(SweepJournal(journal).load()) == total
