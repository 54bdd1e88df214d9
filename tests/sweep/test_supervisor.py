"""Supervised-execution tests: injected faults must not sink the sweep.

Every scenario uses the deterministic fault-injection harness
(:mod:`repro.sweep.faults`, ``REPRO_FAULT_INJECT``) and checks the one
invariant that matters: whatever a worker does — die, hang, raise, or do
it every single time — the sweep completes, every *healthy* point's
result is byte-identical to a fault-free run, and the unhealthy points
surface as structured :class:`PointFailure` records instead of a crashed
process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro.sweep.faults as faults
import repro.sweep.supervisor as supervisor
from repro.sweep import (SweepEngine, SweepJournal, SweepPoint, SweepService,
                         grid_points)
from repro.sweep.cache import sim_to_dict, stats_to_dict
from repro.sweep.supervisor import BACKOFF_BASE, BACKOFF_CAP, backoff_delay
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _sweep(kernels=("comp", "addblock"), isas=("scalar", "mom"), ways=(1, 2)):
    return grid_points(kernels, isas, ways, [1], _SPEC.scale, _SPEC.seed)


def _poison_group_sweep():
    """One 16-config comp/scalar trace group (and its comp/mom twin)."""
    configs = [dataclasses.replace(MachineConfig.for_way(4, mem_latency=lat),
                                   name=f"lat{lat}")
               for lat in range(1, 17)]
    return [SweepPoint("comp", isa, config, _SPEC)
            for config in configs for isa in ("scalar", "mom")]


def _fingerprint(results, skip=()):
    """Canonical bytes of the healthy results, index order."""
    return "\n".join(
        json.dumps({"index": r.index, "sim": sim_to_dict(r.sim),
                    "stats": stats_to_dict(r.stats)}, sort_keys=True)
        for r in sorted(results, key=lambda r: r.index)
        if r.ok and r.index not in skip)


def _inject(monkeypatch, tmp_path, rules):
    """Arm the harness: rules + a tmp state_dir for cross-process budgets."""
    spec = {"state_dir": str(tmp_path / "fault-state"), "faults": rules}
    monkeypatch.setenv(faults.FAULT_ENV, json.dumps(spec))
    faults._PLAN_CACHE.clear()


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    faults._PLAN_CACHE.clear()
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    yield
    faults._PLAN_CACHE.clear()


class TestPolicy:
    def test_backoff_is_deterministic(self):
        for attempt in range(5):
            assert backoff_delay(attempt) == backoff_delay(attempt)

    def test_backoff_grows_then_caps(self):
        delays = [backoff_delay(a) for a in range(12)]
        assert delays[0] == BACKOFF_BASE
        assert delays == sorted(delays)
        assert max(delays) == BACKOFF_CAP
        assert delays[6] > delays[0]

    def test_policy_with_overrides(self):
        """``task_timeout`` is the one settable supervision value; the
        engine keeps it, and the retry counts, restart budget and backoff
        are module constants."""
        assert SweepEngine().task_timeout is None
        assert SweepEngine(task_timeout=2.5).task_timeout == 2.5
        assert supervisor.MAX_POOL_RESTARTS == 6
        assert supervisor.QUARANTINE_RETRIES == 1

    @pytest.mark.parametrize("call", [
        lambda: SweepEngine(max_group_retries=0),
        lambda: SweepEngine(quarantine_retries=0),
        lambda: SweepEngine(backoff_base=0),
        lambda: SweepEngine(backoff_cap=0),
        lambda: backoff_delay(1, policy=None),
        lambda: backoff_delay(1, "token"),
        lambda: SweepEngine(max_pool_restarts=10),
        lambda: SweepService("unused", max_pool_restarts=10),
    ], ids=["max_group_retries", "quarantine_retries", "backoff_base",
            "backoff_cap", "backoff_delay-policy", "backoff_delay-token",
            "max_pool_restarts", "service-max_pool_restarts"])
    def test_removed_knobs_are_gone(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("kwargs, field", [
        ({"task_timeout": -1}, "task_timeout"),
        ({"task_timeout": 0}, "task_timeout"),
        ({"task_timeout": float("nan")}, "task_timeout"),
    ])
    def test_nonsense_knobs_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SweepEngine(**kwargs)


class TestHungWorker:
    def test_timeout_recycles_pool_and_completes(self, tmp_path, monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "hang", "kernel": "comp", "isa": "scalar",
             "seconds": 60, "times": 1},
        ])
        engine = SweepEngine(jobs=2, task_timeout=2.0)
        results = engine.run(sweep)
        assert engine.report.timeouts >= 1
        assert engine.report.fallback_reason is None
        assert not engine.report.failures
        assert all(r.ok for r in results)
        assert _fingerprint(results) == _fingerprint(clean)


    def test_one_group_keeps_its_deadline(self, tmp_path, monkeypatch):
        """One trace group needs no pool for parallelism, but a deadline
        needs one: with ``task_timeout`` the group still runs under the
        pool, and a hang is reaped."""
        sweep = _sweep(kernels=("comp",), isas=("mom",))
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "hang", "kernel": "comp", "isa": "mom",
             "seconds": 60, "times": 1},
        ])
        engine = SweepEngine(jobs=2, task_timeout=2.0)
        results = engine.run(sweep)
        assert engine.report.pool_tasks >= 1
        assert engine.report.timeouts == 1
        assert not engine.report.failures
        assert _fingerprint(results) == _fingerprint(clean)


class TestTransientCrash:
    def test_retry_succeeds_without_serial_fallback(self, tmp_path,
                                                    monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "scalar", "times": 1},
        ])
        engine = SweepEngine(jobs=2)
        results = engine.run(sweep)
        assert engine.report.pool_restarts >= 1
        assert engine.report.fallback_reason is None, \
            "a transient crash must be retried under the pool, not serially"
        assert not engine.report.failures
        assert _fingerprint(results) == _fingerprint(clean)


class TestPoisonPoint:
    def test_poison_crash_is_quarantined(self, tmp_path, monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "scalar",
             "config": "way1", "times": -1},
        ])
        engine = SweepEngine(jobs=2)
        results = engine.run(sweep)
        assert engine.report.fallback_reason is None

        bad = [r for r in results if not r.ok]
        assert len(bad) == 1
        failure = bad[0].failure
        assert failure.quarantined
        assert failure.phase == "crash"
        assert failure.error_type == "BrokenProcessPool"
        assert (failure.kernel, failure.isa, failure.config) == \
            ("comp", "scalar", "way1")
        assert engine.report.quarantined == 1
        assert engine.report.failures == (failure,)

        # Quarantine is surgical: every other point is byte-identical.
        skip = {failure.index}
        assert _fingerprint(results) == _fingerprint(clean, skip=skip)

    def test_poison_in_16_config_group_fits_default_budget(self, tmp_path,
                                                           monkeypatch):
        """A failing group splits into single points, so one poison point
        in a 16-config trace group is quarantined under the pool within
        the default restart budget (bisection spent a restart per
        halving and fell back to serial).  ``report.pool_tasks`` counts
        every submission: both groups, the 16 split points and the
        poison point's retry."""
        sweep = _poison_group_sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "scalar",
             "config": "lat7", "times": -1},
        ])
        engine = SweepEngine(jobs=2)
        results = engine.run(sweep)
        assert engine.report.fallback_reason is None
        assert engine.report.pool_restarts <= 4
        assert engine.report.pool_tasks >= 2 + 16 + 1

        bad = [r for r in results if not r.ok]
        assert [(r.failure.kernel, r.failure.isa, r.failure.config,
                 r.failure.quarantined) for r in bad] == \
            [("comp", "scalar", "lat7", True)]
        assert engine.report.quarantined == 1
        assert _fingerprint(results) == _fingerprint(clean,
                                                     skip={bad[0].index})


class TestOnePolicyTwoExecutors:
    """The inline executor, the process pool and a pool that falls back to
    inline apply one failure policy to a poison point in a 16-config
    group: the same healthy results, the same failure record and the same
    retries — and, with no cache dir, the singles split from the group
    share one trace build."""

    def _poison_run(self, tmp_path, monkeypatch, kind, jobs,
                    broken_pool=False):
        import repro.sweep.engine as engine_mod

        _inject(monkeypatch, tmp_path, [
            {"kind": kind, "kernel": "comp", "isa": "scalar",
             "config": "lat7", "times": -1},
        ])
        if broken_pool:
            def no_pool(*args, **kwargs):
                raise OSError("no fork for you")

            monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pool)
        engine = SweepEngine(jobs=jobs)
        return engine, engine.run(_poison_group_sweep())

    def test_raise_is_handled_alike_on_every_executor(self, tmp_path,
                                                      monkeypatch):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        clean = SweepEngine().run(_poison_group_sweep())
        runs = {name: self._poison_run(tmp_path / name, monkeypatch,
                                       "raise", jobs, broken)
                for name, jobs, broken in (("inline", 1, False),
                                           ("pool", 2, False),
                                           ("fallback", 2, True))}
        inline, inline_results = runs["inline"]
        (failure,) = inline.report.failures
        assert (failure.config, failure.phase, failure.attempts,
                failure.error_type, failure.quarantined) == \
            ("lat7", "exception", 2, "InjectedFault", False)
        for name, (engine, results) in runs.items():
            assert [r.failure for r in results if not r.ok] == [failure], name
            assert engine.report.failures == (failure,), name
            assert engine.report.retries == inline.report.retries, name
            assert engine.report.trace_builds <= 2, name
            assert _fingerprint(results) == _fingerprint(
                clean, skip={failure.index}), name
        # 16 split singles plus the poison point's one retry.
        assert inline.report.retries == 17
        assert inline.report.pool_tasks == 0
        assert runs["pool"][0].report.pool_tasks > 0
        assert runs["pool"][0].report.fallback_reason is None
        assert "no fork for you" in runs["fallback"][0].report.fallback_reason
        # The split singles' scratch trace store is gone with the run.
        assert list(scratch.iterdir()) == []

    @pytest.mark.parametrize("kind, jobs, final", [
        ("raise", 1, {"retries": 17, "quarantined": 0}),
        ("crash", 2, {"quarantined": 1}),
    ])
    def test_streamed_supervision_is_the_report_s(self, tmp_path, monkeypatch,
                                                  kind, jobs, final):
        """What each ``--stream-jsonl`` record carries, read off the
        supervisor without building a report, is the report's four
        supervision counts at that moment."""
        _inject(monkeypatch, tmp_path, [
            {"kind": kind, "kernel": "comp", "isa": "scalar",
             "config": "lat7", "times": -1},
        ])
        engine = SweepEngine(jobs=jobs)
        seen = []

        def on_result(result):
            report = engine.report
            seen.append(engine.supervision())
            assert seen[-1] == {"retries": report.retries,
                                "pool_restarts": report.pool_restarts,
                                "timeouts": report.timeouts,
                                "quarantined": report.quarantined}

        points = _poison_group_sweep()
        engine.run(points, on_result=on_result)
        assert len(seen) == len(points)
        assert {name: seen[-1][name] for name in final} == final

    def test_crash_split_shares_one_trace_build(self, tmp_path, monkeypatch):
        clean = SweepEngine().run(_poison_group_sweep())
        engine, results = self._poison_run(tmp_path, monkeypatch, "crash", 2)
        (failure,) = engine.report.failures
        assert (failure.config, failure.phase, failure.quarantined) == \
            ("lat7", "crash", True)
        assert engine.report.fallback_reason is None
        assert engine.report.trace_builds <= 2
        assert _fingerprint(results) == _fingerprint(clean,
                                                     skip={failure.index})


class TestSerialFailures:
    def test_transient_exception_isolated_and_retried(self, tmp_path,
                                                      monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "raise", "kernel": "comp", "isa": "scalar", "times": 1},
        ])
        engine = SweepEngine(jobs=1)
        results = engine.run(sweep)
        assert not engine.report.failures
        assert engine.report.retries >= 1
        assert _fingerprint(results) == _fingerprint(clean)

    def test_poison_exception_becomes_point_failure(self, tmp_path,
                                                    monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "raise", "kernel": "comp", "isa": "scalar",
             "config": "way1", "times": -1},
        ])
        engine = SweepEngine(jobs=1)
        results = engine.run(sweep)

        bad = [r for r in results if not r.ok]
        assert len(bad) == 1
        failure = bad[0].failure
        assert failure.phase == "exception"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 2
        assert _fingerprint(results) == _fingerprint(clean,
                                                     skip={failure.index})


class TestJournalledFailures:
    def _poison_run(self, tmp_path, monkeypatch, journal):
        sweep = _sweep()
        _inject(monkeypatch, tmp_path, [
            {"kind": "raise", "kernel": "comp", "isa": "scalar",
             "config": "way1", "times": -1},
        ])
        engine = SweepEngine(jobs=1, journal=journal)
        results = engine.run(sweep)
        faults._PLAN_CACHE.clear()
        monkeypatch.delenv(faults.FAULT_ENV)
        return sweep, results

    def test_failure_is_journaled(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "j.jsonl")
        sweep, results = self._poison_run(tmp_path, monkeypatch, journal)
        j = SweepJournal(journal)
        completed = j.load()
        assert len(completed) == len(sweep) - 1
        assert len(j.failed) == 1
        (record,) = j.failed.values()
        assert record["failure"]["error_type"] == "InjectedFault"

    def test_resume_retries_only_the_failed_point(self, tmp_path,
                                                  monkeypatch):
        journal = str(tmp_path / "j.jsonl")
        sweep, _ = self._poison_run(tmp_path, monkeypatch, journal)
        clean = SweepEngine().run(sweep)

        engine = SweepEngine(jobs=1, journal=journal)  # fault env now clear
        resumed = engine.run(sweep)
        assert engine.report.journaled == len(sweep) - 1
        assert engine.report.simulated == 1
        assert all(r.ok for r in resumed)
        assert _fingerprint(resumed) == _fingerprint(clean)

        # The retry's success superseded the failure record.
        j = SweepJournal(journal)
        assert len(j.load()) == len(sweep)
        assert not j.failed


class TestChaosAcceptance:
    """A crash, a hang and a poison point in one sweep (the PR's bar)."""

    def test_mixed_faults_one_sweep(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "j.jsonl")
        sweep = _sweep(kernels=("comp", "addblock"),
                       isas=("scalar", "mmx", "mom"), ways=(1, 2))
        clean = SweepEngine().run(sweep)

        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "mmx", "times": 1},
            {"kind": "hang", "kernel": "addblock", "isa": "scalar",
             "seconds": 60, "times": 1},
            {"kind": "raise", "kernel": "comp", "isa": "scalar",
             "config": "way1", "times": -1},
        ])
        engine = SweepEngine(jobs=2, task_timeout=2.0, journal=journal)
        results = engine.run(sweep)

        # Survived without collapsing to the serial fallback.
        assert engine.report.fallback_reason is None
        assert engine.report.pool_restarts >= 1
        assert engine.report.timeouts >= 1

        # Exactly the poison point failed, structurally.
        bad = [r for r in results if not r.ok]
        assert len(bad) == 1
        failure = bad[0].failure
        assert (failure.kernel, failure.isa, failure.config) == \
            ("comp", "scalar", "way1")
        assert failure.error_type == "InjectedFault"

        # Healthy points byte-identical to the fault-free run.
        assert _fingerprint(results) == _fingerprint(clean,
                                                     skip={failure.index})

        # The journal carries the failure; a resume with the fault gone
        # replays every healthy point and retries only the failed one.
        assert len(SweepJournal(journal).failed) == 0  # not loaded yet
        j = SweepJournal(journal)
        j.load()
        assert len(j.failed) == 1

        faults._PLAN_CACHE.clear()
        monkeypatch.delenv(faults.FAULT_ENV)
        resumed_engine = SweepEngine(jobs=1, journal=journal)
        resumed = resumed_engine.run(sweep)
        assert resumed_engine.report.journaled == len(sweep) - 1
        assert resumed_engine.report.simulated == 1
        assert all(r.ok for r in resumed)
        assert _fingerprint(resumed) == _fingerprint(clean)


class TestCLISupervision:
    def test_pool_recycle_prints_no_traceback(self, tmp_path):
        """Pool workers run with the default SIGTERM disposition: a pool
        recycle SIGTERMs them, and the CLI's raising handler must not make
        an idle one (the sibling of a suspect on probation) print a
        traceback."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        env[faults.FAULT_ENV] = json.dumps({
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"kind": "crash", "kernel": "comp", "isa": "scalar",
                        "config": "way1", "times": -1}]})
        done = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--jobs", "2",
             "--kernels", "comp", "--isas", "scalar", "mom", "--ways", "1",
             "2", "--latencies", "1", "--scale", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "1 failed (1 quarantined)" in done.stdout
        assert "ran serially" not in done.stdout
        assert "Traceback" not in done.stderr, done.stderr

    def test_failed_rows_stream_and_resume(self, tmp_path, monkeypatch,
                                           capsys):
        from repro.cli import main

        journal = str(tmp_path / "j.jsonl")
        stream = str(tmp_path / "s.jsonl")
        argv = ["sweep", "--kernels", "comp", "--isas", "scalar", "mom",
                "--ways", "1", "2", "--latencies", "1", "--scale", "1",
                "--resume", journal]
        _inject(monkeypatch, tmp_path, [
            {"kind": "raise", "kernel": "comp", "isa": "mom",
             "config": "way1", "times": -1},
        ])
        assert main(argv + ["--stream-jsonl", stream]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "InjectedFault" in out
        assert "1 failed" in out

        records = [json.loads(line) for line in
                   open(stream, encoding="utf-8") if line.strip()]
        failed = [r for r in records if "failure" in r]
        assert len(failed) == 1
        assert failed[0]["failure"]["error_type"] == "InjectedFault"
        assert "retries" in records[-1]  # supervision telemetry streamed

        # A resume re-runs only the failed point; its success supersedes
        # the journaled failure.
        faults._PLAN_CACHE.clear()
        monkeypatch.delenv(faults.FAULT_ENV)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 point(s) simulated" in out
        j = SweepJournal(journal)
        assert len(j.load()) == 4
        assert not j.failed
