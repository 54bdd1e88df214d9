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

import json

import pytest

import repro.sweep.faults as faults
from repro.sweep import SweepEngine, SweepJournal, SweepSpec
from repro.sweep.cache import sim_to_dict, stats_to_dict
from repro.sweep.supervisor import SupervisorPolicy, backoff_delay
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _sweep(kernels=("comp", "addblock"), isas=("scalar", "mom"), ways=(1, 2)):
    return SweepSpec.make(kernels=list(kernels), isas=list(isas),
                          configs=[MachineConfig.for_way(w) for w in ways],
                          spec=_SPEC)


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
        policy = SupervisorPolicy()
        for attempt in range(5):
            a = backoff_delay(attempt, "pool", policy)
            b = backoff_delay(attempt, "pool", policy)
            assert a == b

    def test_backoff_grows_then_caps(self):
        policy = SupervisorPolicy(backoff_base=0.05, backoff_cap=0.5)
        delays = [backoff_delay(a, "t", policy) for a in range(12)]
        assert all(d >= 0 for d in delays)
        # jitter < base, so the cap bounds every delay at cap + base
        assert max(delays) <= policy.backoff_cap + policy.backoff_base
        assert delays[6] > delays[0]

    def test_distinct_tokens_decorrelate(self):
        policy = SupervisorPolicy()
        assert backoff_delay(3, "alpha", policy) != \
            backoff_delay(3, "beta", policy)

    def test_policy_with_overrides(self):
        """The engine builds its policy from its two supervision knobs;
        every other field keeps the policy default."""
        base = SupervisorPolicy()
        assert SweepEngine().policy == base
        tweaked = SweepEngine(task_timeout=2.5, max_pool_restarts=9).policy
        assert tweaked.task_timeout == 2.5
        assert tweaked.max_pool_restarts == 9
        assert tweaked.backoff_base == base.backoff_base
        assert tweaked.max_group_retries == base.max_group_retries

    @pytest.mark.parametrize("kwargs, field", [
        ({"task_timeout": -1}, "task_timeout"),
        ({"task_timeout": 0}, "task_timeout"),
        ({"task_timeout": float("nan")}, "task_timeout"),
        ({"max_pool_restarts": -1}, "max_pool_restarts"),
    ])
    def test_nonsense_knobs_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SupervisorPolicy(**kwargs)
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
        engine = SweepEngine(jobs=2, task_timeout=2.0, max_pool_restarts=10)
        results = engine.run(sweep)
        assert engine.last_timeouts >= 1
        assert engine.last_fallback_reason is None
        assert not engine.last_failures
        assert all(r.ok for r in results)
        assert _fingerprint(results) == _fingerprint(clean)


class TestTransientCrash:
    def test_retry_succeeds_without_serial_fallback(self, tmp_path,
                                                    monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "scalar", "times": 1},
        ])
        engine = SweepEngine(jobs=2, max_pool_restarts=10)
        results = engine.run(sweep)
        assert engine.last_pool_restarts >= 1
        assert engine.last_fallback_reason is None, \
            "a transient crash must be retried under the pool, not serially"
        assert not engine.last_failures
        assert _fingerprint(results) == _fingerprint(clean)


class TestPoisonPoint:
    def test_poison_crash_is_quarantined(self, tmp_path, monkeypatch):
        sweep = _sweep()
        clean = SweepEngine().run(sweep)
        _inject(monkeypatch, tmp_path, [
            {"kind": "crash", "kernel": "comp", "isa": "scalar",
             "config": "way1", "times": -1},
        ])
        engine = SweepEngine(jobs=2, max_pool_restarts=10)
        results = engine.run(sweep)
        assert engine.last_fallback_reason is None

        bad = [r for r in results if not r.ok]
        assert len(bad) == 1
        failure = bad[0].failure
        assert failure.quarantined
        assert failure.phase == "crash"
        assert failure.error_type == "BrokenProcessPool"
        assert (failure.kernel, failure.isa, failure.config) == \
            ("comp", "scalar", "way1")
        assert engine.last_quarantined == 1
        assert engine.last_failures == [failure]

        # Quarantine is surgical: every other point is byte-identical.
        skip = {failure.index}
        assert _fingerprint(results) == _fingerprint(clean, skip=skip)


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
        assert not engine.last_failures
        assert engine.last_retries >= 1
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
        assert failure.phase == "serial"
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
        assert engine.last_journaled == len(sweep) - 1
        assert engine.last_simulated == 1
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
        engine = SweepEngine(jobs=2, task_timeout=2.0, max_pool_restarts=10,
                             journal=journal)
        results = engine.run(sweep)

        # Survived without collapsing to the serial fallback.
        assert engine.last_fallback_reason is None
        assert engine.last_pool_restarts >= 1
        assert engine.last_timeouts >= 1

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
        assert resumed_engine.last_journaled == len(sweep) - 1
        assert resumed_engine.last_simulated == 1
        assert all(r.ok for r in resumed)
        assert _fingerprint(resumed) == _fingerprint(clean)


class TestCLISupervision:
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
