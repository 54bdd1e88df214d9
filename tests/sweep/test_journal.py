"""Tests of the write-ahead sweep journal: framing, healing, resume.

The journal's contract has two halves — a tolerant JSONL layer
(:func:`read_jsonl` must treat a torn trailing record as uncommitted, never
as a parse error) and the engine's resume semantics (a journaled point is
replayed bit-for-bit and re-simulates, re-builds and re-caches nothing).
Both are exercised here; the crash-injection scenarios (killed processes,
broken pools) live in ``test_crash_resume.py``.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys

import pytest

import repro.versions
from repro.cli import main
from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep import (
    JournalLockedError,
    SweepEngine,
    SweepJournal,
    SweepPoint,
    grid_points,
    point_key,
    read_jsonl,
)
from repro.sweep.cache import sim_to_dict, stats_to_dict
from repro.sweep.journal import JOURNAL_FORMAT, LOCK_SUFFIX
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _sweep(kernels=("comp",), ways=(1, 2)) -> list:
    return grid_points(kernels, ISA_VARIANTS, ways, [1], _SPEC.scale,
                       _SPEC.seed)


class TestReadJsonl:
    def test_missing_file_scans_empty(self, tmp_path):
        scan = read_jsonl(str(tmp_path / "absent.jsonl"))
        assert scan.records == []
        assert scan.good_end == 0
        assert scan.torn_bytes == 0

    def test_clean_lines_parse_in_order(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        scan = read_jsonl(str(path))
        assert [r["a"] for r in scan.records] == [1, 2]
        assert scan.good_end == path.stat().st_size
        assert scan.torn_bytes == 0
        assert scan.skipped_lines == 0

    def test_torn_tail_is_uncommitted_not_an_error(self, tmp_path):
        """Regression: a crashed writer's partial trailing line used to
        surface as json.JSONDecodeError in strict consumers."""
        path = tmp_path / "torn.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n{"a": 3, "trunca')
        scan = read_jsonl(str(path))  # must not raise
        assert [r["a"] for r in scan.records] == [1, 2]
        assert scan.torn_bytes == len('{"a": 3, "trunca')
        assert scan.good_end == len('{"a": 1}\n{"a": 2}\n')

    def test_corrupt_middle_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"a": 2}\n')
        scan = read_jsonl(str(path))
        assert [r["a"] for r in scan.records] == [1, 2]
        assert scan.skipped_lines == 1

    def test_non_dict_records_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('[1, 2]\n"just a string"\n{"a": 1}\n')
        scan = read_jsonl(str(path))
        assert scan.records == [{"a": 1}]
        assert scan.skipped_lines == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        scan = read_jsonl(str(path))
        assert [r["a"] for r in scan.records] == [1, 2]
        assert scan.skipped_lines == 0


class TestSweepJournal:
    def test_append_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append({"key": "k1", "sim": {"cycles": 1}, "stats": {}})
            journal.append({"key": "k2", "sim": {"cycles": 2}, "stats": {}})
        completed = SweepJournal(path).load()
        assert set(completed) == {"k1", "k2"}
        assert completed["k1"]["sim"] == {"cycles": 1}

    def test_fresh_file_starts_with_header(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append({"key": "k", "sim": {}, "stats": {}})
        first = json.loads(open(path).readline())
        assert first == {"journal": "repro-sweep-journal",
                         "format": JOURNAL_FORMAT}

    def test_duplicate_key_last_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append({"key": "k", "sim": {"cycles": 1}, "stats": {}})
            journal.append({"key": "k", "sim": {"cycles": 2}, "stats": {}})
        completed = SweepJournal(path).load()
        assert completed["k"]["sim"]["cycles"] == 2

    def test_records_missing_payload_are_not_replayed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append({"key": "no-sim", "stats": {}})
            journal.append({"key": "no-stats", "sim": {}})
            journal.append({"key": "good", "sim": {}, "stats": {}})
            journal.append({"sim": {}, "stats": {}})  # no key at all
        assert set(SweepJournal(path).load()) == {"good"}

    def test_unstamped_records_are_not_replayed(self, tmp_path):
        """A record without a checksum stamp (an older journal) cannot be
        verified, so its point re-runs."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"format": 1, "journal": "repro-sweep-journal"}\n'
            '{"key": "k", "sim": {}, "stats": {}}\n')
        assert SweepJournal(str(path)).load() == {}

    def test_incompatible_header_replays_nothing(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"journal": "repro-sweep-journal", "format": 999}\n'
            '{"key": "k", "sim": {}, "stats": {}}\n')
        assert SweepJournal(str(path)).load() == {}

    def test_append_heals_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(str(path)) as journal:
            journal.append({"key": "k1", "sim": {}, "stats": {}})
        with open(path, "a") as f:
            f.write('{"key": "k2", "sim"')  # crashed writer's partial record

        journal = SweepJournal(str(path))
        completed = journal.load()
        assert set(completed) == {"k1"}
        journal.append({"key": "k3", "sim": {}, "stats": {}})
        journal.close()
        assert journal.torn_bytes_discarded > 0
        # The file is strict-parseable again: every line is complete JSON.
        with open(path) as f:
            lines = f.read().splitlines()
        assert [json.loads(line)["key"] for line in lines[1:]] == ["k1", "k3"]

    def test_close_and_reopen_preserves_all_records(self, tmp_path):
        """Regression: reopening used to truncate back to the offset
        remembered at the *previous* open, destroying newer appends."""
        path = str(tmp_path / "j.jsonl")
        journal = SweepJournal(path)
        journal.load()
        journal.append({"key": "k1", "sim": {}, "stats": {}})
        journal.close()
        journal.append({"key": "k2", "sim": {}, "stats": {}})
        journal.close()
        assert set(SweepJournal(path).load()) == {"k1", "k2"}

    def test_missing_parent_directory_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append({"key": "k", "sim": {}, "stats": {}})
        assert set(SweepJournal(path).load()) == {"k"}


class TestWriterLock:
    def _dead_pid(self) -> int:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_append_takes_lock_and_close_releases_it(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = SweepJournal(path)
        assert not os.path.exists(path + LOCK_SUFFIX)
        journal.append({"key": "k", "sim": {}, "stats": {}})
        assert os.path.exists(path + LOCK_SUFFIX)
        stamp = json.load(open(path + LOCK_SUFFIX))
        assert stamp["pid"] == os.getpid()
        journal.close()
        assert not os.path.exists(path + LOCK_SUFFIX)

    def test_live_conflict_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        holder = SweepJournal(path)
        holder.append({"key": "k1", "sim": {}, "stats": {}})
        try:
            intruder = SweepJournal(path)
            with pytest.raises(JournalLockedError) as excinfo:
                intruder.append({"key": "k2", "sim": {}, "stats": {}})
            message = str(excinfo.value)
            assert str(os.getpid()) in message
            assert LOCK_SUFFIX in message
        finally:
            holder.close()

    def test_stale_dead_pid_lock_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path + LOCK_SUFFIX, "w") as f:
            json.dump({"journal": "j.jsonl", "pid": self._dead_pid()}, f)
        with SweepJournal(path) as journal:
            journal.append({"key": "k", "sim": {}, "stats": {}})
            stamp = json.load(open(path + LOCK_SUFFIX))
            assert stamp["pid"] == os.getpid()
        assert set(SweepJournal(path).load()) == {"k"}

    def test_unreadable_lock_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path + LOCK_SUFFIX, "w") as f:
            f.write("not json")
        with SweepJournal(path) as journal:
            journal.append({"key": "k", "sim": {}, "stats": {}})
        assert set(SweepJournal(path).load()) == {"k"}

    def test_load_never_takes_the_lock(self, tmp_path):
        """Progress watchers must be able to tail a journal someone else
        is writing."""
        path = str(tmp_path / "j.jsonl")
        holder = SweepJournal(path)
        holder.append({"key": "k1", "sim": {}, "stats": {}})
        try:
            watcher = SweepJournal(path)
            assert set(watcher.load()) == {"k1"}
            assert not watcher._locked
        finally:
            holder.close()

    def test_engine_releases_lock_after_each_run(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep(ways=(1,))
        SweepEngine(journal=path).run(sweep)
        assert not os.path.exists(path + LOCK_SUFFIX)
        # A second engine (same process, fresh instance) takes over cleanly.
        engine = SweepEngine(journal=path)
        engine.run(sweep)
        assert engine.report.journaled == len(sweep)
        assert not os.path.exists(path + LOCK_SUFFIX)

    def test_engine_releases_lock_when_consumer_abandons(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep(kernels=("comp", "addblock"), ways=(1,))
        engine = SweepEngine(journal=path)
        iterator = engine.iter_results(sweep)
        next(iterator)
        iterator.close()
        assert not os.path.exists(path + LOCK_SUFFIX)


class _FailingWriter:
    """File-object wrapper whose write lands a prefix then raises ENOSPC."""

    def __init__(self, f, keep_bytes):
        self._f = f
        self._keep = keep_bytes

    def write(self, data):
        self._f.write(data[: self._keep])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._f, name)


class TestAppendFailure:
    """A full disk (ENOSPC / short write) mid-append must surface as a
    clean OSError, and the journal must heal on the next open: the partial
    record reads as uncommitted, and rewriting it produces a file
    byte-identical to one written without the fault."""

    def _fill(self, path, keys):
        with SweepJournal(path) as journal:
            for key in keys:
                journal.append({"key": key, "sim": {"cycles": 1},
                                "stats": {}})

    def test_short_write_raises_and_heals_byte_identically(self, tmp_path):
        clean = str(tmp_path / "clean.jsonl")
        self._fill(clean, ["k1", "k2"])

        faulty = str(tmp_path / "faulty.jsonl")
        journal = SweepJournal(faulty)
        journal.append({"key": "k1", "sim": {"cycles": 1}, "stats": {}})
        journal._file = _FailingWriter(journal._file, keep_bytes=10)
        with pytest.raises(OSError) as excinfo:
            journal.append({"key": "k2", "sim": {"cycles": 1}, "stats": {}})
        assert excinfo.value.errno == errno.ENOSPC
        journal._file = journal._file._f
        journal.close()

        # The torn tail reads as uncommitted, never as corruption.
        resumed = SweepJournal(faulty)
        assert set(resumed.load()) == {"k1"}
        assert resumed.torn_bytes_discarded == 10
        assert resumed.skipped_lines == 0
        # Healing + rewriting the lost record reproduces the clean file
        # exactly, byte for byte.
        resumed.append({"key": "k2", "sim": {"cycles": 1}, "stats": {}})
        resumed.close()
        assert open(faulty, "rb").read() == open(clean, "rb").read()

    def test_zero_byte_write_raises_and_heals(self, tmp_path):
        """ENOSPC before any byte lands: nothing to heal, nothing lost."""
        clean = str(tmp_path / "clean.jsonl")
        self._fill(clean, ["k1", "k2"])

        faulty = str(tmp_path / "faulty.jsonl")
        journal = SweepJournal(faulty)
        journal.append({"key": "k1", "sim": {"cycles": 1}, "stats": {}})
        journal._file = _FailingWriter(journal._file, keep_bytes=0)
        with pytest.raises(OSError):
            journal.append({"key": "k2", "sim": {"cycles": 1}, "stats": {}})
        journal._file = journal._file._f
        journal.close()

        resumed = SweepJournal(faulty)
        assert set(resumed.load()) == {"k1"}
        assert resumed.torn_bytes_discarded == 0
        resumed.append({"key": "k2", "sim": {"cycles": 1}, "stats": {}})
        resumed.close()
        assert open(faulty, "rb").read() == open(clean, "rb").read()

    def test_engine_surfaces_append_failure_and_resumes(self, tmp_path):
        """End to end: a sweep whose journal append fails raises cleanly;
        the next run resumes from the healed journal and completes."""
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep(kernels=("comp", "addblock"), ways=(1,))

        class _Breaker(SweepJournal):
            def __init__(self, p):
                super().__init__(p)
                self.appends = 0

            def append(self, record):
                if self.appends >= 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                super().append(record)
                self.appends += 1

        engine = SweepEngine(journal=_Breaker(path))
        with pytest.raises(OSError):
            engine.run(sweep)
        assert not os.path.exists(path + LOCK_SUFFIX), \
            "failed run must still release the writer lock"

        engine = SweepEngine(journal=path)
        results = engine.run(sweep)
        assert len(results) == len(sweep)
        assert engine.report.journaled == 2
        assert engine.report.simulated == len(sweep) - 2
        # And a third run replays everything.
        engine = SweepEngine(journal=path)
        engine.run(sweep)
        assert engine.report.journaled == len(sweep)


class TestEngineResume:
    def test_resume_replays_everything(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep()
        first = SweepEngine(journal=path).run(sweep)

        engine = SweepEngine(journal=path)
        second = engine.run(sweep)
        assert engine.report.journaled == len(sweep)
        assert engine.report.simulated == 0
        assert engine.report.trace_builds == 0
        assert all(r.journaled for r in second)
        assert [r.sim for r in second] == [r.sim for r in first]
        assert [r.stats for r in second] == [r.stats for r in first]

    def test_resume_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep(kernels=("comp", "addblock"))
        first = SweepEngine(journal=path).run(sweep)
        second = SweepEngine(journal=path).run(sweep)
        for a, b in zip(first, second):
            assert (json.dumps(sim_to_dict(a.sim), sort_keys=True)
                    == json.dumps(sim_to_dict(b.sim), sort_keys=True))

    def test_partial_journal_simulates_only_the_rest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        small = _sweep(ways=(1,))
        SweepEngine(journal=path).run(small)

        larger = _sweep(ways=(1, 2, 4))
        engine = SweepEngine(journal=path)
        results = engine.run(larger)
        assert len(results) == len(larger)
        assert engine.report.journaled == len(small)
        assert engine.report.simulated == len(larger) - len(small)
        # The journal now covers the larger sweep completely.
        engine = SweepEngine(journal=path)
        engine.run(larger)
        assert engine.report.journaled == len(larger)

    def test_replayed_points_do_not_touch_the_result_cache(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        cache_dir = str(tmp_path / "cache")
        sweep = _sweep()
        SweepEngine(cache_dir=cache_dir, journal=path).run(sweep)

        engine = SweepEngine(cache_dir=cache_dir, journal=path)
        engine.run(sweep)
        assert engine.report.journaled == len(sweep)
        assert engine.report.cached == 0
        assert engine.cache.hits == 0 and engine.cache.misses == 0

    def test_model_version_bump_invalidates_the_journal(self, tmp_path,
                                                        monkeypatch):
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep(ways=(1,))
        SweepEngine(journal=path).run(sweep)

        monkeypatch.setattr(repro.versions, "MODEL_VERSION",
                            "some-other-model")
        engine = SweepEngine(journal=path)
        engine.run(sweep)
        assert engine.report.journaled == 0
        assert engine.report.simulated == len(sweep)

    def test_unverified_records_from_older_journals_rerun(self, tmp_path):
        """A journal written when verification could be switched off may
        hold ``"checked": false`` records; they must not replay as
        verified — the point re-runs (and is verified) instead."""
        path = str(tmp_path / "j.jsonl")
        point = _sweep(ways=(1,))[0]
        fresh, = SweepEngine().run([point])
        record = {"key": point_key(point), "index": 0,
                  "kernel": point.kernel, "isa": point.isa,
                  "config": point.config.name,
                  "mem_latency": point.config.mem_latency,
                  "checked": False, "sim": sim_to_dict(fresh.sim),
                  "stats": stats_to_dict(fresh.stats)}
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"journal": "repro-sweep-journal",
                                "format": JOURNAL_FORMAT}) + "\n")
            f.write(json.dumps(record) + "\n")
        assert SweepJournal(path).load() == {}

        engine = SweepEngine(journal=path)
        resumed, = engine.run([point])
        assert not resumed.journaled and resumed.ok
        assert engine.report.journaled == 0 and engine.report.simulated == 1
        assert resumed.sim == fresh.sim
        # The re-run's record is verified, so the next resume replays it.
        again = SweepEngine(journal=path)
        again.run([point])
        assert again.report.journaled == 1

    def test_tampered_record_is_resimulated(self, tmp_path):
        """A journaled result whose bytes changed after the write fails
        its checksum: the resume re-simulates the point, and the result
        equals the golden instead of the edit."""
        path = tmp_path / "j.jsonl"
        point = SweepPoint("comp", "mom", MachineConfig.for_way(4))
        SweepEngine(journal=str(path)).run([point])
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["sim"]["cycles"] += 1000
        path.write_text(f"{header}\n{json.dumps(record)}\n")

        engine = SweepEngine(journal=str(path))
        resumed, = engine.run([point])
        assert engine.report.journaled == 0 and engine.report.simulated == 1
        golden = os.path.join(os.path.dirname(__file__), "..", "golden",
                              "paper_grid.json")
        with open(golden, encoding="utf-8") as f:
            pinned = json.load(f)["results"]["comp/mom"]["way4_lat1"]
        assert resumed.sim.cycles == pinned["cycles"]

    def test_journal_write_precedes_on_result(self, tmp_path):
        """The write-ahead property: when the callback sees a result, the
        journal already has it — a crash in the callback loses nothing."""
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep()
        seen = []

        def on_result(result):
            keys = set(SweepJournal(path).load())
            assert point_key(result.point) in keys
            seen.append(result)

        SweepEngine(journal=path).run(sweep, on_result=on_result)
        assert len(seen) == len(sweep)

    def test_resume_after_torn_trailing_record(self, tmp_path):
        """End-to-end satellite regression: a journal ending mid-record
        (killed writer) must resume cleanly, not raise."""
        path = str(tmp_path / "j.jsonl")
        sweep = _sweep()
        SweepEngine(journal=path).run(sweep)
        # Tear the last record in half, as a SIGKILL mid-write would.
        with open(path, "rb+") as f:
            data = f.read()
            f.truncate(len(data) - 20)

        engine = SweepEngine(journal=path)
        results = engine.run(sweep)
        assert len(results) == len(sweep)
        assert engine.report.journaled == len(sweep) - 1
        assert engine.report.simulated == 1
        # And the healed journal is complete again.
        engine = SweepEngine(journal=path)
        engine.run(sweep)
        assert engine.report.journaled == len(sweep)


class TestCLIResume:
    def test_sweep_resume_flag_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "j.jsonl")
        argv = ["sweep", "--kernels", "comp", "--ways", "1", "2",
                "--scale", "1", "--resume", path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "from journal" not in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "8 from journal" in second
        assert "0 point(s) simulated" in second
        # The table flags every replayed row.
        rows = [l for l in second.splitlines() if l.startswith("comp")]
        assert rows and all(l.endswith("journal") for l in rows)

    def test_stream_jsonl_reports_journaled(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        stream = str(tmp_path / "s.jsonl")
        argv = ["sweep", "--kernels", "comp", "--ways", "1", "--scale", "1",
                "--resume", journal, "--stream-jsonl", stream]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in open(stream)]
        assert len(records) == 8
        assert all(not r["journaled"] for r in records[:4])
        assert all(r["journaled"] for r in records[4:])

    def test_figure4_resume_flag(self, tmp_path, capsys):
        path = str(tmp_path / "j.jsonl")
        argv = ["figure4", "--kernels", "comp", "--ways", "1",
                "--scale", "1", "--resume", path]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "4 from journal" in capsys.readouterr().out
