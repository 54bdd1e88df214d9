"""Cache-entry integrity: embedded checksums, torn records, quarantine.

Every store must treat an unparseable, torn or checksum-mismatched entry
as a miss and recompute the same numbers — never raise, never serve it.
The result log skips torn tails and unparseable lines and drops a
mismatched record from its index; a later record for a key supersedes an
earlier one.  The trace cache quarantines a bad file to ``*.corrupt``,
which ``repro cache stats`` counts and ``gc``/``clear`` sweep.  Results of
the pre-segment one-file-per-point layout are never read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.common.atomicio import (CORRUPT_SUFFIX, payload_checksum,
                                   quarantine_corrupt, encode_stamped,
                                   verify_checksum)
from repro.sweep import (
    ResultCache,
    SweepEngine,
    SweepPoint,
    SweepSpec,
    TraceCache,
    cache_stats,
    clear_cache,
    gc_cache,
    point_key,
)
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)
_CFG = MachineConfig.for_way(4)
_POINT = SweepPoint("comp", "mom", _CFG, _SPEC)


def _populate(cache_dir: str) -> int:
    """One-point sweep into ``cache_dir`` (fills result + trace stores)."""
    sweep = SweepSpec.make(kernels=["comp"], configs=[_CFG], spec=_SPEC)
    SweepEngine(cache_dir=cache_dir).run(sweep)
    return len(sweep)


def _segment(cache_dir: str) -> str:
    """The result log's only segment."""
    (name,) = os.listdir(os.path.join(cache_dir, "log"))
    return os.path.join(cache_dir, "log", name)


def _records(cache_dir: str) -> list:
    with open(_segment(cache_dir)) as f:
        return f.read().splitlines(keepends=True)


def _rewrite(cache_dir: str, lines) -> None:
    with open(_segment(cache_dir), "w") as f:
        f.write("".join(lines))


def _sims(cache_dir=None, isas=("mom",)):
    """The SimResults of comp on ``isas``, and the engine that ran them."""
    engine = SweepEngine(cache_dir=cache_dir)
    results = engine.run([SweepPoint("comp", isa, _CFG, _SPEC)
                          for isa in isas])
    return [r.sim for r in results], engine


def _trace_path(cache_dir: str) -> str:
    return TraceCache(os.path.join(cache_dir, "traces")).path_for(_POINT)


class TestChecksumHelpers:
    def test_stamp_then_verify_round_trips(self):
        entry = {"b": [1, 2], "a": {"nested": True}}
        encode_stamped(entry)
        assert verify_checksum(entry)

    def test_stamp_survives_json_round_trip(self):
        entry = {"a": 1, "b": "x"}
        assert verify_checksum(json.loads(encode_stamped(entry)))
        assert verify_checksum(json.loads(json.dumps(entry)))

    def test_any_field_change_breaks_verification(self):
        entry = {"a": 1, "b": "x"}
        encode_stamped(entry)
        entry["a"] = 2
        assert not verify_checksum(entry)

    def test_legacy_entry_without_stamp_fails(self):
        """Nothing vouches for an unstamped entry's bytes: written before
        checksums, or its own ``"checksum"`` key was damaged."""
        assert not verify_checksum({"a": 1})
        assert not verify_checksum({})

    def test_non_dict_fails(self):
        assert not verify_checksum([1, 2, 3])
        assert not verify_checksum(None)
        assert not verify_checksum("sha256:deadbeef")

    def test_checksum_excludes_its_own_field(self):
        entry = {"a": 1}
        digest = payload_checksum(entry)
        encode_stamped(entry)
        assert payload_checksum(entry) == digest

    def test_quarantine_renames_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w") as f:
            f.write("rot")
        assert quarantine_corrupt(path)
        assert not os.path.exists(path)
        assert os.path.exists(path + CORRUPT_SUFFIX)
        # A second quarantine of the now-missing path is a clean no-op.
        assert not quarantine_corrupt(path)


class TestResultCacheQuarantine:
    """A bad record in the result log is never served: the store drops
    it from its index, the point recomputes the same numbers, and the
    recomputed record supersedes it.  None of this raises."""

    def test_unparseable_entry_is_quarantined_miss(self, tmp_path):
        """An unparseable *middle* line: its point recomputes, the records
        around it still hit."""
        cache_dir = str(tmp_path)
        fresh, _ = _sims(isas=("scalar", "mom", "mmx"))
        _sims(cache_dir, isas=("scalar", "mom", "mmx"))
        lines = _records(cache_dir)
        lines[1] = "{ this is not json\n"
        _rewrite(cache_dir, lines)

        cache = ResultCache(cache_dir)
        assert cache.get(_POINT) is None
        assert cache.get(SweepPoint("comp", "mmx", _CFG, _SPEC)) is not None
        sims, engine = _sims(cache_dir, isas=("scalar", "mom", "mmx"))
        assert engine.last_simulated == 1 and engine.last_cached == 2
        assert sims == fresh

    def test_checksum_mismatch_is_quarantined_miss(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh, _ = _sims()
        _sims(cache_dir)
        entry = json.loads(_records(cache_dir)[0])
        entry["sim"]["cycles"] += 1  # silent bit-rot: still valid JSON
        _rewrite(cache_dir, [json.dumps(entry) + "\n"])

        cache = ResultCache(cache_dir)
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1, "a dropped record is not counted twice"
        sims, engine = _sims(cache_dir)
        assert engine.last_simulated == 1
        assert sims == fresh

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        """A torn tail (a writer killed mid-record) is skipped."""
        cache_dir = str(tmp_path)
        fresh, _ = _sims()
        _sims(cache_dir)
        (line,) = _records(cache_dir)
        _rewrite(cache_dir, [line[: len(line) // 2]])

        cache = ResultCache(cache_dir)
        assert cache.get(_POINT) is None
        assert cache.corrupt == 0 and cache.misses == 1
        sims, engine = _sims(cache_dir)
        assert engine.last_simulated == 1
        assert sims == fresh

    def test_legacy_entry_without_stamp_is_a_miss(self, tmp_path):
        """An unstamped record recomputes once; its stamped successor
        hits."""
        cache_dir = str(tmp_path)
        fresh, _ = _sims()
        _sims(cache_dir)
        entry = json.loads(_records(cache_dir)[0])
        del entry["checksum"]
        _rewrite(cache_dir, [json.dumps(entry) + "\n"])

        cache = ResultCache(cache_dir)
        assert cache.get(_POINT) is None
        assert cache.hits == 0 and cache.corrupt == 1
        sims, engine = _sims(cache_dir)
        assert engine.last_simulated == 1
        assert sims == fresh
        assert ResultCache(cache_dir).get(_POINT) is not None

    def test_schema_mismatch_on_verified_bytes_is_plain_miss(self, tmp_path):
        """An older writer's schema (verified bytes, missing keys) is a
        recompute, not corruption."""
        cache_dir = str(tmp_path)
        _sims(cache_dir)
        entry = json.loads(_records(cache_dir)[0])
        del entry["sim"]
        _rewrite(cache_dir, [encode_stamped(entry) + "\n"])

        cache = ResultCache(cache_dir)
        assert cache.get(_POINT) is None
        assert cache.corrupt == 0 and cache.misses == 1

    def test_sweep_heals_quarantined_entry(self, tmp_path):
        """The recomputed record lands in a new segment and wins over the
        rotten one on every later read."""
        cache_dir = str(tmp_path)
        _sims(cache_dir)
        _rewrite(cache_dir, ["rot\n"])
        _sims(cache_dir)
        assert len(os.listdir(tmp_path / "log")) == 2
        _, engine = _sims(cache_dir)
        assert engine.last_cached == 1 and engine.last_simulated == 0


class TestSegments:
    def test_later_record_supersedes_earlier(self, tmp_path):
        cache_dir = str(tmp_path)
        sims, _ = _sims(cache_dir)
        (line,) = _records(cache_dir)
        entry = json.loads(line)
        entry["sim"]["cycles"] += 1000
        _rewrite(cache_dir, [line, encode_stamped(entry) + "\n"])
        cached = ResultCache(cache_dir).get(_POINT)
        assert cached[0].cycles == sims[0].cycles + 1000
        # Across segments, the newer segment (its name starts with its
        # creation time) wins over the older ones.
        segment = os.path.basename(_segment(cache_dir))
        created = int(segment.split("-")[0])
        for stamp, extra in ((created + 1, 2000), (created - 1, 3000)):
            entry["sim"]["cycles"] = sims[0].cycles + extra
            with open(tmp_path / "log" / f"{stamp}-1.jsonl", "w") as f:
                f.write(encode_stamped(entry) + "\n")
        cached = ResultCache(cache_dir).get(_POINT)
        assert cached[0].cycles == sims[0].cycles + 2000

    def test_put_updates_the_index(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is None
        sims, _ = _sims()
        from repro.trace.stats import TraceStats

        cache.put(_POINT, sims[0], TraceStats())
        cache.close()
        assert cache.get(_POINT)[0] == sims[0]

    def test_two_processes_leave_two_segments_a_third_hits_both(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "..", "src"))

        def sweep(*isas, **popen):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep", "--kernels", "comp",
                 "--ways", "4", "--scale", "1", "--seed", "7",
                 "--cache-dir", str(tmp_path), "--isas", *isas],
                env=env, stderr=subprocess.PIPE, text=True, **popen)

        writers = [sweep(isa, stdout=subprocess.DEVNULL)
                   for isa in ("scalar", "mom")]
        for writer in writers:
            _out, err = writer.communicate(timeout=300)
            assert writer.returncode == 0, err
        segments = os.listdir(tmp_path / "log")
        assert len(segments) == 2
        assert len({name.split("-")[1] for name in segments}) == 2, \
            "one segment per writing process"
        out, err = sweep("scalar", "mom",
                         stdout=subprocess.PIPE).communicate(timeout=300)
        assert "0 point(s) simulated, 2 from cache" in out, err

    def test_hit_touches_its_segment_once(self, tmp_path, count_calls):
        cache_dir = str(tmp_path)
        _sims(cache_dir, isas=("scalar", "mom"))
        segment = _segment(cache_dir)
        os.utime(segment, (1, 1))
        touches = count_calls(os, "utime")
        cache = ResultCache(cache_dir)
        for isa in ("scalar", "mom", "scalar"):
            assert cache.get(SweepPoint("comp", isa, _CFG, _SPEC))
        assert [args[0] for args, _ in touches] == [segment]
        assert os.stat(segment).st_mtime > 1


class TestPreSegmentLayout:
    """A cache written before the segment log: one file per point at
    ``<key[:2]>/<key>.json``."""

    def _legacy_cache(self, cache_dir: str) -> str:
        _sims(cache_dir)
        entry = json.loads(_records(cache_dir)[0])
        os.unlink(_segment(cache_dir))
        os.rmdir(os.path.join(cache_dir, "log"))
        key = point_key(_POINT)
        path = os.path.join(cache_dir, key[:2], key + ".json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            f.write(encode_stamped(entry))
        with open(path + CORRUPT_SUFFIX, "w") as f:
            f.write("rot")
        return path

    def test_per_point_files_read_as_misses(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh, _ = _sims()
        self._legacy_cache(cache_dir)
        assert ResultCache(cache_dir).get(_POINT) is None
        sims, engine = _sims(cache_dir)
        assert engine.last_simulated == 1
        assert sims == fresh

    def test_stats_report_and_gc_removes_them(self, tmp_path):
        cache_dir = str(tmp_path)
        path = self._legacy_cache(cache_dir)
        stats = cache_stats(cache_dir)
        assert stats.legacy_files == 2
        assert stats.entries["results"] == 0
        report = gc_cache(cache_dir)
        assert report.legacy_removed == 2
        assert report.removed == 0, "live entries untouched"
        assert not os.path.exists(os.path.dirname(path))
        assert cache_stats(cache_dir).total_entries == 1  # the trace

    def test_clear_removes_them(self, tmp_path):
        cache_dir = str(tmp_path)
        path = self._legacy_cache(cache_dir)
        report = clear_cache(cache_dir)
        assert report.legacy_removed == 2
        assert not os.path.exists(os.path.dirname(path))
        assert cache_stats(cache_dir).total_entries == 0

    def test_cli_reports_them(self, tmp_path, capsys):
        from repro.cli import main

        self._legacy_cache(str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "pre-segment result files: 2" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 pre-segment result file(s)" in \
            capsys.readouterr().out


class TestTraceCacheQuarantine:
    def test_unparseable_entry_is_quarantined_miss(self, tmp_path):
        _populate(str(tmp_path))
        path = _trace_path(str(tmp_path))
        with open(path, "w") as f:
            f.write("{ this is not json")

        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_checksum_mismatch_is_quarantined_miss(self, tmp_path):
        _populate(str(tmp_path))
        path = _trace_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        entry["trace"]["instrs"] = entry["trace"]["instrs"][:-1]
        with open(path, "w") as f:
            json.dump(entry, f)

        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_legacy_entry_without_stamp_is_a_miss(self, tmp_path):
        """An unstamped trace is a miss: it rebuilds once and is re-put
        stamped."""
        _populate(str(tmp_path))
        path = _trace_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        del entry["checksum"]
        with open(path, "w") as f:
            json.dump(entry, f)

        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        # A result miss on the same trace rebuilds it once, stamped.
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.run([SweepPoint("comp", "mom", MachineConfig.for_way(2),
                               _SPEC)])
        assert engine.last_trace_builds == 1
        with open(path) as f:
            assert verify_checksum(json.load(f))
        assert TraceCache(os.path.join(str(tmp_path), "traces")).get(
            _POINT) is not None


class TestManageCorruptSweep:
    def _quarantine_one(self, cache_dir: str) -> str:
        path = _trace_path(cache_dir)
        with open(path, "w") as f:
            f.write("rot")
        traces = TraceCache(os.path.join(cache_dir, "traces"))
        assert traces.get(_POINT) is None
        return path + CORRUPT_SUFFIX

    def test_stats_count_quarantined_files(self, tmp_path):
        points = _populate(str(tmp_path))
        corrupt = self._quarantine_one(str(tmp_path))
        stats = cache_stats(str(tmp_path))
        assert stats.corrupt_files == 1
        assert stats.corrupt_bytes == os.path.getsize(corrupt)
        # The quarantined file is no longer a cache entry.
        assert stats.entries["traces"] == points - 1
        assert stats.to_dict()["corrupt_files"] == 1

    def test_gc_sweeps_quarantined_files_without_bounds(self, tmp_path):
        _populate(str(tmp_path))
        corrupt = self._quarantine_one(str(tmp_path))
        report = gc_cache(str(tmp_path))
        assert report.corrupt_removed == 1
        assert report.corrupt_bytes_freed > 0
        assert report.removed == 0, "live entries untouched"
        assert not os.path.exists(corrupt)

    def test_clear_sweeps_quarantined_files(self, tmp_path):
        _populate(str(tmp_path))
        corrupt = self._quarantine_one(str(tmp_path))
        report = clear_cache(str(tmp_path))
        assert report.corrupt_removed == 1
        assert not os.path.exists(corrupt)
        assert cache_stats(str(tmp_path)).total_entries == 0


class TestCLISurface:
    def test_stats_reports_corrupt_line(self, tmp_path, capsys):
        from repro.cli import main

        _populate(str(tmp_path))
        TestManageCorruptSweep()._quarantine_one(str(tmp_path))

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert cache_stats(str(tmp_path)).corrupt_files == 0
