"""Cache-entry integrity: embedded checksums and corrupt-entry quarantine.

Atomic writes guarantee no *half-written* entry is ever read; these tests
cover the other failure mode — bytes that rot after the rename (disk
corruption, truncating copies).  Every store must treat an unparseable or
checksum-mismatched entry as a miss, quarantine it to ``*.corrupt``, and
recompute; ``repro cache stats`` counts the quarantined files and
``gc``/``clear`` sweep them.
"""

from __future__ import annotations

import json
import os

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


def _result_path(cache_dir: str) -> str:
    return ResultCache(cache_dir)._path(point_key(_POINT))


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

    def test_legacy_entry_without_stamp_passes(self):
        assert verify_checksum({"a": 1})

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
    def test_unparseable_entry_is_quarantined_miss(self, tmp_path):
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path, "w") as f:
            f.write("{ this is not json")

        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_checksum_mismatch_is_quarantined_miss(self, tmp_path):
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        entry["sim"]["cycles"] += 1  # silent bit-rot: still valid JSON
        with open(path, "w") as f:
            json.dump(entry, f)

        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path) as f:
            body = f.read()
        with open(path, "w") as f:
            f.write(body[: len(body) // 2])

        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 1
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_legacy_entry_without_stamp_still_hits(self, tmp_path):
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        del entry["checksum"]
        with open(path, "w") as f:
            json.dump(entry, f)

        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is not None
        assert cache.hits == 1
        assert cache.corrupt == 0

    def test_schema_mismatch_on_verified_bytes_is_plain_miss(self, tmp_path):
        """An older writer's schema (verified bytes, missing keys) must not
        be quarantined — only a recompute."""
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        del entry["sim"]
        with open(path, "w") as f:
            f.write(encode_stamped(entry))

        cache = ResultCache(str(tmp_path))
        assert cache.get(_POINT) is None
        assert cache.corrupt == 0
        assert os.path.exists(path), "plain miss must leave the entry alone"

    def test_sweep_heals_quarantined_entry(self, tmp_path):
        """A corrupt entry reads as a miss; the re-run recomputes and
        rewrites a good entry under the same key."""
        _populate(str(tmp_path))
        path = _result_path(str(tmp_path))
        with open(path, "w") as f:
            f.write("rot")

        engine = SweepEngine(cache_dir=str(tmp_path))
        results = engine.run(SweepSpec.make(kernels=["comp"], configs=[_CFG],
                                            spec=_SPEC))
        assert all(not r.cached for r in results
                   if r.point.isa == "mom" and r.point.kernel == "comp")
        assert os.path.exists(path)
        with open(path) as f:
            assert verify_checksum(json.load(f))


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

    def test_legacy_entry_without_stamp_still_hits(self, tmp_path):
        _populate(str(tmp_path))
        path = _trace_path(str(tmp_path))
        with open(path) as f:
            entry = json.load(f)
        del entry["checksum"]
        with open(path, "w") as f:
            json.dump(entry, f)

        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        assert cache.get(_POINT) is not None
        assert cache.corrupt == 0


class TestManageCorruptSweep:
    def _quarantine_one(self, cache_dir: str) -> str:
        path = _result_path(cache_dir)
        with open(path, "w") as f:
            f.write("rot")
        assert ResultCache(cache_dir).get(_POINT) is None
        return path + CORRUPT_SUFFIX

    def test_stats_count_quarantined_files(self, tmp_path):
        points = _populate(str(tmp_path))
        corrupt = self._quarantine_one(str(tmp_path))
        stats = cache_stats(str(tmp_path))
        assert stats.corrupt_files == 1
        assert stats.corrupt_bytes == os.path.getsize(corrupt)
        # The quarantined file is no longer a cache entry.
        assert stats.entries["results"] == points - 1
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
        path = _result_path(str(tmp_path))
        with open(path, "w") as f:
            f.write("rot")
        ResultCache(str(tmp_path)).get(_POINT)

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert cache_stats(str(tmp_path)).corrupt_files == 0
