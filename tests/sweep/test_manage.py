"""Tests of the cache management layer (stats / GC / clear) and its CLI.

Eviction is exercised against a real engine-populated cache root so both
sections — result-log segments and trace entries — are present.  A
populated root holds one segment (one writing engine) and one trace per
(kernel, ISA).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cli import main
from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep import (
    SweepEngine,
    cache_stats,
    clear_cache,
    gc_cache,
    grid_points,
)
from repro.sweep.manage import iter_cache_entries
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _populate(cache_dir: str, kernels=("comp", "addblock")) -> int:
    """Run a small sweep into ``cache_dir``; returns the point count."""
    sweep = grid_points(kernels, ISA_VARIANTS, [4], [1], _SPEC.scale,
                        _SPEC.seed)
    SweepEngine(cache_dir=cache_dir).run(sweep)
    return len(sweep)


class TestStats:
    def test_empty_root(self, tmp_path):
        stats = cache_stats(str(tmp_path))
        assert stats.total_entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_mtime is None

    def test_counts_both_sections(self, tmp_path):
        points = _populate(str(tmp_path))
        stats = cache_stats(str(tmp_path))
        assert stats.entries["results"] == points
        assert stats.segments == 1
        assert stats.entries["traces"] == points  # one trace per (kernel, isa)
        assert stats.total_entries == 2 * points
        assert stats.bytes["results"] > 0
        assert stats.bytes["traces"] > stats.bytes["results"]
        assert stats.oldest_mtime is not None
        assert stats.newest_mtime >= stats.oldest_mtime


class TestGC:
    def test_noop_without_bounds(self, tmp_path):
        points = _populate(str(tmp_path))
        report = gc_cache(str(tmp_path))
        assert report.removed == 0
        assert report.kept == 1 + points

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        _populate(str(tmp_path))
        entries = sorted(iter_cache_entries(str(tmp_path)),
                         key=lambda e: e.mtime)
        # Age the first entry far into the past so the eviction order is
        # unambiguous.
        oldest = entries[0]
        os.utime(oldest.path, (oldest.mtime - 9999, oldest.mtime - 9999))

        total = sum(e.size for e in entries)
        report = gc_cache(str(tmp_path), max_bytes=total - 1)
        assert report.removed >= 1
        assert not os.path.exists(oldest.path), "oldest entry evicted first"
        assert report.bytes_kept <= total - 1

    def test_size_bound_zero_clears_everything(self, tmp_path):
        points = _populate(str(tmp_path))
        report = gc_cache(str(tmp_path), max_bytes=0)
        assert report.removed == 1 + points
        assert cache_stats(str(tmp_path)).total_entries == 0

    def test_age_bound_evicts_only_old_entries(self, tmp_path):
        _populate(str(tmp_path))
        entries = list(iter_cache_entries(str(tmp_path)))
        now = time.time()
        old = entries[: len(entries) // 2]
        for entry in old:
            os.utime(entry.path, (now - 10 * 86400, now - 10 * 86400))

        report = gc_cache(str(tmp_path), max_age_seconds=5 * 86400, now=now)
        assert report.removed == len(old)
        survivors = {e.path for e in iter_cache_entries(str(tmp_path))}
        assert survivors == {e.path for e in entries} - {e.path for e in old}

    def test_size_bound_drops_least_recently_hit_segment_first(
            self, tmp_path):
        """A hit protects its segment: eviction is least recently *hit*,
        not write order."""
        from repro.sweep import ResultCache, SweepPoint

        _populate(str(tmp_path), kernels=("comp",))
        _populate(str(tmp_path), kernels=("addblock",))
        segments = [e for e in iter_cache_entries(str(tmp_path))
                    if e.section == "results"]
        assert len(segments) == 2
        first, second = (e.path for e in segments)
        # Age both, the first-written one further, then *hit* a record of
        # the first segment: its mtime jumps to "now".
        now = time.time()
        os.utime(first, (now - 9999, now - 9999))
        os.utime(second, (now - 999, now - 999))
        point = SweepPoint("comp", "scalar", MachineConfig.for_way(4), _SPEC)
        assert ResultCache(str(tmp_path)).get(point) is not None

        # Room for the traces and one segment: the traces were used after
        # the second segment and before the hit, so the second goes.
        traces = cache_stats(str(tmp_path)).bytes["traces"]
        report = gc_cache(str(tmp_path),
                          max_bytes=traces + os.path.getsize(first))
        assert os.path.exists(first), "recently hit segment was evicted"
        assert not os.path.exists(second)
        assert report.removed == 1

    def test_trace_reads_touch_entries_too(self, tmp_path):
        from repro.sweep import SweepPoint, TraceCache

        _populate(str(tmp_path))
        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        point = SweepPoint("comp", "mom", MachineConfig.for_way(4), _SPEC)
        path = cache.path_for(point)
        past = time.time() - 9999
        os.utime(path, (past, past))
        assert cache.get(point) is not None
        assert os.stat(path).st_mtime > past + 9000

    def test_unknown_keep_section_rejected(self, tmp_path):
        """``gc_cache`` has no ``keep=`` any more: every section is
        evicted alike, so no section name is accepted."""
        with pytest.raises(TypeError):
            gc_cache(str(tmp_path), max_bytes=0, keep=("traces",))

    def test_engine_recovers_after_gc(self, tmp_path):
        """A GC'd cache is a cold cache, never a broken one."""
        sweep = grid_points(["comp"], ISA_VARIANTS, [4], [1], _SPEC.scale,
                            _SPEC.seed)
        before = SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        gc_cache(str(tmp_path), max_bytes=0)
        engine = SweepEngine(cache_dir=str(tmp_path))
        after = engine.run(sweep)
        assert engine.report.simulated == len(after)
        assert [r.sim for r in after] == [r.sim for r in before]


class TestClear:
    def test_clear_removes_everything(self, tmp_path):
        points = _populate(str(tmp_path))
        report = clear_cache(str(tmp_path))
        assert report.removed == 1 + points
        assert cache_stats(str(tmp_path)).total_entries == 0
        assert not os.path.exists(tmp_path / "log")


class TestTmpFiles:
    """Orphaned ``*.tmp`` files from interrupted atomic trace writes."""

    def _orphan(self, root, age_seconds, name="deadbeef1234.tmp"):
        path = os.path.join(str(root), "traces", "ab", name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("x" * 64)
        past = time.time() - age_seconds
        os.utime(path, (past, past))
        return path

    def test_stats_counts_and_classifies(self, tmp_path):
        from repro.sweep.manage import TMP_GRACE_SECONDS

        _populate(str(tmp_path))
        before = cache_stats(str(tmp_path)).total_entries
        self._orphan(tmp_path, age_seconds=2 * TMP_GRACE_SECONDS, name="a.tmp")
        self._orphan(tmp_path, age_seconds=0, name="b.tmp")
        stats = cache_stats(str(tmp_path))
        assert stats.tmp_files == 2
        assert stats.tmp_bytes == 128
        assert stats.stale_tmp_files == 1
        # Orphans are not cache entries.
        assert stats.total_entries == before

    def test_gc_sweeps_stale_orphans_even_without_bounds(self, tmp_path):
        from repro.sweep.manage import TMP_GRACE_SECONDS

        points = _populate(str(tmp_path))
        stale = self._orphan(tmp_path, age_seconds=2 * TMP_GRACE_SECONDS,
                             name="a.tmp")
        young = self._orphan(tmp_path, age_seconds=0, name="b.tmp")
        report = gc_cache(str(tmp_path))
        assert report.removed == 0          # no bounds: no entry evicted
        assert report.kept == 1 + points
        assert report.tmp_removed == 1
        assert report.tmp_bytes_freed == 64
        assert not os.path.exists(stale)
        assert os.path.exists(young), "in-flight writer's file untouched"

    def test_gc_grace_period_is_configurable(self, tmp_path):
        path = self._orphan(tmp_path, age_seconds=10)
        gc_cache(str(tmp_path), tmp_grace_seconds=3600)
        assert os.path.exists(path)
        report = gc_cache(str(tmp_path), tmp_grace_seconds=1)
        assert report.tmp_removed == 1
        assert not os.path.exists(path)

    def test_clear_removes_orphans_of_any_age(self, tmp_path):
        fresh = self._orphan(tmp_path, age_seconds=0)
        report = clear_cache(str(tmp_path))
        assert report.tmp_removed == 1
        assert not os.path.exists(fresh)

    def test_trace_section_orphans_are_seen_too(self, tmp_path):
        from repro.sweep.manage import TMP_GRACE_SECONDS

        path = os.path.join(str(tmp_path), "traces", "cd", "x.tmp")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").write("y")
        past = time.time() - 2 * TMP_GRACE_SECONDS
        os.utime(path, (past, past))
        assert cache_stats(str(tmp_path)).stale_tmp_files == 1
        assert gc_cache(str(tmp_path)).tmp_removed == 1

    def test_stats_and_gc_cli_report_orphans(self, tmp_path, capsys):
        from repro.sweep.manage import TMP_GRACE_SECONDS

        _populate(str(tmp_path))
        self._orphan(tmp_path, age_seconds=2 * TMP_GRACE_SECONDS)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "orphaned temp files: 1" in out
        assert "1 stale (gc will sweep)" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "evicted 0 entries" in out
        assert "swept 1 stale temp file(s)" in out


class TestCacheCLI:
    def test_stats_command(self, tmp_path, capsys):
        points = _populate(str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"results  {points:6d} entries" in out
        assert "in 1 segment(s)" in out
        assert f"traces   {points:6d} entries" in out
        assert "lowered payloads" not in out
        assert "least recently used entry" in out

    def test_gc_command_keep_traces(self, tmp_path, capsys):
        """``--keep-traces`` and ``--keep-results`` are gone: gc takes
        only ``--max-mb`` and ``--max-age-days``, and the flags exit 2."""
        for flag in ("--keep-traces", "--keep-results"):
            with pytest.raises(SystemExit) as excinfo:
                main(["cache", "gc", "--cache-dir", str(tmp_path),
                      "--max-mb", "0", flag])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    def test_gc_command_size_limit(self, tmp_path, capsys):
        _populate(str(tmp_path))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "0 kept" in out
        assert cache_stats(str(tmp_path)).total_entries == 0

    def test_gc_command_age_limit_keeps_fresh_entries(self, tmp_path, capsys):
        points = _populate(str(tmp_path))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-age-days", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 0 entries" in out
        assert cache_stats(str(tmp_path)).total_entries == 2 * points

    def test_clear_command(self, tmp_path, capsys):
        _populate(str(tmp_path))
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert cache_stats(str(tmp_path)).total_entries == 0

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out and "timing model" in out
