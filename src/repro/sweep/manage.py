"""Management of the on-disk sweep caches: stats, eviction (GC), clearing.

One cache root holds the result log's JSONL segments,
``<cache_dir>/log/<time_ns>-<pid>.jsonl``
(:class:`~repro.sweep.cache.ResultCache`), and the trace entries,
``<cache_dir>/traces/<key[:2]>/<key>.json``
(:class:`~repro.sweep.tracecache.TraceCache`).  Every eviction unit — a
whole segment or one trace file — is one :class:`CacheEntry` whose mtime
is its last use: a segment's moves when its writer appends and when a
store first hits one of its records, a trace file's on every read.  All
stores are content-addressed, so eviction is always safe — a removed
entry is a future miss, never a correctness problem.

Eviction policy (:func:`gc_cache`): drop every entry older than
``max_age_seconds``; if the survivors still exceed ``max_bytes``, drop
least recently used first until the total fits, results and traces
alike.

Files that are not cache entries are swept too: ``*.tmp`` orphans of
interrupted atomic trace writes once older than :data:`TMP_GRACE_SECONDS`
(a younger one may belong to a live writer), and at any age quarantined
``*.corrupt`` trace entries and the files of the pre-segment result layout
(``<cache_dir>/<key[:2]>/<key>.json``, never read: a miss, never a wrong
hit).  :func:`cache_stats` counts all of them.  The CLI exposes this
module as ``repro cache stats|gc|clear``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.atomicio import CORRUPT_SUFFIX, TMP_SUFFIX
from repro.sweep.cache import LOG_SUBDIR, SEGMENT_SUFFIX, scan_log
from repro.sweep.tracecache import TRACE_SUBDIR

__all__ = ["CacheEntry", "CacheStats", "GCReport", "TMP_GRACE_SECONDS",
           "iter_cache_entries", "cache_stats", "gc_cache", "clear_cache"]

#: Logical sections of a shared cache root.
_SECTIONS = ("results", "traces")

#: Grace period before an orphaned ``*.tmp`` file counts as stale: a file
#: this young may be a live writer's in-flight entry, so GC leaves it.
TMP_GRACE_SECONDS = 3600.0

#: ``(path, size, mtime)`` of one file.
_File = Tuple[str, int, float]

@dataclass(frozen=True)
class CacheEntry:
    """One eviction unit: a result segment or a trace file."""

    path: str
    section: str  # "results" or "traces"
    size: int     # bytes
    mtime: float  # POSIX timestamp of the last use


@dataclass
class CacheStats:
    """Aggregate usage of one cache root, per section and overall."""

    cache_dir: str
    #: Live result records (distinct keys in the log) and trace entries.
    entries: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _SECTIONS})
    bytes: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _SECTIONS})
    #: Result-log segments holding those records.
    segments: int = 0
    #: Orphaned ``*.tmp`` files from interrupted atomic writes (all ages).
    tmp_files: int = 0
    tmp_bytes: int = 0
    #: Of those, how many are past the grace period (``gc`` sweeps these).
    stale_tmp_files: int = 0
    #: Quarantined ``*.corrupt`` trace entries; ``gc``/``clear`` sweep them.
    corrupt_files: int = 0
    corrupt_bytes: int = 0
    #: Pre-segment result files (never read; ``gc``/``clear`` remove them).
    legacy_files: int = 0
    legacy_bytes: int = 0
    oldest_mtime: Optional[float] = None
    newest_mtime: Optional[float] = None

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-able stats (``repro cache stats --json``): stable keys for
        scripts; the segment and pre-segment counts are text-only."""
        out = asdict(self)
        for text_only in ("segments", "legacy_files", "legacy_bytes"):
            del out[text_only]
        return {**out, "total_entries": self.total_entries,
                "total_bytes": self.total_bytes}


@dataclass
class GCReport:
    """Outcome of one :func:`gc_cache` pass."""

    #: Eviction units (result segments and trace files) removed and kept.
    removed: int = 0
    kept: int = 0
    bytes_freed: int = 0
    bytes_kept: int = 0
    #: Files that were never cache entries: stale temporary files, ...
    tmp_removed: int = 0
    tmp_bytes_freed: int = 0
    #: ... quarantined corrupt trace entries, ...
    corrupt_removed: int = 0
    corrupt_bytes_freed: int = 0
    #: ... and pre-segment result files.
    legacy_removed: int = 0
    legacy_bytes_freed: int = 0


def _listdir(directory: str) -> List[str]:
    try:
        return sorted(os.listdir(directory))
    except OSError:
        return []


def _files(directory: str, suffix: str = "") -> Iterator[_File]:
    """``(path, size, mtime)`` of the files in ``directory`` whose names
    end with ``suffix``, in name order."""
    for name in _listdir(directory):
        if name.endswith(suffix):
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, st.st_mtime


def _fanout_files(root: str, suffix: str = "") -> Iterator[_File]:
    """:func:`_files` of every two-character key fan-out under ``root``."""
    for name in _listdir(root):
        if len(name) == 2 and os.path.isdir(os.path.join(root, name)):
            yield from _files(os.path.join(root, name), suffix)


def iter_cache_entries(cache_dir: str) -> Iterator[CacheEntry]:
    """Yield every eviction unit under a shared cache root: the result
    segments, then the trace entries."""
    for section, files in (
            ("results", _files(os.path.join(cache_dir, LOG_SUBDIR),
                               SEGMENT_SUFFIX)),
            ("traces", _fanout_files(os.path.join(cache_dir, TRACE_SUBDIR),
                                     ".json"))):
        for path, size, mtime in files:
            yield CacheEntry(path=path, section=section, size=size,
                             mtime=mtime)


def cache_stats(cache_dir: str, now: Optional[float] = None) -> CacheStats:
    """Scan a cache root and return per-section entry/byte counts.

    An admin-path scan: it reads every segment to count live records, and
    a tempfile is stale when :data:`TMP_GRACE_SECONDS` older than ``now``
    (default: the current time)."""
    import time

    reference = time.time() if now is None else now
    stats = CacheStats(cache_dir=os.fspath(cache_dir))
    for entry in iter_cache_entries(cache_dir):
        if entry.section == "results":
            stats.segments += 1
        else:
            stats.entries["traces"] += 1
        stats.bytes[entry.section] += entry.size
        if stats.oldest_mtime is None or entry.mtime < stats.oldest_mtime:
            stats.oldest_mtime = entry.mtime
        if stats.newest_mtime is None or entry.mtime > stats.newest_mtime:
            stats.newest_mtime = entry.mtime
    stats.entries["results"] = len(
        scan_log(os.path.join(cache_dir, LOG_SUBDIR)))
    traces = os.path.join(cache_dir, TRACE_SUBDIR)
    for _path, size, mtime in _fanout_files(traces, TMP_SUFFIX):
        stats.tmp_files += 1
        stats.tmp_bytes += size
        if reference - mtime > TMP_GRACE_SECONDS:
            stats.stale_tmp_files += 1
    for _path, size, _mtime in _fanout_files(traces, CORRUPT_SUFFIX):
        stats.corrupt_files += 1
        stats.corrupt_bytes += size
    for _path, size, _mtime in _fanout_files(cache_dir):
        stats.legacy_files += 1
        stats.legacy_bytes += size
    return stats


def _unlink(path: str) -> bool:
    """Remove one file, then its directory if that just emptied (best
    effort); returns whether the file went."""
    try:
        os.unlink(path)
    except OSError:
        return False
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass
    return True


def _remove(entry: CacheEntry, report: GCReport) -> None:
    if _unlink(entry.path):
        report.removed += 1
        report.bytes_freed += entry.size


def _sweep(cache_dir: str, report: GCReport,
           tmp_cutoff: float) -> None:
    """Unlink the files that are not cache entries: orphaned tempfiles
    last written before ``tmp_cutoff``, and (no grace: neither is ever
    read) quarantined trace entries and pre-segment result files."""
    traces = os.path.join(cache_dir, TRACE_SUBDIR)
    for path, size, mtime in list(_fanout_files(traces, TMP_SUFFIX)):
        if mtime < tmp_cutoff and _unlink(path):
            report.tmp_removed += 1
            report.tmp_bytes_freed += size
    for path, size, _mtime in list(_fanout_files(traces, CORRUPT_SUFFIX)):
        if _unlink(path):
            report.corrupt_removed += 1
            report.corrupt_bytes_freed += size
    for path, size, _mtime in list(_fanout_files(cache_dir)):
        if _unlink(path):
            report.legacy_removed += 1
            report.legacy_bytes_freed += size


def gc_cache(cache_dir: str, max_bytes: Optional[int] = None,
             max_age_seconds: Optional[float] = None,
             now: Optional[float] = None,
             tmp_grace_seconds: float = TMP_GRACE_SECONDS) -> GCReport:
    """Evict cache entries by age and/or total size; returns a report.

    Results go a whole segment at a time.  Whatever the bounds, files
    that are not entries are swept too (see :func:`_sweep`).

    Parameters
    ----------
    cache_dir:
        Shared cache root (results plus traces).
    max_bytes:
        Keep total on-disk size at or under this many bytes, evicting
        least-recently-used entries first.  ``None`` puts no size bound.
    max_age_seconds:
        Evict every entry unused for longer than this.  ``None`` puts no
        age bound.
    now:
        Reference timestamp for age computation (defaults to the current
        time; tests pin it).
    tmp_grace_seconds:
        Minimum age before an orphaned tempfile is swept (younger ones may
        belong to a live writer).
    """
    import time

    reference = time.time() if now is None else now
    entries: List[CacheEntry] = sorted(iter_cache_entries(cache_dir),
                                       key=lambda e: e.mtime)
    report = GCReport()

    survivors: List[CacheEntry] = []
    for entry in entries:
        if (max_age_seconds is not None
                and reference - entry.mtime > max_age_seconds):
            _remove(entry, report)
        else:
            survivors.append(entry)

    if max_bytes is not None:
        # survivors are least-recently-used-first: evict from the front
        # until the total fits.
        total = sum(e.size for e in survivors)
        evicted = 0
        for entry in survivors:
            if total <= max_bytes:
                break
            _remove(entry, report)
            total -= entry.size
            evicted += 1
        survivors = survivors[evicted:]

    _sweep(cache_dir, report, tmp_cutoff=reference - tmp_grace_seconds)

    report.kept = len(survivors)
    report.bytes_kept = sum(e.size for e in survivors)
    return report


def clear_cache(cache_dir: str) -> GCReport:
    """Remove every segment (then ``log/``), trace entry and non-entry
    file under a cache root, tempfiles of any age included; returns what
    was freed."""
    report = GCReport()
    for entry in list(iter_cache_entries(cache_dir)):
        _remove(entry, report)
    _sweep(cache_dir, report, tmp_cutoff=float("inf"))
    return report
