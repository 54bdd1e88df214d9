"""Management of the on-disk sweep caches: stats, eviction (GC), clearing.

One cache root holds every store the engine uses —

* JSON result entries at ``<cache_dir>/<key[:2]>/<key>.json``
  (:class:`~repro.sweep.cache.ResultCache`) and
* trace entries at ``<cache_dir>/traces/<key[:2]>/<key>.json``
  (:class:`~repro.sweep.tracecache.TraceCache`)

— and this module treats them uniformly: every entry is one
:class:`CacheEntry` whose last-use timestamp (the file's mtime) doubles as
its age.  All stores are content-addressed, so eviction is always safe — a
removed entry is a future cache miss, never a correctness problem.

Eviction policy (:func:`gc_cache`):

1. Drop every entry older than ``max_age_seconds`` (when given).
2. If the survivors still exceed ``max_bytes`` (when given), drop
   oldest-first until the total fits.

All stores touch entries on read, so "oldest" means least recently *used*
(true LRU), and a whole section can be exempted from eviction with ``keep``
(``repro cache gc --keep-traces`` / ``--keep-results`` — e.g. protect the
expensive-to-rebuild traces while pruning cheap-to-recompute results).

Stale temporary files
---------------------

Every file-based write goes through an atomic tempfile + rename
(:mod:`repro.common.atomicio`); a process killed between the two orphans
one ``*.tmp`` file.  :func:`cache_stats` reports them and :func:`gc_cache`
sweeps any older than a grace period (:data:`TMP_GRACE_SECONDS` — young
ones may belong to a live writer), so crashes leave bounded garbage.

Quarantined corrupt entries
---------------------------

Entries embed a content checksum
(:func:`repro.common.atomicio.stamp_checksum`); a store that reads an
unparseable or checksum-mismatched entry quarantines it as ``*.corrupt``
and treats the key as a miss.  :func:`cache_stats` counts the quarantined
files, and :func:`gc_cache` / :func:`clear_cache` sweep them regardless of
age or bounds — a quarantined file is never live, it exists only for
post-mortem inspection between the miss and the next GC.

The CLI exposes all of this as ``repro cache stats|gc|clear``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.atomicio import CORRUPT_SUFFIX, TMP_SUFFIX
from repro.sweep.tracecache import TRACE_SUBDIR
from repro.timing.lowered import LOWERING_VERSION

__all__ = ["CacheEntry", "CacheStats", "GCReport", "TMP_GRACE_SECONDS",
           "iter_cache_entries", "iter_corrupt_files", "iter_tmp_files",
           "cache_stats", "gc_cache", "clear_cache"]

#: Logical sections of a shared cache root.
_SECTIONS = ("results", "traces")

#: Grace period before an orphaned ``*.tmp`` file counts as stale: a file
#: this young may be a live writer's in-flight entry, so GC leaves it.
TMP_GRACE_SECONDS = 3600.0


@dataclass(frozen=True)
class CacheEntry:
    """One cache entry: a result file or a trace file."""

    path: str
    section: str  # "results" or "traces"
    size: int     # bytes
    mtime: float  # POSIX timestamp of the last use


@dataclass
class CacheStats:
    """Aggregate usage of one cache root, per section and overall."""

    cache_dir: str
    entries: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _SECTIONS})
    bytes: Dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _SECTIONS})
    #: Trace entries carrying a lowered payload of the *live*
    #: LOWERING_VERSION (a warm read of these skips the lowering pass too).
    lowered_entries: int = 0
    #: Trace entries whose lowered payload is missing or version-stale
    #: (still valid traces; they re-lower on first use).
    stale_lowered_entries: int = 0
    #: Orphaned ``*.tmp`` files from interrupted atomic writes (all ages).
    tmp_files: int = 0
    tmp_bytes: int = 0
    #: Of those, how many exceed the GC grace period (``repro cache gc``
    #: will sweep exactly these).
    stale_tmp_files: int = 0
    #: Quarantined ``*.corrupt`` entries (failed parse or checksum
    #: mismatch on read); ``gc``/``clear`` sweep them regardless of age.
    corrupt_files: int = 0
    corrupt_bytes: int = 0
    oldest_mtime: Optional[float] = None
    newest_mtime: Optional[float] = None

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form of the stats (``repro cache stats --json``).

        Every field and derived total, plus nothing else — scripts can
        rely on these keys staying stable.
        """
        return {
            "cache_dir": self.cache_dir,
            "entries": dict(self.entries),
            "bytes": dict(self.bytes),
            "total_entries": self.total_entries,
            "total_bytes": self.total_bytes,
            "lowered_entries": self.lowered_entries,
            "stale_lowered_entries": self.stale_lowered_entries,
            "tmp_files": self.tmp_files,
            "tmp_bytes": self.tmp_bytes,
            "stale_tmp_files": self.stale_tmp_files,
            "corrupt_files": self.corrupt_files,
            "corrupt_bytes": self.corrupt_bytes,
            "oldest_mtime": self.oldest_mtime,
            "newest_mtime": self.newest_mtime,
        }


@dataclass
class GCReport:
    """Outcome of one :func:`gc_cache` pass."""

    removed: int = 0
    kept: int = 0
    bytes_freed: int = 0
    bytes_kept: int = 0
    #: Stale temporary files swept (reported separately from entries — a
    #: tmp file was never a cache entry).
    tmp_removed: int = 0
    tmp_bytes_freed: int = 0
    #: Quarantined corrupt entries swept (also not cache entries — their
    #: keys already read as misses).
    corrupt_removed: int = 0
    corrupt_bytes_freed: int = 0


def _iter_section(root: str, section: str) -> Iterator[CacheEntry]:
    """Entries of one two-level ``<fan-out>/<key>.json`` store under ``root``."""
    try:
        fanouts = sorted(os.listdir(root))
    except OSError:
        return
    for fanout in fanouts:
        # Fan-out directories are the first two hex chars of the key; the
        # traces subdir (and anything else) is not one of them.
        if len(fanout) != 2:
            continue
        subdir = os.path.join(root, fanout)
        try:
            names = sorted(os.listdir(subdir))
        except OSError:
            continue
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(subdir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield CacheEntry(path=path, section=section,
                             size=st.st_size, mtime=st.st_mtime)


def iter_cache_entries(cache_dir: str) -> Iterator[CacheEntry]:
    """Yield every entry under a shared cache root (results, then traces)."""
    yield from _iter_section(cache_dir, "results")
    yield from _iter_section(os.path.join(cache_dir, TRACE_SUBDIR), "traces")


def _iter_suffixed(cache_dir: str, suffix: str,
                   ) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every ``*<suffix>`` file under the
    root."""
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            if not name.endswith(suffix):
                continue
            path = os.path.join(root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, st.st_mtime


def iter_tmp_files(cache_dir: str) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every ``*.tmp`` file under the root.

    These are orphans of interrupted atomic writes (every live write
    unlinks its tempfile on failure; only a kill between ``mkstemp`` and
    ``os.replace`` leaves one behind).
    """
    yield from _iter_suffixed(cache_dir, TMP_SUFFIX)


def iter_corrupt_files(cache_dir: str) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every quarantined ``*.corrupt``
    entry under the root (result or trace, any fan-out)."""
    yield from _iter_suffixed(cache_dir, CORRUPT_SUFFIX)


def _has_live_lowering(path: str) -> bool:
    """Whether a trace entry embeds a current-LOWERING_VERSION payload."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            entry = json.load(f)
        lowered = entry.get("lowered")
        return (isinstance(lowered, dict)
                and lowered.get("lowering_version") == LOWERING_VERSION)
    except (OSError, ValueError):
        return False


def cache_stats(cache_dir: str, now: Optional[float] = None) -> CacheStats:
    """Scan a cache root and return per-section entry/byte counts.

    Trace entries are additionally opened to classify their lowered
    payloads (:attr:`CacheStats.lowered_entries` /
    :attr:`CacheStats.stale_lowered_entries`), and orphaned temporary
    files are counted (stale = older than :data:`TMP_GRACE_SECONDS`
    relative to ``now``, defaulting to the current time) — this is an
    admin-path scan, not something the sweep hot path ever runs.
    """
    import time

    reference = time.time() if now is None else now
    stats = CacheStats(cache_dir=os.fspath(cache_dir))
    for entry in iter_cache_entries(cache_dir):
        stats.entries[entry.section] += 1
        stats.bytes[entry.section] += entry.size
        if entry.section == "traces":
            if _has_live_lowering(entry.path):
                stats.lowered_entries += 1
            else:
                stats.stale_lowered_entries += 1
        if stats.oldest_mtime is None or entry.mtime < stats.oldest_mtime:
            stats.oldest_mtime = entry.mtime
        if stats.newest_mtime is None or entry.mtime > stats.newest_mtime:
            stats.newest_mtime = entry.mtime
    for _path, size, mtime in iter_tmp_files(cache_dir):
        stats.tmp_files += 1
        stats.tmp_bytes += size
        if reference - mtime > TMP_GRACE_SECONDS:
            stats.stale_tmp_files += 1
    for _path, size, _mtime in iter_corrupt_files(cache_dir):
        stats.corrupt_files += 1
        stats.corrupt_bytes += size
    return stats


def _remove(entry: CacheEntry, report: GCReport) -> None:
    try:
        os.unlink(entry.path)
    except OSError:
        return
    report.removed += 1
    report.bytes_freed += entry.size
    # Prune the fan-out directory when it just emptied (best effort).
    try:
        os.rmdir(os.path.dirname(entry.path))
    except OSError:
        pass


def _sweep_tmp_files(cache_dir: str, report: GCReport, reference: float,
                     grace_seconds: float) -> None:
    """Unlink orphaned tempfiles older than the grace period."""
    for path, size, mtime in list(iter_tmp_files(cache_dir)):
        if reference - mtime <= grace_seconds:
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        report.tmp_removed += 1
        report.tmp_bytes_freed += size


def _sweep_corrupt_files(cache_dir: str, report: GCReport) -> None:
    """Unlink every quarantined entry (no grace: they are never live)."""
    for path, size, _mtime in list(iter_corrupt_files(cache_dir)):
        try:
            os.unlink(path)
        except OSError:
            continue
        report.corrupt_removed += 1
        report.corrupt_bytes_freed += size


def gc_cache(cache_dir: str, max_bytes: Optional[int] = None,
             max_age_seconds: Optional[float] = None,
             now: Optional[float] = None,
             keep: Iterable[str] = (),
             tmp_grace_seconds: float = TMP_GRACE_SECONDS) -> GCReport:
    """Evict cache entries by age and/or total size; returns a report.

    All stores touch entries on read, so mtime-ordered eviction is true
    least-recently-used.  Independently of the bounds, every orphaned
    ``*.tmp`` file older than ``tmp_grace_seconds`` is swept (reported via
    :attr:`GCReport.tmp_removed`, not as an evicted entry).

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
    keep:
        Section names (``"results"``, ``"traces"``) exempt from eviction;
        their entries always survive but still count toward the size bound,
        so e.g. ``keep=("traces",)`` prunes results until the *combined*
        total fits or no evictable entry is left.
    tmp_grace_seconds:
        Minimum age before an orphaned tempfile is swept (younger ones may
        belong to a live writer).

    With neither bound given this sweeps stale tempfiles and quarantined
    ``*.corrupt`` entries, and nothing else.
    """
    import time

    reference = time.time() if now is None else now
    protected = frozenset(keep)
    unknown = protected.difference(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown cache section(s) in keep: {sorted(unknown)}")
    entries: List[CacheEntry] = sorted(iter_cache_entries(cache_dir),
                                       key=lambda e: e.mtime)
    report = GCReport()

    survivors: List[CacheEntry] = []
    for entry in entries:
        if (entry.section not in protected
                and max_age_seconds is not None
                and reference - entry.mtime > max_age_seconds):
            _remove(entry, report)
        else:
            survivors.append(entry)

    if max_bytes is not None:
        total = sum(e.size for e in survivors)
        removed_paths = set()
        # survivors are least-recently-used-first: evict evictable entries
        # from the front until the total fits.
        for entry in survivors:
            if total <= max_bytes:
                break
            if entry.section in protected:
                continue
            _remove(entry, report)
            removed_paths.add(entry.path)
            total -= entry.size
        survivors = [e for e in survivors if e.path not in removed_paths]

    _sweep_tmp_files(cache_dir, report, reference, tmp_grace_seconds)
    _sweep_corrupt_files(cache_dir, report)

    report.kept = len(survivors)
    report.bytes_kept = sum(e.size for e in survivors)
    return report


def clear_cache(cache_dir: str) -> GCReport:
    """Remove every entry under a cache root; returns what was freed.

    Clears both stores (results and traces) and every orphaned tempfile
    regardless of age.
    """
    report = GCReport()
    for entry in list(iter_cache_entries(cache_dir)):
        _remove(entry, report)
    _sweep_tmp_files(cache_dir, report, reference=float("inf"),
                     grace_seconds=0.0)
    _sweep_corrupt_files(cache_dir, report)
    return report
