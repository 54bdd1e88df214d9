"""Write-ahead result journal: crash-safe sweeps that resume where they died.

A million-point design-space sweep that dies at point 999,000 must not
re-simulate the first 999,000 points.  The :class:`SweepJournal` is the
engine's durability mechanism for exactly that: an append-only JSONL file
recording every completed point — its result-cache key (the SHA-256 content
hash from :mod:`repro.sweep.cache`, which already identifies the point
exactly), its expansion index, and the full result payload (the same
``sim``/``stats`` serialisation the result cache stores).  On startup the
engine replays the journal and serves every recorded point without
simulating, building, or even touching the result cache; only the remainder
falls through to the normal cache/compute path.

Framing and crash tolerance
---------------------------

Each record is one JSON object on one line, written with a **single**
``write`` call followed by a flush — a record either lands whole (with its
trailing newline) or is a torn tail.  A crashed writer therefore leaves at
most one partial line at the end of the file.  The reader
(:func:`read_jsonl`) treats any bytes after the last newline — and any line
that does not parse — as uncommitted: they are skipped, counted, and never
an exception.  Opening the journal for appending truncates the torn tail
first, so the file heals on resume and stays parseable by strict line
readers from then on.

The same tolerant reader serves ``--stream-jsonl`` output files, which use
identical framing and are equally likely to end mid-line after a crash.

What a record means
-------------------

The key (:func:`~repro.sweep.cache.point_key`) embeds the timing-model and
builder versions, every machine-configuration field, the kernel, ISA and
workload — so replay can never serve a stale result: a model or builder
bump (or any other change) changes the key and the old records simply
match nothing.  Records from runs that skipped golden-reference
verification carry ``"checked": false`` and replay with that flag intact.

Points the supervised engine *gave up on* (quarantined poison points,
kernel exceptions) are journaled too, as **failure records**: same key,
no ``sim``/``stats``, and a ``failure`` object holding the
:meth:`~repro.sweep.supervisor.PointFailure.to_dict` payload.  :meth:`load`
reports them separately (:attr:`SweepJournal.failed`) and never as
completed, so a resumed sweep retries failed points by default
(``--resume-failed retry``) or replays them as failures without re-running
(``--resume-failed skip``).  A success recorded after a failure supersedes
it — the retry won.

The journal is an *execution log*, not a cache: it is keyed to one sweep's
points and replays in O(points), with no eviction policy.  Long-lived
cross-sweep storage is the result cache's job
(:class:`~repro.sweep.cache.ResultCache`).

Single-writer lock
------------------

Two live processes appending to one journal would interleave records of
*different* sweeps under the same healed-tail rules — silently wrong on
resume.  Opening a journal for writing therefore takes an ``O_EXCL``
pid-stamped lockfile (``<journal>.lock``) first.  A lock whose stamped pid
is dead (the usual aftermath of SIGKILL) is reclaimed automatically; a lock
held by a *live* process raises :class:`JournalLockedError` with the owner's
pid.  The lock guards writers only — :meth:`SweepJournal.load` and
:func:`read_jsonl` never take it, so progress watchers can tail a journal
someone else is writing.  Liveness is checked with ``os.kill(pid, 0)``,
which assumes all writers share one host — true by construction for a local
journal file.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, List, Optional, Tuple

__all__ = ["JOURNAL_FORMAT", "LOCK_SUFFIX", "JournalLockedError", "JsonlScan",
           "SweepJournal", "read_jsonl"]

#: Version of the journal record layout; bump on incompatible changes.
#: Readers skip header records of other formats (and their files' records),
#: so an old journal degrades to "nothing to replay", never a crash.
JOURNAL_FORMAT = 1

#: Marker field of the header record (first line of a fresh journal).
_HEADER_MARKER = "repro-sweep-journal"

#: Suffix of the single-writer lockfile beside each journal.
LOCK_SUFFIX = ".lock"


class JournalLockedError(RuntimeError):
    """Another live process holds the journal's writer lock.

    Raised instead of appending when ``<journal>.lock`` exists and its
    stamped pid is alive.  Stale locks (dead pid) are reclaimed silently,
    so this only ever means a genuinely concurrent writer.
    """

    def __init__(self, path: str, owner_pid: Optional[int]) -> None:
        self.path = path
        self.owner_pid = owner_pid
        owner = (f"pid {owner_pid}" if owner_pid is not None
                 else "an unidentified process")
        super().__init__(
            f"journal {path!r} is locked by {owner} (live); "
            f"two writers on one journal would corrupt resume state. "
            f"Wait for it to finish, or remove {path + LOCK_SUFFIX!r} "
            f"if you are certain no writer is running.")


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; errs toward "alive" (never reclaims a
    lock it cannot prove stale)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OverflowError:
        # Not a representable pid: whatever stamped it, it is not running.
        return False
    except OSError:
        # EPERM and friends: the process exists but is not ours.
        return True
    return True


class JsonlScan:
    """Outcome of one tolerant JSONL scan (see :func:`read_jsonl`).

    Attributes
    ----------
    records:
        The parsed objects, in file order.
    good_end:
        Byte offset just past the last complete (newline-terminated) line —
        the truncation point that removes the torn tail, if any.
    torn_bytes:
        Length of the uncommitted tail after the last newline (0 = clean).
    skipped_lines:
        Complete lines that did not parse as JSON (corrupt middles; rare).
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.good_end = 0
        self.torn_bytes = 0
        self.skipped_lines = 0


def read_jsonl(path: str) -> JsonlScan:
    """Read a JSONL file tolerating a torn trailing record.

    A line is *committed* only when its trailing newline reached the file;
    anything after the last newline is a partial record from an interrupted
    writer and is reported via :attr:`JsonlScan.torn_bytes` instead of
    raising ``json.JSONDecodeError``.  Complete lines that fail to parse
    are counted in :attr:`JsonlScan.skipped_lines` and skipped.  A missing
    file scans as empty.
    """
    scan = JsonlScan()
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return scan
    offset = 0
    while True:
        newline = data.find(b"\n", offset)
        if newline < 0:
            break
        line = data[offset:newline]
        offset = newline + 1
        scan.good_end = offset
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            scan.skipped_lines += 1
            continue
        if isinstance(record, dict):
            scan.records.append(record)
        else:
            scan.skipped_lines += 1
    scan.torn_bytes = len(data) - scan.good_end
    return scan


class SweepJournal:
    """Append-only, crash-tolerant journal of completed sweep points.

    Parameters
    ----------
    path:
        The journal file.  Created (with a format header) on the first
        append; an existing file is replayed by :meth:`load` and healed of
        any torn tail before new records are appended.
    fsync:
        Also ``os.fsync`` after every record.  Off by default: a flush
        survives process death (the failure mode sweeps actually have);
        fsync additionally survives OS/power loss at a large per-point
        cost.

    Usage (what the engine does)::

        journal = SweepJournal(path)
        completed = journal.load()          # key -> record, torn tail healed
        ...                                 # skip points whose key is here
        journal.record(key, result)         # after each fresh completion
        journal.close()

    Attributes
    ----------
    replayed:
        Records the most recent :meth:`load` returned.
    failed:
        ``{key: record}`` of failure records the most recent :meth:`load`
        found (and that no later success superseded); each record carries
        the point identification plus a ``failure`` dict (the serialized
        :class:`~repro.sweep.supervisor.PointFailure`).
    torn_bytes_discarded:
        Bytes of partial trailing record discarded by the most recent
        :meth:`load` (0 for a cleanly-closed journal).
    skipped_lines:
        Corrupt complete lines the most recent :meth:`load` skipped.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        self.replayed = 0
        self.failed: Dict[str, Dict[str, Any]] = {}
        self.torn_bytes_discarded = 0
        self.skipped_lines = 0
        self._file: Optional[IO[str]] = None
        self._good_end: Optional[int] = None
        self._locked = False

    @property
    def lock_path(self) -> str:
        """Path of the single-writer lockfile beside the journal."""
        return self.path + LOCK_SUFFIX

    # -- single-writer lock ------------------------------------------------

    @staticmethod
    def _read_lock_pid(lock_path: str) -> Optional[int]:
        try:
            with open(lock_path, "r", encoding="utf-8") as f:
                stamp = json.load(f)
            return int(stamp["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _acquire_lock(self) -> None:
        """Take the O_EXCL writer lock, reclaiming a stale (dead-pid) one.

        Raises :class:`JournalLockedError` when a live process holds it.
        A lock that cannot be read at all is treated as stale — it can
        only come from a writer killed mid-stamp (the stamp itself is one
        small write, so this is vanishingly rare) and a live holder would
        have finished stamping before doing anything else.
        """
        if self._locked:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        stamp = json.dumps({"journal": os.path.basename(self.path),
                            "pid": os.getpid()})
        # Two attempts: the second runs only after unlinking a stale lock,
        # so losing it means a live writer raced us — a real conflict.
        for _attempt in range(2):
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                owner = self._read_lock_pid(self.lock_path)
                if owner is not None and _pid_alive(owner):
                    raise JournalLockedError(self.path, owner)
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(stamp)
            self._locked = True
            return
        raise JournalLockedError(self.path,
                                 self._read_lock_pid(self.lock_path))

    def _release_lock(self) -> None:
        if self._locked:
            try:
                os.unlink(self.lock_path)
            except OSError:
                pass
            self._locked = False

    # -- reading -----------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the journal: return ``{key: record}`` of completed points.

        Tolerates a missing file (empty journal), a torn trailing record
        (discarded; counted in :attr:`torn_bytes_discarded`) and corrupt
        lines (skipped).  Header records and records of other formats are
        ignored.  When the same key appears twice (two crashed runs sharing
        one journal) the later record wins.
        """
        scan = read_jsonl(self.path)
        self._good_end = scan.good_end
        self.torn_bytes_discarded = scan.torn_bytes
        self.skipped_lines = scan.skipped_lines
        completed: Dict[str, Dict[str, Any]] = {}
        failed: Dict[str, Dict[str, Any]] = {}
        for record in scan.records:
            if record.get("journal") == _HEADER_MARKER:
                if record.get("format") != JOURNAL_FORMAT:
                    # A file stamped by an incompatible layout: nothing
                    # after its header can be trusted to mean what this
                    # reader thinks it means.
                    break
                continue
            if record.get("format", JOURNAL_FORMAT) != JOURNAL_FORMAT:
                continue
            key = record.get("key")
            if not isinstance(key, str):
                continue
            if "sim" in record and "stats" in record:
                completed[key] = record
                # A success after a failure record: the retry won.
                failed.pop(key, None)
            elif isinstance(record.get("failure"), dict):
                if key not in completed:
                    failed[key] = record
        self.replayed = len(completed)
        self.failed = failed
        return completed

    # -- writing -----------------------------------------------------------

    def _open(self) -> IO[str]:
        """Open for appending, healing any torn tail exactly once.

        Takes the single-writer lock first (see :meth:`_acquire_lock`);
        the torn-tail truncation below is only safe when no live writer
        shares the file.
        """
        if self._file is None:
            self._acquire_lock()
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            if self._good_end is None:
                # Appending without a prior load() still must not extend a
                # torn tail into a corrupt middle line.
                scan = read_jsonl(self.path)
                self._good_end = scan.good_end
                self.torn_bytes_discarded = scan.torn_bytes
            fresh = not os.path.exists(self.path)
            if not fresh:
                size = os.path.getsize(self.path)
                if size > self._good_end:
                    with open(self.path, "r+b") as f:
                        f.truncate(self._good_end)
            self._file = open(self.path, "a", encoding="utf-8")
            if fresh or self._good_end == 0:
                self._write_line({"journal": _HEADER_MARKER,
                                  "format": JOURNAL_FORMAT})
        return self._file

    def _write_line(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert self._file is not None
        # One write call per record: a crash leaves at most a torn tail,
        # never an interleaving of two half-records.
        self._file.write(line + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        """Append one raw record (a JSON-able dict) with atomic framing."""
        self._open()
        self._write_line(record)

    def record(self, key: str, result: "PointResult") -> None:  # noqa: F821
        """Append the journal record of one completed *or failed* point.

        ``key`` is the point's result-cache key (content hash); a completed
        point's record stores everything needed to rebuild the
        :class:`PointResult` on resume without touching the cache or the
        simulator, a failed point's stores its serialized
        :class:`~repro.sweep.supervisor.PointFailure` (and no
        ``sim``/``stats``, so pre-failure readers simply skip it).
        """
        from repro.sweep.cache import sim_to_dict, stats_to_dict

        header = {
            "key": key,
            "index": result.index,
            "kernel": result.kernel,
            "isa": result.isa,
            "config": result.point.config.name,
            "mem_latency": result.point.config.mem_latency,
        }
        if result.failure is not None:
            self.append({**header, "failure": result.failure.to_dict()})
            return
        self.append({
            **header,
            "checked": result.checked,
            "sim": sim_to_dict(result.sim),
            "stats": stats_to_dict(result.stats),
        })

    def close(self) -> None:
        """Close the file and release the writer lock (appends reopen both)."""
        if self._file is not None:
            self._file.close()
            self._file = None
            # A later append must re-scan: the committed end has moved past
            # the offset remembered at open time.
            self._good_end = None
        self._release_lock()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
