"""Content-addressed on-disk cache of simulation results.

Entries are keyed by a SHA-256 hash of the fully-resolved point: kernel,
ISA, every machine-configuration field (including the per-opclass latency
table), the workload spec, and :data:`repro.versions.MODEL_VERSION` and
:data:`repro.versions.BUILDER_VERSION`, read at call time.  Any change to
any of those — a timing-model or stream-changing edit bumps its version —
is a clean miss, so a stale result is never returned.  Every stored result
comes from a build verified against the golden reference.

The store is an append-only log, ``<cache_dir>/log/<time_ns>-<pid>.jsonl``.
Each writing store (the CLI and ``repro serve`` open one per process) owns
one segment; a record is one line, the entry's
:func:`~repro.common.atomicio.encode_stamped` text, written with one
``write`` and flushed (the framing :func:`read_jsonl` reads, which the
journal and ``--stream-jsonl`` files share), so no lock is needed.

The first lookup indexes every segment (:func:`scan_log`) by key without
decoding it: a line as this store writes it names its key in one
``"key":"..."`` token, so the index holds raw lines.  A hit decodes only
the line it serves, which must carry the requested ``"key"``, and checks
the stamp over the stored bytes
(:func:`~repro.common.atomicio.verify_stamped_bytes`): the line minus its
appended ``"checksum"`` member is the canonical JSON the stamp hashes, so
one SHA-256 verifies it.  A line that fast path cannot read (``", "``
separators, a stamp in sorted position, a foreign line) is checked by
re-encoding its record (:func:`~repro.common.atomicio.verify_checksum`),
so it hits or counts as corrupt as it always did.

Files of the older one-file-per-point layout
(``<cache_dir>/<key[:2]>/<key>.json``) are never read; ``repro cache
gc|clear`` (:mod:`repro.sweep.manage`) remove them and evict whole
segments, least recently hit first.

Entries store the :class:`~repro.timing.results.SimResult` and the
:class:`~repro.trace.stats.TraceStats` of the run — not the trace, which
lives under ``<cache_dir>/traces/`` (:mod:`repro.sweep.tracecache`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from typing import IO, Any, Dict, List, Optional, Set, Tuple

from repro.common.atomicio import (encode_stamped, verify_checksum,
                                   verify_stamped_bytes)
from repro import versions
from repro.isa.opclasses import OpClass
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats
from repro.sweep.spec import SweepPoint

__all__ = ["LOG_SUBDIR", "SEGMENT_SUFFIX", "JsonlScan", "ResultCache",
           "point_key", "point_record", "read_jsonl", "scan_log",
           "sim_to_dict", "sim_from_dict", "stats_to_dict", "stats_from_dict"]

#: Directory of the result log under a cache root.
LOG_SUBDIR = "log"

#: File suffix of one log segment.
SEGMENT_SUFFIX = ".jsonl"

#: A record's key member, and its head as the canonical encoding spells it.
_KEY_TOKEN = b'"key"'
_KEY_HEAD = b'"key":"'

#: One indexed line: its bytes, its segment's path, and the line indexed
#: under the same key before it (or ``None``).
IndexedLine = Tuple[bytes, str, Optional[tuple]]


def point_key(point: SweepPoint) -> str:
    """Stable content hash of a (resolved) sweep point.

    The hash is over the canonical JSON (sorted keys, no spaces) of the
    point's ``model_version``, ``builder_version``, ``kernel``, ``isa``,
    ``config`` and ``workload`` (``scale`` and ``seed``).  That text is
    spelled out here so its ``config`` part can be the machine's cached
    :attr:`~repro.timing.config.MachineConfig.canonical_json`; its bytes
    are the ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of
    that payload.  The timing-model and builder versions are read at call
    time, so every store and journal keyed here misses after either bump.
    """
    point = point.resolved()
    spec = point.spec
    dumps = json.dumps
    canonical = (
        f'{{"builder_version":{dumps(versions.BUILDER_VERSION)},'
        f'"config":{point.config.canonical_json},'
        f'"isa":{dumps(point.isa)},"kernel":{dumps(point.kernel)},'
        f'"model_version":{dumps(versions.MODEL_VERSION)},'
        f'"workload":{{"scale":{dumps(spec.scale)},'
        f'"seed":{dumps(spec.seed)}}}}}')
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Result (de)serialisation.

def sim_to_dict(sim: SimResult) -> Dict[str, Any]:
    """JSON-able view of a :class:`~repro.timing.results.SimResult`."""
    return {
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "operations": sim.operations,
        "kernel": sim.kernel,
        "isa": sim.isa,
        "config_name": sim.config_name,
        "mem_latency": sim.mem_latency,
        "issue_width": sim.issue_width,
        "stall_breakdown": dict(sim.stall_breakdown),
    }


def sim_from_dict(data: Dict[str, Any]) -> SimResult:
    """Inverse of :func:`sim_to_dict` (tolerates missing optional fields)."""
    return SimResult(
        cycles=data["cycles"],
        instructions=data["instructions"],
        operations=data["operations"],
        kernel=data.get("kernel", ""),
        isa=data.get("isa", ""),
        config_name=data.get("config_name", ""),
        mem_latency=data.get("mem_latency", 1),
        issue_width=data.get("issue_width", 1),
        stall_breakdown=dict(data.get("stall_breakdown", {})),
    )


def point_record(key: str, result: "PointResult") -> Dict[str, Any]:  # noqa: F821
    """One point's journal and service-event record: identification, then
    ``sim``/``stats`` or, for a failed point, its serialized ``failure``."""
    config = result.point.config
    record = {"key": key, "index": result.index, "kernel": result.kernel,
              "isa": result.isa, "config": config.name,
              "mem_latency": config.mem_latency}
    if result.failure is not None:
        record["failure"] = result.failure.to_dict()
    else:
        record.update(sim=sim_to_dict(result.sim),
                      stats=stats_to_dict(result.stats))
    return record


def stats_to_dict(stats: TraceStats) -> Dict[str, Any]:
    """JSON-able view of a :class:`~repro.trace.stats.TraceStats`."""
    return {
        "num_instructions": stats.num_instructions,
        "num_operations": stats.num_operations,
        "num_vector_instructions": stats.num_vector_instructions,
        "num_memory_instructions": stats.num_memory_instructions,
        "num_loads": stats.num_loads,
        "num_stores": stats.num_stores,
        "num_branches": stats.num_branches,
        "sum_vlx": stats.sum_vlx,
        "sum_vly": stats.sum_vly,
        "opcode_histogram": dict(stats.opcode_histogram),
        "opclass_histogram": {op.value: n for op, n
                              in stats.opclass_histogram.items()},
    }


#: Each :class:`OpClass` by its value: a dict lookup revives a stored
#: histogram key for a fraction of what calling ``OpClass(value)`` costs.
_OPCLASS_BY_VALUE = {opclass.value: opclass for opclass in OpClass}


def stats_from_dict(data: Dict[str, Any]) -> TraceStats:
    """Inverse of :func:`stats_to_dict` (opclass keys revived as enums; an
    unknown one raises :class:`KeyError`)."""
    return TraceStats(
        num_instructions=data["num_instructions"],
        num_operations=data["num_operations"],
        num_vector_instructions=data["num_vector_instructions"],
        num_memory_instructions=data["num_memory_instructions"],
        num_loads=data["num_loads"],
        num_stores=data["num_stores"],
        num_branches=data["num_branches"],
        sum_vlx=data["sum_vlx"],
        sum_vly=data["sum_vly"],
        opcode_histogram=Counter(data.get("opcode_histogram", {})),
        opclass_histogram=Counter({_OPCLASS_BY_VALUE[k]: v for k, v
                                   in data.get("opclass_histogram", {}).items()}),
    )


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


def _decode(line: bytes) -> Optional[Dict[str, Any]]:
    """One line's JSON object, or ``None`` when it is not one."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        return None
    return record if isinstance(record, dict) else None


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
        record = _decode(line)
        if record is None:
            scan.skipped_lines += 1
        else:
            scan.records.append(record)
    scan.torn_bytes = len(data) - scan.good_end
    return scan


def _line_key(line: bytes) -> Optional[str]:
    """The key a log line is indexed under, or ``None``.

    A line with one ``"key"`` token, which opens ``"key":"``, and no
    backslash (so no escape can hide or fake a token) is read without
    decoding: its key is the string after the token.  Every line this
    store writes is one.  Any other line is decoded and filed under its
    ``"key"`` member, if it has one.  :meth:`ResultCache.get` decodes the
    line it serves and checks that member, so a ``"key"`` token nested in
    a value never serves for its string.
    """
    at = line.find(_KEY_HEAD)
    if at >= 0 and line.count(_KEY_TOKEN) == 1 and b"\\" not in line:
        start = at + len(_KEY_HEAD)
        end = line.find(b'"', start)
        if end >= 0:
            try:
                return line[start:end].decode("utf-8")
            except UnicodeDecodeError:
                return None
    record = _decode(line)
    key = record.get("key") if record is not None else None
    return key if isinstance(key, str) else None


def scan_log(log_dir: str) -> Dict[str, IndexedLine]:
    """``{key: (line, segment path, older)}`` over every segment in
    ``log_dir``, undecoded (see :func:`_line_key`), oldest segment first
    (names start with the creation time), so a later line for a key wins;
    ``older`` chains the lines it superseded.  Torn tails and lines with
    no key are skipped."""
    try:
        names = sorted(name for name in os.listdir(log_dir)
                       if name.endswith(SEGMENT_SUFFIX))
    except OSError:
        names = []
    index: Dict[str, IndexedLine] = {}
    for name in names:
        path = os.path.join(log_dir, name)
        try:
            with open(path, "rb") as f:
                lines = f.read().split(b"\n")
        except OSError:
            continue
        del lines[-1]  # the torn tail after the last newline, if any
        for line in lines:
            key = _line_key(line)
            if key is not None:
                index[key] = (line, path, index.get(key))
    return index


class ResultCache:
    """Append-only JSONL result log for sweep points.

    ``cache_dir`` is the root; the log lives in ``<cache_dir>/log/``,
    created on the first put.  :attr:`hits` and :attr:`misses` count this
    instance's :meth:`get` calls, and :attr:`corrupt` the misses whose
    record failed its checksum.  :meth:`get` and :meth:`put` take an
    optional ``key``: a caller that already hashed the point (the engine
    and the service, so a run hashes each point once) passes it, and it
    must be ``point_key(point)``; without it the store hashes the point.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.log_dir = os.path.join(self.cache_dir, LOG_SUBDIR)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: The raw-line index (:func:`scan_log`), built by the first get.
        self._index: Optional[Dict[str, IndexedLine]] = None
        self._segment: Optional[IO[str]] = None
        self._touched: Set[str] = set()

    def get(self, point: SweepPoint, key: Optional[str] = None):
        """Return the cached ``(SimResult, TraceStats)`` pair, or None.

        The newest line indexed under the key that decodes to a record
        with that ``"key"`` is the point's record.  A record failing its
        checksum is dropped (counted in :attr:`corrupt`) and a verified one
        in an older schema skipped: either way the point recomputes and its
        new record supersedes the bad one.  The first hit in each segment
        touches the segment's mtime, so ``repro cache gc`` evicts the least
        recently *hit* segment first.  ``key``, if given, must be
        ``point_key(point)``.
        """
        if self._index is None:
            self._index = scan_log(self.log_dir)
        if key is None:
            key = point_key(point)
        entry = line = segment = None
        older = self._index.get(key)
        while entry is None and older is not None:
            line, segment, older = older
            entry = _decode(line)
            if entry is not None and entry.get("key") != key:
                entry = None
        if entry is None:
            self.misses += 1
            return None
        if not (verify_stamped_bytes(line) or verify_checksum(entry)):
            del self._index[key]
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            result = (sim_from_dict(entry["sim"]),
                      stats_from_dict(entry["stats"]))
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if segment not in self._touched:
            self._touched.add(segment)
            try:
                os.utime(segment, None)
            except OSError:
                pass
        self.hits += 1
        return result

    def put(self, point: SweepPoint, sim: SimResult, stats: TraceStats,
            key: Optional[str] = None) -> str:
        """Append one result to this store's segment; returns the key.

        One ``write`` and a flush per record: a crash leaves at most a
        torn tail, which readers skip.  ``key``, if given, must be
        ``point_key(point)``; the record is filed under it unchecked.
        """
        point = point.resolved()
        if key is None:
            key = point_key(point)
        entry = {
            "key": key,
            "model_version": versions.MODEL_VERSION,
            "kernel": point.kernel,
            "isa": point.isa,
            "config": point.config.canonical_dict(),
            "workload": {"scale": point.spec.scale, "seed": point.spec.seed},
            "sim": sim_to_dict(sim),
            "stats": stats_to_dict(stats),
        }
        if self._segment is None:
            os.makedirs(self.log_dir, exist_ok=True)
            name = f"{time.time_ns()}-{os.getpid()}{SEGMENT_SUFFIX}"
            self._segment = open(os.path.join(self.log_dir, name), "a",
                                 encoding="utf-8")
        line = encode_stamped(entry)
        self._segment.write(line + "\n")
        self._segment.flush()
        if self._index is not None:
            self._index[key] = (line.encode("utf-8"), self._segment.name,
                                None)
        return key

    def close(self) -> None:
        """Close this store's segment; a later put opens a new one."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None
