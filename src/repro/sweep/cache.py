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
``write`` and flushed — the journal's framing — so no lock is needed.  The
first lookup indexes every segment (:func:`scan_log`); a hit re-verifies
the checksum.  Files of the older one-file-per-point layout
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
from dataclasses import fields
from typing import IO, Any, Dict, Optional, Set, Tuple

from repro.common.atomicio import encode_stamped, verify_checksum
from repro import versions
from repro.isa.opclasses import OpClass
from repro.timing.config import MachineConfig
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats
from repro.sweep.journal import read_jsonl
from repro.sweep.spec import SweepPoint

__all__ = ["LOG_SUBDIR", "SEGMENT_SUFFIX", "ResultCache", "point_key",
           "point_record", "scan_log", "sim_to_dict", "sim_from_dict",
           "stats_to_dict", "stats_from_dict"]

#: Directory of the result log under a cache root.
LOG_SUBDIR = "log"

#: File suffix of one log segment.
SEGMENT_SUFFIX = ".jsonl"


def _config_to_dict(config: MachineConfig) -> Dict[str, Any]:
    """Canonical, JSON-stable view of a machine configuration."""
    out: Dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "latencies":
            value = {op.value: int(lat) for op, lat in sorted(
                value.items(), key=lambda kv: kv[0].value)}
        out[f.name] = value
    return out


def point_key(point: SweepPoint) -> str:
    """Stable content hash of a (resolved) sweep point.

    The timing-model and builder versions are read at call time, so every
    store and journal keyed here misses after either bump.
    """
    point = point.resolved()
    spec = point.spec
    payload = {
        "model_version": versions.MODEL_VERSION,
        "builder_version": versions.BUILDER_VERSION,
        "kernel": point.kernel,
        "isa": point.isa,
        "config": _config_to_dict(point.config),
        "workload": {"scale": spec.scale, "seed": spec.seed},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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


def stats_from_dict(data: Dict[str, Any]) -> TraceStats:
    """Inverse of :func:`stats_to_dict` (opclass keys revived as enums)."""
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
        opclass_histogram=Counter({OpClass(k): v for k, v
                                   in data.get("opclass_histogram", {}).items()}),
    )


def scan_log(log_dir: str) -> Dict[str, Tuple[Dict[str, Any], str]]:
    """``{key: (record, segment path)}`` over every segment in ``log_dir``,
    oldest segment first (names start with the creation time), so a later
    record for a key wins.  Torn tails and unparseable lines are skipped."""
    try:
        names = sorted(name for name in os.listdir(log_dir)
                       if name.endswith(SEGMENT_SUFFIX))
    except OSError:
        names = []
    index: Dict[str, Tuple[Dict[str, Any], str]] = {}
    for name in names:
        path = os.path.join(log_dir, name)
        for record in read_jsonl(path).records:
            key = record.get("key")
            if isinstance(key, str):
                index[key] = (record, path)
    return index


class ResultCache:
    """Append-only JSONL result log for sweep points.

    ``cache_dir`` is the root; the log lives in ``<cache_dir>/log/``,
    created on the first put.  :attr:`hits` and :attr:`misses` count this
    instance's :meth:`get` calls, and :attr:`corrupt` the misses whose
    record failed its checksum.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.log_dir = os.path.join(self.cache_dir, LOG_SUBDIR)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: ``key -> (entry, segment path)``, built by the first get.
        self._index: Optional[Dict[str, Tuple[Dict[str, Any], str]]] = None
        self._segment: Optional[IO[str]] = None
        self._touched: Set[str] = set()

    def get(self, point: SweepPoint):
        """Return the cached ``(SimResult, TraceStats)`` pair, or None.

        A record failing its checksum is dropped (counted in
        :attr:`corrupt`) and a verified one in an older schema skipped:
        either way the point recomputes and its new record supersedes the
        bad one.  The first hit in each segment touches the segment's
        mtime, so ``repro cache gc`` evicts the least recently *hit*
        segment first.
        """
        if self._index is None:
            self._index = scan_log(self.log_dir)
        key = point_key(point)
        found = self._index.get(key)
        if found is None:
            self.misses += 1
            return None
        entry, segment = found
        if not verify_checksum(entry):
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

    def put(self, point: SweepPoint, sim: SimResult, stats: TraceStats) -> str:
        """Append one result to this store's segment; returns the key.

        One ``write`` and a flush per record: a crash leaves at most a
        torn tail, which readers skip.
        """
        point = point.resolved()
        key = point_key(point)
        entry = {
            "key": key,
            "model_version": versions.MODEL_VERSION,
            "kernel": point.kernel,
            "isa": point.isa,
            "config": _config_to_dict(point.config),
            "workload": {"scale": point.spec.scale, "seed": point.spec.seed},
            "sim": sim_to_dict(sim),
            "stats": stats_to_dict(stats),
        }
        if self._segment is None:
            os.makedirs(self.log_dir, exist_ok=True)
            name = f"{time.time_ns()}-{os.getpid()}{SEGMENT_SUFFIX}"
            self._segment = open(os.path.join(self.log_dir, name), "a",
                                 encoding="utf-8")
        self._segment.write(encode_stamped(entry) + "\n")
        self._segment.flush()
        if self._index is not None:
            self._index[key] = (entry, self._segment.name)
        return key

    def close(self) -> None:
        """Close this store's segment; a later put opens a new one."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None
