"""Content-addressed on-disk cache of simulation results.

Each cached entry is one JSON file named by a stable SHA-256 hash of the
fully-resolved point description: kernel, ISA, every machine-configuration
field (including the per-opclass latency table), the workload spec, the
timing-model version and the front-end builder version.  Any change to any
of those — including bumping :data:`repro.timing.core.MODEL_VERSION` when
the timing model's numbers change, or
:data:`repro.frontend.builders.BUILDER_VERSION` when an emitted stream
changes — therefore produces a different key and a clean cache miss; stale
results can never be returned.  Both versions are read from their modules
at call time: there is no per-cache override.  Every result the engine
stores comes from a build verified against the golden reference, so an
entry carries no verification flag.

Layout::

    <cache_dir>/<key[:2]>/<key>.json

The two-character fan-out keeps directories small for big sweeps.  Entries
store the :class:`~repro.timing.results.SimResult` and the
:class:`~repro.trace.stats.TraceStats` of the run (everything the experiment
reducers need) — not the trace itself, which lives in its own store under
``<cache_dir>/traces/`` (see :mod:`repro.sweep.tracecache`) keyed only by
what the front end sees.  :mod:`repro.sweep.manage` administers both stores
(``repro cache stats|gc|clear``).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import fields
from typing import Any, Dict

from repro.common.atomicio import (atomic_write_json, quarantine_corrupt,
                                   stamp_checksum, verify_checksum)
from repro.frontend import builders
from repro.isa.opclasses import OpClass
from repro.timing.config import MachineConfig
from repro.timing import core
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats
from repro.sweep.spec import SweepPoint

__all__ = ["ResultCache", "point_key", "sim_to_dict", "sim_from_dict",
           "stats_to_dict", "stats_from_dict"]


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
        "model_version": core.MODEL_VERSION,
        "builder_version": builders.BUILDER_VERSION,
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


class ResultCache:
    """On-disk JSON result cache for sweep points.

    Parameters
    ----------
    cache_dir:
        Root directory; created on first write.  Entries are keyed by
        :func:`point_key`.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.hits = 0
        self.misses = 0
        #: Entries this instance quarantined (``*.corrupt``) because they
        #: failed to parse or their embedded checksum mismatched.
        self.corrupt = 0

    # -- key/path plumbing ------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    # -- cache operations -------------------------------------------------

    def get(self, point: SweepPoint):
        """Return the cached ``(SimResult, TraceStats)`` pair, or None.

        Any unreadable, corrupt, or schema-mismatched entry (e.g. written
        by an older code version that stored fewer fields) counts as a
        plain miss — the point is recomputed rather than crashing the
        sweep.  An entry that fails to parse or whose embedded content
        checksum mismatches is additionally **quarantined** to
        ``<entry>.corrupt`` (counted in :attr:`corrupt` and by ``repro
        cache stats``; ``gc`` sweeps it), so rotten bytes are preserved
        for inspection but can never be re-read.

        A hit touches the entry's mtime so age/size eviction
        (:func:`repro.sweep.manage.gc_cache`) is least-recently-*used*, not
        least-recently-written.
        """
        path = self._path(point_key(point))
        try:
            with open(path, "r", encoding="utf-8") as f:
                entry = json.load(f)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            entry = None  # unparseable bytes: quarantine below
        if entry is None or not verify_checksum(entry):
            quarantine_corrupt(path)
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            result = self.load_result(entry)
        except (ValueError, KeyError, TypeError):
            # Verified bytes in an unexpected schema (an older writer): a
            # plain miss, not corruption.
            self.misses += 1
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass
        self.hits += 1
        return result

    def put(self, point: SweepPoint, sim: SimResult, stats: TraceStats) -> str:
        """Store one result; returns the cache key.

        The write is atomic (tempfile + rename) so concurrent sweeps sharing
        a cache directory can never observe a half-written entry.
        """
        point = point.resolved()
        key = point_key(point)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "key": key,
            "model_version": core.MODEL_VERSION,
            "kernel": point.kernel,
            "isa": point.isa,
            "config": _config_to_dict(point.config),
            "workload": {"scale": point.spec.scale, "seed": point.spec.seed},
            "sim": sim_to_dict(sim),
            "stats": stats_to_dict(stats),
        }
        atomic_write_json(path, stamp_checksum(entry), sort_keys=True)
        return key

    def load_result(self, entry: Dict[str, Any]):
        """Deserialise one cache entry into ``(SimResult, TraceStats)``."""
        return sim_from_dict(entry["sim"]), stats_from_dict(entry["stats"])
